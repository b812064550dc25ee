//! Typed failure propagation for the SPMD runtime.
//!
//! A rank can die mid-run — its process SIGKILLed, its thread panicked,
//! or a fault plan killed it on purpose. There is one failure
//! discipline: a survivor learns of the death at one of the three calls
//! that reach the transport (a post, a blocking receive, a non-blocking
//! probe — closed-flag propagation, see [`crate::transport`]) and raises
//! a [`CommError`] right there instead of parking forever. The error
//! travels as a panic payload, so it unwinds through arbitrarily deep
//! collective internals and every public signature above stays
//! infallible; the harness boundary ([`crate::Runner`] /
//! [`crate::run_worker`]) catches it, classifies it, and surfaces a typed
//! [`SpmdFailure`] naming every rank that went down and why.

use std::any::Any;
use std::fmt;

use crate::runtime::Rank;

/// A communication operation failed because a peer rank is gone.
///
/// `rank` is always a **world** rank, even when the failure surfaced
/// inside a sub-communicator — the launcher and the tests name ranks in
/// world coordinates, and a sub-rank index would be meaningless outside
/// the communicator it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The peer shut down (its last `Comm` dropped, or its harness caught
    /// its unwind) or its process exited; `ctx` says what this rank was
    /// doing at the time ("waiting for tag 0x… during bcast" — a
    /// collective's reserved tag names the collective).
    PeerGone { rank: Rank, ctx: String },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::PeerGone { rank, ctx } => {
                write!(
                    f,
                    "rank {rank} disconnected while {ctx} (peer rank died or panicked)"
                )
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Unwind the current rank with a typed error as the panic payload. The
/// SPMD harness catches it and reports a [`FailureCause::PeerGone`]
/// instead of a plain panic.
pub(crate) fn raise(err: CommError) -> ! {
    std::panic::panic_any(err)
}

/// Keep the default panic hook from spraying `Box<dyn Any>` backtraces
/// for the *typed* unwinds ([`CommError`], [`FaultKill`]) the harnesses
/// always catch and classify — those are control flow, not crashes, and
/// "rank 2 died" must not read like four panics. Organic panics still
/// go through whatever hook was installed before. Idempotent; called by
/// every harness entry point.
pub(crate) fn silence_typed_unwinds() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if payload.is::<CommError>() || payload.is::<FaultKill>() {
                return;
            }
            previous(info);
        }));
    });
}

/// Panic payload used by the fault-injection transport's `kill:` action
/// in thread mode: distinguishes "this rank was killed on purpose by
/// the fault plan" from an organic panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FaultKill {
    /// World rank the plan killed.
    pub rank: Rank,
    /// The trigger that fired, in `FaultPlan` syntax.
    pub desc: String,
}

/// Why one rank of an SPMD run went down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureCause {
    /// Unwound cleanly after observing a dead peer — a cascade victim,
    /// not the root cause.
    PeerGone(CommError),
    /// Killed on purpose by an injected fault plan.
    Killed(String),
    /// Organic panic (assertion, bug, explicit `panic!`).
    Panic(String),
}

impl FailureCause {
    /// Root causes sort before cascade effects: a killed or panicked
    /// rank explains the PeerGone unwinds around it.
    fn severity(&self) -> u8 {
        match self {
            FailureCause::Killed(_) => 0,
            FailureCause::Panic(_) => 1,
            FailureCause::PeerGone(_) => 2,
        }
    }
}

/// One rank's failure within an SPMD run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankFailure {
    /// World rank that failed.
    pub rank: Rank,
    pub cause: FailureCause,
}

impl fmt::Display for RankFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.cause {
            FailureCause::PeerGone(e) => write!(f, "rank {}: {e}", self.rank),
            FailureCause::Killed(d) => write!(f, "rank {} killed by fault plan ({d})", self.rank),
            FailureCause::Panic(m) => write!(f, "rank {} panicked: {m}", self.rank),
        }
    }
}

/// An SPMD run ended with at least one dead rank. Failures are ordered
/// most-likely-root-cause first (kills and panics before PeerGone
/// cascades, ties broken by rank), so [`SpmdFailure::primary`] — and the
/// first clause of the `Display` — names the rank that actually started
/// the failure, not a survivor that unwound because of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpmdFailure {
    pub failures: Vec<RankFailure>,
}

impl SpmdFailure {
    pub(crate) fn new(mut failures: Vec<RankFailure>) -> SpmdFailure {
        failures.sort_by_key(|f| (f.cause.severity(), f.rank));
        SpmdFailure { failures }
    }

    /// The most plausible root cause.
    pub fn primary(&self) -> &RankFailure {
        &self.failures[0]
    }
}

impl fmt::Display for SpmdFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, failure) in self.failures.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{failure}")?;
        }
        Ok(())
    }
}

impl std::error::Error for SpmdFailure {}

/// Classify a caught panic payload from a rank thread or worker body.
pub(crate) fn classify_panic(payload: Box<dyn Any + Send>) -> FailureCause {
    match payload.downcast::<CommError>() {
        Ok(err) => FailureCause::PeerGone(*err),
        Err(payload) => match payload.downcast::<FaultKill>() {
            Ok(kill) => FailureCause::Killed(kill.desc),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic>");
                FailureCause::Panic(msg.to_owned())
            }
        },
    }
}
