//! Deterministic, seeded fault injection below the comm layer.
//!
//! A [`FaultPlan`] describes *when ranks die* — kill rank `r` after its
//! N-th posted or received message or while a named profiling phase is
//! active, sever one peer link, jitter delivery with a seeded RNG — and
//! a `FaultTransport` wrapper enforces it around any backend. The
//! wrapper sits **below** the wire-byte model (bytes are booked from
//! [`crate::CommMsg::nbytes`] above the transport), so a plan that
//! injects only delay perturbs scheduling without moving a single
//! profiled byte, and a no-fault plan is not wrapped at all.
//!
//! Plans are strings — `elba assemble --fault PLAN`, a serve job's
//! `fault=` — parsed by [`FaultPlan::parse`] and handed to a harness as
//! a value: [`crate::Runner::faults`] for thread ranks,
//! [`crate::run_worker`]'s argument for a worker process:
//!
//! ```text
//! kill:1@posts:5000            rank 1 dies after its 5000th post
//! sigkill:2@phase:Alignment    rank 2 is SIGKILLed inside Alignment
//! sever:0-3@recvs:100          link 0<->3 cut once either end hits 100 recvs
//! delay:50;seed:7              ≤50µs seeded jitter before every post
//! kill:0@posts:10;delay:5      clauses compose with ';'
//! ```
//!
//! How a rank dies depends on where it lives: a thread rank unwinds
//! with a typed payload the harness classifies as
//! [`crate::FailureCause::Killed`]; a process rank exits with
//! [`FAULT_KILLED_EXIT`] (soft) or SIGKILLs itself (hard), and the
//! launcher's exit taxonomy tells the two apart. Either way the dead
//! rank's closed flag (see [`crate::transport`]) turns the death into
//! typed `PeerGone` errors on every survivor instead of a hang.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use super::{Envelope, PeerGone, Transport};
use crate::error::FaultKill;
use crate::runtime::Rank;

/// Process exit code of a rank soft-killed by a fault plan. Kept in the
/// comm crate because the dying worker process is the one that has to
/// use it; `elba`'s exit taxonomy re-exports it as `exit::FAULT_KILLED`.
pub const FAULT_KILLED_EXIT: u8 = 14;

/// When a fault fires, relative to this rank's own transport activity.
/// Counter triggers are exact and deterministic (the transport call
/// sequence is fixed by the algorithm, not by timing); phase triggers
/// fire at the first transport operation while the named profiling
/// phase is active on the rank's stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Trigger {
    /// Fire at the first transport operation.
    Now,
    /// Fire once this rank has posted `n` envelopes.
    Posts(u64),
    /// Fire once this rank has received `n` envelopes.
    Recvs(u64),
    /// Fire while the named profiling phase (e.g. `Alignment`) is
    /// active — subphases count their parents as active.
    Phase(String),
}

impl Trigger {
    fn fmt_suffix(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trigger::Now => Ok(()),
            Trigger::Posts(n) => write!(f, "@posts:{n}"),
            Trigger::Recvs(n) => write!(f, "@recvs:{n}"),
            Trigger::Phase(name) => write!(f, "@phase:{name}"),
        }
    }

    fn parse(spec: &str) -> Result<Trigger, String> {
        let (kind, arg) = spec
            .split_once(':')
            .ok_or_else(|| format!("trigger '{spec}': expected posts:N, recvs:N or phase:NAME"))?;
        match kind {
            "posts" => Ok(Trigger::Posts(parse_num(arg, "posts")?)),
            "recvs" => Ok(Trigger::Recvs(parse_num(arg, "recvs")?)),
            "phase" if arg.is_empty() => Err("trigger 'phase:': empty phase name".to_owned()),
            "phase" => Ok(Trigger::Phase(arg.to_owned())),
            other => Err(format!("unknown trigger '{other}'")),
        }
    }
}

/// What happens when a fault fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FaultKind {
    /// World rank dies cleanly: a thread rank unwinds with [`FaultKill`],
    /// a process rank exits with [`FAULT_KILLED_EXIT`].
    Kill(Rank),
    /// World rank dies *hard*: a process rank SIGKILLs itself — no
    /// unwind, no goodbye frame, peers find out from the dead socket. In
    /// thread mode this degrades to [`FaultKind::Kill`] (a thread
    /// cannot SIGKILL itself without taking the harness down).
    SigKill(Rank),
    /// The link between two world ranks is cut: each end's posts to the
    /// other fail with `PeerGone` once that end's trigger has fired.
    Sever(Rank, Rank),
}

/// One fault: what happens, and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Fault {
    kind: FaultKind,
    trigger: Trigger,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::Kill(r) => write!(f, "kill:{r}")?,
            FaultKind::SigKill(r) => write!(f, "sigkill:{r}")?,
            FaultKind::Sever(a, b) => write!(f, "sever:{a}-{b}")?,
        }
        self.trigger.fmt_suffix(f)
    }
}

/// A deterministic fault schedule for one SPMD run, built with
/// [`FaultPlan::parse`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for the delivery-jitter RNG (each rank derives its own
    /// stream from it, so runs are reproducible across schedulers).
    seed: u64,
    /// Upper bound, in microseconds, of the seeded jitter slept before
    /// every post; `0` disables jitter.
    delay_us: u64,
    /// The faults themselves, in plan order.
    faults: Vec<Fault>,
}

fn parse_num(s: &str, what: &str) -> Result<u64, String> {
    s.parse()
        .map_err(|_| format!("{what}: '{s}' is not a number"))
}

fn parse_rank(s: &str, what: &str) -> Result<Rank, String> {
    s.parse()
        .map_err(|_| format!("{what}: '{s}' is not a rank"))
}

impl FaultPlan {
    /// Parse the `;`-joined clause syntax shown in the module docs.
    /// Whitespace around clauses is tolerated; empty clauses are not.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                return Err(format!("fault plan '{spec}': empty clause"));
            }
            let (head, trigger) = match clause.split_once('@') {
                Some((head, spec)) => (head, Trigger::parse(spec)?),
                None => (clause, Trigger::Now),
            };
            let (kind, arg) = head
                .split_once(':')
                .ok_or_else(|| format!("clause '{clause}': expected kind:arg"))?;
            let kind = match kind {
                "seed" | "delay" if trigger != Trigger::Now => {
                    return Err(format!("clause '{clause}': {kind} takes no trigger"));
                }
                "seed" => {
                    plan.seed = parse_num(arg, "seed")?;
                    continue;
                }
                "delay" => {
                    plan.delay_us = parse_num(arg, "delay")?;
                    continue;
                }
                "kill" => FaultKind::Kill(parse_rank(arg, "kill")?),
                "sigkill" => FaultKind::SigKill(parse_rank(arg, "sigkill")?),
                "sever" => {
                    let (a, b) = arg
                        .split_once('-')
                        .ok_or_else(|| format!("sever: '{arg}' is not A-B"))?;
                    let (a, b) = (parse_rank(a, "sever")?, parse_rank(b, "sever")?);
                    if a == b {
                        return Err(format!("sever: link {a}-{b} joins a rank to itself"));
                    }
                    FaultKind::Sever(a, b)
                }
                other => return Err(format!("unknown fault kind '{other}'")),
            };
            plan.faults.push(Fault { kind, trigger });
        }
        Ok(plan)
    }

    /// Whether this plan changes nothing — harnesses skip wrapping
    /// entirely, so the default path carries zero fault-layer overhead.
    pub(crate) fn is_noop(&self) -> bool {
        self.faults.is_empty() && self.delay_us == 0
    }

    /// Check that every rank the plan names (`kill`/`sigkill` targets,
    /// both ends of a `sever`) exists among `nranks`: a fault aimed
    /// outside the world never fires, so the run would pass silently.
    pub fn check_ranks(&self, nranks: usize) -> Result<(), String> {
        for fault in &self.faults {
            let r = match fault.kind {
                FaultKind::Kill(r) | FaultKind::SigKill(r) => r,
                FaultKind::Sever(a, b) => a.max(b),
            };
            if r >= nranks {
                return Err(format!(
                    "'{fault}' targets rank {r}, but the run has only {nranks} ranks"
                ));
            }
        }
        Ok(())
    }
}

/// Where the ranks of this run live, hence how a kill is delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultMode {
    /// Ranks are threads of the harness process ([`crate::Runner`] on
    /// either backend): a kill unwinds with [`FaultKill`].
    Thread,
    /// Ranks are processes (`elba launch` workers): a kill takes the
    /// process down with [`FAULT_KILLED_EXIT`] or a real SIGKILL.
    Process,
}

/// Per-rank runtime state of a plan: activity counters, the per-rank
/// jitter RNG stream, and which sever faults have latched. Owned by the
/// rank's one [`FaultTransport`], which wraps the world endpoint every
/// communicator of the rank posts and receives through — so counters
/// span the whole mesh like the plan semantics require.
struct FaultState {
    plan: FaultPlan,
    /// This rank's world rank (faults speak world ranks).
    world: Rank,
    mode: FaultMode,
    posts: AtomicU64,
    recvs: AtomicU64,
    /// One latch per plan fault; a sever stays cut once triggered.
    latched: Vec<AtomicBool>,
    rng: Mutex<u64>,
}

/// splitmix64: tiny, seedable, good enough for jitter.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultState {
    fn new(plan: FaultPlan, world: Rank, mode: FaultMode) -> FaultState {
        let latched = (0..plan.faults.len())
            .map(|_| AtomicBool::new(false))
            .collect();
        // Each rank gets its own RNG stream: same seed, disjoint jitter.
        let rng = Mutex::new(plan.seed ^ ((world as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)));
        FaultState {
            plan,
            world,
            mode,
            posts: AtomicU64::new(0),
            recvs: AtomicU64::new(0),
            latched,
            rng,
        }
    }

    fn satisfied(&self, trigger: &Trigger) -> bool {
        match trigger {
            Trigger::Now => true,
            Trigger::Posts(n) => self.posts.load(Ordering::Relaxed) >= *n,
            Trigger::Recvs(n) => self.recvs.load(Ordering::Relaxed) >= *n,
            Trigger::Phase(name) => crate::profile::phase_active(name),
        }
    }

    /// Check every kill fault aimed at this rank; diverges if one fires.
    fn check_kills(&self) {
        for fault in &self.plan.faults {
            let (rank, hard) = match fault.kind {
                FaultKind::Kill(r) => (r, false),
                FaultKind::SigKill(r) => (r, true),
                FaultKind::Sever(..) => continue,
            };
            if rank == self.world && self.satisfied(&fault.trigger) {
                self.die(fault, hard);
            }
        }
    }

    fn die(&self, fault: &Fault, hard: bool) -> ! {
        let desc = fault.to_string();
        match self.mode {
            // A thread cannot SIGKILL itself without killing the whole
            // harness, so hard degrades to a clean unwind here.
            FaultMode::Thread => std::panic::panic_any(FaultKill {
                rank: self.world,
                desc,
            }),
            FaultMode::Process if hard => {
                // A real SIGKILL: no unwind, no goodbye frame — peers
                // must notice through the transport, which is the point.
                let pid = std::process::id().to_string();
                let _ = std::process::Command::new("kill")
                    .args(["-9", &pid])
                    .status();
                // If no `kill` binary exists, still die abnormally.
                std::process::abort();
            }
            FaultMode::Process => {
                eprintln!("rank {} killed by fault plan ({desc})", self.world);
                std::process::exit(i32::from(FAULT_KILLED_EXIT));
            }
        }
    }

    /// Whether the link between world ranks `a` and `b` is (now) cut.
    /// A sever latches at the first check finding its trigger satisfied
    /// and stays cut for the rest of the run.
    fn link_severed(&self, a: Rank, b: Rank) -> bool {
        for (i, fault) in self.plan.faults.iter().enumerate() {
            let FaultKind::Sever(x, y) = fault.kind else {
                continue;
            };
            if (x, y) != (a, b) && (x, y) != (b, a) {
                continue;
            }
            if self.latched[i].load(Ordering::Relaxed) {
                return true;
            }
            if self.satisfied(&fault.trigger) {
                self.latched[i].store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Seeded pre-post jitter; a pure scheduling perturbation, invisible
    /// to the wire-byte model.
    fn jitter(&self) {
        if self.plan.delay_us == 0 {
            return;
        }
        let us = {
            let mut rng = self
                .rng
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            splitmix64(&mut rng) % (self.plan.delay_us + 1)
        };
        if us > 0 {
            std::thread::sleep(Duration::from_micros(us));
        }
    }
}

/// [`Transport`] wrapper that enforces a [`FaultPlan`]. Composes over
/// either backend: one wrapper per rank, around its world endpoint.
pub(crate) struct FaultTransport {
    inner: Arc<dyn Transport>,
    state: FaultState,
}

impl FaultTransport {
    /// Wrap `inner` unless the plan is a no-op (then `inner` is
    /// returned untouched — the default path stays wrapper-free).
    pub(crate) fn wrap(
        inner: Arc<dyn Transport>,
        plan: &FaultPlan,
        mode: FaultMode,
    ) -> Arc<dyn Transport> {
        if plan.is_noop() {
            return inner;
        }
        Arc::new(FaultTransport {
            state: FaultState::new(plan.clone(), inner.rank(), mode),
            inner,
        })
    }
}

impl Transport for FaultTransport {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn post(&self, dst: Rank, envelope: Envelope) -> Result<(), PeerGone> {
        if self.state.link_severed(self.state.world, dst) {
            return Err(PeerGone);
        }
        self.state.jitter();
        self.inner.post(dst, envelope)?;
        // Count *after* delivery: `posts:N` means the N-th message got
        // out before the rank dies — exactly reproducible mid-exchange
        // death, not a race with it.
        self.state.posts.fetch_add(1, Ordering::Relaxed);
        self.state.check_kills();
        Ok(())
    }

    fn recv_from(&self, src: Rank) -> Result<Envelope, PeerGone> {
        let envelope = self.inner.recv_from(src)?;
        self.state.recvs.fetch_add(1, Ordering::Relaxed);
        self.state.check_kills();
        Ok(envelope)
    }

    fn shutdown(&self) {
        self.inner.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_round_trip() {
        let specs = [
            "kill:1@posts:5000",
            "sigkill:2@phase:Alignment",
            "sever:0-3@recvs:100",
            "seed:7;delay:50",
            "seed:9;delay:5;kill:0@posts:10;sever:1-2",
            "kill:3",
        ];
        // Every fault clause displays back as written (error messages
        // quote it); `seed` and `delay` are plan-wide values.
        for spec in specs {
            let plan = FaultPlan::parse(spec).expect(spec);
            let mut clauses = Vec::new();
            for clause in spec.split(';') {
                match clause.split_once(':') {
                    Some(("seed", n)) => assert_eq!(plan.seed.to_string(), n, "{spec}"),
                    Some(("delay", n)) => assert_eq!(plan.delay_us.to_string(), n, "{spec}"),
                    _ => clauses.push(clause),
                }
            }
            let shown: Vec<String> = plan.faults.iter().map(Fault::to_string).collect();
            assert_eq!(shown, clauses, "round trip of '{spec}'");
        }
    }

    #[test]
    fn parse_tolerates_whitespace() {
        let plan = FaultPlan::parse(" kill:1@posts:3 ; delay:9 ").expect("valid");
        assert_eq!(plan.delay_us, 9);
        assert_eq!(
            plan.faults,
            vec![Fault {
                kind: FaultKind::Kill(1),
                trigger: Trigger::Posts(3),
            }]
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "kill",
            "kill:x",
            "kill:1@",
            "kill:1@posts:abc",
            "kill:1@phase:",
            "explode:1",
            "sever:2",
            "sever:2-2",
            "kill:1;;delay:3",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "'{bad}' should not parse");
        }
    }

    #[test]
    fn noop_plans() {
        assert!(FaultPlan::default().is_noop());
        assert!(FaultPlan::parse("seed:42").expect("valid").is_noop());
        assert!(!FaultPlan::parse("delay:1").expect("valid").is_noop());
    }

    #[test]
    fn check_ranks_covers_kills_sigkills_and_both_sever_ends() {
        let plan = FaultPlan::parse("kill:2;sigkill:0;sever:1-3;delay:5").expect("valid");
        assert_eq!(plan.check_ranks(4), Ok(()));
        for (spec, nranks, culprit) in [
            ("kill:4", 4, "rank 4"),
            ("sigkill:9@phase:Alignment", 4, "rank 9"),
            ("sever:0-9", 4, "rank 9"),
            ("sever:9-0@posts:2", 4, "rank 9"),
            ("kill:1", 1, "rank 1"),
        ] {
            let err = FaultPlan::parse(spec)
                .expect("valid")
                .check_ranks(nranks)
                .expect_err(spec);
            assert!(err.contains(culprit) && err.contains(spec), "{spec}: {err}");
        }
        assert_eq!(
            FaultPlan::parse("seed:3;delay:9")
                .expect("valid")
                .check_ranks(1),
            Ok(())
        );
    }

    #[test]
    fn counter_triggers_fire_exactly() {
        let plan = FaultPlan::parse("kill:5@posts:3").expect("valid");
        let state = FaultState::new(plan, 5, FaultMode::Thread);
        let trigger = Trigger::Posts(3);
        for _ in 0..2 {
            state.posts.fetch_add(1, Ordering::Relaxed);
            assert!(!state.satisfied(&trigger));
        }
        state.posts.fetch_add(1, Ordering::Relaxed);
        assert!(state.satisfied(&trigger));
    }

    #[test]
    fn sever_latches_on_either_orientation() {
        let plan = FaultPlan::parse("sever:0-3@posts:1").expect("valid");
        let state = FaultState::new(plan, 0, FaultMode::Thread);
        assert!(!state.link_severed(0, 3), "trigger not yet satisfied");
        state.posts.fetch_add(1, Ordering::Relaxed);
        assert!(state.link_severed(3, 0), "orientation-agnostic");
        assert!(state.link_severed(0, 3), "stays latched");
        assert!(!state.link_severed(0, 2), "other links untouched");
    }

    #[test]
    fn jitter_streams_are_seeded_and_per_rank() {
        let plan = FaultPlan::parse("seed:7;delay:1000").expect("valid");
        let draw = |world: Rank| {
            let state = FaultState::new(plan.clone(), world, FaultMode::Thread);
            let mut rng = state.rng.lock().expect("fresh");
            let mut out = Vec::new();
            for _ in 0..4 {
                out.push(splitmix64(&mut rng));
            }
            out
        };
        assert_eq!(draw(0), draw(0), "deterministic per seed+rank");
        assert_ne!(draw(0), draw(1), "disjoint streams per rank");
    }
}
