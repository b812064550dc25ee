//! Pluggable rank-to-rank message plane.
//!
//! A transport knows only the **world**: one endpoint per rank, one inbox
//! per endpoint, every peer addressed by its world rank. Communicators
//! are not its business — a [`crate::Comm`] is a *view* over its rank's
//! one endpoint (a context id, a member list, a collective sequence), and
//! an envelope carries the context id next to its tag so the receive
//! path above the transport matches `(world source, ctx, tag)`.
//! `Comm::split` is therefore arithmetic, and no backend implements it.
//!
//! Everything above this module — point-to-point sends, collectives,
//! communicator management, byte accounting — is transport-agnostic:
//! it never knows whether its peers are threads in the same address
//! space or processes on the other end of a socket.
//!
//! Two backends ship:
//!
//! * `in_process` — one OS thread per rank, payloads move as boxed
//!   values without serialization. The tier-1 default
//!   ([`crate::Backend::InProcess`]).
//! * [`socket`] — ranks are processes exchanging length-prefixed
//!   serialized frames over Unix-domain sockets ([`wire`] defines the
//!   format). Used by `elba launch` and by [`crate::Backend::Socket`].
//!
//! The wire-byte model (invariant 2) lives *above* the transport: bytes
//! are booked from [`crate::CommMsg::nbytes`] at send time, so profiled
//! traffic is byte-identical across backends even though only one of
//! them ever serializes anything.

pub mod fault;
pub(crate) mod in_process;
pub mod socket;
pub mod wire;

use std::any::Any;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use crate::msg::CommMsg;
use crate::runtime::{Rank, Tag};

/// Object-safe face of a [`CommMsg`] payload held by value: the
/// in-process fast path moves it as `Any`, the socket path serializes it
/// on demand.
pub(crate) trait WireAny: Send {
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send>;
    fn encode(&self, out: &mut Vec<u8>);
}

impl<T: CommMsg> WireAny for T {
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.wire_encode(out);
    }
}

/// How a message's payload is carried between post and receive.
pub(crate) enum Payload {
    /// A live value (in-process delivery, or a send-to-self over the
    /// socket backend): no serialization ever happens.
    Value(Box<dyn WireAny>),
    /// A serialized frame body from another process; decoded lazily at
    /// the typed receive, where `T` is known.
    Frame(Vec<u8>),
}

impl Payload {
    /// Serialize for a cross-process hop (no-op if already a frame).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Payload::Value(v) => v.encode(out),
            Payload::Frame(bytes) => out.extend_from_slice(bytes),
        }
    }
}

/// One unit of rank-to-rank traffic: a payload with its match header.
/// Transports move envelopes; they never look inside.
pub(crate) struct Envelope {
    /// Context id of the communicator the message was sent on — an
    /// opaque match key to the transport.
    pub(crate) ctx: u64,
    pub(crate) tag: Tag,
    pub(crate) payload: Payload,
}

impl Envelope {
    pub(crate) fn new<T: CommMsg>(ctx: u64, tag: Tag, value: T) -> Envelope {
        Envelope {
            ctx,
            tag,
            payload: Payload::Value(Box::new(value)),
        }
    }
}

/// The destination (or source) rank can no longer exchange messages:
/// its last `Comm` dropped, or its process exited. The closed-flag signal
/// every backend must propagate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PeerGone;

/// A rank's one connection to the world message plane.
///
/// One `Transport` is held per rank and shared by every `Comm` of that
/// rank; every `Rank` in this trait is a **world** rank. All methods take
/// `&self` (the owning rank thread is the only caller, per invariant 3,
/// but inbound delivery may happen from other threads — socket readers —
/// so implementations must be `Sync`).
///
/// ## Contract
///
/// * **Delivery order**: envelopes posted from rank `s` to rank `d` are
///   received by `d` in posting order (per-source FIFO, across all
///   contexts and tags). Matching by `(source, ctx, tag)` above the
///   transport relies on it.
/// * **Non-blocking post**: [`Transport::post`] buffers and returns; it
///   never waits for the receiver (the eager MPI protocol the runtime
///   models). A post may fail with [`PeerGone`] only if the destination
///   is permanently unreachable.
/// * **Closed-flag propagation** is per rank, not per communicator:
///   after [`Transport::shutdown`] (or the death of the rank's process)
///   every other rank must observe this rank as closed — blocked
///   [`Transport::recv_from`] calls on it return `Err(PeerGone)` once
///   drained, never hang. There is one inbox per rank, so a dead rank
///   is dead in every communicator by construction.
/// * **Wire bytes**: transports move envelopes; they do **not** account
///   bytes. All byte accounting happens above, from
///   [`CommMsg::nbytes`], which is what keeps profiled traffic
///   byte-identical across backends (invariant 2).
pub(crate) trait Transport: Send + Sync {
    /// This endpoint's world rank.
    fn rank(&self) -> Rank;

    /// Number of ranks in the world.
    fn size(&self) -> usize;

    /// Buffered send: enqueue `envelope` for rank `dst` (which may be
    /// this rank) and return without waiting for the receiver.
    fn post(&self, dst: Rank, envelope: Envelope) -> Result<(), PeerGone>;

    /// Blocking receive of the next envelope from `src`, in posting
    /// order, any context, any tag. `Err(PeerGone)` once `src` has shut
    /// down and its queue is drained.
    fn recv_from(&self, src: Rank) -> Result<Envelope, PeerGone>;

    /// Leave the world: refuse further inbound messages and propagate
    /// this rank's closed flag to every peer. Idempotent. Called when
    /// the rank's last `Comm` drops, and by the SPMD harness after
    /// catching the rank's unwind.
    fn shutdown(&self);
}

// ----------------------------------------------------------------------
// Mailbox: the condvar-backed inbox both backends deliver into
// ----------------------------------------------------------------------

struct MailboxState {
    /// Arrived-but-unclaimed messages, one FIFO per source rank.
    queues: Vec<VecDeque<Envelope>>,
    /// Sources whose sending side is permanently done.
    closed: Vec<bool>,
    /// Set when the owning rank shuts down; deliveries then fail like
    /// sends into a dropped channel.
    owner_gone: bool,
}

/// One rank's inbox: every peer pushes into it, only the owner pops.
/// In-process ranks push directly; the socket backend's reader threads
/// push decoded frames. The condvar is the wakeup that keeps blocked
/// receives from spinning.
pub(crate) struct Mailbox {
    state: Mutex<MailboxState>,
    arrived: Condvar,
}

impl Mailbox {
    pub(crate) fn new(nsources: usize) -> Arc<Self> {
        Arc::new(Mailbox {
            state: Mutex::new(MailboxState {
                queues: (0..nsources).map(|_| VecDeque::new()).collect(),
                closed: vec![false; nsources],
                owner_gone: false,
            }),
            arrived: Condvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MailboxState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Deliver a message from `src`; `Err` if the owner is gone (same
    /// contract as sending into a dropped channel).
    pub(crate) fn push(&self, src: Rank, envelope: Envelope) -> Result<(), PeerGone> {
        let mut st = self.lock();
        if st.owner_gone {
            return Err(PeerGone);
        }
        st.queues[src].push_back(envelope);
        drop(st);
        self.arrived.notify_all();
        Ok(())
    }

    /// Mark `src` as permanently done (it shut down or its process
    /// hung up).
    pub(crate) fn close(&self, src: Rank) {
        let mut st = self.lock();
        st.closed[src] = true;
        drop(st);
        self.arrived.notify_all();
    }

    pub(crate) fn mark_owner_gone(&self) {
        self.lock().owner_gone = true;
    }

    /// Blocking pop of the next message from `src` (any tag), parking on
    /// the condvar until one arrives. `Err` if `src` closed with an
    /// empty queue.
    pub(crate) fn recv(&self, src: Rank) -> Result<Envelope, PeerGone> {
        let mut st = self.lock();
        loop {
            if let Some(envelope) = st.queues[src].pop_front() {
                return Ok(envelope);
            }
            if st.closed[src] {
                return Err(PeerGone);
            }
            st = self
                .arrived
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}
