//! SPMD runtime: [`Runner`] spawns one thread per rank, each holding a
//! [`Comm`] — the analogue of an MPI communicator. A `Comm` posts and
//! receives opaque envelopes through a pluggable
//! [`Transport`](crate::transport) — the default backend keeps
//! ranks as threads in one address space (buffered, non-blocking sends;
//! blocking receives matched by `(source, tag)` park on a condvar
//! instead of polling), mirroring the eager-protocol MPI semantics that
//! ELBA relies on while staying oversubscription-friendly: a parked rank
//! burns no cycles its peers need. The socket backend moves the same
//! envelopes between *processes* as serialized frames — see
//! [`crate::transport`].
//!
//! The non-blocking receive ([`Comm::irecv`]) is a request completed by
//! `wait` (sends are eager and buffered, so
//! [`Comm::send`] never blocks and needs no request). The time a rank
//! spends blocked inside a request is booked to the profile's *wait*
//! bucket — separate from blocking-receive time — so
//! communication/computation overlap is visible in a [`RunProfile`].
//!
//! A dead peer is detected in exactly two places, the two calls that
//! reach the transport: a post and a blocking receive. Each raises
//! [`CommError::PeerGone`] on the spot (see [`crate::error`]); every
//! operation above them is infallible, and [`Runner`] catches the
//! unwind.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::error::{classify_panic, raise, CommError, RankFailure, SpmdFailure};
use crate::msg::CommMsg;
use crate::profile::{lock_profile, Profile, RunProfile};
use crate::transport::fault::{FaultMode, FaultPlan, FaultTransport};
use crate::transport::in_process::InProcess;
use crate::transport::wire::WireReader;
use crate::transport::{Envelope, Payload, Transport};

/// Index of a process within a communicator.
pub type Rank = usize;
/// Message tag. User tags must be below 2³²; the tags above are
/// reserved for collectives.
pub type Tag = u64;

/// Context id of the world communicator.
const WORLD_CTX: u64 = 0;

/// Deterministic child context id for a split: FNV-1a over the parent
/// context, the split's collective sequence tag and the caller's color.
/// Every member computes the same id from the same SPMD state, so no
/// bootstrap messages are needed; context 0 stays reserved for the world.
fn child_ctx(parent: u64, seq: Tag, color: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in [parent, seq, color] {
        for b in chunk.to_ne_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    if h == WORLD_CTX {
        0x9e37_79b9_7f4a_7c15
    } else {
        h
    }
}

/// A rank's one connection to the world message plane, shared by every
/// [`Comm`] of the rank. Shuts the transport down when the last of them
/// drops: peers' blocked receives on this rank then fail instead of
/// hanging — the channel-disconnect semantics the runtime has always had.
struct Endpoint {
    transport: Arc<dyn Transport>,
    /// Out-of-order stash, one FIFO per world source: envelopes that
    /// surfaced while a receive was waiting for a different
    /// `(ctx, tag)` — possibly another communicator's. Only the rank
    /// thread touches it; the (uncontended) mutex is what keeps `Comm`
    /// `Send`.
    stash: Mutex<Vec<VecDeque<Envelope>>>,
}

impl Endpoint {
    fn stash(&self) -> std::sync::MutexGuard<'_, Vec<VecDeque<Envelope>>> {
        self.stash
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.transport.shutdown();
    }
}

/// Per-rank handle on a communicator (MPI_Comm analogue).
///
/// A `Comm` is a *view* over the rank's one world endpoint: a context id
/// stamped on every envelope it sends and matched on every receive, and
/// the world ranks of its members. All operations take `&self`; a `Comm`
/// is owned by exactly one rank thread (invariant 3: threads within a
/// rank never enter the comm layer). Sub-communicators created through
/// [`Comm::split`] share the rank's endpoint and its [`Profile`], so
/// communication accounting aggregates across the whole grid. Which
/// backend carries the messages is invisible here: everything below
/// [`Comm::send`] goes through the rank's transport endpoint.
pub struct Comm {
    endpoint: Arc<Endpoint>,
    ctx: u64,
    /// World rank of each member, indexed by rank in this communicator.
    members: Vec<Rank>,
    rank: Rank,
    /// Collective sequence number; identical across ranks by SPMD order.
    coll_seq: Cell<u64>,
    profile: Arc<Mutex<Profile>>,
}

impl Comm {
    /// Largest tag value available to user code; higher tags are reserved
    /// for internal collective sequencing.
    pub(crate) const USER_TAG_LIMIT: Tag = 1 << 32;

    /// The world communicator over a rank's transport endpoint.
    pub(crate) fn from_transport(
        transport: Arc<dyn Transport>,
        profile: Arc<Mutex<Profile>>,
    ) -> Comm {
        let size = transport.size();
        Comm {
            rank: transport.rank(),
            ctx: WORLD_CTX,
            members: (0..size).collect(),
            endpoint: Arc::new(Endpoint {
                transport,
                stash: Mutex::new((0..size).map(|_| VecDeque::new()).collect()),
            }),
            coll_seq: Cell::new(0),
            profile,
        }
    }

    /// This rank's index within the communicator.
    #[inline]
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Shared per-rank profile (phase timers + communication volumes).
    pub fn profile_handle(&self) -> Arc<Mutex<Profile>> {
        Arc::clone(&self.profile)
    }

    /// Enter a named profiling phase; the phase ends when the returned
    /// guard drops. See [`crate::profile`].
    pub fn phase(&self, name: &str) -> crate::profile::PhaseGuard {
        crate::profile::PhaseGuard::enter(Arc::clone(&self.profile), name)
    }

    // ------------------------------------------------------------------
    // Memory accounting (per-phase high-water in the profile)
    // ------------------------------------------------------------------

    /// Charge `bytes` as resident on this rank for as long as the
    /// returned guard lives. The bytes count toward the high-water
    /// ([`crate::profile::PhaseProfile::mem_hw`]) of every phase active
    /// while they are resident. Use [`MemCharge::set`] to track a buffer
    /// that grows or shrinks.
    pub fn mem_charge(&self, bytes: usize) -> MemCharge {
        lock_profile(&self.profile).charge(bytes as u64);
        MemCharge {
            profile: Arc::clone(&self.profile),
            bytes: bytes as u64,
        }
    }

    /// Record a short-lived spike of `bytes` on top of the currently
    /// charged residency, without holding it (e.g. an exchange's peak
    /// buffer occupancy reported after the fact).
    pub fn record_mem_transient(&self, bytes: usize) {
        lock_profile(&self.profile).record_transient(bytes as u64);
    }

    /// Charge an `Arc`-shared block as resident on this rank for as
    /// long as the guard lives, keyed by the allocation's address: the
    /// first guard a rank holds for a given block charges `bytes`, every
    /// further guard for the *same* block on the same rank is free — a
    /// shared broadcast payload is mem-charged **once per rank, not once
    /// per reference** (e.g. a SUMMA root whose resident matrix *is* the
    /// stage block it just "received" does not double-charge it). Ranks
    /// still charge independently, mirroring the per-rank copies a real
    /// distributed run would hold.
    pub fn mem_charge_shared<T: Send + Sync + 'static>(
        &self,
        block: &Arc<T>,
        bytes: usize,
    ) -> SharedMemCharge {
        let key = Arc::as_ptr(block) as *const () as usize;
        lock_profile(&self.profile).charge_shared(key, bytes as u64);
        SharedMemCharge {
            profile: Arc::clone(&self.profile),
            key,
            _block: Arc::clone(block) as Arc<dyn Any + Send + Sync>,
        }
    }

    // ------------------------------------------------------------------
    // Point-to-point (blocking)
    // ------------------------------------------------------------------

    /// Buffered (non-blocking) send of `data` to `dst` with `tag`.
    pub fn send<T: CommMsg>(&self, dst: Rank, tag: Tag, data: T) {
        assert!(
            tag < Self::USER_TAG_LIMIT,
            "tag {tag} is reserved for internal use"
        );
        let bytes = data.nbytes();
        lock_profile(&self.profile).record_p2p(bytes);
        self.raw_send(dst, tag, data);
    }

    /// Buffered send of one shared payload to each of `dsts` (a block a
    /// SUMMA stage fans out). Books exactly what a [`Comm::send`] per
    /// destination books, but computes the wire size once: for a large
    /// block [`CommMsg::nbytes`] is a pass over its entries.
    pub fn send_each<T: CommMsg + Sync>(&self, dsts: &[Rank], tag: Tag, data: Arc<T>) {
        assert!(
            tag < Self::USER_TAG_LIMIT,
            "tag {tag} is reserved for internal use"
        );
        if dsts.is_empty() {
            return;
        }
        let bytes = data.nbytes();
        for &dst in dsts {
            lock_profile(&self.profile).record_p2p(bytes);
            self.raw_send(dst, tag, Arc::clone(&data));
        }
    }

    /// Blocking receive of a message from `src` carrying `tag`.
    ///
    /// Panics if the payload type does not match `T` (a programming error
    /// that MPI would surface as a datatype mismatch).
    pub fn recv<T: CommMsg>(&self, src: Rank, tag: Tag) -> T {
        assert!(
            tag < Self::USER_TAG_LIMIT,
            "tag {tag} is reserved for internal use"
        );
        self.raw_recv(src, tag)
    }

    // ------------------------------------------------------------------
    // Point-to-point (non-blocking)
    // ------------------------------------------------------------------

    /// Non-blocking receive: returns immediately with a [`RecvRequest`]
    /// that is `wait`ed later. Time blocked in `wait` is booked to the
    /// profile's *wait* bucket, separate from blocking-`recv`
    /// communication time. The engine of both pipelined SUMMAs'
    /// prefetched stage fetches.
    pub fn irecv<T: CommMsg>(&self, src: Rank, tag: Tag) -> RecvRequest<'_, T> {
        RecvRequest {
            comm: self,
            src,
            tag,
            _value: std::marker::PhantomData,
        }
    }

    /// `src` is dead: unwind with [`CommError::PeerGone`], naming it by
    /// **world** rank, saying what this rank was `doing` with `tag`, and
    /// — for a reserved tag — which collective the message belonged to.
    /// Called only where the transport reports the death.
    fn peer_gone(&self, src: Rank, doing: &str, tag: Tag) -> ! {
        let mut ctx = format!("{doing} tag {tag:#x}");
        if let Some(name) = op::of_tag(tag) {
            ctx = format!("{ctx} during {name}");
        }
        raise(CommError::PeerGone {
            rank: self.members[src],
            ctx,
        })
    }

    pub(crate) fn raw_send<T: CommMsg>(&self, dst: Rank, tag: Tag, data: T) {
        let posted = self
            .endpoint
            .transport
            .post(self.members[dst], Envelope::new(self.ctx, tag, data));
        if posted.is_err() {
            self.peer_gone(dst, "accepting a send of", tag);
        }
    }

    pub(crate) fn raw_recv<T: CommMsg>(&self, src: Rank, tag: Tag) -> T {
        let start = Instant::now();
        let envelope = self.wait_for(src, tag);
        lock_profile(&self.profile).record_comm_time(start.elapsed().as_secs_f64());
        decode_payload(envelope, self.rank, src, tag)
    }

    /// Blocking matched receive; raises once `src` is gone and drained
    /// instead of parking forever (every blocking path funnels here).
    fn wait_for(&self, src: Rank, tag: Tag) -> Envelope {
        if let Some(envelope) = self.take_stashed(src, tag) {
            return envelope;
        }
        let world = self.members[src];
        loop {
            let Ok(envelope) = self.endpoint.transport.recv_from(world) else {
                self.peer_gone(src, "waiting for", tag);
            };
            if self.matches(&envelope, tag) {
                return envelope;
            }
            self.endpoint.stash()[world].push_back(envelope);
        }
    }

    /// Whether `envelope` was sent on this communicator with `tag`.
    fn matches(&self, envelope: &Envelope, tag: Tag) -> bool {
        envelope.ctx == self.ctx && envelope.tag == tag
    }

    fn take_stashed(&self, src: Rank, tag: Tag) -> Option<Envelope> {
        let mut stash = self.endpoint.stash();
        let queue = &mut stash[self.members[src]];
        let pos = queue.iter().position(|e| self.matches(e, tag))?;
        queue.remove(pos)
    }

    // ------------------------------------------------------------------
    // Internal collective plumbing
    // ------------------------------------------------------------------

    /// Next internal tag; all ranks call collectives in the same order
    /// (SPMD), so sequence numbers line up across the communicator.
    pub(crate) fn next_coll_tag(&self, op: u8) -> Tag {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        (1 << 63) | ((op as u64) << 48) | (seq & ((1 << 48) - 1))
    }

    /// Receive inside a collective: blocking time is *not* booked here —
    /// the collective itself records its full elapsed time once, so
    /// booking per-message waits too would double-count communication.
    pub(crate) fn coll_recv<T: CommMsg>(&self, src: Rank, tag: Tag) -> T {
        let envelope = self.wait_for(src, tag);
        decode_payload(envelope, self.rank, src, tag)
    }

    /// Book wall seconds this rank spent inside intra-rank *threaded*
    /// local kernels — what `elba_par::take_par_secs` returns after a
    /// stage's maps. Zero books nothing (no phase record is created), so
    /// serial runs keep identical profiles; the workers themselves never
    /// touch the comm layer — the owning rank thread records on their
    /// behalf after they joined.
    pub fn record_par_time(&self, secs: f64) {
        if secs > 0.0 {
            lock_profile(&self.profile).record_par_time(secs);
        }
    }

    /// Book one call of the collective with opcode `code` (see [`op`]):
    /// the bytes this rank sent and its blocking time.
    pub(crate) fn record_collective(&self, code: u8, bytes: usize, secs: f64) {
        let mut profile = lock_profile(&self.profile);
        profile.record_coll(op::name(code), bytes);
        profile.record_comm_time(secs);
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// Partition the communicator: ranks passing the same `color` form a new
    /// communicator; `key` orders ranks within it (ties broken by old rank).
    /// Collective — every rank of `self` must call it.
    ///
    /// The group membership is computed from an allgather; the rest is
    /// arithmetic. The child is a view over the same endpoint whose
    /// context id every member derives from the parent's, the SPMD
    /// collective sequence and its color — so no leader has to ship
    /// bootstrap state, and traffic a fast member posts on the child
    /// before a slow one has returned from `split` just waits in the
    /// stash.
    ///
    /// The pipeline splits through [`crate::ProcGrid::new`] and
    /// [`Comm::dup`]; `split` itself is public for the cross-communicator
    /// tests of `crates/comm/tests/socket_transport.rs`.
    pub fn split(&self, color: usize, key: usize) -> Comm {
        let info = self.allgather((self.rank as u64, color as u64, key as u64));
        let mut group: Vec<(u64, u64)> = info
            .iter()
            .filter(|&&(_, c, _)| c as usize == color)
            .map(|&(r, _, k)| (k, r))
            .collect();
        group.sort_unstable();
        let new_rank = group
            .iter()
            .position(|&(_, r)| r as usize == self.rank)
            .expect("calling rank must be in its own color group");
        let tag = self.next_coll_tag(op::SPLIT);
        Comm {
            endpoint: Arc::clone(&self.endpoint),
            ctx: child_ctx(self.ctx, tag, color as u64),
            members: group
                .iter()
                .map(|&(_, r)| self.members[r as usize])
                .collect(),
            rank: new_rank,
            coll_seq: Cell::new(0),
            profile: Arc::clone(&self.profile),
        }
    }

    /// Duplicate the communicator (same group, fresh context/sequencing).
    pub fn dup(&self) -> Comm {
        self.split(0, self.rank)
    }
}

/// Materialize a received envelope as a `T`: moved values (in-process
/// delivery) downcast, serialized frames (socket delivery) decode — the
/// typed receive is the one place the expected `T` is known, which is
/// what lets the wire format skip any type registry.
fn decode_payload<T: CommMsg>(envelope: Envelope, rank: Rank, src: Rank, tag: Tag) -> T {
    match envelope.payload {
        Payload::Value(value) => *value.into_any().downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "rank {rank} received wrong payload type from rank {src} (tag {tag:#x}); \
                 expected {}",
                std::any::type_name::<T>()
            )
        }),
        Payload::Frame(bytes) => {
            let mut reader = WireReader::new(&bytes);
            T::wire_decode(&mut reader)
                .and_then(|value| reader.finish().map(|()| value))
                .unwrap_or_else(|e| {
                    panic!(
                        "rank {rank}: failed to decode frame from rank {src} (tag {tag:#x}) \
                         as {}: {e}",
                        std::any::type_name::<T>()
                    )
                })
        }
    }
}

/// RAII charge against a rank's resident bytes; created by
/// [`Comm::mem_charge`]. Dropping releases the bytes.
#[must_use = "dropping releases the charge immediately"]
pub struct MemCharge {
    profile: Arc<Mutex<Profile>>,
    bytes: u64,
}

impl MemCharge {
    /// Re-size the charge to `bytes` (the growing-accumulator pattern:
    /// one guard tracks a buffer whose footprint changes over time).
    pub fn set(&mut self, bytes: usize) {
        let bytes = bytes as u64;
        if bytes != self.bytes {
            let mut profile = lock_profile(&self.profile);
            profile.release(self.bytes);
            profile.charge(bytes);
            self.bytes = bytes;
        }
    }
}

impl Drop for MemCharge {
    fn drop(&mut self) {
        lock_profile(&self.profile).release(self.bytes);
    }
}

/// RAII charge for an `Arc`-shared block; created by
/// [`Comm::mem_charge_shared`]. The underlying bytes release when the
/// rank's *last* guard for the block drops.
#[must_use = "dropping releases this reference's share immediately"]
pub struct SharedMemCharge {
    profile: Arc<Mutex<Profile>>,
    key: usize,
    /// Keeps the charged allocation alive for the guard's lifetime. The
    /// profile keys shared charges on the allocation *address*; if the
    /// last outside reference dropped while a charge was live, the
    /// address could be recycled by a later `Arc::new` and alias the
    /// stale entry (classic ABA) — phantom residency and never-charged
    /// blocks. Holding a reference makes recycling impossible while any
    /// guard is out. (Side effect by design: a consuming operation on a
    /// charged block — `Arc::try_unwrap` — copies instead, which is
    /// exactly the residency the live charge claims.)
    _block: Arc<dyn Any + Send + Sync>,
}

impl Drop for SharedMemCharge {
    fn drop(&mut self) {
        lock_profile(&self.profile).release_shared(self.key);
    }
}

/// Handle for a posted [`Comm::irecv`]: `wait` blocks until the
/// matching message arrives, booking the blocked time to the profile's
/// wait bucket. A request holds nothing until then, so dropping one
/// unwaited loses no message — a later matching receive still gets it.
#[must_use = "requests should be completed with wait()"]
pub struct RecvRequest<'c, T: CommMsg> {
    comm: &'c Comm,
    src: Rank,
    tag: Tag,
    _value: std::marker::PhantomData<T>,
}

impl<T: CommMsg> RecvRequest<'_, T> {
    /// Block until the message arrives and return it. Blocked time is
    /// recorded as wait time (not blocking-communication time), keeping
    /// overlap measurable.
    pub fn wait(self) -> T {
        let start = Instant::now();
        let envelope = self.comm.wait_for(self.src, self.tag);
        lock_profile(&self.comm.profile).record_wait_time(start.elapsed().as_secs_f64());
        decode_payload(envelope, self.comm.rank, self.src, self.tag)
    }
}

/// Internal collective opcodes, which namespace the reserved tag space
/// ([`Comm::next_coll_tag`] packs one into bits 48–55), and their names:
/// the one table that profiles book collectives under and that
/// `PeerGone` messages name the stalled collective from.
pub(crate) mod op {
    use super::Tag;

    pub const BARRIER: u8 = 1;
    pub const BCAST: u8 = 2;
    pub const GATHER: u8 = 3;
    pub const REDUCE: u8 = 4;
    pub const ALLTOALLV: u8 = 6;
    pub const REDUCE_SCATTER: u8 = 7;
    pub const EXSCAN: u8 = 8;
    pub const SPLIT: u8 = 9;

    const NAMES: [(u8, &str); 8] = [
        (BARRIER, "barrier"),
        (BCAST, "bcast"),
        (GATHER, "gather"),
        (REDUCE, "reduce"),
        (ALLTOALLV, "alltoallv"),
        (REDUCE_SCATTER, "reduce_scatter"),
        (EXSCAN, "exscan"),
        (SPLIT, "split"),
    ];

    fn lookup(code: u8) -> Option<&'static str> {
        NAMES
            .iter()
            .find(|&&(c, _)| c == code)
            .map(|&(_, name)| name)
    }

    /// The name of opcode `code`.
    pub fn name(code: u8) -> &'static str {
        lookup(code).expect("a collective opcode")
    }

    /// The collective a tag was issued for; `None` for a user tag.
    pub fn of_tag(tag: Tag) -> Option<&'static str> {
        (tag >> 63 == 1)
            .then(|| lookup((tag >> 48) as u8))
            .flatten()
    }

    /// The table's own `&'static` copy of a collective `name`, if it has
    /// one (profiles decoded off the wire re-intern their op names).
    pub fn intern(name: &str) -> Option<&'static str> {
        NAMES.iter().map(|&(_, n)| n).find(|&n| n == name)
    }
}

/// Stack size for rank threads. Generous because local assembly and
/// test oracles may recurse.
const STACK_SIZE: usize = 16 * 1024 * 1024;

/// The harness behind [`Runner`]: one thread per transport
/// endpoint, each wrapped in a fresh [`Comm`] with its own profile.
/// Every rank's unwind is caught and classified
/// ([`crate::FailureCause`]) instead of propagating, and a casualty's
/// endpoint is shut down so surviving ranks unwind with `PeerGone`
/// rather than parking in a collective forever. Returns every rank's
/// failure, root cause first.
///
/// With a `plan`, every rank's transport is wrapped in the fault layer
/// (thread-mode kills). The plan is always the caller's
/// ([`Runner::faults`]); nothing here reads the environment.
pub(crate) fn run_spmd<T, F>(
    transports: Vec<Arc<dyn Transport>>,
    plan: Option<&FaultPlan>,
    f: F,
) -> Result<(Vec<T>, RunProfile), SpmdFailure>
where
    T: Send + 'static,
    F: Fn(Comm) -> T + Send + Sync + 'static,
{
    crate::error::silence_typed_unwinds();
    let transports: Vec<Arc<dyn Transport>> = match plan {
        Some(plan) => transports
            .into_iter()
            .map(|t| FaultTransport::wrap(t, plan, FaultMode::Thread))
            .collect(),
        None => transports,
    };
    let nranks = transports.len();
    let f = Arc::new(f);
    let mut handles = Vec::with_capacity(nranks);
    for (rank, transport) in transports.into_iter().enumerate() {
        debug_assert_eq!(transport.rank(), rank);
        let f = Arc::clone(&f);
        let profile = Arc::new(Mutex::new(Profile::new(rank)));
        let profile_out = Arc::clone(&profile);
        let endpoint = Arc::clone(&transport);
        let comm = Comm::from_transport(transport, profile);
        let handle = std::thread::Builder::new()
            .name(format!("rank-{rank}"))
            .stack_size(STACK_SIZE)
            .spawn(move || {
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || f(comm)));
                if result.is_err() {
                    // The unwind normally dropped every `Comm` (which
                    // shuts the endpoint down); make sure of it so no
                    // survivor stays parked on this rank.
                    endpoint.shutdown();
                }
                (result, profile_out)
            })
            .expect("failed to spawn rank thread");
        handles.push(handle);
    }

    let mut results = Vec::with_capacity(nranks);
    let mut profiles = Vec::with_capacity(nranks);
    let mut failures: Vec<RankFailure> = Vec::new();
    for (rank, handle) in handles.into_iter().enumerate() {
        let (result, profile) = handle
            .join()
            .expect("rank thread cannot die outside catch_unwind");
        match result {
            Ok(value) => results.push(value),
            Err(payload) => failures.push(RankFailure {
                rank,
                cause: classify_panic(payload),
            }),
        }
        profiles.push(match Arc::try_unwrap(profile) {
            Ok(mutex) => mutex
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
            Err(arc) => lock_profile(&arc).clone(),
        });
    }
    if failures.is_empty() {
        Ok((results, RunProfile::new(profiles)))
    } else {
        Err(SpmdFailure::new(failures))
    }
}

/// Which message plane a [`Runner`] builds its rank mesh on.
///
/// Both backends host ranks as threads of the calling process and run the
/// same supervised harness; they differ only in how messages move. Profiled
/// wire bytes are metered *above* the transport, so they are byte-identical
/// across backends (pinned by the transport-equivalence tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Ranks exchange boxed values through in-process mailboxes — the MPI
    /// communication *structure* without serialization cost. The default,
    /// and the right choice for tests, benches, and single-host serving.
    #[default]
    InProcess,
    /// Ranks exchange real serialized frames over Unix socketpairs — the
    /// same wire codec `elba launch` uses for separate worker processes,
    /// exercised without forking.
    Socket,
}

impl Backend {
    /// Build a world mesh of `nranks` transport endpoints on this backend.
    fn transports(self, nranks: usize) -> Vec<Arc<dyn Transport>> {
        match self {
            Backend::InProcess => InProcess::world(nranks),
            Backend::Socket => crate::transport::socket::thread_mesh(nranks),
        }
    }
}

/// The backend-generic SPMD entry point: build once, choose a [`Backend`],
/// a rank count, and (optionally) a [`FaultPlan`], then run.
///
/// One builder for every backend, so schedulers and tests can program
/// against the message plane generically:
///
/// ```
/// use elba_comm::{Backend, Runner};
///
/// // SPMD "hello": every rank contributes its rank id, all check the sum.
/// let results = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
///     let sum: u64 = comm.allreduce(comm.rank() as u64, |a, b| a + b);
///     sum
/// });
/// assert!(results.iter().all(|&s| s == 0 + 1 + 2 + 3));
/// ```
///
/// A `Runner` is a plain value: cheap to clone, reusable across runs
/// (each run builds a fresh mesh, so a failed run never poisons the
/// next — this is what lets a serving pool "recycle" a rank group by
/// simply running the next job).
#[derive(Debug, Clone)]
pub struct Runner {
    backend: Backend,
    nranks: usize,
    faults: Option<FaultPlan>,
}

impl Default for Runner {
    /// One in-process rank, no fault plan.
    fn default() -> Self {
        Runner::new(Backend::InProcess)
    }
}

impl Runner {
    /// A runner on `backend` with 1 rank and no fault plan.
    pub fn new(backend: Backend) -> Self {
        Runner {
            backend,
            nranks: 1,
            faults: None,
        }
    }

    /// Set the number of ranks in the world communicator.
    pub fn ranks(mut self, nranks: usize) -> Self {
        assert!(nranks > 0, "runner needs at least one rank");
        self.nranks = nranks;
        self
    }

    /// Enforce an explicit [`FaultPlan`] below the comm layer: seeded
    /// delivery jitter, severed links, and ranks killed mid-run by
    /// message count or named phase (thread-mode kills — the doomed rank
    /// unwinds with a typed payload, classified as
    /// [`crate::FailureCause::Killed`]).
    ///
    /// This is the only way a plan reaches thread ranks; a worker
    /// process takes its plan as [`crate::run_worker`]'s argument. The
    /// crate reads no environment variable.
    pub fn faults(mut self, plan: &FaultPlan) -> Self {
        self.faults = Some(plan.clone());
        self
    }

    /// Run `f` on every rank; returns each rank's result, rank-ordered.
    /// A dead rank panics with the classified failure — use
    /// [`Runner::try_run_profiled`] to observe it as a typed error.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Comm) -> T + Send + Sync + 'static,
    {
        self.run_profiled(f).0
    }

    /// Like [`Runner::run`] but also returns the per-rank profiles
    /// (phase wall times + communication volumes) recorded during the run.
    pub fn run_profiled<T, F>(&self, f: F) -> (Vec<T>, RunProfile)
    where
        T: Send + 'static,
        F: Fn(Comm) -> T + Send + Sync + 'static,
    {
        match self.try_run_profiled(f) {
            Ok(out) => out,
            Err(failure) => panic!("{failure}"),
        }
    }

    /// Like [`Runner::run_profiled`], but dead ranks surface as a typed
    /// [`SpmdFailure`] instead of a panic: each rank's unwind is caught
    /// and classified (fault kill / organic panic / `PeerGone` cascade),
    /// and every casualty is reported by rank, root cause first.
    pub fn try_run_profiled<T, F>(&self, f: F) -> Result<(Vec<T>, RunProfile), SpmdFailure>
    where
        T: Send + 'static,
        F: Fn(Comm) -> T + Send + Sync + 'static,
    {
        run_spmd(
            self.backend.transports(self.nranks),
            self.faults.as_ref(),
            f,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::wire::WireError;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_rank_runs() {
        let out = Runner::new(Backend::InProcess)
            .ranks(1)
            .run(|comm| comm.rank() + comm.size());
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn ring_send_recv() {
        let out = Runner::new(Backend::InProcess).ranks(5).run(|comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 7, comm.rank() as u64);
            comm.recv::<u64>(prev, 7)
        });
        assert_eq!(out, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let out = Runner::new(Backend::InProcess).ranks(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 10u64);
                comm.send(1, 2, 20u64);
                comm.send(1, 3, 30u64);
                0
            } else {
                // Receive in reverse tag order; earlier messages must wait
                // in the pending buffer without being lost.
                let c = comm.recv::<u64>(0, 3);
                let b = comm.recv::<u64>(0, 2);
                let a = comm.recv::<u64>(0, 1);
                (a + b + c) as usize
            }
        });
        assert_eq!(out[1], 60);
    }

    #[test]
    fn send_to_self() {
        let out = Runner::new(Backend::InProcess).ranks(3).run(|comm| {
            comm.send(comm.rank(), 9, comm.rank() as u64 * 3);
            comm.recv::<u64>(comm.rank(), 9)
        });
        assert_eq!(out, vec![0, 3, 6]);
    }

    #[test]
    fn moves_large_buffers_without_copy() {
        let out = Runner::new(Backend::InProcess).ranks(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![1u8; 1 << 20]);
                0usize
            } else {
                comm.recv::<Vec<u8>>(0, 0).len()
            }
        });
        assert_eq!(out[1], 1 << 20);
    }

    /// A payload that counts its `nbytes` calls.
    struct Counted(Vec<u8>);

    static NBYTES_CALLS: AtomicUsize = AtomicUsize::new(0);

    impl CommMsg for Counted {
        fn nbytes(&self) -> usize {
            NBYTES_CALLS.fetch_add(1, Ordering::SeqCst);
            self.0.nbytes()
        }

        fn wire_encode(&self, out: &mut Vec<u8>) {
            self.0.wire_encode(out);
        }

        fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
            Ok(Counted(Vec::wire_decode(r)?))
        }
    }

    #[test]
    fn send_each_books_what_one_send_per_destination_books() {
        // Rank 0 fans 100 bytes out to ranks 1, 2, 3 and itself.
        let fan_out = |each: bool| {
            let (lens, profile) =
                Runner::new(Backend::InProcess)
                    .ranks(4)
                    .run_profiled(move |comm| {
                        let _g = comm.phase("fan");
                        if comm.rank() == 0 {
                            let block = Arc::new(Counted(vec![7; 100]));
                            let dsts = [1, 2, 3, 0];
                            if each {
                                comm.send_each(&dsts, 5, block);
                            } else {
                                for dst in dsts {
                                    comm.send(dst, 5, Arc::clone(&block));
                                }
                            }
                        }
                        comm.recv::<Arc<Counted>>(0, 5).0.len()
                    });
            assert_eq!(lens, vec![100; 4]);
            let rank0 = profile.rank_profiles()[0].phase("fan").expect("phase");
            (rank0.p2p_msgs, rank0.p2p_bytes)
        };
        let before = NBYTES_CALLS.load(Ordering::SeqCst);
        let each = fan_out(true);
        let calls = NBYTES_CALLS.load(Ordering::SeqCst) - before;
        assert_eq!(calls, 1, "send_each sizes the payload once");
        assert_eq!(each, (4, 4 * 108));
        assert_eq!(fan_out(false), each);
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn rank_panic_propagates() {
        let _ = Runner::new(Backend::InProcess).ranks(2).run(|comm| {
            if comm.rank() == 1 {
                panic!("deliberate failure");
            }
            // Rank 0 exits immediately; no deadlock because it never blocks.
            0
        });
    }

    #[test]
    fn split_into_rows() {
        // 6 ranks -> two colors {0,1,2} and {3,4,5}.
        let out = Runner::new(Backend::InProcess).ranks(6).run(|comm| {
            let color = comm.rank() / 3;
            let sub = comm.split(color, comm.rank());
            // ring within subgroup
            let next = (sub.rank() + 1) % sub.size();
            let prev = (sub.rank() + sub.size() - 1) % sub.size();
            sub.send(next, 1, comm.rank() as u64);
            let from_prev = sub.recv::<u64>(prev, 1);
            (sub.rank(), sub.size(), from_prev)
        });
        assert_eq!(out[0], (0, 3, 2));
        assert_eq!(out[3], (0, 3, 5));
        assert_eq!(out[5], (2, 3, 4));
    }

    #[test]
    fn child_ctx_never_world_and_spreads() {
        let a = child_ctx(WORLD_CTX, 1, 0);
        let b = child_ctx(WORLD_CTX, 1, 1);
        let c = child_ctx(a, 1, 0);
        assert_ne!(a, WORLD_CTX);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn split_reverse_key_reverses_ranks() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let sub = comm.split(0, comm.size() - comm.rank());
            sub.rank()
        });
        assert_eq!(out, vec![3, 2, 1, 0]);
    }

    #[test]
    fn profiles_capture_phase_bytes() {
        let (_, profile) = Runner::new(Backend::InProcess)
            .ranks(2)
            .run_profiled(|comm| {
                let _g = comm.phase("exchange");
                if comm.rank() == 0 {
                    comm.send(1, 0, vec![0u64; 100]);
                } else {
                    let _ = comm.recv::<Vec<u64>>(0, 0);
                }
            });
        let bytes = profile.total_bytes("exchange");
        assert_eq!(bytes, 8 + 800);
    }

    #[test]
    fn shared_charge_guard_pins_the_allocation() {
        // The guard must keep the charged block's allocation alive:
        // shared charges key on the allocation address, and a recycled
        // address would alias the stale profile entry (ABA) — a second
        // block charged at the reused address would book zero bytes.
        let (_, profile) = Runner::new(Backend::InProcess)
            .ranks(1)
            .run_profiled(|comm| {
                let _g = comm.phase("pin");
                let first = Arc::new(vec![0u8; 64]);
                let guard_a = comm.mem_charge_shared(&first, 64);
                drop(first); // guard keeps the allocation (and key) alive
                let second = Arc::new(vec![0u8; 64]); // cannot reuse the address
                let guard_b = comm.mem_charge_shared(&second, 64);
                let current = comm.profile_handle();
                let resident = crate::profile::lock_profile(&current).resident_bytes();
                drop((guard_a, guard_b));
                resident
            });
        assert_eq!(profile.max_mem_hw("pin"), 128, "both blocks must charge");
    }

    #[test]
    fn mem_charges_book_per_phase_high_water() {
        let (_, profile) = Runner::new(Backend::InProcess)
            .ranks(2)
            .run_profiled(|comm| {
                let big = if comm.rank() == 1 { 4096 } else { 1024 };
                {
                    let _g = comm.phase("build");
                    let mut charge = comm.mem_charge(big);
                    charge.set(big * 2);
                    charge.set(big); // shrink again; hw keeps the peak
                    {
                        let _h = comm.phase("inner");
                        comm.record_mem_transient(100);
                    }
                    // charge dropped here: released before the next phase
                }
                let _g = comm.phase("after");
                comm.record_mem_transient(10);
            });
        assert_eq!(profile.max_mem_hw("build"), 8192);
        assert_eq!(profile.max_mem_hw("inner"), 4196, "residency + spike");
        assert_eq!(profile.max_mem_hw("after"), 10, "charge released");
        let merged = profile.merged_mem();
        assert_eq!(merged.high_water("build"), 8192);
        assert!(profile.render_table().contains("mem-hw"));
    }

    #[test]
    fn mem_charge_set_replaces_charge() {
        let (resident, profile) = Runner::new(Backend::InProcess)
            .ranks(1)
            .run_profiled(|comm| {
                let _g = comm.phase("x");
                let mut charge = comm.mem_charge(10);
                charge.set(70);
                charge.set(30);
                let handle = comm.profile_handle();
                let resident = crate::profile::lock_profile(&handle).resident_bytes();
                drop(charge);
                resident
            });
        assert_eq!(resident, [30]);
        assert_eq!(profile.max_mem_hw("x"), 70);
    }

    // ------------------------------------------------------------------
    // Non-blocking point-to-point
    // ------------------------------------------------------------------

    #[test]
    fn irecv_wait_delivers() {
        let out = Runner::new(Backend::InProcess).ranks(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 4, 99u64);
                0
            } else {
                let req = comm.irecv::<u64>(0, 4);
                req.wait()
            }
        });
        assert_eq!(out[1], 99);
    }

    #[test]
    fn nonblocking_interoperates_with_blocking() {
        // send -> recv and send -> irecv must pair up, including when
        // the request is posted before the matching send runs.
        let out = Runner::new(Backend::InProcess).ranks(2).run(|comm| {
            if comm.rank() == 0 {
                let req = comm.irecv::<u64>(1, 21);
                comm.send(1, 20, 5u64);
                req.wait()
            } else {
                let got = comm.recv::<u64>(0, 20);
                comm.send(0, 21, got * 2);
                got
            }
        });
        assert_eq!(out, vec![10, 5]);
    }

    #[test]
    fn multiple_outstanding_irecvs_match_by_tag() {
        let out = Runner::new(Backend::InProcess).ranks(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 2, 200u64);
                comm.send(1, 1, 100u64);
                0
            } else {
                let req_a = comm.irecv::<u64>(0, 1);
                let req_b = comm.irecv::<u64>(0, 2);
                let a = req_a.wait();
                let b = req_b.wait();
                (a + b) as usize
            }
        });
        assert_eq!(out[1], 300);
    }

    #[test]
    fn dropped_unarrived_request_loses_nothing() {
        let out = Runner::new(Backend::InProcess).ranks(2).run(|comm| {
            if comm.rank() == 0 {
                comm.barrier();
                comm.send(1, 6, 9u64);
                0
            } else {
                drop(comm.irecv::<u64>(0, 6)); // dropped before any send
                comm.barrier();
                comm.recv::<u64>(0, 6)
            }
        });
        assert_eq!(out[1], 9);
    }

    #[test]
    fn wait_time_is_attributed_separately() {
        let (_, profile) = Runner::new(Backend::InProcess)
            .ranks(2)
            .run_profiled(|comm| {
                let _g = comm.phase("overlap");
                if comm.rank() == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    comm.send(1, 3, 1u64);
                } else {
                    let req = comm.irecv::<u64>(0, 3);
                    let _ = req.wait();
                }
            });
        // Rank 1 blocked in wait() for ~20ms; none of it may be booked as
        // blocking-communication time.
        assert!(profile.max_wait_secs("overlap") > 0.005);
        assert!(profile.max_comm_secs("overlap") < 0.005);
    }

    // `irecv` interoperates with the eager `send` and the blocking `recv`
    // in any combination: same mailboxes, same `(source, tag)` matching,
    // no message lost or reordered within a tag.
    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// Ring exchange where each rank independently picks blocking or
        /// non-blocking for its receive (from generated bits): both
        /// pairings (send→recv, send→irecv) must deliver.
        #[test]
        fn ring_delivers_under_any_mix(p in 1usize..9, mode_bits in 0u64..256) {
            let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                let next = (comm.rank() + 1) % comm.size();
                let prev = (comm.rank() + comm.size() - 1) % comm.size();
                let payload = comm.rank() as u64 * 1000 + 7;
                comm.send(next, 3, payload);
                if mode_bits >> comm.rank() & 1 == 1 {
                    comm.irecv::<u64>(prev, 3).wait()
                } else {
                    comm.recv::<u64>(prev, 3)
                }
            });
            for (rank, &got) in out.iter().enumerate() {
                let prev = (rank + p - 1) % p;
                prop_assert_eq!(got, prev as u64 * 1000 + 7);
            }
        }

        /// Many tagged messages posted as irecvs in one order and sent in
        /// another: tag matching must pair them up regardless of posting
        /// order on either side.
        #[test]
        fn out_of_order_tags_with_mixed_posting(
            n_msgs in 1usize..12,
            perm_seed in 0u64..10_000,
        ) {
            let out = Runner::new(Backend::InProcess).ranks(2).run(move |comm| {
                if comm.rank() == 0 {
                    for tag in 0..n_msgs as u64 {
                        comm.send(1, tag, tag * 11 + 5);
                    }
                    Vec::new()
                } else {
                    // Deterministic pseudo-shuffle of posting order.
                    let mut order: Vec<u64> = (0..n_msgs as u64).collect();
                    for i in (1..order.len()).rev() {
                        let j = (perm_seed as usize)
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(i) % (i + 1);
                        order.swap(i, j);
                    }
                    let requests: Vec<_> =
                        order.iter().map(|&tag| (tag, comm.irecv::<u64>(0, tag))).collect();
                    let mut got: Vec<(u64, u64)> =
                        requests.into_iter().map(|(tag, req)| (tag, req.wait())).collect();
                    got.sort_unstable();
                    got
                }
            });
            let want: Vec<(u64, u64)> = (0..n_msgs as u64).map(|t| (t, t * 11 + 5)).collect();
            prop_assert_eq!(&out[1], &want);
        }

        /// An irecv posted *before* the barrier-separated send still
        /// matches.
        #[test]
        fn early_posted_irecv_waits_for_late_send(p in 2usize..6, value in 0u64..1_000_000) {
            let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                if comm.rank() == 1 {
                    let req = comm.irecv::<u64>(0, 9);
                    comm.barrier(); // rank 0 sends only after this barrier
                    req.wait()
                } else {
                    comm.barrier();
                    if comm.rank() == 0 {
                        comm.send(1, 9, value);
                    }
                    0
                }
            });
            prop_assert_eq!(out[1], value);
        }
    }
}
