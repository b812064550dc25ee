//! Multi-process backend: each rank is a **process**, and envelopes
//! travel as length-prefixed serialized frames over Unix-domain sockets
//! (std-only; see [`super::wire`] for the frame format).
//!
//! ## Topology
//!
//! The mesh is fully connected: one stream per rank pair, built either
//! from socketpairs (`Runner::new(Backend::Socket)` — a thread-per-rank
//! harness that exercises the full serialize/frame/deserialize path
//! inside one test process) or from filesystem sockets under a rendezvous directory
//! ([`run_worker`] — real processes, launched by `elba launch`).
//!
//! Per peer stream a dedicated reader thread drains frames into
//! condvar-backed `Mailbox`es — the same inbox type the in-process
//! backend uses, so receive matching, parking and closed-flag semantics
//! are shared code. Because readers always drain the socket into an
//! unbounded mailbox, a sender's `write` can never deadlock against its
//! own receive path: the flow-control liveness rules (non-blocking
//! `finish_sends`, `inbound_ready` probe before parking — invariant 5)
//! hold over sockets exactly as they do in process.
//!
//! ## Communicators
//!
//! One process hosts exactly one world rank (invariant 3: threads never
//! enter the comm layer), but many communicators: each `Comm` maps to a
//! *context id* carried in every frame. The world communicator is
//! context 0; `split` derives child contexts deterministically from
//! `(parent ctx, collective seq, color)` — identical on every member by
//! SPMD order, so no bootstrap messages are needed. Frames that arrive
//! before their context is registered are parked in a pending buffer
//! and replayed at registration, preserving per-source order.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use super::fault::{FaultMode, FaultPlan, FaultTransport};
use super::wire::{FrameHeader, FrameKind, FRAME_HEADER_BYTES};
use super::{Envelope, Mailbox, Payload, PeerGone, SplitKey, Transport, TryRecvError};
use crate::error::{CommError, FailureCause};
use crate::profile::{lock_profile, Profile};
use crate::runtime::{Comm, Rank};

/// Context id of the world communicator.
const WORLD_CTX: u64 = 0;

/// Deterministic child context id for a split: FNV-1a over the parent
/// context and the split key. Every member computes the same id from
/// the same SPMD state; context 0 stays reserved for the world.
fn child_ctx(parent: u64, key: SplitKey) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in [parent, key.seq, key.color] {
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

/// One registered communicator on a node.
struct CtxEntry {
    mailbox: Arc<Mailbox>,
    /// Sub-rank of each member world rank (for closing on peer EOF).
    sub_of_world: HashMap<Rank, usize>,
}

/// Demux state shared by the reader threads: one lock covers both maps
/// so a frame can never slip into `pending` while its context is being
/// registered (registration drains pending under the same lock).
#[derive(Default)]
struct Router {
    contexts: HashMap<u64, CtxEntry>,
    /// Frames for not-yet-registered contexts, in arrival order.
    pending: HashMap<u64, Vec<(FrameHeader, Vec<u8>)>>,
    /// World ranks whose stream reached EOF (process exited); contexts
    /// registered later close these members immediately.
    dead: Vec<bool>,
}

/// One process's endpoint of the socket mesh: the write half of every
/// peer stream plus the demux state its reader threads deliver into.
pub(crate) struct SocketNode {
    rank: Rank,
    size: usize,
    /// writers[peer]: locked write half of the stream to `peer`
    /// (`None` for self — self-sends never touch a socket).
    writers: Vec<Option<Mutex<UnixStream>>>,
    router: Mutex<Router>,
}

impl SocketNode {
    fn lock_router(&self) -> std::sync::MutexGuard<'_, Router> {
        self.router
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Register a communicator; replays any frames that raced ahead of
    /// the registration and closes members that already hung up.
    fn register_ctx(&self, ctx: u64, members: &[Rank]) -> Arc<Mailbox> {
        let mailbox = Mailbox::new(members.len());
        let entry = CtxEntry {
            mailbox: Arc::clone(&mailbox),
            sub_of_world: members.iter().enumerate().map(|(s, &w)| (w, s)).collect(),
        };
        let mut router = self.lock_router();
        let parked = router.pending.remove(&ctx).unwrap_or_default();
        let dead: Vec<Rank> = members
            .iter()
            .copied()
            .filter(|&w| w != self.rank && router.dead[w])
            .collect();
        router.contexts.insert(ctx, entry);
        for (hdr, payload) in parked {
            Self::route(&mut router, hdr, payload);
        }
        for w in dead {
            let sub = members.iter().position(|&m| m == w).expect("member");
            mailbox.close(sub);
        }
        drop(router);
        mailbox
    }

    fn unregister_ctx(&self, ctx: u64) {
        self.lock_router().contexts.remove(&ctx);
    }

    /// Deliver one inbound frame (reader thread context). Frames for
    /// unknown contexts wait in `pending`; frames for a dropped rank's
    /// mailbox are discarded (the in-process analogue panics the
    /// *sender*, which a remote sender cannot observe).
    fn deliver(&self, hdr: FrameHeader, payload: Vec<u8>) {
        let mut router = self.lock_router();
        Self::route(&mut router, hdr, payload);
    }

    fn route(router: &mut Router, hdr: FrameHeader, payload: Vec<u8>) {
        if hdr.kind == FrameKind::Abort {
            // Whole-process death announcement: `src` is a world rank.
            // Close it everywhere, like the EOF its exit will deliver —
            // but now, and ahead of any data still buffered behind it
            // on other streams.
            let world = hdr.src as usize;
            if world < router.dead.len() {
                Self::mark_dead(router, world);
            }
            return;
        }
        match router.contexts.get(&hdr.ctx) {
            Some(entry) => {
                let src = hdr.src as usize;
                match hdr.kind {
                    FrameKind::Data => {
                        let envelope = Envelope {
                            tag: hdr.tag,
                            payload: Payload::Frame(payload),
                        };
                        let _ = entry.mailbox.push(src, envelope);
                    }
                    FrameKind::Close => entry.mailbox.close(src),
                    FrameKind::Hello | FrameKind::Abort => {}
                }
            }
            None => router
                .pending
                .entry(hdr.ctx)
                .or_default()
                .push((hdr, payload)),
        }
    }

    /// Close world rank `world` out of every registered communicator and
    /// remember it for communicators registered later.
    fn mark_dead(router: &mut Router, world: Rank) {
        router.dead[world] = true;
        for entry in router.contexts.values() {
            if let Some(&sub) = entry.sub_of_world.get(&world) {
                entry.mailbox.close(sub);
            }
        }
    }

    /// The stream from `world` hit EOF: its process is gone. Close it
    /// in every communicator that includes it, and remember it for
    /// communicators registered later.
    fn peer_eof(&self, world: Rank) {
        let mut router = self.lock_router();
        Self::mark_dead(&mut router, world);
    }

    /// Serialize and ship one frame to `world` (never self).
    fn send_frame(
        &self,
        world: Rank,
        kind: FrameKind,
        ctx: u64,
        src: usize,
        tag: u64,
        payload: &[u8],
    ) -> Result<(), PeerGone> {
        let writer = self.writers[world].as_ref().ok_or(PeerGone)?;
        let header = FrameHeader {
            kind,
            ctx,
            src: src as u32,
            tag,
            len: payload.len() as u64,
        };
        let mut buf = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
        header.encode(&mut buf);
        buf.extend_from_slice(payload);
        let mut stream = writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        stream.write_all(&buf).map_err(|_| PeerGone)
    }
}

impl Drop for SocketNode {
    fn drop(&mut self) {
        // Half-close every stream so peer readers (and, once the peer
        // drops too, our own) wake with EOF instead of blocking forever.
        // Data already written stays readable: shutdown(Write) is an
        // orderly goodbye, not an abort.
        for writer in self.writers.iter().flatten() {
            let stream = writer
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let _ = stream.shutdown(std::net::Shutdown::Write);
        }
    }
}

/// Spawn the per-peer reader thread: drain frames into the node's
/// router until EOF or a protocol error. Holds only a `Weak` so a
/// finished node can drop (its `Drop` half-closes the streams, which is
/// what eventually lands every reader here on EOF).
fn spawn_reader(
    node: &Arc<SocketNode>,
    from_world: Rank,
    stream: UnixStream,
) -> std::io::Result<()> {
    let weak: Weak<SocketNode> = Arc::downgrade(node);
    let my_rank = node.rank;
    std::thread::Builder::new()
        .name(format!("sock-rx-{my_rank}-{from_world}"))
        .spawn(move || {
            let mut stream = BufReader::new(stream);
            loop {
                let mut hdr_buf = [0u8; FRAME_HEADER_BYTES];
                if stream.read_exact(&mut hdr_buf).is_err() {
                    break; // EOF or reset
                }
                let Ok(hdr) = FrameHeader::decode(&hdr_buf) else {
                    // Desynchronized stream: nothing downstream is
                    // trustworthy. Treat as a hangup.
                    break;
                };
                let mut payload = vec![0u8; hdr.len as usize];
                if stream.read_exact(&mut payload).is_err() {
                    break;
                }
                let Some(node) = weak.upgrade() else {
                    return; // our own node is gone; no one to deliver to
                };
                node.deliver(hdr, payload);
            }
            if let Some(node) = weak.upgrade() {
                node.peer_eof(from_world);
            }
        })
        .map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!("rank {my_rank}: spawn reader thread for rank {from_world}: {e}"),
            )
        })?;
    Ok(())
}

fn build_node(
    rank: Rank,
    size: usize,
    streams: Vec<Option<UnixStream>>,
) -> std::io::Result<Arc<SocketNode>> {
    let mut writers = Vec::with_capacity(streams.len());
    for (peer, s) in streams.iter().enumerate() {
        writers.push(match s {
            Some(stream) => Some(Mutex::new(stream.try_clone().map_err(|e| {
                std::io::Error::new(
                    e.kind(),
                    format!("rank {rank}: clone socket write half to rank {peer}: {e}"),
                )
            })?)),
            None => None,
        });
    }
    let node = Arc::new(SocketNode {
        rank,
        size,
        writers,
        router: Mutex::new(Router {
            dead: vec![false; size],
            ..Router::default()
        }),
    });
    for (peer, stream) in streams.into_iter().enumerate() {
        if let Some(stream) = stream {
            spawn_reader(&node, peer, stream)?;
        }
    }
    Ok(node)
}

/// Socket transport for one rank of one communicator (context).
pub(crate) struct SocketTransport {
    node: Arc<SocketNode>,
    ctx: u64,
    /// World rank of each member, indexed by sub-rank.
    members: Vec<Rank>,
    /// This rank's sub-rank within the communicator.
    rank: Rank,
    mailbox: Arc<Mailbox>,
}

impl SocketTransport {
    /// The world communicator over an established mesh.
    pub(crate) fn world(node: Arc<SocketNode>) -> SocketTransport {
        let members: Vec<Rank> = (0..node.size).collect();
        let mailbox = node.register_ctx(WORLD_CTX, &members);
        SocketTransport {
            rank: node.rank,
            ctx: WORLD_CTX,
            members,
            mailbox,
            node,
        }
    }
}

impl Transport for SocketTransport {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.members.len()
    }

    fn post(&self, dst: Rank, envelope: Envelope) -> Result<(), PeerGone> {
        let world = self.members[dst];
        if world == self.node.rank {
            // Send-to-self stays a moved value: no serialization, same
            // as the in-process backend.
            return self
                .mailbox
                .push(self.rank, envelope)
                .map_err(|()| PeerGone);
        }
        let mut payload = Vec::new();
        envelope.payload.encode_into(&mut payload);
        self.node.send_frame(
            world,
            FrameKind::Data,
            self.ctx,
            self.rank,
            envelope.tag,
            &payload,
        )
    }

    fn recv_from(&self, src: Rank) -> Result<Envelope, PeerGone> {
        self.mailbox.recv(src).map_err(|()| PeerGone)
    }

    fn try_recv_from(&self, src: Rank) -> Result<Option<Envelope>, PeerGone> {
        match self.mailbox.try_recv(src) {
            Ok(envelope) => Ok(Some(envelope)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(PeerGone),
        }
    }

    fn inbox_seq(&self) -> u64 {
        self.mailbox.seq()
    }

    fn park_inbox(&self, seen: u64) {
        self.mailbox.park(seen);
    }

    fn shutdown(&self) {
        self.mailbox.mark_owner_gone();
        for (sub, &world) in self.members.iter().enumerate() {
            if world == self.node.rank {
                self.mailbox.close(sub);
            } else {
                let _ = self
                    .node
                    .send_frame(world, FrameKind::Close, self.ctx, self.rank, 0, &[]);
            }
        }
        self.node.unregister_ctx(self.ctx);
    }

    fn world_rank(&self, member: Rank) -> Rank {
        self.members[member]
    }

    fn abort(&self) {
        // Whole-process teardown: tell every peer this world rank is
        // dead (ahead of the EOF our exit will deliver), then leave the
        // current communicator the orderly way. Peers close us out of
        // every context — current and future — on the Abort frame.
        for world in 0..self.node.size {
            if world != self.node.rank {
                let _ = self.node.send_frame(
                    world,
                    FrameKind::Abort,
                    WORLD_CTX,
                    self.node.rank,
                    0,
                    &[],
                );
            }
        }
        self.shutdown();
    }

    fn split(&self, members: &[Rank], my_rank: Rank, key: SplitKey) -> Arc<dyn Transport> {
        let ctx = child_ctx(self.ctx, key);
        // `members` are parent sub-ranks; the frame plane speaks world
        // ranks.
        let world_members: Vec<Rank> = members.iter().map(|&m| self.members[m]).collect();
        let mailbox = self.node.register_ctx(ctx, &world_members);
        Arc::new(SocketTransport {
            node: Arc::clone(&self.node),
            ctx,
            members: world_members,
            rank: my_rank,
            mailbox,
        })
    }
}

// ----------------------------------------------------------------------
// Mesh construction
// ----------------------------------------------------------------------

/// Fully-connected mesh of `nranks` nodes from socketpairs, all inside
/// the calling process — the harness behind [`thread_mesh`].
fn pair_mesh(nranks: usize) -> std::io::Result<Vec<Arc<SocketNode>>> {
    let mut endpoints: Vec<Vec<Option<UnixStream>>> = (0..nranks)
        .map(|_| (0..nranks).map(|_| None).collect())
        .collect();
    for (i, j) in (0..nranks).flat_map(|i| (i + 1..nranks).map(move |j| (i, j))) {
        let (a, b) = UnixStream::pair().map_err(|e| {
            std::io::Error::new(e.kind(), format!("socketpair for ranks {i}-{j}: {e}"))
        })?;
        endpoints[i][j] = Some(a);
        endpoints[j][i] = Some(b);
    }
    endpoints
        .into_iter()
        .enumerate()
        .map(|(rank, streams)| build_node(rank, nranks, streams))
        .collect()
}

/// Mesh bring-up tuning: how long `connect_mesh` waits for sibling
/// processes before giving up (a crashed sibling would otherwise hang
/// the whole launch), and the retry cadence while it waits. Replaces
/// the old hard-wired 60 s constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshConfig {
    /// Give-up deadline for the whole bring-up.
    pub timeout: Duration,
    /// First retry sleep; doubles per failed attempt up to `retry_max`
    /// (exponential backoff keeps a large mesh from hammering the
    /// filesystem while still reacting in microseconds when siblings
    /// arrive quickly).
    pub retry_start: Duration,
    /// Backoff ceiling.
    pub retry_max: Duration,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            timeout: Duration::from_secs(60),
            retry_start: Duration::from_millis(2),
            retry_max: Duration::from_millis(50),
        }
    }
}

impl MeshConfig {
    /// Default config with the deadline overridden by
    /// `ELBA_MESH_TIMEOUT_MS` when present — `elba launch` sets it from
    /// `--launch-timeout` so bring-up gives up before the supervisor's
    /// own deadline fires.
    pub fn from_env() -> MeshConfig {
        let mut cfg = MeshConfig::default();
        if let Some(ms) = std::env::var("ELBA_MESH_TIMEOUT_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            cfg.timeout = Duration::from_millis(ms.max(1));
        }
        cfg
    }

    /// Next backoff sleep after `current` (doubling, capped).
    fn backoff(&self, current: Duration) -> Duration {
        (current * 2).min(self.retry_max)
    }
}

fn retry_connect(path: &Path, cfg: &MeshConfig) -> std::io::Result<UnixStream> {
    let deadline = Instant::now() + cfg.timeout;
    let mut sleep = cfg.retry_start;
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => return Ok(stream),
            Err(err) => {
                if Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        err.kind(),
                        format!("connecting to {} timed out: {err}", path.display()),
                    ));
                }
                std::thread::sleep(sleep);
                sleep = cfg.backoff(sleep);
            }
        }
    }
}

/// Join the multi-process mesh rooted at `dir` as world rank `rank`:
/// bind `rank<r>.sock`, connect to every lower rank (with retry — the
/// siblings may not have bound yet), accept every higher rank, exchange
/// hello frames so accepted streams are attributed to the right peer.
fn connect_mesh(
    dir: &Path,
    rank: Rank,
    nranks: usize,
    cfg: &MeshConfig,
) -> std::io::Result<Arc<SocketNode>> {
    let listener = UnixListener::bind(dir.join(format!("rank{rank}.sock")))?;
    let mut streams: Vec<Option<UnixStream>> = (0..nranks).map(|_| None).collect();
    for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
        let stream = retry_connect(&dir.join(format!("rank{peer}.sock")), cfg)?;
        let mut hello = Vec::with_capacity(FRAME_HEADER_BYTES);
        FrameHeader {
            kind: FrameKind::Hello,
            ctx: WORLD_CTX,
            src: rank as u32,
            tag: 0,
            len: 0,
        }
        .encode(&mut hello);
        (&stream).write_all(&hello)?;
        *slot = Some(stream);
    }
    let deadline = Instant::now() + cfg.timeout;
    for _ in rank + 1..nranks {
        listener.set_nonblocking(true)?;
        let mut sleep = cfg.retry_start;
        let stream = loop {
            match listener.accept() {
                Ok((stream, _)) => break stream,
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "timed out waiting for higher ranks to connect",
                        ));
                    }
                    std::thread::sleep(sleep);
                    sleep = cfg.backoff(sleep);
                }
                Err(err) => return Err(err),
            }
        };
        stream.set_nonblocking(false)?;
        let mut hdr_buf = [0u8; FRAME_HEADER_BYTES];
        (&stream).read_exact(&mut hdr_buf)?;
        let hdr = FrameHeader::decode(&hdr_buf).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad hello: {e}"))
        })?;
        if hdr.kind != FrameKind::Hello || hdr.src as usize >= nranks {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "mesh handshake expected a hello frame",
            ));
        }
        streams[hdr.src as usize] = Some(stream);
    }
    build_node(rank, nranks, streams)
}

// ----------------------------------------------------------------------
// Entry points
// ----------------------------------------------------------------------

/// Why a worker process's rank body did not complete. `elba launch`
/// workers map these onto the exit-code taxonomy (`elba::exit`) so the
/// supervisor can tell a root-cause crash from a cascade unwind.
#[derive(Debug)]
pub enum WorkerError {
    /// Mesh bring-up or teardown I/O failed (rank attached upstream).
    Io(std::io::Error),
    /// The rank unwound cleanly after observing a dead peer — a cascade
    /// victim, not the root cause.
    Comm(CommError),
    /// The rank was killed on purpose by an injected fault plan.
    Killed(String),
    /// The rank body panicked.
    Panic(String),
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Io(e) => write!(f, "{e}"),
            WorkerError::Comm(e) => write!(f, "{e}"),
            WorkerError::Killed(d) => write!(f, "killed by fault plan ({d})"),
            WorkerError::Panic(m) => write!(f, "panicked: {m}"),
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<std::io::Error> for WorkerError {
    fn from(e: std::io::Error) -> WorkerError {
        WorkerError::Io(e)
    }
}

/// Run `f` as one world rank of a multi-process socket mesh rooted at
/// `dir` (the rendezvous directory all `nranks` processes share — see
/// `elba launch`). Blocks until the mesh is up, runs `f` over the world
/// communicator, and returns `f`'s result together with this rank's
/// recorded [`Profile`]. Cross-rank aggregation (a merged
/// [`crate::RunProfile`] at rank 0) is the caller's business: gather the
/// per-rank profiles over a duplicated communicator with
/// [`Profile::wire_encode`].
///
/// A panicking `f` does not take the process down bare-handed: the
/// panic is caught, an abort frame proactively tears this rank out of
/// the whole mesh (peers unwind with `PeerGone` instead of timing out),
/// and the classified failure comes back as a [`WorkerError`].
pub fn run_worker<T, F>(
    dir: &Path,
    rank: Rank,
    nranks: usize,
    f: F,
) -> Result<(T, Profile), WorkerError>
where
    F: FnOnce(Comm) -> T,
{
    assert!(rank < nranks, "worker rank {rank} outside 0..{nranks}");
    crate::error::silence_typed_unwinds();
    let plan = FaultPlan::from_env().map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{}: {e}", crate::transport::fault::FAULT_PLAN_ENV),
        )
    })?;
    let node = connect_mesh(dir, rank, nranks, &MeshConfig::from_env())?;
    let profile = Arc::new(Mutex::new(Profile::new(rank)));
    let mut transport: Arc<dyn Transport> = Arc::new(SocketTransport::world(node));
    if let Some(plan) = &plan {
        // Process-mode faults: a killed worker exits (or SIGKILLs
        // itself) instead of unwinding — the launcher's taxonomy and
        // the peers' PeerGone errors are the observable.
        transport = FaultTransport::wrap(transport, plan, FaultMode::Process);
    }
    let abort_handle = Arc::clone(&transport);
    let comm = Comm::from_transport(transport, Arc::clone(&profile));
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || f(comm))) {
        Ok(out) => {
            let snapshot = lock_profile(&profile).clone();
            Ok((out, snapshot))
        }
        Err(payload) => {
            // The unwind already dropped `comm` (orderly Close frames);
            // the abort additionally declares the whole process dead so
            // peers parked in communicators this rank never joined a
            // counterpart of fail promptly too.
            abort_handle.abort();
            Err(match crate::error::classify_panic(payload) {
                FailureCause::PeerGone(e) => WorkerError::Comm(e),
                FailureCause::Killed(d) => WorkerError::Killed(d),
                FailureCause::Panic(m) => WorkerError::Panic(m),
            })
        }
    }
}

/// The transports of an `nranks`-rank socket mesh hosted as threads of
/// the current process — what `Runner::new(Backend::Socket)` runs on.
///
/// The mesh is real — every cross-rank message is serialized into a
/// frame, shipped through a Unix socketpair and deserialized by the
/// receiver — but the ranks are threads, so tests and benches can pin
/// cross-backend properties (byte-identical contigs and wire bytes
/// against the in-process backend) without forking processes. For
/// genuinely separate processes, use `elba launch` / [`run_worker`].
pub(crate) fn thread_mesh(nranks: usize) -> Vec<Arc<dyn Transport>> {
    pair_mesh(nranks)
        .unwrap_or_else(|e| panic!("socket mesh bring-up failed: {e}"))
        .into_iter()
        .map(|node| Arc::new(SocketTransport::world(node)) as Arc<dyn Transport>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_ctx_never_world_and_spreads() {
        let a = child_ctx(WORLD_CTX, SplitKey { seq: 1, color: 0 });
        let b = child_ctx(WORLD_CTX, SplitKey { seq: 1, color: 1 });
        let c = child_ctx(a, SplitKey { seq: 1, color: 0 });
        assert_ne!(a, WORLD_CTX);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
