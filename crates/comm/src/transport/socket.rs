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
//! Per peer stream a dedicated reader thread drains frames into the
//! rank's condvar-backed `Mailbox` — the same inbox type the in-process
//! backend uses, so receive matching, parking and closed-flag semantics
//! are shared code. Because readers always drain the socket into an
//! unbounded mailbox, a sender's `write` can never deadlock against its
//! own receive path: posts stay non-blocking over sockets exactly as
//! they do in process.
//!
//! ## Communicators
//!
//! One process hosts exactly one world rank (invariant 3: threads never
//! enter the comm layer) and one inbox. `ctx` is an opaque match key
//! carried in the frame header: the `Comm` views above the transport
//! stamp it on every envelope and match on it at receive.

use std::io::{BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use super::fault::{FaultMode, FaultPlan, FaultTransport};
use super::wire::{FrameHeader, FrameKind, FRAME_HEADER_BYTES};
use super::{Envelope, Mailbox, Payload, PeerGone, Transport};
use crate::error::{CommError, FailureCause};
use crate::profile::{lock_profile, Profile};
use crate::runtime::{Comm, Rank};

/// One process's endpoint of the socket mesh: the write half of every
/// peer stream plus the inbox its reader threads deliver into.
pub(crate) struct SocketTransport {
    rank: Rank,
    /// writers[peer]: locked write half of the stream to `peer`
    /// (`None` for self — self-sends never touch a socket).
    writers: Vec<Option<Mutex<UnixStream>>>,
    mailbox: Arc<Mailbox>,
}

impl SocketTransport {
    /// Serialize and ship one frame to `peer` (never self).
    fn send_frame(
        &self,
        peer: Rank,
        kind: FrameKind,
        ctx: u64,
        tag: u64,
        payload: &[u8],
    ) -> Result<(), PeerGone> {
        let writer = self.writers[peer].as_ref().ok_or(PeerGone)?;
        let header = FrameHeader {
            kind,
            ctx,
            src: self.rank as u32,
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

impl Drop for SocketTransport {
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

/// Spawn the per-peer reader thread: drain `peer`'s frames into this
/// rank's inbox until EOF or a protocol error, then close `peer` there —
/// the backstop for a process that died without saying goodbye. Frames
/// that arrive after this rank shut down are discarded by the mailbox.
fn spawn_reader(
    my_rank: Rank,
    peer: Rank,
    stream: UnixStream,
    mailbox: Arc<Mailbox>,
) -> std::io::Result<()> {
    std::thread::Builder::new()
        .name(format!("sock-rx-{my_rank}-{peer}"))
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
                match hdr.kind {
                    FrameKind::Data => {
                        let envelope = Envelope {
                            ctx: hdr.ctx,
                            tag: hdr.tag,
                            payload: Payload::Frame(payload),
                        };
                        let _ = mailbox.push(peer, envelope);
                    }
                    FrameKind::Close => mailbox.close(peer),
                    FrameKind::Hello => {}
                }
            }
            mailbox.close(peer);
        })
        .map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!("rank {my_rank}: spawn reader thread for rank {peer}: {e}"),
            )
        })?;
    Ok(())
}

/// Assemble one rank's endpoint from its per-peer streams (`None` at
/// its own index) and start the reader threads.
fn build_node(rank: Rank, streams: Vec<Option<UnixStream>>) -> std::io::Result<SocketTransport> {
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
    let mailbox = Mailbox::new(streams.len());
    for (peer, stream) in streams.into_iter().enumerate() {
        if let Some(stream) = stream {
            spawn_reader(rank, peer, stream, Arc::clone(&mailbox))?;
        }
    }
    Ok(SocketTransport {
        rank,
        writers,
        mailbox,
    })
}

impl Transport for SocketTransport {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.writers.len()
    }

    fn post(&self, dst: Rank, envelope: Envelope) -> Result<(), PeerGone> {
        if dst == self.rank {
            // Send-to-self stays a moved value: no serialization, same
            // as the in-process backend.
            return self.mailbox.push(self.rank, envelope);
        }
        let mut payload = Vec::new();
        envelope.payload.encode_into(&mut payload);
        self.send_frame(dst, FrameKind::Data, envelope.ctx, envelope.tag, &payload)
    }

    fn recv_from(&self, src: Rank) -> Result<Envelope, PeerGone> {
        self.mailbox.recv(src)
    }

    fn shutdown(&self) {
        // One goodbye per peer, ahead of the EOF our exit will deliver:
        // an orderly finish and an abort are the same event — this world
        // rank closed.
        self.mailbox.mark_owner_gone();
        self.mailbox.close(self.rank);
        for peer in (0..self.size()).filter(|&p| p != self.rank) {
            let _ = self.send_frame(peer, FrameKind::Close, 0, 0, &[]);
        }
    }
}

// ----------------------------------------------------------------------
// Mesh construction
// ----------------------------------------------------------------------

/// Fully-connected mesh of `nranks` nodes from socketpairs, all inside
/// the calling process — the harness behind [`thread_mesh`].
fn pair_mesh(nranks: usize) -> std::io::Result<Vec<SocketTransport>> {
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
        .map(|(rank, streams)| build_node(rank, streams))
        .collect()
}

/// First retry sleep of mesh bring-up while siblings are not there yet;
/// it doubles per failed attempt up to [`RETRY_MAX`] (exponential
/// backoff keeps a large mesh from hammering the filesystem while still
/// reacting in milliseconds when siblings arrive quickly).
const RETRY_START: Duration = Duration::from_millis(2);

/// Backoff ceiling of mesh bring-up.
const RETRY_MAX: Duration = Duration::from_millis(50);

/// Next backoff sleep after `current` (doubling, capped).
fn backoff(current: Duration) -> Duration {
    (current * 2).min(RETRY_MAX)
}

fn retry_connect(path: &Path, timeout: Duration) -> std::io::Result<UnixStream> {
    let deadline = Instant::now() + timeout;
    let mut sleep = RETRY_START;
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
                sleep = backoff(sleep);
            }
        }
    }
}

/// Join the multi-process mesh rooted at `dir` as world rank `rank`:
/// bind `rank<r>.sock`, connect to every lower rank (with retry — the
/// siblings may not have bound yet), accept every higher rank, exchange
/// hello frames so accepted streams are attributed to the right peer.
/// Each wait gives up after `timeout`: a sibling that crashed before
/// binding would otherwise hang the whole launch.
fn connect_mesh(
    dir: &Path,
    rank: Rank,
    nranks: usize,
    timeout: Duration,
) -> std::io::Result<SocketTransport> {
    let listener = UnixListener::bind(dir.join(format!("rank{rank}.sock")))?;
    let mut streams: Vec<Option<UnixStream>> = (0..nranks).map(|_| None).collect();
    for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
        let stream = retry_connect(&dir.join(format!("rank{peer}.sock")), timeout)?;
        let mut hello = Vec::with_capacity(FRAME_HEADER_BYTES);
        FrameHeader {
            kind: FrameKind::Hello,
            ctx: 0,
            src: rank as u32,
            tag: 0,
            len: 0,
        }
        .encode(&mut hello);
        (&stream).write_all(&hello)?;
        *slot = Some(stream);
    }
    let deadline = Instant::now() + timeout;
    for _ in rank + 1..nranks {
        listener.set_nonblocking(true)?;
        let mut sleep = RETRY_START;
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
                    sleep = backoff(sleep);
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
    build_node(rank, streams)
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
/// `elba launch`). Blocks until the mesh is up — each bring-up wait
/// gives up after `mesh_timeout` — runs `f` over the world communicator,
/// and returns `f`'s result together with this rank's recorded
/// [`Profile`]. Cross-rank aggregation (a merged [`crate::RunProfile`]
/// at rank 0) is the caller's business: gather the per-rank profiles
/// over a duplicated communicator with [`Profile::wire_encode`].
///
/// `faults` is enforced in process mode: a killed rank exits the
/// process (or SIGKILLs it) instead of unwinding.
///
/// A panicking `f` does not take the process down bare-handed: the
/// panic is caught, this rank's endpoint is shut down (peers unwind with
/// `PeerGone` instead of timing out), and the classified failure comes
/// back as a [`WorkerError`].
pub fn run_worker<T, F>(
    dir: &Path,
    rank: Rank,
    nranks: usize,
    mesh_timeout: Duration,
    faults: Option<&FaultPlan>,
    f: F,
) -> Result<(T, Profile), WorkerError>
where
    F: FnOnce(Comm) -> T,
{
    assert!(rank < nranks, "worker rank {rank} outside 0..{nranks}");
    crate::error::silence_typed_unwinds();
    let profile = Arc::new(Mutex::new(Profile::new(rank)));
    let mut transport: Arc<dyn Transport> =
        Arc::new(connect_mesh(dir, rank, nranks, mesh_timeout)?);
    if let Some(plan) = faults {
        // Process-mode faults: a killed worker exits (or SIGKILLs
        // itself) instead of unwinding — the launcher's taxonomy and
        // the peers' PeerGone errors are the observable.
        transport = FaultTransport::wrap(transport, plan, FaultMode::Process);
    }
    let endpoint = Arc::clone(&transport);
    let comm = Comm::from_transport(transport, Arc::clone(&profile));
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || f(comm))) {
        Ok(out) => {
            let snapshot = lock_profile(&profile).clone();
            Ok((out, snapshot))
        }
        Err(payload) => {
            // The unwind normally dropped every `Comm` (which shuts the
            // endpoint down); make sure of it before reporting.
            endpoint.shutdown();
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
        .map(|node| Arc::new(node) as Arc<dyn Transport>)
        .collect()
}
