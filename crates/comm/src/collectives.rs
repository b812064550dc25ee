//! Collective operations over a [`Comm`], implemented with the classic
//! algorithms whose message counts match what an MPI library would issue:
//! binomial trees for broadcast/reduce, dissemination barrier, flat
//! personalized exchange for `alltoallv`. Reduction operators must be
//! associative and commutative (as for `MPI_Op`).

use std::sync::Arc;
use std::time::Instant;

use crate::msg::CommMsg;
use crate::runtime::{op, Comm, Rank, RecvRequest, Tag};

impl Comm {
    /// Synchronize all ranks (dissemination barrier, ⌈log₂ P⌉ rounds).
    pub fn barrier(&self) {
        let tag = self.next_coll_tag(op::BARRIER);
        let started = Instant::now();
        let p = self.size();
        let mut step = 1;
        while step < p {
            let dst = (self.rank() + step) % p;
            let src = (self.rank() + p - step) % p;
            self.raw_send(dst, tag, ());
            self.coll_recv::<()>(src, tag);
            step <<= 1;
        }
        self.record_collective(op::BARRIER, 0, started.elapsed().as_secs_f64());
    }

    /// Broadcast from `root`: the root passes `Some(value)`, everyone else
    /// `None`; all ranks return the value (binomial tree, ⌈log₂ P⌉ depth).
    ///
    /// Delivery is *arrival-driven* (see `bcast_deliver_tree`): the
    /// root pushes the value into every rank's mailbox at post time, so
    /// no rank's progress ever depends on an inner tree rank reaching
    /// its own receive — the ROADMAP's deep-tree serialization item.
    /// Every rank still *books* the modeled wire bytes of its own
    /// binomial-tree sends, so profiled traffic is identical to the
    /// per-hop schedule an MPI library would run.
    ///
    /// Pass an [`Arc`] to broadcast without copying: `Arc<T>` is a
    /// [`CommMsg`] whose wire size is the inner value's, so every tree
    /// edge clones only the handle — the payload is never deep-copied on
    /// any rank, root included (share the root's resident block with
    /// `Arc::clone` instead of packing a copy) — while the profiler books
    /// exactly the bytes the owned value would. Charge received blocks
    /// with [`Comm::mem_charge_shared`] to keep the once-per-rank
    /// accounting honest.
    pub fn bcast<T: CommMsg + Clone>(&self, root: Rank, value: Option<T>) -> T {
        let tag = self.next_coll_tag(op::BCAST);
        let started = Instant::now();
        let p = self.size();
        let vr = (self.rank() + p - root) % p; // virtual rank, root at 0
        let value = if vr == 0 {
            let value = value.expect("bcast root must supply a value");
            bcast_deliver_tree(self, root, tag, &value);
            value
        } else {
            self.coll_recv::<T>(root, tag)
        };
        // Same tree shape as the non-blocking broadcast: one byte-model
        // routine serves both, so the schedules can never diverge.
        let bytes = tree_share_bytes(self, vr, &value);
        self.record_collective(op::BCAST, bytes, started.elapsed().as_secs_f64());
        value
    }

    /// Gather every rank's value at `root` (rank-ordered). Non-roots get `None`.
    pub fn gather<T: CommMsg>(&self, root: Rank, value: T) -> Option<Vec<T>> {
        let tag = self.next_coll_tag(op::GATHER);
        let started = Instant::now();
        let result = if self.rank() == root {
            let mut all: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            all[root] = Some(value);
            for (src, slot) in all.iter_mut().enumerate() {
                if src != root {
                    *slot = Some(self.coll_recv::<T>(src, tag));
                }
            }
            Some(
                all.into_iter()
                    .map(|v| v.expect("gather slot filled"))
                    .collect(),
            )
        } else {
            let bytes = value.nbytes();
            self.raw_send(root, tag, value);
            self.record_collective(op::GATHER, bytes, 0.0);
            None
        };
        self.record_collective(op::GATHER, 0, started.elapsed().as_secs_f64());
        result
    }

    /// All ranks receive every rank's value, rank-ordered
    /// (gather at rank 0 + broadcast; 2(P−1) messages).
    pub fn allgather<T: CommMsg + Clone>(&self, value: T) -> Vec<T> {
        let gathered = self.gather(0, value);
        self.bcast(0, gathered)
    }

    /// Reduce all values to `root` with `op` (binomial tree). `op` must be
    /// associative + commutative. Non-roots get `None`.
    pub fn reduce<T: CommMsg>(&self, root: Rank, value: T, op: impl Fn(T, T) -> T) -> Option<T> {
        let tag = self.next_coll_tag(op::REDUCE);
        let started = Instant::now();
        let p = self.size();
        let vr = (self.rank() + p - root) % p;
        let mut acc = Some(value);
        let mut step = 1;
        while step < p {
            if vr & step != 0 {
                let parent = (vr - step + root) % p;
                let value = acc.take().expect("value still held before sending");
                let bytes = value.nbytes();
                self.raw_send(parent, tag, value);
                self.record_collective(op::REDUCE, bytes, started.elapsed().as_secs_f64());
                return None;
            }
            if vr + step < p {
                let child = (vr + step + root) % p;
                let other = self.coll_recv::<T>(child, tag);
                acc = Some(op(acc.take().expect("accumulator held"), other));
            }
            step <<= 1;
        }
        self.record_collective(op::REDUCE, 0, started.elapsed().as_secs_f64());
        acc
    }

    /// Reduction whose result is available on every rank.
    pub fn allreduce<T: CommMsg + Clone>(&self, value: T, op: impl Fn(T, T) -> T) -> T {
        let reduced = self.reduce(0, value, op);
        self.bcast(0, reduced)
    }

    /// Personalized all-to-all: `bufs[dst]` is shipped to rank `dst`;
    /// returns the buffers received, indexed by source rank. The analogue
    /// of `MPI_Alltoallv` (and ELBA's "custom all-to-all" for edge triples).
    pub fn alltoallv<T: CommMsg>(&self, bufs: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(
            bufs.len(),
            self.size(),
            "personalized exchange needs one buffer per rank"
        );
        let tag = self.next_coll_tag(op::ALLTOALLV);
        let started = Instant::now();
        let mut bytes = 0;
        for (dst, buf) in bufs.into_iter().enumerate() {
            bytes += buf.nbytes();
            self.raw_send(dst, tag, buf);
        }
        let received: Vec<Vec<T>> = (0..self.size())
            .map(|src| self.coll_recv::<Vec<T>>(src, tag))
            .collect();
        self.record_collective(op::ALLTOALLV, bytes, started.elapsed().as_secs_f64());
        received
    }

    /// Block reduce-scatter: every rank contributes one value *per rank*;
    /// rank `i` returns the reduction of all ranks' `i`-th contribution
    /// (`MPI_Reduce_scatter_block`). Used for global contig sizes (§4.2).
    pub fn reduce_scatter_block<T: CommMsg>(
        &self,
        contributions: Vec<T>,
        op: impl Fn(T, T) -> T,
    ) -> T {
        assert_eq!(
            contributions.len(),
            self.size(),
            "reduce_scatter_block needs one contribution per rank"
        );
        let tag = self.next_coll_tag(op::REDUCE_SCATTER);
        let started = Instant::now();
        let mut bytes = 0;
        for (dst, value) in contributions.into_iter().enumerate() {
            bytes += value.nbytes();
            self.raw_send(dst, tag, value);
        }
        let mut acc: Option<T> = None;
        for src in 0..self.size() {
            let value = self.coll_recv::<T>(src, tag);
            acc = Some(match acc.take() {
                None => value,
                Some(prev) => op(prev, value),
            });
        }
        self.record_collective(op::REDUCE_SCATTER, bytes, started.elapsed().as_secs_f64());
        acc.expect("at least one contribution")
    }

    /// Exclusive prefix scan: rank `r` returns `op` folded over the values
    /// of ranks `0..r`; rank 0 returns `identity`.
    pub fn exscan<T: CommMsg + Clone>(&self, value: T, identity: T, op: impl Fn(T, T) -> T) -> T {
        let tag = self.next_coll_tag(op::EXSCAN);
        let started = Instant::now();
        let prefix = if self.rank() == 0 {
            identity
        } else {
            self.coll_recv::<T>(self.rank() - 1, tag)
        };
        if self.rank() + 1 < self.size() {
            // The prefix clone is inherent to the scan, not a transport
            // copy: this rank must both *return* its own prefix and fold
            // it into the successor's — two live values with different
            // owners. Payloads here are scalar counts in practice; the
            // zero-copy shared path is for broadcast fan-out, where one
            // value reaches many ranks.
            let next = op(prefix.clone(), value);
            let bytes = next.nbytes();
            self.raw_send(self.rank() + 1, tag, next);
            self.record_collective(op::EXSCAN, bytes, 0.0);
        }
        self.record_collective(op::EXSCAN, 0, started.elapsed().as_secs_f64());
        prefix
    }

    /// Open a non-blocking, *streaming* personalized exchange
    /// (`MPI_Ialltoallv` analogue, ELBA's custom all-to-all). Outgoing
    /// data is supplied incrementally through
    /// [`IalltoallvRequest::post`] — any number of posts per destination,
    /// in any order, interleaved with draining inbound chunks — and
    /// sealed with [`IalltoallvRequest::finish_sends`]. Each post ships
    /// in chunks of at most `chunk_elems` elements, and the request
    /// yields per-source chunks *as they arrive*, so the caller folds
    /// each chunk into an accumulator while the rest of the exchange is
    /// still in flight and neither side ever holds the whole exchange.
    /// Ranks may post different amounts of traffic (termination is
    /// per-source, not count-based), which is what lets the k-mer
    /// exchange stream unevenly distributed reads without a per-batch
    /// barrier. One collective call regardless of how many chunks flow.
    ///
    /// Chunks from one source are delivered in posting order (the
    /// runtime's per-`(source, tag)` FIFO guarantee), so concatenating a
    /// source's chunks reconstructs everything it posted to this rank:
    /// post, seal and drain is equivalent to [`Comm::alltoallv`]. Time
    /// blocked in `next` (the request is an [`Iterator`] over
    /// `(source, chunk)` pairs) is booked to the profile's *wait*
    /// bucket, like `ibcast`.
    ///
    /// Sends are flow-controlled: the sender keeps at most `window`
    /// unacknowledged chunks in flight per destination. Each consumed
    /// chunk is acknowledged by the receiver (a credit message on a
    /// dedicated tag); chunks posted beyond the window queue on the
    /// sender and flow out as credits return. This bounds the
    /// *transport-side* buffering of the exchange end-to-end — a rank
    /// scanning much slower than its peers holds at most `window` chunks
    /// per source in its mailbox, instead of an unbounded backlog. Queued
    /// chunks move only inside the request's own calls, so a rank that
    /// runs another blocking collective before draining must open the
    /// exchange with `window = usize::MAX` (every chunk goes out at post
    /// time).
    ///
    /// Collective: every rank must open the matching exchange in SPMD
    /// order, seal it, and drain it to completion.
    pub fn ialltoallv<T: CommMsg + Clone + Sync>(
        &self,
        chunk_elems: usize,
        window: usize,
    ) -> IalltoallvRequest<'_, T> {
        assert!(chunk_elems > 0, "ialltoallv chunks need at least 1 element");
        assert!(window > 0, "flow-control window needs at least 1 chunk");
        let tag = self.next_coll_tag(op::IALLTOALLV);
        let ack_tag = self.next_coll_tag(op::IALLTOALLV);
        let p = self.size();
        IalltoallvRequest {
            comm: self,
            tag,
            ack_tag,
            chunk_elems,
            send_open: vec![true; p],
            pending_sends: (0..p).map(|_| std::collections::VecDeque::new()).collect(),
            credits: vec![window; p],
            sent_chunks: vec![0; p],
            acked_chunks: vec![0; p],
            terminator_sent: vec![false; p],
            #[cfg(test)]
            peak_outstanding: 0,
            ack_inflight: (0..p).map(|_| None).collect(),
            inflight: (0..p).map(|src| Some(self.irecv(src, tag))).collect(),
            open_sources: p,
            poll_cursor: 0,
        }
    }

    /// Non-blocking broadcast (`MPI_Ibcast` analogue): posts the same
    /// binomial tree as [`Comm::bcast`] but returns immediately with an
    /// [`IbcastRequest`]; the value is obtained by `wait`ing the request.
    ///
    /// Delivery is arrival-driven (see `bcast_deliver_tree`): the root
    /// pushes the value to *every* rank at post time, so posting the
    /// broadcast for stage `s+1` before computing stage `s` overlaps the
    /// whole tree's transfer with local work — and an inner rank that
    /// reaches its `wait`/`test` late never stalls the ranks below it
    /// (deep trees pipeline instead of serializing).
    ///
    /// Every rank of the communicator must post the matching `ibcast` in
    /// the same SPMD order as any other collective, and must eventually
    /// complete the request: completion is where a rank books the
    /// modeled wire bytes of its share of the tree.
    ///
    /// As with [`Comm::bcast`], an [`Arc`] payload travels as a refcount
    /// bump per tree edge and books the inner value's bytes: this is the
    /// engine of the pipelined SUMMA stage broadcasts, which move each
    /// CSR panel across a `q×q` grid with zero payload deep-copies.
    pub fn ibcast<T: CommMsg + Clone>(&self, root: Rank, value: Option<T>) -> IbcastRequest<'_, T> {
        let tag = self.next_coll_tag(op::IBCAST);
        let p = self.size();
        let vr = (self.rank() + p - root) % p; // virtual rank, root at 0
        if vr == 0 {
            let value = value.expect("ibcast root must supply a value");
            bcast_deliver_tree(self, root, tag, &value);
            let bytes = tree_share_bytes(self, vr, &value);
            self.record_coll_bytes(op::IBCAST, bytes);
            IbcastRequest {
                comm: self,
                root,
                state: IbcastState::Ready(value),
            }
        } else {
            let req = self.irecv::<T>(root, tag);
            IbcastRequest {
                comm: self,
                root,
                state: IbcastState::Waiting(req),
            }
        }
    }
}

/// Arrival-driven tree delivery: when a broadcast value "arrives" at a
/// rank, its whole subtree is fed in the same delivering path — which,
/// applied recursively from the root, collapses to the root pushing the
/// value into every rank's mailbox at post time. Inner tree ranks never
/// hold up their descendants by reaching `wait`/`test` late, closing the
/// ROADMAP item where deep trees (large q) serialized on hop-by-hop
/// forwarding. Physical copies: one `clone()` per non-root rank — a
/// refcount bump on the shared (`Arc`) path, a deep copy on the owned
/// path (the same total copy count hop-by-hop forwarding performed,
/// just executed by the delivering thread).
///
/// Wire bytes are *not* booked here: the binomial tree survives as the
/// byte model — each rank books its own modeled tree share via
/// [`tree_share_bytes`] when it completes, keeping per-rank profiled
/// traffic identical to the per-hop schedule an MPI library would run.
fn bcast_deliver_tree<T: CommMsg + Clone>(comm: &Comm, root: Rank, tag: Tag, value: &T) {
    let p = comm.size();
    for vr in 1..p {
        let dst = (vr + root) % p;
        comm.raw_send(dst, tag, value.clone());
    }
}

/// Modeled wire bytes of this rank's share of an (i)bcast binomial tree:
/// one message of `value.nbytes()` per tree child. The byte model every
/// broadcast books against, shared by the blocking, non-blocking, owned
/// and `Arc`-shared paths so their profiled traffic can never diverge.
fn tree_share_bytes<T: CommMsg>(comm: &Comm, vr: usize, value: &T) -> usize {
    let p = comm.size();
    let limit = if vr == 0 {
        p.next_power_of_two()
    } else {
        vr & vr.wrapping_neg()
    };
    let mut bytes = 0;
    let mut j = limit >> 1;
    while j >= 1 {
        if vr + j < p {
            bytes += value.nbytes();
        }
        j >>= 1;
    }
    bytes
}

enum IbcastState<'c, T: CommMsg> {
    /// Value in hand: this rank is the root, and booked its share of the
    /// tree when it posted.
    Ready(T),
    /// Still waiting on the root's delivery.
    Waiting(RecvRequest<'c, T>),
}

/// In-flight non-blocking broadcast; see [`Comm::ibcast`].
#[must_use = "ibcast must be completed with wait() — dropping it skips booking this rank's share of the collective"]
pub struct IbcastRequest<'c, T: CommMsg + Clone> {
    comm: &'c Comm,
    root: Rank,
    state: IbcastState<'c, T>,
}

impl<T: CommMsg + Clone> IbcastRequest<'_, T> {
    /// Block until the broadcast value arrives, book this rank's share
    /// of the collective, and return it. Blocked time is booked as
    /// *wait* time.
    pub fn wait(self) -> T {
        match self.state {
            IbcastState::Ready(value) => value,
            IbcastState::Waiting(req) => {
                let value = req.wait();
                // The subtree below was already fed physically at the
                // root's post (arrival-driven delivery); completion only
                // settles this rank's share of the byte model.
                let p = self.comm.size();
                let vr = (self.comm.rank() + p - self.root) % p;
                let bytes = tree_share_bytes(self.comm, vr, &value);
                self.comm.record_coll_bytes(op::IBCAST, bytes);
                value
            }
        }
    }
}

/// Payload of one `ialltoallv` data chunk. A posted buffer larger than
/// one chunk is wrapped in a single `Arc` and its chunks travel as
/// zero-copy *views* into that shared allocation — the sender never
/// re-copies the tail the way a `split_off` chain would, and however
/// many chunks a buffer fans out into, the transport holds one
/// allocation. The receiver materializes each view into an owned `Vec`
/// when it consumes the chunk (the one copy a real MPI receive would
/// also make); the final view of a buffer recovers the allocation
/// itself without copying.
enum ChunkBody<T> {
    Owned(Vec<T>),
    Shared(Arc<Vec<T>>, std::ops::Range<usize>),
}

impl<T> ChunkBody<T> {
    fn len(&self) -> usize {
        match self {
            ChunkBody::Owned(v) => v.len(),
            ChunkBody::Shared(_, range) => range.len(),
        }
    }

    fn slice(&self) -> &[T] {
        match self {
            ChunkBody::Owned(v) => v,
            ChunkBody::Shared(buf, range) => &buf[range.clone()],
        }
    }
}

impl<T: Clone> ChunkBody<T> {
    /// Take the chunk's elements as an owned vector, copying only when
    /// the backing allocation is still shared with other chunks.
    fn into_vec(self) -> Vec<T> {
        match self {
            ChunkBody::Owned(v) => v,
            ChunkBody::Shared(buf, range) => match Arc::try_unwrap(buf) {
                Ok(mut v) => {
                    // Last view standing: reclaim the allocation.
                    v.truncate(range.end);
                    v.drain(..range.start);
                    v
                }
                Err(buf) => buf[range].to_vec(),
            },
        }
    }
}

/// Wire bytes — and the frame layout — match the owned `Vec<T>`
/// encoding exactly (length header + payload), so the shared fan-out is
/// invisible to the profiler *and* to the socket transport: a zero-copy
/// view serializes like the vector it is a view of, and always decodes
/// back as an owned chunk (sharing cannot cross an address space).
impl<T: CommMsg + Sync> CommMsg for ChunkBody<T> {
    fn nbytes(&self) -> usize {
        8 + self.slice().iter().map(CommMsg::nbytes).sum::<usize>()
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        let slice = self.slice();
        out.extend_from_slice(&(slice.len() as u64).to_ne_bytes());
        T::wire_encode_slice(slice, out);
    }

    fn wire_decode(
        r: &mut crate::transport::wire::WireReader<'_>,
    ) -> Result<Self, crate::transport::wire::WireError> {
        Ok(ChunkBody::Owned(Vec::<T>::wire_decode(r)?))
    }
}

/// Wire format of one `ialltoallv` message: a chunk plus the last-marker
/// (`true` terminates the source's stream and carries no data).
type ChunkMsg<T> = (ChunkBody<T>, bool);
/// Outstanding receive for the next [`ChunkMsg`] from one source.
type ChunkRecv<'c, T> = RecvRequest<'c, ChunkMsg<T>>;

/// In-flight chunked personalized exchange; see [`Comm::ialltoallv`].
///
/// Wire protocol: each outgoing buffer travels as zero or more
/// `(chunk, false)` messages followed by one empty `(_, true)` terminator
/// per destination. The per-`(source, tag)` FIFO guarantee of the runtime
/// keeps a source's chunks in posting order, so receivers can fold them
/// incrementally without reassembly metadata.
///
/// Sends are *flow-controlled*: every data chunk consumes one credit for
/// its destination, and the receiver returns the credit (an empty ack on
/// a dedicated tag) when the chunk is consumed by
/// [`IalltoallvRequest::try_next`]/`next`. A destination with no credits
/// queues further chunks sender-side; they flow out as credits return
/// (progress is made inside every `try_next`/`next` call). At most
/// `window` chunks per (source, destination) pair are therefore ever
/// resident in transport mailboxes — the exchange's memory bound is
/// end-to-end, not just application-side. Terminators bypass credits
/// (one tiny message per pair) but are only sent once the destination's
/// queued data has fully flowed out, preserving order.
///
/// A peer that dies mid-exchange raises `PeerGone` from whichever call
/// observes it; every message of the exchange names `ialltoallv` as the
/// stalled collective.
#[must_use = "ialltoallv must be drained with next() — abandoning it desynchronizes the collective"]
pub struct IalltoallvRequest<'c, T: CommMsg + Clone + Sync> {
    comm: &'c Comm,
    tag: Tag,
    /// Credit returns travel on their own tag so they never interleave
    /// with the data stream's FIFO.
    ack_tag: Tag,
    chunk_elems: usize,
    /// Destinations still accepting `post` calls.
    send_open: Vec<bool>,
    /// Chunks awaiting credits, per destination (bounded by what the
    /// application has posted and not yet seen flow out; chunks of one
    /// posted buffer share its allocation).
    pending_sends: Vec<std::collections::VecDeque<ChunkBody<T>>>,
    /// Remaining send credits per destination (the flow-control window
    /// minus chunks in flight).
    credits: Vec<usize>,
    sent_chunks: Vec<u64>,
    acked_chunks: Vec<u64>,
    /// Whether the destination's terminator has gone out (requires the
    /// destination to be sealed and its pending queue drained).
    terminator_sent: Vec<bool>,
    /// Most chunks ever simultaneously unacknowledged toward one
    /// destination; the flow-control tests hold it to the window.
    #[cfg(test)]
    peak_outstanding: usize,
    /// One outstanding credit receive per destination with chunks in
    /// flight.
    ack_inflight: Vec<Option<RecvRequest<'c, ()>>>,
    /// One outstanding receive per source still streaming; `None` once
    /// the source's terminator has been consumed.
    inflight: Vec<Option<ChunkRecv<'c, T>>>,
    open_sources: usize,
    /// Round-robin fairness cursor so one chatty source cannot starve
    /// the others in `try_next`.
    poll_cursor: usize,
}

impl<'c, T: CommMsg + Clone + Sync> IalltoallvRequest<'c, T> {
    /// Default flow-control window: unacknowledged chunks allowed per
    /// destination before the sender queues locally.
    pub const DEFAULT_WINDOW: usize = 16;

    /// Ship `buf` to rank `dst`, split into chunks of at most
    /// `chunk_elems` elements. May be called any number of times per
    /// destination until [`IalltoallvRequest::finish_sends`]; an empty
    /// `buf` posts nothing. Posting never blocks: chunks beyond the
    /// destination's credit window queue locally and flow out during
    /// subsequent `try_next`/`next` calls as credits return.
    pub fn post(&mut self, dst: Rank, buf: Vec<T>) {
        assert!(
            self.send_open[dst],
            "ialltoallv: post to rank {dst} after finish_sends"
        );
        // Reclaimed credits must drain the queue immediately, not sit
        // idle until the next try_next — a posting burst would otherwise
        // serialize behind its first window.
        self.flush_sends();
        if buf.is_empty() {
            return;
        }
        if buf.len() <= self.chunk_elems {
            self.enqueue_chunk(dst, ChunkBody::Owned(buf));
        } else {
            // Shared fan-out: one Arc'd allocation, chunk-sized views.
            // (A split_off chain would re-copy the remaining tail once
            // per chunk — O(len²/chunk) moves for a large buffer.)
            let shared = Arc::new(buf);
            let mut start = 0;
            while start < shared.len() {
                let end = (start + self.chunk_elems).min(shared.len());
                self.enqueue_chunk(dst, ChunkBody::Shared(Arc::clone(&shared), start..end));
                start = end;
            }
        }
    }

    /// Ship one chunk now if the destination has credit and no queue,
    /// else queue it.
    fn enqueue_chunk(&mut self, dst: Rank, chunk: ChunkBody<T>) {
        if self.pending_sends[dst].is_empty() && self.credits[dst] > 0 {
            self.send_chunk(dst, chunk);
        } else {
            self.pending_sends[dst].push_back(chunk);
        }
    }

    fn send_chunk(&mut self, dst: Rank, chunk: ChunkBody<T>) {
        debug_assert!(self.credits[dst] > 0);
        self.credits[dst] -= 1;
        self.sent_chunks[dst] += 1;
        #[cfg(test)]
        {
            let outstanding = (self.sent_chunks[dst] - self.acked_chunks[dst]) as usize;
            self.peak_outstanding = self.peak_outstanding.max(outstanding);
        }
        let msg = (chunk, false);
        self.comm.record_coll_bytes(op::IALLTOALLV, msg.nbytes());
        self.comm.raw_send(dst, self.tag, msg);
    }

    /// Reap any credits that have come back. Raising on a dead peer here
    /// is what keeps `wait_for_credit` live: outstanding acks toward a
    /// dead destination can never return, and the probe must fail
    /// rather than let the sender park on them forever.
    fn pump_acks(&mut self) {
        for dst in 0..self.comm.size() {
            while self.acked_chunks[dst] < self.sent_chunks[dst] {
                let req = self.ack_inflight[dst]
                    .get_or_insert_with(|| self.comm.irecv(dst, self.ack_tag));
                if !req.test() {
                    break;
                }
                let req = self.ack_inflight[dst].take().expect("just inserted");
                req.wait(); // non-blocking: test() buffered it
                self.acked_chunks[dst] += 1;
                // Saturating: an unwindowed exchange starts at
                // usize::MAX credits.
                self.credits[dst] = self.credits[dst].saturating_add(1);
            }
        }
    }

    /// Move queued chunks (and due terminators) out under the available
    /// credits.
    fn flush_sends(&mut self) {
        self.pump_acks();
        for dst in 0..self.comm.size() {
            while self.credits[dst] > 0 {
                let Some(chunk) = self.pending_sends[dst].pop_front() else {
                    break;
                };
                self.send_chunk(dst, chunk);
            }
            if !self.send_open[dst]
                && self.pending_sends[dst].is_empty()
                && !self.terminator_sent[dst]
            {
                let msg: ChunkMsg<T> = (ChunkBody::Owned(Vec::new()), true);
                self.comm.record_coll_bytes(op::IALLTOALLV, msg.nbytes());
                self.comm.raw_send(dst, self.tag, msg);
                self.terminator_sent[dst] = true;
            }
        }
    }

    /// Seal every destination: no further [`IalltoallvRequest::post`]
    /// calls are accepted, and each peer's terminator goes out as soon as
    /// its queued chunks have flowed out. Idempotent, non-blocking. Must
    /// be called by every rank for the exchange to terminate; after
    /// sealing, keep draining with `next` so queued sends make progress.
    pub fn finish_sends(&mut self) {
        self.send_open.iter_mut().for_each(|open| *open = false);
        self.flush_sends();
    }

    /// Items queued sender-side awaiting credits. Producers that want a
    /// *bounded* application-side footprint throttle on this (see the
    /// streaming k-mer exchange): flow control caps what sits in
    /// transport mailboxes, but a producer that keeps posting ahead of a
    /// slow receiver grows this queue instead — the backlog has to live
    /// somewhere until the receiver consumes it.
    pub fn pending_send_items(&self) -> usize {
        self.pending_sends
            .iter()
            .flat_map(|q| q.iter())
            .map(ChunkBody::len)
            .sum()
    }

    /// Flush whatever credits allow, then block until the mailbox
    /// changes (an ack or an inbound chunk) if queued sends remain —
    /// the parking primitive behind producer-side throttling. Blocked
    /// time books to the *wait* bucket. Returns immediately when the
    /// queue is empty *or* an inbound chunk is ready for [`try_next`]:
    /// consuming that chunk is what grants the peer its credit, so
    /// parking past it would deadlock two mutually credit-exhausted
    /// ranks. Callers loop `wait_for_credit` with a `try_next` drain
    /// until the queue empties. A peer dying mid-exchange bumps the
    /// inbox sequence, so the park returns and the next probe sweep
    /// raises instead of deadlocking.
    ///
    /// [`try_next`]: IalltoallvRequest::try_next
    pub fn wait_for_credit(&mut self) {
        let mut waited: Option<Instant> = None;
        loop {
            // Seq is read before the flush and the inbound probe: an
            // ack or chunk arriving in between bumps it and the park
            // returns at once (no lost wakeup).
            let seen = self.comm.inbox_seq();
            self.flush_sends();
            if self.pending_send_items() == 0 || self.inbound_ready() {
                break;
            }
            waited.get_or_insert_with(Instant::now);
            self.comm.park_inbox(seen);
        }
        if let Some(started) = waited {
            self.comm.record_wait(started.elapsed().as_secs_f64());
        }
    }

    /// Whether any source has a chunk (or terminator) consumable right
    /// now. `test` buffers a matched envelope inside the request, so a
    /// positive probe is never lost — the next `try_next` returns it.
    fn inbound_ready(&mut self) -> bool {
        self.inflight.iter_mut().flatten().any(|req| req.test())
    }

    /// Poll for an arrived chunk from any source, without blocking.
    /// Returns the source rank and its next chunk (≤ `chunk_elems`
    /// elements, in per-source posting order), or `None` if nothing is
    /// ready right now. Terminators are consumed transparently, and each
    /// consumed data chunk returns a credit to its sender. Arrived
    /// credit acks are reaped on every call, but a consumer that drains
    /// the exchange via `try_next` alone must still make one final
    /// [`next`](Iterator::next) call (it returns `None`) before
    /// dropping the request: that call block-reaps the in-flight credit
    /// acks for chunks this rank sent, which would otherwise outlive the
    /// collective as stray envelopes in the mailbox.
    pub fn try_next(&mut self) -> Option<(Rank, Vec<T>)> {
        self.flush_sends();
        let p = self.comm.size();
        for i in 0..p {
            let src = (self.poll_cursor + i) % p;
            let Some(req) = self.inflight[src].as_mut() else {
                continue; // source already terminated
            };
            if !req.test() {
                continue;
            }
            let req = self.inflight[src].take().expect("matched as Some");
            let (chunk, last) = req.wait(); // non-blocking: test() buffered it
            if last {
                debug_assert!(chunk.len() == 0, "terminators carry no data");
                self.open_sources -= 1;
                continue; // inflight[src] stays None; scan the next source
            }
            self.inflight[src] = Some(self.comm.irecv(src, self.tag));
            self.poll_cursor = (src + 1) % p;
            // Return the credit: the chunk has left the mailbox. Acks
            // carry no payload but are real protocol messages — record
            // them so the profiler's message count (and the α-term of
            // the machine model) sees the flow-control traffic.
            self.comm.record_coll_bytes(op::IALLTOALLV, 0);
            self.comm.raw_send(src, self.ack_tag, ());
            return Some((src, chunk.into_vec()));
        }
        None
    }

    /// Whether the whole exchange is over from this rank's perspective:
    /// all sources terminated and all own terminators on the wire. The
    /// first condition implies the exchange was sealed (this rank is one
    /// of its own sources, and its own terminator only goes out after
    /// `finish_sends`), so an unsealed exchange is never complete.
    fn complete(&self) -> bool {
        self.open_sources == 0 && self.terminator_sent.iter().all(|&t| t)
    }

    /// Block-reap the credits still in flight for chunks we sent, so no
    /// stray ack messages outlive the collective in the mailbox.
    fn reap_remaining_acks(&mut self) {
        for dst in 0..self.comm.size() {
            while self.acked_chunks[dst] < self.sent_chunks[dst] {
                let req = self.ack_inflight[dst]
                    .take()
                    .unwrap_or_else(|| self.comm.irecv(dst, self.ack_tag));
                req.wait();
                self.acked_chunks[dst] += 1;
                self.credits[dst] = self.credits[dst].saturating_add(1);
            }
        }
    }
}

/// Blocking chunk stream: `next` yields `(source, chunk)` pairs, blocking
/// until one arrives and returning `None` once every source has sent its
/// terminator and (if sealed) this rank's own queued sends have flowed
/// out — so a receive loop is literally a `for` loop over the request.
/// Blocking parks on the mailbox condvar (no polling); blocked time is
/// booked to the profile's *wait* bucket (like `ibcast`), keeping
/// communication/computation overlap measurable. A peer dying
/// mid-exchange bumps the inbox sequence, so the park returns and the
/// next probe sweep raises. Use [`IalltoallvRequest::try_next`] to poll
/// without blocking.
impl<T: CommMsg + Clone + Sync> Iterator for IalltoallvRequest<'_, T> {
    type Item = (Rank, Vec<T>);

    fn next(&mut self) -> Option<(Rank, Vec<T>)> {
        let mut waited: Option<Instant> = None;
        let out = loop {
            // Read the change counter *before* the probe sweep: an
            // arrival in between bumps it and park returns at once.
            let seen = self.comm.inbox_seq();
            if let Some(chunk) = self.try_next() {
                break Some(chunk);
            }
            if self.complete() {
                break None;
            }
            waited.get_or_insert_with(Instant::now);
            self.comm.park_inbox(seen);
        };
        if let Some(started) = waited {
            self.comm.record_wait(started.elapsed().as_secs_f64());
        }
        if out.is_none() {
            // Exchange over: collect the last credits so nothing leaks
            // into the mailbox past the collective (blocked time books
            // to the wait bucket via the requests themselves).
            self.reap_remaining_acks();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::IalltoallvRequest;
    use crate::runtime::{Backend, Comm, Runner};

    const WINDOW: usize = IalltoallvRequest::<u64>::DEFAULT_WINDOW;

    fn nonpow2_sizes() -> Vec<usize> {
        vec![1, 2, 3, 4, 5, 7, 8, 9]
    }

    /// The streaming exchange as a one-shot `alltoallv`: post every
    /// `bufs[dst]`, seal, and drain into per-source buffers.
    fn post_seal_drain(
        comm: &Comm,
        bufs: Vec<Vec<u64>>,
        chunk: usize,
        window: usize,
    ) -> Vec<Vec<u64>> {
        let mut req = comm.ialltoallv(chunk, window);
        for (dst, buf) in bufs.into_iter().enumerate() {
            req.post(dst, buf);
        }
        req.finish_sends();
        let mut got = vec![Vec::new(); comm.size()];
        for (src, mut chunk) in req {
            got[src].append(&mut chunk);
        }
        got
    }

    #[test]
    fn barrier_all_sizes() {
        for p in nonpow2_sizes() {
            Runner::new(Backend::InProcess).ranks(p).run(|comm| {
                for _ in 0..3 {
                    comm.barrier();
                }
            });
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for p in nonpow2_sizes() {
            for root in 0..p {
                let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                    let value = if comm.rank() == root {
                        Some(42u64 + root as u64)
                    } else {
                        None
                    };
                    comm.bcast(root, value)
                });
                assert!(
                    out.iter().all(|&v| v == 42 + root as u64),
                    "p={p} root={root}"
                );
            }
        }
    }

    #[test]
    fn bcast_vectors() {
        let out = Runner::new(Backend::InProcess).ranks(6).run(|comm| {
            let value = if comm.rank() == 2 {
                Some(vec![1u32, 2, 3])
            } else {
                None
            };
            comm.bcast(2, value)
        });
        assert!(out.iter().all(|v| v == &vec![1u32, 2, 3]));
    }

    #[test]
    fn gather_rank_ordered() {
        for p in nonpow2_sizes() {
            let out = Runner::new(Backend::InProcess)
                .ranks(p)
                .run(|comm| comm.gather(0, comm.rank() as u64 * 10));
            let root = out[0].as_ref().expect("root holds result");
            assert_eq!(root, &(0..p as u64).map(|r| r * 10).collect::<Vec<_>>());
            assert!(out[1..].iter().all(Option::is_none));
        }
    }

    #[test]
    fn reduce_sum_every_root() {
        for p in nonpow2_sizes() {
            for root in 0..p {
                let out = Runner::new(Backend::InProcess)
                    .ranks(p)
                    .run(move |comm| comm.reduce(root, comm.rank() as u64 + 1, |a, b| a + b));
                let expect = (p * (p + 1) / 2) as u64;
                assert_eq!(out[root], Some(expect), "p={p} root={root}");
                for (r, v) in out.iter().enumerate() {
                    if r != root {
                        assert!(v.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn allreduce_max() {
        let out = Runner::new(Backend::InProcess)
            .ranks(7)
            .run(|comm| comm.allreduce(comm.rank() as u64, u64::max));
        assert!(out.iter().all(|&v| v == 6));
    }

    #[test]
    fn allgather_orders_by_rank() {
        for p in nonpow2_sizes() {
            let out = Runner::new(Backend::InProcess)
                .ranks(p)
                .run(|comm| comm.allgather(comm.rank() as u64));
            for v in out {
                assert_eq!(v, (0..p as u64).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn alltoallv_personalizes() {
        let p = 4;
        let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            // rank r sends [r*10 + dst] to each dst.
            let bufs: Vec<Vec<u64>> = (0..p)
                .map(|dst| vec![comm.rank() as u64 * 10 + dst as u64])
                .collect();
            comm.alltoallv(bufs)
        });
        for (dst, received) in out.iter().enumerate() {
            for (src, buf) in received.iter().enumerate() {
                assert_eq!(buf, &vec![src as u64 * 10 + dst as u64]);
            }
        }
    }

    #[test]
    fn alltoallv_empty_buffers_ok() {
        let out = Runner::new(Backend::InProcess).ranks(3).run(|comm| {
            let bufs: Vec<Vec<u64>> = vec![Vec::new(); 3];
            comm.alltoallv(bufs)
        });
        assert!(out.iter().all(|bufs| bufs.iter().all(Vec::is_empty)));
    }

    #[test]
    fn reduce_scatter_block_sums_columns() {
        let p = 5;
        let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            // contribution[i] = rank + i; reduced column i = sum over ranks.
            let contributions: Vec<u64> = (0..p).map(|i| comm.rank() as u64 + i as u64).collect();
            comm.reduce_scatter_block(contributions, |a, b| a + b)
        });
        let rank_sum: u64 = (0..p as u64).sum();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, rank_sum + (p * i) as u64);
        }
    }

    #[test]
    fn exscan_prefix_sums() {
        let out = Runner::new(Backend::InProcess)
            .ranks(6)
            .run(|comm| comm.exscan(comm.rank() as u64 + 1, 0, |a, b| a + b));
        // rank r gets sum of 1..=r
        assert_eq!(out, vec![0, 1, 3, 6, 10, 15]);
    }

    #[test]
    fn ibcast_from_every_root_all_sizes() {
        for p in nonpow2_sizes() {
            for root in 0..p {
                let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                    let value = if comm.rank() == root {
                        Some(root as u64 + 7)
                    } else {
                        None
                    };
                    comm.ibcast(root, value).wait()
                });
                assert!(
                    out.iter().all(|&v| v == root as u64 + 7),
                    "p={p} root={root}"
                );
            }
        }
    }

    #[test]
    fn ibcast_overlaps_with_local_work() {
        // Post, do local work, then wait — the canonical pipelined shape.
        let out = Runner::new(Backend::InProcess).ranks(5).run(|comm| {
            let req = comm.ibcast(0, (comm.rank() == 0).then(|| vec![1u64, 2, 3]));
            let local: u64 = (0..1000u64).sum(); // stand-in compute
            let value = req.wait();
            value.iter().sum::<u64>() + local % 2
        });
        assert!(out.iter().all(|&v| v == 6));
    }

    #[test]
    fn two_outstanding_ibcasts_complete_in_any_order() {
        // The double-buffered SUMMA posts A and B broadcasts for the next
        // stage before waiting on either.
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let a = comm.ibcast(0, (comm.rank() == 0).then_some(10u64));
            let b = comm.ibcast(1, (comm.rank() == 1).then_some(20u64));
            let vb = b.wait();
            let va = a.wait();
            va + vb
        });
        assert!(out.iter().all(|&v| v == 30));
    }

    #[test]
    fn ibcast_forwards_at_arrival_not_at_inner_ranks_wait() {
        // p = 4, root 0: binomial tree 0 → {2, 1}, 2 → {3}. Rank 2
        // blocks on a message rank 3 only sends *after* completing its
        // own broadcast wait. Under hop-by-hop forwarding (inner ranks
        // forwarding on their own wait/test) this deadlocks: 3 waits for
        // 2's forward, 2 waits for 3's ack. Arrival-driven delivery
        // feeds rank 3 at the root's post, so the cycle never forms.
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let req = comm.ibcast(0, (comm.rank() == 0).then_some(7u64));
            match comm.rank() {
                2 => {
                    let ack = comm.recv::<u64>(3, 1);
                    req.wait() + ack
                }
                3 => {
                    let v = req.wait();
                    comm.send(2, 1, v * 10);
                    v
                }
                _ => req.wait(),
            }
        });
        assert_eq!(out, vec![7, 7, 77, 7]);
    }

    #[test]
    fn bcast_subtree_does_not_depend_on_inner_rank_progress() {
        // Blocking-bcast twin of the arrival-driven test: rank 2 (the
        // tree parent of rank 3) refuses to enter the broadcast until
        // rank 3 has already received its value.
        let out = Runner::new(Backend::InProcess)
            .ranks(4)
            .run(|comm| match comm.rank() {
                2 => {
                    let ack = comm.recv::<u64>(3, 1);
                    let v = comm.bcast(0, None::<u64>);
                    v + ack
                }
                3 => {
                    let v = comm.bcast(0, None);
                    comm.send(2, 1, v * 10);
                    v
                }
                _ => comm.bcast(0, (comm.rank() == 0).then_some(5u64)),
            });
        assert_eq!(out, vec![5, 5, 55, 5]);
    }

    #[test]
    fn ibcast_interleaves_with_blocking_collectives() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let req = comm.ibcast(2, (comm.rank() == 2).then_some(9u64));
            let sum = comm.allreduce(1u64, |a, b| a + b);
            let v = req.wait();
            comm.barrier();
            v * 100 + sum
        });
        assert!(out.iter().all(|&v| v == 904));
    }

    #[test]
    fn ibcast_books_wait_not_comm_time() {
        let (_, profile) = Runner::new(Backend::InProcess)
            .ranks(2)
            .run_profiled(|comm| {
                let _g = comm.phase("stage");
                if comm.rank() == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(15));
                    comm.ibcast(0, Some(3u64)).wait()
                } else {
                    comm.ibcast(0, None).wait()
                }
            });
        assert!(
            profile.max_wait_secs("stage") > 0.005,
            "wait bucket must fill"
        );
        assert!(
            profile.max_comm_secs("stage") < 0.005,
            "comm bucket must not"
        );
    }

    #[test]
    fn ialltoallv_equals_alltoallv_all_sizes() {
        for p in nonpow2_sizes() {
            for chunk in [1usize, 3, 64] {
                let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                    let make = || -> Vec<Vec<u64>> {
                        (0..comm.size())
                            .map(|dst| {
                                (0..(comm.rank() + 2 * dst) % 5)
                                    .map(|i| (comm.rank() * 100 + dst * 10 + i) as u64)
                                    .collect()
                            })
                            .collect()
                    };
                    let got = post_seal_drain(&comm, make(), chunk, WINDOW);
                    let want = comm.alltoallv(make());
                    got == want
                });
                assert!(out.iter().all(|&ok| ok), "p={p} chunk={chunk}");
            }
        }
    }

    #[test]
    fn ialltoallv_chunks_preserve_source_order() {
        // One big buffer split into many chunks: concatenation in arrival
        // order must reproduce it exactly (per-(source, tag) FIFO).
        let out = Runner::new(Backend::InProcess).ranks(3).run(|comm| {
            let bufs: Vec<Vec<u64>> = (0..3)
                .map(|dst| (0..47u64).map(|i| dst as u64 * 1000 + i).collect())
                .collect();
            let mut req = comm.ialltoallv(5, WINDOW);
            for (dst, buf) in bufs.into_iter().enumerate() {
                req.post(dst, buf);
            }
            req.finish_sends();
            let mut got: Vec<Vec<u64>> = vec![Vec::new(); 3];
            let mut largest_chunk = 0usize;
            for (src, mut chunk) in req.by_ref() {
                largest_chunk = largest_chunk.max(chunk.len());
                got[src].append(&mut chunk);
            }
            assert!(largest_chunk <= 5, "chunk cap violated: {largest_chunk}");
            // Every sender src built bufs[dst] = [dst*1000 + i], so we
            // (rank = dst) must see rank*1000 + 0..47, in order, from all.
            got.iter().all(|buf| {
                buf.len() == 47
                    && buf
                        .iter()
                        .enumerate()
                        .all(|(i, &v)| v == comm.rank() as u64 * 1000 + i as u64)
            })
        });
        assert!(out.iter().all(|&ok| ok));
    }

    #[test]
    fn ialltoallv_streaming_posts_in_rounds() {
        // The k-mer exchange shape: ranks post different numbers of
        // rounds, folding inbound chunks between posts; totals must match
        // the sum of everything posted toward each rank.
        let p = 4;
        let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let rounds = comm.rank() + 1; // uneven traffic per rank
            let mut req = comm.ialltoallv::<u64>(3, WINDOW);
            let mut received: Vec<u64> = Vec::new();
            for round in 0..rounds {
                for dst in 0..p {
                    let batch: Vec<u64> = (0..4)
                        .map(|i| (comm.rank() * 1000 + round * 100 + dst * 10 + i) as u64)
                        .collect();
                    req.post(dst, batch);
                }
                while let Some((_, chunk)) = req.try_next() {
                    received.extend(chunk);
                }
            }
            req.finish_sends();
            for (_, chunk) in req.by_ref() {
                received.extend(chunk);
            }
            // src sends (src+1) rounds × 4 values to every rank.
            let want: u64 = (0..p)
                .map(|src| {
                    (0..=src)
                        .map(|round| {
                            (0..4)
                                .map(|i| (src * 1000 + round * 100 + comm.rank() * 10 + i) as u64)
                                .sum::<u64>()
                        })
                        .sum::<u64>()
                })
                .sum();
            let total: u64 = received.iter().sum();
            assert_eq!(
                received.len(),
                (0..p).map(|src| (src + 1) * 4).sum::<usize>()
            );
            total == want
        });
        assert!(out.iter().all(|&ok| ok));
    }

    #[test]
    fn ialltoallv_empty_and_single_rank() {
        let out = Runner::new(Backend::InProcess).ranks(1).run(|comm| {
            let got = post_seal_drain(&comm, vec![vec![7u64, 8, 9]], 2, WINDOW);
            got == vec![vec![7u64, 8, 9]]
        });
        assert!(out[0]);
        let out = Runner::new(Backend::InProcess).ranks(3).run(|comm| {
            let got = post_seal_drain(&comm, vec![Vec::new(); 3], 4, WINDOW);
            got.iter().all(Vec::is_empty)
        });
        assert!(out.iter().all(|&ok| ok));
    }

    #[test]
    fn ialltoallv_interleaves_with_collectives_and_p2p() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            let p2p = comm.irecv::<u64>(left, 11);
            comm.send(right, 11, comm.rank() as u64);
            let bufs: Vec<Vec<u64>> = (0..4)
                .map(|dst| vec![(comm.rank() * 4 + dst) as u64])
                .collect();
            // Unwindowed: every chunk is on the wire at post time, so
            // a blocking collective may run before the drain.
            let mut req = comm.ialltoallv(1, usize::MAX);
            for (dst, buf) in bufs.into_iter().enumerate() {
                req.post(dst, buf);
            }
            req.finish_sends();
            let sum = comm.allreduce(1u64, |a, b| a + b);
            let mut got: Vec<Vec<u64>> = vec![Vec::new(); comm.size()];
            for (src, mut chunk) in req {
                got[src].append(&mut chunk);
            }
            let from_left = p2p.wait();
            comm.barrier();
            let diag = got[comm.rank()][0];
            sum == 4 && from_left == left as u64 && diag == (comm.rank() * 4 + comm.rank()) as u64
        });
        assert!(out.iter().all(|&ok| ok));
    }

    #[test]
    fn ialltoallv_books_wait_not_comm_time() {
        let (_, profile) = Runner::new(Backend::InProcess)
            .ranks(2)
            .run_profiled(|comm| {
                let _g = comm.phase("stage");
                if comm.rank() == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(15));
                }
                let bufs: Vec<Vec<u64>> = vec![vec![1], vec![2]];
                post_seal_drain(&comm, bufs, 8, WINDOW)
            });
        assert!(
            profile.max_wait_secs("stage") > 0.005,
            "wait bucket must fill"
        );
        assert!(
            profile.max_comm_secs("stage") < 0.005,
            "comm bucket must not"
        );
    }

    #[test]
    fn flow_control_caps_outstanding_chunks() {
        // A fast sender against a deliberately slow receiver: the credit
        // protocol must keep unacknowledged chunks per destination at or
        // below the window, no matter how far ahead the sender scans.
        let out = Runner::new(Backend::InProcess).ranks(2).run(|comm| {
            let window = 3usize;
            let mut req = comm.ialltoallv::<u64>(4, window);
            if comm.rank() == 0 {
                // 4 elems per chunk x 30 posts = 30 chunks toward rank 1.
                for round in 0..30u64 {
                    req.post(1, (0..4).map(|i| round * 4 + i).collect());
                }
            }
            req.finish_sends();
            let mut received = 0usize;
            for (_, chunk) in req.by_ref() {
                received += chunk.len();
                if comm.rank() == 1 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }
            (req.peak_outstanding, window, received)
        });
        let (peak, window, _) = out[0];
        assert!(peak <= window, "rank 0 peak {peak} exceeds window {window}");
        assert!(peak > 0, "sender must have had chunks in flight");
        assert_eq!(out[1].2, 120, "receiver must still get every element");
    }

    #[test]
    fn flow_control_window_one_matches_alltoallv() {
        // The tightest window (one chunk in flight per destination) must
        // still complete and reproduce the blocking exchange exactly,
        // including under mutual pressure on every pair at once.
        for p in [1usize, 2, 4, 5] {
            let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                let make = || -> Vec<Vec<u64>> {
                    (0..comm.size())
                        .map(|dst| {
                            (0..17 + comm.rank() + dst)
                                .map(|i| (comm.rank() * 1000 + dst * 100 + i) as u64)
                                .collect()
                        })
                        .collect()
                };
                let mut req = comm.ialltoallv(2, 1);
                for (dst, buf) in make().into_iter().enumerate() {
                    req.post(dst, buf);
                }
                req.finish_sends();
                let mut got: Vec<Vec<u64>> = vec![Vec::new(); comm.size()];
                let peak = {
                    for (src, mut chunk) in req.by_ref() {
                        got[src].append(&mut chunk);
                    }
                    req.peak_outstanding
                };
                let want = comm.alltoallv(make());
                assert!(peak <= 1, "window 1 violated: {peak}");
                got == want
            });
            assert!(out.iter().all(|&ok| ok), "p={p}");
        }
    }

    #[test]
    fn collectives_interleave_with_p2p() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(right, 5, comm.rank() as u64);
            let sum = comm.allreduce(1u64, |a, b| a + b);
            let from_left = comm.recv::<u64>(left, 5);
            comm.barrier();
            sum + from_left
        });
        assert_eq!(out, vec![7, 4, 5, 6]);
    }
}
