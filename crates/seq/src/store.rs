//! Distributed read store.
//!
//! Read sequences are "stored as distributed char arrays" (§4.3): each
//! rank keeps its reads concatenated in one code buffer with an offset
//! table, so a subsequence lookup during local assembly reads straight
//! out of the buffer — "we can simply use the offsets already computed,
//! which tell us where each read is in the buffer" (§4.4).
//!
//! In memory a read is one code per byte, because the aligner and the
//! k-mer scan read it in place. On the wire it is four codes per byte:
//! both transfers, [`ReadStore::exchange`] and
//! [`ReadStore::fetch_named`], ship the reads' [`ReadHeaders`] (each
//! read's id gap and length, as varints) and the reads packed 2 bits per
//! base (each read byte-aligned), and the receiver unpacks them straight
//! into its new store. A length is below 2³¹, since [`MAX_READ_LEN`] is,
//! and an id fits a `u32`, since a read set holds at most [`MAX_READS`]
//! reads ([`TooManyReads`]). Both check the payload against its headers
//! on ingest and name the sender and the read when they disagree.
//!
//! Initially reads are block-distributed with the same [`Layout2D`]
//! chunking as distributed vectors, so read `i` is co-located with matrix
//! row `i`. The alignment stage fetches only the reads its block of the
//! candidate matrix names and it does not hold
//! ([`ReadStore::fetch_named`]): it asks each owner for their ids, so a
//! rank whose block names none receives no read. After contig load
//! balancing, [`ReadStore::exchange`] redistributes sequences to their
//! contig owners, reproducing the paper's large-message handling: a
//! message whose length exceeds the MPI count limit (2³¹−1) is shipped
//! as a single *contiguous-datatype* block rather than
//! element-by-element.
//!
//! The id → slot index is a hash table under the keyed folded-multiply
//! hasher the k-mer tables use ([`crate::kcount`]), not SipHash: read ids
//! are the program's own dense numbering, one probe is one multiply, and
//! — unlike a table of consecutive-id runs — its cost does not depend on
//! the order ids arrive in (after the exchange a rank holds whichever
//! reads its contigs are made of). The exchange sizes every array of the
//! new store from the received headers before it ingests a byte.

use std::collections::HashMap;

use elba_comm::transport::wire::{varint_len, write_varint, WireError, WireReader};
use elba_comm::{CommMsg, ProcGrid, Rank};
use elba_sparse::layout::Layout2D;
use elba_sparse::{Ascending, DistMat, U32Run};

use crate::dna::{self, Seq};
use crate::kcount::KmerHashKey;

/// Tag space for the sequence exchange.
const SEQ_TAG: u64 = 0x00_5E9E;

/// Reads on the wire: their headers and the codes of those reads packed
/// four per byte, each read starting on a byte boundary.
type PackedReads = (ReadHeaders, Vec<u8>);

/// The `(id, len)` headers of a batch of reads, in batch order.
///
/// In memory they are `(u32, u32)` pairs; on the wire they are a varint
/// count and then, per read, `varint(id gap)` and `varint(len)`. The gap
/// is `id − previous id` modulo 2³² (the first read's is its id), so the
/// ascending runs of ids a block-distributed store sends cost one byte
/// each, and any order still round-trips. [`CommMsg::nbytes`] is the
/// coded length, kept as headers are pushed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadHeaders {
    headers: Vec<(u32, u32)>,
    /// Coded bytes of the headers, the count's varint aside.
    bytes: usize,
}

impl ReadHeaders {
    /// Append read `id` of `len` bases. Panics if `len` exceeds
    /// [`MAX_READ_LEN`], which no stored read does.
    #[inline]
    pub fn push(&mut self, (id, len): (u32, u32)) {
        assert!(
            len as usize <= MAX_READ_LEN,
            "stored reads are shorter than 2^31 bases"
        );
        self.bytes += varint_len(u64::from(id.wrapping_sub(self.last_id())));
        self.bytes += varint_len(u64::from(len));
        self.headers.push((id, len));
    }

    /// The headers, in batch order.
    pub fn headers(&self) -> &[(u32, u32)] {
        &self.headers
    }

    /// The id the next gap counts from.
    fn last_id(&self) -> u32 {
        self.headers.last().map_or(0, |&(id, _)| id)
    }
}

impl CommMsg for ReadHeaders {
    fn nbytes(&self) -> usize {
        varint_len(self.headers.len() as u64) + self.bytes
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.headers.len() as u64);
        let mut prev = 0u32;
        for &(id, len) in &self.headers {
            write_varint(out, u64::from(id.wrapping_sub(prev)));
            write_varint(out, u64::from(len));
            prev = id;
        }
    }

    /// The inverse of `wire_encode`. A gap past `u32::MAX` or a length of
    /// 2³¹ or more is [`WireError::Malformed`]; the headers are reserved
    /// only as far as the remaining bytes (two per header) go.
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.read_varint()?;
        let mut headers = ReadHeaders {
            headers: Vec::with_capacity((n as usize).min(r.remaining() / 2)),
            bytes: 0,
        };
        for _ in 0..n {
            let gap =
                u32::try_from(r.read_varint()?).map_err(|_| WireError::Malformed("read id gap"))?;
            let len = r.read_varint()?;
            if len > MAX_READ_LEN as u64 {
                return Err(WireError::Malformed("read length"));
            }
            headers.push((headers.last_id().wrapping_add(gap), len as u32));
        }
        Ok(headers)
    }
}

/// A stored read's wire header. Both halves fit a `u32` because
/// [`ReadStore::push`] refuses ids of [`MAX_READS`] or more and reads
/// longer than [`MAX_READ_LEN`] < 2³¹.
fn header(id: u64, codes: &[u8]) -> (u32, u32) {
    let id = u32::try_from(id).expect("stored read ids are below 2^32");
    let len = u32::try_from(codes.len()).expect("stored reads are shorter than 2^31 bases");
    (id, len)
}

/// The MPI maximum element count a single send can carry.
pub const MPI_COUNT_LIMIT: usize = (1 << 31) - 1;

/// The longest read the pipeline accepts: a k-mer position is an
/// [`crate::AEntry`]'s 31-bit `pos`.
pub const MAX_READ_LEN: usize = (1 << 31) - 1;

/// A read of 2³¹ bases or more, refused at ingest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadTooLong {
    /// The read's id (its index in the read set).
    pub id: u64,
    /// Its length in bases.
    pub len: usize,
}

impl ReadTooLong {
    /// `Ok` if read `id` of `len` bases fits [`MAX_READ_LEN`].
    pub fn check(id: u64, len: usize) -> Result<(), ReadTooLong> {
        if len > MAX_READ_LEN {
            return Err(ReadTooLong { id, len });
        }
        Ok(())
    }

    /// Check every read of a read set, ids being indices.
    pub fn check_all(reads: &[Seq]) -> Result<(), ReadTooLong> {
        (reads.iter().enumerate()).try_for_each(|(id, read)| Self::check(id as u64, read.len()))
    }
}

impl std::fmt::Display for ReadTooLong {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "read {} has {} bases; reads are limited to {MAX_READ_LEN} (k-mer positions are 31-bit)",
            self.id, self.len
        )
    }
}

impl std::error::Error for ReadTooLong {}

/// The most reads a read set may hold: read ids, and with them vertex
/// ids and component labels, travel as `u32` (ids `0..MAX_READS`).
pub const MAX_READS: usize = u32::MAX as usize;

/// A read set of 2³² reads or more, refused at ingest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooManyReads {
    /// How many reads the set holds.
    pub reads: usize,
}

impl TooManyReads {
    /// `Ok` if a read set of `reads` reads fits [`MAX_READS`]. Takes the
    /// count, not the reads, so the limit is checkable without them.
    pub fn check(reads: usize) -> Result<(), TooManyReads> {
        if reads > MAX_READS {
            return Err(TooManyReads { reads });
        }
        Ok(())
    }
}

impl std::fmt::Display for TooManyReads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} reads; a read set is limited to {MAX_READS} (read ids are 32-bit)",
            self.reads
        )
    }
}

impl std::error::Error for TooManyReads {}

/// A buffer wrapped as one "contiguous datatype" element, mirroring the
/// paper's workaround for the 2³¹−1 count limit: the unit size equals the
/// whole buffer, so the message carries exactly one element.
struct ContiguousBlock {
    data: Vec<u8>,
}

impl CommMsg for ContiguousBlock {
    fn nbytes(&self) -> usize {
        8 + self.data.len()
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.data.wire_encode(out);
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ContiguousBlock {
            data: Vec::<u8>::wire_decode(r)?,
        })
    }
}

/// Concatenated, offset-indexed collection of reads on one rank, one
/// code per byte.
#[derive(Debug, Clone)]
pub struct ReadStore {
    n_global: usize,
    /// Global ids of locally held reads.
    ids: Vec<u64>,
    /// `offsets[i]..offsets[i+1]` spans read `i`'s codes in `buf`.
    offsets: Vec<usize>,
    buf: Vec<u8>,
    /// Global id → slot in `ids` / `offsets`.
    index: HashMap<u64, usize, KmerHashKey>,
}

impl ReadStore {
    /// Build from a replicated read set: every rank passes the same slice
    /// and keeps the chunk the vector layout assigns to it.
    pub fn from_replicated(grid: &ProcGrid, reads: &[Seq]) -> Self {
        let layout = Layout2D::new(reads.len(), grid.q());
        let range = layout.chunk_range(grid.myrow(), grid.mycol());
        let mut store = ReadStore::empty(reads.len());
        for g in range {
            store.push(g as u64, reads[g].codes());
        }
        store
    }

    /// An empty store for `n_global` total reads.
    pub fn empty(n_global: usize) -> Self {
        ReadStore {
            n_global,
            ids: Vec::new(),
            offsets: vec![0],
            buf: Vec::new(),
            index: HashMap::default(),
        }
    }

    /// An empty store sized for the reads the received `headers` announce.
    fn sized_for<'a>(n_global: usize, headers: impl Iterator<Item = &'a ReadHeaders>) -> Self {
        let (mut reads, mut bases) = (0, 0);
        for headers in headers {
            reads += headers.headers().len();
            bases += headers
                .headers()
                .iter()
                .map(|&(_, len)| len as usize)
                .sum::<usize>();
        }
        let mut store = ReadStore::empty(n_global);
        store.ids.reserve(reads);
        store.offsets.reserve(reads);
        store.buf.reserve(bases);
        store.index.reserve(reads);
        store
    }

    /// Append a read's codes under a global id. Panics if the id is
    /// already stored (a second copy would orphan the first), if it is
    /// [`MAX_READS`] or more (ingest refuses such read sets with
    /// [`TooManyReads::check`]) or if the read is longer than
    /// [`MAX_READ_LEN`] (ingest refuses those with
    /// [`ReadTooLong::check_all`]).
    pub fn push(&mut self, id: u64, codes: &[u8]) {
        assert!(
            id < MAX_READS as u64,
            "read id {id} is not below {MAX_READS} (read ids are 32-bit)"
        );
        if let Err(too_long) = ReadTooLong::check(id, codes.len()) {
            panic!("{too_long}");
        }
        self.buf.extend_from_slice(codes);
        self.seal(id, self.buf.len());
    }

    /// Register `buf[last offset..end]` as read `id`.
    fn seal(&mut self, id: u64, end: usize) {
        let displaced = self.index.insert(id, self.ids.len());
        assert!(displaced.is_none(), "read {id} already stored");
        self.ids.push(id);
        self.offsets.push(end);
    }

    /// Append the reads of one transfer from rank `src`, unpacking each
    /// straight into `buf`. Panics, naming `src` and the read, if `packed`
    /// is shorter or longer than `headers` announce.
    fn ingest(&mut self, src: Rank, headers: &ReadHeaders, packed: &[u8]) {
        let headers = headers.headers();
        let bases: usize = headers.iter().map(|&(_, len)| len as usize).sum();
        let mut end = self.buf.len();
        self.buf.resize(end + bases, 0);
        let mut cursor = 0usize;
        for &(id, len) in headers {
            let len = len as usize;
            let Some(bytes) = packed.get(cursor..cursor + dna::packed_len(len)) else {
                panic!(
                    "rank {src} sent {} packed bytes: read {id} ({len} bases) \
                     at byte {cursor} runs past the end",
                    packed.len()
                );
            };
            dna::unpack(bytes, &mut self.buf[end..end + len]);
            cursor += bytes.len();
            end += len;
            self.seal(u64::from(id), end);
        }
        if cursor != packed.len() {
            let last = headers
                .last()
                .map_or("no read".into(), |(id, _)| format!("read {id}"));
            panic!(
                "rank {src} sent {} packed bytes: {} past the end of {last}",
                packed.len(),
                packed.len() - cursor
            );
        }
    }

    /// Total reads across all ranks.
    #[inline]
    pub fn n_global(&self) -> usize {
        self.n_global
    }

    /// Reads held locally.
    #[inline]
    pub fn n_local(&self) -> usize {
        self.ids.len()
    }

    /// Total bases held locally.
    #[inline]
    pub fn local_bases(&self) -> usize {
        self.buf.len()
    }

    /// Codes of a locally held read, by global id.
    pub fn get(&self, id: u64) -> Option<&[u8]> {
        self.index
            .get(&id)
            .map(|&slot| &self.buf[self.offsets[slot]..self.offsets[slot + 1]])
    }

    /// Iterate locally held reads as `(global_id, codes)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.ids
            .iter()
            .enumerate()
            .map(move |(slot, &id)| (id, &self.buf[self.offsets[slot]..self.offsets[slot + 1]]))
    }

    /// Redistribute reads: `dest` gives each locally held read's target
    /// ranks (none, one — an `Option<Rank>` — or several, e.g. when a
    /// contig boundary needs the read on two ranks; a rank named twice
    /// still receives the read once). Each destination gets one
    /// alltoallv buffer of [`ReadHeaders`], an id gap and a length per
    /// read as varints, and a destination that gets a read one send of
    /// the reads packed four bases per byte; a packed payload longer than
    /// `count_limit` bytes takes the contiguous-datatype path. Collective.
    /// Returns the new store.
    pub fn exchange<I>(
        &self,
        grid: &ProcGrid,
        mut dest: impl FnMut(u64) -> I,
        count_limit: usize,
    ) -> ReadStore
    where
        I: IntoIterator<Item = Rank>,
    {
        let world = grid.world();
        let p = world.size();
        let mut outgoing: Vec<PackedReads> = vec![Default::default(); p];
        // Slot of the read last packed for each destination.
        let mut packed: Vec<Option<usize>> = vec![None; p];
        for (slot, (id, codes)) in self.iter().enumerate() {
            for target in dest(id) {
                if packed[target].replace(slot) == Some(slot) {
                    continue;
                }
                let (headers, payload) = &mut outgoing[target];
                headers.push(header(id, codes));
                dna::pack(codes, payload);
            }
        }
        self.ship(grid, outgoing, count_limit)
    }

    /// Send each rank its reads and ingest what comes back: one
    /// `alltoallv` of [`ReadHeaders`], then one send of its packed reads
    /// to each destination the headers name a read for, wrapped as a
    /// [`ContiguousBlock`] past `count_limit` bytes. A rank that gets no
    /// read gets no payload message: its headers already say so.
    /// Collective. Returns the received store.
    fn ship(&self, grid: &ProcGrid, outgoing: Vec<PackedReads>, count_limit: usize) -> ReadStore {
        let world = grid.world();
        let (headers, payloads): (Vec<_>, Vec<_>) = outgoing.into_iter().unzip();
        let named: Vec<bool> = headers.iter().map(|h| !h.headers().is_empty()).collect();
        let incoming_headers = world.alltoallv(headers);
        // Ship each destination's packed buffer; one message each, using
        // the contiguous-datatype wrapper when over the count limit.
        for (dst, buf) in payloads.into_iter().enumerate() {
            if !named[dst] {
                continue;
            }
            if buf.len() > count_limit {
                world.send(dst, SEQ_TAG, ContiguousBlock { data: buf });
            } else {
                world.send(dst, SEQ_TAG + 1, buf);
            }
        }
        // The headers say how much is coming: size the store once.
        let mut store = ReadStore::sized_for(self.n_global, incoming_headers.iter());
        for (src, headers) in incoming_headers.iter().enumerate() {
            if headers.headers().is_empty() {
                continue;
            }
            let packed_len: usize = headers
                .headers()
                .iter()
                .map(|&(_, len)| dna::packed_len(len as usize))
                .sum();
            let buf: Vec<u8> = if packed_len > count_limit {
                world.recv::<ContiguousBlock>(src, SEQ_TAG).data
            } else {
                world.recv::<Vec<u8>>(src, SEQ_TAG + 1)
            };
            store.ingest(src, headers, &buf);
        }
        store
    }

    /// The initial owner rank of read `id` under the block layout used
    /// before contig redistribution.
    pub fn initial_owner(n_global: usize, q: usize, id: u64) -> Rank {
        Layout2D::new(n_global, q).owner_rank(id as usize)
    }

    /// Fetch the reads the local block of `c` names and this rank does
    /// not hold: the ids of its non-empty rows and of its occupied
    /// columns, listed in one pass over the block. Each owner
    /// ([`ReadStore::initial_owner`]) gets one [`Ascending`] run of the
    /// ids asked of it, in one `alltoallv`, and answers through
    /// [`ReadStore::exchange`]'s path: [`ReadHeaders`] and the reads
    /// packed four bases per byte, contiguous past `count_limit`. The
    /// returned store holds the fetched reads only: a caller looks a read
    /// up in its own store first and here second, and a rank whose block
    /// names no read it lacks receives no read. At p = 1 every read is
    /// local: no message, and an empty store. Collective; requires the
    /// store to still be block-distributed.
    pub fn fetch_named<T: Clone + CommMsg + Sync>(
        &self,
        grid: &ProcGrid,
        c: &DistMat<T>,
        count_limit: usize,
    ) -> ReadStore {
        let world = grid.world();
        if world.size() == 1 {
            return ReadStore::empty(self.n_global);
        }
        let (r0, c0) = c.local_offsets(grid);
        let block = c.local();
        let mut occupied = vec![false; block.ncols()];
        for &j in block.indices() {
            occupied[j as usize] = true;
        }
        let rows = (0..block.nrows())
            .filter(|&i| block.row_nnz(i) > 0)
            .map(|i| r0 + i);
        let cols = (occupied.iter().enumerate())
            .filter(|&(_, &named)| named)
            .map(|(j, _)| c0 + j);
        let mut wanted: Vec<u32> = (rows.chain(cols))
            .map(|g| u32::try_from(g).expect("read ids are below 2^32"))
            .filter(|&id| self.get(u64::from(id)).is_none())
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        let layout = Layout2D::new(self.n_global, grid.q());
        let mut asks = vec![Vec::new(); world.size()];
        for id in wanted {
            asks[layout.owner_rank(id as usize)].push(id);
        }
        let asks = asks
            .into_iter()
            .map(|ids| U32Run::new(Ascending, ids))
            .collect();
        let asked = world.alltoallv(asks);
        self.ship(grid, self.answer(world.rank(), &asked), count_limit)
    }

    /// Each requester's reads, packed for the wire in the order it asked
    /// for them. Panics, naming the requester and the id, on an id this
    /// rank (`me`) does not hold.
    fn answer(&self, me: Rank, asked: &[U32Run<Ascending>]) -> Vec<PackedReads> {
        (asked.iter().enumerate())
            .map(|(src, ids)| {
                let mut reads = PackedReads::default();
                for &id in ids.values() {
                    let Some(codes) = self.get(u64::from(id)) else {
                        panic!("rank {src} asked rank {me} for read {id}, which it does not hold");
                    };
                    reads.0.push(header(u64::from(id), codes));
                    dna::pack(codes, &mut reads.1);
                }
                reads
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elba_comm::{Backend, Runner};

    fn reads(n: usize) -> Vec<Seq> {
        (0..n)
            .map(|i| {
                let len = 10 + (i % 5);
                Seq::from_codes((0..len).map(|j| ((i + j) % 4) as u8).collect())
            })
            .collect()
    }

    #[test]
    fn replicated_construction_partitions() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            let all = reads(23);
            let store = ReadStore::from_replicated(&grid, &all);
            let ok = store
                .iter()
                .all(|(id, codes)| codes == all[id as usize].codes());
            (store.n_local(), ok)
        });
        let total: usize = out.iter().map(|&(n, _)| n).sum();
        assert_eq!(total, 23);
        assert!(out.iter().all(|&(_, ok)| ok));
    }

    #[test]
    fn exchange_moves_reads_to_targets() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            let all = reads(10);
            let store = ReadStore::from_replicated(&grid, &all);
            // send every read to rank (id % 4)
            let moved = store.exchange(&grid, |id| vec![(id % 4) as usize], MPI_COUNT_LIMIT);
            let all = reads(10);
            let ok = moved.iter().all(|(id, codes)| {
                id % 4 == grid.world().rank() as u64 && codes == all[id as usize].codes()
            });
            (moved.n_local(), ok)
        });
        assert!(out.iter().all(|&(_, ok)| ok));
        let total: usize = out.iter().map(|&(n, _)| n).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn exchange_can_replicate_reads() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            let all = reads(4);
            let store = ReadStore::from_replicated(&grid, &all);
            // replicate read 0 everywhere, others stay at initial owner
            let moved = store.exchange(
                &grid,
                |id| {
                    if id == 0 {
                        (0..4).collect()
                    } else {
                        vec![ReadStore::initial_owner(4, grid.q(), id)]
                    }
                },
                MPI_COUNT_LIMIT,
            );
            moved.get(0).is_some()
        });
        assert!(out.iter().all(|&ok| ok));
    }

    #[test]
    fn a_rank_named_twice_receives_the_read_once() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            let all = reads(10);
            let store = ReadStore::from_replicated(&grid, &all);
            // Every read to rank 0 twice, and read 3 to rank 2 around it.
            let moved = store.exchange(
                &grid,
                |id| {
                    if id == 3 {
                        vec![0, 2, 0, 2]
                    } else {
                        vec![0, 0]
                    }
                },
                MPI_COUNT_LIMIT,
            );
            let intact = moved.iter().all(|(id, codes)| {
                moved.get(id) == Some(codes) && codes == all[id as usize].codes()
            });
            (moved.n_local(), moved.local_bases(), intact)
        });
        let bases = |ids: &[usize]| -> usize { ids.iter().map(|&i| reads(10)[i].len()).sum() };
        assert_eq!(out[0], (10, bases(&(0..10).collect::<Vec<_>>()), true));
        assert_eq!(out[1], (0, 0, true));
        assert_eq!(out[2], (1, bases(&[3]), true));
        assert_eq!(out[3], (0, 0, true));
    }

    #[test]
    #[should_panic(expected = "read 3 already stored")]
    fn pushing_a_stored_id_again_panics() {
        let mut store = ReadStore::empty(5);
        store.push(3, &[0, 1, 2]);
        store.push(3, &[0, 1, 2]);
    }

    #[test]
    fn large_message_contiguous_path() {
        // Force the contiguous-datatype path with an artificially tiny
        // count limit; content must survive unchanged.
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            let all = reads(12);
            let store = ReadStore::from_replicated(&grid, &all);
            let moved = store.exchange(&grid, |id| vec![(id % 4) as usize], 4);
            let all = reads(12);
            let ok = moved
                .iter()
                .all(|(id, codes)| codes == all[id as usize].codes());
            ok
        });
        assert!(out.iter().all(|&ok| ok));
    }

    #[test]
    fn initial_owner_matches_layout() {
        let layout = Layout2D::new(17, 2);
        for id in 0..17u64 {
            assert_eq!(
                ReadStore::initial_owner(17, 2, id),
                layout.owner_rank(id as usize)
            );
        }
    }

    #[test]
    #[should_panic(expected = "rank 3 asked rank 1 for read 7, which it does not hold")]
    fn an_owner_asked_for_a_read_it_lacks_panics() {
        let mut store = ReadStore::empty(10);
        store.push(5, &[0, 1]);
        let asked = |ids: Vec<u32>| U32Run::new(Ascending, ids);
        let asked = [
            asked(vec![5]),
            asked(vec![]),
            asked(vec![]),
            asked(vec![5, 7]),
        ];
        store.answer(1, &asked);
    }

    #[test]
    fn reads_of_2_31_bases_or_more_are_refused() {
        assert_eq!(ReadTooLong::check(0, 0), Ok(()));
        assert_eq!(ReadTooLong::check(0, MAX_READ_LEN), Ok(()));
        let too_long = ReadTooLong::check(7, 1 << 31).expect_err("2^31 bases");
        assert_eq!(
            too_long,
            ReadTooLong {
                id: 7,
                len: 1 << 31
            }
        );
        assert!(too_long
            .to_string()
            .starts_with("read 7 has 2147483648 bases"));
        assert!(ReadTooLong::check(1, usize::MAX).is_err());
        let reads = reads(3);
        assert_eq!(ReadTooLong::check_all(&reads), Ok(()));
    }

    #[test]
    fn read_sets_of_2_32_reads_or_more_are_refused() {
        // The count alone decides: nothing of that size is allocated.
        assert_eq!(TooManyReads::check(0), Ok(()));
        assert_eq!(TooManyReads::check(MAX_READS), Ok(()));
        assert_eq!(MAX_READS, (1 << 32) - 1, "ids 0..MAX_READS are u32");
        let refused = TooManyReads::check(1 << 32).expect_err("2^32 reads");
        assert_eq!(refused, TooManyReads { reads: 1 << 32 });
        assert!(refused.to_string().starts_with("4294967296 reads"));
        assert!(TooManyReads::check(usize::MAX).is_err());
    }

    #[test]
    #[should_panic(expected = "read id 4294967295 is not below 4294967295")]
    fn pushing_an_id_past_u32_panics() {
        ReadStore::empty(0).push(u64::from(u32::MAX), &[0]);
    }

    /// Two reads of 5 and 3 bases from rank 2: 2 + 1 packed bytes.
    fn transfer() -> PackedReads {
        let mut transfer = PackedReads::default();
        dna::pack(&[0, 1, 2, 3, 3], &mut transfer.1);
        dna::pack(&[2, 2, 1], &mut transfer.1);
        transfer.0.push((4, 5));
        transfer.0.push((9, 3));
        transfer
    }

    #[test]
    fn ingest_unpacks_a_transfer() {
        let (headers, packed) = transfer();
        assert_eq!(packed.len(), 3);
        let mut store = ReadStore::empty(10);
        store.push(1, &[3]);
        store.ingest(2, &headers, &packed);
        assert_eq!(store.get(1), Some(&[3u8][..]));
        assert_eq!(store.get(4), Some(&[0u8, 1, 2, 3, 3][..]));
        assert_eq!(store.get(9), Some(&[2u8, 2, 1][..]));
        assert_eq!(store.local_bases(), 9);
    }

    #[test]
    #[should_panic(
        expected = "rank 2 sent 2 packed bytes: read 9 (3 bases) at byte 2 runs past the end"
    )]
    fn ingest_refuses_a_payload_one_byte_short() {
        let (headers, mut packed) = transfer();
        packed.pop();
        ReadStore::empty(10).ingest(2, &headers, &packed);
    }

    #[test]
    #[should_panic(expected = "rank 2 sent 4 packed bytes: 1 past the end of read 9")]
    fn ingest_refuses_a_payload_one_byte_long() {
        let (headers, mut packed) = transfer();
        packed.push(0);
        ReadStore::empty(10).ingest(2, &headers, &packed);
    }

    #[test]
    fn stored_and_missing_reads() {
        let mut store = ReadStore::empty(5);
        store.push(3, &[0, 1, 2]);
        assert_eq!(store.get(3), Some(&[0u8, 1, 2][..]));
        assert!(store.get(0).is_none());
        assert!(store.get(4).is_none());
    }
}
