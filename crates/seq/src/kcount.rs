//! Distributed k-mer counting and construction of the |reads|×|k-mers|
//! matrix **A** (the `KmerCounter` + `GenerateA` steps of Algorithm 1).
//!
//! Canonical k-mers are hashed to an owner rank, counted there, and
//! filtered to the *reliable* band `[reliable_min, reliable_max]`:
//! singletons are almost surely sequencing errors, ultra-frequent k-mers
//! come from repeats and would densify `C = AAᵀ` (diBELLA 2D's reliable
//! k-mer selection). Surviving k-mers get dense global column ids via an
//! exclusive scan over per-owner counts.
//!
//! Both steps run the same round loop over windows of
//! [`KmerConfig::batch_kmers`] occurrences: scan a window, agree with a
//! one-byte `allreduce` whether any rank still has one, and exchange it
//! with [`Comm::alltoallv`] — ELBA's custom all-to-all, which never holds
//! more than one window's traffic per peer.
//!
//! Counting sorts, as HySortK does (Li and Guidi, ICPP 2024): each
//! window ships its partial counts, one `(kmer, count)` record per
//! distinct k-mer, to the k-mers' owners, and an owner appends them to
//! one record buffer that it compacts in place — sorted by k-mer, equal
//! k-mers' counts summed — whenever it has doubled. After the last
//! window the buffer is one sorted run with one record per k-mer, and
//! the reliable band is read off it in k-mer order. No hash table sees
//! an occurrence.
//!
//! A's triples are built on the rank that holds the read. Occurrences
//! never travel: each window of `batch_kmers` occurrences looks up the
//! k-mers its rank owns in place and asks the other owners for the
//! columns of its distinct k-mers (an 8-byte query per k-mer, a varint
//! answer back: 0 for an unreliable k-mer, otherwise one more than the
//! column's offset into the owner's range), so a rank's triples are its
//! own reads' rows. A k-mer
//! repeated within a read keeps its first occurrence when each read's
//! triples are sorted at the end.
//!
//! Both steps see a context-free sample of the k-mers: the occurrence
//! scan keeps a canonical k-mer only when [`kmer_sampled`] says so at
//! [`KmerConfig::sample_rate`] `s`, a verdict on the k-mer's bits alone
//! (as in FracMinHash and open syncmers). Every read and every owner
//! agree on it without talking, so a kept k-mer's global count — and its
//! reliable-band verdict — is exactly what it is with every k-mer kept,
//! and A's columns are the reliable k-mers of the sample. The overlap
//! semiring needs one shared k-mer per candidate, so a true overlap
//! survives as long as one of its shared k-mers is kept;
//! `PipelineConfig::for_dataset` derives the largest `s` that still
//! leaves a `min_overlap`-base overlap an expected 8 shared sampled
//! k-mers. At `s = 1` the scan yields every occurrence.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

use elba_comm::transport::wire::{
    sum_varint_lens, varint_len, varint_len_u32, write_varint, WireError, WireReader,
};
use elba_comm::{Comm, CommMsg, ProcGrid};
use elba_sparse::{Plain, U32Run};

use crate::kmer::{KmerHit, KmerScan};
use crate::store::ReadStore;

/// Parameters for k-mer selection.
#[derive(Debug, Clone)]
pub struct KmerConfig {
    pub k: usize,
    /// Minimum global multiplicity for a reliable k-mer (≥2 drops errors).
    pub reliable_min: u32,
    /// Maximum multiplicity (drops repeat-induced k-mers).
    pub reliable_max: u32,
    /// Exchange window: the k-mer occurrences one round of either
    /// exchange scans before it sends. A memory budget derives it.
    pub batch_kmers: usize,
    /// Intra-rank worker threads for the k-mer scan (per-read canonical
    /// k-mer extraction; `0` or `1` = scan on the rank thread, nothing
    /// buffered). With more, reads are scanned in bounded groups whose
    /// hit lists are computed in parallel but *consumed in read order*,
    /// so occurrence streams — and everything downstream — are identical
    /// across thread counts; workers never enter the comm layer (the
    /// exchange stays on the rank thread).
    pub threads: usize,
    /// Derived, not a knob: the scan keeps about one canonical k-mer in
    /// `sample_rate` ([`kmer_sampled`]), in counting and in A alike. `1`
    /// (the default) keeps every k-mer. `PipelineConfig::for_dataset`
    /// sets it from the read length, `k` and the error rate: at 0.5 %
    /// error and `k = 31` a 100-base overlap keeps about 51 error-free
    /// shared k-mers, so one in 6 is left 8 of them; at 15 % error and
    /// `k = 17` a k-mer is error-free in both reads with probability
    /// 0.85³⁴ ≈ 0.4 %, so noisy data keeps every k-mer.
    pub sample_rate: u32,
}

impl Default for KmerConfig {
    fn default() -> Self {
        KmerConfig {
            k: 31,
            reliable_min: 2,
            reliable_max: u32::MAX,
            batch_kmers: 1 << 16,
            threads: 0,
            sample_rate: 1,
        }
    }
}

/// Owner rank of a packed k-mer (multiplicative hash).
#[inline]
pub fn kmer_owner(kmer: u64, p: usize) -> usize {
    ((kmer.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) % p as u64) as usize
}

/// Whether the k-mer sample at rate `s` keeps `kmer`: bits 32..64 of an
/// unkeyed multiplicative hash, taken mod `s`, are zero. The verdict
/// depends on the k-mer alone, so ranks in separate processes agree
/// without talking; that rules out the tables' `KmerHashKey`, drawn per
/// process. The multiplier is not [`kmer_owner`]'s, so the kept k-mers
/// spread over the owners like any others. `s ≤ 1` keeps every k-mer.
#[inline]
pub fn kmer_sampled(kmer: u64, s: u32) -> bool {
    s <= 1 || ((kmer.wrapping_mul(0xD6E8_FEB8_6659_FD93) >> 32) as u32).is_multiple_of(s)
}

/// Hash state of every table keyed by a packed k-mer: one keyed folded
/// multiply (the 128-bit product of `kmer ^ k0` and `k1`, halves xored)
/// instead of SipHash's rounds. K-mers are outside input — a 31-base
/// read is one freely chosen key — and the keys one rank holds already
/// share [`kmer_owner`]'s residue, so the multiplier is neither
/// `kmer_owner`'s constant nor any constant: both words are drawn once
/// per process from `std`'s `RandomState`, and an input crafted against
/// an unkeyed multiplicative hash (see `prop_kcount.rs`) spreads like any
/// other. Nothing observable depends on the key: every table is probed
/// only. [`crate::ReadStore`] keys its id → slot index the same way.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KmerHashKey {
    k0: u64,
    k1: u64,
}

impl Default for KmerHashKey {
    fn default() -> Self {
        static KEY: OnceLock<KmerHashKey> = OnceLock::new();
        *KEY.get_or_init(|| {
            let seed = std::collections::hash_map::RandomState::new();
            KmerHashKey {
                k0: seed.hash_one(0u64),
                k1: seed.hash_one(1u64) | 1,
            }
        })
    }
}

impl BuildHasher for KmerHashKey {
    type Hasher = KmerHasher;

    fn build_hasher(&self) -> KmerHasher {
        KmerHasher {
            key: *self,
            hash: 0,
        }
    }
}

pub(crate) struct KmerHasher {
    key: KmerHashKey,
    hash: u64,
}

impl Hasher for KmerHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("k-mer tables hash `u64` keys only");
    }

    #[inline]
    fn write_u64(&mut self, kmer: u64) {
        let m = u128::from(kmer ^ self.key.k0) * u128::from(self.key.k1);
        self.hash = (m as u64) ^ ((m >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type KmerMap<V> = HashMap<u64, V, KmerHashKey>;

/// The distributed reliable-k-mer table: each rank holds the k-mers it
/// owns with their dense global column ids, which form one contiguous
/// range per owner.
#[derive(Debug, Clone)]
pub struct KmerTable {
    pub k: usize,
    /// Total reliable k-mers across all ranks (= #columns of A).
    pub n_global: u64,
    /// Global id of this rank's first k-mer.
    offset: u64,
    /// Locally owned k-mer → id − `offset`.
    local: KmerMap<u32>,
}

impl KmerTable {
    /// Locally owned k-mer count.
    pub fn n_local(&self) -> usize {
        self.local.len()
    }

    /// Global id of a locally owned k-mer.
    pub fn id_of(&self, kmer: u64) -> Option<u64> {
        self.local.get(&kmer).map(|&i| self.offset + u64::from(i))
    }

    /// The owner's answer to a column query: one more than the k-mer's
    /// offset into this rank's id range, or 0 if it is not reliable.
    #[inline]
    fn answer(&self, kmer: u64) -> u32 {
        self.local.get(&kmer).map_or(0, |&offset| offset + 1)
    }
}

/// One entry of the A matrix: the position (and strand) of a reliable
/// k-mer occurrence within a read. This is the value BELLA's overlap
/// semiring consumes.
///
/// On the wire it is one LEB128 varint, `pos << 1 | fwd`: one byte below
/// position 64, two below 8 192, and five at most. Reads are at most
/// [`crate::store::MAX_READ_LEN`] bases, so every position is below 2³¹,
/// and a decoded one that is not is [`WireError::Malformed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct AEntry {
    /// Position of the k-mer's first base within the read.
    pub pos: u32,
    /// Whether the canonical k-mer matched the read's forward strand.
    pub fwd: bool,
}

impl AEntry {
    /// The wire varint.
    #[inline]
    fn code(self) -> u32 {
        assert!(self.pos < 1 << 31, "position {} is not 31-bit", self.pos);
        self.pos << 1 | u32::from(self.fwd)
    }
}

impl CommMsg for AEntry {
    #[inline]
    fn nbytes(&self) -> usize {
        varint_len_u32(self.code()) as usize
    }

    /// A block's or a vector's entries, summed in `u32` lanes.
    fn wire_slice_nbytes(items: &[Self]) -> usize {
        assert!(
            items.iter().all(|entry| entry.pos < 1 << 31),
            "positions are 31-bit"
        );
        sum_varint_lens(items, |entry| entry.pos << 1 | u32::from(entry.fwd))
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        write_varint(out, u64::from(self.code()));
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let code = r.read_varint()?;
        if code >> 32 != 0 {
            return Err(WireError::Malformed("a entry position"));
        }
        Ok(AEntry {
            pos: (code >> 1) as u32,
            fwd: code & 1 == 1,
        })
    }
}

elba_mem::impl_deep_bytes_pod!(AEntry);

/// Buffer high-water marks of one k-mer-stage exchange — the hook the
/// memory-bound tests (and the bench) assert against. Every item count
/// is at most `batch_kmers` by construction:
///
/// * counting: `peak_outgoing_items` is the most count records one
///   window sent, `peak_inbound_items` the most one source sent this
///   rank in one window;
/// * A's triples: `peak_outgoing_items` is the most column queries one
///   window sent, `peak_answer_items` the most answers it got back, and
///   `peak_inbound_items` the most queries one source sent this rank in
///   one window.
///
/// The byte fields are the resident buffers behind those peaks; every
/// exchange also feeds what coexists into the rank's memory tracker
/// ([`elba_comm::Comm::record_mem_transient`]), so a profiled run's
/// `mem-hw` column shows the stage's real buffer bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExchangeStats {
    /// Most items one window sent.
    pub peak_outgoing_items: usize,
    /// Most items one window received from one source.
    pub peak_inbound_items: usize,
    /// Most column answers one window of A's triples received (zero for
    /// counting).
    pub peak_answer_items: usize,
    /// Peak sender-side bytes: a window's occurrences and what it sends
    /// (for A's triples the answers, half a query's size, arrive once
    /// the queries have left).
    pub peak_outgoing_bytes: usize,
    /// Peak receive-side bytes: every source's records or queries of
    /// one window (for A's triples the answers replace the queries
    /// source by source).
    pub peak_inbound_bytes: usize,
}

impl ExchangeStats {
    /// Resident-byte bound of this exchange: both sides' peaks summed.
    pub fn peak_bytes(&self) -> usize {
        self.peak_outgoing_bytes + self.peak_inbound_bytes
    }
}

/// Count canonical k-mers across all ranks and keep the reliable band
/// (collective). Global ids are assigned deterministically (sorted within
/// each owner, offset by exclusive scan). See [`count_kmers_with_stats`]
/// for the buffer-accounting variant.
pub fn count_kmers(grid: &ProcGrid, store: &ReadStore, cfg: &KmerConfig) -> KmerTable {
    count_kmers_with_stats(grid, store, cfg).0
}

/// [`count_kmers`] plus the exchange's buffer high-water marks.
///
/// The occurrence stream is cut into windows of `batch_kmers` (at most
/// `u32::MAX`, so a record's count holds its run), in the same order for
/// every thread count. Each window is sorted and sends one `(kmer,
/// count)` record per run of equal k-mers to the k-mer's owner, in one
/// `alltoallv`; each owner sums the partial counts in one sorted buffer,
/// compacted in place as it grows — global `+` is associative and
/// commutative, so window boundaries never show in the counts. A one-byte `allreduce` per window keeps a rank
/// whose reads are done in step with the others, as in
/// [`build_a_triples_with_stats`].
///
/// The tracker is charged what coexists: the sorted window with its
/// outgoing records before the send, the received records after it (the
/// self bucket moves through the exchange, so it is charged once). The
/// owner's count table is not charged.
pub fn count_kmers_with_stats(
    grid: &ProcGrid,
    store: &ReadStore,
    cfg: &KmerConfig,
) -> (KmerTable, ExchangeStats) {
    let world = grid.world();
    let p = world.size();
    // A record counts its run of a window as a `u32`.
    let batch = cfg.batch_kmers.clamp(1, u32::MAX as usize);
    let scan_stats = ScanStats::default();
    let mut kmers = occurrence_scan(store, cfg, &scan_stats).map(|(_, hit)| hit.kmer);
    let mut window: Vec<u64> = Vec::new();
    let mut counts = CountTable::new(batch);
    let mut stats = ExchangeStats::default();
    loop {
        window.clear();
        window.extend(kmers.by_ref().take(batch));
        if !world.allreduce(!window.is_empty(), |a, b| a || b) {
            break;
        }
        let buckets = partial_counts(&mut window, p);
        let sent: usize = buckets.iter().map(|run| run.0.len()).sum();
        stats.peak_outgoing_items = stats.peak_outgoing_items.max(sent);
        stats.peak_outgoing_bytes = stats
            .peak_outgoing_bytes
            .max(window.len() * std::mem::size_of::<u64>() + sent * COUNT_RECORD_BYTES);
        let inbound = world.alltoallv(buckets);
        let received: usize = inbound.iter().map(|run| run.0.len()).sum();
        let largest = inbound.iter().map(|run| run.0.len()).max().unwrap_or(0);
        stats.peak_inbound_items = stats.peak_inbound_items.max(largest);
        stats.peak_inbound_bytes = stats.peak_inbound_bytes.max(received * COUNT_RECORD_BYTES);
        counts.add_window(&inbound);
    }
    book_scan(world, &scan_stats);
    world.record_mem_transient(stats.peak_outgoing_bytes.max(stats.peak_inbound_bytes));
    // Reliable band filter, in k-mer order.
    let band = cfg.reliable_min..=cfg.reliable_max;
    let reliable: Vec<u64> = counts
        .into_sorted()
        .into_iter()
        .filter(|(_, count)| band.contains(count))
        .map(|(kmer, _)| kmer)
        .collect();
    // A column query's answer is the offset + 1, and 0 is "not reliable".
    assert!(
        reliable.len() < u32::MAX as usize,
        "one rank owns under 2^32 - 1 reliable k-mers"
    );
    // Dense ids via exclusive scan of per-owner counts.
    let offset = world.exscan(reliable.len() as u64, 0, |a, b| a + b);
    let n_global = world.allreduce(reliable.len() as u64, |a, b| a + b);
    let local: KmerMap<u32> = reliable
        .into_iter()
        .enumerate()
        .map(|(i, kmer)| (kmer, i as u32))
        .collect();
    (
        KmerTable {
            k: cfg.k,
            n_global,
            offset,
            local,
        },
        stats,
    )
}

/// Generate the triples of the |reads|×|k-mers| matrix A (collective):
/// `(read_id, kmer_column, AEntry)` for every reliable k-mer occurrence.
/// A read contributes one entry per distinct k-mer, its first occurrence,
/// as in BELLA's sparse A construction. Each rank returns the rows of the
/// reads it holds, in the store's read order (ascending ids for a
/// block-distributed store) with each read's run sorted by column —
/// ready for `DistMat::from_triples`.
pub fn build_a_triples(
    grid: &ProcGrid,
    store: &ReadStore,
    table: &KmerTable,
    cfg: &KmerConfig,
) -> Vec<(u64, u64, AEntry)> {
    build_a_triples_with_stats(grid, store, table, cfg).0
}

/// [`build_a_triples`] plus the exchange's buffer high-water marks.
///
/// The occurrence stream is cut into windows of `batch_kmers`, in the
/// same order for every thread count. A k-mer this rank owns is
/// looked up in place; each window sends every other owner its distinct
/// k-mers, in first-seen order, and the owner answers positionally with
/// one varint per query, 0 for an unreliable k-mer and otherwise one more
/// than the column's offset into the owner's id range (the offsets of the
/// ranges are allgathered once). That is one `alltoallv` per leg per window, plus a
/// one-byte `allreduce` that keeps a rank whose reads are done in step
/// with the others. What a window holds — and so every message — is a
/// function of the input alone. Each read's triples are sorted by column
/// and position, and all but the first occurrence of a repeated k-mer
/// dropped, once the last window is in.
pub fn build_a_triples_with_stats(
    grid: &ProcGrid,
    store: &ReadStore,
    table: &KmerTable,
    cfg: &KmerConfig,
) -> (Vec<(u64, u64, AEntry)>, ExchangeStats) {
    let world = grid.world();
    let p = world.size();
    // A window numbers its distinct k-mers with `u32` slots.
    let batch = cfg.batch_kmers.clamp(1, u32::MAX as usize);
    assert_eq!(table.k, cfg.k, "A is scanned with the table's k");
    let scan_stats = ScanStats::default();
    let offsets = world.allgather(table.offset);
    let mut scan = occurrence_scan(store, cfg, &scan_stats);
    let mut window = Window::new(world.rank(), p);
    let mut triples = Vec::new();
    let mut stats = ExchangeStats::default();
    loop {
        let taken = window.fill(scan.by_ref().take(batch), table);
        if !world.allreduce(taken > 0, |a, b| a || b) {
            break;
        }
        stats.peak_outgoing_items = stats.peak_outgoing_items.max(window.owners.len());
        stats.peak_outgoing_bytes = stats.peak_outgoing_bytes.max(window.resident_bytes());
        let inbound = world.alltoallv(window.take_queries());
        let asked: usize = inbound.iter().map(Vec::len).sum();
        let largest = inbound.iter().map(Vec::len).max().unwrap_or(0);
        stats.peak_inbound_items = stats.peak_inbound_items.max(largest);
        stats.peak_inbound_bytes = stats.peak_inbound_bytes.max(asked * QUERY_BYTES);
        let answers: Vec<U32Run> = inbound
            .into_iter()
            .map(|kmers| {
                let answers = kmers.into_iter().map(|kmer| table.answer(kmer));
                U32Run::new(Plain, answers.collect())
            })
            .collect();
        let answers = world.alltoallv(answers);
        let answered = answers.iter().map(|a| a.values().len()).sum();
        stats.peak_answer_items = stats.peak_answer_items.max(answered);
        window.emit(&answers, &offsets, &mut triples);
    }
    book_scan(world, &scan_stats);
    world.record_mem_transient(stats.peak_bytes());
    // Reads come in order, so a read's triples are one run even across
    // windows. Sorted by column then position, a k-mer repeated within a
    // read keeps its first occurrence.
    for run in triples.chunk_by_mut(|a, b| a.0 == b.0) {
        run.sort_unstable_by_key(|&(_, col, e)| (col, e.pos));
    }
    triples.dedup_by_key(|t| (t.0, t.1));
    (triples, stats)
}

/// A column query: the k-mer.
const QUERY_BYTES: usize = std::mem::size_of::<u64>();

/// Tag of an occurrence whose column is still out: `PENDING | slot`.
const PENDING: u64 = 1 << 63;

/// Column of a slot whose k-mer is not reliable.
const UNRELIABLE: u64 = u64::MAX;

/// One window of the occurrence stream on the rank that holds its reads:
/// its reliable occurrences, and the distinct k-mers other ranks own,
/// whose columns are asked for. Buffers are reused from window to window.
struct Window {
    rank: usize,
    /// Distinct remote k-mer → slot, slots numbered in first-seen order.
    slots: KmerMap<u32>,
    /// Owner rank of each slot's k-mer.
    owners: Vec<u32>,
    /// Per owner, its slots' k-mers in slot order: the window's queries.
    queries: Vec<Vec<u64>>,
    /// `(read id, index of its first occurrence)` per read in the window.
    reads: Vec<(u64, usize)>,
    /// `(column or PENDING | slot, entry)` per occurrence that is, or may
    /// be, reliable.
    occurrences: Vec<(u64, AEntry)>,
    /// Column of each slot, filled from the answers.
    cols: Vec<u64>,
}

impl Window {
    fn new(rank: usize, p: usize) -> Self {
        Window {
            rank,
            slots: KmerMap::default(),
            owners: Vec::new(),
            queries: (0..p).map(|_| Vec::new()).collect(),
            reads: Vec::new(),
            occurrences: Vec::new(),
            cols: Vec::new(),
        }
    }

    /// Start a new window on `scan`; returns how many it took.
    fn fill(&mut self, scan: impl Iterator<Item = (u64, KmerHit)>, table: &KmerTable) -> usize {
        self.slots.clear();
        self.owners.clear();
        self.reads.clear();
        self.occurrences.clear();
        let p = self.queries.len();
        let mut taken = 0;
        for (read, hit) in scan {
            taken += 1;
            let owner = kmer_owner(hit.kmer, p);
            let col = if owner == self.rank {
                match table.id_of(hit.kmer) {
                    Some(col) => col,
                    None => continue,
                }
            } else {
                let next = self.owners.len() as u32;
                let slot = *self.slots.entry(hit.kmer).or_insert(next);
                if slot == next {
                    self.owners.push(owner as u32);
                    self.queries[owner].push(hit.kmer);
                }
                PENDING | u64::from(slot)
            };
            if self.reads.last().is_none_or(|&(id, _)| id != read) {
                self.reads.push((read, self.occurrences.len()));
            }
            let entry = AEntry {
                pos: hit.pos,
                fwd: hit.fwd,
            };
            self.occurrences.push((col, entry));
        }
        taken
    }

    /// Hand the queries to the exchange, one buffer per owner.
    fn take_queries(&mut self) -> Vec<Vec<u64>> {
        let p = self.queries.len();
        std::mem::replace(&mut self.queries, (0..p).map(|_| Vec::new()).collect())
    }

    /// Bytes this window holds while its queries are out: its
    /// occurrences and the queries.
    fn resident_bytes(&self) -> usize {
        self.occurrences.len() * std::mem::size_of::<(u64, AEntry)>()
            + self.reads.len() * std::mem::size_of::<(u64, usize)>()
            + self.owners.len() * QUERY_BYTES
    }

    /// Resolve the answers (`answers[owner]` is positional in that
    /// owner's queries) and append the window's triples.
    fn emit(&mut self, answers: &[U32Run], offsets: &[u64], triples: &mut Vec<(u64, u64, AEntry)>) {
        let mut next = vec![0usize; answers.len()];
        self.cols.clear();
        self.cols.extend(self.owners.iter().map(|&owner| {
            let owner = owner as usize;
            let answer = answers[owner].values()[next[owner]];
            next[owner] += 1;
            match answer {
                0 => UNRELIABLE,
                shifted => offsets[owner] + u64::from(shifted - 1),
            }
        }));
        assert!(
            next.iter()
                .zip(answers)
                .all(|(&n, a)| n == a.values().len()),
            "one answer per query"
        );
        let ends = self.reads.iter().skip(1).map(|&(_, start)| start);
        let ends = ends.chain(std::iter::once(self.occurrences.len()));
        for (&(read, start), end) in self.reads.iter().zip(ends) {
            triples.extend(
                self.occurrences[start..end]
                    .iter()
                    .filter_map(|&(key, entry)| {
                        let col = match key & PENDING {
                            0 => key,
                            _ => self.cols[(key & !PENDING) as usize],
                        };
                        (col != UNRELIABLE).then_some((read, col, entry))
                    }),
            );
        }
    }
}

/// An owner's k-mer counts: one buffer of `(kmer, count)` records that
/// each window's inbound runs are appended to. Once it has doubled since
/// the last compaction (and holds at least `floor` records) it is
/// compacted in place: a stable sort by k-mer, which merges the ascending
/// runs already in the buffer, then one pass that sums the counts of
/// equal k-mers, saturating at `u32::MAX`. So it holds at most `2 ·
/// max(distinct, floor)` records between windows, where a hash table of
/// the same k-mers held about 2.3 × distinct, and a compaction's work is
/// paid for by the records appended since the last one.
struct CountTable {
    records: Vec<(u64, u32)>,
    /// Length after the last compaction.
    compacted: usize,
    floor: usize,
}

impl CountTable {
    fn new(floor: usize) -> Self {
        CountTable {
            records: Vec::new(),
            compacted: 0,
            floor,
        }
    }

    /// Append one window's inbound runs, and compact if the buffer has
    /// doubled.
    fn add_window(&mut self, inbound: &[CountRun]) {
        for run in inbound {
            self.records.extend_from_slice(&run.0);
        }
        if self.records.len() >= self.floor.max(2 * self.compacted) {
            self.compact();
        }
    }

    fn compact(&mut self) {
        self.records.sort_by_key(|&(kmer, _)| kmer);
        self.records.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 = kept.1.saturating_add(next.1);
            }
            same
        });
        self.compacted = self.records.len();
    }

    /// The counts, one record per k-mer, ascending by k-mer.
    fn into_sorted(mut self) -> Vec<(u64, u32)> {
        self.compact();
        self.records
    }
}

/// A `(kmer, partial count)` record's resident size.
const COUNT_RECORD_BYTES: usize = std::mem::size_of::<(u64, u32)>();

/// Bound on a count run's k-mers: a packed k-mer of `k ≤ 31` bases.
const MAX_RUN_KMER: u64 = 1 << 62;

/// One owner's bucket of a counting window: `(kmer, partial count)`
/// records, strictly ascending by k-mer, every count at least 1.
///
/// In memory it is the records; on the wire it is the run at its
/// information size. After a varint record count, each record is
/// `varint(gap << 1 | (count > 1))`, plus `varint(count − 2)` when the
/// count is above 1, where the gap is `kmer − prev − 1` (the first
/// record's gap is its k-mer). A packed k-mer has at most 62 bits, so a
/// record costs at most 9 B + the count's varint: a singleton of a dense
/// run is one byte where the fixed `(u64, u32)` layout took 12.
/// [`CommMsg::nbytes`] is the coded length, computed in one pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountRun(Vec<(u64, u32)>);

impl CountRun {
    /// Wrap a run. Panics unless the k-mers ascend strictly, fit the 62
    /// bits of a packed k-mer, and every count is at least 1 — what the
    /// codec writes.
    pub fn new(records: Vec<(u64, u32)>) -> Self {
        assert!(
            records.windows(2).all(|w| w[0].0 < w[1].0),
            "a count run ascends strictly by k-mer"
        );
        assert!(
            records
                .iter()
                .all(|&(kmer, count)| kmer < MAX_RUN_KMER && count > 0),
            "a count record holds a k-mer below 2^62 and a count of at least 1"
        );
        CountRun(records)
    }

    /// The records, in k-mer order.
    pub fn records(&self) -> &[(u64, u32)] {
        &self.0
    }

    /// The run's first varint of each record and its count varint, if
    /// any, in run order.
    fn codes(&self) -> impl Iterator<Item = (u64, Option<u64>)> + '_ {
        let mut next = 0u64;
        self.0.iter().map(move |&(kmer, count)| {
            let gap = kmer - next;
            next = kmer + 1;
            let head = gap << 1 | u64::from(count > 1);
            (head, (count > 1).then(|| u64::from(count - 2)))
        })
    }
}

impl CommMsg for CountRun {
    fn nbytes(&self) -> usize {
        varint_len(self.0.len() as u64)
            + self
                .codes()
                .map(|(head, count)| varint_len(head) + count.map_or(0, varint_len))
                .sum::<usize>()
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.0.len() as u64);
        for (head, count) in self.codes() {
            write_varint(out, head);
            if let Some(count) = count {
                write_varint(out, count);
            }
        }
    }

    /// The inverse of `wire_encode`. A k-mer of more than 62 bits or a count
    /// past `u32::MAX` is [`WireError::Malformed`]; the records are
    /// reserved only as far as the remaining bytes (one per record) go.
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.read_varint()?;
        let mut records = Vec::with_capacity((n as usize).min(r.remaining()));
        let mut next = 0u64;
        for _ in 0..n {
            let head = r.read_varint()?;
            let kmer = next
                .checked_add(head >> 1)
                .filter(|&kmer| kmer < MAX_RUN_KMER)
                .ok_or(WireError::Malformed("count run k-mer"))?;
            let count = match head & 1 {
                0 => 1,
                _ => r
                    .read_varint()?
                    .checked_add(2)
                    .and_then(|c| u32::try_from(c).ok())
                    .ok_or(WireError::Malformed("count run count"))?,
            };
            records.push((kmer, count));
            next = kmer + 1;
        }
        Ok(CountRun(records))
    }
}

/// One counting window's records: sort the window's occurrences and emit
/// one `(kmer, partial_count)` per run of equal k-mers into its owner's
/// bucket, in k-mer order. Wire traffic shrinks by the within-window
/// multiplicity, and every bucket is a function of the input alone, so
/// profiled wire bytes are deterministic.
fn partial_counts(window: &mut [u64], p: usize) -> Vec<CountRun> {
    window.sort_unstable();
    let mut buckets: Vec<CountRun> = (0..p).map(|_| CountRun::default()).collect();
    for run in window.chunk_by(|a, b| a == b) {
        buckets[kmer_owner(run[0], p)]
            .0
            .push((run[0], run.len() as u32));
    }
    buckets
}

/// Side-band accounting for one [`occurrence_scan`]: the peak hit count
/// a threaded scan's read group buffered. Interior-mutable because the
/// scan is consumed as an iterator; the owning exchange function books
/// it to the profile afterwards ([`book_scan`]).
#[derive(Debug, Default)]
struct ScanStats {
    peak_items: std::cell::Cell<usize>,
}

/// Book a finished scan's accounting: the fanned-out refills' wall time
/// to the profile's par bucket, the group hit buffer as a transient
/// spike. An in-place scan buffers nothing and books nothing.
fn book_scan(world: &Comm, stats: &ScanStats) {
    world.record_par_time(elba_par::take_par_secs());
    world.record_mem_transient(stats.peak_items.get() * std::mem::size_of::<(u64, KmerHit)>());
}

/// Flat scan of the sampled canonical k-mer occurrences in the local
/// store, in read order: `(read_id, hit)`, rolled straight off the
/// store's packed codes and kept by [`kmer_sampled`] at
/// `cfg.sample_rate` — the one place the sample is taken. With one
/// thread the rank thread scans the current read in place; with more,
/// the per-read scans fan out over `cfg.threads` intra-rank workers in
/// bounded read groups whose hits are buffered and yielded in read order
/// — the occurrence stream is identical for every thread count.
fn occurrence_scan<'s>(
    store: &'s ReadStore,
    cfg: &KmerConfig,
    stats: &'s ScanStats,
) -> OccurrenceScan<'s> {
    OccurrenceScan {
        reads: store.iter().collect(),
        next: 0,
        k: cfg.k,
        sample_rate: cfg.sample_rate,
        threads: cfg.threads.max(1),
        read_id: 0,
        current: SampledScan::new(&[], cfg.k, cfg.sample_rate),
        buffered: Vec::new().into_iter().flatten(),
        stats,
    }
}

/// One read's canonical k-mer hits that the sample keeps.
struct SampledScan<'s> {
    scan: KmerScan<'s>,
    sample_rate: u32,
}

impl<'s> SampledScan<'s> {
    fn new(codes: &'s [u8], k: usize, sample_rate: u32) -> Self {
        SampledScan {
            scan: KmerScan::new(codes, k),
            sample_rate,
        }
    }
}

impl Iterator for SampledScan<'_> {
    type Item = KmerHit;

    #[inline]
    fn next(&mut self) -> Option<KmerHit> {
        let s = self.sample_rate;
        self.scan.find(|hit| kmer_sampled(hit.kmer, s))
    }
}

/// Iterator behind [`occurrence_scan`].
struct OccurrenceScan<'s> {
    reads: Vec<(u64, &'s [u8])>,
    next: usize,
    k: usize,
    sample_rate: u32,
    threads: usize,
    /// Serial scan: the read being rolled over, and its id.
    read_id: u64,
    current: SampledScan<'s>,
    /// Threaded scan: the group's hits, one `Vec` per read.
    buffered: std::iter::Flatten<std::vec::IntoIter<Vec<(u64, KmerHit)>>>,
    stats: &'s ScanStats,
}

impl OccurrenceScan<'_> {
    /// Bases each worker should receive per refill: enough scan work to
    /// amortize the scoped spawn/join (~tens of µs total), so short-read
    /// stores don't pay one spawn cycle per handful of reads. The
    /// buffered hits per refill are ≈ `threads × GROUP_BASES_PER_WORKER`
    /// records — reported to the tracker via the scan stats.
    const GROUP_BASES_PER_WORKER: usize = 8 << 10;

    /// End index of the next threaded read group: at least two reads per
    /// worker and enough total bases to amortize the spawn.
    fn group_end(&self) -> usize {
        let min_reads = self.threads * 2;
        let target_bases = self.threads * Self::GROUP_BASES_PER_WORKER;
        let mut bases = 0usize;
        let mut end = self.next;
        while end < self.reads.len() && (end - self.next < min_reads || bases < target_bases) {
            bases += self.reads[end].1.len();
            end += 1;
        }
        end
    }

    fn refill(&mut self) -> bool {
        if self.next >= self.reads.len() {
            return false;
        }
        if self.threads <= 1 {
            let (read_id, codes) = self.reads[self.next];
            self.next += 1;
            self.read_id = read_id;
            self.current = SampledScan::new(codes, self.k, self.sample_rate);
            return true;
        }
        let group_end = self.group_end();
        let group = &self.reads[self.next..group_end];
        self.next = group_end;
        let (k, sample_rate) = (self.k, self.sample_rate);
        let per_read: Vec<Vec<(u64, KmerHit)>> =
            elba_par::run_indexed(group.len(), self.threads, |gi| {
                let (read_id, codes) = group[gi];
                SampledScan::new(codes, k, sample_rate)
                    .map(|hit| (read_id, hit))
                    .collect()
            });
        let items = per_read.iter().map(Vec::len).sum();
        self.stats
            .peak_items
            .set(self.stats.peak_items.get().max(items));
        self.buffered = per_read.into_iter().flatten();
        true
    }
}

impl Iterator for OccurrenceScan<'_> {
    type Item = (u64, KmerHit);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(hit) = self.current.next() {
                return Some((self.read_id, hit));
            }
            if let Some(item) = self.buffered.next() {
                return Some(item);
            }
            if !self.refill() {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dna::Seq;
    use crate::kmer::canonical_kmers;
    use elba_comm::{Backend, Runner};

    include!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/common/kmer_oracle.rs"
    ));

    fn seqs(reads: &[&str]) -> Vec<Seq> {
        reads.iter().map(|s| s.parse().expect("dna")).collect()
    }

    fn store_from(grid: &ProcGrid, reads: &[&str]) -> ReadStore {
        ReadStore::from_replicated(grid, &seqs(reads))
    }

    fn cfg_with(k: usize, reliable_min: u32) -> KmerConfig {
        KmerConfig {
            k,
            reliable_min,
            reliable_max: u32::MAX,
            batch_kmers: 7, // deliberately tiny: force many flushes
            threads: 1,
            sample_rate: 1,
        }
    }

    #[test]
    fn counts_match_serial_reference() {
        for p in [1usize, 4, 9] {
            let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                let grid = ProcGrid::new(comm);
                let reads = ["ACGTACGTACGT", "CGTACGTACG", "TTTTTTTTTT"];
                let store = store_from(&grid, &reads);
                let cfg = cfg_with(5, 1);
                let table = count_kmers(&grid, &store, &cfg);
                grid.world().allreduce(table.n_local() as u64, |a, b| a + b)
            });
            // serial reference
            let mut set = std::collections::HashSet::new();
            for r in ["ACGTACGTACGT", "CGTACGTACG", "TTTTTTTTTT"] {
                let s: Seq = r.parse().expect("dna");
                for h in canonical_kmers(&s, 5) {
                    set.insert(h.kmer);
                }
            }
            assert!(out.iter().all(|&n| n == set.len() as u64), "p={p}");
        }
    }

    #[test]
    fn reliable_band_filters_singletons() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(move |comm| {
            let grid = ProcGrid::new(comm);
            // reads 0/1 are identical (all their k-mers have multiplicity
            // >= 2); read 2 contributes only singletons, which the
            // reliable_min = 2 band must drop.
            let reads = ["ACGTACGTAC", "ACGTACGTAC", "GGGTTCAAGC"];
            let store = store_from(&grid, &reads);
            let cfg = cfg_with(5, 2);
            let table = count_kmers(&grid, &store, &cfg);
            let n = grid.world().allreduce(table.n_local() as u64, |a, b| a + b);
            assert_eq!(table.n_global, n);
            n
        });
        // serial reference: distinct canonical 5-mers of the repeated read
        // (each occurs >= 2 times globally), minus any that also appear in
        // the singleton read (none do, but compute it faithfully).
        let s: Seq = "ACGTACGTAC".parse().expect("dna");
        let repeated: std::collections::HashSet<u64> =
            canonical_kmers(&s, 5).into_iter().map(|h| h.kmer).collect();
        assert!(out.iter().all(|&n| n == repeated.len() as u64), "{out:?}");
    }

    #[test]
    fn ids_are_dense_and_unique() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(move |comm| {
            let grid = ProcGrid::new(comm);
            let reads = ["ACGTACGTACGTGGCCA", "GGCCATTACGAACGT"];
            let store = store_from(&grid, &reads);
            let cfg = cfg_with(4, 1);
            let table = count_kmers(&grid, &store, &cfg);
            let ids: Vec<u64> = table
                .local
                .keys()
                .map(|&kmer| table.id_of(kmer).expect("owned"))
                .collect();
            (table.n_global, grid.world().allgather(ids))
        });
        let (n_global, all_ids) = &out[0];
        let mut flat: Vec<u64> = all_ids.iter().flatten().copied().collect();
        flat.sort_unstable();
        assert_eq!(flat.len() as u64, *n_global);
        assert_eq!(flat, (0..*n_global).collect::<Vec<_>>());
    }

    #[test]
    fn a_triples_cover_occurrences() {
        let reads = ["ACGTACGTAC", "ACGTACGTAC"];
        let oracle = serial_kmer_stage(&seqs(&reads), &cfg_with(5, 2), 4);
        let out = Runner::new(Backend::InProcess).ranks(4).run(move |comm| {
            let grid = ProcGrid::new(comm);
            let store = store_from(&grid, &reads);
            let cfg = cfg_with(5, 2);
            let table = count_kmers(&grid, &store, &cfg);
            let triples = build_a_triples(&grid, &store, &table, &cfg);
            assert_matches_oracle(grid.world().rank(), &table, &triples, &oracle);
            let all: Vec<(u64, u64, u32)> = grid
                .world()
                .allgather(
                    triples
                        .iter()
                        .map(|&(r, c, e)| (r, c, e.pos))
                        .collect::<Vec<_>>(),
                )
                .into_iter()
                .flatten()
                .collect();
            all
        });
        let all = &out[0];
        // one entry per (read, distinct canonical 5-mer)
        let s: Seq = "ACGTACGTAC".parse().expect("dna");
        let distinct: std::collections::HashSet<u64> =
            canonical_kmers(&s, 5).into_iter().map(|h| h.kmer).collect();
        assert_eq!(all.len(), 2 * distinct.len());
        // identical reads produce identical (column, position) sets
        let mut read0: Vec<(u64, u32)> = all
            .iter()
            .filter(|t| t.0 == 0)
            .map(|t| (t.1, t.2))
            .collect();
        let mut read1: Vec<(u64, u32)> = all
            .iter()
            .filter(|t| t.0 == 1)
            .map(|t| (t.1, t.2))
            .collect();
        read0.sort_unstable();
        read1.sort_unstable();
        assert_eq!(read0, read1);
    }

    #[test]
    fn strand_flag_consistent_for_rc_read_pair() {
        let out = Runner::new(Backend::InProcess).ranks(1).run(|comm| {
            let grid = ProcGrid::new(comm);
            // chosen so no 5-mer window is the reverse complement (or a
            // duplicate) of another window: every canonical k-mer occurs
            // exactly once per read, with opposite strand flags.
            let fwd: Seq = "AAAACCCCAGT".parse().expect("dna");
            let rc = fwd.reverse_complement();
            let store = ReadStore::from_replicated(&grid, &[fwd, rc]);
            let cfg = cfg_with(5, 2);
            let table = count_kmers(&grid, &store, &cfg);
            let triples = build_a_triples(&grid, &store, &table, &cfg);
            // every shared k-mer appears in both reads with opposite strand
            let mut by_col: HashMap<u64, Vec<(u64, bool)>> = HashMap::new();
            for (r, c, e) in triples {
                by_col.entry(c).or_default().push((r, e.fwd));
            }
            by_col.values().all(|v| {
                v.len() == 2 && {
                    let f0 = v.iter().find(|x| x.0 == 0).expect("read0").1;
                    let f1 = v.iter().find(|x| x.0 == 1).expect("read1").1;
                    f0 != f1
                }
            })
        });
        assert!(out[0]);
    }

    /// A xorshift stream, for random test inputs.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Feed `occurrences` to a [`CountTable`] the way an owner receives
    /// them: in windows of `batch`, each window's records split over two
    /// sources. After every window, `check` sees the table, the window and
    /// how many records it brought.
    fn count_by_windows(
        occurrences: &[u64],
        batch: usize,
        mut check: impl FnMut(&CountTable, &[u64], usize),
    ) -> Vec<(u64, u32)> {
        let mut table = CountTable::new(batch);
        for window in occurrences.chunks(batch) {
            let (a, b) = window.split_at(window.len() / 2);
            let inbound: Vec<CountRun> = [a, b]
                .into_iter()
                .flat_map(|part| partial_counts(&mut part.to_vec(), 1))
                .collect();
            table.add_window(&inbound);
            check(&table, window, inbound.iter().map(|run| run.0.len()).sum());
        }
        table.into_sorted()
    }

    #[test]
    fn count_table_equals_a_hash_map_fold() {
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        // Repeats from a small range, and singletons from the whole
        // 62-bit range.
        let occurrences: Vec<u64> = (0..200_000)
            .map(|_| match next() % 3 {
                0 => next() >> 2,
                _ => next() % 5_000,
            })
            .collect();
        let mut oracle: HashMap<u64, u32> = HashMap::new();
        for &kmer in &occurrences {
            *oracle.entry(kmer).or_insert(0) += 1;
        }
        let mut oracle: Vec<(u64, u32)> = oracle.into_iter().collect();
        oracle.sort_unstable();
        for batch in [1usize, 3, 1 << 16] {
            let counts = count_by_windows(&occurrences, batch, |_, _, _| {});
            assert_eq!(counts, oracle, "batch {batch}");
        }
    }

    /// After every window the table holds at most `2 · max(distinct,
    /// batch)` records, `distinct` counted over the windows so far (so
    /// while a window is appended, at most that plus its records).
    fn assert_table_bounded(occurrences: &[u64], batch: usize) {
        let mut seen = std::collections::HashSet::new();
        let counts = count_by_windows(occurrences, batch, |table, window, received| {
            seen.extend(window.iter().copied());
            let bound = 2 * seen.len().max(batch);
            let held = table.records.len();
            assert!(
                held <= bound,
                "{held} records held after a window of {received}, bound {bound}"
            );
        });
        assert_eq!(counts.len(), seen.len());
    }

    #[test]
    fn count_table_stays_within_twice_its_distinct_kmers() {
        // Few distinct k-mers, each seen thousands of times, one
        // occurrence per window: the table may not grow with the
        // occurrences.
        let mut next = xorshift(0x2545_F491_4F6C_DD1D);
        let repeats: Vec<u64> = (0..40_000).map(|_| next() % 8).collect();
        assert_table_bounded(&repeats, 1);
        // Every k-mer once: the table holds them all, and no more than
        // twice over.
        let singletons: Vec<u64> = (0..100_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9) >> 3)
            .collect();
        for batch in [1usize, 64, 1 << 12] {
            assert_table_bounded(&singletons, batch);
        }
    }

    #[test]
    fn count_table_saturates_at_u32_max() {
        let run = |count| CountRun::new(vec![(5, count)]);
        // Across windows and within one.
        let mut table = CountTable::new(1);
        table.add_window(&[run(u32::MAX)]);
        table.add_window(&[run(7)]);
        assert_eq!(table.into_sorted(), [(5, u32::MAX)]);
        let mut table = CountTable::new(1);
        table.add_window(&[run(u32::MAX), run(7)]);
        assert_eq!(table.into_sorted(), [(5, u32::MAX)]);
    }

    #[test]
    fn owner_hash_spreads() {
        let p = 8;
        let mut buckets = vec![0usize; p];
        for kmer in 0..4000u64 {
            buckets[kmer_owner(kmer * 2654435761, p)] += 1;
        }
        assert!(buckets.iter().all(|&b| b > 4000 / p / 4), "{buckets:?}");
    }

    #[test]
    fn sample_keeps_about_one_in_s_on_every_owner() {
        let kmers = (0..60_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 2);
        let kmers: Vec<u64> = kmers.collect();
        assert!(kmers
            .iter()
            .all(|&kmer| kmer_sampled(kmer, 0) && kmer_sampled(kmer, 1)));
        for s in [2u32, 6, 8, 16] {
            let mut kept = [0usize; 4];
            for &kmer in kmers.iter().filter(|&&kmer| kmer_sampled(kmer, s)) {
                kept[kmer_owner(kmer, 4)] += 1;
            }
            let want = kmers.len() / s as usize / 4;
            assert!(
                kept.iter().all(|&n| n.abs_diff(want) < want / 10),
                "s={s}: kept per owner {kept:?}, want about {want}"
            );
        }
    }

    #[test]
    fn streaming_buffering_is_bounded_by_batch() {
        // The acceptance bound: peak resident exchange buffering on both
        // sides never exceeds batch_kmers, however large the dataset —
        // for A's triples, on each leg of the column lookup.
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            // 4 distinct-ish reads so every rank holds one.
            let reads = [
                "ACGTACGTACGTGGCCATTACGAACGTAGGT",
                "TTGCACGTACGTGGCCATTACGAACGTAGCA",
                "ACGTACGTACGTGGCCATTACGAACGTAGGT",
                "CATGGTTGCAACCGGTTACGATCCGATCAAT",
            ];
            let store = store_from(&grid, &reads);
            let batch = 5usize;
            let cfg = KmerConfig {
                batch_kmers: batch,
                ..cfg_with(5, 1)
            };
            let (table, count_stats) = count_kmers_with_stats(&grid, &store, &cfg);
            let (_, triple_stats) = build_a_triples_with_stats(&grid, &store, &table, &cfg);
            (batch, count_stats, triple_stats)
        });
        for (batch, count_stats, triple_stats) in out {
            assert!(
                count_stats.peak_outgoing_items <= batch,
                "count outgoing {} > batch {batch}",
                count_stats.peak_outgoing_items
            );
            assert!(
                count_stats.peak_inbound_items <= batch,
                "count inbound {} > batch {batch}",
                count_stats.peak_inbound_items
            );
            assert!(
                (1..=batch).contains(&triple_stats.peak_outgoing_items),
                "queries out {} not in 1..={batch}",
                triple_stats.peak_outgoing_items
            );
            assert!(
                (1..=batch).contains(&triple_stats.peak_answer_items),
                "answers in {} not in 1..={batch}",
                triple_stats.peak_answer_items
            );
            assert!(
                triple_stats.peak_inbound_items <= batch,
                "inbound queries from one source {} > batch {batch}",
                triple_stats.peak_inbound_items
            );
        }
    }

    #[test]
    fn counting_charges_the_sorted_window() {
        // Poly-A reads: every occurrence is the same k-mer, so a window
        // of `batch` occurrences sends one record, but the window itself
        // is `batch` sorted `u64`s while it is cut — and the tracker must
        // see them.
        let batch = 1000usize;
        let (_, profile) = Runner::new(Backend::InProcess)
            .ranks(1)
            .run_profiled(move |comm| {
                let grid = ProcGrid::new(comm);
                let poly_a = "A".repeat(600);
                let store = store_from(&grid, &[poly_a.as_str(), poly_a.as_str()]);
                let cfg = KmerConfig {
                    batch_kmers: batch,
                    ..cfg_with(5, 2)
                };
                let _g = grid.world().phase("CountKmer");
                count_kmers(&grid, &store, &cfg).n_local()
            });
        let hw = profile.max_mem_hw("CountKmer");
        assert!(
            hw >= (batch * 8) as u64,
            "CountKmer mem-hw {hw} < {batch} × 8 B"
        );
    }

    #[test]
    fn threaded_scan_matches_serial() {
        // The grouped parallel k-mer scan must yield the exact
        // occurrence stream of the serial scan: the oracle's table and
        // (canonically ordered) A triples at every thread count.
        let reads = [
            "ACGTACGTACGTGGCCATTACGAACGTAGGT",
            "TTGCACGTACGTGGCCATTACGAACGTAGCA",
            "ACGTACGTACGTGGCCATTACGAACGTAGGT",
            "CATGGTTGCAACCGGTTACGATCCGATCAAT",
            "GGCCATTACGAACGTACGTACGT",
        ];
        let oracle = serial_kmer_stage(&seqs(&reads), &cfg_with(5, 2), 4);
        Runner::new(Backend::InProcess).ranks(4).run(move |comm| {
            let grid = ProcGrid::new(comm);
            let store = store_from(&grid, &reads);
            for threads in [1usize, 4, 7] {
                let cfg = KmerConfig {
                    threads,
                    ..cfg_with(5, 2)
                };
                let table = count_kmers(&grid, &store, &cfg);
                let triples = build_a_triples(&grid, &store, &table, &cfg);
                assert_matches_oracle(grid.world().rank(), &table, &triples, &oracle);
            }
        });
    }

    #[test]
    fn threaded_occurrence_stream_is_the_serial_one() {
        // Element for element, not just the same table: window boundaries
        // (hence wire bytes) are cut by position in this stream. ~300 k
        // bases, so 7 workers refill several groups and 2 workers dozens;
        // reads shorter than k and empty reads sit between the others.
        let mut next = xorshift(0x2545_F491_4F6C_DD1D);
        let mut store = ReadStore::empty(200);
        for id in 0..200u64 {
            let len = match id % 10 {
                0 => 0,
                1 => 12,
                _ => 100 + (next() % 3000) as usize,
            };
            let codes: Vec<u8> = (0..len).map(|_| (next() % 4) as u8).collect();
            store.push(id, &codes);
        }
        // At rate 1 the stream is every k-mer; above it, the sampled
        // subset of that same stream, whatever the thread count.
        for sample_rate in [1u32, 6] {
            let scan = |threads: usize| -> Vec<(u64, KmerHit)> {
                let cfg = KmerConfig {
                    k: 17,
                    threads,
                    sample_rate,
                    ..KmerConfig::default()
                };
                let stats = ScanStats::default();
                let hits: Vec<_> = occurrence_scan(&store, &cfg, &stats).collect();
                assert_eq!(stats.peak_items.get() > 0, threads > 1);
                hits
            };
            let serial = scan(1);
            let by_definition: Vec<(u64, KmerHit)> = store
                .iter()
                .flat_map(|(id, codes)| KmerScan::new(codes, 17).map(move |hit| (id, hit)))
                .filter(|(_, hit)| kmer_sampled(hit.kmer, sample_rate))
                .collect();
            assert_eq!(serial, by_definition, "s={sample_rate}");
            if sample_rate > 1 {
                let all = store
                    .iter()
                    .map(|(_, codes)| codes.len().saturating_sub(16))
                    .sum::<usize>();
                assert!(
                    serial.len() < all / 3,
                    "s={sample_rate} keeps {} of {all} occurrences",
                    serial.len()
                );
            }
            for threads in [2usize, 4, 7] {
                assert_eq!(scan(threads), serial, "s={sample_rate} threads={threads}");
            }
        }
    }

    #[test]
    fn stage_matches_serial_oracle_end_to_end() {
        // KmerTable contents and triples, rank by rank, on every grid.
        let reads = [
            "ACGTACGTACGTGGCCATTACGAACGT",
            "GGCCATTACGAACGTACGTACGT",
            "TTGCACGTACGTGGCCATTACGA",
            "ACGTACGTACGTGGCCATTACGAACGT",
        ];
        for p in [1usize, 4, 9] {
            let oracle = serial_kmer_stage(&seqs(&reads), &cfg_with(5, 2), p);
            Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                let grid = ProcGrid::new(comm);
                let store = store_from(&grid, &reads);
                let cfg = cfg_with(5, 2);
                let table = count_kmers(&grid, &store, &cfg);
                let triples = build_a_triples(&grid, &store, &table, &cfg);
                assert_matches_oracle(grid.world().rank(), &table, &triples, &oracle);
            });
        }
    }
}
