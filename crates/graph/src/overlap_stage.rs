//! Overlap detection (`DetectOverlap`) and pairwise alignment
//! (`Alignment`) — lines 4–9 of the paper's Algorithm 1.
//!
//! `C = AAᵀ` is computed with the BELLA semiring over the distributed
//! SUMMA SpGEMM, pruned to the strict upper triangle (each read pair is
//! aligned once; the mirrored string-graph edge is emitted analytically).
//! Every surviving nonzero is x-drop aligned from its retained seeds and
//! classified into containment / internal / dovetail; containments feed
//! the `IsContainedRead` prune, dovetails become the symmetric pair of
//! directed edges of the overlap matrix `R`.

use elba_align::{
    classify, extend_seed_greedy, extend_seed_with, OverlapAln, OverlapClass, Scoring, SgEdge,
    XdropWorkspace,
};
use elba_comm::ProcGrid;
use elba_seq::{AEntry, ReadStore};
use elba_sparse::{DistMat, DistVec, SpGemmOptions};

use crate::semirings::{OverlapSemiring, Seed, SharedSeeds};

/// Parameters of the overlap + alignment stage.
#[derive(Debug, Clone)]
pub struct OverlapConfig {
    pub k: usize,
    pub xdrop: i32,
    pub scoring: Scoring,
    /// Minimum shared k-mers for a candidate pair to be aligned.
    pub min_shared_kmers: u32,
    /// Minimum aligned span for a dovetail edge to survive.
    pub min_overlap: usize,
    /// Minimum alignment score as a fraction of the aligned span — the
    /// paper's `AlignmentScoreLessThan(t)` prune. Rejects spurious
    /// alignments seeded by coincidental shared k-mers (score ≈ 0 over a
    /// long "span") while keeping genuine noisy overlaps.
    pub min_score_ratio: f64,
    /// Overhang tolerance when classifying (x-drop may stop early).
    pub fuzz: usize,
    /// Options for the distributed `C = AAᵀ` multiply: the production
    /// SUMMA, whose column windows a memory budget sizes (one window
    /// without one).
    pub spgemm: SpGemmOptions,
    /// Intra-rank workers for the x-drop alignment batch (`0` means one,
    /// like `1`). Each worker owns one alignment scratch, pairs are
    /// claimed by index, and results are consumed in pair order, so the
    /// output is identical across thread counts; workers never enter the
    /// comm layer.
    pub threads: usize,
    /// Which retained seeds get x-drop extended per candidate pair (the
    /// CLI's `--seed-chaining`).
    pub chaining: SeedChaining,
}

/// Maximum |Δdiagonal| for two seeds of a pair to be merged into one
/// co-linear chain, and the diagonal slack granted to a chain by the
/// geometric early-reject (drift budget for x-drop gap wander; generous
/// relative to real indel rates so the reject never clips a reachable
/// overlap).
const CHAIN_BAND: usize = 128;

impl Default for OverlapConfig {
    fn default() -> Self {
        OverlapConfig {
            k: 31,
            xdrop: 15,
            scoring: Scoring::default(),
            min_shared_kmers: 1,
            min_overlap: 500,
            min_score_ratio: 0.55,
            fuzz: 200,
            spgemm: SpGemmOptions::default(),
            threads: 0,
            chaining: SeedChaining::default(),
        }
    }
}

/// Seed-selection policy of [`align_pair`]: how many of a
/// candidate pair's retained seeds are x-drop extended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedChaining {
    /// Bin seeds by strand and diagonal, merge co-linear seeds into one
    /// chain, extend each chain's first seed, and skip seeds whose
    /// anchor is already covered by an alignment found for this pair;
    /// chains that cannot geometrically reach `min_overlap` or a
    /// containment are rejected before any extension. Skipped work is
    /// visible in [`AlignStats::seeds_skipped`].
    #[default]
    Chain,
    /// Flagged fast mode: like [`SeedChaining::Chain`] but strictly one
    /// extension per strand group (the first surviving chain), and the
    /// extension itself runs the greedy O(differences)
    /// [`extend_seed_greedy`] walk instead of the exact DP. A different
    /// algorithm, not a transparent knob: quality-asserted by the
    /// benchmark rather than pinned byte-identical to `Chain`.
    BestOnly,
}

/// Counters reported by the alignment stage (for Fig. 5-style tables).
#[derive(Debug, Clone, Copy, Default)]
pub struct AlignStats {
    pub candidate_pairs: u64,
    pub aligned_pairs: u64,
    pub dovetails: u64,
    pub contained: u64,
    pub internal: u64,
    pub rejected: u64,
    /// Retained seeds the chain filter skipped without an x-drop
    /// extension (covered by an already-found alignment, merged into a
    /// chain behind an extended seed, geometrically rejected, or
    /// dropped by `BestOnly`).
    pub seeds_skipped: u64,
    /// Seed chains that underwent x-drop extension.
    pub chains_extended: u64,
}

impl AlignStats {
    pub fn allreduce(self, grid: &ProcGrid) -> AlignStats {
        let v = vec![
            self.candidate_pairs,
            self.aligned_pairs,
            self.dovetails,
            self.contained,
            self.internal,
            self.rejected,
            self.seeds_skipped,
            self.chains_extended,
        ];
        let merged = grid
            .world()
            .allreduce(v, |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect());
        AlignStats {
            candidate_pairs: merged[0],
            aligned_pairs: merged[1],
            dovetails: merged[2],
            contained: merged[3],
            internal: merged[4],
            rejected: merged[5],
            seeds_skipped: merged[6],
            chains_extended: merged[7],
        }
    }
}

/// `C = AAᵀ` restricted to the strict upper triangle, with candidate
/// pairs below the shared-k-mer threshold pruned (collective). `C` is
/// symmetric and only `r < col` is kept, so the multiply is asked for
/// the upper triangle alone ([`DistMat::spgemm_aat_upper_with`]):
/// diagonal ranks do half the products, ranks below the diagonal none.
/// The prune is fused into the multiply: each output column window is
/// thresholded as it completes, so only the pruned candidate set is
/// ever retained — the heart of ELBA's bounded-memory overlap
/// detection. The eager oracle prunes after the fact; the result is
/// identical either way.
pub fn candidate_matrix(
    grid: &ProcGrid,
    a: &DistMat<AEntry>,
    cfg: &OverlapConfig,
) -> DistMat<SharedSeeds> {
    a.spgemm_aat_upper_with(grid, &OverlapSemiring, &cfg.spgemm, |r, col, v| {
        r < col && v.count >= cfg.min_shared_kmers
    })
}

/// Per-worker scratch of the alignment stage: the x-drop workspace plus
/// a reusable buffer for the lazily computed reverse complement of the
/// pair's second read. One scratch serves any number of candidate pairs
/// in sequence; `rc(v)` is recomputed per pair (it depends on `v`) but
/// its allocation is paid once per worker, and never filled at all for
/// pairs whose reverse-strand seeds are rejected before extension.
#[derive(Debug, Default)]
struct AlignScratch {
    ws: XdropWorkspace,
    v_rc: Vec<u8>,
}

impl AlignScratch {
    /// Heap bytes held (workspace buffers + rc staging), for the same
    /// scratch-honesty accounting as [`XdropWorkspace::heap_bytes`].
    fn heap_bytes(&self) -> usize {
        self.ws.heap_bytes() + self.v_rc.len()
    }
}

/// Per-pair seed bookkeeping from [`align_pair_counted`], merged into
/// [`AlignStats`] by the stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PairCounts {
    /// Chains that underwent x-drop extension.
    chains: u32,
    /// Seeds skipped without extension.
    skipped: u32,
}

/// A retained seed in oriented coordinates: `u_pos` on `u`, `w_pos` on
/// `v`-as-aligned (reverse-complemented when `rc`), and the alignment
/// diagonal the anchor sits on.
#[derive(Debug, Clone, Copy)]
struct OrientedSeed {
    u_pos: usize,
    w_pos: usize,
    rc: bool,
    diag: i64,
}

impl OrientedSeed {
    /// Orient one retained seed; `None` if the anchor does not fit in
    /// either read (the sweep skips those silently).
    fn place(seed: &Seed, k: usize, ulen: usize, vlen: usize) -> Option<OrientedSeed> {
        let u_pos = seed.pos_v as usize;
        let w_pos = if seed.same_strand {
            seed.pos_h as usize
        } else {
            vlen.checked_sub(seed.pos_h as usize + k)?
        };
        if u_pos + k > ulen || w_pos + k > vlen {
            return None;
        }
        Some(OrientedSeed {
            u_pos,
            w_pos,
            rc: !seed.same_strand,
            diag: u_pos as i64 - w_pos as i64,
        })
    }

    /// The seed's k-mer anchor lies inside an alignment already found
    /// on the same strand — extending it would re-walk the same
    /// corridor.
    fn covered_by(&self, aln: &OverlapAln, k: usize) -> bool {
        aln.rc == self.rc
            && aln.u_beg <= self.u_pos
            && self.u_pos + k - 1 <= aln.u_end
            && aln.w_beg <= self.w_pos
            && self.w_pos + k - 1 <= aln.w_end
    }
}

/// Geometric early-reject: over every diagonal within [`CHAIN_BAND`] of
/// the chain's anchors, the largest conceivable aligned span can reach
/// neither a dovetail (`min_overlap`) nor a containment of either read
/// (`len - 2·fuzz`), so extension could only ever produce an alignment
/// the classifier discards without emitting edges. Only the stats
/// bucket of such a pair changes (rejected instead of internal).
fn chain_rejects(dg_lo: i64, dg_hi: i64, ulen: usize, wlen: usize, cfg: &OverlapConfig) -> bool {
    let band = CHAIN_BAND as i64;
    let (lo, hi) = (dg_lo - band, dg_hi + band);
    let (ul, wl) = (ulen as i64, wlen as i64);
    let u_span = (ul.min(wl + hi) - 0.max(lo)).max(0);
    let w_span = (wl.min(ul - lo) - 0.max(-hi)).max(0);
    u_span < cfg.min_overlap as i64
        && u_span < ul - 2 * cfg.fuzz as i64
        && w_span < wl - 2 * cfg.fuzz as i64
}

/// X-drop align one candidate pair from its retained seeds; returns the
/// best-scoring overlap alignment. Seed selection follows
/// [`OverlapConfig::chaining`]. Allocates a throwaway scratch; the
/// alignment stage sweeps one scratch per worker over every pair.
pub fn align_pair(
    u_codes: &[u8],
    v_codes: &[u8],
    seeds: &SharedSeeds,
    cfg: &OverlapConfig,
) -> Option<OverlapAln> {
    align_pair_counted(&mut AlignScratch::default(), u_codes, v_codes, seeds, cfg).0
}

/// [`align_pair`] on a reused scratch — its antidiagonal and rc buffers
/// serve every seed extension of every pair a worker aligns — plus the
/// per-pair chain/skip counters the stage folds into [`AlignStats`].
fn align_pair_counted(
    scratch: &mut AlignScratch,
    u_codes: &[u8],
    v_codes: &[u8],
    seeds: &SharedSeeds,
    cfg: &OverlapConfig,
) -> (Option<OverlapAln>, PairCounts) {
    let AlignScratch { ws, v_rc } = scratch;
    let (ulen, vlen) = (u_codes.len(), v_codes.len());
    let mut best: Option<OverlapAln> = None;
    let mut counts = PairCounts::default();
    let mut rc_ready = false;
    let mut extend = |s: &OrientedSeed, best: &mut Option<OverlapAln>, v_rc: &mut Vec<u8>| {
        let w: &[u8] = if s.rc {
            if !rc_ready {
                v_rc.clear();
                v_rc.extend(v_codes.iter().rev().map(|&b| 3 - b));
                rc_ready = true;
            }
            v_rc
        } else {
            v_codes
        };
        // Best-only is the opt-in approximate fast mode: one extension
        // per strand AND the greedy O(differences) extender instead of
        // the exact DP (quality-asserted in the perf bench, never the
        // default).
        let extender = if cfg.chaining == SeedChaining::BestOnly {
            extend_seed_greedy
        } else {
            extend_seed_with
        };
        let aln = extender(
            ws,
            u_codes,
            w,
            s.u_pos,
            s.w_pos,
            cfg.k,
            cfg.xdrop,
            cfg.scoring,
        );
        let candidate = OverlapAln::from_seed(aln, s.rc, ulen, vlen);
        if best.as_ref().is_none_or(|b| candidate.score > b.score) {
            *best = Some(candidate);
        }
    };
    // SharedSeeds retains at most two seeds, so the chain plan reduces
    // to: are both on the same strand, and if so are they co-linear? Two
    // fixed slots hold it — this runs once per candidate pair, so it
    // stays off the heap.
    let mut placed = seeds
        .seeds()
        .iter()
        .filter_map(|s| OrientedSeed::place(s, cfg.k, ulen, vlen));
    let best_only = cfg.chaining == SeedChaining::BestOnly;
    // Chains in seed order: [first seed, optional co-linear mate].
    let chains: [Option<(OrientedSeed, Option<OrientedSeed>)>; 2] =
        match (placed.next(), placed.next()) {
            (Some(head), Some(s))
                if head.rc == s.rc
                    && head.diag.abs_diff(s.diag) <= CHAIN_BAND as u64
                    && (head.u_pos <= s.u_pos) == (head.w_pos <= s.w_pos) =>
            {
                [Some((head, Some(s))), None]
            }
            (first, second) => [first.map(|s| (s, None)), second.map(|s| (s, None))],
        };
    let mut extended_strands = [false; 2];
    for (head, mate) in chains.iter().flatten() {
        let n_seeds = 1 + u32::from(mate.is_some());
        let (dg_lo, dg_hi) = match mate {
            Some(m) => (head.diag.min(m.diag), head.diag.max(m.diag)),
            None => (head.diag, head.diag),
        };
        if chain_rejects(dg_lo, dg_hi, ulen, vlen, cfg) {
            counts.skipped += n_seeds;
            continue;
        }
        if best_only && extended_strands[head.rc as usize] {
            counts.skipped += n_seeds;
            continue;
        }
        if best.as_ref().is_some_and(|aln| head.covered_by(aln, cfg.k)) {
            counts.skipped += n_seeds;
            continue;
        }
        extend(head, &mut best, v_rc);
        counts.chains += 1;
        extended_strands[head.rc as usize] = true;
        if let Some(m) = mate {
            let covered = best.as_ref().is_some_and(|aln| m.covered_by(aln, cfg.k));
            if best_only || covered {
                counts.skipped += 1;
            } else {
                extend(m, &mut best, v_rc);
            }
        }
    }
    (best, counts)
}

/// Classification bookkeeping for one aligned (or rejected) candidate
/// pair, consumed in pair order.
fn classify_candidate(
    i: u64,
    j: u64,
    (aln, counts): (Option<OverlapAln>, PairCounts),
    cfg: &OverlapConfig,
    triples: &mut Vec<(u64, u64, SgEdge)>,
    contained_ids: &mut Vec<(usize, bool)>,
    stats: &mut AlignStats,
) {
    stats.candidate_pairs += 1;
    stats.seeds_skipped += counts.skipped as u64;
    stats.chains_extended += counts.chains as u64;
    let Some(aln) = aln else {
        stats.rejected += 1;
        return;
    };
    stats.aligned_pairs += 1;
    match classify(&aln, cfg.fuzz) {
        OverlapClass::ContainedU => {
            stats.contained += 1;
            contained_ids.push((i as usize, true));
        }
        OverlapClass::ContainedV => {
            stats.contained += 1;
            contained_ids.push((j as usize, true));
        }
        OverlapClass::Internal => stats.internal += 1,
        OverlapClass::Dovetail { fwd, bwd } => {
            let score_ok = aln.score as f64 >= cfg.min_score_ratio * aln.span() as f64;
            if aln.span() >= cfg.min_overlap && score_ok {
                stats.dovetails += 1;
                triples.push((i, j, fwd));
                triples.push((j, i, bwd));
            } else {
                stats.rejected += 1;
            }
        }
    }
}

/// Candidate pairs aligned per worker per batch: enough work per scoped
/// spawn to amortize it (alignments are µs-to-ms each), small enough
/// that the batch buffers stay a bounded sliver (~100 B per pair)
/// instead of materializing every candidate.
const ALIGN_PAIRS_PER_WORKER_BATCH: usize = 256;

/// Smallest batch worth fanning out to threads: below this the scoped
/// spawn/join cycle costs more than the alignments it parallelizes, so
/// the batch runs on worker 0 alone (mirrors `MIN_PAR_ROWS` in the
/// SpGEMM batcher). Keeps rank×thread oversubscription on small hosts
/// from turning trailing slivers into a regression.
const MIN_PAR_CANDIDATES: usize = 8;

/// Align and classify every local candidate (collective because of the
/// sequence fetch). Returns the dovetail edge triples (both directions),
/// the contained-read mask, and global statistics. Candidates stream
/// through bounded batches aligned on [`OverlapConfig::threads`]
/// intra-rank workers, one alignment scratch per worker, with
/// classification consuming each batch's alignments in pair order — so
/// results are identical across thread counts while resident buffering
/// stays O(batch), not O(candidates). Workers never enter the comm
/// layer.
pub fn align_and_classify(
    grid: &ProcGrid,
    c: &DistMat<SharedSeeds>,
    store: &ReadStore,
    cfg: &OverlapConfig,
) -> (Vec<(u64, u64, SgEdge)>, DistVec<bool>, AlignStats) {
    let seqs = store.fetch_block_aligned(grid);
    let mut triples: Vec<(u64, u64, SgEdge)> = Vec::new();
    let mut contained_ids: Vec<(usize, bool)> = Vec::new();
    let mut stats = AlignStats::default();
    let threads = cfg.threads.max(1);
    let mut scratches: Vec<AlignScratch> = (0..threads).map(|_| AlignScratch::default()).collect();
    let mut candidates = c.iter_global(grid);
    let batch_pairs = threads * ALIGN_PAIRS_PER_WORKER_BATCH;
    let mut batch: Vec<(u64, u64, &SharedSeeds)> = Vec::with_capacity(batch_pairs);
    let mut peak_batch = 0usize;
    loop {
        batch.clear();
        batch.extend(candidates.by_ref().take(batch_pairs));
        if batch.is_empty() {
            break;
        }
        peak_batch = peak_batch.max(batch.len());
        let workers = if batch.len() < MIN_PAR_CANDIDATES {
            1
        } else {
            threads
        };
        let alns =
            elba_par::run_indexed_with(batch.len(), &mut scratches[..workers], |p, scratch| {
                let (i, j, seeds) = batch[p];
                let u_codes = seqs
                    .get(i)
                    .unwrap_or_else(|| panic!("read {i} not fetched"));
                let v_codes = seqs
                    .get(j)
                    .unwrap_or_else(|| panic!("read {j} not fetched"));
                align_pair_counted(scratch, u_codes, v_codes, seeds, cfg)
            });
        for (&(i, j, _), aln) in batch.iter().zip(alns) {
            classify_candidate(i, j, aln, cfg, &mut triples, &mut contained_ids, &mut stats);
        }
    }
    let world = grid.world();
    world.record_par_time(elba_par::take_par_secs());
    // Scratch beyond worker 0's alignment scratch (uncharged, the
    // `SpGemmBatcher::scratch_bytes` convention): the other workers'
    // scratches plus the batch's pair and alignment buffers.
    let scratch: usize = scratches
        .iter()
        .skip(1)
        .map(AlignScratch::heap_bytes)
        .sum::<usize>()
        + peak_batch
            * (std::mem::size_of::<(u64, u64, &SharedSeeds)>()
                + std::mem::size_of::<(Option<OverlapAln>, PairCounts)>());
    world.record_mem_transient(scratch);
    let mut contained = DistVec::from_fn(grid, store.n_global(), |_| false);
    contained.scatter_combine(grid, contained_ids, |acc, v| *acc |= v);
    let stats = stats.allreduce(grid);
    (triples, contained, stats)
}

/// Assemble the overlap matrix `R` from dovetail triples and prune the
/// rows/columns of contained reads (Algorithm 1 lines 8–9). Collective.
pub fn overlap_graph(
    grid: &ProcGrid,
    n_reads: usize,
    triples: Vec<(u64, u64, SgEdge)>,
    contained: &DistVec<bool>,
) -> DistMat<SgEdge> {
    let r = DistMat::from_triples(grid, n_reads, n_reads, triples, |acc, v| {
        // Two seeds of the same pair can classify to the same directed
        // edge; keep the tighter overlap (smaller overhang).
        if v.suffix < acc.suffix {
            *acc = v;
        }
    });
    r.mask_rows_cols(grid, contained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elba_comm::{Backend, Runner};
    use elba_seq::{build_a_triples, count_kmers, KmerConfig, Seq};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn genome(len: usize, seed: u64) -> Seq {
        let mut rng = StdRng::seed_from_u64(seed);
        Seq::from_codes((0..len).map(|_| rng.gen_range(0..4u8)).collect())
    }

    /// Tile a genome with overlapping error-free reads, alternating strands.
    fn tiled_reads(g: &Seq, read_len: usize, stride: usize) -> Vec<Seq> {
        let mut reads = Vec::new();
        let mut start = 0;
        let mut flip = false;
        while start + read_len <= g.len() {
            let r = g.substring(start, start + read_len);
            reads.push(if flip { r.reverse_complement() } else { r });
            flip = !flip;
            start += stride;
        }
        reads
    }

    fn test_cfg() -> OverlapConfig {
        OverlapConfig {
            k: 15,
            xdrop: 10,
            min_overlap: 30,
            fuzz: 10,
            threads: 1,
            ..OverlapConfig::default()
        }
    }

    #[test]
    fn pipeline_to_overlap_graph_is_linear_chain() {
        for p in [1usize, 4] {
            let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                let grid = ProcGrid::new(comm);
                let g = genome(600, 42);
                let reads = tiled_reads(&g, 200, 100);
                let n = reads.len();
                let store = ReadStore::from_replicated(&grid, &reads);
                let cfg = test_cfg();
                let kcfg = KmerConfig {
                    k: cfg.k,
                    reliable_min: 2,
                    reliable_max: 16,
                    ..KmerConfig::default()
                };
                let table = count_kmers(&grid, &store, &kcfg);
                let a_triples = build_a_triples(&grid, &store, &table, &kcfg);
                let a = DistMat::from_triples(
                    &grid,
                    n,
                    table.n_global as usize,
                    a_triples,
                    |acc, v: AEntry| {
                        if v.pos < acc.pos {
                            *acc = v;
                        }
                    },
                );
                let c = candidate_matrix(&grid, &a, &cfg);
                let (triples, contained, stats) = align_and_classify(&grid, &c, &store, &cfg);
                let r = overlap_graph(&grid, n, triples, &contained);
                let degrees = r.row_degrees(&grid).to_global(&grid);
                (degrees, stats.dovetails, n)
            });
            let (degrees, dovetails, n) = &out[0];
            // consecutive 200-base reads at stride 100 overlap by 100;
            // reads two apart share nothing → a clean path graph.
            assert!(
                *dovetails >= (*n as u64) - 1,
                "p={p}: dovetails={dovetails}"
            );
            assert_eq!(degrees.len(), *n);
            let ends = degrees.iter().filter(|&&d| d == 1).count();
            assert!(ends >= 2, "chain endpoints, got degrees {degrees:?}");
            assert!(degrees.iter().all(|&d| d >= 1), "no isolated reads");
        }
    }

    #[test]
    fn pipelined_overlap_stage_reports_wait_separately() {
        // Acceptance check for the pipelined SUMMA refactor: a profiled
        // DetectOverlap phase must (a) produce the same candidate matrix
        // as the eager schedule and (b) attribute non-blocking wait time
        // in its own bucket, with its stage transfers visible — proving
        // the overlap is instrumented, not just claimed.
        let mut results: Vec<Vec<(u64, u64, u32)>> = Vec::new();
        for eager in [false, true] {
            let (out, profile) = elba_comm::Runner::new(Backend::InProcess)
                .ranks(4)
                .run_profiled(move |comm| {
                    let grid = ProcGrid::new(comm);
                    let g = genome(600, 42);
                    let reads = tiled_reads(&g, 200, 100);
                    let n = reads.len();
                    let store = ReadStore::from_replicated(&grid, &reads);
                    let mut cfg = test_cfg();
                    cfg.spgemm = if eager {
                        elba_sparse::SpGemmOptions::eager()
                    } else {
                        elba_sparse::SpGemmOptions::pipelined()
                    };
                    let kcfg = KmerConfig {
                        k: cfg.k,
                        reliable_min: 2,
                        reliable_max: 16,
                        ..KmerConfig::default()
                    };
                    let table = count_kmers(&grid, &store, &kcfg);
                    let a_triples = build_a_triples(&grid, &store, &table, &kcfg);
                    let a = DistMat::from_triples(
                        &grid,
                        n,
                        table.n_global as usize,
                        a_triples,
                        |acc, v: AEntry| {
                            if v.pos < acc.pos {
                                *acc = v;
                            }
                        },
                    );
                    let c = {
                        let _g = grid.world().phase("DetectOverlap");
                        candidate_matrix(&grid, &a, &cfg)
                    };
                    let mut triples: Vec<(u64, u64, u32)> = c
                        .gather_triples(&grid)
                        .into_iter()
                        .map(|(r, s, v)| (r, s, v.count))
                        .collect();
                    triples.sort_unstable();
                    triples
                });
            if eager {
                assert_eq!(
                    profile.max_wait_secs("DetectOverlap"),
                    0.0,
                    "eager schedule never parks in a request wait"
                );
            } else {
                assert!(
                    profile.max_wait_secs("DetectOverlap") > 0.0,
                    "pipelined schedule must book its request waits in the wait bucket"
                );
                let phases = || {
                    profile
                        .rank_profiles()
                        .iter()
                        .filter_map(|r| r.phase("DetectOverlap"))
                };
                // Each block goes only to the ranks that multiply with
                // it: q³ − q(q+1)/2 = 5 direct sends on the 2×2 grid,
                // and no broadcast.
                let sends: u64 = phases().map(|p| p.p2p_msgs).sum();
                assert_eq!(sends, 5, "one send per (block, destination) pair");
                assert!(phases().all(|p| p.coll_calls() == 0), "no collective");
            }
            results.push(out.into_iter().next().expect("rank 0"));
        }
        assert_eq!(
            results[0], results[1],
            "pipelined and eager candidates must agree"
        );
    }

    #[test]
    fn threaded_alignment_stage_matches_serial() {
        // The whole DetectOverlap + Alignment front end at `threads = 4`
        // must reproduce the serial run exactly: same dovetail triples,
        // same contained mask, same stats — and identical per-rank
        // profiled wire bytes, because workers never touch the comm
        // layer. This is the stage-level face of the determinism
        // contract (the SpGEMM and x-drop kernels are pinned
        // separately).
        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            let (out, profile) = elba_comm::Runner::new(Backend::InProcess)
                .ranks(4)
                .run_profiled(move |comm| {
                    let grid = ProcGrid::new(comm);
                    let g = genome(900, 53);
                    let reads = tiled_reads(&g, 200, 100);
                    let n = reads.len();
                    let store = ReadStore::from_replicated(&grid, &reads);
                    let mut cfg = test_cfg();
                    cfg.threads = threads;
                    cfg.spgemm = cfg.spgemm.with_threads(threads);
                    let kcfg = KmerConfig {
                        k: cfg.k,
                        reliable_min: 2,
                        reliable_max: 16,
                        threads,
                        ..KmerConfig::default()
                    };
                    let _g = grid.world().phase("front");
                    let table = count_kmers(&grid, &store, &kcfg);
                    let a_triples = build_a_triples(&grid, &store, &table, &kcfg);
                    let a = DistMat::from_triples(
                        &grid,
                        n,
                        table.n_global as usize,
                        a_triples,
                        |acc, v: AEntry| {
                            if v.pos < acc.pos {
                                *acc = v;
                            }
                        },
                    );
                    let c = candidate_matrix(&grid, &a, &cfg);
                    let (mut triples, contained, stats) =
                        align_and_classify(&grid, &c, &store, &cfg);
                    triples.sort_by_key(|&(i, j, _)| (i, j));
                    (
                        triples,
                        contained.to_global(&grid),
                        (stats.candidate_pairs, stats.dovetails, stats.contained),
                    )
                });
            let bytes: Vec<u64> = profile
                .rank_profiles()
                .iter()
                .map(|r| r.phase("front").map_or(0, |p| p.bytes_sent()))
                .collect();
            let wall = profile.max_wall("front");
            let par = profile.max_par_secs("front");
            if threads == 1 {
                assert_eq!(par, 0.0, "serial runs must not book par time");
            } else {
                assert!(par > 0.0, "threaded runs must book par time");
                assert!(par <= wall + 1e-9, "par time is a subset of wall time");
            }
            runs.push((out.into_iter().next().expect("rank 0"), bytes));
        }
        assert_eq!(
            runs[0].0, runs[1].0,
            "threads must not change the stage output"
        );
        assert_eq!(runs[0].1, runs[1].1, "threads must not change wire bytes");
    }

    #[test]
    fn align_pair_same_strand() {
        let g = genome(300, 7);
        let u = g.substring(0, 200);
        let v = g.substring(100, 300);
        let cfg = test_cfg();
        // seed inside the true overlap g[100..200): u_pos 120, v_pos 20
        let seeds = SharedSeeds::single(crate::semirings::Seed {
            pos_v: 120,
            pos_h: 20,
            same_strand: true,
        });
        let aln = align_pair(u.codes(), v.codes(), &seeds, &cfg).expect("alignment");
        assert!(!aln.rc);
        assert_eq!(aln.u_beg, 100);
        assert_eq!(aln.u_end, 199);
        assert_eq!(aln.w_beg, 0);
        assert_eq!(aln.w_end, 99);
    }

    #[test]
    fn align_pair_opposite_strand() {
        let g = genome(300, 8);
        let u = g.substring(0, 200);
        let v = g.substring(100, 300).reverse_complement();
        let cfg = test_cfg();
        // canonical k-mer at u pos 150 sits at w pos 50 (w = rc(v) =
        // g[100..300)); in v-forward coordinates that's 200-50-15 = 135.
        let seeds = SharedSeeds::single(crate::semirings::Seed {
            pos_v: 150,
            pos_h: 135,
            same_strand: false,
        });
        let aln = align_pair(u.codes(), v.codes(), &seeds, &cfg).expect("alignment");
        assert!(aln.rc);
        assert_eq!(aln.u_beg, 100);
        assert_eq!(aln.u_end, 199);
        assert_eq!(aln.w_beg, 0);
        assert_eq!(aln.w_end, 99);
    }

    #[test]
    fn contained_reads_masked_out() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            let g = genome(400, 11);
            // read 1 is contained inside read 0; read 2 dovetails read 0.
            let reads = vec![
                g.substring(0, 300),
                g.substring(50, 250),
                g.substring(200, 400),
            ];
            let store = ReadStore::from_replicated(&grid, &reads);
            let cfg = test_cfg();
            let kcfg = KmerConfig {
                k: cfg.k,
                reliable_min: 2,
                reliable_max: 16,
                ..KmerConfig::default()
            };
            let table = count_kmers(&grid, &store, &kcfg);
            let a_triples = build_a_triples(&grid, &store, &table, &kcfg);
            let a = DistMat::from_triples(
                &grid,
                3,
                table.n_global as usize,
                a_triples,
                |acc, v: AEntry| {
                    if v.pos < acc.pos {
                        *acc = v;
                    }
                },
            );
            let c = candidate_matrix(&grid, &a, &cfg);
            let (triples, contained, stats) = align_and_classify(&grid, &c, &store, &cfg);
            let r = overlap_graph(&grid, 3, triples, &contained);
            let degrees = r.row_degrees(&grid).to_global(&grid);
            (degrees, contained.to_global(&grid), stats.contained)
        });
        let (degrees, contained, n_contained) = &out[0];
        assert!(*n_contained >= 1);
        assert!(contained[1], "middle read is contained");
        assert_eq!(degrees[1], 0, "contained read must lose all edges");
        assert_eq!(degrees[0], 1);
        assert_eq!(degrees[2], 1);
    }
}
