//! Overlap detection (`DetectOverlap`) and pairwise alignment
//! (`Alignment`) — lines 4–9 of the paper's Algorithm 1.
//!
//! `C = AAᵀ` is computed with the BELLA semiring over the distributed
//! SUMMA SpGEMM, restricted to the strict upper triangle (each read pair is
//! aligned once; the mirrored string-graph edge is emitted analytically).
//! A nonzero that is aligned is x-drop aligned from its retained seeds
//! and classified into containment / internal / dovetail; containments
//! feed the `IsContainedRead` prune, dovetails become the symmetric pair
//! of directed edges of the overlap matrix `R`.
//!
//! # Containment first
//!
//! The paper aligns every candidate and drops contained reads
//! afterwards (Algorithm 1, lines 8–9). Like miniasm and hifiasm, this
//! stage finds contained reads first, and then aligns only the pairs
//! whose verdict can still change the graph. Three passes run over each
//! rank's local candidates:
//!
//! 1. For each read of the block's rows or columns, the one pair whose
//!    first seed's diagonal places the read inside its partner, within
//!    `fuzz`. The longest such partner wins, ties to the smaller id.
//! 2. Every pair whose two reads are both still uncontained.
//! 3. Every remaining pair with one uncontained read `t`, unless a score
//!    bound shows that no seed of the pair can contain `t` in its
//!    partner (below).
//!
//! Before passes 2 and 3 a mask round ships the new containment marks
//! to their owners (`DistVec::scatter_combine`) and fetches the mask
//! over the block's rows and columns (`DistVec::fetch_aligned`, the
//! exchange `mask_rows_cols` runs).
//!
//! **Why this is exact.** A pair's verdict depends on the pair alone,
//! so a pair aligned in any pass gets the verdict it gets when every
//! candidate is aligned. A read is contained if any of its pairs says
//! so, a mark is never undone, and `overlap_graph` drops every row and
//! column of a contained read from `R`. A pair that no pass aligns had
//! both reads contained after pass 2, or pass 3's bound skipped it
//! (below). In the first case its verdict could only mark reads that
//! are already marked, and its dovetail edges would fall to the mask.
//! So the contained mask and `R` equal, entry for entry, those of
//! aligning every candidate — whatever pass 1 picks. The picks set only
//! the amount of work, so a rank picks within its own block, with no
//! global reduction. For the same reason pass 3 routes no dovetail into
//! `R`: each of its pairs has a read that is already contained.
//!
//! **Why pass 3 may skip a pair on a bound.** Let a pass-3 pair have the
//! uncontained read `t` and the contained read `r`.
//! - It routes no dovetail, and a mark on `r` changes nothing. So only
//!   the verdict "`t` is contained in `r`" can change the graph.
//! - The verdict is read off the pair's best alignment, which is one
//!   placed seed's alignment. The verdict needs that alignment to end
//!   within `fuzz` of both ends of `t`.
//! - A seed's alignment is the seed plus two independent extensions, one
//!   left of the seed and one right of its `k` bases. Each returns its
//!   earliest best cell: the origin, which scores 0, or a cell that
//!   scores more than 0. The x-drop kernels and the greedy walk both move
//!   their best only on a strictly higher score.
//! - Take one direction, with `rem_t` bases of `t` and `rem_r` of `r`
//!   left in it. Reaching within `fuzz` of `t`'s end takes a cell
//!   `(a, b)` with `a ≥ need = rem_t − fuzz` on `t` and `b ≤ rem_r` on
//!   `r`. A path there with `D` diagonal steps and `E` gap steps has
//!   `D ≤ min(a, b)` and `E ≥ |a − b|`. With `mismatch ≤ match` and
//!   `gap < 0` it scores at most `match·D + gap·E`, which is at most
//!   `match·min(a, b) + gap·|a − b|` when `match ≥ 0` and below 0 when
//!   `match < 0`. So if `rem_t > fuzz`, `need > rem_r` and
//!   `match·rem_r + gap·(need − rem_r) ≤ 0`, no such cell scores above 0
//!   and the origin is not one: the direction ends more than `fuzz`
//!   short of `t`'s end.
//!
//! A seed fails if either direction fails. Pass 3 skips a pair when all
//! its placed seeds fail, before any extension; under any other
//! [`Scoring`] no direction fails. This module's tests hold the bound to
//! the scalar oracle and the greedy walk, and replay the passes with
//! pass 3's skips over random verdict tables.

use std::cmp::Reverse;

use elba_align::{
    classify, extend_seed_greedy, extend_seed_with, BufferHighWater, OverlapAln, OverlapClass,
    Scoring, SgEdge, XdropWorkspace,
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
    /// Minimum aligned span for a dovetail edge to survive.
    pub min_overlap: usize,
    /// Minimum alignment score as a fraction of the aligned span — the
    /// paper's `AlignmentScoreLessThan(t)` prune. Rejects spurious
    /// alignments seeded by coincidental shared k-mers (score ≈ 0 over a
    /// long "span") while keeping genuine noisy overlaps.
    pub min_score_ratio: f64,
    /// Overhang tolerance when classifying (x-drop may stop early).
    pub fuzz: usize,
    /// Options of the pipeline's two SUMMA products: overlap detection
    /// reads them for `C = AAᵀ`, and `elba-core`'s `assemble` hands the
    /// same options to the transitive-reduction sweep, so the two stages
    /// cannot drift. A memory budget is their one parameter (it picks
    /// prefetch and the row batch, see [`SpGemmOptions::mem_budget`]);
    /// `PipelineConfig::with_mem_budget` sets it.
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

impl Default for OverlapConfig {
    fn default() -> Self {
        OverlapConfig {
            k: 31,
            xdrop: 15,
            scoring: Scoring::default(),
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
    /// Extend each retained seed in seed order with the exact DP, unless
    /// its anchor already lies inside the best alignment found for this
    /// pair on its strand. Skipped seeds are visible in
    /// [`AlignStats::seeds_skipped`].
    #[default]
    Chain,
    /// Flagged fast mode: like [`SeedChaining::Chain`] but strictly one
    /// extension per strand (its first uncovered seed), and the
    /// extension itself runs the greedy O(differences)
    /// [`extend_seed_greedy`] walk instead of the exact DP. A different
    /// algorithm, not a transparent knob: quality-asserted by the
    /// benchmark rather than pinned byte-identical to `Chain`.
    BestOnly,
}

/// Counters reported by the alignment stage (for Fig. 5-style tables).
#[derive(Debug, Clone, Copy, Default)]
pub struct AlignStats {
    /// Every candidate pair of `C`, aligned or not.
    pub candidate_pairs: u64,
    /// Candidate pairs never aligned: both reads were already contained
    /// when the last pass reached them, or pass 3's score bound ruled out
    /// containing the one uncontained read (module doc).
    pub skipped_pairs: u64,
    pub aligned_pairs: u64,
    pub dovetails: u64,
    pub contained: u64,
    pub internal: u64,
    pub rejected: u64,
    /// Retained seeds skipped without an x-drop extension: covered by the
    /// pair's best alignment so far, or on a strand `BestOnly` has
    /// already extended.
    pub seeds_skipped: u64,
    /// Seeds x-drop extended, one per extension: the CLI's `seeds
    /// extended`. `align_pair` builds no chains; the field keeps its old
    /// name because the benchmark reports it as `align.chains_extended`.
    pub chains_extended: u64,
}

impl AlignStats {
    pub fn allreduce(self, grid: &ProcGrid) -> AlignStats {
        let v = vec![
            self.candidate_pairs,
            self.skipped_pairs,
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
            skipped_pairs: merged[1],
            aligned_pairs: merged[2],
            dovetails: merged[3],
            contained: merged[4],
            internal: merged[5],
            rejected: merged[6],
            seeds_skipped: merged[7],
            chains_extended: merged[8],
        }
    }
}

/// `C = AAᵀ` restricted to the strict upper triangle (collective): every
/// read pair `r < col` that shares at least one reliable k-mer, with the
/// seeds [`SharedSeeds`] retains. `C` is symmetric, so the multiply is
/// asked for the upper triangle alone
/// ([`DistMat::spgemm_aat_upper_with`]): diagonal ranks do half the
/// products, ranks below the diagonal none. Every entry the kernel
/// accumulates is kept, so `C` itself is resident under any budget. The
/// multiply runs in one round over all local columns; a budget picks only
/// its row batch and whether the next stage is prefetched, and either
/// choice gives the same matrix.
pub fn candidate_matrix(
    grid: &ProcGrid,
    a: &DistMat<AEntry>,
    cfg: &OverlapConfig,
) -> DistMat<SharedSeeds> {
    a.spgemm_aat_upper_with(grid, &OverlapSemiring, &cfg.spgemm)
}

/// Per-worker scratch of the alignment stage: the x-drop workspace plus
/// a reusable buffer for the lazily computed reverse complement of the
/// pair's second read. One scratch serves any number of candidate pairs
/// in sequence; `rc(v)` is recomputed per pair (it depends on `v`) but
/// its allocation is paid once per worker, and never filled at all for
/// pairs whose reverse-strand seeds are all skipped.
/// `v_rc` never shortens, so its length is its high water, like
/// [`XdropWorkspace::high_water`].
#[derive(Debug, Default)]
struct AlignScratch {
    ws: XdropWorkspace,
    v_rc: Vec<u8>,
}

/// Per-pair seed bookkeeping from [`align_pair_counted`], merged into
/// [`AlignStats`] by the stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PairCounts {
    /// Seeds that underwent x-drop extension.
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

    /// Whether the seed's diagonal, extended to both read ends, places
    /// `u` inside `v`-as-aligned and `v` inside `u`, each within `fuzz`
    /// at either end: pass 1's containment prediction.
    fn predicts_containment(&self, ulen: usize, vlen: usize, fuzz: usize) -> (bool, bool) {
        let (ul, wl, fuzz) = (ulen as i64, vlen as i64, fuzz as i64);
        let u_in_v = self.diag <= fuzz && ul <= wl + self.diag + fuzz;
        let v_in_u = -self.diag <= fuzz && wl + self.diag <= ul + fuzz;
        (u_in_v, v_in_u)
    }

    /// Whether this seed's alignment can end within `fuzz` of both ends
    /// of `u` (`t_is_u`) or of `v`-as-aligned: false when the score bound
    /// of the module doc rules it out left of the seed or right of it.
    fn may_reach_ends(&self, t_is_u: bool, ulen: usize, vlen: usize, cfg: &OverlapConfig) -> bool {
        let left = (self.u_pos, self.w_pos);
        let right = (ulen - self.u_pos - cfg.k, vlen - self.w_pos - cfg.k);
        [left, right].into_iter().all(|(rem_u, rem_w)| {
            let (rem_t, rem_r) = if t_is_u {
                (rem_u, rem_w)
            } else {
                (rem_w, rem_u)
            };
            extension_may_reach(rem_t, rem_r, cfg.fuzz, cfg.scoring)
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

/// Whether an extension over `rem_t` bases of `t` and `rem_r` of its
/// partner can end within `fuzz` of `t`'s end: the score bound of the
/// module doc, which holds when `mismatch ≤ match` and `gap < 0` and
/// rules nothing out under any other scoring.
fn extension_may_reach(rem_t: usize, rem_r: usize, fuzz: usize, sc: Scoring) -> bool {
    if sc.gap >= 0 || sc.mismatch > sc.match_score {
        return true;
    }
    // `need > rem_r` implies `rem_t > fuzz`. Lengths are below 2³¹, so
    // neither product leaves `i64`.
    match rem_t.checked_sub(fuzz) {
        Some(need) if need > rem_r => {
            i64::from(sc.match_score) * rem_r as i64 + i64::from(sc.gap) * (need - rem_r) as i64 > 0
        }
        _ => true,
    }
}

/// Whether some placed seed of the pair can align `u` (`t_is_u`) or `v`
/// within `fuzz` of both its ends: pass 3's test, before any extension.
fn pair_may_contain(
    seeds: &SharedSeeds,
    t_is_u: bool,
    ulen: usize,
    vlen: usize,
    cfg: &OverlapConfig,
) -> bool {
    seeds
        .seeds()
        .iter()
        .filter_map(|s| OrientedSeed::place(s, cfg.k, ulen, vlen))
        .any(|s| s.may_reach_ends(t_is_u, ulen, vlen, cfg))
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
/// per-pair extension/skip counters the stage folds into [`AlignStats`].
///
/// One loop over the pair's placed seeds (at most two, in seed order): a
/// seed is skipped when the best alignment so far covers its anchor on
/// its strand, or under [`SeedChaining::BestOnly`] when its strand has
/// already been extended; every other seed is extended.
fn align_pair_counted(
    scratch: &mut AlignScratch,
    u_codes: &[u8],
    v_codes: &[u8],
    seeds: &SharedSeeds,
    cfg: &OverlapConfig,
) -> (Option<OverlapAln>, PairCounts) {
    let AlignScratch { ws, v_rc } = scratch;
    let (ulen, vlen) = (u_codes.len(), v_codes.len());
    let best_only = cfg.chaining == SeedChaining::BestOnly;
    // Best-only is the opt-in approximate fast mode: one extension per
    // strand AND the greedy O(differences) extender instead of the exact
    // DP (quality-asserted in the perf bench, never the default).
    let extender = if best_only {
        extend_seed_greedy
    } else {
        extend_seed_with
    };
    let mut best: Option<OverlapAln> = None;
    let mut counts = PairCounts::default();
    let mut extended_strands = [false; 2];
    let mut rc_ready = false;
    let placed = seeds
        .seeds()
        .iter()
        .filter_map(|s| OrientedSeed::place(s, cfg.k, ulen, vlen));
    for s in placed {
        let covered = best.as_ref().is_some_and(|aln| s.covered_by(aln, cfg.k));
        if covered || (best_only && extended_strands[s.rc as usize]) {
            counts.skipped += 1;
            continue;
        }
        let w: &[u8] = if s.rc {
            if !rc_ready {
                if v_rc.len() < vlen {
                    v_rc.resize(vlen, 0);
                }
                for (rc, &b) in v_rc.iter_mut().zip(v_codes.iter().rev()) {
                    *rc = 3 - b;
                }
                rc_ready = true;
            }
            &v_rc[..vlen]
        } else {
            v_codes
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
            best = Some(candidate);
        }
        counts.chains += 1;
        extended_strands[s.rc as usize] = true;
    }
    (best, counts)
}

/// What the stage has concluded so far: the dovetail edges routed into
/// `R`, the containment verdicts a mask round has not yet published, and
/// the counters.
#[derive(Debug, Default)]
struct Verdicts {
    triples: Vec<(u64, u64, SgEdge)>,
    marks: Vec<(usize, bool)>,
    stats: AlignStats,
}

impl Verdicts {
    /// Classify one aligned (or rejected) candidate pair, consumed in
    /// entry order; its dovetail edges are kept only if
    /// `route_dovetails`.
    fn record(
        &mut self,
        (i, j): (u64, u64),
        (aln, counts): (Option<OverlapAln>, PairCounts),
        cfg: &OverlapConfig,
        route_dovetails: bool,
    ) {
        let stats = &mut self.stats;
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
                self.marks.push((i as usize, true));
            }
            OverlapClass::ContainedV => {
                stats.contained += 1;
                self.marks.push((j as usize, true));
            }
            OverlapClass::Internal => stats.internal += 1,
            OverlapClass::Dovetail { fwd, bwd } => {
                let score_ok = aln.score as f64 >= cfg.min_score_ratio * aln.span() as f64;
                if aln.span() >= cfg.min_overlap && score_ok {
                    stats.dovetails += 1;
                    if route_dovetails {
                        self.triples.push((i, j, fwd));
                        self.triples.push((j, i, bwd));
                    }
                } else {
                    stats.rejected += 1;
                }
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

/// One bit per local candidate, indexed by its position in
/// [`DistMat::iter_global`] order: set once the candidate is aligned.
#[derive(Debug)]
struct EntryBits(Vec<u64>);

impl EntryBits {
    fn new(n: usize) -> Self {
        EntryBits(vec![0; n.div_ceil(64)])
    }

    fn contains(&self, e: usize) -> bool {
        self.0[e / 64] >> (e % 64) & 1 == 1
    }

    /// Set bit `e`; true if it was clear.
    fn insert(&mut self, e: usize) -> bool {
        let (word, bit) = (&mut self.0[e / 64], 1u64 << (e % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    fn count(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.0.as_slice())
    }
}

/// One rank's alignment stage as [`containment_first`] drives it.
trait PassSweep {
    /// Align and classify, in entry order, every local candidate for
    /// which `select(entry, row, col, may_contain)` holds (`row` and
    /// `col` are block-local read indices). `may_contain(true)` is pass
    /// 3's bound for the pair: whether it can contain its row read in its
    /// column read (`false`: the column read in the row read). Containment
    /// verdicts wait for the next [`PassSweep::mask_round`]; a dovetail's
    /// edge pair goes into `R` only if `route_dovetails`.
    fn sweep(&mut self, select: &mut Select<'_>, route_dovetails: bool);

    /// Publish the containment verdicts found so far (collective) and
    /// return the contained mask over the block's row reads and its
    /// column reads.
    fn mask_round(&mut self) -> (Vec<bool>, Vec<bool>);
}

/// A pass's choice of candidates ([`PassSweep::sweep`]).
type Select<'s> = dyn FnMut(usize, usize, usize, &dyn Fn(bool) -> bool) -> bool + 's;

/// The three passes of the module doc over a rank's `n` local
/// candidates, pass 1 aligning the entries `picks` names. Returns the
/// entries aligned; the last pass's verdicts wait for the caller's
/// final round.
fn containment_first(
    n: usize,
    picks: impl IntoIterator<Item = usize>,
    stage: &mut impl PassSweep,
) -> EntryBits {
    let mut done = EntryBits::new(n);
    for e in picks {
        done.insert(e);
    }
    stage.sweep(&mut |e, _, _, _| done.contains(e), true);
    let (rows, cols) = stage.mask_round();
    stage.sweep(
        &mut |e, r, c, _| !rows[r] && !cols[c] && done.insert(e),
        true,
    );
    let (rows, cols) = stage.mask_round();
    // Pass 2 aligned every pair of two uncontained reads, so a pair left
    // with an uncontained read `t` has a contained one: its dovetail
    // would fall to the mask, and only `t`'s containment matters.
    stage.sweep(
        &mut |e, r, c, may_contain| {
            let t_is_row = !rows[r];
            (t_is_row || !cols[c]) && !done.contains(e) && may_contain(t_is_row) && done.insert(e)
        },
        false,
    );
    done
}

/// A read's likeliest container so far: its length, its id (reversed,
/// so that the smaller id wins a tie) and the candidate entry pairing
/// the two. All three fit a `u32`: a read is shorter than 2³¹ bases,
/// read ids travel as `u32`, and a block's `u32` row offsets bound its
/// entry count.
type ContainerPick = Option<(u32, Reverse<u32>, u32)>;

/// Pass 1's entries: for each read of the block's rows and columns, the
/// candidate whose first seed places the read inside its partner, the
/// longest such partner winning. The per-read picks and the entry list
/// are charged as a transient.
fn pass1_picks(
    grid: &ProcGrid,
    c: &DistMat<SharedSeeds>,
    seqs: &ReadStore,
    cfg: &OverlapConfig,
) -> Vec<usize> {
    let (r0, c0) = c.local_offsets(grid);
    // One slot per read: a diagonal block's rows and columns are the
    // same reads, an off-diagonal block's column reads follow its rows.
    let col_slot0 = if grid.is_diagonal() {
        0
    } else {
        c.local().nrows()
    };
    let mut best: Vec<ContainerPick> = vec![None; col_slot0 + c.local().ncols()];
    for (e, (i, j, seeds)) in c.iter_global(grid).enumerate() {
        let (ulen, vlen) = (fetched(seqs, i).len(), fetched(seqs, j).len());
        let Some(s) = OrientedSeed::place(&seeds.seeds()[0], cfg.k, ulen, vlen) else {
            continue;
        };
        let (u_in_v, v_in_u) = s.predicts_containment(ulen, vlen, cfg.fuzz);
        let entry = u32::try_from(e).expect("a block's u32 row offsets bound its entries");
        let pick = |len: usize, id: u64| {
            let len = u32::try_from(len).expect("a read is shorter than 2^31 bases");
            let id = u32::try_from(id).expect("read ids travel as u32");
            Some((len, Reverse(id), entry))
        };
        if u_in_v {
            let slot = &mut best[i as usize - r0];
            *slot = (*slot).max(pick(vlen, j));
        }
        if v_in_u {
            let slot = &mut best[col_slot0 + j as usize - c0];
            *slot = (*slot).max(pick(ulen, i));
        }
    }
    let picks: Vec<usize> = best.iter().flatten().map(|&(_, _, e)| e as usize).collect();
    let bytes = std::mem::size_of_val(best.as_slice()) + std::mem::size_of_val(picks.as_slice());
    grid.world().record_mem_transient(bytes);
    picks
}

/// The codes of read `id`, which the block-aligned fetch brought here.
fn fetched(seqs: &ReadStore, id: u64) -> &[u8] {
    seqs.get(id)
        .unwrap_or_else(|| panic!("read {id} not fetched"))
}

/// The stage's [`PassSweep`]: candidates stream through bounded batches
/// aligned on [`OverlapConfig::threads`] workers, one alignment scratch
/// per worker, and classification consumes each batch in entry order.
struct AlignSweep<'a> {
    grid: &'a ProcGrid,
    c: &'a DistMat<SharedSeeds>,
    seqs: &'a ReadStore,
    cfg: &'a OverlapConfig,
    scratches: Vec<AlignScratch>,
    batch: Vec<(u64, u64, &'a SharedSeeds)>,
    verdicts: Verdicts,
    contained: DistVec<bool>,
    peak_batch: usize,
    fanned: usize,
}

impl PassSweep for AlignSweep<'_> {
    fn sweep(&mut self, select: &mut Select<'_>, route_dovetails: bool) {
        let (c, seqs, cfg) = (self.c, self.seqs, self.cfg);
        let (r0, c0) = c.local_offsets(self.grid);
        let batch_pairs = self.scratches.len() * ALIGN_PAIRS_PER_WORKER_BATCH;
        let mut candidates = (c.iter_global(self.grid).enumerate())
            .filter(|&(e, (i, j, seeds))| {
                let may_contain = |t_is_row: bool| {
                    let (ulen, vlen) = (fetched(seqs, i).len(), fetched(seqs, j).len());
                    pair_may_contain(seeds, t_is_row, ulen, vlen, cfg)
                };
                select(e, i as usize - r0, j as usize - c0, &may_contain)
            })
            .map(|(_, candidate)| candidate);
        loop {
            self.batch.clear();
            self.batch.extend(candidates.by_ref().take(batch_pairs));
            if self.batch.is_empty() {
                break;
            }
            self.peak_batch = self.peak_batch.max(self.batch.len());
            let workers = if self.batch.len() < MIN_PAR_CANDIDATES {
                1
            } else {
                self.scratches.len()
            };
            self.fanned = self.fanned.max(workers);
            let batch = &self.batch;
            let alns = elba_par::run_indexed_with(
                batch.len(),
                &mut self.scratches[..workers],
                |p, scratch| {
                    let (i, j, seeds) = batch[p];
                    align_pair_counted(scratch, fetched(seqs, i), fetched(seqs, j), seeds, cfg)
                },
            );
            for (&(i, j, _), aln) in batch.iter().zip(alns) {
                self.verdicts.record((i, j), aln, cfg, route_dovetails);
            }
        }
    }

    fn mask_round(&mut self) -> (Vec<bool>, Vec<bool>) {
        let marks = std::mem::take(&mut self.verdicts.marks);
        self.contained
            .scatter_combine(self.grid, marks, |acc, v| *acc |= v);
        self.contained.fetch_aligned(self.grid)
    }
}

/// Align and classify the local candidates that can still change the
/// graph, in the three passes of the module doc (collective: the
/// sequence fetch and the mask rounds). Returns the dovetail edge
/// triples (both directions), the contained-read mask, and global
/// statistics. The mask and the triples `overlap_graph` keeps are those
/// of aligning every candidate. Each pass streams its candidates
/// through bounded batches aligned on [`OverlapConfig::threads`]
/// intra-rank workers, one alignment scratch per worker, with
/// classification consuming each batch's alignments in entry order — so
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
    let picks = pass1_picks(grid, c, &seqs, cfg);
    let threads = cfg.threads.max(1);
    let mut sweep = AlignSweep {
        grid,
        c,
        seqs: &seqs,
        cfg,
        scratches: (0..threads).map(|_| AlignScratch::default()).collect(),
        batch: Vec::with_capacity(threads * ALIGN_PAIRS_PER_WORKER_BATCH),
        verdicts: Verdicts::default(),
        contained: DistVec::from_fn(grid, store.n_global(), |_| false),
        peak_batch: 0,
        fanned: 1,
    };
    let candidates = c.local().nnz();
    let done = containment_first(candidates, picks, &mut sweep);
    let AlignSweep {
        scratches,
        verdicts:
            Verdicts {
                triples,
                marks,
                mut stats,
            },
        mut contained,
        peak_batch,
        fanned,
        ..
    } = sweep;
    let world = grid.world();
    world.record_par_time(elba_par::take_par_secs());
    // Scratch beyond worker 0's alignment scratch (uncharged, the
    // `SpGemmBatcher::scratch_bytes` convention): each other worker that
    // ran, at every buffer's high water over all workers, plus the
    // batch's pair and alignment buffers. The high water over all
    // workers is that of the stage's extensions, whichever worker
    // claimed which, so the charge repeats from run to run. The pass
    // state rides along: the aligned-entry bits and a mask round's view
    // of the block's rows and columns.
    let (ws_high, rc_high) = scratches
        .iter()
        .fold((BufferHighWater::default(), 0), |(ws_high, rc_high), s| {
            (ws_high.max(s.ws.high_water()), rc_high.max(s.v_rc.len()))
        });
    let scratch = (fanned - 1) * (ws_high.bytes() + rc_high)
        + peak_batch
            * (std::mem::size_of::<(u64, u64, &SharedSeeds)>()
                + std::mem::size_of::<(Option<OverlapAln>, PairCounts)>());
    let mask_view = std::mem::size_of::<bool>() * (c.local().nrows() + c.local().ncols());
    world.record_mem_transient(scratch + done.heap_bytes() + mask_view);
    contained.scatter_combine(grid, marks, |acc, v| *acc |= v);
    stats.candidate_pairs = candidates as u64;
    stats.skipped_pairs = (candidates - done.count()) as u64;
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
    // No two triples share a coordinate: `C` holds each read pair once
    // (strict upper), the `done` bits align each entry at most once, and
    // `align_pair` returns one alignment per pair, whose dovetail routes
    // `(i, j)` and `(j, i)`.
    let r = DistMat::from_triples(grid, n_reads, n_reads, triples, |_, _| {
        unreachable!("one dovetail per read pair and direction")
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
        // Acceptance check for the pipelined SUMMA: a profiled
        // DetectOverlap phase must (a) produce the candidate matrix the
        // general product gives, pruned to `r < c`, and (b) attribute
        // non-blocking wait time in its own bucket, with its stage
        // transfers visible — proving the overlap is instrumented, not
        // just claimed. The general product's blocking broadcasts never
        // park in a request wait.
        let (out, profile) = elba_comm::Runner::new(Backend::InProcess)
            .ranks(4)
            .run_profiled(move |comm| {
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
                let c = {
                    let _g = grid.world().phase("DetectOverlap");
                    candidate_matrix(&grid, &a, &cfg)
                };
                let general = {
                    let at = a.transpose(&grid);
                    let _g = grid.world().phase("GeneralProduct");
                    a.spgemm_with(&grid, &at, &OverlapSemiring, 1)
                        .prune(&grid, |r, c, _| r < c)
                };
                let gathered = |m: &DistMat<SharedSeeds>| {
                    let mut triples = m.gather_triples(&grid);
                    triples.sort_unstable_by_key(|&(r, s, _)| (r, s));
                    triples
                };
                (gathered(&c), gathered(&general))
            });
        assert_eq!(
            profile.max_wait_secs("GeneralProduct"),
            0.0,
            "the general product's blocking broadcasts never park in a request wait"
        );
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
        // Each block goes only to the ranks that multiply with it:
        // q³ − q(q+1)/2 = 5 direct sends on the 2×2 grid, and no
        // broadcast.
        let sends: u64 = phases().map(|p| p.p2p_msgs).sum();
        assert_eq!(sends, 5, "one send per (block, destination) pair");
        assert!(phases().all(|p| p.coll_calls() == 0), "no collective");
        let (candidates, general) = &out[0];
        assert!(!candidates.is_empty(), "a candidate matrix worth comparing");
        assert_eq!(
            candidates, general,
            "the candidates must be the general product's upper triangle"
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
    fn each_seed_is_extended_unless_covered_or_its_strand_is_spent() {
        use crate::semirings::Seed;
        // u = g[0..200) and v = g[100..300) overlap on diagonal 100; v
        // also carries a copy of u[10..25) at 150, on diagonal -140,
        // whose extension dies in the random flanks.
        let g = genome(300, 9);
        let u = g.substring(0, 200);
        let mut v = g.substring(100, 300).codes().to_vec();
        v[150..165].copy_from_slice(&u.codes()[10..25]);
        let seed = |pos_v, pos_h, same_strand| Seed {
            pos_v,
            pos_h,
            same_strand,
        };
        let pair = |a: Seed, b: Seed| {
            let mut seeds = SharedSeeds::single(a);
            seeds.merge(SharedSeeds::single(b));
            assert_eq!(seeds.seeds(), [a, b]);
            seeds
        };
        let on_overlap = seed(120, 20, true);
        // Per case, `(extended, skipped, the overlap wins)` under `Chain`
        // and under `BestOnly`.
        let cases = [
            // The first alignment covers the second seed's anchor.
            (
                "covered mate",
                pair(on_overlap, seed(160, 60, true)),
                (1, 1, true),
                (1, 1, true),
            ),
            // Same strand, off the diagonal of the first (short)
            // alignment: extended unless its strand is spent.
            (
                "same strand",
                pair(seed(10, 150, true), on_overlap),
                (2, 0, true),
                (1, 1, false),
            ),
            // The opposite strand is never covered nor spent.
            (
                "other strand",
                pair(on_overlap, seed(40, 30, false)),
                (2, 0, true),
                (2, 0, true),
            ),
        ];
        for (name, seeds, chain, best_only) in cases {
            for (chaining, (chains, skipped, overlap_wins)) in [
                (SeedChaining::Chain, chain),
                (SeedChaining::BestOnly, best_only),
            ] {
                let cfg = OverlapConfig {
                    chaining,
                    ..test_cfg()
                };
                let (aln, counts) =
                    align_pair_counted(&mut AlignScratch::default(), u.codes(), &v, &seeds, &cfg);
                assert_eq!(
                    counts,
                    PairCounts { chains, skipped },
                    "{name}, {chaining:?}"
                );
                let aln = aln.expect("alignment");
                assert_eq!(
                    (aln.rc, aln.u_beg, aln.w_beg) == (false, 100, 0),
                    overlap_wins,
                    "{name}, {chaining:?}: {aln:?}"
                );
            }
        }
    }

    /// `codes` with each base substituted, deleted or followed by an
    /// inserted base at `rate`.
    fn mutate(codes: &[u8], rate: f64, rng: &mut StdRng) -> Vec<u8> {
        let mut out = Vec::with_capacity(codes.len());
        for &b in codes {
            if !rng.gen_bool(rate) {
                out.push(b);
                continue;
            }
            match rng.gen_range(0..3) {
                0 => out.push((b + rng.gen_range(1..4u8)) % 4),
                1 => {}
                _ => out.extend([b, rng.gen_range(0..4u8)]),
            }
        }
        out
    }

    #[test]
    fn where_the_bound_rules_a_read_out_no_extension_reaches_its_end() {
        // Pairs drawn from one genome: identical, 0.5 % and 15 %
        // divergent, and 0.5 % with unrelated tails on both reads.
        // Every seed position on the pair's diagonal is extended by the
        // scalar oracle and by the greedy walk, and read against the
        // bound for both reads and both directions at several `fuzz`.
        let scorings = [
            Scoring::default(),
            Scoring {
                match_score: 2,
                mismatch: -3,
                gap: -2,
            },
            Scoring {
                match_score: 3,
                mismatch: -1,
                gap: -1,
            },
            Scoring {
                match_score: 1,
                mismatch: 1,
                gap: -1,
            },
            Scoring {
                match_score: 0,
                mismatch: -1,
                gap: -1,
            },
            Scoring {
                match_score: -1,
                mismatch: -2,
                gap: -1,
            },
        ];
        let mut rng = StdRng::seed_from_u64(50);
        let mut scalar = XdropWorkspace::with_kernel(elba_align::XdropKernel::Scalar);
        let mut greedy = XdropWorkspace::default();
        let k = 11;
        let (mut ruled_out, mut directions) = ([0usize; 4], 0usize);
        for case in 0..96 {
            let kind = case % 4;
            let g = genome(400, 500 + case as u64).codes().to_vec();
            let (us, vs) = (rng.gen_range(0..120usize), rng.gen_range(0..120usize));
            let (ulen, vlen) = (rng.gen_range(k..260), rng.gen_range(k..260));
            let mut u = g[us..us + ulen].to_vec();
            let mut v = g[vs..vs + vlen].to_vec();
            let rate = [0.0, 0.005, 0.15, 0.005][kind];
            v = mutate(&v, rate, &mut rng);
            if kind == 3 {
                let tail = |rng: &mut StdRng| -> Vec<u8> {
                    (0..rng.gen_range(1..80))
                        .map(|_| rng.gen_range(0..4u8))
                        .collect()
                };
                u.extend(tail(&mut rng));
                v.extend(tail(&mut rng));
            }
            let sc = scorings[rng.gen_range(0..scorings.len())];
            let xdrop = [5, 15, 40][rng.gen_range(0..3)];
            let fuzzes = [0, rng.gen_range(1..30), rng.gen_range(30..120)];
            let (ulen, vlen) = (u.len(), v.len());
            for u_pos in 0..=ulen.saturating_sub(k) {
                // The seed's diagonal in the genome.
                let Some(w_pos) = (us + u_pos).checked_sub(vs).filter(|&q| q + k <= vlen) else {
                    continue;
                };
                let seed = Seed {
                    pos_v: u_pos as u32,
                    pos_h: w_pos as u32,
                    same_strand: true,
                };
                let placed = OrientedSeed::place(&seed, k, ulen, vlen).expect("the seed fits");
                let alns = [
                    extend_seed_with(&mut scalar, &u, &v, u_pos, w_pos, k, xdrop, sc),
                    extend_seed_greedy(&mut greedy, &u, &v, u_pos, w_pos, k, xdrop, sc),
                ];
                for fuzz in fuzzes {
                    let cfg = OverlapConfig {
                        k,
                        xdrop,
                        scoring: sc,
                        fuzz,
                        ..OverlapConfig::default()
                    };
                    for t_is_u in [true, false] {
                        let (t_len, t_pos, r_len, r_pos) = if t_is_u {
                            (ulen, u_pos, vlen, w_pos)
                        } else {
                            (vlen, w_pos, ulen, u_pos)
                        };
                        let left = extension_may_reach(t_pos, r_pos, fuzz, sc);
                        let right =
                            extension_may_reach(t_len - t_pos - k, r_len - r_pos - k, fuzz, sc);
                        assert_eq!(
                            placed.may_reach_ends(t_is_u, ulen, vlen, &cfg),
                            left && right
                        );
                        directions += 2;
                        for (which, aln) in alns.iter().enumerate() {
                            let (beg, end) = if t_is_u {
                                (aln.a_beg, aln.a_end)
                            } else {
                                (aln.b_beg, aln.b_end)
                            };
                            let at = format!(
                                "case {case} ({kind}), extender {which}, seed ({u_pos}, \
                                 {w_pos}), fuzz {fuzz}, t_is_u {t_is_u}, {sc:?}: {aln:?}"
                            );
                            if !left {
                                assert!(beg > fuzz, "left reaches t's start: {at}");
                                ruled_out[2 * which] += 1;
                            }
                            if !right {
                                assert!(t_len - 1 - end > fuzz, "right reaches t's end: {at}");
                                ruled_out[2 * which + 1] += 1;
                            }
                            if !(left && right) {
                                let verdict =
                                    classify(&OverlapAln::from_seed(*aln, false, ulen, vlen), fuzz);
                                let contains_t = if t_is_u {
                                    OverlapClass::ContainedU
                                } else {
                                    OverlapClass::ContainedV
                                };
                                assert_ne!(verdict, contains_t, "t contained: {at}");
                            }
                        }
                    }
                }
            }
        }
        // Both directions of both extenders are exercised, on a fair
        // share of the directions read.
        assert!(
            ruled_out.iter().all(|&n| 20 * n > directions / 2),
            "{ruled_out:?} of {directions}"
        );
    }

    #[test]
    fn the_bound_is_tight_on_every_short_binary_pair() {
        // One direction alone, on every pair of binary sequences of up to
        // six bases: where the bound rules `t`'s end out, neither the
        // oracle nor the greedy walk reaches it, and on some pairs both
        // reach it where the bound only just allows it (an insertion in
        // `t` paid back by the matches after it).
        let seqs: Vec<Vec<u8>> = (0..=6usize)
            .flat_map(|n| {
                (0..1u32 << n).map(move |bits| (0..n).map(|i| (bits >> i & 1) as u8).collect())
            })
            .collect();
        let scorings = [
            Scoring::default(),
            Scoring {
                match_score: 2,
                mismatch: -3,
                gap: -2,
            },
        ];
        let mut scalar = XdropWorkspace::with_kernel(elba_align::XdropKernel::Scalar);
        let mut tight = 0;
        for sc in scorings {
            for (a, b) in seqs.iter().flat_map(|a| seqs.iter().map(move |b| (a, b))) {
                let exts = [
                    elba_align::xdrop_extend_with(&mut scalar, a, b, 15, sc),
                    elba_align::greedy_extend(a, b, 15, sc),
                ];
                for fuzz in 0..3 {
                    // `t` is `a`; the swapped pair covers `t` = `b`.
                    let Some(need) = a.len().checked_sub(fuzz).filter(|&n| n > b.len()) else {
                        continue;
                    };
                    let may_reach = extension_may_reach(a.len(), b.len(), fuzz, sc);
                    let reached = exts.map(|ext| ext.a_len >= need);
                    assert!(
                        may_reach || reached == [false; 2],
                        "{a:?} {b:?} fuzz {fuzz}: {exts:?}"
                    );
                    let bound = i64::from(sc.match_score) * b.len() as i64
                        + i64::from(sc.gap) * (need - b.len()) as i64;
                    tight +=
                        usize::from(reached == [true; 2] && bound <= 2 * sc.match_score as i64);
                }
            }
        }
        assert!(tight > 0, "no pair reaches t's end at the bound's edge");
    }

    #[test]
    fn the_bound_rules_nothing_out_unless_gaps_cost_and_mismatches_do_not_pay() {
        let scorings = [(1, -1, 0), (1, -1, 1), (1, 2, -1), (0, 1, -2), (-1, 0, -1)];
        for (match_score, mismatch, gap) in scorings {
            let sc = Scoring {
                match_score,
                mismatch,
                gap,
            };
            for (rem_t, rem_r, fuzz) in (0..60).flat_map(|t| {
                (0..30).flat_map(move |r| [0, 1, 7].map(move |fuzz| (t * 7, r, fuzz)))
            }) {
                assert!(
                    extension_may_reach(rem_t, rem_r, fuzz, sc),
                    "{sc:?}: ({rem_t}, {rem_r}, fuzz {fuzz})"
                );
            }
        }
        // Where the scoring qualifies, the same grid does rule out.
        assert!(!extension_may_reach(100, 10, 7, Scoring::default()));
    }

    /// A candidate pair's verdict, as the pass schedule sees it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Verdict {
        Dovetail,
        ContainedU,
        ContainedV,
        Internal,
        Rejected,
    }

    /// [`PassSweep`] over a table of verdicts on one rank, whose block
    /// is the whole read set: aligning a pair reads its verdict. Pass 3's
    /// bound reads `bound_rules_out[e]`: whether it rules out containing
    /// the pair's `u`, and its `v`.
    struct VerdictTable {
        pairs: Vec<(usize, usize, Verdict)>,
        bound_rules_out: Vec<[bool; 2]>,
        aligned: Vec<bool>,
        pending: Vec<usize>,
        contained: Vec<bool>,
        routed: Vec<(usize, usize)>,
    }

    impl PassSweep for VerdictTable {
        fn sweep(&mut self, select: &mut Select<'_>, route_dovetails: bool) {
            for (e, &(u, v, verdict)) in self.pairs.iter().enumerate() {
                let may_contain = |t_is_u: bool| !self.bound_rules_out[e][usize::from(!t_is_u)];
                if !select(e, u, v, &may_contain) {
                    continue;
                }
                assert!(!self.aligned[e], "pair {e} aligned twice");
                self.aligned[e] = true;
                match verdict {
                    Verdict::ContainedU => self.pending.push(u),
                    Verdict::ContainedV => self.pending.push(v),
                    Verdict::Dovetail if route_dovetails => self.routed.push((u, v)),
                    _ => {}
                }
            }
        }

        fn mask_round(&mut self) -> (Vec<bool>, Vec<bool>) {
            for u in self.pending.drain(..) {
                self.contained[u] = true;
            }
            (self.contained.clone(), self.contained.clone())
        }
    }

    #[test]
    fn three_passes_reproduce_the_one_pass_mask_and_dovetails() {
        const VERDICTS: [Verdict; 5] = [
            Verdict::Dovetail,
            Verdict::ContainedU,
            Verdict::ContainedV,
            Verdict::Internal,
            Verdict::Rejected,
        ];
        let mut rng = StdRng::seed_from_u64(46);
        let (mut skipped, mut ruled_out) = (0, 0);
        for case in 0..2000 {
            let n = rng.gen_range(2..24usize);
            let density = rng.gen_range(0.05..1.0f64);
            let mut pairs: Vec<(usize, usize, Verdict)> = Vec::new();
            for (u, v) in (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))) {
                if rng.gen_bool(density) {
                    pairs.push((u, v, VERDICTS[rng.gen_range(0..VERDICTS.len())]));
                }
            }
            // The bound may rule out containing a read only where the
            // verdict does not contain it; how often it does is the
            // table's choice.
            let rule_out_rate = rng.gen_range(0.0..1.0f64);
            let bound_rules_out: Vec<[bool; 2]> = (pairs.iter())
                .map(|&(_, _, verdict)| {
                    [
                        verdict != Verdict::ContainedU && rng.gen_bool(rule_out_rate),
                        verdict != Verdict::ContainedV && rng.gen_bool(rule_out_rate),
                    ]
                })
                .collect();
            // One pass: every verdict is read, every mark OR-ed in, and
            // the dovetails of unmarked reads survive.
            let mut one_pass = vec![false; n];
            for &(u, v, verdict) in &pairs {
                match verdict {
                    Verdict::ContainedU => one_pass[u] = true,
                    Verdict::ContainedV => one_pass[v] = true,
                    _ => {}
                }
            }
            let survivors = |dovetails: &mut dyn Iterator<Item = (usize, usize)>| {
                let mut kept: Vec<(usize, usize)> = dovetails
                    .filter(|&(u, v)| !one_pass[u] && !one_pass[v])
                    .collect();
                kept.sort_unstable();
                kept
            };
            let want = survivors(
                &mut (pairs.iter())
                    .filter(|&&(_, _, verdict)| verdict == Verdict::Dovetail)
                    .map(|&(u, v, _)| (u, v)),
            );
            // Pass 1 picks any entries at all: exactness may not depend
            // on them.
            let pick_rate = rng.gen_range(0.0..1.0f64);
            let picks: Vec<usize> = (0..pairs.len())
                .filter(|_| rng.gen_bool(pick_rate))
                .collect();
            let mut table = VerdictTable {
                aligned: vec![false; pairs.len()],
                pairs,
                bound_rules_out,
                pending: Vec::new(),
                contained: vec![false; n],
                routed: Vec::new(),
            };
            let done = containment_first(table.pairs.len(), picks, &mut table);
            let (mask, _) = table.mask_round();
            assert_eq!(mask, one_pass, "case {case}: contained mask");
            let routed = table.routed.clone();
            assert_eq!(
                survivors(&mut routed.into_iter()),
                want,
                "case {case}: surviving dovetails"
            );
            let aligned = table.aligned.iter().filter(|&&a| a).count();
            assert_eq!(done.count(), aligned, "case {case}: aligned entries");
            // A skipped pair has both reads contained, or the bound ruled
            // out containing its one uncontained read.
            for (e, &(u, v, _)) in table.pairs.iter().enumerate() {
                if table.aligned[e] || (mask[u] && mask[v]) {
                    continue;
                }
                let [u_out, v_out] = table.bound_rules_out[e];
                let t_ruled_out = if mask[u] { v_out } else { mask[v] && u_out };
                assert!(t_ruled_out, "case {case}: ({u}, {v}) skipped");
                ruled_out += 1;
            }
            skipped += table.pairs.len() - aligned;
        }
        assert!(
            skipped > ruled_out,
            "the tables must skip pairs of contained reads"
        );
        assert!(ruled_out > 0, "the tables must exercise pass 3's bound");
    }

    #[test]
    fn a_pair_of_reads_contained_in_a_third_is_never_aligned() {
        // Reads 1 and 2 lie inside read 0 and overlap each other (read 2
        // reverse-complemented); read 3 dovetails reads 0 and 2. Pass 1
        // marks 1 and 2, pass 2 aligns the one pair of uncontained reads
        // (0, 3), and (1, 2) is never aligned. Neither is (2, 3): read 3
        // runs 150 bases past its 50-base overlap with read 2, so pass
        // 3's bound rules out containing it.
        let mut runs = Vec::new();
        for p in [1usize, 4] {
            let out = Runner::new(Backend::InProcess).ranks(p).run(|comm| {
                let grid = ProcGrid::new(comm);
                let g = genome(500, 13);
                let reads = vec![
                    g.substring(0, 400),
                    g.substring(50, 250),
                    g.substring(150, 350).reverse_complement(),
                    g.substring(300, 500),
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
                    4,
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
                let r = overlap_graph(&grid, 4, triples, &contained);
                let mut edges = r.gather_triples(&grid);
                edges.sort_by_key(|&(i, j, _)| (i, j));
                (edges, contained.to_global(&grid), stats)
            });
            let (edges, contained, stats) = out.into_iter().next().expect("rank 0");
            assert_eq!(
                stats.candidate_pairs, 5,
                "p={p}: (0,1) (0,2) (0,3) (1,2) (2,3)"
            );
            assert_eq!(
                (stats.skipped_pairs, stats.aligned_pairs),
                (2, 3),
                "p={p}: (1, 2) and (2, 3) are skipped"
            );
            assert_eq!(contained, [false, true, true, false], "p={p}: mask");
            let pattern: Vec<(u64, u64)> = edges.iter().map(|&(i, j, _)| (i, j)).collect();
            assert_eq!(pattern, [(0, 3), (3, 0)], "p={p}: R");
            runs.push(edges);
        }
        assert_eq!(runs[0], runs[1], "R's edges at p = 1 and p = 4");
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
