//! X-drop seed-and-extend pairwise alignment (Zhang et al. 2000), the
//! kernel diBELLA 2D / ELBA apply to every nonzero of the candidate
//! overlap matrix `C`. Extension proceeds over antidiagonals with a band
//! that drops cells scoring more than `x` below the running best — the
//! same scheme as SeqAn's / LOGAN's x-drop, including its signature
//! behaviour of *ending alignments early* in noisy regions (which is why
//! ELBA must store `post(e)` explicitly, §4.4).
//!
//! Three exact implementations of that recurrence live here — the scalar
//! oracle, the band kernel and the cost-ordered wavefront, the last two
//! composed as [`XdropKernel::BitParallel`] — plus the approximate
//! [`greedy_extend`] behind the opt-in fast seed mode.
//!
//! # The wavefront, and why it is exact
//!
//! The wavefront is the diagonal-transition idea of Zhang et al. and of
//! WFA (Marco-Sola et al. 2021) applied to the antidiagonal x-drop. Give
//! the cell `(i, j)` with score `V` the cost `c = mat·(i + j) − 2V`. A
//! match costs 0, a mismatch `M = 2(mat − mis)` and a gap
//! `G = mat − 2·gap`, all ≥ 0 when `mat > 0`, `mis < mat` and `gap ≤ 0`.
//! The kernel reaches cells in increasing `c`. It keeps the furthest live
//! offset per (cost, diagonal) in a ring of `max(M, G) + 1` layers and
//! slides match runs with `common_prefix`. Three facts make it return
//! the scalar oracle's `Extension`:
//!
//! 1. **The cut is decided by cheaper cells.** The oracle prunes a cell
//!    `p = (d, j)` (`d = i + j`) of score `V` iff a live cell before it in
//!    antidiagonal order (`(d', j') < (d, j)`) scores more than `V + x`.
//!    Such a cell costs `mat·d' − 2V' < c − 2x ≤ c`, so it was reached in
//!    an earlier layer, and cells of one cost never cut each other. The
//!    kernel keeps `first[ℓ]`, the earliest reached live cell scoring
//!    `≥ ℓ`, and cuts `p` iff `first[V + x + 1] < (d, j)`. `first` is
//!    indexed from level 0: the origin is the first cell of every level
//!    `≤ 0`. The oracle returns its earliest best cell, which is
//!    `(top, first[top])`.
//! 2. **Dominance along a diagonal.** Let `p` be reached first at cost
//!    `c`, and let `p' = (d + 2t, j + t)` lie on its diagonal. Write
//!    `β(p)` for the best live score before `p`. With `gap ≤ 0` and
//!    `mis < mat`, a path gains at most `mat` per two antidiagonals. A
//!    live cell after `p` and before `p'` descends from `p` or from a
//!    live cell before `p` on antidiagonal `d − 1` or `d − 2`; the one
//!    path that gains `mat·(t + 1)` from `d − 2` is `t + 1` diagonal steps,
//!    which pass through a cell before `p`, through `p`, or end after
//!    `p'`. So every live cell between them scores at most
//!    `max(β(p), V) + mat·t`. Two consequences:
//!    - a match run from a live `p` is never cut: its cell `p'` scores
//!      `V + mat·t` (debug builds assert this cell by cell);
//!    - if a point `p'` at no greater cost (`V' ≥ V + mat·t`) is cut, so
//!      is `p`; if `p'` is live, `p`'s run and children lie behind
//!      `p'`'s. So the kernel keeps only the furthest point per
//!      (cost, diagonal), and skips an entry at or behind `reach`, the
//!      furthest offset examined on its diagonal at a lower cost.
//! 3. **No costlier cell beats the best.** Only gaps change the diagonal
//!    `k = j − i`, and each costs `G`, so a cell of cost `c'` has
//!    `|k| ≤ c'/G`. Its antidiagonal `d = 2·min(i, j) + |k|` is at most
//!    `min(n + m, 2·min(n, m) + |k|)` on `|a| = n`, `|b| = m`, and it
//!    scores `V = (mat·d − c')/2`, so
//!    `V ≤ B(c') = (mat·min(n + m, 2·min(n, m) + c'/G) − c')/2`.
//!    `G = mat − 2·gap ≥ mat`, so `B` never rises with `c'`. At the start
//!    of layer `c`, once `B(c) < top + 1`, no later cell scores above
//!    `top`, and one scoring exactly `top` costs more than the best cell,
//!    so it lies on a later antidiagonal: its key is later and
//!    `first[top]` stands. The kernel ends there, testing
//!    `mat·min(G(n + m), 2G·min(n, m) + c) − G·c < 2G·(top + 1)` in
//!    integers. The bound must stay continuous in `c`: with `⌊c/G⌋` it
//!    rises once every `G` layers and would end a search before a layer
//!    that still raises `top`.
//!
//! Otherwise the search ends when `max(M, G)` layers in a row are empty.
//! The wavefront's work follows the edit cost: a 1 kb extension at
//! 0.5 % divergence visits about 0.1–0.3 diagonals per antidiagonal
//! where the band fills about 11 cells. At 15 % divergence it visits
//! more than the band fills, so [`XdropKernel::BitParallel`] gives it a
//! budget and hands an extension that exceeds it to the band kernel.

/// Alignment scoring (linear gaps, as in BELLA).
#[derive(Debug, Clone, Copy)]
pub struct Scoring {
    pub match_score: i32,
    pub mismatch: i32,
    pub gap: i32,
}

impl Default for Scoring {
    fn default() -> Self {
        Scoring {
            match_score: 1,
            mismatch: -1,
            gap: -1,
        }
    }
}

/// Result of extending in one direction from a seed boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extension {
    /// Best score achieved (≥ 0; 0 means no extension).
    pub score: i32,
    /// Bases of the first sequence consumed by the best extension.
    pub a_len: usize,
    /// Bases of the second sequence consumed.
    pub b_len: usize,
}

const NEG: i32 = i32::MIN / 4;

/// Which inner-loop implementation [`xdrop_extend_with`] runs. Every
/// kernel computes the identical antidiagonal recurrence; the choice
/// never changes scores or extents. The pipeline always runs
/// `BitParallel`; the scalar DP exists for tests and the benchmark's
/// probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum XdropKernel {
    /// The reference cell-at-a-time DP — the oracle the other kernels are
    /// property-pinned against.
    Scalar,
    /// The composite of the two fast exact kernels. The variant keeps the
    /// name it had when it packed match bits into 64-lane words, because
    /// the benchmark spells it that way.
    ///
    /// * **The wavefront** (module docs) runs first. Its work grows with
    ///   the edit cost, not with the band area. It runs while its
    ///   diagonal visits stay within `WAVE_VISITS_PER_ANTIDIAGONAL` (2) per
    ///   antidiagonal reached.
    /// * **The band kernel** restarts an extension that exceeds that
    ///   budget. Antidiagonals live in buffers indexed by the absolute
    ///   `b` coordinate with a pruned-cell sentinel either side, so every
    ///   cell loads its three parents unconditionally, and the match term
    ///   is a byte compare of `b` against a reversed copy of `a`.
    ///
    /// Both are exact, so the switch changes time only. Scorings outside
    /// `mat > 0`, `mis < mat`, `gap ≤ 0`, `max(M, G) ≤ 64` run the band
    /// kernel alone. Steps beyond ±2^20 and x-drops outside `0..=2^26`,
    /// which defeat the band's sentinel arithmetic, run the scalar
    /// oracle, so output equality holds on *all* inputs.
    #[default]
    BitParallel,
}

/// Largest `|match|`/`|mismatch|`/`|gap|` the band kernel accepts.
/// A live cell scores at least `-XDROP_CLAMP` (it passed a cut of
/// `best - xdrop` with `best >= 0`), so one step from a live parent
/// stays `>= -(XDROP_CLAMP + STEP_CLAMP)` while one step from a
/// pruned-cell sentinel is at most `NEG + STEP_CLAMP`, far below any
/// cut: the x-drop comparison alone then reproduces the scalar path's
/// per-parent liveness checks exactly. Out-of-range scorings run the
/// scalar oracle instead.
const STEP_CLAMP: i32 = 1 << 20;
/// Largest `xdrop` the fast kernels accept (see [`STEP_CLAMP`]).
const XDROP_CLAMP: i32 = 1 << 26;
/// Debug builds fill the band buffers with this before every band
/// extension and assert it is never loaded as a parent — the check
/// behind "stale cells outside the written window are never read".
const POISON: i32 = i32::MAX;
/// The wavefront's budget: diagonal visits per antidiagonal reached (κ).
/// A visit costs about 8 band cells, so the wavefront wins below about
/// 1.5 (x = 7) to 3 (x = 15) visits per antidiagonal; with the stop
/// bound, the extensions dumped from `hifi_p1t1` average 0.29 (0.65
/// without it) and those from `noisy_p1t1` 7.7 (README "Alignment" has
/// the table). Every extension starts with a few expensive
/// antidiagonals near the origin, so a larger κ, or visits granted
/// beyond κ per antidiagonal, keeps a few more hifi extensions but makes
/// every noisy one waste more visits before it hands over.
const WAVE_VISITS_PER_ANTIDIAGONAL: usize = 2;
/// Largest step cost `max(M, G)` the wavefront runs with: its ring holds
/// that many layers plus one, and `first` one level per `mat`.
const WAVE_MAX_STEP: i64 = 64;
/// An empty (cost, diagonal) slot of the wavefront ring. Far enough
/// below zero that `+ 1` stays negative.
const NO_OFFSET: i32 = i32::MIN / 2;

/// Reusable buffers for [`xdrop_extend_with`] / [`extend_seed_with`]:
/// the three rotating antidiagonal bands, the wavefront's cost ring and
/// level table, plus the reversed-sequence staging buffers. One
/// workspace serves any number of seed extensions in sequence — the
/// overlap stage holds one per worker and sweeps it over every pair it
/// aligns, so the innermost alignment kernel stops paying a fresh set of
/// allocations per read pair. A default-constructed workspace is empty;
/// buffers grow to the largest extension seen and are then reused at
/// that size.
///
/// The workspace also pins the [`XdropKernel`] used by every extension
/// run through it (default [`XdropKernel::BitParallel`]). The scalar oracle
/// keeps only the live band in the band buffers. The wavefront holds
/// `max(M, G) + 1` layers of `|a| + |b| + 1` offsets and one level per
/// `mat` of the best score; the band kernel sizes its buffers to
/// `|b| + 3` cells each and stages `rev(a)` in `a_rev`.
#[derive(Debug, Default)]
pub struct XdropWorkspace {
    kernel: XdropKernel,
    band_a: Vec<i32>,
    band_b: Vec<i32>,
    band_c: Vec<i32>,
    wave: Vec<i32>,
    reach: Vec<i32>,
    first: Vec<u64>,
    a_rev: Vec<u8>,
    b_rev: Vec<u8>,
    held: BufferHighWater,
    /// Cells the last band extension computed, for the tests that count
    /// the wavefront's visits against them.
    #[cfg(test)]
    band_cells: usize,
    /// Whether the wavefront skips its stop bound, for the tests that
    /// count the visits the bound saves.
    #[cfg(test)]
    unstopped: bool,
}

/// Bytes per buffer of an [`XdropWorkspace`] at its high water
/// ([`XdropWorkspace::high_water`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferHighWater([usize; 8]);

impl BufferHighWater {
    /// Each buffer's larger high water of the two.
    pub fn max(self, other: Self) -> Self {
        BufferHighWater(std::array::from_fn(|i| self.0[i].max(other.0[i])))
    }

    /// The bytes of all buffers together.
    pub fn bytes(self) -> usize {
        self.0.iter().sum()
    }
}

/// What [`xdrop_extend_with`] runs for one scoring and x-drop.
#[derive(Clone, Copy)]
enum Route {
    Scalar,
    Band,
    /// The wavefront with these mismatch and gap costs, the band kernel
    /// when it exceeds its budget.
    Composite(WaveCosts),
}

/// The wavefront's step costs: `M = 2(mat − mis)` and `G = mat − 2·gap`.
#[derive(Clone, Copy)]
struct WaveCosts {
    mismatch: usize,
    gap: usize,
}

impl XdropWorkspace {
    /// A workspace whose extensions run the given kernel.
    pub fn with_kernel(kernel: XdropKernel) -> Self {
        XdropWorkspace {
            kernel,
            ..Self::default()
        }
    }

    /// The kernel this workspace dispatches to.
    pub fn kernel(&self) -> XdropKernel {
        self.kernel
    }

    /// Heap bytes of the workspace's band, wavefront and staging
    /// buffers, each at its high water ([`XdropWorkspace::high_water`]).
    pub fn heap_bytes(&self) -> usize {
        self.high_water().bytes()
    }

    /// The most bytes each buffer has held, by length (like every
    /// tracker charge), at the end of an extension or now. It depends on
    /// which extensions ran, not on their order. The alignment stage
    /// charges each buffer's high water over all its workers once per
    /// extra worker, so threaded sweeps stay honest, and reproducible,
    /// in the `mem-hw` column.
    pub fn high_water(&self) -> BufferHighWater {
        let i32s = |v: &Vec<i32>| v.len() * std::mem::size_of::<i32>();
        let now = BufferHighWater([
            i32s(&self.band_a),
            i32s(&self.band_b),
            i32s(&self.band_c),
            i32s(&self.wave),
            i32s(&self.reach),
            self.first.len() * std::mem::size_of::<u64>(),
            self.a_rev.len(),
            self.b_rev.len(),
        ]);
        self.held.max(now)
    }

    /// Fold the buffers' lengths into their high water, before the next
    /// extension refills (and may shorten) them.
    fn note_high_water(&mut self) {
        self.held = self.high_water();
    }

    /// Which kernel an extension with these parameters runs.
    fn route(&self, xdrop: i32, sc: Scoring) -> Route {
        let step = -STEP_CLAMP..=STEP_CLAMP;
        if self.kernel == XdropKernel::Scalar
            || !step.contains(&sc.match_score)
            || !step.contains(&sc.mismatch)
            || !step.contains(&sc.gap)
            || !(0..=XDROP_CLAMP).contains(&xdrop)
        {
            return Route::Scalar;
        }
        let (mat, mis, gap) = (
            i64::from(sc.match_score),
            i64::from(sc.mismatch),
            i64::from(sc.gap),
        );
        let (m_cost, g_cost) = (2 * (mat - mis), mat - 2 * gap);
        if mat > 0 && mis < mat && gap <= 0 && m_cost.max(g_cost) <= WAVE_MAX_STEP {
            Route::Composite(WaveCosts {
                mismatch: m_cost as usize,
                gap: g_cost as usize,
            })
        } else {
            Route::Band
        }
    }
}

/// Refill `buf` with `src` reversed.
fn stage_rev(buf: &mut Vec<u8>, src: &[u8]) {
    buf.clear();
    buf.extend(src.iter().rev());
}

/// One-shot [`xdrop_extend_with`]: allocates a throwaway workspace.
/// Call sites extending many seeds should hold an [`XdropWorkspace`]
/// and use the `_with` variant.
pub fn xdrop_extend(a: &[u8], b: &[u8], xdrop: i32, sc: Scoring) -> Extension {
    xdrop_extend_with(&mut XdropWorkspace::default(), a, b, xdrop, sc)
}

/// Extend an alignment from `(0, 0)` over `a` and `b`, stopping when every
/// cell of the current antidiagonal falls more than `xdrop` below the best
/// score seen. Returns the best-scoring endpoint. The kernel buffers live
/// in `ws` and are reused across calls; the workspace's [`XdropKernel`]
/// picks the implementation, with every kernel guaranteed to return the
/// exact scalar-oracle result.
pub fn xdrop_extend_with(
    ws: &mut XdropWorkspace,
    a: &[u8],
    b: &[u8],
    xdrop: i32,
    sc: Scoring,
) -> Extension {
    let ext = match ws.route(xdrop, sc) {
        Route::Scalar => xdrop_extend_scalar(ws, a, b, xdrop, sc),
        Route::Band => xdrop_extend_band_staged(ws, a, b, xdrop, sc),
        Route::Composite(costs) => xdrop_extend_wave(ws, a, b, xdrop, sc, costs, true)
            .ext
            .unwrap_or_else(|| xdrop_extend_band_staged(ws, a, b, xdrop, sc)),
    };
    ws.note_high_water();
    ext
}

/// The band kernel over `a` as given: stages `rev(a)` in the workspace.
fn xdrop_extend_band_staged(
    ws: &mut XdropWorkspace,
    a: &[u8],
    b: &[u8],
    xdrop: i32,
    sc: Scoring,
) -> Extension {
    let mut a_rev = std::mem::take(&mut ws.a_rev);
    stage_rev(&mut a_rev, a);
    let ext = xdrop_extend_band(ws, &a_rev, b, xdrop, sc);
    ws.a_rev = a_rev;
    ext
}

/// The reference cell-at-a-time antidiagonal DP ([`XdropKernel::Scalar`]).
fn xdrop_extend_scalar(
    ws: &mut XdropWorkspace,
    a: &[u8],
    b: &[u8],
    xdrop: i32,
    sc: Scoring,
) -> Extension {
    if a.is_empty() || b.is_empty() {
        return Extension {
            score: 0,
            a_len: 0,
            b_len: 0,
        };
    }
    // Antidiagonal d holds cells (i, j) with i + j = d; arrays are indexed
    // by j relative to their live-band start. Only the live band is ever
    // scanned: a cell on antidiagonal d can only descend from live cells
    // on d-1 (gap moves: j, j-1) or d-2 (diagonal: j-1), so the candidate
    // window is the union of those shifted bands — the x-drop prune keeps
    // it O(error band), not O(sequence length).
    let (alen, blen) = (a.len(), b.len());
    let mut best = Extension {
        score: 0,
        a_len: 0,
        b_len: 0,
    };
    // (band values, j of first cell); empty vec = fully pruned level.
    // Three buffers (borrowed from the workspace, returned on exit)
    // rotate to avoid per-antidiagonal allocation in this innermost
    // pipeline kernel.
    let mut band = std::mem::take(&mut ws.band_a);
    band.clear();
    band.push(0);
    let mut prev: (Vec<i32>, usize) = (band, 0); // d = 0: cell (0,0)
    let mut band = std::mem::take(&mut ws.band_b);
    band.clear();
    let mut prev2: (Vec<i32>, usize) = (band, 0);
    let mut scratch: Vec<i32> = std::mem::take(&mut ws.band_c);
    scratch.clear();
    for d in 1..=(alen + blen) {
        let jmin = d.saturating_sub(alen);
        let jmax = d.min(blen);
        // Candidate window from the live parents.
        let mut lo_cand = usize::MAX;
        let mut hi_cand = 0usize;
        if !prev.0.is_empty() {
            lo_cand = lo_cand.min(prev.1); // gap from (i-1, j)
            hi_cand = hi_cand.max(prev.1 + prev.0.len()); // gap from (i, j-1)
        }
        if !prev2.0.is_empty() {
            lo_cand = lo_cand.min(prev2.1 + 1); // diagonal from (i-1, j-1)
            hi_cand = hi_cand.max(prev2.1 + prev2.0.len());
        }
        if lo_cand == usize::MAX {
            break; // both parent levels fully pruned
        }
        let lo_cand = lo_cand.max(jmin);
        let hi_cand = hi_cand.min(jmax);
        if lo_cand > hi_cand {
            // band slid off the matrix edge; nothing left to extend
            if prev.0.is_empty() {
                break;
            }
            // The dead level reuses the outgoing prev2 allocation so all
            // three buffers stay in the workspace rotation.
            let mut empty = std::mem::take(&mut prev2.0);
            empty.clear();
            prev2 = std::mem::replace(&mut prev, (empty, jmin));
            continue;
        }
        scratch.clear();
        scratch.resize(hi_cand - lo_cand + 1, NEG);
        let cur = &mut scratch;
        let fetch = |band: &(Vec<i32>, usize), j: usize| -> Option<i32> {
            j.checked_sub(band.1)
                .and_then(|idx| band.0.get(idx))
                .copied()
                .filter(|&v| v > NEG)
        };
        for j in lo_cand..=hi_cand {
            let i = d - j;
            let mut s = NEG;
            if i >= 1 {
                if let Some(v) = fetch(&prev, j) {
                    s = s.max(v + sc.gap); // gap in b: from (i-1, j)
                }
            }
            if j >= 1 {
                if let Some(v) = fetch(&prev, j - 1) {
                    s = s.max(v + sc.gap); // gap in a: from (i, j-1)
                }
                if i >= 1 {
                    if let Some(v) = fetch(&prev2, j - 1) {
                        let m = if a[i - 1] == b[j - 1] {
                            sc.match_score
                        } else {
                            sc.mismatch
                        };
                        s = s.max(v + m); // diagonal from (i-1, j-1)
                    }
                }
            }
            if s > NEG && s >= best.score - xdrop {
                cur[j - lo_cand] = s;
                if s > best.score {
                    best = Extension {
                        score: s,
                        a_len: i,
                        b_len: j,
                    };
                }
            }
        }
        // Trim pruned cells from both ends so the band stays tight
        // (in-place: drain the head, truncate the tail — no allocation).
        let new_lo = match cur.iter().position(|&v| v > NEG) {
            None => {
                cur.clear();
                lo_cand
            }
            Some(first) => {
                let last = cur
                    .iter()
                    .rposition(|&v| v > NEG)
                    .expect("live cell exists");
                cur.truncate(last + 1);
                cur.drain(..first);
                lo_cand + first
            }
        };
        if cur.is_empty() && prev.0.is_empty() {
            // two consecutive dead antidiagonals: no diagonal move can
            // revive the extension
            break;
        }
        // rotate buffers: prev2 <- prev <- cur, reuse old prev2 as scratch
        let recycled = std::mem::replace(
            &mut prev2,
            std::mem::replace(&mut prev, (std::mem::take(&mut scratch), new_lo)),
        );
        scratch = recycled.0;
    }
    // Hand the buffers back for the next extension.
    ws.band_a = prev.0;
    ws.band_b = prev2.0;
    ws.band_c = scratch;
    best
}

/// The band kernel, [`XdropKernel::BitParallel`]'s fallback.
/// Takes the first sequence *reversed* (`ra = rev(a)`): along
/// antidiagonal `d` the `a` index `d-j-1` descends while the `b` index
/// `j-1` ascends, so against `ra` both ascend with `j` and the match
/// term is an elementwise compare of two byte slices.
///
/// Same antidiagonal sweep, candidate window, pruning, first-hit
/// tie-breaking and termination as the scalar oracle. What differs is
/// the storage and the order of work within a row:
///
/// * Each of the three rotating buffers holds `|b| + 3` cells indexed
///   by `j + 1`, and a level is the `(lo, hi)` range of its live cells
///   — trimming moves two indices. A level writes its whole candidate
///   window `[lo, hi]` (pruned cells as `NEG`) plus one `NEG` cell
///   either side. The window's lower end never decreases and its upper
///   end grows by at most one per antidiagonal, so every parent load
///   of the next two levels (`prev[j]`, `prev[j-1]`, `prev2[j-1]` for
///   `j` in *their* windows) lands in a cell this level wrote; stale
///   cells elsewhere in the buffer are never read (debug builds poison
///   them and assert that). Parents therefore load unconditionally,
///   and a sentinel-derived score can never pass the cut (see
///   [`STEP_CLAMP`]). Only the two matrix-edge cells `j = 0` and
///   `j = d`, which have a single gap parent and no base to compare,
///   are computed apart.
/// * Pass 1 computes every cell of the row against the cut *on entry*
///   and accumulates the row maximum — no cell waits on the running
///   best of the cells before it. Only if that maximum beats the best
///   score is the row replayed in `j` order with the oracle's running
///   best/cut updates, re-pruning against the risen cut. The cut only
///   rises within a row (`xdrop >= 0`), so pass 1 keeps a superset of
///   the oracle's cells and the replay lands on exactly the oracle's
///   row.
fn xdrop_extend_band(
    ws: &mut XdropWorkspace,
    ra: &[u8],
    b: &[u8],
    xdrop: i32,
    sc: Scoring,
) -> Extension {
    let mut best = Extension {
        score: 0,
        a_len: 0,
        b_len: 0,
    };
    let (alen, blen) = (ra.len(), b.len());
    if alen == 0 || blen == 0 {
        return best;
    }
    let take = |buf: &mut Vec<i32>| {
        let mut band = std::mem::take(buf);
        if band.len() < blen + 3 {
            band.resize(blen + 3, NEG);
        }
        if cfg!(debug_assertions) {
            band.fill(POISON);
        }
        band
    };
    let (mut prev, mut prev2, mut cur) = (
        take(&mut ws.band_a),
        take(&mut ws.band_b),
        take(&mut ws.band_c),
    );
    // d = 0 is the single cell (0, 0) with score 0; "d = -1" is dead.
    prev[..3].copy_from_slice(&[NEG, 0, NEG]);
    let (mut prev_live, mut prev2_live) = (Some((0usize, 0usize)), None);
    #[cfg(test)]
    {
        ws.band_cells = 0;
    }
    for d in 1..=(alen + blen) {
        // Candidate window: gap moves from prev reach [lo, hi + 1], the
        // diagonal move from prev2 reaches [lo + 1, hi + 1].
        let reach = |live: Option<(usize, usize)>, shift| live.map(|(l, h)| (l + shift, h + 1));
        let (lo, hi) = match (reach(prev_live, 0), reach(prev2_live, 1)) {
            (Some(p), Some(q)) => (p.0.min(q.0), p.1.max(q.1)),
            (Some(w), None) | (None, Some(w)) => w,
            (None, None) => break,
        };
        let (lo, hi) = (lo.max(d.saturating_sub(alen)), hi.min(d.min(blen)));
        if lo > hi {
            // The band slid past the end of `a` (its `j` range lies
            // below `d - |a|`). It cannot come back — that bound only
            // rises while the band's top stays put — so the oracle,
            // which walks on through a dead level, also returns the
            // current best from here.
            break;
        }
        #[cfg(test)]
        {
            ws.band_cells += hi - lo + 1;
        }
        let cut = best.score - xdrop;
        let keep = |s: i32| if s >= cut { s } else { NEG };
        cur[lo] = NEG;
        cur[hi + 2] = NEG;
        let mut row_max = NEG;
        if lo == 0 {
            // Cell (d, 0): reachable only by a gap from (d-1, 0).
            debug_assert_ne!(prev[1], POISON);
            cur[1] = keep(prev[1] + sc.gap);
            row_max = cur[1];
        }
        if hi == d {
            // Cell (0, d): reachable only by a gap from (0, d-1).
            debug_assert_ne!(prev[d], POISON);
            cur[d + 1] = keep(prev[d] + sc.gap);
            row_max = row_max.max(cur[d + 1]);
        }
        let (jl, jh) = (lo.max(1), hi.min(d - 1));
        if jl <= jh {
            let n = jh - jl + 1;
            let gap_b = &prev[jl + 1..][..n]; // (i-1, j)
            let gap_a = &prev[jl..][..n]; // (i, j-1)
            let diag = &prev2[jl..][..n]; // (i-1, j-1)
            let (xs, ys) = (&ra[alen + jl - d..][..n], &b[jl - 1..][..n]);
            debug_assert!(
                !gap_b.contains(&POISON) && !gap_a.contains(&POISON) && !diag.contains(&POISON),
                "parent load outside the written window at d={d}"
            );
            let out = &mut cur[jl + 1..][..n];
            for t in 0..n {
                let m = if xs[t] == ys[t] {
                    sc.match_score
                } else {
                    sc.mismatch
                };
                let s = keep((gap_b[t].max(gap_a[t]) + sc.gap).max(diag[t] + m));
                out[t] = s;
                row_max = row_max.max(s);
            }
        }
        if row_max > best.score {
            let mut cut = cut;
            for j in lo..=hi {
                let s = cur[j + 1];
                if s < cut {
                    cur[j + 1] = NEG;
                } else if s > best.score {
                    best = Extension {
                        score: s,
                        a_len: d - j,
                        b_len: j,
                    };
                    cut = s - xdrop;
                }
            }
        }
        // Trim to the live cells.
        let cur_live = (row_max > NEG).then(|| {
            let first = (lo..).find(|&j| cur[j + 1] > NEG).expect("row_max is live");
            let last = (0..=hi)
                .rev()
                .find(|&j| cur[j + 1] > NEG)
                .expect("row_max is live");
            (first, last)
        });
        if cur_live.is_none() && prev_live.is_none() {
            // Two consecutive dead antidiagonals: no diagonal move can
            // revive the extension.
            break;
        }
        prev2_live = std::mem::replace(&mut prev_live, cur_live);
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
    ws.band_a = prev;
    ws.band_b = prev2;
    ws.band_c = cur;
    best
}

/// What one wavefront call did.
struct WaveRun {
    /// The extension, or `None` when the call was handed over.
    ext: Option<Extension>,
    /// Diagonal visits spent: the (cost, diagonal) slots examined after
    /// the origin's own match run.
    visits: usize,
    /// The furthest antidiagonal a live cell reached.
    reached: usize,
    /// The cost layer the call ended in: the one the stop bound refused,
    /// the last of the empty layers, or the one over the budget.
    cost: usize,
}

/// The cost-ordered wavefront (module docs), [`XdropKernel::BitParallel`]'s
/// first try, over `a` and `b` in extension order. With `limited`, it
/// hands the call over (`ext: None`) instead of a layer that would take
/// its visits past `WAVE_VISITS_PER_ANTIDIAGONAL × reached`. It also
/// hands over when `mat·(|a| + |b|)` leaves `i32`.
fn xdrop_extend_wave(
    ws: &mut XdropWorkspace,
    a: &[u8],
    b: &[u8],
    xdrop: i32,
    sc: Scoring,
    costs: WaveCosts,
    limited: bool,
) -> WaveRun {
    let (n, m) = (a.len(), b.len());
    let mat = i64::from(sc.match_score);
    let mut run = WaveRun {
        ext: None,
        visits: 0,
        reached: 0,
        cost: 0,
    };
    if n == 0 || m == 0 {
        run.ext = Some(Extension {
            score: 0,
            a_len: 0,
            b_len: 0,
        });
        return run;
    }
    if mat * (n + m) as i64 > i64::from(i32::MAX) {
        return run;
    }
    // Diagonal `k = j − i` is slot `q = k + n` of a layer; a layer is
    // `width` offsets `j` (or `NO_OFFSET`), valid on its live range only.
    // `reach[q]` is the furthest offset examined on the diagonal at any
    // cost so far: an entry at or behind it is a cheaper point's
    // (dominance, module docs), so it is skipped. `reach` is all -1
    // between calls; a call resets the slots it touched.
    let width = n + m + 1;
    let ring = costs.mismatch.max(costs.gap) + 1;
    if ws.wave.len() < ring * width {
        ws.wave.resize(ring * width, NO_OFFSET);
    }
    if ws.reach.len() < width {
        ws.reach.resize(width, -1);
    }
    let (wave, reach) = (&mut ws.wave, &mut ws.reach[..width]);
    let mut levels = Levels {
        first: &mut ws.first,
        top: 0,
    };
    if levels.first.is_empty() {
        levels.first.push(0);
    }
    levels.first[0] = 0;
    let x = i64::from(xdrop);
    let key = |d: usize, j: usize| (d as u64) << 32 | j as u64;
    // Cost 0: the origin's match run.
    let origin_run = common_prefix(a, b);
    for t in 1..=origin_run {
        levels.record(mat * t as i64, key(2 * t, t));
    }
    wave[n] = origin_run as i32;
    reach[n] = origin_run as i32;
    let mut live = [None; WAVE_MAX_STEP as usize + 1];
    live[0] = Some((n, n));
    let mut touched = (n, n);
    run.reached = 2 * origin_run;
    // The stop bound (module docs, part 3), scaled by `G`: no cell of
    // cost `c` or more scores above `top` once
    // `mat·min(G(n + m), 2G·min(n, m) + c) − G·c < 2G·(top + 1)`.
    let g = costs.gap as i64;
    let (g_ends, g_diag) = (g * (n + m) as i64, 2 * g * n.min(m) as i64);
    #[cfg(test)]
    let stops = !ws.unstopped;
    #[cfg(not(test))]
    let stops = true;
    let mut idle = 0;
    let mut c = 0;
    let finished = loop {
        c += 1;
        run.cost = c;
        let cost = c as i64;
        if stops && mat * g_ends.min(g_diag + cost) - g * cost < 2 * g * (levels.top as i64 + 1) {
            break true;
        }
        let slot = c % ring;
        let parent = |cost: usize| {
            let layer = c.checked_sub(cost)? % ring;
            live[layer].map(|range| (layer, range))
        };
        let (pm, pg) = (parent(costs.mismatch), parent(costs.gap));
        let gap_reach = pg.map(|(_, (lo, hi))| (lo.saturating_sub(1), (hi + 1).min(n + m)));
        let window = match (pm.map(|(_, range)| range), gap_reach) {
            (Some(u), Some(w)) => Some((u.0.min(w.0), u.1.max(w.1))),
            (u, w) => u.or(w),
        };
        let (pm, pg) = (Layer::new(pm, width), Layer::new(pg, width));
        let mut range = None;
        if let Some((lo, hi)) = window {
            run.visits += hi - lo + 1;
            if limited && run.visits > WAVE_VISITS_PER_ANTIDIAGONAL * run.reached {
                run.visits -= hi - lo + 1;
                break false;
            }
            touched = (touched.0.min(lo), touched.1.max(hi));
            for q in lo..=hi {
                // The furthest entry: a mismatch along the diagonal,
                // or a gap from either neighbour, inside the matrix.
                let cap = m.min(q) as i32;
                let inside = |j: i32| if j <= cap { j } else { NO_OFFSET };
                let entry = inside(offset(wave, pm, q) + 1)
                    .max(inside(offset(wave, pg, q + 1)))
                    .max(inside(offset(wave, pg, q.wrapping_sub(1)) + 1));
                let mut end = NO_OFFSET;
                if entry > reach[q] {
                    reach[q] = entry;
                    let mut j = entry as usize;
                    let mut d = 2 * j + n - q;
                    let mut v = (mat * d as i64 - cost) / 2;
                    if !levels.cut(v, x, key(d, j)) {
                        levels.record(v, key(d, j));
                        for _ in 0..common_prefix(&a[d - j..], &b[j..]) {
                            (d, j, v) = (d + 2, j + 1, v + mat);
                            // A match run from a live entry beyond
                            // `reach` is never cut (module docs).
                            debug_assert!(!levels.cut(v, x, key(d, j)), "run cut at ({d}, {j})");
                            levels.record(v, key(d, j));
                        }
                        end = j as i32;
                        reach[q] = end;
                        run.reached = run.reached.max(d);
                        range = Some(range.map_or((q, q), |(l, _)| (l, q)));
                    }
                }
                wave[slot * width + q] = end;
            }
        }
        live[slot] = range;
        if range.is_some() {
            idle = 0;
        } else {
            // Every layer is built from the layers `M` and `G` below
            // it, so `max(M, G)` empty layers in a row end the search.
            idle += 1;
            if idle == ring - 1 {
                break true;
            }
        }
    };
    reach[touched.0..=touched.1].fill(-1);
    if finished {
        let best = levels.first[levels.top];
        let (d, j) = ((best >> 32) as usize, (best & u64::from(u32::MAX)) as usize);
        run.ext = Some(Extension {
            score: levels.top as i32,
            a_len: d - j,
            b_len: j,
        });
    }
    run
}

/// A layer of the wavefront ring as its children read it: where it
/// starts in the ring and the diagonal slots `start .. start + len` it
/// holds (none for a missing parent).
#[derive(Clone, Copy)]
struct Layer {
    base: usize,
    start: usize,
    len: usize,
}

impl Layer {
    fn new(layer: Option<(usize, (usize, usize))>, width: usize) -> Self {
        layer.map_or(
            Layer {
                base: 0,
                start: 0,
                len: 0,
            },
            |(slot, (lo, hi))| Layer {
                base: slot * width,
                start: lo,
                len: hi - lo + 1,
            },
        )
    }
}

/// The offset `layer` holds on diagonal slot `q`, `NO_OFFSET` outside
/// its live range.
#[inline]
fn offset(wave: &[i32], layer: Layer, q: usize) -> i32 {
    if q.wrapping_sub(layer.start) < layer.len {
        wave[layer.base + q]
    } else {
        NO_OFFSET
    }
}

/// The wavefront's level table: `first[ℓ]` is the earliest reached live
/// cell scoring `≥ ℓ`, as the key `d << 32 | j`, for `ℓ ≤ top`. It only
/// grows, and holds stale levels above `top` from earlier extensions.
struct Levels<'a> {
    first: &'a mut Vec<u64>,
    top: usize,
}

impl Levels<'_> {
    /// Whether a reached live cell before `key` scores more than `v + x`.
    #[inline]
    fn cut(&self, v: i64, x: i64, key: u64) -> bool {
        let level = v + x + 1;
        level <= self.top as i64 && self.first[level.max(0) as usize] < key
    }

    /// Enter the live cell `key` scoring `v`. `first` is nondecreasing in
    /// the level, so lowering stops at the first level already earlier.
    #[inline]
    fn record(&mut self, v: i64, key: u64) {
        if v <= 0 {
            return; // the origin holds every level ≤ 0
        }
        let v = v as usize;
        let mut level = v;
        if v > self.top {
            for new in self.top + 1..=v {
                match self.first.get_mut(new) {
                    Some(held) => *held = key,
                    None => self.first.push(key),
                }
            }
            level = self.top;
            self.top = v;
        }
        while level > 0 && self.first[level] > key {
            self.first[level] = key;
            level -= 1;
        }
    }
}

/// Length of the common prefix of `a` and `b`, compared 8 bytes at a
/// time (base codes are one byte each, so a word XOR finds the first
/// differing base with one trailing-zeros count).
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + 8 <= n {
        let x = u64::from_le_bytes(a[i..i + 8].try_into().expect("8-byte chunk"));
        let y = u64::from_le_bytes(b[i..i + 8].try_into().expect("8-byte chunk"));
        let diff = x ^ y;
        if diff != 0 {
            return i + (diff.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Greedy approximate x-drop extension: the opt-in fast path behind the
/// seed layer's best-only mode (`--seed-chaining best`). Instead of
/// sweeping a DP band, it walks maximal exact-match runs (8 bases per
/// word compare) and resolves each difference with a one-step
/// lookahead — substitution, single-base insertion, or deletion,
/// whichever is followed by the longest next run — giving
/// O(differences) work instead of O(band × length). Extension stops
/// when the running score falls more than `xdrop` below the best.
///
/// Unlike the [`XdropKernel`] variants this is **not** exact: clustered
/// errors or repeats can yield slightly different scores and extents
/// than the DP, which is why only the quality-asserted fast mode uses
/// it — never the default pipeline.
pub fn greedy_extend(a: &[u8], b: &[u8], xdrop: i32, sc: Scoring) -> Extension {
    let (mut i, mut j) = (0usize, 0usize);
    let mut score = 0i64;
    let mut best = Extension {
        score: 0,
        a_len: 0,
        b_len: 0,
    };
    loop {
        let run = common_prefix(&a[i..], &b[j..]);
        i += run;
        j += run;
        score += run as i64 * sc.match_score as i64;
        if score > best.score as i64 {
            best = Extension {
                score: score.min(i32::MAX as i64) as i32,
                a_len: i,
                b_len: j,
            };
        }
        if i >= a.len() || j >= b.len() {
            return best;
        }
        // Difference at (i, j): pick the edit followed by the longest
        // exact run (ties prefer the diagonal substitution).
        let r_sub = common_prefix(&a[i + 1..], &b[j + 1..]);
        let r_del = common_prefix(&a[i + 1..], &b[j..]);
        let r_ins = common_prefix(&a[i..], &b[j + 1..]);
        if r_sub >= r_del && r_sub >= r_ins {
            score += sc.mismatch as i64;
            i += 1;
            j += 1;
        } else {
            score += sc.gap as i64;
            if r_del > r_ins {
                i += 1;
            } else {
                j += 1;
            }
        }
        if score < best.score as i64 - xdrop as i64 {
            return best;
        }
    }
}

/// Greedy counterpart of [`extend_seed_with`]: the same seed-anchored
/// left + right extension, but via [`greedy_extend`]. Approximate —
/// used only by the opt-in fast seed-chaining mode.
#[allow(clippy::too_many_arguments)]
pub fn extend_seed_greedy(
    ws: &mut XdropWorkspace,
    a: &[u8],
    b: &[u8],
    a_pos: usize,
    b_pos: usize,
    k: usize,
    xdrop: i32,
    sc: Scoring,
) -> SeedAlignment {
    debug_assert!(a_pos + k <= a.len() && b_pos + k <= b.len());
    let right = greedy_extend(&a[a_pos + k..], &b[b_pos + k..], xdrop, sc);
    stage_rev(&mut ws.a_rev, &a[..a_pos]);
    stage_rev(&mut ws.b_rev, &b[..b_pos]);
    let left = greedy_extend(&ws.a_rev, &ws.b_rev, xdrop, sc);
    ws.note_high_water();
    SeedAlignment {
        score: k as i32 * sc.match_score + left.score + right.score,
        a_beg: a_pos - left.a_len,
        a_end: a_pos + k + right.a_len - 1,
        b_beg: b_pos - left.b_len,
        b_end: b_pos + k + right.b_len - 1,
    }
}

/// A gapped local alignment around a seed, with inclusive coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedAlignment {
    pub score: i32,
    /// Inclusive aligned span on the first read.
    pub a_beg: usize,
    pub a_end: usize,
    /// Inclusive aligned span on the second (oriented) read.
    pub b_beg: usize,
    pub b_end: usize,
}

/// One-shot [`extend_seed_with`]: allocates a throwaway workspace.
pub fn extend_seed(
    a: &[u8],
    b: &[u8],
    a_pos: usize,
    b_pos: usize,
    k: usize,
    xdrop: i32,
    sc: Scoring,
) -> SeedAlignment {
    extend_seed_with(
        &mut XdropWorkspace::default(),
        a,
        b,
        a_pos,
        b_pos,
        k,
        xdrop,
        sc,
    )
}

/// Seed-and-extend: the k-mer match `a[a_pos .. a_pos+k) == b[b_pos ..
/// b_pos+k)` is extended left and right with x-drop. Sequences are base
/// codes; `b` must already be in the orientation that produced the seed.
/// The workspace's band and reversed-sequence buffers are reused across
/// seed extensions instead of reallocated per call.
#[allow(clippy::too_many_arguments)]
pub fn extend_seed_with(
    ws: &mut XdropWorkspace,
    a: &[u8],
    b: &[u8],
    a_pos: usize,
    b_pos: usize,
    k: usize,
    xdrop: i32,
    sc: Scoring,
) -> SeedAlignment {
    debug_assert!(a_pos + k <= a.len() && b_pos + k <= b.len());
    // Right of the seed.
    let right = xdrop_extend_with(ws, &a[a_pos + k..], &b[b_pos + k..], xdrop, sc);
    // Left of the seed: extend over the reversed prefixes, staged in
    // the workspace (taken out for the duration of the call so the
    // kernel buffers stay independently borrowable). The wavefront and
    // the oracle take both prefixes reversed; the band kernel wants its
    // first sequence reversed once more, which is the prefix itself.
    let (mut a_rev, mut b_rev) = (std::mem::take(&mut ws.a_rev), std::mem::take(&mut ws.b_rev));
    stage_rev(&mut b_rev, &b[..b_pos]);
    let left = match ws.route(xdrop, sc) {
        Route::Band => xdrop_extend_band(ws, &a[..a_pos], &b_rev, xdrop, sc),
        Route::Scalar => {
            stage_rev(&mut a_rev, &a[..a_pos]);
            xdrop_extend_scalar(ws, &a_rev, &b_rev, xdrop, sc)
        }
        Route::Composite(costs) => {
            stage_rev(&mut a_rev, &a[..a_pos]);
            xdrop_extend_wave(ws, &a_rev, &b_rev, xdrop, sc, costs, true)
                .ext
                .unwrap_or_else(|| xdrop_extend_band(ws, &a[..a_pos], &b_rev, xdrop, sc))
        }
    };
    ws.a_rev = a_rev;
    ws.b_rev = b_rev;
    ws.note_high_water();
    SeedAlignment {
        score: k as i32 * sc.match_score + left.score + right.score,
        a_beg: a_pos - left.a_len,
        a_end: a_pos + k + right.a_len - 1,
        b_beg: b_pos - left.b_len,
        b_end: b_pos + k + right.b_len - 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elba_seq::Seq;

    fn codes(s: &str) -> Vec<u8> {
        s.parse::<Seq>().expect("dna").codes().to_vec()
    }

    #[test]
    fn identical_extends_fully() {
        let a = codes("ACGTACGTACGT");
        let ext = xdrop_extend(&a, &a, 5, Scoring::default());
        assert_eq!(
            ext,
            Extension {
                score: 12,
                a_len: 12,
                b_len: 12
            }
        );
    }

    #[test]
    fn stops_at_garbage_tail() {
        // 10 matching bases then pure mismatch; x-drop must stop near 10.
        let a = codes(&("ACGTACGTAC".to_owned() + "GGGGGGGG"));
        let b = codes(&("ACGTACGTAC".to_owned() + "TTTTTTTT"));
        let ext = xdrop_extend(&a, &b, 3, Scoring::default());
        assert_eq!(ext.score, 10);
        assert_eq!(ext.a_len, 10);
    }

    #[test]
    fn greedy_extend_handles_clean_and_isolated_errors() {
        let sc = Scoring::default();
        // Identical sequences extend fully.
        let a = codes("ACGTACGTACGTACGT");
        assert_eq!(
            greedy_extend(&a, &a, 5, sc),
            Extension {
                score: 16,
                a_len: 16,
                b_len: 16
            }
        );
        // One substitution mid-way: the lookahead must step over it.
        let mut b = a.clone();
        b[8] = (b[8] + 1) % 4;
        let ext = greedy_extend(&a, &b, 5, sc);
        assert_eq!((ext.score, ext.a_len, ext.b_len), (14, 16, 16));
        // One deletion in b: a gap move re-synchronizes the runs.
        let mut del = a.clone();
        del.remove(8);
        let ext = greedy_extend(&a, &del, 5, sc);
        assert_eq!((ext.a_len, ext.b_len), (16, 15));
        assert_eq!(ext.score, 14);
        // Garbage tail: stops near the clean prefix like the DP.
        let a = codes(&("ACGTACGTAC".to_owned() + "GGGGGGGG"));
        let b = codes(&("ACGTACGTAC".to_owned() + "TTTTTTTT"));
        let ext = greedy_extend(&a, &b, 3, sc);
        assert_eq!((ext.score, ext.a_len), (10, 10));
        // Empty inputs.
        assert_eq!(greedy_extend(&[], &[], 5, sc).score, 0);
        assert_eq!(greedy_extend(&a, &[], 5, sc).score, 0);
    }

    #[test]
    fn greedy_extend_tracks_the_dp_on_noisy_overlaps() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let sc = Scoring::default();
        for _ in 0..40 {
            let a: Vec<u8> = (0..1_500).map(|_| rng.gen_range(0..4u8)).collect();
            let mut b = a.clone();
            for _ in 0..8 {
                let at = rng.gen_range(0..b.len());
                match rng.gen_range(0..3u8) {
                    0 => b[at] = (b[at] + 1) % 4,
                    1 => {
                        b.remove(at);
                    }
                    _ => b.insert(at, rng.gen_range(0..4u8)),
                }
            }
            let dp = xdrop_extend(&a, &b, 30, sc);
            let greedy = greedy_extend(&a, &b, 30, sc);
            // Approximate: clustered errors can cost the one-step
            // lookahead a few points each, but on isolated-error
            // overlaps it must stay within a few percent of the band
            // DP — that margin is what keeps the fast mode's dovetail
            // classification (score ≥ ratio · span) agreeing.
            assert!(
                greedy.score >= dp.score - dp.score / 20 - 6,
                "greedy {} vs dp {}",
                greedy.score,
                dp.score
            );
            assert!(
                greedy.score <= dp.score + 6,
                "greedy {} should not materially beat the x-drop DP {}",
                greedy.score,
                dp.score
            );
        }
    }

    #[test]
    fn tolerates_single_mismatch() {
        let a = codes("ACGTACGTAC");
        let mut b = a.clone();
        b[4] = (b[4] + 1) % 4;
        let ext = xdrop_extend(&a, &b, 5, Scoring::default());
        assert_eq!(ext.a_len, 10);
        assert_eq!(ext.score, 9 - 1);
    }

    #[test]
    fn handles_insertion_with_gap() {
        // b has one extra base inserted in the middle.
        let a = codes("ACGTACGTACGTACGT");
        let b = codes("ACGTACGTTACGTACGT");
        let ext = xdrop_extend(&a, &b, 6, Scoring::default());
        assert_eq!(ext.a_len, 16);
        assert_eq!(ext.b_len, 17);
        assert_eq!(ext.score, 16 - 1); // 16 matches, one gap
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(
            xdrop_extend(&[], &[0, 1], 3, Scoring::default()),
            Extension {
                score: 0,
                a_len: 0,
                b_len: 0
            }
        );
    }

    #[test]
    fn xdrop_zero_stops_at_first_mismatch() {
        let a = codes("AAAATAAAA");
        let b = codes("AAAACAAAA");
        let ext = xdrop_extend(&a, &b, 0, Scoring::default());
        assert_eq!(ext.a_len, 4);
        assert_eq!(ext.score, 4);
    }

    #[test]
    fn seed_extension_covers_true_overlap() {
        // a = g[0..30], b = g[20..50]; seed at the start of the shared span.
        let g = codes("ACGTTGCAACGTGGATCCATTTACGGCAATCGGTTACCAGGTTCAAGCCA");
        let a = &g[0..30];
        let b = &g[20..50];
        // shared region: a[20..30] == b[0..10]; seed k=6 at a_pos=20,b_pos=0
        let aln = extend_seed(a, b, 20, 0, 6, 10, Scoring::default());
        assert_eq!((aln.a_beg, aln.a_end), (20, 29));
        assert_eq!((aln.b_beg, aln.b_end), (0, 9));
        assert_eq!(aln.score, 10);
    }

    #[test]
    fn seed_in_middle_extends_both_ways() {
        let g = codes("ACGTTGCAACGTGGATCCATTTACGGCAATCGGTTACCAGGTTCAAGCCA");
        let a = &g[0..40];
        let b = &g[10..50];
        // seed inside the shared region g[10..40]: a_pos=25, b_pos=15
        let aln = extend_seed(a, b, 25, 15, 5, 10, Scoring::default());
        assert_eq!((aln.a_beg, aln.a_end), (10, 39));
        assert_eq!((aln.b_beg, aln.b_end), (0, 29));
        assert_eq!(aln.score, 30);
    }

    #[test]
    fn workspace_reuse_matches_one_shot() {
        // A shared workspace across many extensions (including some that
        // prune early and some that run long) must give byte-identical
        // results to fresh buffers per call — stale band contents from a
        // previous extension may never leak into the next.
        let g = codes("ACGTTGCAACGTGGATCCATTTACGGCAATCGGTTACCAGGTTCAAGCCA");
        let mut ws = XdropWorkspace::default();
        let cases: Vec<(Vec<u8>, Vec<u8>, i32)> = vec![
            (g[0..30].to_vec(), g[0..30].to_vec(), 5),
            (codes("AAAATAAAA"), codes("AAAACAAAA"), 0),
            (g[0..40].to_vec(), g[10..50].to_vec(), 10),
            (codes("ACGT"), codes("TGCA"), 2),
            (g.clone(), g.clone(), 20),
        ];
        for (a, b, x) in &cases {
            let fresh = xdrop_extend(a, b, *x, Scoring::default());
            let reused = xdrop_extend_with(&mut ws, a, b, *x, Scoring::default());
            assert_eq!(fresh, reused);
        }
        // And the seeded wrapper, which also exercises the reversed
        // prefix staging buffers.
        let one_shot = extend_seed(&g[0..40], &g[10..50], 25, 15, 5, 10, Scoring::default());
        let with_ws = extend_seed_with(
            &mut ws,
            &g[0..40],
            &g[10..50],
            25,
            15,
            5,
            10,
            Scoring::default(),
        );
        assert_eq!(one_shot, with_ws);
    }

    #[test]
    fn workspace_per_worker_matches_one_shot() {
        // The threaded alignment batch's contract, mirrored at the
        // kernel level: a batch of seed extensions split across workers
        // — each worker owning one workspace reused across *its* share
        // of the batch, claimed by self-scheduling — must produce
        // results identical to fresh one-shot buffers per extension, in
        // batch order, for every worker count.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(91);
        let g: Vec<u8> = (0..600).map(|_| rng.gen_range(0..4u8)).collect();
        // Overlapping window pairs with a shared seed; some noisy.
        let mut cases = Vec::new();
        for t in 0..40usize {
            let start = (t * 13) % 300;
            let mut a = g[start..start + 200].to_vec();
            let b = g[start + 80..start + 280].to_vec();
            if t % 3 == 0 {
                let at = (t * 7) % a.len();
                a[at] = (a[at] + 1) % 4;
            }
            cases.push((
                a,
                b,
                100 + (t % 40),
                20 - (t % 40).min(15),
                10 + (t % 9) as i32,
            ));
        }
        let one_shot: Vec<SeedAlignment> = cases
            .iter()
            .map(|(a, b, ap, bp, x)| extend_seed(a, b, *ap, *bp, 12, *x, Scoring::default()))
            .collect();
        for workers in [1usize, 2, 4, 7] {
            let mut workspaces: Vec<XdropWorkspace> =
                (0..workers).map(|_| XdropWorkspace::default()).collect();
            let batched = elba_par::run_indexed_with(cases.len(), &mut workspaces, |i, ws| {
                let (a, b, ap, bp, x) = &cases[i];
                extend_seed_with(ws, a, b, *ap, *bp, 12, *x, Scoring::default())
            });
            assert_eq!(one_shot, batched, "workers={workers}");
        }
    }

    #[test]
    fn noisy_overlap_still_found() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let g: Vec<u8> = (0..400).map(|_| rng.gen_range(0..4u8)).collect();
        let mut a = g[0..250].to_vec();
        let b = g[150..400].to_vec();
        // sprinkle 1% substitutions into a
        for _ in 0..2 {
            let at = rng.gen_range(0..a.len());
            a[at] = (a[at] + 1) % 4;
        }
        // find an exact seed in the overlap region a[150..250] == b[0..100]
        let mut seed = None;
        'outer: for off in (0..80).step_by(7) {
            let a_pos = 160 + off;
            let b_pos = 10 + off;
            if a[a_pos..a_pos + 15] == b[b_pos..b_pos + 15] {
                seed = Some((a_pos, b_pos));
                break 'outer;
            }
        }
        let (a_pos, b_pos) = seed.expect("an error-free 15-mer seed exists");
        let aln = extend_seed(&a, &b, a_pos, b_pos, 15, 20, Scoring::default());
        // must span (nearly) the full 100-base true overlap
        assert!(
            aln.a_end - aln.a_beg + 1 >= 90,
            "span {}",
            aln.a_end - aln.a_beg + 1
        );
        assert!(aln.score >= 80);
    }

    #[test]
    fn bitparallel_matches_scalar_on_random_pairs() {
        // Quick in-module face of the exhaustive proptest pin: random
        // overlapping and unrelated pairs, several scorings and x-drops,
        // shared workspaces on both sides.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let g: Vec<u8> = (0..2000).map(|_| rng.gen_range(0..4u8)).collect();
        let mut sws = XdropWorkspace::with_kernel(XdropKernel::Scalar);
        let mut bws = XdropWorkspace::with_kernel(XdropKernel::BitParallel);
        let scorings = [
            Scoring::default(),
            Scoring {
                match_score: 2,
                mismatch: -3,
                gap: -2,
            },
            Scoring {
                match_score: 5,
                mismatch: 0,
                gap: -4,
            },
        ];
        for t in 0..60usize {
            let start = rng.gen_range(0..1000);
            let len = rng.gen_range(1..900);
            let mut a = g[start..start + len].to_vec();
            let b = if t % 4 == 0 {
                (0..len).map(|_| rng.gen_range(0..4u8)).collect()
            } else {
                let off = rng.gen_range(0..200.min(len));
                g[start + off..(start + off + len).min(g.len())].to_vec()
            };
            for _ in 0..t % 7 {
                let at = rng.gen_range(0..a.len());
                a[at] = (a[at] + 1) % 4;
            }
            let x = rng.gen_range(0..60);
            let sc = scorings[t % scorings.len()];
            let s = xdrop_extend_with(&mut sws, &a, &b, x, sc);
            let p = xdrop_extend_with(&mut bws, &a, &b, x, sc);
            assert_eq!(s, p, "case {t}: len {len} xdrop {x}");
        }
    }

    #[test]
    fn non_acgt_codes_compare_as_bytes() {
        // The band kernel compares raw bytes like the oracle, so codes
        // >= 4 need no special path: 7 == 7 is a match, 7 != 9 is not —
        // also deep inside a long matching run, past the first rows.
        let mut a = codes("ACGTACGTACGTACGT").repeat(20);
        let mut b = a.clone();
        for at in [7, 150, 151, 300] {
            a[at] = 7;
            b[at] = 7;
        }
        b[200] = 9;
        for x in [0, 5, 50] {
            let s = xdrop_extend_with(
                &mut XdropWorkspace::with_kernel(XdropKernel::Scalar),
                &a,
                &b,
                x,
                Scoring::default(),
            );
            let p = xdrop_extend_with(
                &mut XdropWorkspace::with_kernel(XdropKernel::BitParallel),
                &a,
                &b,
                x,
                Scoring::default(),
            );
            assert_eq!(s, p, "xdrop {x}");
            assert!(s.a_len >= 200, "code-7 pairs align through the odd bytes");
        }
    }

    #[test]
    fn extreme_parameters_fall_back_identically() {
        // Magnitudes beyond the sentinel clamps run the oracle on both
        // knob settings; outputs must still agree.
        let a = codes("ACGTACGTAC");
        let b = codes("ACGTTCGTAC");
        for (sc, x) in [
            (
                Scoring {
                    match_score: (1 << 20) + 1,
                    mismatch: -(1 << 21),
                    gap: -1,
                },
                10,
            ),
            (
                Scoring {
                    match_score: 1,
                    mismatch: -1,
                    gap: -(1 << 22),
                },
                (1 << 26) + 1,
            ),
        ] {
            let s = xdrop_extend_with(
                &mut XdropWorkspace::with_kernel(XdropKernel::Scalar),
                &a,
                &b,
                x,
                sc,
            );
            let p = xdrop_extend_with(&mut XdropWorkspace::default(), &a, &b, x, sc);
            assert_eq!(s, p);
        }
    }

    #[test]
    fn workspace_kernel_knob_and_scratch_accounting() {
        let ws = XdropWorkspace::with_kernel(XdropKernel::Scalar);
        assert_eq!(ws.kernel(), XdropKernel::Scalar);
        assert_eq!(XdropWorkspace::default().kernel(), XdropKernel::BitParallel);
        assert_eq!(ws.heap_bytes(), 0);
        // The wavefront's ring (`max(M, G) + 1 = 5` layers at +1/−1/−1)
        // and `reach`, `|a| + |b| + 1` offsets each, and its level table
        // (one entry per level up to the best score) show up in the
        // scratch-honesty accounting, by length.
        let sc = Scoring::default();
        let a = codes("ACGTACGTACGTACGTACGT");
        let b = codes("ACGTACGTACGTACGTACGTACGTAC");
        let width = a.len() + b.len() + 1;
        let mut bws = XdropWorkspace::with_kernel(XdropKernel::BitParallel);
        let _ = xdrop_extend_with(&mut bws, &a, &b, 10, sc);
        let wave_bytes = (5 + 1) * width * 4 + (a.len() + 1) * 8;
        assert_eq!(bws.heap_bytes(), wave_bytes);
        // Buffers only grow: a shorter follow-up call keeps the charge.
        let _ = xdrop_extend_with(&mut bws, &a[..5], &b[..5], 10, sc);
        assert_eq!(bws.heap_bytes(), wave_bytes);
        // An extension over the wavefront's budget restarts in the band
        // kernel, whose O(|b|) band buffers and rev(a) staging add on.
        let noise = codes(&"ACGGTCATTGCA".repeat(40));
        let (u, v) = (&noise[..200], &noise[3..203]);
        let before = bws.heap_bytes();
        let ext = xdrop_extend_with(&mut bws, u, v, 200, sc);
        assert_eq!(ext, xdrop_extend(u, v, 200, sc));
        assert!(bws.heap_bytes() >= before + 3 * (v.len() + 3) * 4 + u.len());
        // A scoring outside the wavefront's range runs the band kernel
        // alone.
        let flat = Scoring {
            match_score: 0,
            mismatch: -1,
            gap: -1,
        };
        let mut bws = XdropWorkspace::with_kernel(XdropKernel::BitParallel);
        let _ = xdrop_extend_with(&mut bws, &a, &b, 10, flat);
        assert_eq!(bws.heap_bytes(), 3 * (b.len() + 3) * 4 + a.len());
        // The seeded wrapper stages both reversed prefixes for the left
        // extension; both 8-base extensions finish in the wavefront.
        let mut bws = XdropWorkspace::with_kernel(XdropKernel::BitParallel);
        let _ = extend_seed_with(&mut bws, &a, &a, 8, 8, 4, 10, sc);
        assert_eq!(bws.heap_bytes(), (5 + 1) * 17 * 4 + 9 * 8 + 8 + 8);
        // Every buffer is counted at its high water, so the order of the
        // extensions does not matter, though the staging buffers end
        // holding the last seed's prefixes.
        let long = codes(&"ACGTTGCA".repeat(8));
        let high_water = |lens: [usize; 2]| {
            let mut ws = XdropWorkspace::default();
            for len in lens {
                let s = &long[..len];
                let _ = extend_seed_with(&mut ws, s, s, len - 8, len - 8, 4, 10, sc);
            }
            (ws.high_water(), ws.a_rev.len())
        };
        let (long_first, short_first) = (high_water([64, 16]), high_water([16, 64]));
        assert_eq!(long_first.0, short_first.0);
        assert_eq!((long_first.1, short_first.1), (8, 56));
    }

    /// Seeded pairs for pinning each fast kernel alone: related pairs at
    /// 0–100 % mutation, truncated partners, random tails, over scorings
    /// the wavefront accepts (including `mis > 0` and `gap = 0`) and
    /// x-drops from 0 to 60.
    fn seeded_cases(seed: u64, count: usize) -> Vec<(Vec<u8>, Vec<u8>, i32, Scoring)> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let scorings = [
            (1, -1, -1),
            (2, -3, -2),
            (5, -4, -11),
            (3, 0, -1),
            (2, 1, -1),
            (1, -1, 0),
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let (match_score, mismatch, gap) = scorings[rng.gen_range(0..scorings.len())];
                let alphabet = [2u8, 4][rng.gen_range(0..2)];
                let len = [8, 60, 600][rng.gen_range(0..3)];
                let a: Vec<u8> = (0..rng.gen_range(0..len))
                    .map(|_| rng.gen_range(0..alphabet))
                    .collect();
                let rate = [0, 1, 5, 15, 30, 100][rng.gen_range(0..6)];
                let mut b = Vec::new();
                for &c in &a {
                    if rng.gen_range(0..100) >= rate {
                        b.push(c);
                        continue;
                    }
                    match rng.gen_range(0..3) {
                        0 => b.push((c + 1) % alphabet),
                        1 => {}
                        _ => b.extend([rng.gen_range(0..alphabet), c]),
                    }
                }
                if rng.gen_bool(0.3) {
                    b.truncate(rng.gen_range(0..=b.len()));
                }
                if rng.gen_bool(0.3) {
                    b.extend((0..rng.gen_range(0..50)).map(|_| rng.gen_range(0..alphabet)));
                }
                let x = [0, 1, 2, 3, 5, 7, 15, 30, 60][rng.gen_range(0..9)];
                let sc = Scoring {
                    match_score,
                    mismatch,
                    gap,
                };
                (a, b, x, sc)
            })
            .collect()
    }

    #[test]
    fn wavefront_alone_matches_scalar() {
        // No budget: every case runs to the end in the wavefront, however
        // many visits it takes.
        let mut sws = XdropWorkspace::with_kernel(XdropKernel::Scalar);
        let mut ws = XdropWorkspace::default();
        for (case, (a, b, x, sc)) in seeded_cases(41, 3_000).into_iter().enumerate() {
            let Route::Composite(costs) = ws.route(x, sc) else {
                panic!("{sc:?} skips the wavefront");
            };
            let run = xdrop_extend_wave(&mut ws, &a, &b, x, sc, costs, false);
            let want = xdrop_extend_with(&mut sws, &a, &b, x, sc);
            assert_eq!(
                run.ext,
                Some(want),
                "case {case}: x {x}, {sc:?}, a {a:?}, b {b:?}"
            );
        }
    }

    #[test]
    fn band_alone_matches_scalar() {
        let mut sws = XdropWorkspace::with_kernel(XdropKernel::Scalar);
        let mut ws = XdropWorkspace::default();
        for (case, (a, b, x, sc)) in seeded_cases(41, 3_000).into_iter().enumerate() {
            let ra: Vec<u8> = a.iter().rev().copied().collect();
            let got = xdrop_extend_band(&mut ws, &ra, &b, x, sc);
            let want = xdrop_extend_with(&mut sws, &a, &b, x, sc);
            assert_eq!(got, want, "case {case}: x {x}, {sc:?}, a {a:?}, b {b:?}");
        }
    }

    #[test]
    fn wavefront_work_follows_the_edit_cost() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let sc = Scoring::default();
        let mut ws = XdropWorkspace::default();
        let mut random =
            |len: usize| -> Vec<u8> { (0..len).map(|_| rng.gen_range(0..4u8)).collect() };
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..20)
            .map(|_| {
                // 1 kb at 0.5 % divergence (five substitutions); `a`
                // runs on past the overlap.
                let mut a = random(1_000);
                let mut b = a.clone();
                for at in [150, 340, 560, 700, 910] {
                    b[at] = (b[at] + 1) % 4;
                }
                a.extend(random(200));
                (a, b)
            })
            .collect();
        for (a, b) in &pairs {
            let Route::Composite(costs) = ws.route(15, sc) else {
                panic!("the pipeline scoring runs the wavefront");
            };
            let run = xdrop_extend_wave(&mut ws, a, b, 15, sc, costs, true);
            let ra: Vec<u8> = a.iter().rev().copied().collect();
            let band = xdrop_extend_band(&mut ws, &ra, b, 15, sc);
            let cells = ws.band_cells;
            assert_eq!(run.ext, Some(band), "finishes without handing over");
            assert!(
                run.visits * 10 < cells,
                "{} visits vs {cells} band cells",
                run.visits
            );
        }
        // Unrelated pairs: the wavefront hands over within its budget,
        // having spent a small share of what the band then computes.
        for x in [15, 60] {
            let (a, b) = (random(1_000), random(1_000));
            let Route::Composite(costs) = ws.route(x, sc) else {
                panic!("the pipeline scoring runs the wavefront");
            };
            let run = xdrop_extend_wave(&mut ws, &a, &b, x, sc, costs, true);
            assert_eq!(run.ext, None, "x {x}: hands over");
            let budget = WAVE_VISITS_PER_ANTIDIAGONAL * run.reached;
            assert!(
                run.visits <= budget,
                "x {x}: {} visits, budget {budget}",
                run.visits
            );
            let ra: Vec<u8> = a.iter().rev().copied().collect();
            let _ = xdrop_extend_band(&mut ws, &ra, &b, x, sc);
            let cells = ws.band_cells;
            assert!(
                run.visits * 10 < cells,
                "x {x}: {} visits vs {cells} cells",
                run.visits
            );
        }
    }

    #[test]
    fn wavefront_stops_at_the_first_layer_the_bound_allows() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // A 1 kb dovetail at 0.5 % divergence (five substitutions): `a`
        // ends where the overlap does and `b` runs 500 bases past it.
        let mut rng = StdRng::seed_from_u64(29);
        let a: Vec<u8> = (0..1_000).map(|_| rng.gen_range(0..4u8)).collect();
        let mut b = a.clone();
        for at in [120, 330, 515, 690, 880] {
            b[at] = (b[at] + 1) % 4;
        }
        b.extend((0..500).map(|_| rng.gen_range(0..4u8)));
        let (sc, x) = (Scoring::default(), 15);
        let mut ws = XdropWorkspace::default();
        let Route::Composite(costs) = ws.route(x, sc) else {
            panic!("the pipeline scoring runs the wavefront");
        };
        let run = xdrop_extend_wave(&mut ws, &a, &b, x, sc, costs, true);
        let best = Extension {
            score: 990,
            a_len: 1_000,
            b_len: 1_000,
        };
        assert_eq!(run.ext, Some(best));
        assert_eq!(best, xdrop_extend(&a, &b, x, sc));
        // The first layer `c` at which
        // `B(c) = (mat·min(n + m, 2·min(n, m) + c/G) − c) / 2` falls
        // below the best score plus one (module docs, part 3).
        let (n, m) = (a.len() as f64, b.len() as f64);
        let (mat, g) = (f64::from(sc.match_score), costs.gap as f64);
        let bound = |c: f64| (mat * (n + m).min(2.0 * n.min(m) + c / g) - c) / 2.0;
        let first = (1..)
            .find(|&c| bound(c as f64) < f64::from(best.score + 1))
            .expect("the bound falls");
        assert_eq!(first, 28, "B(c) = (2 000 − 2c/3) / 2 < 991 from c = 28");
        assert_eq!(run.cost, first);
        // Without the stop the search runs on until `max(M, G)` layers in
        // a row are empty: past the best cell, where `a` has ended, gaps
        // stay within the x-drop for 15 more bases.
        ws.unstopped = true;
        let full = xdrop_extend_wave(&mut ws, &a, &b, x, sc, costs, true);
        assert_eq!(full.ext, Some(best));
        assert!(
            2 * run.visits < full.visits,
            "{} visits stopped vs {} unstopped",
            run.visits,
            full.visits
        );
    }

    #[test]
    fn largest_xdrop_holds_linear_scratch() {
        // `first` is indexed from level 0, not from `−x − 1`: at
        // `x = XDROP_CLAMP` a short pair still holds O(|a| + |b|) bytes,
        // whether the wavefront finishes or hands over.
        let a = codes("ACGTTGCAACGTGGATCCATTTACGGCAAT");
        let b = codes("TTGCAACGAGGATCCATTACGGCAATCGGT");
        let sc = Scoring::default();
        let want = xdrop_extend_with(
            &mut XdropWorkspace::with_kernel(XdropKernel::Scalar),
            &a,
            &b,
            XDROP_CLAMP,
            sc,
        );
        let bound = 64 * (a.len() + b.len() + 1);
        let mut ws = XdropWorkspace::default();
        assert_eq!(xdrop_extend_with(&mut ws, &a, &b, XDROP_CLAMP, sc), want);
        assert!(ws.heap_bytes() <= bound, "{} bytes", ws.heap_bytes());
        let Route::Composite(costs) = ws.route(XDROP_CLAMP, sc) else {
            panic!("x = XDROP_CLAMP runs the wavefront");
        };
        let mut ws = XdropWorkspace::default();
        let run = xdrop_extend_wave(&mut ws, &a, &b, XDROP_CLAMP, sc, costs, false);
        assert_eq!(run.ext, Some(want));
        assert!(ws.heap_bytes() <= bound, "{} bytes", ws.heap_bytes());
    }
}
