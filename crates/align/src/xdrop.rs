//! X-drop seed-and-extend pairwise alignment (Zhang et al. 2000), the
//! kernel diBELLA 2D / ELBA apply to every nonzero of the candidate
//! overlap matrix `C`. Extension proceeds over antidiagonals with a band
//! that drops cells scoring more than `x` below the running best — the
//! same scheme as SeqAn's / LOGAN's x-drop, including its signature
//! behaviour of *ending alignments early* in noisy regions (which is why
//! ELBA must store `post(e)` explicitly, §4.4).
//!
//! Two exact implementations of that recurrence live here — the scalar
//! oracle and the band kernel that the pipeline runs (see
//! [`XdropKernel`]) — plus the approximate [`greedy_extend`] behind the
//! opt-in fast seed mode.

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

/// Which inner-loop implementation [`xdrop_extend_with`] runs. Both
/// kernels compute the identical antidiagonal recurrence; the choice
/// never changes scores or extents. The pipeline always runs the band
/// kernel; the scalar DP exists for tests and the benchmark's probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum XdropKernel {
    /// The reference cell-at-a-time DP — the oracle the band kernel is
    /// property-pinned against.
    Scalar,
    /// The band kernel: antidiagonals live in buffers indexed by the
    /// absolute `b` coordinate with a pruned-cell sentinel either side,
    /// so every cell loads its three parents unconditionally, the
    /// match term is a byte compare of `b` against a reversed copy of
    /// `a`, and a row is one straight-line pass plus a replay only when
    /// it raises the best score. An x-drop band at long-read parameters
    /// is ~10 cells wide, which is what the kernel is shaped for. The
    /// variant keeps the name it had when it packed match bits into
    /// 64-lane words, because the benchmark spells it that way.
    /// Scorings whose magnitudes defeat the sentinel arithmetic (and
    /// `xdrop < 0`) run the scalar oracle, so output equality holds on
    /// *all* inputs.
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
/// Largest `xdrop` the band kernel accepts (see [`STEP_CLAMP`]).
const XDROP_CLAMP: i32 = 1 << 26;
/// Debug builds fill the band buffers with this before every band
/// extension and assert it is never loaded as a parent — the check
/// behind "stale cells outside the written window are never read".
const POISON: i32 = i32::MAX;

/// Reusable buffers for [`xdrop_extend_with`] / [`extend_seed_with`]:
/// the three rotating antidiagonal bands plus the reversed-sequence
/// staging buffers. One workspace serves any number of seed extensions
/// in sequence — the overlap stage holds one per worker and sweeps it
/// over every candidate pair, so the innermost alignment kernel stops
/// paying a fresh set of allocations per read pair. A
/// default-constructed workspace is empty; buffers grow to the largest
/// extension seen and are then reused at that size.
///
/// The workspace also pins the [`XdropKernel`] used by every extension
/// run through it (default [`XdropKernel::BitParallel`]). The scalar oracle
/// keeps only the live band in the band buffers; the band kernel sizes
/// them to `|b| + 3` cells each and stages `rev(a)` in `a_rev`.
#[derive(Debug, Default)]
pub struct XdropWorkspace {
    kernel: XdropKernel,
    band_a: Vec<i32>,
    band_b: Vec<i32>,
    band_c: Vec<i32>,
    a_rev: Vec<u8>,
    b_rev: Vec<u8>,
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

    /// Heap bytes currently held by the workspace's band and staging
    /// buffers (by length, like every tracker charge). The alignment
    /// stage reports one workspace per worker as transient scratch so
    /// threaded sweeps stay honest in the `mem-hw` column.
    pub fn heap_bytes(&self) -> usize {
        (self.band_a.len() + self.band_b.len() + self.band_c.len()) * std::mem::size_of::<i32>()
            + self.a_rev.len()
            + self.b_rev.len()
    }

    /// Whether an extension with these parameters runs the band kernel
    /// (otherwise: the scalar oracle).
    fn runs_band(&self, xdrop: i32, sc: Scoring) -> bool {
        let step = -STEP_CLAMP..=STEP_CLAMP;
        self.kernel != XdropKernel::Scalar
            && step.contains(&sc.match_score)
            && step.contains(&sc.mismatch)
            && step.contains(&sc.gap)
            && (0..=XDROP_CLAMP).contains(&xdrop)
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
/// score seen. Returns the best-scoring endpoint. The antidiagonal band
/// buffers live in `ws` and are reused across calls; the workspace's
/// [`XdropKernel`] picks the implementation, with every kernel
/// guaranteed to return the exact scalar-oracle result.
pub fn xdrop_extend_with(
    ws: &mut XdropWorkspace,
    a: &[u8],
    b: &[u8],
    xdrop: i32,
    sc: Scoring,
) -> Extension {
    if !ws.runs_band(xdrop, sc) {
        return xdrop_extend_scalar(ws, a, b, xdrop, sc);
    }
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

/// The band kernel ([`XdropKernel::BitParallel`]).
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
    // the workspace (taken out for the duration of the call so the band
    // buffers stay independently borrowable). The band kernel wants its
    // first sequence reversed once more, which is the prefix itself —
    // so it stages only `b`.
    let mut b_rev = std::mem::take(&mut ws.b_rev);
    stage_rev(&mut b_rev, &b[..b_pos]);
    let left = if ws.runs_band(xdrop, sc) {
        xdrop_extend_band(ws, &a[..a_pos], &b_rev, xdrop, sc)
    } else {
        let mut a_rev = std::mem::take(&mut ws.a_rev);
        stage_rev(&mut a_rev, &a[..a_pos]);
        let left = xdrop_extend_scalar(ws, &a_rev, &b_rev, xdrop, sc);
        ws.a_rev = a_rev;
        left
    };
    ws.b_rev = b_rev;
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
        // The band kernel's O(|b|) band buffers and its rev(a) staging
        // must show up in the scratch-honesty accounting, by length.
        let a = codes("ACGTACGTACGTACGTACGT");
        let b = codes("ACGTACGTACGTACGTACGTACGTAC");
        let mut bws = XdropWorkspace::with_kernel(XdropKernel::BitParallel);
        let _ = xdrop_extend_with(&mut bws, &a, &b, 10, Scoring::default());
        assert_eq!(bws.heap_bytes(), 3 * (b.len() + 3) * 4 + a.len());
        // Buffers only grow: a shorter follow-up call keeps the charge.
        let _ = xdrop_extend_with(&mut bws, &a[..5], &b[..5], 10, Scoring::default());
        assert_eq!(bws.heap_bytes(), 3 * (b.len() + 3) * 4 + 5);
        // The seeded wrapper stages rev(a suffix) for the right
        // extension and only rev(b prefix) for the left one.
        let mut bws = XdropWorkspace::with_kernel(XdropKernel::BitParallel);
        let _ = extend_seed_with(&mut bws, &a, &a, 8, 8, 4, 10, Scoring::default());
        assert_eq!(bws.heap_bytes(), 3 * (8 + 3) * 4 + 8 + 8);
    }
}
