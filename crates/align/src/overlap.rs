//! Overlap classification: turn a pairwise alignment into bidirected
//! string-graph edges.
//!
//! An alignment between reads `u` and `v` (with `v` possibly
//! reverse-complemented — the `rc` flag) is classified, with a `fuzz`
//! tolerance for x-drop under-extension, as either
//!
//! * a **containment** (one read aligns entirely inside the other — the
//!   paper's "redundant vertex", pruned before transitive reduction),
//! * an **internal match** (the overlap touches neither read's ends on
//!   one side — a repeat-induced alignment, discarded), or
//! * a proper **dovetail**, producing the *pair* of directed edges
//!   `u→v` and `v→u` stored symmetrically in the string matrix `S`.
//!
//! Each directed edge carries exactly what §4.4 needs for local assembly:
//! `pre` (index in the source read of the last base before the overlap,
//! in traversal order), `post` (index in the destination read of the
//! first overlapping base, in traversal order), the traversal
//! orientations of both endpoints, and the overhang (`suffix`) length
//! used as the string-graph weight by transitive reduction.
//!
//! Note on `post`: the paper stores the alignment-begin coordinate and
//! recovers traversal order from the bidirected arrowheads; we store the
//! traversal-order index directly (for a reversed read this is the
//! alignment *end*), which is the same information in walk-ready form —
//! `l[post : pre']` with the paper's inclusive/reverse slicing then works
//! unchanged for both orientations.

use elba_comm::transport::wire::{WireError, WireReader};
use elba_comm::CommMsg;

use crate::xdrop::SeedAlignment;

/// A pairwise overlap candidate between reads `u` and `v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapAln {
    /// `v` was reverse-complemented before alignment; all `w_*`
    /// coordinates live in that oriented space.
    pub rc: bool,
    /// Inclusive aligned span on `u` (forward coordinates).
    pub u_beg: usize,
    pub u_end: usize,
    /// Inclusive aligned span on oriented `v`.
    pub w_beg: usize,
    pub w_end: usize,
    pub u_len: usize,
    pub v_len: usize,
    pub score: i32,
}

impl OverlapAln {
    pub fn from_seed(aln: SeedAlignment, rc: bool, u_len: usize, v_len: usize) -> Self {
        OverlapAln {
            rc,
            u_beg: aln.a_beg,
            u_end: aln.a_end,
            w_beg: aln.b_beg,
            w_end: aln.b_end,
            u_len,
            v_len,
            score: aln.score,
        }
    }

    /// Aligned span length on `u` (proxy for overlap length).
    pub fn span(&self) -> usize {
        self.u_end - self.u_beg + 1
    }

    /// `u` and oriented `v` (`w`) as [`Side`]s: each aligned span with
    /// the unaligned bases left and right of it, the four overhangs
    /// [`classify`] and [`dovetail_edges`] read.
    fn sides(&self) -> (Side, Side) {
        let side = |beg: usize, end: usize, len: usize| Side {
            beg,
            end,
            left: beg,
            right: len - 1 - end,
        };
        (
            side(self.u_beg, self.u_end, self.u_len),
            side(self.w_beg, self.w_end, self.v_len),
        )
    }
}

/// One read of an [`OverlapAln`] in oriented space: its inclusive aligned
/// span `beg..=end` and the unaligned bases `left` and `right` of it.
struct Side {
    beg: usize,
    end: usize,
    left: usize,
    right: usize,
}

/// One directed string-graph edge (`src → dst`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SgEdge {
    /// Last base of `src` (original coordinates) before the overlap, in
    /// traversal order — the paper's `pre(e)`.
    pub pre: u32,
    /// First overlapping base of `dst` (original coordinates), in
    /// traversal order — the paper's `post(e)`.
    pub post: u32,
    /// `src` is traversed reverse-complemented.
    pub src_rev: bool,
    /// `dst` is traversed reverse-complemented.
    pub dst_rev: bool,
    /// Overhang: bases of `dst` past the overlap in walk direction (the
    /// string-graph edge weight, §2).
    pub suffix: u32,
}

/// Field by field, zero-padded to `size_of` (what `nbytes` books): a
/// `bool` travels as one byte that must read 0 or 1, so no frame can
/// build an invalid one.
impl CommMsg for SgEdge {
    #[inline]
    fn nbytes(&self) -> usize {
        std::mem::size_of::<SgEdge>()
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        let end = out.len() + self.nbytes();
        for field in [self.pre, self.post, self.suffix] {
            field.wire_encode(out);
        }
        self.src_rev.wire_encode(out);
        self.dst_rev.wire_encode(out);
        out.resize(end, 0);
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let edge = SgEdge {
            pre: u32::wire_decode(r)?,
            post: u32::wire_decode(r)?,
            suffix: u32::wire_decode(r)?,
            src_rev: bool::wire_decode(r)?,
            dst_rev: bool::wire_decode(r)?,
        };
        // The padding after three `u32` and two `bool`.
        r.read_bytes(std::mem::size_of::<SgEdge>() - 14)?;
        Ok(edge)
    }
}
elba_mem::impl_deep_bytes_pod!(SgEdge);

/// Classification outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapClass {
    /// `u` aligns entirely within `v` — `u` is redundant.
    ContainedU,
    /// `v` aligns entirely within `u`.
    ContainedV,
    /// Overlap interior to both reads on some side; not usable.
    Internal,
    /// Proper dovetail: directed edges for `u→v` and `v→u`.
    Dovetail { fwd: SgEdge, bwd: SgEdge },
}

/// Classify an overlap with tolerance `fuzz` for unaligned overhangs left
/// by x-drop early termination (the paper's motivation for storing
/// `post`).
pub fn classify(aln: &OverlapAln, fuzz: usize) -> OverlapClass {
    let (u, w) = aln.sides();
    if u.left <= fuzz && u.right <= fuzz {
        return OverlapClass::ContainedU;
    }
    if w.left <= fuzz && w.right <= fuzz {
        return OverlapClass::ContainedV;
    }
    if u.left.min(w.left) > fuzz || u.right.min(w.right) > fuzz {
        return OverlapClass::Internal;
    }

    let (fwd, bwd) = dovetail_edges(aln);
    OverlapClass::Dovetail { fwd, bwd }
}

/// Compute the directed edge pair `(u→v, v→u)` for a dovetail overlap,
/// deciding the left read by the larger unaligned left overhang. Panics
/// unless the left read overhangs the overlap on the left and the other
/// read on the right, by at least one base each: `pre` is a base outside
/// the overlap. [`classify`] guarantees both. Exposed separately so
/// the `pre`/`post` bookkeeping can be exercised on alignments (like the
/// paper's Fig. 3 x-drop example) regardless of classification thresholds.
///
/// One rule covers both strands and either read on the left. In oriented
/// space both reads run forward, so the walk left → right emits the left
/// read and then the right one, and the walk right → left emits rc(right)
/// and then rc(left). When `rc`, `w` is rc(`v`): the endpoint at `v` —
/// the destination of `u→v`, the source of `v→u` — maps its coordinate
/// back (`x → lv − 1 − x`) and traverses the other strand.
pub fn dovetail_edges(aln: &OverlapAln) -> (SgEdge, SgEdge) {
    let (u, w) = aln.sides();
    let u_left = u.left > w.left;
    let (l, r) = if u_left { (&u, &w) } else { (&w, &u) };
    assert!(
        l.left >= 1,
        "dovetail_edges: neither read overhangs the overlap on the left"
    );
    assert!(
        r.right >= 1,
        "dovetail_edges: the right read does not overhang the overlap on the right"
    );
    let left_to_right = SgEdge {
        pre: (l.beg - 1) as u32,
        post: r.beg as u32,
        src_rev: false,
        dst_rev: false,
        suffix: r.right as u32,
    };
    let right_to_left = SgEdge {
        pre: (r.end + 1) as u32,
        post: l.end as u32,
        src_rev: true,
        dst_rev: true,
        suffix: l.left as u32,
    };
    let (mut fwd, mut bwd) = if u_left {
        (left_to_right, right_to_left)
    } else {
        (right_to_left, left_to_right)
    };
    if aln.rc {
        let to_v = |x: u32| (aln.v_len - 1) as u32 - x;
        fwd.post = to_v(fwd.post);
        fwd.dst_rev = !fwd.dst_rev;
        bwd.pre = to_v(bwd.pre);
        bwd.src_rev = !bwd.src_rev;
    }
    (fwd, bwd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elba_seq::Seq;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn genome(len: usize, seed: u64) -> Seq {
        let mut rng = StdRng::seed_from_u64(seed);
        Seq::from_codes((0..len).map(|_| rng.gen_range(0..4u8)).collect())
    }

    #[test]
    #[should_panic(expected = "neither read overhangs the overlap on the left")]
    fn dovetail_edges_refuse_an_overlap_without_a_left_overhang() {
        dovetail_edges(&OverlapAln {
            rc: false,
            u_beg: 0,
            u_end: 69,
            w_beg: 0,
            w_end: 69,
            u_len: 100,
            v_len: 100,
            score: 70,
        });
    }

    #[test]
    #[should_panic(expected = "the right read does not overhang the overlap on the right")]
    fn dovetail_edges_refuse_a_reverse_overlap_without_a_right_overhang() {
        // `v` ends where the overlap does: under `rc`, `to_v(end + 1)`
        // would wrap.
        dovetail_edges(&OverlapAln {
            rc: true,
            u_beg: 30,
            u_end: 99,
            w_beg: 0,
            w_end: 69,
            u_len: 100,
            v_len: 70,
            score: 70,
        });
    }

    /// Reconstruct the two-read contig implied by edge `e` (src → dst).
    fn walk_two(src: &Seq, dst: &Seq, e: &SgEdge) -> Seq {
        let alpha = if e.src_rev { src.len() - 1 } else { 0 };
        let beta = if e.dst_rev { 0 } else { dst.len() - 1 };
        let mut contig = src.paper_slice(alpha, e.pre as usize);
        contig.extend_from(&dst.paper_slice(e.post as usize, beta));
        contig
    }

    /// Check the dovetail edges rebuild the genome span (or its rc).
    fn assert_dovetail_rebuilds(g: &Seq, u: &Seq, v: &Seq, aln: &OverlapAln, span: Seq) {
        match classify(aln, 0) {
            OverlapClass::Dovetail { fwd, bwd } => {
                let fwd_contig = walk_two(u, v, &fwd);
                let bwd_contig = walk_two(v, u, &bwd);
                assert!(
                    fwd_contig == span || fwd_contig == span.reverse_complement(),
                    "fwd walk mismatch: got {fwd_contig} want {span} (genome len {})",
                    g.len()
                );
                assert!(
                    bwd_contig == span || bwd_contig == span.reverse_complement(),
                    "bwd walk mismatch: got {bwd_contig}"
                );
                // The two walks are reverse complements of each other.
                assert_eq!(fwd_contig.reverse_complement(), bwd_contig);
            }
            other => panic!("expected dovetail, got {other:?}"),
        }
    }

    #[test]
    fn case1_same_strand_u_left() {
        let g = genome(100, 1);
        let u = g.substring(0, 60);
        let v = g.substring(40, 100);
        // true overlap: u[40..=59] == v[0..=19]
        let aln = OverlapAln {
            rc: false,
            u_beg: 40,
            u_end: 59,
            w_beg: 0,
            w_end: 19,
            u_len: 60,
            v_len: 60,
            score: 20,
        };
        assert_dovetail_rebuilds(&g, &u, &v, &aln, g.substring(0, 100));
    }

    #[test]
    fn case2_same_strand_v_left() {
        let g = genome(100, 2);
        let u = g.substring(40, 100);
        let v = g.substring(0, 60);
        // overlap: u[0..=19] == v[40..=59]
        let aln = OverlapAln {
            rc: false,
            u_beg: 0,
            u_end: 19,
            w_beg: 40,
            w_end: 59,
            u_len: 60,
            v_len: 60,
            score: 20,
        };
        assert_dovetail_rebuilds(&g, &u, &v, &aln, g.substring(0, 100));
    }

    #[test]
    fn case3_rc_u_left() {
        let g = genome(100, 3);
        let u = g.substring(0, 60);
        let v = g.substring(40, 100).reverse_complement();
        // oriented w = rc(v) = g[40..100): overlap u[40..=59] == w[0..=19]
        let aln = OverlapAln {
            rc: true,
            u_beg: 40,
            u_end: 59,
            w_beg: 0,
            w_end: 19,
            u_len: 60,
            v_len: 60,
            score: 20,
        };
        assert_dovetail_rebuilds(&g, &u, &v, &aln, g.substring(0, 100));
    }

    #[test]
    fn case4_rc_v_left() {
        let g = genome(100, 4);
        let u = g.substring(40, 100);
        let v = g.substring(0, 60).reverse_complement();
        // w = rc(v) = g[0..60): overlap u[0..=19] == w[40..=59]
        let aln = OverlapAln {
            rc: true,
            u_beg: 0,
            u_end: 19,
            w_beg: 40,
            w_end: 59,
            u_len: 60,
            v_len: 60,
            score: 20,
        };
        assert_dovetail_rebuilds(&g, &u, &v, &aln, g.substring(0, 100));
    }

    #[test]
    fn fig3_pre_post_values() {
        // Fig. 3 first edge: l0 = AGAACT (len 6), l1 = AACTGAAG (len 8),
        // overlap l0[2..=5] == l1[0..=3]: the paper reports pre = 1, post = 0.
        let aln = OverlapAln {
            rc: false,
            u_beg: 2,
            u_end: 5,
            w_beg: 0,
            w_end: 3,
            u_len: 6,
            v_len: 8,
            score: 4,
        };
        match classify(&aln, 0) {
            OverlapClass::Dovetail { fwd, .. } => {
                assert_eq!(fwd.pre, 1);
                assert_eq!(fwd.post, 0);
                assert!(!fwd.src_rev && !fwd.dst_rev);
            }
            other => panic!("expected dovetail, got {other:?}"),
        }
    }

    #[test]
    fn fig3_xdrop_early_termination_edge() {
        // Fig. 3 second edge with x-drop ending early: l1 = AACTGAAG,
        // l2 = TGAAGAA, aligner reports l1[5..=7] ~ l2[2..=4] only.
        // The paper stores pre = 4, post = 2 — post must be kept explicitly.
        let aln = OverlapAln {
            rc: false,
            u_beg: 5,
            u_end: 7,
            w_beg: 2,
            w_end: 4,
            u_len: 8,
            v_len: 7,
            score: 3,
        };
        // The toy reads are so short that classification thresholds would
        // flag this as containment; the paper's point is the pre/post
        // bookkeeping, so exercise the edge computation directly.
        let (fwd, _) = dovetail_edges(&aln);
        assert_eq!(fwd.pre, 4);
        assert_eq!(fwd.post, 2);
        assert!(!fwd.src_rev && !fwd.dst_rev);
        // And the full three-read concatenation matches the paper: see the
        // fig3 test in elba-seq (dna.rs).
    }

    #[test]
    fn containment_detected_both_ways() {
        // u inside v
        let aln = OverlapAln {
            rc: false,
            u_beg: 0,
            u_end: 29,
            w_beg: 10,
            w_end: 39,
            u_len: 30,
            v_len: 60,
            score: 30,
        };
        assert_eq!(classify(&aln, 0), OverlapClass::ContainedU);
        // v inside u
        let aln = OverlapAln {
            rc: true,
            u_beg: 10,
            u_end: 39,
            w_beg: 0,
            w_end: 29,
            u_len: 60,
            v_len: 30,
            score: 30,
        };
        assert_eq!(classify(&aln, 0), OverlapClass::ContainedV);
    }

    #[test]
    fn containment_with_fuzz() {
        // u has 2 unaligned bases at each end; with fuzz >= 2 it is contained.
        let aln = OverlapAln {
            rc: false,
            u_beg: 2,
            u_end: 27,
            w_beg: 10,
            w_end: 35,
            u_len: 30,
            v_len: 60,
            score: 26,
        };
        assert_eq!(classify(&aln, 2), OverlapClass::ContainedU);
        assert_ne!(classify(&aln, 0), OverlapClass::ContainedU);
    }

    #[test]
    fn internal_match_rejected() {
        // overlap floats in the middle of both reads (repeat-induced)
        let aln = OverlapAln {
            rc: false,
            u_beg: 20,
            u_end: 39,
            w_beg: 25,
            w_end: 44,
            u_len: 60,
            v_len: 70,
            score: 20,
        };
        assert_eq!(classify(&aln, 3), OverlapClass::Internal);
    }

    #[test]
    fn suffix_weights_are_overhangs() {
        let g = genome(100, 9);
        let _u = g.substring(0, 60);
        let _v = g.substring(40, 100);
        let aln = OverlapAln {
            rc: false,
            u_beg: 40,
            u_end: 59,
            w_beg: 0,
            w_end: 19,
            u_len: 60,
            v_len: 60,
            score: 20,
        };
        match classify(&aln, 0) {
            OverlapClass::Dovetail { fwd, bwd } => {
                // v extends 40 bases beyond the overlap; u extends 40 left.
                assert_eq!(fwd.suffix, 40);
                assert_eq!(bwd.suffix, 40);
            }
            other => panic!("expected dovetail, got {other:?}"),
        }
    }

    #[test]
    fn swapping_the_reads_swaps_the_edge_pair() {
        // One dovetail seen from the other read — `v` first, aligned
        // against rc(u) when `rc` — is the same two edges in the other
        // order: `u→v` of one is `v→u` of the other.
        let mut rng = StdRng::seed_from_u64(52);
        for _ in 0..2_000 {
            // `(beg, end, len)` of each read in oriented space. The left
            // read overhangs the overlap on the left and the right read
            // on the right; x-drop may leave a few bases unaligned at the
            // inner ends, always fewer than the outer overhangs.
            let aligned = |before: usize, span: usize, after: usize| {
                (before, before + span - 1, before + span + after)
            };
            let left = aligned(
                rng.gen_range(4..60),
                rng.gen_range(1..80),
                rng.gen_range(0..4),
            );
            let right = aligned(
                rng.gen_range(0..4),
                rng.gen_range(1..80),
                rng.gen_range(4..60),
            );
            let (u, w) = if rng.gen_bool(0.5) {
                (left, right)
            } else {
                (right, left)
            };
            let aln = OverlapAln {
                rc: rng.gen_bool(0.5),
                u_beg: u.0,
                u_end: u.1,
                w_beg: w.0,
                w_end: w.1,
                u_len: u.2,
                v_len: w.2,
                score: 0,
            };
            let (lu, lv) = (aln.u_len, aln.v_len);
            let swapped = if aln.rc {
                // u[a..=b] ~ rc(v)[c..=d] is v[lv−1−d..=lv−1−c] ~
                // rc(u)[lu−1−b..=lu−1−a].
                OverlapAln {
                    u_beg: lv - 1 - aln.w_end,
                    u_end: lv - 1 - aln.w_beg,
                    w_beg: lu - 1 - aln.u_end,
                    w_end: lu - 1 - aln.u_beg,
                    u_len: lv,
                    v_len: lu,
                    ..aln
                }
            } else {
                OverlapAln {
                    u_beg: aln.w_beg,
                    u_end: aln.w_end,
                    w_beg: aln.u_beg,
                    w_end: aln.u_end,
                    u_len: lv,
                    v_len: lu,
                    ..aln
                }
            };
            let (fwd, bwd) = dovetail_edges(&aln);
            assert_eq!(dovetail_edges(&swapped), (bwd, fwd), "{aln:?}");
        }
    }

    #[test]
    fn randomized_walks_rebuild_genome_spans() {
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..50 {
            let glen = 200;
            let g = genome(glen, 1000 + trial);
            // two overlapping windows
            let a_start = rng.gen_range(0..60);
            let a_end = a_start + rng.gen_range(60..100);
            let b_start = rng.gen_range(a_start + 10..a_end - 30);
            let b_end = (b_start + rng.gen_range(60..120)).min(glen);
            if b_end <= a_end + 5 {
                continue; // need v to extend beyond u
            }
            let u = g.substring(a_start, a_end);
            let v_fwd = g.substring(b_start, b_end);
            let rc = rng.gen_bool(0.5);
            let v = if rc {
                v_fwd.reverse_complement()
            } else {
                v_fwd
            };
            // true overlap in oriented space
            let aln = OverlapAln {
                rc,
                u_beg: b_start - a_start,
                u_end: u.len() - 1,
                w_beg: 0,
                w_end: a_end - b_start - 1,
                u_len: u.len(),
                v_len: v.len(),
                score: (a_end - b_start) as i32,
            };
            let span = g.substring(a_start, b_end);
            assert_dovetail_rebuilds(&g, &u, &v, &aln, span);
        }
    }
}
