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
    let (lu, lv) = (aln.u_len, aln.v_len);
    let left_u = aln.u_beg;
    let right_u = lu - 1 - aln.u_end;
    let left_w = aln.w_beg;
    let right_w = lv - 1 - aln.w_end;

    if left_u <= fuzz && right_u <= fuzz {
        return OverlapClass::ContainedU;
    }
    if left_w <= fuzz && right_w <= fuzz {
        return OverlapClass::ContainedV;
    }
    if left_u.min(left_w) > fuzz || right_u.min(right_w) > fuzz {
        return OverlapClass::Internal;
    }

    let (fwd, bwd) = dovetail_edges(aln);
    OverlapClass::Dovetail { fwd, bwd }
}

/// Compute the directed edge pair for a dovetail overlap, deciding the
/// left read by the larger unaligned left overhang. Exposed separately so
/// the `pre`/`post` bookkeeping can be exercised on alignments (like the
/// paper's Fig. 3 x-drop example) regardless of classification thresholds.
pub fn dovetail_edges(aln: &OverlapAln) -> (SgEdge, SgEdge) {
    let lv = aln.v_len;
    let left_u = aln.u_beg;
    let right_u = aln.u_len - 1 - aln.u_end;
    let left_w = aln.w_beg;
    let right_w = lv - 1 - aln.w_end;
    if left_u > left_w {
        // `u` extends further left: u is the left read of the dovetail.
        if !aln.rc {
            (
                // u→v: walk emits u forward, then v forward.
                SgEdge {
                    pre: (aln.u_beg - 1) as u32,
                    post: aln.w_beg as u32,
                    src_rev: false,
                    dst_rev: false,
                    suffix: right_w as u32,
                },
                // v→u: walk emits rc(v), then rc(u).
                SgEdge {
                    pre: (aln.w_end + 1) as u32,
                    post: aln.u_end as u32,
                    src_rev: true,
                    dst_rev: true,
                    suffix: left_u as u32,
                },
            )
        } else {
            (
                // u→v: u forward, then v reverse-complemented.
                SgEdge {
                    pre: (aln.u_beg - 1) as u32,
                    post: (lv - 1 - aln.w_beg) as u32,
                    src_rev: false,
                    dst_rev: true,
                    suffix: right_w as u32,
                },
                // v→u: v forward (w = rc(v), so reversing the walk makes v
                // forward), then rc(u).
                SgEdge {
                    pre: (lv - aln.w_end - 2) as u32,
                    post: aln.u_end as u32,
                    src_rev: false,
                    dst_rev: true,
                    suffix: left_u as u32,
                },
            )
        }
    } else {
        // Oriented v extends further left: v is the left read.
        if !aln.rc {
            (
                // u→v: walk emits rc(u), then rc(v).
                SgEdge {
                    pre: (aln.u_end + 1) as u32,
                    post: aln.w_end as u32,
                    src_rev: true,
                    dst_rev: true,
                    suffix: left_w as u32,
                },
                // v→u: v forward, then u forward.
                SgEdge {
                    pre: (aln.w_beg - 1) as u32,
                    post: aln.u_beg as u32,
                    src_rev: false,
                    dst_rev: false,
                    suffix: right_u as u32,
                },
            )
        } else {
            (
                // u→v: rc(u), then rc(w) = v forward.
                SgEdge {
                    pre: (aln.u_end + 1) as u32,
                    post: (lv - 1 - aln.w_end) as u32,
                    src_rev: true,
                    dst_rev: false,
                    suffix: left_w as u32,
                },
                // v→u: v reversed (emitting w), then u forward.
                SgEdge {
                    pre: (lv - aln.w_beg) as u32,
                    post: aln.u_beg as u32,
                    src_rev: true,
                    dst_rev: false,
                    suffix: right_u as u32,
                },
            )
        }
    }
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
