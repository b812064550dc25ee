//! Property tests pinning [`XdropKernel::BitParallel`] (what a default
//! workspace runs) to the scalar oracle: for *every* input — random
//! related or unrelated sequences up to 4 Kbp, every scoring the
//! pipeline uses plus degenerate ones, x-drop thresholds from below 0
//! to 200, empty sequences, and non-ACGT byte codes — it must return
//! the byte-identical [`Extension`] the `Scalar` kernel returns. Any
//! divergence here is a correctness bug, not a tuning difference.
//!
//! `BitParallel` is a composite: the cost-ordered wavefront runs first
//! and hands an extension over its visit budget to the band kernel.
//! The cases below referee both branches, and tell which one ran from
//! the workspace's heap bytes (the wavefront's ring and the band's
//! buffers have known sizes); the in-crate unit tests pin each kernel
//! alone.
//!
//! The band kernel never clears its buffers: it relies on every parent
//! load landing in a cell the previous two antidiagonals wrote. Debug
//! builds (which is what `cargo test` runs) poison the buffers before
//! each extension and assert that no poisoned cell is loaded, and
//! assert that no wavefront match run is cut, so every case here also
//! checks those invariants; the release-mode `--ignored` stress instead
//! runs on genuinely stale buffers from earlier cases.

use elba_align::{
    extend_seed_with, xdrop_extend_with, Extension, Scoring, XdropKernel, XdropWorkspace,
};
use elba_seq::Seq;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The scorings the assembly pipeline actually runs with, plus skewed
/// ones that stress the mismatch/gap ordering in the recurrence.
const SCORINGS: [Scoring; 4] = [
    Scoring {
        match_score: 1,
        mismatch: -1,
        gap: -1,
    },
    Scoring {
        match_score: 2,
        mismatch: -3,
        gap: -2,
    },
    Scoring {
        match_score: 5,
        mismatch: -4,
        gap: -11,
    },
    Scoring {
        match_score: 3,
        mismatch: 0,
        gap: -1,
    },
];

/// Mutate `base` with substitutions/indels at roughly `rate`, driven by
/// a deterministic byte stream, so pairs look like long-read overlaps
/// (long extensions) rather than unrelated noise (instant x-drop).
fn mutate(base: &[u8], noise: &[u8], rate_pct: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(base.len() + 8);
    for (i, &c) in base.iter().enumerate() {
        let r = noise[i % noise.len().max(1)] as usize;
        if (r % 100) < rate_pct as usize {
            match r % 3 {
                0 => out.push(((c as usize + 1 + r / 3) % 4) as u8), // substitution
                1 => {}                                              // deletion
                _ => {
                    out.push((r / 3 % 4) as u8); // insertion
                    out.push(c);
                }
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Assert every kernel agrees with the scalar oracle on `(a, b)`,
/// reusing workspaces across calls the way the pipeline does.
fn assert_kernels_agree(
    sws: &mut XdropWorkspace,
    bws: &mut XdropWorkspace,
    a: &[u8],
    b: &[u8],
    xdrop: i32,
    sc: Scoring,
) {
    let want = xdrop_extend_with(sws, a, b, xdrop, sc);
    let got = xdrop_extend_with(bws, a, b, xdrop, sc);
    assert_eq!(
        got,
        want,
        "BitParallel != Scalar (|a|={}, |b|={}, xdrop={xdrop}, sc={sc:?})",
        a.len(),
        b.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Related pairs: mutated copies of a shared template up to 4 Kbp,
    /// the workload the kernel exists for (deep bands, long survival).
    #[test]
    fn bitparallel_equals_scalar_on_related_pairs(
        template in proptest::collection::vec(0u8..4, 0..4000),
        noise in proptest::collection::vec(0u8..=255, 64..256),
        rate_pct in 0u8..25,
        xdrop_idx in 0usize..4,
        sc_idx in 0usize..4,
    ) {
        let xdrop = [0, 5, 30, 100][xdrop_idx];
        let sc = SCORINGS[sc_idx];
        let a = template;
        let b = mutate(&a, &noise, rate_pct);
        let mut sws = XdropWorkspace::with_kernel(XdropKernel::Scalar);
        let mut bws = XdropWorkspace::with_kernel(XdropKernel::BitParallel);
        assert_kernels_agree(&mut sws, &mut bws, &a, &b, xdrop, sc);
        // Same workspaces, swapped operands: reuse must not leak state.
        assert_kernels_agree(&mut sws, &mut bws, &b, &a, xdrop, sc);
    }

    /// Unrelated pairs (plus stray non-ACGT codes): the band dies fast
    /// and the matrix-edge cells dominate.
    #[test]
    fn bitparallel_equals_scalar_on_unrelated_pairs(
        a in proptest::collection::vec(0u8..5, 0..600),
        b in proptest::collection::vec(0u8..5, 0..600),
        xdrop in 0i32..101,
        sc_idx in 0usize..4,
    ) {
        let mut sws = XdropWorkspace::with_kernel(XdropKernel::Scalar);
        let mut bws = XdropWorkspace::with_kernel(XdropKernel::BitParallel);
        assert_kernels_agree(&mut sws, &mut bws, &a, &b, xdrop, SCORINGS[sc_idx]);
    }
}

/// The fixed edge cases proptest ranges can miss: both empty, one empty,
/// single bases, and the default workspace resolving to the same answer.
#[test]
fn kernels_agree_on_edge_inputs() {
    let sc = Scoring::default();
    let cases: [(&[u8], &[u8]); 6] = [
        (&[], &[]),
        (&[], &[0, 1, 2, 3]),
        (&[2], &[]),
        (&[1], &[1]),
        (&[0], &[3]),
        (&[0, 0, 0, 0], &[0, 0, 0, 0]),
    ];
    for mut kws in [
        XdropWorkspace::with_kernel(XdropKernel::BitParallel),
        XdropWorkspace::default(),
    ] {
        let mut sws = XdropWorkspace::with_kernel(XdropKernel::Scalar);
        for (a, b) in cases {
            for xdrop in [0, 1, 100] {
                assert_kernels_agree(&mut sws, &mut kws, a, b, xdrop, sc);
            }
        }
    }
}

/// Scorings for the seeded stress: the pipeline's, skewed ones, and the
/// degenerate corners (zero / negative match, positive gap, all-zero)
/// where the best score never rises or the band never prunes.
const STRESS_SCORINGS: [Scoring; 8] = [
    SCORINGS[0],
    SCORINGS[1],
    SCORINGS[2],
    SCORINGS[3],
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
    Scoring {
        match_score: 2,
        mismatch: -1,
        gap: 1,
    },
    Scoring {
        match_score: 0,
        mismatch: 0,
        gap: 0,
    },
];

/// Seeded differential stress over one reused workspace per kernel, so
/// `|b|` shrinks and grows between calls. Case shapes: related pairs,
/// unrelated pairs, one partner truncated (the band runs off the end
/// of `a` before `b`, or of `b` before `a`), a random tail appended
/// after the shared part, and codes >= 4 planted at the same positions
/// of both partners inside matching runs.
fn differential_stress(cases: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sws = XdropWorkspace::with_kernel(XdropKernel::Scalar);
    let mut bws = XdropWorkspace::with_kernel(XdropKernel::BitParallel);
    let mut dws = XdropWorkspace::default();
    for case in 0..cases {
        let sc = STRESS_SCORINGS[rng.gen_range(0..STRESS_SCORINGS.len())];
        // A positive (or zero) gap keeps every cell alive: the band is
        // the whole matrix, so keep those cases small.
        let max_len = if sc.gap >= 0 { 120 } else { 1_500 };
        let len = match rng.gen_range(0..4u8) {
            0 => rng.gen_range(0..8),
            1 => rng.gen_range(0..100),
            _ => rng.gen_range(0..max_len),
        };
        let alphabet = [2u8, 4, 6][rng.gen_range(0..3)];
        let mut a: Vec<u8> = (0..len).map(|_| rng.gen_range(0..alphabet)).collect();
        let noise: Vec<u8> = (0..64).map(|_| rng.gen_range(0..=255u8)).collect();
        let mut b = match rng.gen_range(0..5u8) {
            0 => (0..rng.gen_range(0..max_len))
                .map(|_| rng.gen_range(0..alphabet))
                .collect(),
            _ => mutate(&a, &noise, rng.gen_range(0..20)),
        };
        match rng.gen_range(0..6u8) {
            0 => a.truncate(rng.gen_range(0..=a.len())),
            1 => b.truncate(rng.gen_range(0..=b.len())),
            2 => b.extend((0..rng.gen_range(0..200)).map(|_| rng.gen_range(0..alphabet))),
            3 => {
                let shared = a.len().min(b.len());
                for _ in 0..rng.gen_range(0..6).min(shared) {
                    let at = rng.gen_range(0..shared);
                    a[at] = 7;
                    b[at] = 7;
                }
            }
            _ => {}
        }
        let xdrop = match rng.gen_range(0..8u8) {
            0 => rng.gen_range(-3..0),
            1 => 0,
            2 => 200,
            _ => rng.gen_range(1..60),
        };
        let want = xdrop_extend_with(&mut sws, &a, &b, xdrop, sc);
        for (name, ws) in [("BitParallel", &mut bws), ("default", &mut dws)] {
            let got = xdrop_extend_with(ws, &a, &b, xdrop, sc);
            assert_eq!(
                got,
                want,
                "case {case} (seed {seed}): {name} != Scalar (|a|={}, |b|={}, xdrop={xdrop}, {sc:?})",
                a.len(),
                b.len()
            );
        }
        // The seeded wrapper hands the kernel the original prefix as
        // rev(rev(a)) for the left extension; pin that orientation too.
        let k = 4;
        if a.len() >= k && b.len() >= k {
            let (a_pos, b_pos) = (
                rng.gen_range(0..=a.len() - k),
                rng.gen_range(0..=b.len() - k),
            );
            let want = extend_seed_with(&mut sws, &a, &b, a_pos, b_pos, k, xdrop, sc);
            let got = extend_seed_with(&mut bws, &a, &b, a_pos, b_pos, k, xdrop, sc);
            assert_eq!(
                got, want,
                "case {case} (seed {seed}): seeded BitParallel != Scalar (a_pos={a_pos}, b_pos={b_pos}, xdrop={xdrop}, {sc:?})"
            );
        }
    }
}

#[test]
fn differential_stress_bounded() {
    differential_stress(2_000, 13);
}

/// The long version of [`differential_stress_bounded`]; CI runs it in
/// release (`cargo test --release -p elba-align -- --ignored`).
#[test]
#[ignore = "60k-case stress; run in release"]
fn differential_stress_full() {
    differential_stress(60_000, 2022);
}

/// Workspace reuse across growing and shrinking `|b|`: the band
/// buffers keep their largest size, so a short extension after a long
/// one runs over cells the long one left behind (poisoned in debug
/// builds — any load outside the written window panics).
#[test]
fn reuse_across_shrinking_and_growing_b() {
    let mut rng = StdRng::seed_from_u64(7);
    let g: Vec<u8> = (0..3_000).map(|_| rng.gen_range(0..4u8)).collect();
    let noise: Vec<u8> = (0..97).map(|_| rng.gen_range(0..=255u8)).collect();
    let mut sws = XdropWorkspace::with_kernel(XdropKernel::Scalar);
    let mut bws = XdropWorkspace::with_kernel(XdropKernel::BitParallel);
    for &(alen, blen) in &[
        (2_000, 2_000),
        (10, 3),
        (3, 10),
        (1_200, 40),
        (40, 1_200),
        (1, 1),
        (3_000, 3_000),
        (500, 499),
        (0, 7),
        (2_500, 2_400),
    ] {
        let a = &g[..alen];
        let b = mutate(&g[..blen], &noise, 3);
        for xdrop in [0, 7, 40] {
            assert_kernels_agree(&mut sws, &mut bws, a, &b, xdrop, Scoring::default());
        }
    }
}

/// `|b| + 3` cells per band buffer, three buffers, plus `rev(a)`.
fn band_bytes(a: &[u8], b: &[u8]) -> usize {
    3 * (b.len() + 3) * 4 + a.len()
}

/// The wavefront's ring of `max(M, G) + 1` layers plus `reach`, each
/// `|a| + |b| + 1` offsets.
fn ring_bytes(a: &[u8], b: &[u8], sc: Scoring) -> usize {
    let step = (2 * (sc.match_score - sc.mismatch)).max(sc.match_score - 2 * sc.gap);
    (step as usize + 2) * (a.len() + b.len() + 1) * 4
}

/// Which branch of the composite one extension took, read from a fresh
/// workspace's heap bytes after the call.
#[derive(Debug, PartialEq)]
enum Branch {
    /// The wavefront finished: its ring and one level per score point.
    Wavefront,
    /// The wavefront handed over: its ring plus the band's buffers.
    Handover,
    /// The band kernel alone: its buffers and nothing else.
    Band,
}

/// Run one composite extension on a fresh workspace, assert it equals
/// the oracle, and report the branch it took.
fn referee(a: &[u8], b: &[u8], xdrop: i32, sc: Scoring) -> Branch {
    let want = xdrop_extend_with(
        &mut XdropWorkspace::with_kernel(XdropKernel::Scalar),
        a,
        b,
        xdrop,
        sc,
    );
    let mut ws = XdropWorkspace::default();
    let got = xdrop_extend_with(&mut ws, a, b, xdrop, sc);
    assert_eq!(
        got,
        want,
        "BitParallel != Scalar (|a|={}, |b|={}, xdrop={xdrop}, sc={sc:?})",
        a.len(),
        b.len()
    );
    let held = ws.heap_bytes();
    if held == band_bytes(a, b) {
        Branch::Band
    } else if held == ring_bytes(a, b, sc) + (want.score as usize + 1) * 8 {
        Branch::Wavefront
    } else {
        assert!(
            held >= ring_bytes(a, b, sc) + band_bytes(a, b),
            "{held} bytes held: neither branch's buffers"
        );
        Branch::Handover
    }
}

fn codes(s: &str) -> Vec<u8> {
    s.parse::<Seq>().expect("dna").codes().to_vec()
}

/// The shapes the wavefront's exactness argument leans on (the module
/// docs of `xdrop.rs`), each refereed against `Scalar`.
#[test]
fn composite_agrees_on_named_cases() {
    let sc = Scoring::default();
    // Equal best scores on two diagonals of one antidiagonal: (5, 4) and
    // (4, 5) both score 3, and the first hit in antidiagonal order wins.
    let (a, b) = (codes("AAACA"), codes("AACAC"));
    for x in [1, 2, 3] {
        assert_eq!(referee(&a, &b, x, sc), Branch::Wavefront);
    }
    let tie = xdrop_extend_with(&mut XdropWorkspace::default(), &a, &b, 1, sc);
    let first_hit = Extension {
        score: 3,
        a_len: 5,
        b_len: 4,
    };
    assert_eq!(tie, first_hit);
    // Equal best scores on two antidiagonals: (4, 4) and (5, 6) both
    // score 4.
    let (a, b) = (codes("ACGTC"), codes("ACGTAC"));
    for x in [0, 2, 4] {
        referee(&a, &b, x, sc);
    }
    // Match runs beside a rising best: in (AC)^20 against itself the
    // diagonals ±2 match all the way, two gaps behind the main one. At
    // x = 3 they stay live to the end (debug builds assert that no run
    // is cut midway), at x = 2 they are cut where they enter.
    let ac = codes(&"AC".repeat(20));
    for x in [2, 3, 4] {
        for sc in SCORINGS {
            referee(&ac, &ac, x, sc);
            referee(&ac, &ac[1..], x, sc);
        }
    }
    // A band that reaches both sequence ends: near-identical partners at
    // an x-drop wider than both.
    let g = codes("ACGTTGCAACGTGGATCCATTTACGGCAATCGGTTACCAGG");
    let mut h = g.clone();
    h.remove(11);
    h.insert(25, 2);
    for x in [40, 200] {
        for sc in SCORINGS {
            referee(&g, &h, x, sc);
        }
    }
    // The wavefront's stop bound must stay continuous in the cost `c`:
    // with `⌊c/G⌋` for `c/G` it rises once every `G` layers, and at
    // 3/0/−1 (`G = 5`) the search would end at cost 8, before this
    // answer, which costs 10: two gaps, then a match. Behind a shared
    // 20-base prefix the bound is the same and the pair stays inside
    // the wavefront's budget.
    let (a, b) = (vec![0, 0, 1, 0], vec![1]);
    let prefix = codes(&"ACGT".repeat(5));
    for len in [0, prefix.len()] {
        let a = [&prefix[..len], &a[..]].concat();
        let b = [&prefix[..len], &b[..]].concat();
        let branch = referee(&a, &b, 3, SCORINGS[3]);
        assert!(len == 0 || branch == Branch::Wavefront, "{branch:?}");
        let past_two_gaps = Extension {
            score: 3 * len as i32 + 1,
            a_len: len + 3,
            b_len: len + 1,
        };
        let got = xdrop_extend_with(&mut XdropWorkspace::default(), &a, &b, 3, SCORINGS[3]);
        assert_eq!(got, past_two_gaps);
    }
    // x = 0: the first loss ends the extension.
    let (a, b) = (codes("AAAATAAAA"), codes("AAAACAAAA"));
    for sc in SCORINGS {
        assert_eq!(referee(&a, &b, 0, sc), Branch::Wavefront);
    }
    // Unrelated pairs at the pipeline's x-drops and above: the
    // wavefront hands them to the band.
    let mut rng = StdRng::seed_from_u64(60);
    for x in [15, 60] {
        let a: Vec<u8> = (0..1_000).map(|_| rng.gen_range(0..4u8)).collect();
        let b: Vec<u8> = (0..1_000).map(|_| rng.gen_range(0..4u8)).collect();
        assert_eq!(referee(&a, &b, x, sc), Branch::Handover, "x {x}");
    }
}

/// Every two-letter pair of up to six bases, under every pipeline
/// scoring and x-drop 0–6: 387 096 extensions.
#[test]
fn composite_agrees_on_every_small_binary_pair() {
    let words: Vec<Vec<u8>> = (0..=6u32)
        .flat_map(|len| {
            (0..1u32 << len).map(move |bits| (0..len).map(|i| (bits >> i & 1) as u8).collect())
        })
        .collect();
    let mut sws = XdropWorkspace::with_kernel(XdropKernel::Scalar);
    let mut kws = XdropWorkspace::default();
    for sc in SCORINGS {
        for xdrop in [0, 1, 2, 3, 4, 6] {
            for a in &words {
                for b in &words {
                    assert_kernels_agree(&mut sws, &mut kws, a, b, xdrop, sc);
                }
            }
        }
    }
}

/// Append `len` random bases.
fn random_tail(rng: &mut StdRng, seq: &mut Vec<u8>, len: usize) {
    seq.extend((0..len).map(|_| rng.gen_range(0..4u8)));
}

/// Long low-divergence overlaps — 1–4 kb at up to 1 %, `a` running on
/// into a random tail — finish in the wavefront.
#[test]
fn low_divergence_overlaps_finish_in_the_wavefront() {
    let mut rng = StdRng::seed_from_u64(71);
    for case in 0..24 {
        let len = rng.gen_range(1_000..4_000);
        let template: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4u8)).collect();
        let noise: Vec<u8> = (0..97).map(|_| rng.gen_range(0..=255u8)).collect();
        let b = mutate(&template, &noise, rng.gen_range(0..2));
        let mut a = template;
        random_tail(&mut rng, &mut a, 300);
        let (sc, xdrop) = (SCORINGS[case % 4], [15, 30][case % 2]);
        assert_eq!(referee(&a, &b, xdrop, sc), Branch::Wavefront, "case {case}");
    }
}

/// 15–30 % divergence and unrelated pairs hand over to the band.
#[test]
fn high_divergence_overlaps_hand_over_to_the_band() {
    let mut rng = StdRng::seed_from_u64(72);
    for case in 0..24 {
        let len = rng.gen_range(1_000..2_000);
        let a: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4u8)).collect();
        let b = if case % 4 == 3 {
            (0..len).map(|_| rng.gen_range(0..4u8)).collect()
        } else {
            let noise: Vec<u8> = (0..97).map(|_| rng.gen_range(0..=255u8)).collect();
            mutate(&a, &noise, rng.gen_range(15..=30))
        };
        let xdrop = [15, 30][case % 2];
        assert_eq!(
            referee(&a, &b, xdrop, SCORINGS[0]),
            Branch::Handover,
            "case {case}"
        );
    }
}

/// The degenerate stress scorings (zero or negative match, positive
/// gap, all-zero) skip the wavefront: they run the band kernel alone,
/// as before the wavefront existed.
#[test]
fn degenerate_scorings_keep_the_band_dispatch() {
    let mut rng = StdRng::seed_from_u64(73);
    for sc in &STRESS_SCORINGS[4..] {
        for len in [5, 80, 300] {
            let a: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4u8)).collect();
            let noise: Vec<u8> = (0..31).map(|_| rng.gen_range(0..=255u8)).collect();
            let b = mutate(&a, &noise, 5);
            assert_eq!(referee(&a, &b, 10, *sc), Branch::Band, "{sc:?}");
        }
    }
}
