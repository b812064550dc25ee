//! Property tests pinning the band x-drop kernel (`BitParallel`, what a
//! default workspace runs) to the scalar oracle: for *every* input — random
//! related or unrelated sequences up to 4 Kbp, every scoring the
//! pipeline uses plus degenerate ones, x-drop thresholds from below 0
//! to 200, empty sequences, and non-ACGT byte codes — it must return
//! the byte-identical [`Extension`] the `Scalar` kernel returns. Any
//! divergence here is a correctness bug, not a tuning difference.
//!
//! The band kernel never clears its buffers: it relies on every parent
//! load landing in a cell the previous two antidiagonals wrote. Debug
//! builds (which is what `cargo test` runs) poison the buffers before
//! each extension and assert that no poisoned cell is loaded, so every
//! case here also checks that invariant; the release-mode `--ignored`
//! stress instead runs on genuinely stale buffers from earlier cases.

use elba_align::{extend_seed_with, xdrop_extend_with, Scoring, XdropKernel, XdropWorkspace};
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
