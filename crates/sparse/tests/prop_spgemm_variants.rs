//! Property tests pinning the SUMMA schedule equivalence: the
//! unbudgeted production schedule and every regime of its budgeted form
//! must produce results *identical* to the eager reference oracle —
//! same structure including explicit zeros, same values — on random
//! matrices across 1×1, 2×2, and 3×3 process grids. The schedules may
//! only differ in overlap and peak memory, never output. Every suite
//! sweeps the whole matrix of [`common::schedule_rows`].

mod common;

use elba_comm::{Backend, CommMsg, ProcGrid, Runner};
use elba_sparse::semiring::{MinPlus, PlusTimes, Semiring};
use elba_sparse::{DistMat, SpGemmOptions};
use proptest::prelude::*;

use common::{max_stage_bytes, schedule_rows, N_ROWS};

type Triples<T> = Vec<(u64, u64, T)>;

/// Sparse triples from a proptest-generated entry list (dedup last-wins).
fn to_triples(nrows: usize, ncols: usize, entries: &[(usize, usize, i8)]) -> Triples<f64> {
    let mut map = std::collections::BTreeMap::new();
    for &(r, c, v) in entries {
        if v != 0 {
            map.insert((r % nrows, c % ncols), v as f64);
        }
    }
    map.into_iter()
        .map(|((r, c), v)| (r as u64, c as u64, v))
        .collect()
}

/// Multiply `A ⊗ B` on a p-rank grid under the eager oracle, the
/// unbudgeted schedule and every budgeted regime, all inside one SPMD
/// run; returns the labelled, sorted triple lists (exact structure,
/// explicit zeros included), oracle first.
fn products<S>(
    p: usize,
    (n, k, m): (usize, usize, usize),
    a_triples: &Triples<S::A>,
    b_triples: &Triples<S::B>,
    semiring: S,
    small_budget: u64,
) -> Vec<(String, Triples<S::Out>)>
where
    S: Semiring + Send + Sync + 'static,
    S::A: Clone + CommMsg + Send + Sync + 'static,
    S::B: Clone + CommMsg + Send + Sync + 'static,
    S::Out: Clone + CommMsg + PartialOrd + Send + Sync + 'static,
{
    let (at, bt) = (a_triples.clone(), b_triples.clone());
    Runner::new(Backend::InProcess)
        .ranks(p)
        .run(move |comm| {
            let grid = ProcGrid::new(comm);
            let root = grid.world().rank() == 0;
            let mine_a = if root { at.clone() } else { Vec::new() };
            let mine_b = if root { bt.clone() } else { Vec::new() };
            let a = DistMat::from_triples(&grid, n, k, mine_a, |_, _| unreachable!());
            let b = DistMat::from_triples(&grid, k, m, mine_b, |_, _| unreachable!());
            schedule_rows(small_budget, max_stage_bytes(&grid, &a, &b))
                .into_iter()
                .map(|(label, opts)| {
                    let mut got = a
                        .spgemm_with(&grid, &b, &semiring, &opts)
                        .gather_triples(&grid);
                    got.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
                    (label, got)
                })
                .collect::<Vec<_>>()
        })
        .remove(0)
}

/// Every surviving path must equal the oracle (the first row).
fn assert_all_equal_oracle<T: PartialEq + std::fmt::Debug>(
    p: usize,
    rows: &[(String, Triples<T>)],
) {
    let (oracle_label, oracle) = &rows[0];
    assert_eq!(oracle_label, "eager");
    assert_eq!(rows.len(), N_ROWS);
    for (label, got) in &rows[1..] {
        assert_eq!(got, oracle, "{label} != eager (p={p})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn pipelined_and_budgeted_equal_eager(
        p_idx in 0usize..3,
        n in 1usize..14,
        k in 1usize..14,
        m in 1usize..14,
        budget in 1u64..4000,
        a_entries in proptest::collection::vec((0usize..20, 0usize..20, -3i8..4), 0..70),
        b_entries in proptest::collection::vec((0usize..20, 0usize..20, -3i8..4), 0..70),
    ) {
        let p = [1usize, 4, 9][p_idx];
        let a_triples = to_triples(n, k, &a_entries);
        let b_triples = to_triples(k, m, &b_entries);
        let rows = products(p, (n, k, m), &a_triples, &b_triples, PlusTimes, budget);
        assert_all_equal_oracle(p, &rows);
    }

    #[test]
    fn schedules_agree_on_aat(
        p_idx in 0usize..3,
        n in 1usize..12,
        k in 1usize..16,
        entries in proptest::collection::vec((0usize..16, 0usize..24, 1i8..3), 0..60),
    ) {
        // The overlap-detection shape: square output from A · Aᵀ.
        let p = [1usize, 4, 9][p_idx];
        let triples = to_triples(n, k, &entries);
        let transposed: Triples<f64> = triples.iter().map(|&(r, c, v)| (c, r, v)).collect();
        let rows = products(p, (n, k, n), &triples, &transposed, PlusTimes, 256);
        assert_all_equal_oracle(p, &rows);
    }

    #[test]
    fn schedules_agree_under_min_plus(
        p_idx in 0usize..3,
        n in 1usize..10,
        entries in proptest::collection::vec((0usize..12, 0usize..12, 1i8..9), 0..50),
    ) {
        // A non-arithmetic semiring (shortest two-hop paths): schedule
        // equivalence must not depend on PlusTimes-specific behavior.
        let p = [1usize, 4, 9][p_idx];
        let triples: Triples<u64> = {
            let mut map = std::collections::BTreeMap::new();
            for &(r, c, v) in &entries {
                map.insert((r % n, c % n), v as u64);
            }
            map.into_iter().map(|((r, c), v)| (r as u64, c as u64, v)).collect()
        };
        let rows = products(p, (n, n, n), &triples, &triples, MinPlus, 1000);
        assert_all_equal_oracle(p, &rows);
    }
}

/// The budget, and nothing else, decides between the double-buffered
/// `ibcast` rounds and the blocking ones: at `budget = 4·max_stage` the
/// stage fetch is non-blocking, one byte below it is blocking — and
/// a double-buffered round ships exactly the default's stage broadcasts
/// (the structure pass and the round-count agreement come on top).
#[test]
fn budget_switches_the_stage_fetch_at_four_stages() {
    for p in [4usize, 9] {
        let (_, profile) = Runner::new(Backend::InProcess)
            .ranks(p)
            .run_profiled(move |comm| {
                let grid = ProcGrid::new(comm);
                let (n, k) = (21usize, 17usize);
                let mine: Triples<f64> = if grid.world().rank() == 0 {
                    (0..n)
                        .flat_map(|r| {
                            (0..5usize).map(move |i| {
                                (
                                    r as u64,
                                    ((r * 11 + i * 3) % k) as u64,
                                    1.0 + ((r + i) % 4) as f64,
                                )
                            })
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                let a = DistMat::from_triples(&grid, n, k, mine, |acc, v| *acc += v);
                let at = a.transpose(&grid);
                let switch = 4 * max_stage_bytes(&grid, &a, &at);
                for (phase, opts) in [
                    ("eager", SpGemmOptions::eager()),
                    ("pipelined", SpGemmOptions::pipelined()),
                    ("at-switch", SpGemmOptions::column_batched(switch)),
                    ("below-switch", SpGemmOptions::column_batched(switch - 1)),
                ] {
                    let _guard = grid.world().phase(phase);
                    a.spgemm_with(&grid, &at, &PlusTimes, &opts);
                }
            });
        for rank in profile.rank_profiles() {
            let calls = |phase: &str, op: &str| {
                let phase = rank.phase(phase).expect("phase recorded");
                phase
                    .collectives
                    .iter()
                    .find(|&&(name, _, _)| name == op)
                    .map_or((0, 0), |&(_, calls, bytes)| (calls, bytes))
            };
            let (r, default) = (rank.rank(), calls("pipelined", "ibcast"));
            assert!(default.0 > 0, "p={p} rank {r}: the default posts ibcasts");
            assert_eq!(calls("pipelined", "bcast"), (0, 0), "p={p} rank {r}");
            // The oracle ships the same stage blocks, blocking.
            assert_eq!(calls("eager", "bcast"), default, "p={p} rank {r}");
            assert_eq!(calls("eager", "ibcast"), (0, 0), "p={p} rank {r}");
            // Each budgeted round is the default's stage fetch again,
            // call for call and byte for byte.
            let batched = calls("at-switch", "ibcast");
            let rounds = batched.0 / default.0;
            assert!(rounds >= 1, "p={p} rank {r}: no double-buffered round");
            assert_eq!(
                batched,
                (rounds * default.0, rounds * default.1),
                "p={p} rank {r}"
            );
            assert_eq!(calls("below-switch", "ibcast"), (0, 0), "p={p} rank {r}");
        }
    }
}
