//! Property tests pinning the intra-rank threading contract: the
//! threaded `SpGemmBatcher` multiply must be **byte-identical** to the
//! single-threaded one — same structure, same values, same row order —
//! for every thread count, window, and semiring, both at the local
//! kernel level and through the distributed SUMMA schedules on the
//! same 1×1 / 2×2 / 3×3 grids the schedule-equivalence props use.
//! Determinism is the contract that makes threading safe to land: if
//! these fail, `--threads` would change assembled contigs.

mod common;

use elba_comm::ProcGrid;
use elba_comm::{Backend, Runner};
use elba_sparse::semiring::{Count, MinPlus, PlusTimes, Semiring};
use elba_sparse::{Csr, DistMat, SpGemmBatcher};
use proptest::prelude::*;

use common::{max_stage_bytes, schedule_rows, N_ROWS};

/// Sparse triples from a proptest-generated entry list (dedup last-wins).
fn to_triples(nrows: usize, ncols: usize, entries: &[(usize, usize, i8)]) -> Vec<(u64, u64, f64)> {
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

fn csr_from(nrows: usize, ncols: usize, triples: &[(u64, u64, f64)]) -> Csr<f64> {
    let local: Vec<(u32, u32, f64)> = triples
        .iter()
        .map(|&(r, c, v)| (r as u32, c as u32, v))
        .collect();
    Csr::from_triples(nrows, ncols, local, |_, _| unreachable!())
}

/// Multiply a window under `semiring` with the given thread count and
/// return the exact parts (structure AND values — byte identity).
fn multiply<S>(
    a: &Csr<S::A>,
    b: &Csr<S::B>,
    semiring: &S,
    threads: usize,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<u32>,
) -> (Vec<u32>, Vec<u32>, Vec<S::Out>)
where
    S: Semiring + Sync,
    S::A: Sync,
    S::B: Sync,
{
    let mut batcher = SpGemmBatcher::new(a, b, semiring).with_threads(threads);
    batcher.multiply_rows_par(rows, cols).into_parts()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Local kernel: threaded == serial for arbitrary shapes, windows,
    /// and worker counts, under three different semirings.
    #[test]
    fn threaded_local_multiply_is_byte_identical(
        n in 1usize..40,
        k in 1usize..24,
        m in 1usize..40,
        a_entries in proptest::collection::vec((0usize..64, 0usize..64, -4i8..5), 0..160),
        b_entries in proptest::collection::vec((0usize..64, 0usize..64, -4i8..5), 0..160),
        threads in 2usize..9,
        window in (0usize..30, 0usize..30),
    ) {
        let a_triples = to_triples(n, k, &a_entries);
        let b_triples = to_triples(k, m, &b_entries);
        let a = csr_from(n, k, &a_triples);
        let b = csr_from(k, m, &b_triples);
        // Full multiply.
        let serial = multiply(&a, &b, &PlusTimes, 1, 0..n, 0..m as u32);
        let par = multiply(&a, &b, &PlusTimes, threads, 0..n, 0..m as u32);
        prop_assert_eq!(&serial, &par);
        // Row/column window (the blocked and column-batched kernels).
        let (w0, w1) = window;
        let rows = (w0 % n)..n;
        let cols = ((w1 % m) as u32)..(m as u32);
        let serial_w = multiply(&a, &b, &PlusTimes, 1, rows.clone(), cols.clone());
        let par_w = multiply(&a, &b, &PlusTimes, threads, rows.clone(), cols.clone());
        prop_assert_eq!(&serial_w, &par_w);
        // Other algebras: min-plus (u64) and the counting semiring.
        let au: Csr<u64> = Csr::from_triples(
            n, k,
            a_triples.iter().map(|&(r, c, v)| (r as u32, c as u32, v.abs() as u64)).collect(),
            |_, _| unreachable!(),
        );
        let bu: Csr<u64> = Csr::from_triples(
            k, m,
            b_triples.iter().map(|&(r, c, v)| (r as u32, c as u32, v.abs() as u64)).collect(),
            |_, _| unreachable!(),
        );
        prop_assert_eq!(
            multiply(&au, &bu, &MinPlus, 1, rows.clone(), cols.clone()),
            multiply(&au, &bu, &MinPlus, threads, rows.clone(), cols.clone())
        );
        prop_assert_eq!(
            multiply(&au, &bu, &Count::<u64, u64>::new(), 1, rows.clone(), cols.clone()),
            multiply(&au, &bu, &Count::<u64, u64>::new(), threads, rows, cols)
        );
    }

    /// Distributed: every SUMMA schedule at `threads = 4` matches its
    /// own serial run on 1×1 / 2×2 / 3×3 grids — and the per-rank
    /// profiled wire bytes are identical too (threads never enter the
    /// comm layer).
    #[test]
    fn threaded_summa_matches_serial_across_grids(
        p_idx in 0usize..3,
        n in 1usize..24,
        k in 1usize..16,
        m in 1usize..24,
        a_entries in proptest::collection::vec((0usize..32, 0usize..32, -3i8..4), 0..80),
        b_entries in proptest::collection::vec((0usize..32, 0usize..32, -3i8..4), 0..80),
    ) {
        let p = [1usize, 4, 9][p_idx];
        let a_triples = to_triples(n, k, &a_entries);
        let b_triples = to_triples(k, m, &b_entries);
        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            let (at, bt) = (a_triples.clone(), b_triples.clone());
            let (out, profile) = Runner::new(Backend::InProcess).ranks(p).run_profiled(move |comm| {
                let grid = ProcGrid::new(comm);
                let mine_a = if grid.world().rank() == 0 { at.clone() } else { Vec::new() };
                let mine_b = if grid.world().rank() == 0 { bt.clone() } else { Vec::new() };
                let a = DistMat::from_triples(&grid, n, k, mine_a, |_, _| unreachable!());
                let b = DistMat::from_triples(&grid, k, m, mine_b, |_, _| unreachable!());
                // One profiled phase per schedule row, named by its label.
                schedule_rows(512, max_stage_bytes(&grid, &a, &b))
                    .into_iter()
                    .map(|(label, base)| {
                        let c = {
                            let _g = grid.world().phase(&label);
                            a.spgemm_with(&grid, &b, &PlusTimes, &base.with_threads(threads))
                        };
                        let mut got = c.gather_triples(&grid);
                        got.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
                        (label, got)
                    })
                    .collect::<Vec<_>>()
            });
            // Wire bytes are part of the contract: per-rank, per-op.
            let rows: Vec<_> = out
                .into_iter()
                .next()
                .expect("rank 0")
                .into_iter()
                .map(|(label, got)| {
                    let mut rank_bytes: Vec<Vec<(&'static str, u64, u64)>> = profile
                        .rank_profiles()
                        .iter()
                        .map(|r| r.phase(&label).map(|ph| ph.collectives.clone()).unwrap_or_default())
                        .collect();
                    rank_bytes.iter_mut().for_each(|v| v.sort());
                    (label, got, rank_bytes)
                })
                .collect();
            runs.push(rows);
        }
        prop_assert_eq!(runs[0].len(), N_ROWS);
        for (serial, threaded) in runs[0].iter().zip(&runs[1]) {
            let label = &serial.0;
            prop_assert_eq!(&serial.1, &threaded.1, "{}: threaded SUMMA output must match serial", label);
            prop_assert_eq!(&serial.2, &threaded.2, "{}: threads must not change profiled wire bytes", label);
        }
    }
}
