//! Property tests pinning the intra-rank threading contract: the
//! threaded `SpGemmBatcher` multiply must be **byte-identical** to the
//! single-threaded one — same structure, same values, same row order —
//! for every thread count, row and column window, and semiring, at the
//! local kernel level, and through the two pipeline products (symmetric
//! and masked) under every schedule row — unbudgeted, and budgeted on
//! both sides of the prefetch switch — on 1×1 / 2×2 / 3×3 grids.
//! Determinism is the contract that makes threading safe to land: if
//! these fail, `--threads` would change assembled contigs.

mod common;

use elba_comm::ProcGrid;
use elba_comm::{Backend, Runner};
use elba_sparse::semiring::{Count, MinPlus, PlusTimes, Semiring, SemiringSlot};
use elba_sparse::{Csr, DistMat, SpGemmBatcher};
use proptest::prelude::*;

use common::{masked_stage_bytes, max_stage_bytes, schedule_rows, N_ROWS};

/// One product's gathered, sorted entries: `(row, col, value)` of the
/// symmetric product, `(row, col, slot)` of each mask entry's fold.
type Entries = Vec<(u64, u64, Option<f64>)>;
/// Per rank, one phase's point-to-point `(msgs, bytes)` and its sorted
/// `(collective, calls, bytes)` table.
type Traffic = Vec<((u64, u64), Vec<(&'static str, u64, u64)>)>;

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
        // Row/column window (the row-batched SUMMA's kernel call).
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

    /// Distributed: the symmetric product `A·Aᵀ` and the masked product
    /// `M⟨A·B⟩` under every schedule row at `threads = 4` match their own
    /// serial runs on 1×1 / 2×2 / 3×3 grids — and the per-rank profiled
    /// wire traffic, point-to-point and per collective op, is identical
    /// too (threads never enter the comm layer).
    #[test]
    fn threaded_summa_matches_serial_across_grids(
        p_idx in 0usize..3,
        n in 1usize..24,
        k in 1usize..16,
        m in 1usize..24,
        a_entries in proptest::collection::vec((0usize..32, 0usize..32, -3i8..4), 0..80),
        b_entries in proptest::collection::vec((0usize..32, 0usize..32, -3i8..4), 0..80),
        mask_entries in proptest::collection::vec((0usize..32, 0usize..32, 1i8..4), 0..80),
    ) {
        let p = [1usize, 4, 9][p_idx];
        let a_triples = to_triples(n, k, &a_entries);
        let b_triples = to_triples(k, m, &b_entries);
        let mask_triples: Vec<(u64, u64, u32)> = to_triples(n, m, &mask_entries)
            .into_iter()
            .map(|(r, c, v)| (r, c, v as u32))
            .collect();
        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            let (at, bt, mt) = (a_triples.clone(), b_triples.clone(), mask_triples.clone());
            let (out, profile) = Runner::new(Backend::InProcess).ranks(p).run_profiled(move |comm| {
                let grid = ProcGrid::new(comm);
                let root = grid.world().rank() == 0;
                let mine = |t: &Vec<(u64, u64, f64)>| if root { t.clone() } else { Vec::new() };
                let a = DistMat::from_triples(&grid, n, k, mine(&at), |_, _| unreachable!());
                let b = DistMat::from_triples(&grid, k, m, mine(&bt), |_, _| unreachable!());
                let mask_mine = if root { mt.clone() } else { Vec::new() };
                let mask = DistMat::from_triples(&grid, n, m, mask_mine, |_, _| unreachable!());
                let gathered = |mut got: Entries| {
                    got = grid.world().allgather(got).into_iter().flatten().collect();
                    got.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
                    got
                };
                // One profiled phase per product and schedule row, named
                // by both.
                let mut rows = Vec::new();
                for (label, base) in schedule_rows(max_stage_bytes(&grid, &a)) {
                    let label = format!("symmetric {label}");
                    let c = {
                        let _g = grid.world().phase(&label);
                        let opts = base.with_threads(threads);
                        a.spgemm_aat_upper_with(&grid, &PlusTimes, &opts)
                    };
                    let local = c.iter_global(&grid).map(|(r, c, &v)| (r, c, Some(v))).collect();
                    rows.push((label, gathered(local)));
                }
                for (label, base) in schedule_rows(masked_stage_bytes(&grid, &a, &b)) {
                    let label = format!("masked {label}");
                    let mut seen = Vec::new();
                    {
                        let _g = grid.world().phase(&label);
                        let opts = base.with_threads(threads);
                        let fold = SemiringSlot(PlusTimes);
                        mask.prune_by_product(&grid, &a, &b, &fold, &opts, |r, c, _, &slot| {
                            seen.push((r, c, slot));
                            slot.is_some()
                        });
                    }
                    rows.push((label, gathered(seen)));
                }
                rows
            });
            // Wire traffic is part of the contract: per-rank, per-op.
            let rows: Vec<(String, Entries, Traffic)> = out
                .into_iter()
                .next()
                .expect("rank 0")
                .into_iter()
                .map(|(label, got)| {
                    let traffic = profile
                        .rank_profiles()
                        .iter()
                        .map(|r| {
                            let phase = r.phase(&label).expect("phase recorded");
                            let mut collectives = phase.collectives.clone();
                            collectives.sort();
                            ((phase.p2p_msgs, phase.p2p_bytes), collectives)
                        })
                        .collect();
                    (label, got, traffic)
                })
                .collect();
            runs.push(rows);
        }
        prop_assert_eq!(runs[0].len(), 2 * N_ROWS);
        for (serial, threaded) in runs[0].iter().zip(&runs[1]) {
            let label = &serial.0;
            prop_assert_eq!(&serial.1, &threaded.1, "{}: threaded output must match serial", label);
            prop_assert_eq!(&serial.2, &threaded.2, "{}: threads must not change profiled wire traffic", label);
        }
    }
}
