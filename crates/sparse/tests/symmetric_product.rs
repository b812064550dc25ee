//! The symmetric product of overlap detection and the transpose under
//! it: `DistMat::spgemm_aat_upper_with` must equal the general multiply
//! against an explicit transpose, pruned to `r < c`, value for value — under
//! an order-sensitive semiring add, for every schedule, rank count and
//! thread count — and `DistMat::transpose` must equal a gather-triples
//! oracle while shipping bytes proportional to a block's entries, not
//! its dimension.

mod common;

use elba_comm::ProcGrid;
use elba_comm::{Backend, Runner};
use elba_sparse::DistMat;
use proptest::prelude::*;

use common::{max_stage_bytes, schedule_rows, tagged, Trace, N_ROWS};

type Product = Vec<(u64, u64, Vec<(u32, u32)>)>;

/// Every gathered, sorted product of one `p`-rank run, labelled: for
/// each row of [`schedule_rows`] (oracle first) × threads {1, 2}, the
/// general multiply against an explicit transpose pruned to `r < c`
/// and then the symmetric entry point.
fn products(
    p: usize,
    n: usize,
    k: usize,
    triples: &[(u64, u64, u32)],
    min_len: usize,
) -> Vec<(String, Product)> {
    let t = triples.to_vec();
    Runner::new(Backend::InProcess)
        .ranks(p)
        .run(move |comm| {
            let grid = ProcGrid::new(comm);
            let mine = if grid.world().rank() == 0 {
                t.clone()
            } else {
                Vec::new()
            };
            let a = DistMat::from_triples(&grid, n, k, mine, |_, _| unreachable!());
            let at = a.transpose(&grid);
            let mut out = Vec::new();
            // A small budget of a few entries: many narrow column
            // windows, so the diagonal floor and the window start trade
            // places.
            for (label, opts) in schedule_rows(96, max_stage_bytes(&grid, &a, &at)) {
                for threads in [1usize, 2] {
                    let opts = opts.with_threads(threads);
                    let general = a
                        .spgemm_with(&grid, &at, &Trace, &opts)
                        .prune(&grid, |r, c, v| r < c && v.len() >= min_len);
                    let upper =
                        a.spgemm_aat_upper_with(&grid, &Trace, &opts, |_, _, v| v.len() >= min_len);
                    for (path, c) in [("general", general), ("upper", upper)] {
                        let mut got = c.gather_triples(&grid);
                        got.sort();
                        out.push((format!("{path} {label} t={threads}"), got));
                    }
                }
            }
            out
        })
        .remove(0)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn upper_aat_equals_pruned_general_multiply(
        p_idx in 0usize..3,
        // n < q (blocks with no rows at all) up to blocks tall enough
        // for the threaded kernel to fan out.
        n in 1usize..48,
        k in 1usize..24,
        min_len in 1usize..3,
        entries in proptest::collection::vec((0usize..64, 0usize..32), 0..220),
    ) {
        let p = [1usize, 4, 9][p_idx];
        let triples = tagged(n, k, &entries);
        let rows = products(p, n, k, &triples, min_len);
        // The oracle: the general multiply under the eager schedule.
        let (oracle, want) = &rows[0];
        prop_assert_eq!(oracle.as_str(), "general eager t=1");
        prop_assert!(want.iter().all(|&(r, c, _)| r < c));
        prop_assert_eq!(rows.len(), N_ROWS * 2 * 2);
        // Neither the symmetric entry point nor the general path may
        // differ from it under any schedule or thread count.
        for (label, got) in &rows[1..] {
            prop_assert_eq!(got, want, "{} p={}", label, p);
        }
    }
}

type Triples = Vec<(u64, u64, f64)>;

/// Gather `a`, `aᵀ` and `(aᵀ)ᵀ` on `p` ranks (sorted triples), plus the
/// profiled bytes of the two transposes.
fn transposes(p: usize, nrows: usize, ncols: usize, triples: &Triples) -> ([Triples; 3], u64) {
    let t = triples.to_vec();
    let (mut out, profile) = Runner::new(Backend::InProcess)
        .ranks(p)
        .run_profiled(move |comm| {
            let grid = ProcGrid::new(comm);
            // Every rank contributes a slice, so routing is exercised too.
            let rank = grid.world().rank();
            let mine: Vec<_> = t
                .iter()
                .copied()
                .enumerate()
                .filter_map(|(i, e)| (i % p == rank).then_some(e))
                .collect();
            let a = DistMat::from_triples(&grid, nrows, ncols, mine, |_, _| unreachable!());
            let (at, att) = {
                let _g = grid.world().phase("transpose");
                let at = a.transpose(&grid);
                let att = at.transpose(&grid);
                (at, att)
            };
            assert_eq!((at.nrows(), at.ncols()), (ncols, nrows));
            assert_eq!((att.nrows(), att.ncols()), (nrows, ncols));
            // The block itself must round-trip, not just its entry set.
            assert_eq!(att.local(), a.local());
            [a, at, att].map(|m| {
                let mut g = m.gather_triples(&grid);
                g.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
                g
            })
        });
    (out.remove(0), profile.total_bytes("transpose"))
}

#[test]
fn transpose_matches_gather_oracle() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(77);
    // (rows, cols, nnz): rectangular both ways, fewer rows than grid
    // rows, hypersparse (nnz ≪ rows), and empty.
    for (nrows, ncols, nnz) in [
        (13usize, 7usize, 30usize),
        (5, 40, 60),
        (2, 3, 4),
        (20_000, 15_000, 40),
        (9, 9, 0),
    ] {
        let coords: std::collections::BTreeSet<(u64, u64)> = (0..nnz)
            .map(|_| {
                (
                    rng.gen_range(0..nrows) as u64,
                    rng.gen_range(0..ncols) as u64,
                )
            })
            .collect();
        let triples: Vec<(u64, u64, f64)> = coords
            .into_iter()
            .enumerate()
            .map(|(i, (r, c))| (r, c, i as f64 + 0.5))
            .collect();
        let mut want_t: Vec<(u64, u64, f64)> = triples.iter().map(|&(r, c, v)| (c, r, v)).collect();
        want_t.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
        for p in [1usize, 4, 9] {
            let ([a, at, att], _) = transposes(p, nrows, ncols, &triples);
            assert_eq!(a, triples, "{nrows}x{ncols} p={p}: routing");
            assert_eq!(at, want_t, "{nrows}x{ncols} p={p}: transpose");
            assert_eq!(att, triples, "{nrows}x{ncols} p={p}: involution");
        }
    }
}

#[test]
fn hypersparse_block_ships_bytes_per_entry_not_per_dimension() {
    // 20 entries (20 distinct rows, 12 distinct columns) in one
    // off-diagonal block of a 10⁵ × 10⁵ matrix on a 2×2 grid. A CSR of
    // the transposed block would carry 8·(50 000 + 1) bytes of row
    // pointers; as global triples the entries were 8 + 20·(16 + 8) =
    // 488 bytes.
    let n = 100_000usize;
    let triples: Vec<(u64, u64, f64)> = (0..20u64)
        .map(|i| (i * 2_000, 50_000 + (i % 12) * 4_000, i as f64))
        .collect();
    let (_, bytes) = transposes(4, n, n, &triples);
    // One count header, a (column, length) pair per non-empty column of
    // the block sent, a (row, value) pair per entry; the partner's
    // empty block is a bare header. `A → Aᵀ` compresses on 12 columns,
    // `Aᵀ → A` on 20.
    let block = |nzc: u64| 8 + nzc * 8 + 20 * (4 + 8);
    assert_eq!(bytes, (block(12) + 8) + (block(20) + 8));
    assert!(block(20) < 488 && bytes < 1024);
}
