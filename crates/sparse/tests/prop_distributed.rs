//! Property tests for the distributed sparse layer: SUMMA against the
//! dense oracle, transpose involution, distributed-vector primitives and
//! the Fig. 2 exchange, across random shapes and rank counts.

use elba_comm::ProcGrid;
use elba_comm::{Backend, Runner};
use elba_sparse::dense::Dense;
use elba_sparse::semiring::PlusTimes;
use elba_sparse::{DistMat, DistVec};
use proptest::prelude::*;

fn dense_from(nrows: usize, ncols: usize, triples: &[(u64, u64, f64)]) -> Dense {
    let mut d = Dense::zeros(nrows, ncols);
    for &(r, c, v) in triples {
        d.set(r as usize, c as usize, v);
    }
    d
}

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

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn summa_equals_dense_reference(
        p_idx in 0usize..3,
        n in 1usize..14,
        k in 1usize..14,
        m in 1usize..14,
        a_entries in proptest::collection::vec((0usize..20, 0usize..20, -3i8..4), 0..60),
        b_entries in proptest::collection::vec((0usize..20, 0usize..20, -3i8..4), 0..60),
    ) {
        let p = [1usize, 4, 9][p_idx];
        let a_triples = to_triples(n, k, &a_entries);
        let b_triples = to_triples(k, m, &b_entries);
        let want = dense_from(n, k, &a_triples).matmul(&dense_from(k, m, &b_triples));
        let (at, bt) = (a_triples.clone(), b_triples.clone());
        let got_triples = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let grid = ProcGrid::new(comm);
            let mine_a = if grid.world().rank() == 0 { at.clone() } else { Vec::new() };
            let mine_b = if grid.world().rank() == 0 { bt.clone() } else { Vec::new() };
            let a = DistMat::from_triples(&grid, n, k, mine_a, |_, _| unreachable!());
            let b = DistMat::from_triples(&grid, k, m, mine_b, |_, _| unreachable!());
            let c = a.spgemm_with(&grid, &b, &PlusTimes, 1);
            c.gather_triples(&grid)
        }).remove(0);
        // SUMMA may produce explicit zeros from cancellation; compare densely.
        let got = dense_from(n, m, &got_triples);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn distributed_transpose_is_involution(
        p_idx in 0usize..3,
        n in 1usize..16,
        m in 1usize..16,
        entries in proptest::collection::vec((0usize..20, 0usize..20, 1i8..4), 0..50),
    ) {
        let p = [1usize, 4, 9][p_idx];
        let triples = to_triples(n, m, &entries);
        let t_in = triples.clone();
        let (round_trip, transposed) = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let grid = ProcGrid::new(comm);
            let mine = if grid.world().rank() == 0 { t_in.clone() } else { Vec::new() };
            let a = DistMat::from_triples(&grid, n, m, mine, |_, _| unreachable!());
            let at = a.transpose(&grid);
            let att = at.transpose(&grid);
            (att.gather_triples(&grid), at.gather_triples(&grid))
        }).remove(0);
        let mut got = round_trip;
        got.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let mut want = triples.clone();
        want.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        prop_assert_eq!(got, want);
        // and single transpose swaps coordinates
        let mut tr = transposed;
        tr.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let mut want_t: Vec<(u64, u64, f64)> = triples.iter().map(|&(r, c, v)| (c, r, v)).collect();
        want_t.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        prop_assert_eq!(tr, want_t);
    }

    #[test]
    fn row_degrees_match_serial(
        p_idx in 0usize..3,
        n in 1usize..20,
        entries in proptest::collection::vec((0usize..24, 0usize..24, 1i8..2), 0..60),
    ) {
        let p = [1usize, 4, 9][p_idx];
        let triples = to_triples(n, n, &entries);
        let mut want = vec![0u32; n];
        for &(r, _, _) in &triples {
            want[r as usize] += 1;
        }
        let t_in = triples.clone();
        let got = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let grid = ProcGrid::new(comm);
            let mine = if grid.world().rank() == 0 { t_in.clone() } else { Vec::new() };
            let m = DistMat::from_triples(&grid, n, n, mine, |_, _| unreachable!());
            m.row_degrees(&grid).to_global(&grid)
        }).remove(0);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn dist_vec_gather_returns_requested_order(
        p_idx in 0usize..3,
        n in 1usize..40,
        queries in proptest::collection::vec(0usize..100, 0..30),
    ) {
        let p = [1usize, 4, 9][p_idx];
        let indices: Vec<usize> = queries.iter().map(|&q| q % n).collect();
        let idx = indices.clone();
        let got = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let grid = ProcGrid::new(comm);
            let v = DistVec::from_fn(&grid, n, |g| g as u64 * 7 + 3);
            // only rank 0 issues this query set; others ask for nothing
            if grid.world().rank() == 0 {
                v.gather(&grid, &idx)
            } else {
                v.gather(&grid, &[])
            }
        }).remove(0);
        let want: Vec<u64> = indices.iter().map(|&g| g as u64 * 7 + 3).collect();
        prop_assert_eq!(got, want);
    }

    /// `gather` and `scatter_combine` ship a `u32` offset into the
    /// owner's chunk: every chunk's first and last index (and the ones
    /// beside them) must come back from, and land in, the right slot.
    #[test]
    fn chunk_offsets_address_the_right_element_at_chunk_boundaries(
        p_idx in 0usize..3,
        n in 1usize..70,
        stride in 1usize..5,
    ) {
        let p = [1usize, 4, 9][p_idx];
        let q = [1usize, 2, 3][p_idx];
        let layout = elba_sparse::layout::Layout2D::new(n, q);
        let mut boundaries: Vec<usize> = Vec::new();
        for i in 0..q {
            for j in 0..q {
                let chunk = layout.chunk_range(i, j);
                for g in [chunk.start.wrapping_sub(1), chunk.start, chunk.end.wrapping_sub(1), chunk.end] {
                    if g < n {
                        boundaries.push(g);
                    }
                }
            }
        }
        let idx = boundaries.clone();
        let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let grid = ProcGrid::new(comm);
            let v = DistVec::from_fn(&grid, n, |g| g as u64 * 5 + 1);
            // Rank r asks for every `stride`-th boundary index from the r-th on.
            let rank = grid.world().rank();
            let mine: Vec<usize> = idx.iter().copied().skip(rank % stride).step_by(stride).collect();
            let got = v.gather(&grid, &mine);
            let gathered = mine.iter().zip(&got).all(|(&g, &x)| x == g as u64 * 5 + 1);
            // Each rank adds (rank + 1) at each of its indices.
            let mut acc = DistVec::from_fn(&grid, n, |_| 0u64);
            let updates = mine.iter().map(|&g| (g, rank as u64 + 1)).collect();
            acc.scatter_combine(&grid, updates, |a, x| *a += x);
            (gathered, acc.to_global(&grid))
        });
        let mut want = vec![0u64; n];
        for rank in 0..p {
            for &g in boundaries.iter().skip(rank % stride).step_by(stride) {
                want[g] += rank as u64 + 1;
            }
        }
        for (gathered, sums) in out {
            prop_assert!(gathered);
            prop_assert_eq!(&sums, &want);
        }
    }

    #[test]
    fn fetch_aligned_always_covers_block_ranges(
        p_idx in 0usize..3,
        n in 1usize..60,
    ) {
        let p = [1usize, 4, 9][p_idx];
        let ok = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let grid = ProcGrid::new(comm);
            let v = DistVec::from_fn(&grid, n, |g| g as u64 + 11);
            let (rows, cols) = v.fetch_aligned(&grid);
            let row_range = v.layout().block_range(grid.myrow());
            let col_range = v.layout().block_range(grid.mycol());
            rows.len() == row_range.len()
                && cols.len() == col_range.len()
                && row_range.zip(rows).all(|(g, val)| val == g as u64 + 11)
                && col_range.zip(cols).all(|(g, val)| val == g as u64 + 11)
        });
        prop_assert!(ok.iter().all(|&x| x));
    }

    #[test]
    fn mask_rows_cols_equals_serial_filter(
        p_idx in 0usize..2,
        n in 2usize..16,
        entries in proptest::collection::vec((0usize..20, 0usize..20, 1i8..2), 0..40),
        masked in proptest::collection::vec(0usize..20, 0..6),
    ) {
        let p = [1usize, 4][p_idx];
        let triples = to_triples(n, n, &entries);
        let mask: Vec<bool> = (0..n).map(|g| masked.iter().any(|&m| m % n == g)).collect();
        let want: Vec<(u64, u64)> = triples
            .iter()
            .filter(|&&(r, c, _)| !mask[r as usize] && !mask[c as usize])
            .map(|&(r, c, _)| (r, c))
            .collect();
        let (t_in, m_in) = (triples.clone(), mask.clone());
        let got = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let grid = ProcGrid::new(comm);
            let mine = if grid.world().rank() == 0 { t_in.clone() } else { Vec::new() };
            let mat = DistMat::from_triples(&grid, n, n, mine, |_, _| unreachable!());
            let mask_vec = DistVec::from_global(&grid, &m_in);
            let masked = mat.mask_rows_cols(&grid, &mask_vec);
            let mut got: Vec<(u64, u64)> =
                masked.gather_triples(&grid).into_iter().map(|(r, c, _)| (r, c)).collect();
            got.sort_unstable();
            got
        }).remove(0);
        let mut want_sorted = want;
        want_sorted.sort_unstable();
        prop_assert_eq!(got, want_sorted);
    }
}
