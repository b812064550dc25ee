//! The symmetric product of overlap detection:
//! `DistMat::spgemm_aat_upper_with` must equal the general product (its
//! one schedule, the eager oracle) against an explicit transpose, pruned
//! to `r < c`, value for value and entry for entry, explicit zeros
//! included — under an order-sensitive semiring add, `PlusTimes` over
//! signed values that cancel, and `MinPlus`; for every schedule row, rank
//! count and thread count — and must ship each block only to the ranks
//! that multiply with it, byte for byte, with or without a budget.
//! `DistMat::transpose`, which the oracle and `symmetrize` use, must
//! equal a gather-triples oracle — in process and through the socket
//! wire codec — while shipping bytes proportional to a block's entries,
//! not its dimension.

mod common;

use elba_comm::{Backend, Runner};
use elba_comm::{CommMsg, ProcGrid};
use elba_sparse::semiring::{MinPlus, PlusTimes, Semiring};
use elba_sparse::{DistMat, SpGemmOptions};
use proptest::prelude::*;

use common::{max_stage_bytes, schedule_rows, tagged, Trace, N_ROWS};

/// A gathered product's sorted `(row, col, value)` entries.
type Entries<V> = Vec<(u64, u64, V)>;

/// Every gathered, sorted product of one `p`-rank run, labelled: the
/// oracle — the general product against an explicit transpose, pruned to
/// `r < c` — and then the symmetric entry point under each row of
/// [`schedule_rows`] × threads {1, 2}.
fn products<S>(
    p: usize,
    n: usize,
    k: usize,
    triples: &[(u64, u64, S::A)],
    semiring: S,
) -> Vec<(String, Entries<S::Out>)>
where
    S: Semiring<B = <S as Semiring>::A> + Send + Sync + 'static,
    S::A: Clone + CommMsg + Sync,
    S::Out: Clone + CommMsg + PartialOrd + Sync,
{
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
            let gathered = |c: DistMat<S::Out>| {
                let mut got = c.gather_triples(&grid);
                got.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
                got
            };
            let oracle = a
                .spgemm_with(&grid, &a.transpose(&grid), &semiring, 1)
                .prune(&grid, |r, c, _| r < c);
            let mut out = vec![("oracle".to_owned(), gathered(oracle))];
            for (label, opts) in schedule_rows(max_stage_bytes(&grid, &a)) {
                for threads in [1usize, 2] {
                    let opts = opts.with_threads(threads);
                    let upper = a.spgemm_aat_upper_with(&grid, &semiring, &opts);
                    out.push((format!("{label} t={threads}"), gathered(upper)));
                }
            }
            out
        })
        .remove(0)
}

/// Every row must equal the oracle (the first row).
fn assert_all_equal_oracle<V: PartialEq + std::fmt::Debug>(
    p: usize,
    rows: &[(String, Entries<V>)],
) {
    let (oracle, want) = &rows[0];
    assert_eq!(oracle, "oracle");
    assert!(want.iter().all(|&(r, c, _)| r < c));
    assert_eq!(rows.len(), 1 + N_ROWS * 2);
    for (label, got) in &rows[1..] {
        assert_eq!(got, want, "{label} p={p}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn upper_aat_equals_pruned_general_multiply(
        p_idx in 0usize..4,
        // n < q (blocks with no rows at all) up to blocks tall enough
        // for the threaded kernel to fan out.
        n in 1usize..48,
        k in 1usize..24,
        entries in proptest::collection::vec((0usize..64, 0usize..32), 0..220),
    ) {
        // 4×4 is the first grid where one holder has several row-only
        // and several column-only destinations.
        let p = [1usize, 4, 9, 16][p_idx];
        let triples = tagged(n, k, &entries);
        // The order-sensitive add.
        assert_all_equal_oracle(p, &products(p, n, k, &triples, Trace));
        // Signed values whose products cancel: explicit zeros must be
        // kept by every schedule, as the oracle keeps them.
        let signed: Vec<(u64, u64, f64)> = triples
            .iter()
            .map(|&(r, c, tag)| (r, c, (tag % 5) as f64 - 2.0))
            .collect();
        assert_all_equal_oracle(p, &products(p, n, k, &signed, PlusTimes));
        // A non-arithmetic semiring (shortest two-hop paths).
        let weights: Vec<(u64, u64, u64)> =
            triples.iter().map(|&(r, c, tag)| (r, c, 1 + (tag % 9) as u64)).collect();
        assert_all_equal_oracle(p, &products(p, n, k, &weights, MinPlus));
    }
}

/// What one rank's profile must show for one product, by the
/// destination rule: the holder of `A(m, s)` (rank `(m, s)`) sends it as
/// stored to `(m, j)`, `j ≥ m`, and transposed to `(i, m)`, `i < m`,
/// never to itself.
struct FetchModel {
    below_diagonal: bool,
    /// Sends: (block, destination) pairs this rank holds.
    sends: u64,
    /// Bytes: each shipped form's `nbytes` times its destinations.
    bytes: u64,
    /// Blocks this rank multiplies with but does not hold: per stage a
    /// row operand unless it holds it, plus a column operand unless it
    /// is on the diagonal (which transposes its row operand).
    needs: u64,
}

/// Run the symmetric product under `opts` on `p` ranks in its own
/// profile phase; per rank, the model and the phase's
/// `(p2p messages, p2p bytes, blocked seconds)`.
fn profiled_fetch(p: usize, opts: SpGemmOptions) -> Vec<(FetchModel, (u64, u64, f64))> {
    let (n, k) = (48usize, 30usize);
    let entries: Vec<(usize, usize)> = (0..260).map(|e| (e * 7 % n, e * 13 % k)).collect();
    let triples = tagged(n, k, &entries);
    let (models, profile) = Runner::new(Backend::InProcess)
        .ranks(p)
        .run_profiled(move |comm| {
            let grid = ProcGrid::new(comm);
            let mine = if grid.world().rank() == 0 {
                triples.clone()
            } else {
                Vec::new()
            };
            let a = DistMat::from_triples(&grid, n, k, mine, |_, _| unreachable!());
            {
                let _phase = grid.world().phase("product");
                a.spgemm_aat_upper_with(&grid, &Trace, &opts);
            }
            let (q, m, s) = (grid.q() as u64, grid.myrow() as u64, grid.mycol() as u64);
            let (rows, cols) = (q - m - u64::from(s >= m), m);
            let block = a.local();
            let needs = match m.cmp(&s) {
                std::cmp::Ordering::Less => 2 * q - 1,
                std::cmp::Ordering::Equal => q - 1,
                std::cmp::Ordering::Greater => 0,
            };
            FetchModel {
                below_diagonal: m > s,
                sends: rows + cols,
                bytes: block.nbytes() as u64 * rows + block.transposed().nbytes() as u64 * cols,
                needs,
            }
        });
    models
        .into_iter()
        .zip(profile.rank_profiles())
        .map(|(model, rank)| {
            let phase = rank.phase("product").expect("phase recorded");
            let blocked = phase.comm_secs + phase.wait_secs;
            (model, (phase.p2p_msgs, phase.p2p_bytes, blocked))
        })
        .collect()
}

#[test]
fn direct_fetch_ships_each_block_only_to_the_ranks_that_multiply_with_it() {
    for p in [4usize, 9, 16] {
        let q = (p as f64).sqrt() as u64;
        let transfers = q * q * q - q * (q + 1) / 2;

        // One round, and no collective.
        let ranks = profiled_fetch(p, SpGemmOptions::pipelined());
        for (r, (model, (msgs, bytes, blocked))) in ranks.iter().enumerate() {
            assert_eq!(*msgs, model.sends, "p={p} rank {r}: sends");
            assert_eq!(*bytes, model.bytes, "p={p} rank {r}: sent bytes");
            // Below the diagonal a rank never enters a receive.
            if model.below_diagonal {
                assert_eq!(*blocked, 0.0, "p={p} rank {r} received something");
            }
        }
        let sent: u64 = ranks.iter().map(|(_, (msgs, _, _))| msgs).sum();
        let needed: u64 = ranks.iter().map(|(model, _)| model.needs).sum();
        assert_eq!(sent, transfers, "p={p}: q³ − q(q+1)/2 transfers");
        // Everything sent is consumed on or above the diagonal.
        assert_eq!(needed, transfers, "p={p}");

        // A budgeted run sends exactly the unbudgeted fetch, whether its
        // stages are blocking (a small budget) or prefetched (a budget
        // nothing exhausts).
        for budget in [96, 1 << 40] {
            let budgeted = profiled_fetch(p, SpGemmOptions::budgeted(budget));
            for (r, ((_, plain), (_, got))) in ranks.iter().zip(&budgeted).enumerate() {
                assert_eq!(
                    (got.0, got.1),
                    (plain.0, plain.1),
                    "p={p} rank {r} budget={budget}: (sends, bytes)"
                );
            }
        }
    }
}

type Triples = Vec<(u64, u64, f64)>;

/// Gather `a`, `aᵀ` and `(aᵀ)ᵀ` on `p` ranks of `backend` (sorted
/// triples), plus the profiled bytes of the two transposes.
fn transposes(
    backend: Backend,
    p: usize,
    nrows: usize,
    ncols: usize,
    triples: &Triples,
) -> ([Triples; 3], u64) {
    let t = triples.to_vec();
    let (mut out, profile) = Runner::new(backend).ranks(p).run_profiled(move |comm| {
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
            let (gathered, bytes) = transposes(Backend::InProcess, p, nrows, ncols, &triples);
            let [a, at, att] = &gathered;
            assert_eq!(a, &triples, "{nrows}x{ncols} p={p}: routing");
            assert_eq!(at, &want_t, "{nrows}x{ncols} p={p}: transpose");
            assert_eq!(att, &triples, "{nrows}x{ncols} p={p}: involution");
            if p == 1 {
                continue;
            }
            // The same swaps through the wire codec: every frame is
            // encoded, decoded and booked at the same size.
            let (over_sockets, socket_bytes) =
                transposes(Backend::Socket, p, nrows, ncols, &triples);
            assert_eq!(over_sockets, gathered, "{nrows}x{ncols} p={p}: socket");
            assert_eq!(socket_bytes, bytes, "{nrows}x{ncols} p={p}: socket bytes");
        }
    }
}

#[test]
fn hypersparse_block_ships_bytes_per_entry_not_per_dimension() {
    // 20 entries in one off-diagonal block of a 10⁵ × 10⁵ matrix on a
    // 2×2 grid. A CSR of the transposed block would carry
    // 8·(50 000 + 1) bytes of row pointers; as global triples the
    // entries were 8 + 20·(16 + 8) = 488 bytes.
    let n = 100_000usize;
    let triples: Vec<(u64, u64, f64)> = (0..20u64)
        .map(|i| (i * 2_000, 50_000 + (i % 12) * 4_000, i as f64))
        .collect();
    let (_, bytes) = transposes(Backend::InProcess, 4, n, n, &triples);
    // Each transpose ships the full block as one count header and a
    // block-local (column, row, value) triple per entry, and the
    // partner's empty block as a bare header: 672 bytes in all.
    let block = 8 + 20 * (8 + 8);
    assert_eq!(bytes, (block + 8) * 2);
    assert!(block < 488 && bytes < 1024);
}
