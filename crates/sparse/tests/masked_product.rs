//! The masked product under transitive reduction:
//! `DistMat::prune_by_product` must see, at every stored entry of the
//! mask, exactly what the general product `spgemm_with` (the eager
//! oracle, its one schedule) holds there — the same value, built from
//! the same products in the same order, or `None` where the product has
//! no entry (a plain semiring drives it through `SemiringSlot`) — and
//! must return exactly what `zip_prune` against that product returns.
//! For every schedule row, rank count and thread count, on rectangular
//! `n×k · k×m` shapes. On every rank the predicate must also run
//! exactly once per mask entry, in the block's storage order: the
//! transitive reduction walks an array aligned with the mask's entries
//! from inside it. The masked product is the one that prefetches stage
//! broadcasts (`ibcast`), and a budget alone decides whether it does.

mod common;

use elba_comm::{Backend, CommMsg, ProcGrid, Runner};
use elba_sparse::semiring::{FnSemiring, PlusTimes, Semiring, SemiringSlot};
use elba_sparse::{DistMat, SpGemmOptions};
use proptest::prelude::*;

use common::{masked_stage_bytes, schedule_rows, tagged, Trace, N_ROWS};

type Triples<T> = Vec<(u64, u64, T)>;
/// What a prune predicate was shown: `(row, col, mask value, product)`.
type Seen<V> = Vec<(u64, u64, u32, Option<V>)>;

/// An arbitrary rule that needs both of its inputs, so a wrong product
/// and a wrong mask value each change the pruned matrix.
fn keeps<V>(mask_value: u32, product: Option<&V>) -> bool {
    product.is_some() != mask_value.is_multiple_of(3)
}

/// Rank 0 contributes every triple; routing delivers them.
fn mine<T: Clone>(root: bool, triples: &Triples<T>) -> Triples<T> {
    if root {
        triples.clone()
    } else {
        Vec::new()
    }
}

/// One `p`-rank run: the oracle row (general eager product, then
/// `zip_prune`) followed by `prune_by_product` under every schedule row
/// × threads {1, 2, 4}. Each row is what the predicate saw on all
/// ranks plus the pruned mask, both gathered and sorted.
fn rows<S>(
    p: usize,
    (n, k, m): (usize, usize, usize),
    a_triples: &Triples<S::A>,
    b_triples: &Triples<S::B>,
    mask_triples: &Triples<u32>,
    semiring: S,
) -> Vec<(String, Seen<S::Out>, Triples<u32>)>
where
    S: Semiring + Send + Sync + 'static,
    S::A: Clone + CommMsg + Sync,
    S::B: Clone + CommMsg + Sync,
    S::Out: Clone + CommMsg + PartialOrd + Sync,
{
    let (at, bt, mt) = (a_triples.clone(), b_triples.clone(), mask_triples.clone());
    let fold = SemiringSlot(semiring);
    Runner::new(Backend::InProcess)
        .ranks(p)
        .run(move |comm| {
            let grid = ProcGrid::new(comm);
            let root = grid.world().rank() == 0;
            let a = DistMat::from_triples(&grid, n, k, mine(root, &at), |_, _| unreachable!());
            let b = DistMat::from_triples(&grid, k, m, mine(root, &bt), |_, _| unreachable!());
            let mask = DistMat::from_triples(&grid, n, m, mine(root, &mt), |_, _| unreachable!());
            let gathered = |seen: Seen<S::Out>, kept: DistMat<u32>| {
                let mut seen: Seen<S::Out> =
                    grid.world().allgather(seen).into_iter().flatten().collect();
                seen.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
                let mut kept = kept.gather_triples(&grid);
                kept.sort();
                (seen, kept)
            };
            let mut out = Vec::new();
            let full = a.spgemm_with(&grid, &b, &fold.0, 1);
            let mut seen = Vec::new();
            let kept = mask.clone().zip_prune(&grid, &full, |r, c, &v, product| {
                seen.push((r, c, v, product.cloned()));
                keeps(v, product)
            });
            let (seen, kept) = gathered(seen, kept);
            out.push(("oracle".to_owned(), seen, kept));
            let storage_order: Vec<(u64, u64)> =
                mask.iter_global(&grid).map(|(r, c, _)| (r, c)).collect();
            for (label, opts) in schedule_rows(masked_stage_bytes(&grid, &a, &b)) {
                for threads in [1usize, 2, 4] {
                    let opts = opts.with_threads(threads);
                    let mut seen = Vec::new();
                    let kept = mask.prune_by_product(
                        &grid,
                        &a,
                        &b,
                        &fold,
                        &opts,
                        |r, c, &v, product| {
                            seen.push((r, c, v, product.clone()));
                            keeps(v, product.as_ref())
                        },
                    );
                    let order: Vec<(u64, u64)> = seen.iter().map(|e| (e.0, e.1)).collect();
                    assert_eq!(
                        order, storage_order,
                        "{label} t={threads} p={p}: keep must run once per mask entry, in storage order"
                    );
                    let (seen, kept) = gathered(seen, kept);
                    out.push((format!("{label} t={threads}"), seen, kept));
                }
            }
            out
        })
        .remove(0)
}

fn assert_all_equal_oracle<V: PartialEq + std::fmt::Debug>(
    p: usize,
    rows: &[(String, Seen<V>, Triples<u32>)],
) {
    let (oracle, seen, kept) = &rows[0];
    assert_eq!(oracle, "oracle");
    assert_eq!(rows.len(), 1 + N_ROWS * 3);
    for (label, got_seen, got_kept) in &rows[1..] {
        assert_eq!(got_seen, seen, "{label} p={p}: products on the mask");
        assert_eq!(got_kept, kept, "{label} p={p}: pruned mask");
    }
}

/// The three semirings of the issue on one input: `PlusTimes`, the
/// order-sensitive [`Trace`], and a filtering trace whose `multiply`
/// annihilates a third of the products.
fn check(
    p: usize,
    dims: (usize, usize, usize),
    a: &Triples<u32>,
    b: &Triples<u32>,
    mask: &Triples<u32>,
) -> usize {
    let small = |t: &Triples<u32>| -> Triples<f64> {
        t.iter()
            .map(|&(r, c, v)| (r, c, (v % 7) as f64 - 3.0))
            .collect()
    };
    assert_all_equal_oracle(p, &rows(p, dims, &small(a), &small(b), mask, PlusTimes));
    let traced = rows(p, dims, a, b, mask, Trace);
    assert_all_equal_oracle(p, &traced);
    let filtering = FnSemiring::new(
        |x: &u32, y: &u32| (!(x + y).is_multiple_of(3)).then(|| vec![(*x, *y)]),
        |acc: &mut Vec<(u32, u32)>, v| acc.extend(v),
    );
    assert_all_equal_oracle(p, &rows(p, dims, a, b, mask, filtering));
    // How many mask entries the product reaches, for the callers that
    // must not pass vacuously.
    traced[0].1.iter().filter(|e| e.3.is_some()).count()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn masked_product_is_the_general_product_read_on_the_mask(
        p_idx in 0usize..3,
        // n < q (blocks with no rows at all) up to blocks tall enough
        // for the threaded kernel to fan out.
        n in 1usize..48,
        k in 1usize..16,
        m in 1usize..24,
        a_entries in proptest::collection::vec((0usize..64, 0usize..32), 0..120),
        b_entries in proptest::collection::vec((0usize..32, 0usize..32), 0..90),
        mask_entries in proptest::collection::vec((0usize..64, 0usize..32), 0..150),
    ) {
        let p = [1usize, 4, 9][p_idx];
        let a = tagged(n, k, &a_entries);
        let b = tagged(k, m, &b_entries);
        let mask = tagged(n, m, &mask_entries);
        check(p, (n, k, m), &a, &b, &mask);
    }
}

#[test]
fn empty_mask_empty_stage_blocks_and_a_hypersparse_block() {
    for p in [1usize, 4, 9] {
        // No mask entry: nothing to compute, nothing kept.
        let a = tagged(20, 20, &[(0, 1), (5, 7), (19, 3)]);
        assert_eq!(check(p, (20, 20, 20), &a, &a, &Vec::new()), 0);

        // `A` lives in block column 0 and `B` in block row 0 alone, so
        // every later stage multiplies two empty blocks.
        let a: Vec<(usize, usize)> = (0..40).map(|r| (r, r % 3)).collect();
        let b: Vec<(usize, usize)> = (0..40).map(|c| (c % 3, c)).collect();
        let mask: Vec<(usize, usize)> = (0..40).flat_map(|r| [(r, r), (r, 39 - r)]).collect();
        let hit = check(
            p,
            (40, 40, 40),
            &tagged(40, 40, &a),
            &tagged(40, 40, &b),
            &tagged(40, 40, &mask),
        );
        assert!(hit > 0, "p={p}: the product never reached the mask");

        // 30 paths through a 20 000-dimensional product; the mask holds
        // every second path's end point and as many entries off the
        // product's pattern.
        let n = 20_000usize;
        let hop = |i: usize| ((i * 7919) % n, (i * 104_729) % n, (i * 1_299_709) % n);
        let a: Vec<(usize, usize)> = (0..30).map(|i| (hop(i).0, hop(i).1)).collect();
        let b: Vec<(usize, usize)> = (0..30).map(|i| (hop(i).1, hop(i).2)).collect();
        let mask: Vec<(usize, usize)> = (0..30)
            .step_by(2)
            .flat_map(|i| [(hop(i).0, hop(i).2), (hop(i).2, hop(i).0)])
            .collect();
        let hit = check(
            p,
            (n, n, n),
            &tagged(n, n, &a),
            &tagged(n, n, &b),
            &tagged(n, n, &mask),
        );
        assert!(hit >= 15, "p={p}: {hit} of 15 path ends on the mask");
    }
}

/// The budget, and nothing else, decides between prefetched `ibcast`
/// stages and blocking `bcast` ones: at `budget = 4·(a_max + b_max)` the
/// stage fetch is non-blocking, one byte below it is blocking, and
/// either way it ships exactly the unbudgeted schedule's stage
/// broadcasts, call for call and byte for byte. The one `allreduce` that
/// agrees the verdict grid-wide (a `reduce` and a `bcast`) comes on top.
#[test]
fn budget_switches_the_stage_fetch_at_four_stages() {
    for p in [4usize, 9] {
        let (_, profile) = Runner::new(Backend::InProcess)
            .ranks(p)
            .run_profiled(move |comm| {
                let grid = ProcGrid::new(comm);
                let (n, k) = (21usize, 17usize);
                let root = grid.world().rank() == 0;
                let entries: Triples<f64> = (0..n)
                    .flat_map(|r| {
                        (0..5usize).map(move |i| {
                            let c = (r * 11 + i * 3) % k;
                            (r as u64, c as u64, 1.0 + ((r + i) % 4) as f64)
                        })
                    })
                    .collect();
                let a =
                    DistMat::from_triples(&grid, n, k, mine(root, &entries), |acc, v| *acc += v);
                let at = a.transpose(&grid);
                let ring: Triples<u32> = (0..n)
                    .flat_map(|r| [(r, (r + 1) % n), (r, (r + 5) % n)])
                    .map(|(r, c)| (r as u64, c as u64, r as u32))
                    .collect();
                let mask =
                    DistMat::from_triples(&grid, n, n, mine(root, &ring), |_, _| unreachable!());
                let switch = 4 * masked_stage_bytes(&grid, &a, &at);
                for (phase, opts) in [
                    ("eager", SpGemmOptions::eager()),
                    ("pipelined", SpGemmOptions::pipelined()),
                    ("at-switch", SpGemmOptions::budgeted(switch)),
                    ("below-switch", SpGemmOptions::budgeted(switch - 1)),
                ] {
                    let _guard = grid.world().phase(phase);
                    let fold = SemiringSlot(PlusTimes);
                    mask.prune_by_product(&grid, &a, &at, &fold, &opts, |_, _, _, _| true);
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
            // At the switch: the default's stage fetch, plus the verdict's
            // allreduce and nothing else.
            assert_eq!(calls("at-switch", "ibcast"), default, "p={p} rank {r}");
            let verdict = calls("at-switch", "bcast");
            assert_eq!(verdict.0, 1, "p={p} rank {r}: one verdict allreduce");
            assert_eq!(calls("at-switch", "reduce").0, 1, "p={p} rank {r}");
            // Below it: the same stage fetch as blocking broadcasts.
            assert_eq!(calls("below-switch", "ibcast"), (0, 0), "p={p} rank {r}");
            assert_eq!(
                calls("below-switch", "bcast"),
                (default.0 + verdict.0, default.1 + verdict.1),
                "p={p} rank {r}"
            );
        }
    }
}
