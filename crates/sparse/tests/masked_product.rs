//! The masked product under transitive reduction:
//! `DistMat::prune_by_product` must see, at every stored entry of the
//! mask, exactly what the general product `spgemm_with` holds there —
//! the same value, built from the same products in the same order, or
//! `None` where the product has no entry (a plain semiring drives it
//! through `SemiringSlot`) — and must return exactly what
//! `zip_prune` against that product returns. For every schedule row,
//! rank count and thread count; the general product under the eager
//! schedule is the oracle. On every rank the predicate must also run
//! exactly once per mask entry, in the block's storage order: the
//! transitive reduction walks an array aligned with the mask's entries
//! from inside it.

mod common;

use elba_comm::{Backend, CommMsg, ProcGrid, Runner};
use elba_sparse::semiring::{FnSemiring, PlusTimes, Semiring, SemiringSlot};
use elba_sparse::{DistMat, SpGemmOptions};
use proptest::prelude::*;

use common::{schedule_rows, tagged, Trace, N_ROWS};

type Triples<T> = Vec<(u64, u64, T)>;
/// What a prune predicate was shown: `(row, col, mask value, product)`.
type Seen<V> = Vec<(u64, u64, u32, Option<V>)>;

/// An arbitrary rule that needs both of its inputs, so a wrong product
/// and a wrong mask value each change the pruned matrix.
fn keeps<V>(mask_value: u32, product: Option<&V>) -> bool {
    product.is_some() != mask_value.is_multiple_of(3)
}

/// The bound the masked schedule's prefetch switch tests a budget
/// against: the largest `A` block plus the largest `B` block.
fn switch_bytes<A, B>(grid: &ProcGrid, a: &DistMat<A>, b: &DistMat<B>) -> u64
where
    A: Clone + CommMsg + Sync,
    B: Clone + CommMsg + Sync,
{
    let (a_max, b_max) = grid
        .world()
        .allreduce((a.heap_bytes() as u64, b.heap_bytes() as u64), |x, y| {
            (x.0.max(y.0), x.1.max(y.1))
        });
    a_max + b_max
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
            let full = a.spgemm_with(&grid, &b, &fold.0, &SpGemmOptions::eager());
            let mut seen = Vec::new();
            let kept = mask.clone().zip_prune(&grid, &full, |r, c, &v, product| {
                seen.push((r, c, v, product.cloned()));
                keeps(v, product)
            });
            let (seen, kept) = gathered(seen, kept);
            out.push(("oracle".to_owned(), seen, kept));
            let storage_order: Vec<(u64, u64)> =
                mask.iter_global(&grid).map(|(r, c, _)| (r, c)).collect();
            for (label, opts) in schedule_rows(96, switch_bytes(&grid, &a, &b)) {
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
