//! The masked product under transitive reduction:
//! `DistMat::prune_by_product` must see, at every stored entry of the
//! mask, exactly what the general product `spgemm_with` (the eager
//! oracle, its one schedule) holds there — the same value, built from
//! the same products in the same order, or `None` where the product has
//! no entry (a plain semiring drives it through `SemiringSlot`) — and
//! must return exactly what `zip_prune` against that product returns.
//! For every schedule row, rank count and thread count, on rectangular
//! `n×k · k×m` shapes, and on masks shaped to cut the stage blocks
//! (block-diagonal, one row, empty blocks, full) on both backends. On
//! every rank the predicate must also run exactly once per mask entry,
//! in the block's storage order: the transitive reduction walks an
//! array aligned with the mask's entries from inside it. The masked
//! product ships each stage block only as far as the receiver's mask
//! reaches, and a budget alone decides whether the replies are
//! prefetched; neither changes a byte it sends.

mod common;

use elba_comm::{Backend, CommMsg, ProcGrid, Runner};
use elba_sparse::semiring::{FnSemiring, PlusTimes, Semiring, SemiringSlot};
use elba_sparse::{Csr, DistMat, Layout2D, SpGemmOptions};
use proptest::prelude::*;

use common::{masked_stage_bytes, schedule_rows, tagged, Trace};

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

/// Which runs a check makes: the backend, the schedule rows for a
/// product whose largest stage is the given bytes, and the thread
/// counts each row runs at.
#[derive(Clone, Copy)]
struct Plan {
    backend: Backend,
    regimes: fn(u64) -> Vec<(String, SpGemmOptions)>,
    threads: &'static [usize],
}

/// The whole schedule matrix × threads {1, 2, 4}, in process.
const EVERY_ROW: Plan = Plan {
    backend: Backend::InProcess,
    regimes: schedule_rows,
    threads: &[1, 2, 4],
};

/// Unbudgeted, and one byte below the prefetch switch: prefetched and
/// blocking replies.
fn both_sides(max_stage: u64) -> Vec<(String, SpGemmOptions)> {
    let below = (4 * max_stage).saturating_sub(1).max(1);
    vec![
        ("unbudgeted".to_owned(), SpGemmOptions::default()),
        (
            format!("blocking (budget={below})"),
            SpGemmOptions::budgeted(below),
        ),
    ]
}

/// One `p`-rank run on `plan.backend`: the oracle row (general eager
/// product, then `zip_prune`) followed by `prune_by_product` under every
/// row of `plan`. Each row is what the predicate saw on all ranks plus
/// the pruned mask, both gathered and sorted.
fn rows<S>(
    plan: Plan,
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
    Runner::new(plan.backend)
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
            for (label, opts) in (plan.regimes)(masked_stage_bytes(&grid, &a, &b)) {
                for &threads in plan.threads {
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
    runs: usize,
    rows: &[(String, Seen<V>, Triples<u32>)],
) {
    let (oracle, seen, kept) = &rows[0];
    assert_eq!(oracle, "oracle");
    assert_eq!(rows.len(), 1 + runs);
    for (label, got_seen, got_kept) in &rows[1..] {
        assert_eq!(got_seen, seen, "{label} p={p}: products on the mask");
        assert_eq!(got_kept, kept, "{label} p={p}: pruned mask");
    }
}

/// Three semirings on one input: `PlusTimes`, the order-sensitive
/// [`Trace`], and a filtering trace whose `multiply` annihilates a third
/// of the products.
fn check(
    plan: Plan,
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
    let runs = (plan.regimes)(1).len() * plan.threads.len();
    let plus = rows(plan, p, dims, &small(a), &small(b), mask, PlusTimes);
    assert_all_equal_oracle(p, runs, &plus);
    let traced = rows(plan, p, dims, a, b, mask, Trace);
    assert_all_equal_oracle(p, runs, &traced);
    let filtering = FnSemiring::new(
        |x: &u32, y: &u32| (!(x + y).is_multiple_of(3)).then(|| vec![(*x, *y)]),
        |acc: &mut Vec<(u32, u32)>, v| acc.extend(v),
    );
    let filtered = rows(plan, p, dims, a, b, mask, filtering);
    assert_all_equal_oracle(p, runs, &filtered);
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
        check(EVERY_ROW, p, (n, k, m), &a, &b, &mask);
    }
}

#[test]
fn empty_mask_empty_stage_blocks_and_a_hypersparse_block() {
    for p in [1usize, 4, 9] {
        // No mask entry: nothing to compute, nothing kept.
        let a = tagged(20, 20, &[(0, 1), (5, 7), (19, 3)]);
        assert_eq!(check(EVERY_ROW, p, (20, 20, 20), &a, &a, &Vec::new()), 0);

        // `A` lives in block column 0 and `B` in block row 0 alone, so
        // every later stage multiplies two empty blocks.
        let a: Vec<(usize, usize)> = (0..40).map(|r| (r, r % 3)).collect();
        let b: Vec<(usize, usize)> = (0..40).map(|c| (c % 3, c)).collect();
        let mask: Vec<(usize, usize)> = (0..40).flat_map(|r| [(r, r), (r, 39 - r)]).collect();
        let hit = check(
            EVERY_ROW,
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
            EVERY_ROW,
            p,
            (n, n, n),
            &tagged(n, n, &a),
            &tagged(n, n, &b),
            &tagged(n, n, &mask),
        );
        assert!(hit >= 15, "p={p}: {hit} of 15 path ends on the mask");
    }
}

/// Masks shaped to cut the stage blocks of an `n×n` product on a `q×q`
/// grid: block-diagonal (every rank off the diagonal names nothing), one
/// row (one grid row names one row, the rest nothing), most blocks empty,
/// and full (every cut is the whole block, so every reply is the
/// holder's `Arc`).
fn shaped_masks(n: usize, q: usize) -> Vec<(&'static str, Vec<(usize, usize)>)> {
    let layout = Layout2D::new(n, q);
    let block = |g: usize| layout.block_of(g);
    let all = || (0..n).flat_map(move |r| (0..n).map(move |c| (r, c)));
    vec![
        (
            "block-diagonal",
            all()
                .filter(|&(r, c)| block(r) == block(c) && (r + 2 * c) % 3 != 0)
                .collect(),
        ),
        ("one row", (0..n).map(|c| (n / 2, c)).collect()),
        (
            "empty blocks",
            all()
                .filter(|&(r, c)| (block(r) * q + block(c)) % 3 == 1 && (r + c) % 2 == 0)
                .collect(),
        ),
        ("full", all().collect()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// The fetch cut to shaped masks is the general product read on the
    /// mask: on 1×1 to 4×4 grids (from q = 3 on, each holder sends its
    /// q − 1 peers different cuts), at threads {1, 2}, unbudgeted and
    /// one byte below the prefetch switch, and on both backends at
    /// p = 4.
    #[test]
    fn a_fetch_cut_to_the_mask_is_the_general_product_on_it(
        n in 8usize..40,
        k in 1usize..16,
        a_entries in proptest::collection::vec((0usize..64, 0usize..32), 20..120),
        b_entries in proptest::collection::vec((0usize..32, 0usize..64), 20..120),
    ) {
        let a = tagged(n, k, &a_entries);
        let b = tagged(k, n, &b_entries);
        let plan = |backend| Plan {
            backend,
            regimes: both_sides,
            threads: &[1, 2],
        };
        for (p, backend) in [
            (1, Backend::InProcess),
            (4, Backend::InProcess),
            (4, Backend::Socket),
            (9, Backend::InProcess),
            (16, Backend::InProcess),
        ] {
            let q = (p as f64).sqrt() as usize;
            for (shape, entries) in shaped_masks(n, q) {
                let mask = tagged(n, n, &entries);
                let hit = check(plan(backend), p, (n, k, n), &a, &b, &mask);
                if shape == "full" {
                    // Every product lands on a full mask.
                    prop_assert!(hit > 0, "p={p} {shape}: the product never reached the mask");
                }
            }
        }
    }
}

/// Per rank, the fetch's `(messages, bytes)` from the blocks alone, and
/// the sizes of the `A` cuts this rank sends: every rank names its mask
/// block's non-empty rows to the other `q − 1` ranks of its grid row
/// and its occupied columns to the other `q − 1` of its grid column (a
/// packed bitmap each), and the holder of each stage block sends each
/// peer the block cut to what that peer named. Collective.
fn modeled_fetch(
    grid: &ProcGrid,
    a: &DistMat<f64>,
    b: &DistMat<f64>,
    mask: &DistMat<u32>,
) -> ((u64, u64), Vec<usize>) {
    let block = mask.local();
    let rows: Vec<bool> = (0..block.nrows()).map(|r| block.row_nnz(r) > 0).collect();
    let mut cols = vec![false; block.ncols()];
    for (_, c, _) in block.iter() {
        cols[c as usize] = true;
    }
    let world = grid.world();
    let (all_rows, all_cols) = (world.allgather(rows.clone()), world.allgather(cols.clone()));
    let (q, i, j) = (grid.q(), grid.myrow(), grid.mycol());
    if q == 1 {
        return ((0, 0), Vec::new());
    }
    let cut = |m: &Csr<f64>, named: &[bool], by_row: bool| {
        m.filtered(|r, c, _| named[if by_row { r } else { c } as usize])
            .nbytes()
    };
    let a_cuts: Vec<usize> = (0..q)
        .filter(|&c| c != j)
        .map(|c| cut(a.local(), &all_rows[grid.rank_of(i, c)], true))
        .collect();
    let b_cuts: Vec<usize> = (0..q)
        .filter(|&r| r != i)
        .map(|r| cut(b.local(), &all_cols[grid.rank_of(r, j)], false))
        .collect();
    let requests = (q - 1) * (rows.nbytes() + cols.nbytes());
    let replies: usize = a_cuts.iter().chain(&b_cuts).sum();
    let msgs = 4 * (q - 1) as u64;
    ((msgs, (requests + replies) as u64), a_cuts)
}

/// The fetch sends exactly the modeled requests and cuts, rank by rank,
/// and the budget decides only whether the replies are prefetched: at
/// `budget = 4·(a_max + b_max)` they are waited on as requests (wait
/// time booked), one byte below it they are received blocking (none),
/// and either way the sends are the unbudgeted run's, message for
/// message and byte for byte, plus the one `allreduce` (a `reduce` and a
/// `bcast`) that agrees the verdict. On a ring mask the cuts are proper:
/// the fetch sends less than the general product's broadcasts, and at
/// q = 3 some holder sends its two row peers different cuts.
#[test]
fn replies_are_cut_to_the_mask_and_the_budget_only_picks_prefetch() {
    for p in [4usize, 9] {
        let (out, profile) = Runner::new(Backend::InProcess)
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
                let model = modeled_fetch(&grid, &a, &at, &mask);
                let switch = 4 * masked_stage_bytes(&grid, &a, &at);
                {
                    let _guard = grid.world().phase("general");
                    a.spgemm_with(&grid, &at, &PlusTimes, 1);
                }
                for (phase, opts) in [
                    ("unbudgeted", SpGemmOptions::default()),
                    ("at-switch", SpGemmOptions::budgeted(switch)),
                    ("below-switch", SpGemmOptions::budgeted(switch - 1)),
                ] {
                    let _guard = grid.world().phase(phase);
                    let fold = SemiringSlot(PlusTimes);
                    mask.prune_by_product(&grid, &a, &at, &fold, &opts, |_, _, _, _| true);
                }
                model
            });
        let mut masked_bytes = 0;
        for (rank, ((msgs, bytes), _)) in profile.rank_profiles().iter().zip(&out) {
            let r = rank.rank();
            let phase = |name: &str| rank.phase(name).expect("phase recorded");
            let calls = |name: &str, op: &str| {
                phase(name)
                    .collectives
                    .iter()
                    .find(|&&(o, _, _)| o == op)
                    .map_or((0, 0), |&(_, calls, bytes)| (calls, bytes))
            };
            for name in ["unbudgeted", "at-switch", "below-switch"] {
                let sent = (phase(name).p2p_msgs, phase(name).p2p_bytes);
                assert_eq!(
                    sent,
                    (*msgs, *bytes),
                    "p={p} rank {r} {name}: the modeled fetch"
                );
            }
            masked_bytes += bytes;
            assert_eq!(phase("unbudgeted").coll_calls(), 0, "p={p} rank {r}");
            for name in ["at-switch", "below-switch"] {
                assert_eq!(
                    calls(name, "reduce").0,
                    1,
                    "p={p} rank {r} {name}: one verdict"
                );
                assert_eq!(
                    calls(name, "bcast").0,
                    1,
                    "p={p} rank {r} {name}: one verdict"
                );
                assert_eq!(phase(name).coll_calls(), 2, "p={p} rank {r} {name}");
            }
            assert_eq!(
                phase("below-switch").wait_secs,
                0.0,
                "p={p} rank {r}: blocking replies park in no request"
            );
        }
        for name in ["unbudgeted", "at-switch"] {
            assert!(
                profile.max_wait_secs(name) > 0.0,
                "p={p} {name}: prefetched replies are waited on as requests"
            );
        }
        let general: u64 = profile
            .rank_profiles()
            .iter()
            .map(|rank| rank.phase("general").expect("phase recorded").bytes_sent())
            .sum();
        assert!(
            masked_bytes < general,
            "p={p}: the cut fetch ({masked_bytes} B) sends less than the broadcasts ({general} B)"
        );
        if p == 9 {
            assert!(
                out.iter()
                    .any(|(_, cuts)| cuts.windows(2).any(|w| w[0] != w[1])),
                "p=9: some holder sends its row peers different cuts"
            );
        }
    }
}
