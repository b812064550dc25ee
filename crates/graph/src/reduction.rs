//! Bidirected transitive reduction (`TrReduction`, Algorithm 1 line 10) —
//! the diBELLA 2D layout stage that turns the overlap matrix `R` into the
//! string matrix `S`.
//!
//! Under the min-plus, direction-aware
//! [`crate::semirings::ReductionSemiring`], `N = R ⊗ R` holds at `(u,v)`,
//! per direction pair, the smallest two-hop overhang sum `u→w→v` with a
//! consistently oriented middle read `w`. An edge `e = (u,v)` is
//! *transitive* — i.e. carries no information a parallel path doesn't —
//! when `N(u,v)[dir(e)] ≤ suffix(e) + fuzz`. `N` is only ever read where
//! `R` has an edge, and there only in the edge's own direction, so that
//! one `u32` is all the sweep computes ([`DistMat::prune_by_product`]
//! under [`ReductionFold`]: `R` masks its own square), and all marked
//! edges are removed simultaneously in one sweep — which is already the
//! fixed point (see [`transitive_reduction_with`]).
//!
//! The sweep runs on `R`'s [`Hop`] projection: the product reads only
//! an edge's suffix and arrowheads, so a stage block ships one varint
//! per edge, `suffix << 2 | dir` (1–2 bytes for an overhang below
//! 4 096) — and only the edges the receiver's block of `R` reaches —,
//! and each edge's `(pre, post)` waits on its own rank in an
//! array aligned with the block's entries until the kept edges take it
//! back.

use elba_align::SgEdge;
use elba_comm::ProcGrid;
use elba_sparse::{Csr, DistMat, SpGemmOptions};

use crate::semirings::{Hop, ReductionFold};

/// Outcome of the reduction.
#[derive(Debug, Clone, Copy)]
pub struct ReductionStats {
    pub iterations: usize,
    pub removed: u64,
    pub nnz_before: u64,
    pub nnz_after: u64,
}

/// Transitive reduction of `r`: one masked sweep under `opts` (threads,
/// and whether a memory budget lets the SUMMA prefetch). Collective.
///
/// One sweep is the fixed point, for any input. Let `S₁ ⊆ R` be what the
/// sweep keeps and `N₁ = S₁ ⊗ S₁`. Every two-hop path in `S₁` is a
/// two-hop path in `R` with the same edge values, so `N₁ ≥ N` entry for
/// entry and direction for direction (`saturating_add` and the
/// `u32::MAX` "no path" value are monotone too). A kept edge has no
/// path in its direction (`N(e)[dir] = u32::MAX`, hence
/// `N₁(e)[dir] = u32::MAX`) or `N(e)[dir] > suffix(e) + fuzz`, hence
/// `N₁(e)[dir] > suffix(e) + fuzz`: a second sweep would keep it.
///
/// `max_iters` is vestigial, kept because callers outside this crate
/// still pass it: `0` returns `r` untouched with `iterations = 0`, any
/// other value runs the sweep and reports `iterations = 1`.
pub fn transitive_reduction_with(
    grid: &ProcGrid,
    r: DistMat<SgEdge>,
    fuzz: u32,
    max_iters: usize,
    opts: &SpGemmOptions,
) -> (DistMat<SgEdge>, ReductionStats) {
    let nnz_before = r.nnz_global(grid);
    let (s, iterations) = if max_iters == 0 {
        (r, 0)
    } else {
        (sweep(grid, r, fuzz, opts), 1)
    };
    let nnz_after = s.nnz_global(grid);
    (
        s,
        ReductionStats {
            iterations,
            removed: nnz_before - nnz_after,
            nnz_before,
            nnz_after,
        },
    )
}

/// The masked sweep on `r`'s hop projection. `r` is consumed into it —
/// the index arrays move over and the values split into hops and a
/// `(pre, post)` side array — so `R` and the projection are never
/// resident together (8 B of hop and 8 B of side is what the 16 B edge
/// took). Mask and both SUMMA operands are the projection's one `Arc`,
/// so the rank's own block is charged once, and each edge's slot is one
/// `u32`: 24 B per edge in all, with the 4 B column index.
/// `prune_by_product` runs `keep` once per mask entry in storage order,
/// so the predicate compacts the side array in place, and the kept hops
/// then take their `(pre, post)` back.
fn sweep(grid: &ProcGrid, r: DistMat<SgEdge>, fuzz: u32, opts: &SpGemmOptions) -> DistMat<SgEdge> {
    let (nrows, ncols) = (r.nrows(), r.ncols());
    let local = r.into_local();
    let (block_rows, block_cols) = (local.nrows(), local.ncols());
    let (indptr, indices, edges) = local.into_parts();
    let mut side = Vec::with_capacity(edges.len());
    // `collect` writes each hop over the edge it was read from (std
    // reuses a `vec::IntoIter`'s buffer for a smaller element) and
    // `shrink_to_fit` hands the tail back: `R`'s values become the hops
    // in place instead of sitting beside them, and the side array is
    // the one fresh allocation.
    let mut hops: Vec<Hop> = edges
        .into_iter()
        .map(|edge| {
            side.push((edge.pre, edge.post));
            Hop::of(&edge)
        })
        .collect();
    hops.shrink_to_fit();
    let _side_charge = grid
        .world()
        .mem_charge(side.len() * std::mem::size_of::<(u32, u32)>());
    let p = DistMat::from_local(
        grid,
        nrows,
        ncols,
        Csr::from_parts(block_rows, block_cols, indptr, indices, hops),
    );
    let (mut next, mut kept) = (0, 0);
    let s = p.prune_by_product(
        grid,
        &p,
        &p,
        &ReductionFold,
        opts,
        |_, _, hop, &shortest| {
            let keep = keeps_edge(hop, shortest, fuzz);
            if keep {
                side[kept] = side[next];
                kept += 1;
            }
            next += 1;
            keep
        },
    );
    drop(p);
    let (indptr, indices, hops) = s.into_local().into_parts();
    let edges = hops
        .into_iter()
        .zip(&side[..kept])
        .map(|(hop, &(pre, post))| SgEdge {
            pre,
            post,
            src_rev: hop.src_rev,
            dst_rev: hop.dst_rev,
            suffix: hop.suffix,
        })
        .collect();
    DistMat::from_local(
        grid,
        nrows,
        ncols,
        Csr::from_parts(block_rows, block_cols, indptr, indices, edges),
    )
}

/// The reduction rule: keep `hop` unless `shortest`, its shortest
/// two-hop path in its own direction, is at most `fuzz` longer.
/// `u32::MAX` is "no path" even where `suffix + fuzz` saturates to it:
/// reads are under 2³¹ bases, so no real two-hop sum reaches it.
fn keeps_edge(hop: &Hop, shortest: u32, fuzz: u32) -> bool {
    shortest == u32::MAX || shortest > hop.suffix.saturating_add(fuzz)
}

/// Drop any directed edge whose mirror is absent, restoring exact
/// structural symmetry after fuzz-boundary effects. Collective.
pub fn symmetrize(grid: &ProcGrid, s: DistMat<SgEdge>) -> DistMat<SgEdge> {
    let t = s.transpose(grid);
    s.zip_prune(grid, &t, |_, _, _, mirror| mirror.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semirings::{MinPlusDir, ReductionSemiring};
    use elba_comm::{Backend, Runner};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn reduce(grid: &ProcGrid, r: DistMat<SgEdge>, fuzz: u32) -> (DistMat<SgEdge>, ReductionStats) {
        transitive_reduction_with(grid, r, fuzz, 1, &SpGemmOptions::default())
    }

    /// The reduction as it ran before the masked sweep, kept as the
    /// oracle: materialise the full `N = S ⊗ S`, `zip_prune` `S` against
    /// it, repeat until a sweep removes nothing. Returns the fixed point
    /// and the global edge count after every sweep.
    fn reduce_to_fixed_point_oracle(
        grid: &ProcGrid,
        mut s: DistMat<SgEdge>,
        fuzz: u32,
    ) -> (DistMat<SgEdge>, Vec<u64>) {
        let mut nnz_after_sweep = Vec::new();
        loop {
            let before = s.nnz_global(grid);
            let hops = hops_of(grid, &s);
            let n = hops.spgemm_with(grid, &hops, &ReductionSemiring, 1);
            s = s.zip_prune(grid, &n, |_, _, edge, two_hop| {
                let hop = Hop::of(edge);
                keeps_edge(&hop, shortest_in_own_dir(&hop, two_hop), fuzz)
            });
            let after = s.nnz_global(grid);
            nnz_after_sweep.push(after);
            if after == before {
                return (s, nnz_after_sweep);
            }
        }
    }

    /// What the general product says of `hop`'s own direction: its
    /// `per_dir` entry there, or `u32::MAX` where it has no entry.
    fn shortest_in_own_dir(hop: &Hop, two_hop: Option<&MinPlusDir>) -> u32 {
        two_hop.map_or(u32::MAX, |paths| paths.per_dir[hop.dir()])
    }

    /// `s` projected to hops by copy, leaving `s` as it was.
    fn hops_of(grid: &ProcGrid, s: &DistMat<SgEdge>) -> DistMat<Hop> {
        let local = s.local();
        let block = Csr::from_parts(
            local.nrows(),
            local.ncols(),
            local.indptr().to_vec(),
            local.indices().to_vec(),
            local.values().iter().map(Hop::of).collect(),
        );
        DistMat::from_local(grid, s.nrows(), s.ncols(), block)
    }

    /// The sweep's slot against the general product it stands in for:
    /// at every edge, the `u32` that `keep` sees must be the general
    /// `R ⊗ R`'s entry in the edge's own direction, `u32::MAX` where
    /// the product has no entry — with no budget and with budgets that
    /// do and do not let the SUMMA prefetch, × threads {1, 2, 4} × 1×1 /
    /// 2×2 / 3×3. The graphs are required to hold edges whose shortest
    /// path in some other direction is shorter, so a fold that took the
    /// minimum over all four directions would fail here.
    #[test]
    fn the_sweeps_slot_is_the_general_products_own_direction() {
        let mut other_direction_shorter = 0;
        for (case, p) in [1usize, 4, 9].into_iter().cycle().take(9).enumerate() {
            let (want, rows, shorter) = Runner::new(Backend::InProcess)
                .ranks(p)
                .run(move |comm| {
                    let grid = ProcGrid::new(comm);
                    let mut rng = StdRng::seed_from_u64(700 + case as u64);
                    let n = rng.gen_range(16..48u64);
                    let edges = rng.gen_range(n as usize..(n * (n - 1) / 3) as usize);
                    let triples = random_overlap_graph(&mut rng, n, edges);
                    let mine = if grid.world().rank() == 0 {
                        triples
                    } else {
                        Vec::new()
                    };
                    let r = DistMat::from_triples(
                        &grid,
                        n as usize,
                        n as usize,
                        mine,
                        |_, _| unreachable!(),
                    );
                    let hops = hops_of(&grid, &r);
                    let gathered = |seen: Vec<(u64, u64, u32)>| {
                        let mut seen: Vec<_> =
                            grid.world().allgather(seen).into_iter().flatten().collect();
                        seen.sort_unstable();
                        seen
                    };
                    let general = hops.spgemm_with(&grid, &hops, &ReductionSemiring, 1);
                    let (mut want, mut other_direction_shorter) = (Vec::new(), 0);
                    hops.clone()
                        .zip_prune(&grid, &general, |r, c, hop, two_hop| {
                            let own = shortest_in_own_dir(hop, two_hop);
                            let any = two_hop.map_or(u32::MAX, |paths| {
                                paths.per_dir.into_iter().min().expect("four directions")
                            });
                            other_direction_shorter += (any < own) as u64;
                            want.push((r, c, own));
                            true
                        });
                    let largest = grid
                        .world()
                        .allreduce(hops.heap_bytes() as u64, |x, y| x.max(y));
                    let switch = 4 * 2 * largest;
                    let schedules = [
                        ("unbudgeted", SpGemmOptions::default()),
                        ("prefetching budget", SpGemmOptions::budgeted(switch)),
                        ("blocking budget", SpGemmOptions::budgeted(switch - 1)),
                    ];
                    let mut rows = Vec::new();
                    for (label, opts) in schedules {
                        for threads in [1usize, 2, 4] {
                            let mut seen = Vec::new();
                            hops.prune_by_product(
                                &grid,
                                &hops,
                                &hops,
                                &ReductionFold,
                                &opts.with_threads(threads),
                                |r, c, _, &shortest| {
                                    seen.push((r, c, shortest));
                                    true
                                },
                            );
                            rows.push((format!("{label} t={threads}"), gathered(seen)));
                        }
                    }
                    let shorter = grid
                        .world()
                        .allreduce(other_direction_shorter, |x, y| x + y);
                    (gathered(want), rows, shorter)
                })
                .remove(0);
            for (label, seen) in &rows {
                assert_eq!(seen, &want, "case {case} p={p} {label}");
            }
            other_direction_shorter += shorter;
        }
        assert!(
            other_direction_shorter > 50,
            "only {other_direction_shorter} edges tell a direction-blind fold apart"
        );
    }

    #[test]
    fn the_sweeps_accumulator_is_four_bytes_per_edge() {
        let mut rng = StdRng::seed_from_u64(31);
        let triples: Vec<(u32, u32, Hop)> = random_overlap_graph(&mut rng, 30, 200)
            .into_iter()
            .map(|(u, v, edge)| (u as u32, v as u32, Hop::of(&edge)))
            .collect();
        let mask = Csr::from_triples(30, 30, triples, |_, _| unreachable!());
        let acc = elba_sparse::spgemm::MaskedAccumulator::new(&mask, &ReductionFold);
        assert_eq!(acc.heap_bytes(), 4 * 200 + 4 * 30);
        assert!(acc.values().iter().all(|&shortest| shortest == u32::MAX));
    }

    /// A random bidirected graph dense in two-hop paths: mixed strands,
    /// suffixes small enough that sums land on either side of
    /// `suffix + fuzz` (and exactly on it), and a share of suffixes near
    /// `u32::MAX` whose sums saturate.
    fn random_overlap_graph(rng: &mut StdRng, n: u64, edges: usize) -> Vec<(u64, u64, SgEdge)> {
        let mut seen = std::collections::BTreeSet::new();
        let mut triples = Vec::new();
        while triples.len() < edges {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u == v || !seen.insert((u, v)) {
                continue;
            }
            let suffix = if rng.gen_bool(0.1) {
                u32::MAX - rng.gen_range(0..4)
            } else {
                rng.gen_range(1..12)
            };
            triples.push((
                u,
                v,
                SgEdge {
                    pre: 0,
                    post: 0,
                    src_rev: rng.gen_bool(0.3),
                    dst_rev: rng.gen_bool(0.3),
                    suffix,
                },
            ));
        }
        triples
    }

    fn sorted_edges(grid: &ProcGrid, m: &DistMat<SgEdge>) -> Vec<(u64, u64, SgEdge)> {
        let mut edges = m.gather_triples(grid);
        edges.sort_by_key(|&(u, v, _)| (u, v));
        edges
    }

    #[test]
    fn one_masked_sweep_is_the_old_loops_fixed_point() {
        for (case, p) in [1usize, 4, 9].into_iter().cycle().take(18).enumerate() {
            let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                let grid = ProcGrid::new(comm);
                let mut rng = StdRng::seed_from_u64(900 + case as u64);
                let n = rng.gen_range(4..40u64);
                let edges = rng.gen_range(0..(n * (n - 1) / 2) as usize);
                let fuzz = rng.gen_range(0..6);
                let triples = random_overlap_graph(&mut rng, n, edges);
                let build = |t: &[(u64, u64, SgEdge)]| {
                    let mine = if grid.world().rank() == 0 {
                        t.to_vec()
                    } else {
                        Vec::new()
                    };
                    DistMat::from_triples(
                        &grid,
                        n as usize,
                        n as usize,
                        mine,
                        |_, _| unreachable!(),
                    )
                };
                let (oracle, nnz_after_sweep) =
                    reduce_to_fixed_point_oracle(&grid, build(&triples), fuzz);
                let (swept, stats) = reduce(&grid, build(&triples), fuzz);
                let (again, stats_again) = reduce(&grid, swept.clone(), fuzz);
                (
                    sorted_edges(&grid, &oracle),
                    nnz_after_sweep,
                    sorted_edges(&grid, &swept),
                    stats,
                    sorted_edges(&grid, &again),
                    stats_again.removed,
                )
            });
            let (oracle, nnz_after_sweep, swept, stats, again, removed_again) = &out[0];
            assert_eq!(swept, oracle, "case {case} p={p}: edge set");
            // The theorem, observed: the oracle's first sweep already
            // reached the fixed point.
            assert!(
                nnz_after_sweep.iter().all(|&nnz| nnz == nnz_after_sweep[0]),
                "case {case} p={p}: a later sweep removed an edge: {nnz_after_sweep:?}"
            );
            assert_eq!(stats.iterations, 1);
            assert_eq!(stats.nnz_after, oracle.len() as u64);
            assert_eq!(stats.removed, stats.nnz_before - stats.nnz_after);
            assert_eq!((again, *removed_again), (swept, 0), "case {case} p={p}");
        }
    }

    #[test]
    fn zero_iterations_returns_the_input_untouched() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            let triples = if grid.world().rank() == 0 {
                chain_edges(6, 100, 30)
            } else {
                Vec::new()
            };
            let r = DistMat::from_triples(&grid, 6, 6, triples, |_, _| unreachable!());
            let want = sorted_edges(&grid, &r);
            let (s, stats) = transitive_reduction_with(&grid, r, 5, 0, &SpGemmOptions::default());
            (sorted_edges(&grid, &s) == want, stats)
        });
        let (same, stats) = out[0];
        assert!(same);
        assert_eq!((stats.iterations, stats.removed), (0, 0));
        assert_eq!(stats.nnz_before, stats.nnz_after);
    }

    /// Build the symmetric edge pair for two reads laid consecutively on a
    /// genome: read i covers [i*stride, i*stride + len).
    fn chain_edges(n: usize, len: u32, stride: u32) -> Vec<(u64, u64, SgEdge)> {
        let mut triples = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let gap = (j - i) as u32 * stride;
                if gap >= len {
                    continue; // no overlap
                }
                // same-strand dovetail, read i left of read j
                triples.push((
                    i as u64,
                    j as u64,
                    SgEdge {
                        pre: gap - 1,
                        post: 0,
                        src_rev: false,
                        dst_rev: false,
                        suffix: gap,
                    },
                ));
                triples.push((
                    j as u64,
                    i as u64,
                    SgEdge {
                        pre: len - gap,
                        post: len - 1,
                        src_rev: true,
                        dst_rev: true,
                        suffix: gap,
                    },
                ));
            }
        }
        triples
    }

    #[test]
    fn chain_reduces_to_adjacent_edges() {
        for p in [1usize, 4] {
            let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                let grid = ProcGrid::new(comm);
                // 6 reads of length 100 at stride 30: read i overlaps
                // i+1, i+2, i+3 — reduction must keep only i↔i+1.
                let triples = if grid.world().rank() == 0 {
                    chain_edges(6, 100, 30)
                } else {
                    Vec::new()
                };
                let r = DistMat::from_triples(&grid, 6, 6, triples, |_, _| unreachable!());
                let (s, stats) = reduce(&grid, r, 5);
                let mut kept: Vec<(u64, u64)> = s
                    .gather_triples(&grid)
                    .into_iter()
                    .map(|(a, b, _)| (a, b))
                    .collect();
                kept.sort_unstable();
                (kept, stats.removed)
            });
            let (kept, removed) = &out[0];
            let want: Vec<(u64, u64)> = (0..5u64)
                .flat_map(|i| [(i, i + 1), (i + 1, i)])
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            assert_eq!(kept, &want, "p={p}");
            assert!(*removed > 0);
        }
    }

    #[test]
    fn reduction_respects_direction_compatibility() {
        // u→w→v exists but w's orientation is inconsistent between the two
        // hops, so the direct edge u→v must survive.
        let out = Runner::new(Backend::InProcess).ranks(1).run(|comm| {
            let grid = ProcGrid::new(comm);
            let triples = vec![
                (
                    0u64,
                    1u64,
                    SgEdge {
                        pre: 9,
                        post: 0,
                        src_rev: false,
                        dst_rev: false,
                        suffix: 10,
                    },
                ),
                // w (=1) leaves reversed — incompatible with arriving forward
                (
                    1u64,
                    2u64,
                    SgEdge {
                        pre: 9,
                        post: 0,
                        src_rev: true,
                        dst_rev: false,
                        suffix: 10,
                    },
                ),
                (
                    0u64,
                    2u64,
                    SgEdge {
                        pre: 19,
                        post: 0,
                        src_rev: false,
                        dst_rev: false,
                        suffix: 20,
                    },
                ),
            ];
            let r = DistMat::from_triples(&grid, 3, 3, triples, |_, _| unreachable!());
            let (s, _) = reduce(&grid, r, 2);
            s.nnz_global(&grid)
        });
        assert_eq!(out[0], 3, "no edge may be removed");
    }

    #[test]
    fn compatible_two_hop_removes_direct_edge() {
        let out = Runner::new(Backend::InProcess).ranks(1).run(|comm| {
            let grid = ProcGrid::new(comm);
            let triples = vec![
                (
                    0u64,
                    1u64,
                    SgEdge {
                        pre: 9,
                        post: 0,
                        src_rev: false,
                        dst_rev: false,
                        suffix: 10,
                    },
                ),
                (
                    1u64,
                    2u64,
                    SgEdge {
                        pre: 9,
                        post: 0,
                        src_rev: false,
                        dst_rev: false,
                        suffix: 10,
                    },
                ),
                (
                    0u64,
                    2u64,
                    SgEdge {
                        pre: 19,
                        post: 0,
                        src_rev: false,
                        dst_rev: false,
                        suffix: 20,
                    },
                ),
            ];
            let r = DistMat::from_triples(&grid, 3, 3, triples, |_, _| unreachable!());
            let (s, stats) = reduce(&grid, r, 2);
            let mut kept: Vec<(u64, u64)> = s
                .gather_triples(&grid)
                .into_iter()
                .map(|(a, b, _)| (a, b))
                .collect();
            kept.sort_unstable();
            (kept, stats.iterations)
        });
        assert_eq!(out[0].0, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn fuzz_tolerates_inexact_suffix_sums() {
        let out = Runner::new(Backend::InProcess).ranks(1).run(|comm| {
            let grid = ProcGrid::new(comm);
            // two-hop sum 23 vs direct suffix 20: transitive only if fuzz >= 3
            let triples = vec![
                (
                    0u64,
                    1u64,
                    SgEdge {
                        pre: 9,
                        post: 0,
                        src_rev: false,
                        dst_rev: false,
                        suffix: 11,
                    },
                ),
                (
                    1u64,
                    2u64,
                    SgEdge {
                        pre: 9,
                        post: 0,
                        src_rev: false,
                        dst_rev: false,
                        suffix: 12,
                    },
                ),
                (
                    0u64,
                    2u64,
                    SgEdge {
                        pre: 19,
                        post: 0,
                        src_rev: false,
                        dst_rev: false,
                        suffix: 20,
                    },
                ),
            ];
            let strict = {
                let r = DistMat::from_triples(&grid, 3, 3, triples.clone(), |_, _| unreachable!());
                reduce(&grid, r, 0).0.nnz_global(&grid)
            };
            let fuzzy = {
                let r = DistMat::from_triples(&grid, 3, 3, triples, |_, _| unreachable!());
                reduce(&grid, r, 5).0.nnz_global(&grid)
            };
            (strict, fuzzy)
        });
        assert_eq!(out[0].0, 3, "strict keeps the direct edge");
        assert_eq!(out[0].1, 2, "fuzzy removes it");
    }

    #[test]
    fn symmetrize_drops_unpaired_edges() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            let e = SgEdge {
                pre: 0,
                post: 0,
                src_rev: false,
                dst_rev: false,
                suffix: 1,
            };
            let triples = if grid.world().rank() == 0 {
                vec![(0u64, 1u64, e), (1u64, 0u64, e), (2u64, 3u64, e)]
            } else {
                Vec::new()
            };
            let s = DistMat::from_triples(&grid, 4, 4, triples, |_, _| unreachable!());
            let sym = symmetrize(&grid, s);
            let mut kept: Vec<(u64, u64)> = sym
                .gather_triples(&grid)
                .into_iter()
                .map(|(a, b, _)| (a, b))
                .collect();
            kept.sort_unstable();
            kept
        });
        assert_eq!(out[0], vec![(0, 1), (1, 0)]);
    }
}
