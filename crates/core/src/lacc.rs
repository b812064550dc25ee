//! Distributed connected components over the (unbranched) string matrix —
//! line 3 of Algorithm 2.
//!
//! ELBA uses LACC, the linear-algebraic Awerbuch–Shiloach implementation
//! of Azad & Buluç. We implement the same hook-and-shortcut family in its
//! FastSV formulation (Zhang, Azad & Buluç 2020 — the same group's
//! successor to LACC, with identical inputs/outputs). Every vertex holds
//! a parent label `f` with `f[x] ≤ x`; labels converge to the minimum
//! vertex id of their component. Labels are `u32`s in memory, the width
//! of a vertex id everywhere else (read sets of 2³² reads or more are
//! refused at ingest, [`elba_seq::TooManyReads`]); the result is widened
//! to `u64` once, locally, after the last round. On the wire every
//! fetched `(f, gp)` pair, proposal and contracted root travels as an
//! [`elba_sparse::U32Run`] varint of its distance below a vertex the
//! receiver knows: `f[x] ≤ x` bounds that distance by the component's
//! spread of ids, not by the id. The grandparent gather's requests and
//! replies ([`DistVec::gather`]) stay `u32` chunk offsets and labels.
//!
//! Before the first round each rank contracts its own matrix block with a
//! serial [`UnionFind`] and sends every vertex the minimum of its
//! block-local component, so a chain that lives inside one block is
//! already final. Those `(vertex, root)` updates, like a round's
//! proposals, ascend by vertex and each lowers its vertex's label, so
//! they travel as [`AtVertices`] runs: the vertex gap and
//! `vertex − root − 1`. A round then
//!
//! 1. computes grandparents `gp[u] = f[f[u]]` ([`DistVec::gather`]: each
//!    distinct remote parent is asked for once, local ones not at all);
//! 2. fetches the `(f, gp)` pair for the block's row and column range in
//!    one Fig. 2 exchange (a grid-row allgather and the transpose swap, as
//!    [`DistVec::fetch_aligned`] does), each chunk a [`PerVertex`] run of
//!    `v − f` and `f − gp`;
//! 3. folds the local edges into `m[v] = min gp[u]` over edges `(u, v)`
//!    and proposes aggressive hooking `f[v] ← m[v]` and stochastic
//!    hooking `f[f[v]] ← m[v]` — one `(target, value)` per target per
//!    rank, and only where it beats the `f[v]` (resp. `gp[v] = f[f[v]]`)
//!    the owner is known to hold, so every dropped proposal would have
//!    been a no-op;
//! 4. shortcuts `f[u] ← gp[u]` in place and min-combines the routed
//!    proposals (as [`DistVec::scatter_combine`] would);
//!
//! until a round changes no label anywhere. The matrix must be
//! structurally symmetric (ELBA's `S` and `L` always are): symmetry
//! supplies the mirrored direction of every edge. In the last round every
//! column `v` with an edge sees its own label as the least of its
//! neighbours' (`m[v] = f[v]`), so no edge spans two components; debug
//! builds check that there, where both values are already at hand.

use std::sync::Arc;

use elba_comm::{CommMsg, ProcGrid};
use elba_sparse::{AtVertices, DistMat, DistVec, Layout2D, PerVertex, U32Run};

/// Tag of the `(f, gp)` fetch's transpose swap.
const PAIRS_TAG: u64 = 0x00CC_F1F1;

/// Result of a connected-components run.
#[derive(Debug, Clone)]
pub struct ComponentLabels {
    /// Per-vertex component label (minimum vertex id in the component),
    /// distributed like any ELBA vector. Computed on `u32`, widened to
    /// `u64` after the last round.
    pub labels: DistVec<u64>,
    /// Rounds until the global fixed point.
    pub rounds: usize,
}

/// `acc ← min(acc, v)`; whether that lowered `acc`.
fn min_assign(acc: &mut u32, v: u32) -> bool {
    let lower = v < *acc;
    if lower {
        *acc = v;
    }
    lower
}

/// Min-combine `(vertex, label)` updates into their owners' labels, like
/// [`DistVec::scatter_combine`]: locally owned vertices in place, the
/// others routed as one [`AtVertices`] run per owner. `updates` ascend
/// strictly by vertex and every label is below its vertex, so every
/// owner's share is a run. Returns whether any label fell.
fn scatter_min(grid: &ProcGrid, f: &mut DistVec<u32>, updates: &[(usize, u32)]) -> bool {
    let layout = f.layout();
    let mine = f.global_range(grid);
    let local = f.local_mut();
    let mut outgoing = vec![Vec::new(); grid.world().size()];
    let mut changed = false;
    for &(v, label) in updates {
        if mine.contains(&v) {
            changed |= min_assign(&mut local[v - mine.start], label);
        } else {
            outgoing[layout.owner_rank(v)].extend([v as u32, label]);
        }
    }
    let runs = outgoing
        .into_iter()
        .map(|pairs| U32Run::new(AtVertices, pairs))
        .collect();
    for run in grid.world().alltoallv(runs) {
        for pair in run.values().chunks_exact(2) {
            changed |= min_assign(&mut local[pair[0] as usize - mine.start], pair[1]);
        }
    }
    changed
}

/// Step 2's Fig. 2 exchange: `(f, gp)` interleaved, `[f, gp, f, gp, …]`,
/// for the block's row range and for its column range. Each chunk
/// travels the grid-row allgather as a [`PerVertex`] run from its first
/// vertex, and the row range the transpose swap as one run from the
/// range's, shared with the partner rather than copied.
fn fetch_pairs(
    grid: &ProcGrid,
    layout: &Layout2D,
    f: &[u32],
    gp: &[u32],
) -> (Arc<U32Run<PerVertex<2>>>, Arc<U32Run<PerVertex<2>>>) {
    let chunk = layout.chunk_range(grid.myrow(), grid.mycol());
    let pairs = f.iter().zip(gp).flat_map(|(&f, &gp)| [f, gp]).collect();
    let mine = U32Run::new(
        PerVertex {
            first: chunk.start as u32,
        },
        pairs,
    );
    let rows = Arc::new(U32Run::concat(grid.row().allgather(mine)));
    let cols = if grid.is_diagonal() {
        Arc::clone(&rows)
    } else {
        let (world, partner) = (grid.world(), grid.transpose_rank());
        world.send(partner, PAIRS_TAG, Arc::clone(&rows));
        world.recv(partner, PAIRS_TAG)
    };
    (rows, cols)
}

/// Run connected components on a symmetric distributed matrix
/// (collective). Isolated vertices keep their own id as label.
pub fn connected_components<T: Clone + CommMsg + Sync>(
    grid: &ProcGrid,
    matrix: &DistMat<T>,
) -> ComponentLabels {
    assert_eq!(matrix.nrows(), matrix.ncols(), "CC needs a square matrix");
    let n = matrix.nrows();
    assert!(
        u32::try_from(n).is_ok(),
        "vertex ids are u32: read sets of 2^32 reads or more are refused at ingest"
    );
    let world = grid.world();
    let layout = matrix.row_layout();
    let (rows, cols) = (
        layout.block_range(grid.myrow()),
        layout.block_range(grid.mycol()),
    );
    let mut f = DistVec::from_fn(grid, n, |g| g as u32);

    // Local contraction. The union-find indexes the block's row and
    // column range concatenated in increasing global order (a diagonal
    // block has one range), so its smaller-index rule is the oracle's
    // smaller-global-id rule. `row0` / `col0`: where each range starts.
    let contracted: Vec<(usize, u32)> = {
        let (ids, row0, col0) = match rows.start.cmp(&cols.start) {
            std::cmp::Ordering::Less => (rows.clone().chain(cols.clone()), 0, rows.len()),
            std::cmp::Ordering::Equal => (rows.chain(0..0), 0, 0),
            std::cmp::Ordering::Greater => (cols.clone().chain(rows), cols.len(), 0),
        };
        let ids: Vec<usize> = ids.collect();
        let mut block = UnionFind::new(ids.len());
        world.record_mem_transient(2 * ids.len() * std::mem::size_of::<usize>());
        for (r, c, _) in matrix.local().iter() {
            block.union(row0 + r as usize, col0 + c as usize);
        }
        let minima = ids.iter().enumerate().filter_map(|(i, &g)| {
            let root = ids[block.find(i)];
            (root < g).then_some((g, root as u32))
        });
        minima.collect()
    };
    scatter_min(grid, &mut f, &contracted);

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let parents: Vec<usize> = f.local().iter().map(|&x| x as usize).collect();
        let gp = f.gather(grid, &parents);
        let (row_run, col_run) = fetch_pairs(grid, &layout, f.local(), &gp);
        let (row_pairs, col_pairs) = (row_run.values(), col_run.values());
        debug_assert_eq!(col_pairs.len(), 2 * cols.len());

        let mut best = vec![u32::MAX; cols.len()];
        world.record_mem_transient(
            (row_pairs.len() + col_pairs.len()) * std::mem::size_of::<u32>()
                + best.len() * std::mem::size_of::<u32>(),
        );
        for (u, v, _) in matrix.local().iter() {
            min_assign(&mut best[v as usize], row_pairs[2 * u as usize + 1]);
        }
        let mut proposals: Vec<(usize, u32)> = Vec::new();
        for ((v, &m), pair) in cols.clone().zip(&best).zip(col_pairs.chunks_exact(2)) {
            let (f_v, gp_v) = (pair[0], pair[1]);
            if m < f_v {
                proposals.push((v, m));
            }
            if m < gp_v {
                proposals.push((f_v as usize, m));
            }
        }
        // Sorted by (target, value): the first of each target is its minimum.
        proposals.sort_unstable();
        proposals.dedup_by_key(|&mut (target, _)| target);

        let mut changed = false;
        for (x, &g) in f.local_mut().iter_mut().zip(&gp) {
            changed |= min_assign(x, g);
        }
        changed |= scatter_min(grid, &mut f, &proposals);
        if world.allreduce(changed as u64, |a, b| a + b) == 0 {
            debug_assert!(
                best.iter()
                    .zip(col_pairs.chunks_exact(2))
                    .all(|(&m, pair)| m == u32::MAX || m == pair[0]),
                "an edge spans two components: is the matrix symmetric?"
            );
            break;
        }
    }
    // Widened once, locally: the labels' consumers key on `u64`.
    let labels = f.map(grid, |_, &label| u64::from(label));
    ComponentLabels { labels, rounds }
}

/// Serial union-find oracle used by tests and the quality tooling.
pub struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    pub fn find(&mut self, mut x: usize) -> usize {
        // Path halving: iterative, so a long chain cannot exhaust the stack.
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    pub fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // union by smaller id so labels match the distributed result
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            self.parent[hi] = lo;
        }
    }

    /// Min-id labels for all vertices.
    pub fn labels(&mut self) -> Vec<u64> {
        (0..self.parent.len())
            .map(|x| self.find(x) as u64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elba_comm::{Backend, Runner};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run_cc(p: usize, n: usize, edges: Vec<(u64, u64)>) -> (Vec<u64>, usize) {
        let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let grid = ProcGrid::new(comm);
            let triples: Vec<(u64, u64, u8)> = if grid.world().rank() == 0 {
                edges
                    .iter()
                    .flat_map(|&(a, b)| [(a, b, 1u8), (b, a, 1u8)])
                    .collect()
            } else {
                Vec::new()
            };
            let m = DistMat::from_triples(&grid, n, n, triples, |_, _| {});
            let cc = connected_components(&grid, &m);
            (cc.labels.to_global(&grid), cc.rounds)
        });
        out.into_iter().next().expect("at least one rank")
    }

    fn oracle(n: usize, edges: &[(u64, u64)]) -> Vec<u64> {
        let mut uf = UnionFind::new(n);
        for &(a, b) in edges {
            uf.union(a as usize, b as usize);
        }
        uf.labels()
    }

    #[test]
    fn paper_example_three_chains() {
        // §4.2: after masking v3, chains {v1,v2}, {v4,v5,v6}, {v7,v8}
        // (0-indexed: {0,1}, {3,4,5}, {6,7}; vertex 2 isolated).
        let edges = vec![(0, 1), (3, 4), (4, 5), (6, 7)];
        let (labels, _) = run_cc(4, 8, edges.clone());
        assert_eq!(labels, oracle(8, &edges));
        assert_eq!(labels, vec![0, 0, 2, 3, 3, 3, 6, 6]);
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(99);
        for p in [1usize, 4, 9] {
            for _ in 0..3 {
                let n = rng.gen_range(10..60);
                let m = rng.gen_range(0..n * 2);
                let edges: Vec<(u64, u64)> = (0..m)
                    .map(|_| (rng.gen_range(0..n as u64), rng.gen_range(0..n as u64)))
                    .filter(|&(a, b)| a != b)
                    .collect();
                let (labels, _) = run_cc(p, n, edges.clone());
                assert_eq!(labels, oracle(n, &edges), "p={p} n={n} edges={edges:?}");
            }
        }
    }

    /// `chains` disjoint paths of `len` vertices each, ids in path order.
    fn chain_edges(chains: usize, len: usize) -> Vec<(u64, u64)> {
        (0..chains * len)
            .filter(|i| i % len + 1 < len)
            .map(|i| (i as u64, i as u64 + 1))
            .collect()
    }

    /// Relabel the vertices by a seeded random permutation, so a chain's
    /// ids no longer follow its order.
    fn shuffle_ids(n: usize, edges: &[(u64, u64)], seed: u64) -> Vec<(u64, u64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perm: Vec<u64> = (0..n as u64).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        edges
            .iter()
            .map(|&(a, b)| (perm[a as usize], perm[b as usize]))
            .collect()
    }

    #[test]
    fn long_path_converges_logarithmically() {
        let n = 128;
        let (labels, rounds) = run_cc(4, n, chain_edges(1, n));
        assert!(labels.iter().all(|&l| l == 0));
        assert!(
            rounds <= 4,
            "ordered ids contract block-locally, took {rounds}"
        );
    }

    #[test]
    fn shuffled_ids_converge_logarithmically() {
        // Without the stochastic hook these took one round per chain
        // vertex (128 rounds on 150-vertex chains).
        for (chains, len) in [(1usize, 150usize), (40, 150)] {
            let n = chains * len;
            let edges = shuffle_ids(n, &chain_edges(chains, len), 2022);
            for p in [1usize, 4, 9] {
                let (labels, rounds) = run_cc(p, n, edges.clone());
                assert_eq!(labels, oracle(n, &edges), "p={p} chains={chains}");
                assert!(rounds <= 16, "p={p} chains={chains}: {rounds} rounds");
            }
        }
    }

    #[test]
    fn isolated_vertices_are_singletons() {
        let (labels, _) = run_cc(4, 5, vec![(1, 3)]);
        assert_eq!(labels, vec![0, 1, 2, 1, 4]);
    }

    #[test]
    fn single_rank_works() {
        let edges = vec![(0, 1), (1, 2), (5, 6)];
        let (labels, _) = run_cc(1, 8, edges.clone());
        assert_eq!(labels, oracle(8, &edges));
    }
}
