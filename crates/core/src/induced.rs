//! The induced subgraph function (§4.3) — line 5 of Algorithm 2.
//!
//! Given the unbranched string matrix `L`, the component labels `v`, and
//! the contig→processor assignment, every rank must end up with the local
//! adjacency matrix `L(Pᵢ)` of exactly the contigs assigned to it.
//!
//! The communication follows the paper's Fig. 2 with one departure: only
//! its *row* half is sent. Each rank learns `v[u]` for every local row
//! `u` through an allgather over the grid-row communicator (the row half
//! of [`DistVec::fetch_aligned`]), labels narrowed to `u32` like every
//! vertex id. A label is its component's least vertex, so each chunk
//! travels as an [`elba_sparse::U32Run`] of `varint(u − v[u])` from the
//! chunk's first vertex: a chain of ids close together costs a byte a
//! label. The column half, the point-to-point swap with the transposed
//! rank that would deliver `v[w]`, is not sent. An edge never leaves its
//! component, so its row's label routes it, and the one reader of
//! `v[w]` was a consistency check that now runs inside connected
//! components, where both labels are at hand
//! ([`crate::lacc::connected_components`]). Each edge is then routed to
//! its owner with a custom all-to-all, as a `(u, w, WalkEdge)` triple of
//! an [`elba_sparse::RoutedTriples`] buffer: a destination's edges leave
//! in the block's row-major order, so they travel as row runs and column
//! gaps, each followed by the two varints of the fields a walk reads
//! (`pre << 1 | src_rev`, `post << 1 | dst_rev`). The local block is
//! re-indexed to its new, smaller size while keeping "a map of
//! the original global vertex indices" (`global_ids`), and handed to
//! local assembly as a CSR matrix. §4.4 converts it to CSC for vertex
//! (column) indexing; the subgraph is symmetric, so row `v` names the
//! same neighbours as column `v` and also holds each out-edge beside its
//! neighbour.
//!
//! Everything local is a linear pass, as the paper states the stage.
//! Routing walks the local CSR block by row and consults the assignment
//! once per non-empty row. Re-indexing is a *rank dictionary* over the
//! global id space instead of sort + dedup + a hash map: one bit per
//! vertex, set for every received endpoint, and a running popcount per
//! 64-bit word, so
//!
//! ```text
//! local_of(g) = prefix[g / 64] + popcount(word[g / 64] & below(g % 64))
//! ```
//!
//! and `global_ids` is the set bits read off in order — already sorted,
//! already distinct. It costs `n/8 + n/16` bytes per rank for `n` global
//! vertices (booked as a transient). The CSR comes out of
//! `elba-sparse`'s counting-sort builder; the triples arrive grouped by
//! source rank in row-major order, so every row is already ascending
//! once bucketed.

use std::collections::HashMap;

use elba_align::SgEdge;
use elba_comm::ProcGrid;
use elba_sparse::{Csr, DistMat, DistVec, PerVertex, RoutedTriples, U32Run};

use crate::assembly::WalkEdge;

/// A rank-local induced subgraph: one or more whole linear components.
#[derive(Debug, Clone)]
pub struct LocalGraph {
    /// Sorted original global vertex ids; position = local index.
    pub global_ids: Vec<u64>,
    /// Symmetric local adjacency: row `v` lists `v`'s neighbours,
    /// ascending, each beside the out-edge `v → w`.
    pub adj: Csr<WalkEdge>,
}

impl LocalGraph {
    pub fn n_vertices(&self) -> usize {
        self.global_ids.len()
    }

    pub fn n_edges(&self) -> usize {
        self.adj.nnz()
    }

    /// Bytes of the id map and the adjacency's arrays, by length: what a
    /// rank charges while it holds the graph.
    pub fn heap_bytes(&self) -> usize {
        self.global_ids.len() * std::mem::size_of::<u64>() + self.adj.heap_bytes()
    }

    /// Local index of a global vertex id.
    pub fn local_of(&self, global: u64) -> Option<usize> {
        self.global_ids.binary_search(&global).ok()
    }
}

/// Rank dictionary over the id universe `0..n`: which ids are present,
/// and how many present ids precede a given one.
struct RankDict {
    /// Bit `g % 64` of `words[g / 64]` is set when `g` is present.
    words: Vec<u64>,
    /// Present ids below `64 * k`, per word `k`.
    prefix: Vec<u32>,
    /// Present ids in all.
    len: u32,
}

impl RankDict {
    fn new(universe: usize, present: impl Iterator<Item = u32>) -> Self {
        let mut words = vec![0u64; universe.div_ceil(64)];
        for g in present {
            words[(g / 64) as usize] |= 1 << (g % 64);
        }
        let mut len = 0u32;
        let prefix = words
            .iter()
            .map(|word| {
                let below = len;
                len += word.count_ones();
                below
            })
            .collect();
        RankDict { words, prefix, len }
    }

    /// Position of the present id `g` among the present ids.
    #[inline]
    fn rank(&self, g: u32) -> u32 {
        let k = (g / 64) as usize;
        debug_assert!(self.words[k] >> (g % 64) & 1 == 1, "id {g} not present");
        self.prefix[k] + (self.words[k] & ((1 << (g % 64)) - 1)).count_ones()
    }

    /// The present ids, ascending.
    fn members(&self) -> Vec<u64> {
        let mut ids = Vec::with_capacity(self.len as usize);
        for (k, &word) in self.words.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                ids.push(k as u64 * 64 + u64::from(rest.trailing_zeros()));
                rest &= rest - 1;
            }
        }
        ids
    }

    fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
            + self.prefix.len() * std::mem::size_of::<u32>()
    }
}

/// Build each rank's induced subgraph (collective).
///
/// `labels` are [`crate::lacc::connected_components`]' labels: each
/// vertex's is its component's least vertex, so at most the vertex
/// itself (a label above its vertex panics). `owner_of_label` maps a
/// component label to the rank that will assemble it (components absent
/// from the map — e.g. singletons — are dropped).
pub fn induced_subgraph(
    grid: &ProcGrid,
    l: &DistMat<SgEdge>,
    labels: &DistVec<u64>,
    owner_of_label: &HashMap<u64, usize>,
) -> LocalGraph {
    let world = grid.world();
    let universe = l.nrows().max(l.ncols());
    assert!(
        u32::try_from(universe).is_ok(),
        "vertex ids are u32: read sets of 2^32 reads or more are refused at ingest"
    );
    // The row half of the Fig. 2 exchange, labels narrowed to `u32`.
    let narrow = |label: u64| u32::try_from(label).expect("a label is a vertex id");
    let chunk = labels.global_range(grid);
    let mine = U32Run::new(
        PerVertex::<1> {
            first: chunk.start as u32,
        },
        labels.local().iter().map(|&label| narrow(label)).collect(),
    );
    let row_labels = U32Run::concat(grid.row().allgather(mine)).into_values();
    let (row0, col0) = l.local_offsets(grid);
    let (row0, col0) = (row0 as u32, col0 as u32);
    let block = l.local();
    let mut outgoing: Vec<RoutedTriples<WalkEdge>> = (0..world.size())
        .map(|_| RoutedTriples::default())
        .collect();
    for (i, &label) in row_labels.iter().enumerate() {
        let (cols, edges) = block.row(i);
        if cols.is_empty() {
            continue;
        }
        if let Some(&dest) = owner_of_label.get(&u64::from(label)) {
            let u = row0 + i as u32;
            for (&c, &edge) in cols.iter().zip(edges) {
                outgoing[dest].push((u, col0 + c, edge.into()));
            }
        }
    }
    // Every edge buffer is charged while it lives: the routed triples
    // until the exchange completes, the received parts until they are
    // re-indexed, and the re-indexed triples until the builder has made
    // the CSR out of them.
    let triple_bytes = std::mem::size_of::<(u32, u32, WalkEdge)>();
    let routed = |parts: &[RoutedTriples<WalkEdge>]| -> usize {
        parts.iter().map(|part| part.triples().len()).sum()
    };
    let sent_charge = world.mem_charge(routed(&outgoing) * triple_bytes);
    let incoming = world.alltoallv(outgoing);
    let received = routed(&incoming);
    let received_charge = world.mem_charge(received * triple_bytes);
    drop(sent_charge);

    // Re-index to the new, smaller size, keeping the global-id map. A
    // vertex that appears only as a column still gets an id.
    let endpoints = incoming
        .iter()
        .flat_map(RoutedTriples::triples)
        .flat_map(|&(u, w, _)| [u, w]);
    let dict = RankDict::new(universe, endpoints);
    world.record_mem_transient(dict.heap_bytes());
    let global_ids = dict.members();
    let n = global_ids.len();
    let _ids_charge = world.mem_charge(n * std::mem::size_of::<u64>());
    let triples_charge = world.mem_charge(received * triple_bytes);
    let mut triples: Vec<(u32, u32, WalkEdge)> = Vec::with_capacity(received);
    for part in incoming {
        let part = part.into_triples().into_iter();
        triples.extend(part.map(|(u, w, edge)| (dict.rank(u), dict.rank(w), edge)));
    }
    drop(received_charge);
    // The same directed edge can only arrive once (it had one owner
    // block); an exact duplicate is tolerated and the first copy kept.
    let adj = Csr::from_triples(n, n, triples, |_, _duplicate| {});
    // The builder holds the triples and the CSR at once.
    world.record_mem_transient(adj.heap_bytes());
    drop(triples_charge);
    LocalGraph { global_ids, adj }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elba_comm::{Backend, Runner};

    /// An edge whose walk fields all derive from `tag`, so its payload
    /// is recognisable after the trip; `suffix` does not travel.
    fn edge(tag: u32) -> SgEdge {
        SgEdge {
            pre: tag,
            post: ((1 << 31) - 1) - tag,
            src_rev: tag & 1 == 1,
            dst_rev: tag & 2 == 2,
            suffix: tag + 1,
        }
    }

    /// Two chains 0-1-2 and 3-4; labels = min id; chain 0 → rank 0,
    /// chain 3 → last rank.
    fn setup(grid: &ProcGrid) -> (DistMat<SgEdge>, DistVec<u64>, HashMap<u64, usize>) {
        let chain_edges: Vec<(u64, u64)> = vec![(0, 1), (1, 2), (3, 4)];
        let triples: Vec<(u64, u64, SgEdge)> = if grid.world().rank() == 0 {
            chain_edges
                .iter()
                .flat_map(|&(a, b)| [(a, b, edge(1)), (b, a, edge(2))])
                .collect()
        } else {
            Vec::new()
        };
        let l = DistMat::from_triples(grid, 5, 5, triples, |_, _| unreachable!());
        let label_data: Vec<u64> = vec![0, 0, 0, 3, 3];
        let labels = DistVec::from_global(grid, &label_data);
        let mut owners = HashMap::new();
        owners.insert(0u64, 0usize);
        owners.insert(3u64, grid.world().size() - 1);
        (l, labels, owners)
    }

    #[test]
    fn components_land_whole_on_their_owner() {
        for p in [1usize, 4, 9] {
            let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                let grid = ProcGrid::new(comm);
                let (l, labels, owners) = setup(&grid);
                let local = induced_subgraph(&grid, &l, &labels, &owners);
                (
                    grid.world().rank(),
                    local.global_ids.clone(),
                    local.n_edges(),
                )
            });
            let last = p - 1;
            for (rank, ids, nedges) in &out {
                if p == 1 {
                    assert_eq!(ids, &vec![0, 1, 2, 3, 4]);
                    assert_eq!(*nedges, 6);
                } else if *rank == 0 {
                    assert_eq!(ids, &vec![0, 1, 2], "p={p}");
                    assert_eq!(*nedges, 4);
                } else if *rank == last {
                    assert_eq!(ids, &vec![3, 4], "p={p}");
                    assert_eq!(*nedges, 2);
                } else {
                    assert!(ids.is_empty(), "p={p} rank={rank}");
                }
            }
        }
    }

    #[test]
    fn local_reindexing_preserves_edge_payloads() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            let (l, labels, owners) = setup(&grid);
            let local = induced_subgraph(&grid, &l, &labels, &owners);
            if grid.world().rank() == 0 {
                // vertex 1 is local index 1; its row must hold edges
                // to 0 and 2, and edge 0 -> 1 the payload we created.
                let i0 = local.local_of(0).expect("vertex 0 present");
                let i1 = local.local_of(1).expect("vertex 1 present");
                let e01 = local.adj.get(i0, i1).expect("edge 0->1 stored");
                Some((local.adj.row_nnz(i1), e01.pre))
            } else {
                None
            }
        });
        assert_eq!(out[0], Some((2, 1)));
    }

    #[test]
    fn unassigned_components_are_dropped() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            let (l, labels, mut owners) = setup(&grid);
            owners.remove(&3); // second chain unassigned
            let local = induced_subgraph(&grid, &l, &labels, &owners);
            (grid.world().rank(), local.global_ids.clone())
        });
        for (rank, ids) in &out {
            if *rank == 0 {
                assert_eq!(ids, &vec![0, 1, 2]);
            } else {
                assert!(ids.is_empty());
            }
        }
    }

    /// The stage done serially from replicated inputs: keep the edges
    /// whose row label is assigned to `rank`, number the distinct
    /// endpoints in ascending order, and list the entries row-major.
    #[allow(clippy::type_complexity)]
    fn serial_oracle(
        edges: &[(u64, u64, SgEdge)],
        labels: &[u64],
        owners: &HashMap<u64, usize>,
        rank: usize,
    ) -> (Vec<u64>, Vec<(u32, u32, WalkEdge)>) {
        let mine: Vec<&(u64, u64, SgEdge)> = edges
            .iter()
            .filter(|&&(u, _, _)| owners.get(&labels[u as usize]) == Some(&rank))
            .collect();
        let mut ids: Vec<u64> = mine.iter().flat_map(|&&(u, w, _)| [u, w]).collect();
        ids.sort_unstable();
        ids.dedup();
        let local = |g: u64| ids.binary_search(&g).expect("endpoint numbered") as u32;
        let mut entries: Vec<(u32, u32, WalkEdge)> = mine
            .iter()
            .map(|&&(u, w, e)| (local(u), local(w), e.into()))
            .collect();
        entries.sort_by_key(|&(r, c, _)| (r, c));
        (ids, entries)
    }

    #[test]
    fn matches_the_serial_oracle_on_random_and_asymmetric_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(404);
        for trial in 0..12u32 {
            // Components are runs of consecutive ids, labelled by their
            // least vertex as connected components labels them; ids are
            // then shuffled so nothing is ordered.
            let n = rng.gen_range(5..60usize);
            let mut perm: Vec<u64> = (0..n as u64).collect();
            for i in (1..n).rev() {
                perm.swap(i, rng.gen_range(0..=i));
            }
            let mut labels = vec![0u64; n];
            let mut edges: Vec<(u64, u64, SgEdge)> = Vec::new();
            let mut start = 0usize;
            let mut components: Vec<u64> = Vec::new();
            while start < n {
                let len = rng.gen_range(1..8usize).min(n - start);
                let label = *perm[start..start + len].iter().min().expect("len ≥ 1");
                components.push(label);
                for v in start..start + len {
                    labels[perm[v] as usize] = label;
                    if v + 1 < start + len {
                        let (a, b) = (perm[v], perm[v + 1]);
                        edges.push((a, b, edge(edges.len() as u32)));
                        // Every third trial is asymmetric: some edges have
                        // no mirror, so the last vertex of a component may
                        // appear only as a column.
                        if trial % 3 != 0 || rng.gen_bool(0.5) {
                            edges.push((b, a, edge(edges.len() as u32)));
                        }
                    }
                }
                start += len;
            }
            for p in [1usize, 4, 9] {
                // Rank p − 1 is assigned nothing; one component in four is
                // assigned to nobody.
                let owners: HashMap<u64, usize> = components
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i % 4 != 3)
                    .map(|(i, &label)| (label, i % (p - 1).max(1)))
                    .collect();
                let (edges_in, labels_in, owners_in) =
                    (edges.clone(), labels.clone(), owners.clone());
                let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                    let grid = ProcGrid::new(comm);
                    let world = grid.world();
                    let share = |rank: usize| edges_in.len() * rank / world.size();
                    let mine = edges_in[share(world.rank())..share(world.rank() + 1)].to_vec();
                    let l = DistMat::from_triples(&grid, n, n, mine, |_, _| unreachable!());
                    let labels = DistVec::from_global(&grid, &labels_in);
                    let local = induced_subgraph(&grid, &l, &labels, &owners_in);
                    let entries: Vec<(u32, u32, WalkEdge)> =
                        local.adj.iter().map(|(r, c, &e)| (r, c, e)).collect();
                    (local.global_ids, local.adj.ncols(), entries)
                });
                for (rank, (ids, ncols, entries)) in out.into_iter().enumerate() {
                    let (want_ids, want_entries) = serial_oracle(&edges, &labels, &owners, rank);
                    assert_eq!(ids, want_ids, "trial {trial} p={p} rank={rank}: ids");
                    assert_eq!(ncols, want_ids.len());
                    assert_eq!(entries, want_entries, "trial {trial} p={p} rank={rank}");
                    if p > 1 && rank == p - 1 {
                        assert!(ids.is_empty() && entries.is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn column_only_vertex_still_gets_an_id() {
        // 0 → 1 → 2 with no edge back: vertex 2 has no row of its own.
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            let triples = if grid.world().rank() == 0 {
                vec![(0, 1, edge(7)), (1, 2, edge(8))]
            } else {
                Vec::new()
            };
            let l = DistMat::from_triples(&grid, 5, 5, triples, |_, _| unreachable!());
            let labels = DistVec::from_global(&grid, &[0u64, 0, 0, 3, 4]);
            let owners = HashMap::from([(0u64, 2usize)]);
            let local = induced_subgraph(&grid, &l, &labels, &owners);
            let at = |i: u64, j: u64| {
                let (i, j) = (local.local_of(i)?, local.local_of(j)?);
                local.adj.get(i, j).map(|e| e.pre)
            };
            (local.global_ids.clone(), at(0, 1), at(1, 2), at(2, 1))
        });
        assert_eq!(out[2], (vec![0, 1, 2], Some(7), Some(8), None));
        for rank in [0, 1, 3] {
            assert!(out[rank].0.is_empty(), "rank {rank} receives nothing");
        }
    }

    #[test]
    fn rank_dictionary_ranks_and_lists_members() {
        let present = [0u64, 1, 63, 64, 65, 127, 128, 300, 511];
        let ids = present.iter().map(|&g| g as u32);
        let dict = RankDict::new(512, ids.chain([64, 0]));
        assert_eq!(dict.members(), present);
        for (i, &g) in present.iter().enumerate() {
            assert_eq!(dict.rank(g as u32), i as u32, "rank of {g}");
        }
        assert_eq!(dict.heap_bytes(), 512 / 8 + 512 / 16);
        let empty = RankDict::new(0, std::iter::empty());
        assert!(empty.members().is_empty());
        assert!(RankDict::new(70, std::iter::empty()).members().is_empty());
    }

    #[test]
    fn degrees_match_paper_walk_precondition() {
        // After induction, every component must have exactly two degree-1
        // vertices (the roots) — the local-assembly invariant.
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            let (l, labels, owners) = setup(&grid);
            let local = induced_subgraph(&grid, &l, &labels, &owners);
            let roots = (0..local.n_vertices())
                .filter(|&j| local.adj.row_nnz(j) == 1)
                .count();
            (grid.world().rank(), local.n_vertices(), roots)
        });
        assert_eq!(out[0].2, 2); // chain of 3: two roots
        assert_eq!(out[3].2, 2); // chain of 2: both are roots
    }
}
