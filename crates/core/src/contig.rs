//! Distributed contig generation (Algorithm 2) — ELBA's core
//! contribution.
//!
//! ```text
//! 1: L    ← BranchRemoval(S)        degree vector + mask rows/cols ≥ 3
//! 2: v    ← ConnectedComponent(L)   LACC-style hook & shortcut
//! 3: p    ← GreedyPartitioning(v,P) sizes → LPT on one rank → bcast
//! 4: P    ← InducedSubgraph(L, p)   Fig. 2 exchange + custom all-to-all
//! 5: cset ← LocalAssembly(P, seqs)  per-rank linear walks
//! ```
//!
//! Phase timings are booked under `ExtractContig:*` sub-phases so the
//! Fig. 5 breakdown (and the §6.1 claim that the induced subgraph is
//! 65–85 % of contig time) can be measured directly.

use std::collections::HashMap;

use elba_align::SgEdge;
use elba_comm::ProcGrid;
use elba_seq::ReadStore;
use elba_sparse::DistMat;

use crate::assembly::{local_assembly, AssemblyConfig, AssemblyStats, Contig};
use crate::induced::induced_subgraph;
use crate::lacc::connected_components;
use crate::partition::{partition, PartitionStrategy};

/// Parameters of the contig stage.
#[derive(Debug, Clone)]
pub struct ContigConfig {
    pub strategy: PartitionStrategy,
    pub assembly: AssemblyConfig,
    /// Simulated MPI element-count limit for the sequence exchange, in
    /// packed bytes (four bases each).
    pub count_limit: usize,
}

impl Default for ContigConfig {
    fn default() -> Self {
        ContigConfig {
            strategy: PartitionStrategy::Lpt,
            assembly: AssemblyConfig::default(),
            count_limit: elba_seq::store::MPI_COUNT_LIMIT,
        }
    }
}

/// Statistics of one contig-generation run (globally reduced).
#[derive(Debug, Clone, Default)]
pub struct ContigStats {
    /// Branch vertices masked out of `S`.
    pub branch_vertices: u64,
    /// Linear components of ≥ 2 reads (the paper's contig count `n`).
    pub n_components: u64,
    /// Reads participating in some contig.
    pub reads_in_contigs: u64,
    /// Rounds the connected-components iteration needed.
    pub cc_rounds: usize,
    /// Load-balance quality of the chosen partitioning.
    pub makespan: u64,
    pub imbalance: f64,
    /// Largest contig, in reads.
    pub largest_component: u64,
    /// Per-rank local assembly outcome, globally summed.
    pub assembly: AssemblyStats,
}

/// Run contig generation on the string matrix `S` (collective). Returns
/// this rank's locally assembled contigs plus global statistics.
pub fn contig_generation(
    grid: &ProcGrid,
    s: &DistMat<SgEdge>,
    store: &ReadStore,
    cfg: &ContigConfig,
) -> (Vec<Contig>, ContigStats) {
    let world = grid.world();
    let mut stats = ContigStats::default();

    // --- BranchRemoval (Algorithm 2, line 2) ---------------------------
    let l = {
        let _g = world.phase("ExtractContig:BranchRemoval");
        let degrees = s.row_degrees(grid);
        let branch_mask = degrees.map(grid, |_, &d| d >= 3);
        stats.branch_vertices = world.allreduce(
            branch_mask.local().iter().filter(|&&b| b).count() as u64,
            |a, b| a + b,
        );
        s.clone().mask_rows_cols(grid, &branch_mask)
    };

    // --- ConnectedComponent (line 3) ------------------------------------
    let labels = {
        let _g = world.phase("ExtractContig:ConnectedComponent");
        let cc = connected_components(grid, &l);
        stats.cc_rounds = cc.rounds;
        cc.labels
    };

    // --- GreedyPartitioning (line 4) -------------------------------------
    let owner_of_label: HashMap<u64, usize> = {
        let _g = world.phase("ExtractContig:GreedyPartitioning");
        // Estimate contig sizes: count this rank's vertices per label,
        // only for vertices that still carry an edge.
        let degrees = l.row_degrees(grid);
        let mut local_sizes: HashMap<u64, u64> = HashMap::new();
        for (&label, &deg) in labels.local().iter().zip(degrees.local()) {
            if deg >= 1 {
                *local_sizes.entry(label).or_insert(0) += 1;
            }
        }
        // Collect global sizes on one rank (the paper gathers contig
        // lengths on a single processor because n ≪ reads), run LPT,
        // broadcast the assignment p to the whole grid.
        let pairs: Vec<(u64, u64)> = local_sizes.into_iter().collect();
        let gathered = world.gather(0, pairs);
        let assignment: Vec<(u64, u64)> = if world.rank() == 0 {
            let mut sizes: HashMap<u64, u64> = HashMap::new();
            for (label, count) in gathered.expect("rank 0 gathers").into_iter().flatten() {
                *sizes.entry(label).or_insert(0) += count;
            }
            let mut entries: Vec<(u64, u64)> = sizes.into_iter().collect();
            entries.sort_unstable(); // determinism
            let size_vec: Vec<u64> = entries.iter().map(|&(_, s)| s).collect();
            let part = partition(&size_vec, world.size(), cfg.strategy);
            stats.makespan = part.makespan();
            stats.imbalance = part.imbalance();
            stats.largest_component = size_vec.iter().copied().max().unwrap_or(0);
            stats.n_components = entries.len() as u64;
            stats.reads_in_contigs = size_vec.iter().sum();
            entries
                .iter()
                .zip(&part.assignment)
                .map(|(&(label, _), &rank)| (label, rank as u64))
                .collect()
        } else {
            Vec::new()
        };
        let assignment = world.bcast(0, (world.rank() == 0).then_some(assignment));
        // Broadcast the scalar stats too so every rank reports them.
        let scalars = world.bcast(
            0,
            (world.rank() == 0).then(|| {
                vec![
                    stats.makespan,
                    stats.largest_component,
                    stats.n_components,
                    stats.reads_in_contigs,
                    stats.imbalance.to_bits(),
                ]
            }),
        );
        stats.makespan = scalars[0];
        stats.largest_component = scalars[1];
        stats.n_components = scalars[2];
        stats.reads_in_contigs = scalars[3];
        stats.imbalance = f64::from_bits(scalars[4]);
        assignment
            .into_iter()
            .map(|(label, rank)| (label, rank as usize))
            .collect()
    };

    // --- InducedSubgraph + sequence redistribution (line 5) -------------
    let (local_graph, _graph_charge, local_store) = {
        let _g = world.phase("ExtractContig:InducedSubgraph");
        let local_graph = induced_subgraph(grid, &l, &labels, &owner_of_label);
        // The graph stays resident until local assembly has walked it.
        let graph_charge = world.mem_charge(local_graph.heap_bytes());
        // Reads follow their contig: the rank holding vector chunk entry
        // `id` also holds read `id` (aligned layouts), so it knows the
        // destination of each of its reads.
        let my_range = labels.global_range(grid);
        let local_store = store.exchange(
            grid,
            |id| {
                let label = labels.local()[id as usize - my_range.start];
                owner_of_label.get(&label).copied()
            },
            cfg.count_limit,
        );
        (local_graph, graph_charge, local_store)
    };

    // --- LocalAssembly (line 6) ------------------------------------------
    let contigs = {
        let _g = world.phase("ExtractContig:LocalAssembly");
        let (contigs, astats) = local_assembly(&local_graph, &local_store, &cfg.assembly);
        world.record_par_time(elba_par::take_par_secs());
        let summed = world.allreduce(
            vec![
                astats.contigs as u64,
                astats.cycles as u64,
                astats.reads_used as u64,
                astats.orientation_breaks as u64,
            ],
            |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect(),
        );
        stats.assembly = AssemblyStats {
            contigs: summed[0] as usize,
            cycles: summed[1] as usize,
            reads_used: summed[2] as usize,
            orientation_breaks: summed[3] as usize,
        };
        contigs
    };

    (contigs, stats)
}

/// Gather every rank's contigs onto all ranks (sorted longest-first, then
/// lexicographically for determinism).
///
/// Contigs travel one byte per base, unlike reads: this gather runs
/// outside the named phases, so packing would save no profiled byte, and
/// every rank would unpack every contig.
pub fn gather_contigs(grid: &ProcGrid, local: &[Contig]) -> Vec<Contig> {
    let packed: Vec<(Vec<u8>, Vec<u64>, bool)> = local
        .iter()
        .map(|c| (c.seq.codes().to_vec(), c.read_ids.clone(), c.circular))
        .collect();
    let mut all: Vec<Contig> = grid
        .world()
        .allgather(packed)
        .into_iter()
        .flatten()
        .map(|(codes, read_ids, circular)| Contig {
            seq: elba_seq::Seq::from_codes(codes),
            read_ids,
            circular,
        })
        .collect();
    all.sort_by(|a, b| {
        b.seq
            .len()
            .cmp(&a.seq.len())
            .then_with(|| a.read_ids.cmp(&b.read_ids))
    });
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use elba_comm::{Backend, Runner};
    use elba_seq::Seq;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn genome(len: usize, seed: u64) -> Seq {
        let mut rng = StdRng::seed_from_u64(seed);
        Seq::from_codes((0..len).map(|_| rng.gen_range(0..4u8)).collect())
    }

    /// Build the exact string matrix + read store for reads tiling a
    /// genome (adjacent reads overlap; no errors; mixed strands).
    fn exact_string_graph(
        grid: &ProcGrid,
        g: &Seq,
        read_len: usize,
        stride: usize,
        seed: u64,
    ) -> (DistMat<SgEdge>, ReadStore, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reads = Vec::new();
        let mut strands = Vec::new();
        let mut start = 0;
        while start + read_len <= g.len() {
            let rc = rng.gen_bool(0.5);
            let r = g.substring(start, start + read_len);
            reads.push(if rc { r.reverse_complement() } else { r });
            strands.push(rc);
            start += stride;
        }
        let n = reads.len();
        let store = ReadStore::from_replicated(grid, &reads);
        let overlap = read_len - stride;
        let triples: Vec<(u64, u64, SgEdge)> = if grid.world().rank() == 0 {
            let mut t = Vec::new();
            for i in 0..n - 1 {
                let rc = strands[i] != strands[i + 1];
                let aln = if !strands[i] {
                    elba_align::OverlapAln {
                        rc,
                        u_beg: stride,
                        u_end: read_len - 1,
                        w_beg: 0,
                        w_end: overlap - 1,
                        u_len: read_len,
                        v_len: read_len,
                        score: overlap as i32,
                    }
                } else {
                    elba_align::OverlapAln {
                        rc,
                        u_beg: 0,
                        u_end: overlap - 1,
                        w_beg: stride,
                        w_end: read_len - 1,
                        u_len: read_len,
                        v_len: read_len,
                        score: overlap as i32,
                    }
                };
                let (fwd, bwd) = elba_align::dovetail_edges(&aln);
                t.push((i as u64, (i + 1) as u64, fwd));
                t.push(((i + 1) as u64, i as u64, bwd));
            }
            t
        } else {
            Vec::new()
        };
        let s = DistMat::from_triples(grid, n, n, triples, |_, _| unreachable!());
        (s, store, n)
    }

    #[test]
    fn single_chain_assembles_to_genome() {
        for p in [1usize, 4, 9] {
            let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                let grid = ProcGrid::new(comm);
                let g = genome(750, 21); // 7 reads of 150 at stride 100 tile it exactly
                let (s, store, n) = exact_string_graph(&grid, &g, 150, 100, 5);
                let cfg = ContigConfig::default();
                let (local, stats) = contig_generation(&grid, &s, &store, &cfg);
                let all = gather_contigs(&grid, &local);
                (all.len(), all[0].seq.clone(), stats.n_components, n, g)
            });
            let (n_contigs, seq, n_components, _n, g) = &out[0];
            assert_eq!(*n_contigs, 1, "p={p}");
            assert_eq!(*n_components, 1);
            assert!(
                seq == g || *seq == g.reverse_complement(),
                "p={p}: contig len {} genome len {}",
                seq.len(),
                g.len()
            );
        }
    }

    #[test]
    fn branch_vertex_splits_contigs() {
        // Chain 0-1-2-3-4-5 plus a spurious edge 2-5: vertex 2 reaches
        // degree 3 (a branch) while 5 stays at degree 2. Masking vertex 2
        // leaves chains {0,1} and {3,4,5}.
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            let g = genome(650, 33); // 6 reads: vertices 0..=5 exist
            let (s, store, _) = exact_string_graph(&grid, &g, 150, 100, 7);
            // add a spurious symmetric edge 2-5 (repeat-like)
            let e = SgEdge {
                pre: 99,
                post: 0,
                src_rev: false,
                dst_rev: false,
                suffix: 100,
            };
            let extra = if grid.world().rank() == 0 {
                vec![(2u64, 5u64, e), (5u64, 2u64, e)]
            } else {
                Vec::new()
            };
            let merged: Vec<(u64, u64, SgEdge)> = s
                .gather_triples(&grid)
                .into_iter()
                .chain(if grid.world().rank() == 0 {
                    extra
                } else {
                    Vec::new()
                })
                .collect();
            let merged = if grid.world().rank() == 0 {
                merged
            } else {
                Vec::new()
            };
            let s2 = DistMat::from_triples(&grid, s.nrows(), s.ncols(), merged, |a, _| {
                let _ = a;
            });
            let cfg = ContigConfig::default();
            let (local, stats) = contig_generation(&grid, &s2, &store, &cfg);
            let all = gather_contigs(&grid, &local);
            (
                stats.branch_vertices,
                all.iter().map(|c| c.read_ids.len()).collect::<Vec<_>>(),
            )
        });
        let (branches, contig_sizes) = &out[0];
        assert_eq!(*branches, 1);
        let mut sizes = contig_sizes.clone();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 3]);
    }

    #[test]
    fn load_balancing_spreads_contigs() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            // three separate genomes → three contigs
            let mut reads = Vec::new();
            let mut triples = Vec::new();
            let mut base = 0u64;
            for chunk in 0..3u64 {
                let g = genome(500, 40 + chunk);
                let mut start = 0;
                let mut ids = Vec::new();
                while start + 150 <= g.len() {
                    reads.push(g.substring(start, start + 150));
                    ids.push(base + ids.len() as u64);
                    start += 100;
                }
                if grid.world().rank() == 0 {
                    for w in ids.windows(2) {
                        let aln = elba_align::OverlapAln {
                            rc: false,
                            u_beg: 100,
                            u_end: 149,
                            w_beg: 0,
                            w_end: 49,
                            u_len: 150,
                            v_len: 150,
                            score: 50,
                        };
                        let (fwd, bwd) = elba_align::dovetail_edges(&aln);
                        triples.push((w[0], w[1], fwd));
                        triples.push((w[1], w[0], bwd));
                    }
                }
                base += ids.len() as u64;
            }
            let n = reads.len();
            let store = ReadStore::from_replicated(&grid, &reads);
            let s = DistMat::from_triples(&grid, n, n, triples, |_, _| unreachable!());
            let cfg = ContigConfig::default();
            let (local, stats) = contig_generation(&grid, &s, &store, &cfg);
            (local.len(), stats.n_components, stats.imbalance)
        });
        let total: usize = out.iter().map(|&(n, _, _)| n).sum();
        assert_eq!(total, 3);
        assert_eq!(out[0].1, 3);
        // three equal contigs on four ranks: no rank gets two
        assert!(out.iter().all(|&(n, _, _)| n <= 1));
    }

    #[test]
    fn determinism_across_rank_counts() {
        let mut results: Vec<Vec<String>> = Vec::new();
        for p in [1usize, 4, 9] {
            let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                let grid = ProcGrid::new(comm);
                let g = genome(850, 55); // 8 reads tile it exactly
                let (s, store, _) = exact_string_graph(&grid, &g, 150, 100, 9);
                let cfg = ContigConfig::default();
                let (local, _) = contig_generation(&grid, &s, &store, &cfg);
                let all = gather_contigs(&grid, &local);
                all.iter()
                    .map(|c| {
                        // canonicalize strand for comparison
                        let fwd = c.seq.to_string();
                        let rc = c.seq.reverse_complement().to_string();
                        if fwd <= rc {
                            fwd
                        } else {
                            rc
                        }
                    })
                    .collect::<Vec<String>>()
            });
            results.push(out.into_iter().next().expect("rank 0 output"));
        }
        assert_eq!(results[0], results[1], "P=1 vs P=4");
        assert_eq!(results[1], results[2], "P=4 vs P=9");
    }
}
