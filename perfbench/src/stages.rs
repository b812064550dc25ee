//! The per-rank bodies of a repetition.
//!
//! An untraced pipeline repetition calls `assemble_gathered` itself (see
//! `run.rs`). The
//! traced repetition replays the same stage sequence `assemble` and
//! `contig_generation` compose — same public calls, same phase guards,
//! same memory charges, in the same order — with a bench-side span
//! around each call, so every layer is timed from outside. The replay is
//! held to the program by the contig-set hash: a traced repetition whose
//! contigs differ from the untraced ones fails.

use std::collections::HashMap;

use elba_align::SgEdge;
use elba_comm::ProcGrid;
use elba_core::{
    connected_components, contig_generation, gather_contigs, induced_subgraph, local_assembly,
    partition, AssemblyStats, Contig, ContigConfig, ContigStats, PipelineConfig,
};
use elba_graph::{
    align_and_classify, candidate_matrix, overlap_graph, symmetrize, transitive_reduction_with,
    AlignStats, ReductionStats,
};
use elba_seq::{build_a_triples_with_stats, count_kmers_with_stats, AEntry, ReadStore, Seq};
use elba_sparse::{DistMat, SpGemmOptions};

use crate::inputs::EdgeTriple;
use crate::trace::Recorder;

/// Overhang fuzz of the chain workload's reduction. Tiles are exact, so
/// any small value removes exactly the two- and three-stride edges.
const CHAIN_TR_FUZZ: u32 = 5;
const CHAIN_TR_MAX_ITERS: usize = 10;

/// Counts the stage calls return, as seen by one rank. Global counts
/// read the same on every rank; `a_cols` and `exchange_peak_bytes` are
/// this rank's share.
#[derive(Debug, Clone, Default)]
pub struct StageCounts {
    /// Column (k-mer id) of every A-matrix triple this rank produced.
    pub a_cols: Vec<u64>,
    pub exchange_peak_bytes: usize,
    pub reliable_kmers: u64,
    pub candidate_nnz: u64,
    pub string_graph_nnz: u64,
    pub align: AlignStats,
    pub reduction: Option<ReductionStats>,
    pub contig: ContigStats,
}

/// Traced pipeline repetition: `assemble` + `gather_contigs`, replayed
/// call by call. Memory budgets are not replayed; no workload sets one.
pub fn assemble_traced(
    grid: &ProcGrid,
    reads: &[Seq],
    cfg: &PipelineConfig,
    rec: &Recorder,
) -> (Vec<Contig>, StageCounts) {
    assert!(
        !cfg.mem_budget.is_limited(),
        "the traced replay does not derive budgeted batch sizes"
    );
    let world = grid.world();
    let n_reads = reads.len();
    let mut counts = StageCounts::default();
    let store = rec.span("seq.read_store", || ReadStore::from_replicated(grid, reads));

    let table = {
        let _g = world.phase("CountKmer");
        let (table, stats) = rec.span("seq.count_kmers", || {
            count_kmers_with_stats(grid, &store, &cfg.kmer)
        });
        counts.exchange_peak_bytes = stats.peak_bytes();
        table
    };
    counts.reliable_kmers = table.n_global;

    let (c, _c_charge) = {
        let _g = world.phase("DetectOverlap");
        let (triples, stats) = rec.span("seq.build_a_triples", || {
            build_a_triples_with_stats(grid, &store, &table, &cfg.kmer)
        });
        counts.exchange_peak_bytes = counts.exchange_peak_bytes.max(stats.peak_bytes());
        counts.a_cols = triples.iter().map(|&(_, col, _)| col).collect();
        let a = rec.span("sparse.from_triples", || {
            DistMat::from_triples(
                grid,
                n_reads,
                table.n_global as usize,
                triples,
                |acc: &mut AEntry, v| {
                    if v.pos < acc.pos {
                        *acc = v;
                    }
                },
            )
        });
        let _a_charge = world.mem_charge_shared(a.local_arc(), a.deep_heap_bytes());
        let c = rec.span("graph.candidate_matrix", || {
            candidate_matrix(grid, &a, &cfg.overlap)
        });
        let c_charge = world.mem_charge_shared(c.local_arc(), c.deep_heap_bytes());
        (c, c_charge)
    };
    counts.candidate_nnz = c.nnz_global(grid);

    let (r, _r_charge) = {
        let _g = world.phase("Alignment");
        let (triples, contained, align_stats) = rec.span("graph.align_and_classify", || {
            align_and_classify(grid, &c, &store, &cfg.overlap)
        });
        counts.align = align_stats;
        let r = rec.span("graph.overlap_graph", || {
            overlap_graph(grid, n_reads, triples, &contained)
        });
        let r_charge = world.mem_charge_shared(r.local_arc(), r.deep_heap_bytes());
        (r, r_charge)
    };
    drop(c);
    drop(_c_charge);

    let (s, _s_charge) = {
        let _g = world.phase("TrReduction");
        drop(_r_charge);
        let s = reduce(
            grid,
            r,
            cfg.tr_fuzz,
            cfg.tr_max_iters,
            &cfg.overlap.spgemm,
            rec,
            &mut counts,
        );
        let s_charge = world.mem_charge_shared(s.local_arc(), s.deep_heap_bytes());
        (s, s_charge)
    };
    counts.string_graph_nnz = s.nnz_global(grid);

    let local = {
        let _g = world.phase("ExtractContig");
        let (local, stats) = contig_generation_traced(grid, &s, &store, &cfg.contig, rec);
        counts.contig = stats;
        local
    };
    let contigs = rec.span("core.gather_contigs", || gather_contigs(grid, &local));
    (contigs, counts)
}

/// `transitive_reduction_with` then `symmetrize`, one span each.
fn reduce(
    grid: &ProcGrid,
    r: DistMat<SgEdge>,
    fuzz: u32,
    max_iters: usize,
    opts: &SpGemmOptions,
    rec: &Recorder,
    counts: &mut StageCounts,
) -> DistMat<SgEdge> {
    let (s, stats) = rec.span("graph.tr", || {
        transitive_reduction_with(grid, r, fuzz, max_iters, opts)
    });
    counts.reduction = Some(stats);
    rec.span("graph.symmetrize", || symmetrize(grid, s))
}

/// The chain workload's repetition, traced or not: build the store and
/// the overlap matrix from the in-memory reads and triples (each rank
/// contributes an equal slice), then Algorithm 2 — reduction,
/// symmetrization, contig generation, gather. Untraced it calls
/// `contig_generation` itself; traced it replays its steps.
pub fn chains(
    grid: &ProcGrid,
    reads: &[Seq],
    triples: &[EdgeTriple],
    threads: usize,
    rec: &Recorder,
) -> (Vec<Contig>, StageCounts) {
    let world = grid.world();
    let n = reads.len();
    let mut counts = StageCounts::default();
    let store = rec.span("seq.read_store", || ReadStore::from_replicated(grid, reads));
    let share = |rank: usize| triples.len() * rank / world.size();
    let mine = triples[share(world.rank())..share(world.rank() + 1)].to_vec();
    let r = rec.span("sparse.from_triples", || {
        DistMat::from_triples(grid, n, n, mine, |_, _| {})
    });
    let s = {
        let _g = world.phase("TrReduction");
        let opts = SpGemmOptions::default().with_threads(threads);
        reduce(
            grid,
            r,
            CHAIN_TR_FUZZ,
            CHAIN_TR_MAX_ITERS,
            &opts,
            rec,
            &mut counts,
        )
    };
    counts.string_graph_nnz = s.nnz_global(grid);
    let mut cfg = ContigConfig::default();
    cfg.assembly.threads = threads;
    let local = {
        let _g = world.phase("ExtractContig");
        let (local, stats) = if rec.enabled() {
            contig_generation_traced(grid, &s, &store, &cfg, rec)
        } else {
            contig_generation(grid, &s, &store, &cfg)
        };
        counts.contig = stats;
        local
    };
    let contigs = rec.span("core.gather_contigs", || gather_contigs(grid, &local));
    (contigs, counts)
}

/// `contig_generation` (Algorithm 2) replayed step by step under a
/// `core.contig_generation` parent span. Everything between the public
/// calls — the degree threshold, the size gather, the LPT hand-off, the
/// statistics — follows `crates/core/src/contig.rs`.
fn contig_generation_traced(
    grid: &ProcGrid,
    s: &DistMat<SgEdge>,
    store: &ReadStore,
    cfg: &ContigConfig,
    rec: &Recorder,
) -> (Vec<Contig>, ContigStats) {
    rec.span("core.contig_generation", || {
        let world = grid.world();
        let mut stats = ContigStats::default();

        let l = {
            let _g = world.phase("ExtractContig:BranchRemoval");
            rec.span("core.branch_removal", || {
                let degrees = s.row_degrees(grid);
                let branch_mask = degrees.map(grid, |_, &d| d >= 3);
                stats.branch_vertices = world.allreduce(
                    branch_mask.local().iter().filter(|&&b| b).count() as u64,
                    |a, b| a + b,
                );
                s.clone().mask_rows_cols(grid, &branch_mask)
            })
        };

        let labels = {
            let _g = world.phase("ExtractContig:ConnectedComponent");
            let cc = rec.span("core.connected_components", || {
                connected_components(grid, &l)
            });
            stats.cc_rounds = cc.rounds;
            cc.labels
        };

        let owner_of_label: HashMap<u64, usize> = {
            let _g = world.phase("ExtractContig:GreedyPartitioning");
            rec.span("core.partition", || {
                let degrees = l.row_degrees(grid);
                let mut local_sizes: HashMap<u64, u64> = HashMap::new();
                for (&label, &deg) in labels.local().iter().zip(degrees.local()) {
                    if deg >= 1 {
                        *local_sizes.entry(label).or_insert(0) += 1;
                    }
                }
                let pairs: Vec<(u64, u64)> = local_sizes.into_iter().collect();
                let gathered = world.gather(0, pairs);
                let assignment: Vec<(u64, u64)> = if world.rank() == 0 {
                    let mut sizes: HashMap<u64, u64> = HashMap::new();
                    for (label, count) in gathered.expect("rank 0 gathers").into_iter().flatten() {
                        *sizes.entry(label).or_insert(0) += count;
                    }
                    let mut entries: Vec<(u64, u64)> = sizes.into_iter().collect();
                    entries.sort_unstable();
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
            })
        };

        let (local_graph, local_store) = {
            let _g = world.phase("ExtractContig:InducedSubgraph");
            rec.span("core.induced_subgraph", || {
                let local_graph = induced_subgraph(grid, &l, &labels, &owner_of_label);
                let my_range = labels.global_range(grid);
                let label_chunk = labels.local().to_vec();
                let local_store = rec.span("seq.read_exchange", || {
                    store.exchange(
                        grid,
                        |id| {
                            let offset = id as usize - my_range.start;
                            match owner_of_label.get(&label_chunk[offset]) {
                                Some(&rank) => vec![rank],
                                None => Vec::new(),
                            }
                        },
                        cfg.count_limit,
                    )
                });
                (local_graph, local_store)
            })
        };

        let contigs = {
            let _g = world.phase("ExtractContig:LocalAssembly");
            rec.span("core.local_assembly", || {
                let (contigs, astats) = local_assembly(&local_graph, &local_store, &cfg.assembly);
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
            })
        };

        (contigs, stats)
    })
}
