//! One repetition: a fresh `Runner` run of a workload's inputs, timed
//! around the `Runner` call.

use std::sync::Arc;
use std::time::Instant;

use elba_comm::{Backend, Comm, ProcGrid, RunProfile, Runner};
use elba_core::{assemble_gathered, Contig};

use crate::inputs::Inputs;
use crate::stages::{assemble_traced, chains, StageCounts};
use crate::trace::{Recorder, Span, Trace};

/// How a repetition is laid out on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    pub ranks: usize,
    pub threads: usize,
    pub backend: Backend,
}

pub struct Repetition {
    /// Inputs in memory → gathered contigs on rank 0.
    pub wall_s: f64,
    pub contigs: Vec<Contig>,
    pub profile: RunProfile,
    /// Bench-side spans per rank; empty for an untraced repetition.
    pub trace: Trace,
    /// Stage counts per rank; left at their defaults by an untraced
    /// pipeline repetition, which only keeps the contigs.
    pub counts: Vec<StageCounts>,
}

type RankOutput = (Option<Vec<Contig>>, Vec<Span>, StageCounts);

/// Every rank computes the gathered set; only rank 0's is kept.
fn finish(rank: usize, contigs: Vec<Contig>, counts: StageCounts, rec: Recorder) -> RankOutput {
    ((rank == 0).then_some(contigs), rec.into_spans(), counts)
}

fn grid_of(comm: Comm, rec: &Recorder) -> ProcGrid {
    rec.span("comm.grid", || ProcGrid::new(comm))
}

/// Run `inputs` once on `layout`. A rank that panics or raises a typed
/// communication error surfaces as `Err`, never as a panic here.
pub fn repetition(inputs: &Inputs, layout: Layout, traced: bool) -> Result<Repetition, String> {
    let runner = Runner::new(layout.backend).ranks(layout.ranks);
    let epoch = Instant::now();
    let outcome = match inputs {
        Inputs::Reads(r) => {
            let reads = Arc::clone(&r.reads);
            let cfg = r.cfg.clone().with_threads(layout.threads);
            runner.try_run_profiled(move |comm| {
                let rank = comm.rank();
                let rec = Recorder::new(epoch, rank, traced);
                let grid = grid_of(comm, &rec);
                let (contigs, counts) = if traced {
                    assemble_traced(&grid, &reads, &cfg, &rec)
                } else {
                    (
                        assemble_gathered(&grid, &reads, &cfg).0,
                        StageCounts::default(),
                    )
                };
                finish(rank, contigs, counts, rec)
            })
        }
        Inputs::Chains(c) => {
            let reads = Arc::clone(&c.reads);
            let triples = Arc::clone(&c.triples);
            runner.try_run_profiled(move |comm| {
                let rank = comm.rank();
                let rec = Recorder::new(epoch, rank, traced);
                let grid = grid_of(comm, &rec);
                let (contigs, counts) = chains(&grid, &reads, &triples, layout.threads, &rec);
                finish(rank, contigs, counts, rec)
            })
        }
    };
    let wall_s = epoch.elapsed().as_secs_f64();
    let (outputs, profile) = outcome.map_err(|failure| failure.to_string())?;
    let mut contigs = Vec::new();
    let mut trace = Trace::default();
    let mut counts = Vec::new();
    for (rank_contigs, spans, rank_counts) in outputs {
        contigs.extend(rank_contigs.into_iter().flatten());
        trace.ranks.push(spans);
        counts.push(rank_counts);
    }
    Ok(Repetition {
        wall_s,
        contigs,
        profile,
        trace,
        counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{ChainSpec, Dataset, InputSpec};
    use crate::verify::{contig_set_hash, evaluate, wire_bytes_per_rank};

    fn in_process(ranks: usize) -> Layout {
        Layout {
            ranks,
            threads: 1,
            backend: Backend::InProcess,
        }
    }

    fn tiny_chains(false_edges: usize) -> Inputs {
        InputSpec::Chains(ChainSpec {
            chromosomes: 6,
            reads_per_chromosome: 9,
            read_len: 80,
            stride: 20,
            false_edges,
        })
        .generate(3)
    }

    #[test]
    fn tiny_chain_graph_reproduces_every_chromosome_on_1_and_4_ranks() {
        let inputs = tiny_chains(0);
        for ranks in [1, 4] {
            let rep = repetition(&inputs, in_process(ranks), true).expect("runs");
            let quality = evaluate(&inputs, &rep.contigs);
            assert_eq!(quality.completeness_pct, 100.0, "p={ranks}");
            assert_eq!(
                (quality.n_contigs, quality.reference_mismatches),
                (6, 0),
                "p={ranks}"
            );
            // Per chromosome 8 + 7 + 6 read pairs one, two and three
            // strides apart, stored in both directions: reduction
            // removes exactly the two- and three-stride edges.
            let reduction = rep.counts[0].reduction.expect("reduction ran");
            assert_eq!(reduction.removed, 6 * 2 * (7 + 6), "p={ranks}");
            assert_eq!(rep.counts[0].string_graph_nnz, 6 * 2 * 8, "p={ranks}");
            assert_eq!(rep.counts[0].contig.branch_vertices, 0);
        }
    }

    #[test]
    fn false_edges_become_branch_vertices_and_split_chromosomes_as_predicted() {
        let inputs = tiny_chains(2);
        let untraced = repetition(&inputs, in_process(4), false).expect("runs");
        let traced = repetition(&inputs, in_process(4), true).expect("runs");
        assert_eq!(
            contig_set_hash(&untraced.contigs),
            contig_set_hash(&traced.contigs),
            "the replayed contig stage must assemble what contig_generation does"
        );
        assert_eq!(traced.counts[0].contig.branch_vertices, 4);
        let quality = evaluate(&inputs, &untraced.contigs);
        assert_eq!(quality.reference_mismatches, 0);
        assert!(quality.completeness_pct < 100.0);
        assert!(untraced.trace.ranks.iter().all(Vec::is_empty));
        assert!(traced.trace.coverage(traced.wall_s) > 0.0);
    }

    #[test]
    fn traced_pipeline_replay_matches_assemble_in_contigs_and_wire_bytes() {
        let inputs = InputSpec::Reads {
            dataset: Dataset::CelegansLike,
            scale: 0.1,
            chromosomes: 1,
            greedy: true,
        }
        .generate(7);
        let untraced = repetition(&inputs, in_process(4), false).expect("runs");
        let traced = repetition(&inputs, in_process(4), true).expect("runs");
        assert!(!untraced.contigs.is_empty(), "scale too small to assemble");
        assert_eq!(
            contig_set_hash(&untraced.contigs),
            contig_set_hash(&traced.contigs)
        );
        assert_eq!(
            wire_bytes_per_rank(&untraced.profile),
            wire_bytes_per_rank(&traced.profile)
        );
        assert_eq!(traced.counts.len(), 4);
        assert!(traced.counts[0].align.candidate_pairs > 0);
        assert!(traced.trace.self_s("graph.align_and_classify") > 0.0);
    }
}
