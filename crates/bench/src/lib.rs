//! # elba-bench — harnesses regenerating the paper's tables and figures
//!
//! Each `[[bench]]` target (harness = false) reruns one experiment of the
//! ICPP 2022 evaluation and prints the same rows/series the paper
//! reports. Absolute numbers differ (the substrate is an in-process
//! simulator on scaled datasets, not Cori/Summit), but the *shape* —
//! which phase dominates, who wins, how efficiency falls with P — is the
//! reproduction target; see EXPERIMENTS.md for the side-by-side.
//!
//! This library holds the shared machinery: dataset construction, the
//! measured pipeline runner, and the α–β projection onto the paper's
//! machine configurations.

use std::time::Instant;

use elba_comm::{Backend, Runner};
use elba_comm::{MachineModel, ProcGrid, RunProfile};
use elba_core::{assemble, Contig, PipelineConfig, PipelineResult};
use elba_seq::{DatasetSpec, Seq};

/// The paper's five Fig. 5 phases, in legend order.
pub const PAPER_PHASES: [&str; 5] = [
    "CountKmer",
    "DetectOverlap",
    "Alignment",
    "TrReduction",
    "ExtractContig",
];

/// The contig-stage sub-phases (§6.1 internal breakdown).
pub const CONTIG_PHASES: [&str; 5] = [
    "ExtractContig:BranchRemoval",
    "ExtractContig:ConnectedComponent",
    "ExtractContig:GreedyPartitioning",
    "ExtractContig:InducedSubgraph",
    "ExtractContig:LocalAssembly",
];

/// Outcome of one measured pipeline run.
pub struct MeasuredRun {
    pub nranks: usize,
    pub wall_secs: f64,
    pub profile: RunProfile,
    pub result: PipelineResult,
    pub contigs: Vec<Contig>,
}

/// Run the full pipeline on `nranks` in-process ranks and collect
/// everything the figure harnesses need.
pub fn run_pipeline(reads: &[Seq], cfg: &PipelineConfig, nranks: usize) -> MeasuredRun {
    let reads = reads.to_vec();
    let cfg = cfg.clone();
    let started = Instant::now();
    let (mut outputs, profile) =
        Runner::new(Backend::InProcess)
            .ranks(nranks)
            .run_profiled(move |comm| {
                let grid = ProcGrid::new(comm);
                let result = assemble(&grid, &reads, &cfg);
                let contigs = elba_core::gather_contigs(&grid, &result.local_contigs);
                (result, contigs)
            });
    let wall_secs = started.elapsed().as_secs_f64();
    let (result, contigs) = outputs.remove(0);
    MeasuredRun {
        nranks,
        wall_secs,
        profile,
        result,
        contigs,
    }
}

/// Materialize a dataset spec into `(genome, reads)`.
pub fn dataset(spec: &DatasetSpec) -> (Seq, Vec<Seq>) {
    let (genome, sim_reads) = spec.generate();
    (genome, sim_reads.into_iter().map(|r| r.seq).collect())
}

/// Sum of the paper phases' max-wall times — the pipeline time a strong
/// scaling plot reports (ignores I/O and harness overhead, as the paper
/// does: "we omit I/O and other minor computation").
pub fn pipeline_time(profile: &RunProfile) -> f64 {
    PAPER_PHASES
        .iter()
        .map(|phase| profile.max_wall(phase))
        .sum()
}

/// Project a measured run onto a machine model at the paper's node
/// counts; returns `(ranks, seconds)` series.
pub fn project_series(
    run: &MeasuredRun,
    model: &MachineModel,
    node_counts: &[usize],
) -> Vec<(usize, f64)> {
    let observations: Vec<_> = PAPER_PHASES
        .iter()
        .map(|phase| run.profile.observe(phase))
        .collect();
    node_counts
        .iter()
        .map(|&nodes| {
            let ranks = nodes * model.ranks_per_node;
            (ranks, model.project_total(&observations, run.nranks, ranks))
        })
        .collect()
}

/// Render a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Print a banner for a bench section.
pub fn banner(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

/// Rank counts measured in-process. Square numbers only (2D grid); the
/// host machine is small, so thread-backed ranks beyond the core count
/// measure correctness and communication structure rather than speedup —
/// the α–β projection supplies the scaling shape.
pub fn measured_rank_counts() -> Vec<usize> {
    vec![1, 4, 9, 16]
}

/// The paper's node counts for Figs. 4/5 (32 ranks each).
pub const PAPER_NODE_COUNTS: [usize; 5] = [18, 32, 50, 72, 128];
/// The paper's Summit node counts for Fig. 6 (H. sapiens).
pub const PAPER_NODE_COUNTS_HSAPIENS: [usize; 4] = [200, 288, 338, 392];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_pipeline_smoke() {
        let spec = DatasetSpec::celegans_like(0.04, 8);
        let (_genome, reads) = dataset(&spec);
        let cfg = PipelineConfig::for_dataset(&spec);
        let run = run_pipeline(&reads, &cfg, 4);
        assert!(run.wall_secs > 0.0);
        assert!(pipeline_time(&run.profile) > 0.0);
        assert_eq!(run.nranks, 4);
    }

    #[test]
    fn projection_series_has_requested_points() {
        let spec = DatasetSpec::celegans_like(0.04, 9);
        let (_genome, reads) = dataset(&spec);
        let cfg = PipelineConfig::for_dataset(&spec);
        let run = run_pipeline(&reads, &cfg, 4);
        let model = MachineModel::cori_haswell();
        let series = project_series(&run, &model, &PAPER_NODE_COUNTS);
        assert_eq!(series.len(), 5);
        assert!(series
            .iter()
            .all(|&(ranks, secs)| ranks % 32 == 0 && secs > 0.0));
    }
}
