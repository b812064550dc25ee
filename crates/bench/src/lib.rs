//! # elba-bench — the paper's evaluation as one program
//!
//! `cargo bench -p elba-bench --bench figures -- [NAME]…` reruns the
//! experiments of the ICPP 2022 evaluation ([`figures::FIGURES`]: Tables
//! 1–4, Figs. 4–6, the §4.3 partitioning ablation) and prints the same
//! rows/series the paper reports. Absolute numbers differ (the substrate
//! is an in-process simulator on scaled datasets, not Cori/Summit), but
//! the *shape* — which phase dominates, who wins, how efficiency falls
//! with P — is the reproduction target.
//!
//! This library holds what the sections share: dataset construction, the
//! measured pipeline runner, the α–β projection onto the paper's machine
//! configurations ([`model`]), and the one table printer.

pub mod figures;
pub mod model;

use std::io::{self, Write};
use std::time::Instant;

use elba_comm::{Backend, ProcGrid, RunProfile, Runner};
use elba_core::{assemble_gathered, Contig, PipelineConfig};
use elba_seq::{DatasetSpec, Seq};

use model::{observe, MachineModel};

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

/// Rank counts measured in-process. Square numbers only (2D grid); the
/// host machine is small, so thread-backed ranks beyond the core count
/// measure correctness and communication structure rather than speedup —
/// the α–β projection supplies the scaling shape.
pub const MEASURED_RANK_COUNTS: [usize; 4] = [1, 4, 9, 16];
/// The paper's node counts for Figs. 4/5 (32 ranks each).
pub const PAPER_NODE_COUNTS: [usize; 5] = [18, 32, 50, 72, 128];
/// The paper's Summit node counts for Fig. 6 (H. sapiens).
pub const PAPER_NODE_COUNTS_HSAPIENS: [usize; 4] = [200, 288, 338, 392];

/// Outcome of one measured pipeline run.
pub struct MeasuredRun {
    pub nranks: usize,
    pub wall_secs: f64,
    pub profile: RunProfile,
    pub contigs: Vec<Contig>,
}

/// Run the full pipeline on `nranks` in-process ranks and collect
/// everything the figure sections need.
pub fn run_pipeline(reads: &[Seq], cfg: &PipelineConfig, nranks: usize) -> MeasuredRun {
    let (reads, cfg) = (reads.to_vec(), cfg.clone());
    let started = Instant::now();
    let (mut outputs, profile) = Runner::new(Backend::InProcess)
        .ranks(nranks)
        .run_profiled(move |comm| assemble_gathered(&ProcGrid::new(comm), &reads, &cfg).0);
    MeasuredRun {
        nranks,
        wall_secs: started.elapsed().as_secs_f64(),
        profile,
        contigs: outputs.remove(0),
    }
}

/// One measured run per rank count, in the order given. The last (most
/// parallel) run is the base the projections start from.
pub fn measured_series(
    reads: &[Seq],
    cfg: &PipelineConfig,
    rank_counts: &[usize],
) -> Vec<MeasuredRun> {
    rank_counts
        .iter()
        .map(|&nranks| run_pipeline(reads, cfg, nranks))
        .collect()
}

/// Materialize a dataset spec into `(genome, reads)`.
pub fn dataset(spec: &DatasetSpec) -> (Seq, Vec<Seq>) {
    let (genome, sim_reads) = spec.generate();
    (genome, sim_reads.into_iter().map(|r| r.seq).collect())
}

/// Sum of the given phases' max-over-ranks wall times.
pub fn phase_total(profile: &RunProfile, phases: &[&str]) -> f64 {
    phases.iter().map(|phase| profile.max_wall(phase)).sum()
}

/// Sum of the paper phases' max-wall times — the pipeline time a strong
/// scaling plot reports (ignores I/O and harness overhead, as the paper
/// does: "we omit I/O and other minor computation").
pub fn pipeline_time(profile: &RunProfile) -> f64 {
    phase_total(profile, &PAPER_PHASES)
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
        .map(|phase| observe(&run.profile, phase))
        .collect();
    node_counts
        .iter()
        .map(|&nodes| {
            let ranks = nodes * model.ranks_per_node;
            (ranks, model.project_total(&observations, run.nranks, ranks))
        })
        .collect()
}

/// The projected strong-scaling table of Figs. 4 and 6: nodes, ranks,
/// projected seconds and parallel efficiency relative to the first node
/// count.
pub fn print_projection(
    out: &mut dyn Write,
    base: &MeasuredRun,
    model: &MachineModel,
    node_counts: &[usize],
    indent: usize,
) -> io::Result<()> {
    let series = project_series(base, model, node_counts);
    let (ranks, times): (Vec<usize>, Vec<f64>) = series.iter().copied().unzip();
    let efficiency = MachineModel::parallel_efficiency(&ranks, &times);
    let table = Table::new(&[R(7), R(8), R(14), R(12)]).indent(indent);
    table.row(out, "nodes|ranks|projected s|efficiency")?;
    for ((nodes, (ranks, secs)), e) in node_counts.iter().zip(&series).zip(&efficiency) {
        table.row(out, &format!("{nodes}|{ranks}|{secs:.4}|{:.0}%", e * 100.0))?;
    }
    Ok(())
}

/// The per-phase runtime breakdown of Figs. 5 and 6: max-over-ranks wall
/// seconds of each of `phases` and its share of their sum. An
/// `ExtractContig:` prefix is dropped from the labels.
pub fn print_breakdown(
    out: &mut dyn Write,
    profile: &RunProfile,
    phases: &[&str],
    indent: usize,
) -> io::Result<()> {
    let total = phase_total(profile, phases).max(1e-12);
    let table = Table::new(&[L(20), R(10), R(8)]).indent(indent);
    table.row(out, "phase|max-wall s|share")?;
    for phase in phases {
        let secs = profile.max_wall(phase);
        let label = phase.strip_prefix("ExtractContig:").unwrap_or(phase);
        table.row(
            out,
            &format!("{label}|{secs:.4}|{:.1}%", 100.0 * secs / total),
        )?;
    }
    Ok(())
}

/// One column of a [`Table`]: left- or right-aligned, at least this wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Col {
    L(usize),
    R(usize),
}
pub use Col::{L, R};

/// The one table printer: fixed per-column width and alignment, columns
/// separated by one space. A row — header rows are rows — is its cells
/// joined by `|`. A cell wider than its column is printed whole (the row
/// grows, nothing is cut); a row may have fewer cells than the table has
/// columns; trailing blanks are dropped.
#[derive(Debug, Clone)]
pub struct Table {
    cols: Vec<Col>,
    indent: usize,
}

impl Table {
    pub fn new(cols: &[Col]) -> Self {
        Table {
            cols: cols.to_vec(),
            indent: 0,
        }
    }

    /// Prefix every row with `indent` spaces.
    pub fn indent(mut self, indent: usize) -> Self {
        self.indent = indent;
        self
    }

    /// Render one row, without a newline.
    pub fn render(&self, cells: &str) -> String {
        let cells: Vec<&str> = cells.split('|').collect();
        assert!(cells.len() <= self.cols.len(), "more cells than columns");
        let mut line = " ".repeat(self.indent);
        for (i, (cell, col)) in cells.iter().zip(&self.cols).enumerate() {
            if i > 0 {
                line.push(' ');
            }
            match *col {
                L(width) => line.push_str(&format!("{cell:<width$}")),
                R(width) => line.push_str(&format!("{cell:>width$}")),
            }
        }
        line.truncate(line.trim_end().len());
        line
    }

    /// Print one row.
    pub fn row(&self, out: &mut dyn Write, cells: &str) -> io::Result<()> {
        writeln!(out, "{}", self.render(cells))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_series_has_requested_points() {
        let spec = DatasetSpec::celegans_like(0.04, 9);
        let (_genome, reads) = dataset(&spec);
        let cfg = PipelineConfig::for_dataset(&spec);
        let run = run_pipeline(&reads, &cfg, 4);
        assert_eq!(run.nranks, 4);
        assert!(run.wall_secs > 0.0 && pipeline_time(&run.profile) > 0.0);
        let model = MachineModel::cori_haswell();
        let series = project_series(&run, &model, &PAPER_NODE_COUNTS);
        assert_eq!(series.len(), 5);
        assert!(series
            .iter()
            .all(|&(ranks, secs)| ranks % 32 == 0 && secs > 0.0));
    }

    #[test]
    fn table_pads_to_width_and_aligns_per_column() {
        let table = Table::new(&[L(6), R(5), R(4)]);
        assert_eq!(table.render("ab|1|x"), "ab         1    x");
        assert_eq!(table.indent(2).render("ab|1|x"), "  ab         1    x");
    }

    #[test]
    fn table_never_cuts_a_wide_cell_and_drops_trailing_blanks() {
        let table = Table::new(&[L(3), R(3), L(4)]);
        assert_eq!(table.render("abcdef|12345|z"), "abcdef 12345 z");
        assert_eq!(table.render("ab"), "ab");
        assert_eq!(table.render("ab||"), "ab");
        assert_eq!(table.render(""), "");
    }

    #[test]
    #[should_panic(expected = "more cells than columns")]
    fn table_rejects_more_cells_than_columns() {
        Table::new(&[L(3)]).render("a|b");
    }
}
