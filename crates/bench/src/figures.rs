//! The paper's tables and figures, one section each, behind one dispatch
//! table. `benches/figures.rs` is the command line over [`select`].

use std::io::{self, Write};
use std::time::Instant;

use elba_baseline::{assemble_bog, assemble_minimizer, BaselineConfig};
use elba_core::{partition, PartitionStrategy, Partitioning, PipelineConfig};
use elba_quality::{evaluate, QualityConfig};
use elba_seq::{DatasetSpec, Seq};

use crate::model::MachineModel;
use crate::{
    dataset, measured_series, phase_total, pipeline_time, print_breakdown, print_projection,
    project_series, run_pipeline, Table, CONTIG_PHASES, L, MEASURED_RANK_COUNTS, PAPER_NODE_COUNTS,
    PAPER_NODE_COUNTS_HSAPIENS, PAPER_PHASES, R,
};

/// One table or figure of the paper's evaluation.
pub struct Figure {
    /// The command-line name.
    pub name: &'static str,
    pub title: &'static str,
    body: fn(&mut dyn Write) -> io::Result<()>,
}

/// Every section, in the order a bare `figures` run prints them.
pub const FIGURES: [Figure; 8] = [
    Figure {
        name: "table1",
        title: "Table 1 — machines (paper) vs machine models (this repro)",
        body: table1,
    },
    Figure {
        name: "table2",
        title: "Table 2 — datasets (scaled synthetic stand-ins)",
        body: table2,
    },
    Figure {
        name: "table3",
        title: "Table 3 — ELBA speedup over shared-memory assemblers",
        body: table3,
    },
    Figure {
        name: "table4",
        title: "Table 4 — assembler quality (O. sativa top, C. elegans bottom)",
        body: table4,
    },
    Figure {
        name: "fig4",
        title: "Figure 4 — ELBA strong scaling (C. elegans left, O. sativa right)",
        body: fig4,
    },
    Figure {
        name: "fig5",
        title: "Figure 5 — runtime breakdown of the main pipeline stages",
        body: fig5,
    },
    Figure {
        name: "fig6",
        title: "Figure 6 — H. sapiens strong scaling + breakdown (Summit)",
        body: fig6,
    },
    Figure {
        name: "ablation",
        title: "Ablation — multiway number partitioning strategies (§4.3)",
        body: ablation,
    },
];

impl Figure {
    /// Print the section: a banner with the title, then its rows.
    pub fn print(&self, out: &mut dyn Write) -> io::Result<()> {
        let rule = "=".repeat(78);
        writeln!(out, "\n{rule}\n{}\n{rule}", self.title)?;
        (self.body)(out)
    }
}

/// Resolve command-line arguments to sections: no name selects all of
/// [`FIGURES`]; the `--bench` cargo appends to a `harness = false`
/// target's arguments is ignored. An unknown name is a usage error (the
/// message lists the names) and nothing is selected.
pub fn select(args: &[String]) -> Result<Vec<&'static Figure>, String> {
    let names: Vec<&String> = args.iter().filter(|arg| *arg != "--bench").collect();
    if names.is_empty() {
        return Ok(FIGURES.iter().collect());
    }
    names
        .into_iter()
        .map(|name| {
            FIGURES.iter().find(|f| f.name == name).ok_or_else(|| {
                let known: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
                format!("unknown figure `{name}`; expected {}", known.join("|"))
            })
        })
        .collect()
}

fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = work();
    (value, started.elapsed().as_secs_f64())
}

/// The paper's Table 1 lists Cori Haswell and Summit CPU. The physical
/// machines are replaced by α–β models (latency, per-rank bandwidth,
/// relative core speed) that drive the strong-scaling projections of
/// Figs. 4–6; this prints the substituted table.
fn table1(out: &mut dyn Write) -> io::Result<()> {
    let table = Table::new(&[L(16), R(12), R(10), R(18), R(14), R(12)]);
    table.row(
        out,
        "platform|cores/node|ranks/node|alpha (latency)|beta/rank|core speed",
    )?;
    table.row(out, "—paper—")?;
    table.row(out, "Cori Haswell|32|32|Aries dragonfly|10 GB/s/node|1.00")?;
    table.row(out, "Summit CPU|42|32|IB fat tree|23 GB/s/node|no AVX2")?;
    table.row(out, "—models—")?;
    for m in [MachineModel::cori_haswell(), MachineModel::summit_cpu()] {
        let (name, ranks, speed) = (m.name, m.ranks_per_node, m.compute_speed);
        let cells = format!(
            "{name}|-|{ranks}|{:.2e} s|{:.2e} B/s|{speed:.2}",
            m.alpha, m.beta
        );
        table.row(out, &cells)?;
    }
    writeln!(
        out,
        "\nSummit's compute_speed < 1 encodes the paper's observation that the\n\
         x-drop alignment library lacks POWER9 SIMD, making per-core alignment\n\
         slower on Summit than on Cori Haswell (§5, §6.1)."
    )
}

/// The paper's Table 2 columns (label, depth, reads, mean read length,
/// input size, genome size, error rate) for the three scaled synthetic
/// stand-ins.
fn table2(out: &mut dyn Write) -> io::Result<()> {
    let table = Table::new(&[R(22), R(22), R(7), R(9), R(10), R(12), R(10), R(9)]);
    table.row(
        out,
        "paper label|this repro|depth|reads|mean len|input (kb)|size (kb)|error %",
    )?;
    for (paper_label, spec) in [
        ("O. sativa (500 Mb)", DatasetSpec::osativa_like(1.0, 11)),
        ("C. elegans (100 Mb)", DatasetSpec::celegans_like(1.0, 12)),
        ("H. sapiens (3.2 Gb)", DatasetSpec::hsapiens_like(0.6, 13)),
    ] {
        let (genome, reads) = dataset(&spec);
        let total_bases: usize = reads.iter().map(|r| r.len()).sum();
        let cells = format!(
            "{paper_label}|{}|{:.0}|{}|{}|{:.1}|{:.1}|{:.1}",
            spec.name,
            spec.reads.depth,
            reads.len(),
            total_bases / reads.len().max(1),
            total_bases as f64 / 1e3,
            genome.len() as f64 / 1e3,
            spec.reads.error_rate * 100.0
        );
        table.row(out, &cells)?;
    }
    writeln!(
        out,
        "\npaper rows for comparison: O. sativa 30x/638.2K reads/19,695 bp/0.5%;\n\
         C. elegans 40x/420.7K/14,550/0.5%; H. sapiens 10x/4,421.6K/7,401/15%.\n\
         Depth and error rate are preserved exactly; genome size is scaled\n\
         ~3000x down so every experiment runs on one small host."
    )
}

/// The paper runs Hifiasm and HiCanu on one Cori node and ELBA on 18–128
/// nodes, reporting 3–36× (Hifiasm) and 11–159× (HiCanu) speedups. Here
/// the comparators are the two from-scratch serial baselines (minimizer
/// ≈ Hifiasm-family, BOG ≈ HiCanu-family). Two views are printed:
/// measured in-process runs (P ≤ 16 ranks sharing the host's cores —
/// here ELBA does *not* win, consistent with the paper's own per-core
/// economics: their ELBA needs 576 ranks to beat 32-thread Hifiasm 3×)
/// and the α–β projection at the paper's 18–128 node counts, where the
/// reproduced shape appears: (a) ELBA beats both, (b) the BOG-family
/// column is the larger speedup, (c) speedup grows with node count.
fn table3(out: &mut dyn Write) -> io::Result<()> {
    for spec in [
        DatasetSpec::celegans_like(0.30, 71),
        DatasetSpec::osativa_like(0.25, 72),
    ] {
        let (_genome, reads) = dataset(&spec);
        writeln!(out, "\n--- {} ({} reads) ---", spec.name, reads.len())?;

        let bcfg = BaselineConfig::for_dataset(&spec);
        let (_, mini_secs) = timed(|| assemble_minimizer(&reads, &bcfg));
        let (_, bog_secs) = timed(|| assemble_bog(&reads, &bcfg));
        let baselines = Table::new(&[L(28), R(11), L(0)]);
        let row = format!("minimizer baseline|{mini_secs:.2}s|  (Hifiasm-family comparator)");
        baselines.row(out, &row)?;
        let row =
            format!("best-overlap-graph baseline|{bog_secs:.2}s|  (HiCanu-family comparator)");
        baselines.row(out, &row)?;

        let speedups = Table::new(&[R(8), R(12), R(18), R(14), L(0)]);
        let header =
            |unit: &str, note: &str| format!("{unit}|ELBA s|vs minimizer|vs BOG|  ({note})");
        let cfg = PipelineConfig::for_dataset(&spec);
        let runs = measured_series(&reads, &cfg, &[1, 4, 16]);
        speedups.row(out, &header("ranks", "measured, in-process ranks"))?;
        for run in &runs {
            let secs = pipeline_time(&run.profile);
            let (vs_mini, vs_bog) = (mini_secs / secs, bog_secs / secs);
            let cells = format!("{}|{secs:.3}|{vs_mini:.1}x|{vs_bog:.1}x", run.nranks);
            speedups.row(out, &cells)?;
        }
        // The paper's experimental design: baselines on ONE node, ELBA on
        // 18-128. In-process ranks on a small host cannot show that; the
        // projection at the paper's node counts can. (Per-core, ELBA is
        // *less* efficient than the shared-memory tools — the paper's own
        // numbers imply the same — it wins on scale-out.)
        let base = runs.last().expect("measured run");
        let model = MachineModel::cori_haswell();
        let note = format!("projected, {}", model.name);
        speedups.row(out, &header("nodes", &note))?;
        let series = project_series(base, &model, &PAPER_NODE_COUNTS);
        for (nodes, (_, secs)) in PAPER_NODE_COUNTS.iter().zip(&series) {
            let (vs_mini, vs_bog) = (mini_secs / secs, bog_secs / secs);
            let cells = format!("{nodes}|{secs:.4}|{vs_mini:.0}x|{vs_bog:.0}x");
            speedups.row(out, &cells)?;
        }
    }
    writeln!(
        out,
        "\npaper reference: C. elegans — Hifiasm 1,015s, HiCanu 3,819s, ELBA\n\
         3–15x and 11–58x at 18–128 nodes; O. sativa — Hifiasm 4,131.9s,\n\
         HiCanu 18,131s, ELBA 18–36x and 78–159x at 50–128 nodes."
    )
}

/// Completeness, longest contig, number of contigs and misassemblies for
/// ELBA and the two baselines on the low-error datasets. Paper shape to
/// reproduce: ELBA's completeness is competitive (higher than both tools
/// on C. elegans), its misassembly count is small, but — with no
/// polishing stage — its contigs are shorter and more numerous than the
/// polished comparators'.
fn table4(out: &mut dyn Write) -> io::Result<()> {
    for spec in [
        DatasetSpec::osativa_like(0.30, 81),
        DatasetSpec::celegans_like(0.30, 82),
    ] {
        let (genome, reads) = dataset(&spec);
        let (name, bases, n_reads) = (spec.name, genome.len(), reads.len());
        writeln!(out, "\n--- {name} (genome {bases} bp, {n_reads} reads) ---")?;
        let table = Table::new(&[L(26), R(14), R(16), R(9), R(14)]);
        table.row(
            out,
            "tool|completeness %|longest contig|contigs|misassembled",
        )?;
        let cfg = PipelineConfig::for_dataset(&spec);
        let bcfg = BaselineConfig::for_dataset(&spec);
        let elba = run_pipeline(&reads, &cfg, 4).contigs;
        let (minimizer, _) = assemble_minimizer(&reads, &bcfg);
        let (bog, _) = assemble_bog(&reads, &bcfg);
        for (tool, contigs) in [
            ("ELBA (this repro, P=4)", elba),
            ("minimizer (Hifiasm-family)", minimizer),
            ("BOG (HiCanu-family)", bog),
        ] {
            let seqs: Vec<Seq> = contigs.iter().map(|c| c.seq.clone()).collect();
            let q = evaluate(&genome, &seqs, &QualityConfig::default());
            let cells = format!(
                "{tool}|{:.2}|{}|{}|{}",
                q.completeness, q.longest_contig, q.n_contigs, q.misassembled_contigs
            );
            table.row(out, &cells)?;
        }
    }
    writeln!(
        out,
        "\npaper reference (O. sativa / C. elegans): ELBA completeness 37.09 /\n\
         98.93 with 6,411 / 4,287 contigs and 2 / 5 misassemblies; polished\n\
         comparators produce far fewer, far longer contigs — the same trade\n\
         this table shows."
    )
}

/// Strong scaling of the full pipeline on C. elegans (left) and O. sativa
/// (right), Cori Haswell and Summit CPU. Two series per dataset:
/// 1. **measured** — real runs on in-process thread ranks P ∈ {1,4,9,16}
///    (the host has few cores; beyond them the measured series validates
///    correctness and communication structure, not speedup);
/// 2. **projected** — the α–β machine models applied to the recorded
///    per-phase work/communication trace of the most parallel measured
///    run, at the paper's node counts {18, 32, 50, 72, 128} × 32 ranks.
///    The paper reports 75 % / 80 % parallel efficiency at 128 nodes on
///    Cori (C. elegans / O. sativa) and 69 % / 64 % on Summit.
fn fig4(out: &mut dyn Write) -> io::Result<()> {
    // Scaled datasets: large enough to exercise every phase, small enough
    // for a laptop-class bench run.
    for spec in [
        DatasetSpec::celegans_like(0.35, 41),
        DatasetSpec::osativa_like(0.30, 42),
    ] {
        let (_genome, reads) = dataset(&spec);
        let cfg = PipelineConfig::for_dataset(&spec);
        writeln!(out, "\n--- {} ({} reads) ---", spec.name, reads.len())?;
        let runs = measured_series(&reads, &cfg, &MEASURED_RANK_COUNTS);
        let table = Table::new(&[R(8), R(12), R(12)]);
        table.row(out, "ranks|measured s|pipeline s")?;
        for run in &runs {
            let (wall, pipeline) = (run.wall_secs, pipeline_time(&run.profile));
            table.row(out, &format!("{}|{wall:.3}|{pipeline:.3}", run.nranks))?;
        }
        let base = runs.last().expect("at least one measured run");
        for model in [MachineModel::cori_haswell(), MachineModel::summit_cpu()] {
            let name = model.name;
            writeln!(out, "\n  projected on {name} (paper Fig. 4 series):")?;
            print_projection(out, base, &model, &PAPER_NODE_COUNTS, 2)?;
        }
    }
    writeln!(
        out,
        "\npaper reference points: parallel efficiency at 128 nodes — C. elegans\n\
         75% (Cori) / 69% (Summit); O. sativa 80% (Cori) / 64% (Summit);\n\
         O. sativa on Summit between 72 and 128 nodes: 83%."
    )
}

/// Runtime breakdown of the main pipeline stages for C. elegans and
/// O. sativa, plus the §6.1 contig-stage internal breakdown that backs
/// two claims: "65–85 % of the runtime of contig generation ... is taken
/// by the induced subgraph function, which mainly involves
/// communication", and "ExtractContig never requires more than 5 % of
/// the computation".
fn fig5(out: &mut dyn Write) -> io::Result<()> {
    for spec in [
        DatasetSpec::celegans_like(0.35, 51),
        DatasetSpec::osativa_like(0.30, 52),
    ] {
        let (_genome, reads) = dataset(&spec);
        let cfg = PipelineConfig::for_dataset(&spec);
        for nranks in [4usize, 16] {
            let profile = run_pipeline(&reads, &cfg, nranks).profile;
            let (name, total) = (spec.name, pipeline_time(&profile));
            writeln!(
                out,
                "\n--- {name} at P = {nranks} (pipeline {total:.3}s) ---"
            )?;
            print_breakdown(out, &profile, &PAPER_PHASES, 0)?;

            let contig_total = phase_total(&profile, &CONTIG_PHASES);
            writeln!(
                out,
                "  └─ ExtractContig internals (contig stage {contig_total:.4}s):"
            )?;
            print_breakdown(out, &profile, &CONTIG_PHASES, 5)?;
            writeln!(
                out,
                "     induced-subgraph share of contig stage: {:.1}% (paper: 65–85%)",
                100.0 * profile.max_wall("ExtractContig:InducedSubgraph") / contig_total.max(1e-12)
            )?;
            writeln!(
                out,
                "     ExtractContig share of pipeline: {:.1}% (paper: ≤ 5%)",
                100.0 * profile.max_wall("ExtractContig") / total.max(1e-12)
            )?;
        }
    }
    writeln!(
        out,
        "\npaper shape: Alignment and DetectOverlap dominate; TrReduction and\n\
         ExtractContig are small and latency-bound; within contig generation\n\
         the induced subgraph (communication) dominates."
    )
}

/// H. sapiens: strong scaling (left) and runtime breakdown (right) on
/// Summit. The high-error dataset (15 %, k = 17, x = 7) stresses
/// alignment; the paper reports ~90 % parallel efficiency between 200
/// and 392 nodes and an alignment-dominated breakdown.
fn fig6(out: &mut dyn Write) -> io::Result<()> {
    let spec = DatasetSpec::hsapiens_like(0.35, 66);
    let (_genome, reads) = dataset(&spec);
    let cfg = PipelineConfig::for_dataset(&spec);
    writeln!(
        out,
        "{}: {} reads at {:.0}% error, k={}, x-drop={}",
        spec.name,
        reads.len(),
        spec.reads.error_rate * 100.0,
        spec.k,
        spec.xdrop
    )?;

    writeln!(out, "\nmeasured (in-process ranks):")?;
    let runs = measured_series(&reads, &cfg, &MEASURED_RANK_COUNTS);
    let table = Table::new(&[R(8), R(12)]);
    table.row(out, "ranks|pipeline s")?;
    for run in &runs {
        let secs = pipeline_time(&run.profile);
        table.row(out, &format!("{}|{secs:.3}", run.nranks))?;
    }
    let base = runs.last().expect("measured run");

    let model = MachineModel::summit_cpu();
    let name = model.name;
    writeln!(out, "\nprojected on {name} at the paper's node counts:")?;
    print_projection(out, base, &model, &PAPER_NODE_COUNTS_HSAPIENS, 0)?;
    writeln!(out, "(paper: ~90% efficiency from 200 to 392 nodes)")?;

    writeln!(out, "\nbreakdown at P = {} (right panel):", base.nranks)?;
    print_breakdown(out, &base.profile, &PAPER_PHASES, 0)?;
    writeln!(
        out,
        "\npaper shape: Alignment dominates the H. sapiens breakdown (high error\n\
         and no AVX2 on Summit); CountKmer scales sublinearly; TrReduction and\n\
         ExtractContig stay small."
    )
}

/// Contig load balancing (§4.3). The paper argues for sorted LPT over
/// unsorted greedy (approximation (4P−1)/(3P) vs 2−1/P) and accepts the
/// O(n log n) sort because the number of contigs n is small. This
/// measures makespan and imbalance for LPT / unsorted greedy /
/// round-robin on (a) the contig size distribution of a real pipeline
/// run and (b) synthetic skewed distributions, plus the partitioner's
/// runtime to back the "not a bottleneck" claim.
fn ablation(out: &mut dyn Write) -> io::Result<()> {
    // (a) contig sizes from a real pipeline run
    let spec = DatasetSpec::celegans_like(0.35, 91);
    let (_genome, reads) = dataset(&spec);
    let cfg = PipelineConfig::for_dataset(&spec);
    let contigs = run_pipeline(&reads, &cfg, 4).contigs;
    let contig_sizes: Vec<u64> = contigs.iter().map(|c| c.read_ids.len() as u64).collect();
    if !contig_sizes.is_empty() {
        let label = format!("measured ({})", spec.name);
        for nparts in [4usize, 16, 64] {
            compare_partitioners(out, &contig_sizes, nparts, &label)?;
        }
    }

    // (b) synthetic skew: power-law-ish contig sizes, the adversarial case
    let mut skewed: Vec<u64> = (1..=400u64).map(|i| 1 + 10_000 / i).collect();
    skewed.sort_unstable_by(|x, y| y.cmp(x));
    compare_partitioners(out, &skewed, 64, "synthetic power-law")?;

    // (c) the paper's n < P regime (n = 2 contigs on many processors)
    compare_partitioners(out, &[9_000, 8_500], 16, "n < P (idle processors)")?;

    writeln!(
        out,
        "\npaper claims backed here: LPT ≥ greedy ≥ round-robin on balance;\n\
         partitioner runtime is microseconds (runs on one rank, n ≪ reads)."
    )
}

fn compare_partitioners(
    out: &mut dyn Write,
    sizes: &[u64],
    nparts: usize,
    label: &str,
) -> io::Result<()> {
    let n = sizes.len();
    writeln!(out, "\n--- {label}: {n} contigs over P = {nparts} ---")?;
    let table = Table::new(&[R(16), R(12), R(12), R(12), R(12)]);
    table.row(out, "strategy|makespan|imbalance|lower bnd|time µs")?;
    let lower_bound = Partitioning::lower_bound(sizes, nparts);
    for (name, strategy) in [
        ("LPT (paper)", PartitionStrategy::Lpt),
        ("greedy", PartitionStrategy::GreedyUnsorted),
        ("round-robin", PartitionStrategy::RoundRobin),
    ] {
        let (p, secs) = timed(|| partition(sizes, nparts, strategy));
        let (makespan, imbalance, micros) = (p.makespan(), p.imbalance(), secs * 1e6);
        let cells = format!("{name}|{makespan}|{imbalance:.3}|{lower_bound}|{micros:.0}");
        table.row(out, &cells)?;
    }
    Ok(())
}
