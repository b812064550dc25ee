//! Anatomy of the contig-generation stage (Algorithm 2): runs the
//! pipeline up to the string matrix `S` (`string_graph`, Algorithm 1
//! lines 3–10), hands `S` to `contig_generation`, and prints what each
//! step of the paper's §4.2–4.4 did — branch removal, connected
//! components, LPT partitioning, the induced-subgraph exchange and local
//! assembly — from the statistics the stage reports.
//!
//! ```sh
//! cargo run --release --example contig_stage_anatomy
//! ```

use elba::core::{contig_generation, partition, string_graph};
use elba::prelude::*;

fn main() {
    let spec = DatasetSpec::osativa_like(0.25, 5); // ~37 kb, more repeats
    let (_genome, sim_reads) = spec.generate();
    let reads: Vec<Seq> = sim_reads.into_iter().map(|r| r.seq).collect();
    let cfg = PipelineConfig::for_dataset(&spec);
    println!("{}: {} reads", spec.name, reads.len());

    let nranks = 4;
    let rows = Runner::new(Backend::InProcess)
        .ranks(nranks)
        .run(move |comm| {
            let grid = ProcGrid::new(comm);
            let store = ReadStore::from_replicated(&grid, &reads);
            let graph = string_graph(&grid, &store, &cfg);
            let (local_contigs, stats) = contig_generation(&grid, &graph.s, &store, &cfg.contig);
            let all = gather_contigs(&grid, &local_contigs);
            (
                graph.nnz,
                graph.reduction_stats.removed,
                stats,
                all,
                local_contigs.len(),
            )
        });

    let (s_nnz, tr_removed, stats, contigs, _) = &rows[0];
    println!(
        "\nstring matrix S        : {s_nnz} nonzeros \
         ({tr_removed} transitive edges removed in one masked sweep)"
    );
    println!(
        "branch vertices masked : {} (degree ≥ 3, §4.2)",
        stats.branch_vertices
    );
    println!(
        "connected components   : {} rounds of hook-and-shortcut",
        stats.cc_rounds
    );
    let sizes: Vec<u64> = contigs.iter().map(|c| c.read_ids.len() as u64).collect();
    let round_robin = partition(&sizes, nranks, PartitionStrategy::RoundRobin);
    println!(
        "LPT partitioning       : {} contigs, makespan {} reads \
         (imbalance {:.3}; round-robin would give {})",
        stats.n_components,
        stats.makespan,
        stats.imbalance,
        round_robin.makespan()
    );
    println!(
        "induced subgraph       : {} reads in contigs | largest {} reads",
        stats.reads_in_contigs, stats.largest_component
    );
    println!(
        "local assembly         : {} contigs total across ranks",
        contigs.len()
    );
    println!("\nper-rank contig counts (LPT balance in action):");
    for (rank, (.., local_count)) in rows.iter().enumerate() {
        println!("  rank {rank}: {local_count} contigs assembled locally");
    }
}
