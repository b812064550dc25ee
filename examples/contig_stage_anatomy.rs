//! Anatomy of the contig-generation stage (Algorithm 2): runs the
//! pipeline up to the string matrix `S`, then walks through branch
//! removal, connected components, LPT partitioning, the induced-subgraph
//! exchange and local assembly step by step, printing what each does —
//! a guided tour of the paper's §4.2–4.4.
//!
//! ```sh
//! cargo run --release --example contig_stage_anatomy
//! ```

use elba::core::{connected_components, contig_generation, partition};
use elba::prelude::*;

fn main() {
    let spec = DatasetSpec::osativa_like(0.25, 5); // ~37 kb, more repeats
    let (_genome, sim_reads) = spec.generate();
    let reads: Vec<Seq> = sim_reads.into_iter().map(|r| r.seq).collect();
    let cfg = PipelineConfig::for_dataset(&spec);
    println!("{}: {} reads", spec.name, reads.len());

    let nranks = 4;
    let reads_clone = reads.clone();
    let rows = Runner::new(Backend::InProcess)
        .ranks(nranks)
        .run(move |comm| {
            let grid = ProcGrid::new(comm);
            let store = elba::seq::ReadStore::from_replicated(&grid, &reads_clone);

            // Run Algorithm 1 up to S by reusing the pipeline pieces.
            let table = elba::seq::count_kmers(&grid, &store, &cfg.kmer);
            let triples = elba::seq::build_a_triples(&grid, &store, &table, &cfg.kmer);
            let a = elba::sparse::DistMat::from_triples(
                &grid,
                reads_clone.len(),
                table.n_global as usize,
                triples,
                |acc: &mut elba::seq::AEntry, v| {
                    if v.pos < acc.pos {
                        *acc = v;
                    }
                },
            );
            let c = elba::graph::candidate_matrix(&grid, &a, &cfg.overlap);
            let (edge_triples, contained, _) =
                elba::graph::align_and_classify(&grid, &c, &store, &cfg.overlap);
            let r = elba::graph::overlap_graph(&grid, reads_clone.len(), edge_triples, &contained);
            let (s, red) = elba::graph::transitive_reduction_with(
                &grid,
                r,
                cfg.tr_fuzz,
                cfg.tr_max_iters,
                &cfg.overlap.spgemm,
            );
            let s = elba::graph::symmetrize(&grid, s);

            // --- §4.2: branch removal ------------------------------------
            let degrees = s.row_degrees(&grid);
            let branch_mask = degrees.map(&grid, |_, &d| d >= 3);
            let n_branches = grid.world().allreduce(
                branch_mask.local().iter().filter(|&&b| b).count() as u64,
                |x, y| x + y,
            );
            let l = s.clone().mask_rows_cols(&grid, &branch_mask);

            // --- §4.2: connected components -------------------------------
            let cc = connected_components(&grid, &l);

            // --- §4.3: contig sizes + LPT ----------------------------------
            let ldeg = l.row_degrees(&grid);
            let mut sizes: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
            for (&label, &d) in cc.labels.local().iter().zip(ldeg.local()) {
                if d >= 1 {
                    *sizes.entry(label).or_insert(0) += 1;
                }
            }
            let pairs: Vec<(u64, u64)> = sizes.into_iter().collect();
            let gathered = grid.world().gather(0, pairs);
            let lpt_info = gathered.map(|all| {
                let mut merged: std::collections::HashMap<u64, u64> = Default::default();
                for (label, count) in all.into_iter().flatten() {
                    *merged.entry(label).or_insert(0) += count;
                }
                let size_vec: Vec<u64> = merged.values().copied().collect();
                let lpt = partition(&size_vec, grid.world().size(), PartitionStrategy::Lpt);
                let rr = partition(
                    &size_vec,
                    grid.world().size(),
                    PartitionStrategy::RoundRobin,
                );
                (
                    size_vec.len(),
                    lpt.makespan(),
                    lpt.imbalance(),
                    rr.makespan(),
                )
            });

            // --- full Algorithm 2 ------------------------------------------
            let (local_contigs, stats) = contig_generation(&grid, &s, &store, &cfg.contig);
            let all = gather_contigs(&grid, &local_contigs);
            (
                grid.world().rank(),
                s.nnz_global(&grid),
                red.removed,
                n_branches,
                cc.rounds,
                lpt_info,
                stats,
                all.len(),
                local_contigs.len(),
            )
        });

    let (_, s_nnz, tr_removed, n_branches, cc_rounds, lpt_info, stats, n_contigs, _) = &rows[0];
    println!(
        "\nstring matrix S        : {} nonzeros ({} transitive edges removed in one masked sweep)",
        s_nnz, tr_removed
    );
    println!("branch vertices masked : {} (degree ≥ 3, §4.2)", n_branches);
    println!(
        "connected components   : {} rounds of hook-and-shortcut",
        cc_rounds
    );
    if let Some((n, lpt_makespan, imbalance, rr_makespan)) = lpt_info {
        println!(
            "LPT partitioning       : {n} contigs, makespan {lpt_makespan} reads \
             (imbalance {imbalance:.3}; round-robin would give {rr_makespan})"
        );
    }
    println!(
        "induced subgraph       : components {} | largest {} reads | makespan {}",
        stats.n_components, stats.largest_component, stats.makespan
    );
    println!(
        "local assembly         : {} contigs total across ranks",
        n_contigs
    );
    println!("\nper-rank contig counts (LPT balance in action):");
    for (rank, .., local_count) in &rows {
        println!("  rank {rank}: {local_count} contigs assembled locally");
    }
}
