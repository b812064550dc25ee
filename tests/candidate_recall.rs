//! Recall of the candidate matrix `C = AAᵀ` against the simulator's
//! truth: a read pair is a true overlap when the genome intervals the two
//! reads were drawn from (`ReadTruth`) share at least `min_overlap`
//! bases. The test prints the share of true pairs `C` keeps at k-mer
//! sample rates s ∈ {1, 2, 4, 8, 16} and at the rate `for_dataset`
//! derives, and holds the derived rate to a floor. Pairs from two copies of a repeat are not true
//! overlaps, so `C`'s extra entries are not scored here.

use std::collections::HashSet;

use elba::graph::candidate_matrix;
use elba::prelude::*;
use elba::seq::{build_a_triples, count_kmers, AEntry, SimulatedRead};

/// The read pairs `i < j` whose genome intervals share at least
/// `min_overlap` bases.
fn true_pairs(reads: &[SimulatedRead], min_overlap: usize) -> Vec<(u64, u64)> {
    let mut by_start: Vec<usize> = (0..reads.len()).collect();
    by_start.sort_unstable_by_key(|&i| reads[i].truth.start);
    let mut pairs = Vec::new();
    for (at, &i) in by_start.iter().enumerate() {
        let a = reads[i].truth;
        for &j in &by_start[at + 1..] {
            let b = reads[j].truth;
            if b.start + min_overlap > a.end {
                break;
            }
            if b.end.min(a.end) >= b.start + min_overlap {
                pairs.push((i.min(j) as u64, i.max(j) as u64));
            }
        }
    }
    pairs
}

/// `C`'s pattern on one rank at sample rate `s`.
fn candidates(reads: &[Seq], cfg: &PipelineConfig, s: u32) -> HashSet<(u64, u64)> {
    let reads = reads.to_vec();
    let mut cfg = cfg.clone();
    cfg.kmer.sample_rate = s;
    Runner::new(Backend::InProcess)
        .ranks(1)
        .run(move |comm| {
            let grid = ProcGrid::new(comm);
            let store = ReadStore::from_replicated(&grid, &reads);
            let table = count_kmers(&grid, &store, &cfg.kmer);
            let triples = build_a_triples(&grid, &store, &table, &cfg.kmer);
            let a = DistMat::from_triples(
                &grid,
                reads.len(),
                table.n_global as usize,
                triples,
                |_: &mut AEntry, _| unreachable!("one entry per read and k-mer"),
            );
            let c = candidate_matrix(&grid, &a, &cfg.overlap);
            c.iter_global(&grid).map(|(i, j, _)| (i, j)).collect()
        })
        .remove(0)
}

/// Print `C`'s recall at every rate in the table, and return it at the
/// derived rate, which must be `derived`.
fn recall_at_derived_rate(spec: DatasetSpec, derived: u32, min_pairs: usize) -> f64 {
    let cfg = PipelineConfig::for_dataset(&spec);
    assert_eq!(cfg.kmer.sample_rate, derived, "{}: derived rate", spec.name);
    let (_genome, sim_reads) = spec.generate();
    let truth = true_pairs(&sim_reads, cfg.overlap.min_overlap);
    assert!(
        truth.len() >= min_pairs,
        "{}: {} true pairs",
        spec.name,
        truth.len()
    );
    let reads: Vec<Seq> = sim_reads.into_iter().map(|r| r.seq).collect();
    let mut rates = vec![1u32, 2, 4, 8, 16, derived];
    rates.sort_unstable();
    rates.dedup();
    let mut at_derived = None;
    for s in rates {
        let c = candidates(&reads, &cfg, s);
        let found = truth.iter().filter(|pair| c.contains(pair)).count();
        let recall = found as f64 / truth.len() as f64;
        println!(
            "{} (seed {}): s = {s:>2}  recall {recall:.4}  ({found} of {} true pairs, |C| = {})",
            spec.name,
            spec.genome.seed,
            truth.len(),
            c.len()
        );
        if s == derived {
            at_derived = Some(recall);
        }
    }
    at_derived.expect("the derived rate is in the table")
}

#[test]
fn candidates_keep_the_true_overlaps_of_low_error_reads() {
    for (scale, seed, min_pairs) in [(0.3, 7, 20_000), (0.12, 11, 8_000)] {
        let recall = recall_at_derived_rate(DatasetSpec::celegans_like(scale, seed), 6, min_pairs);
        assert!(
            recall >= 0.999,
            "celegans {scale} seed {seed}: recall {recall:.4} at s = 6"
        );
    }
}

/// At 15 % error a true overlap often shares no error-free k-mer at all,
/// so noisy reads keep every k-mer and the recall is what `k = 17` gives.
#[test]
fn noisy_reads_keep_every_kmer_and_their_recall() {
    let recall = recall_at_derived_rate(DatasetSpec::hsapiens_like(0.08, 11), 1, 900);
    assert!(
        recall >= 0.70,
        "hsapiens 0.08 seed 11: recall {recall:.4} at s = 1"
    );
}
