//! An independent referee for the candidate matrix `C = AAᵀ`: computed
//! without the comm layer, the read pairs `i < j` that share at least
//! one reliable canonical k-mer — a k-mer whose occurrence count over
//! the whole read set lies in `for_dataset`'s reliable band — must be
//! exactly the pattern `candidate_matrix` gathers, at p ∈ {1, 4}, under
//! the unbudgeted production schedule, the eager oracle schedule and a
//! column-batched schedule with a small budget. Every retained seed must
//! name one such shared k-mer: the same canonical k-mer at `pos_v` in
//! read `i` and at `pos_h` in read `j`, each the k-mer's first
//! occurrence in its read, with `same_strand` telling whether the two
//! occurrences sit on the same strand.

use std::collections::{BTreeSet, HashMap, HashSet};

use elba::graph::{candidate_matrix, SharedSeeds};
use elba::prelude::*;
use elba::seq::kmer::{canonical_kmers, KmerHit};
use elba::seq::{build_a_triples, count_kmers, AEntry};
use elba::sparse::SpGemmOptions;

/// The canonical k-mers whose occurrence count over all reads lies in
/// `cfg`'s reliable band.
fn reliable_kmers(hits: &[Vec<KmerHit>], cfg: &KmerConfig) -> HashSet<u64> {
    let mut counts: HashMap<u64, u32> = HashMap::new();
    for hit in hits.iter().flatten() {
        *counts.entry(hit.kmer).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .filter(|(_, count)| (cfg.reliable_min..=cfg.reliable_max).contains(count))
        .map(|(kmer, _)| kmer)
        .collect()
}

/// The read pairs `i < j` sharing a reliable k-mer.
fn oracle_pairs(hits: &[Vec<KmerHit>], reliable: &HashSet<u64>) -> BTreeSet<(u64, u64)> {
    let mut readers: HashMap<u64, BTreeSet<u64>> = HashMap::new();
    for (read, read_hits) in hits.iter().enumerate() {
        for hit in read_hits.iter().filter(|hit| reliable.contains(&hit.kmer)) {
            readers.entry(hit.kmer).or_default().insert(read as u64);
        }
    }
    let mut pairs = BTreeSet::new();
    for reads in readers.values() {
        let reads: Vec<u64> = reads.iter().copied().collect();
        for (at, &i) in reads.iter().enumerate() {
            for &j in &reads[at + 1..] {
                pairs.insert((i, j));
            }
        }
    }
    pairs
}

/// `candidate_matrix`'s gathered entries on `p` ranks under `spgemm`,
/// sorted by `(row, column)`.
fn gathered_c(
    reads: &[Seq],
    cfg: &PipelineConfig,
    p: usize,
    spgemm: SpGemmOptions,
) -> Vec<(u64, u64, SharedSeeds)> {
    let reads = reads.to_vec();
    let cfg = cfg.clone().with_spgemm(spgemm);
    Runner::new(Backend::InProcess)
        .ranks(p)
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
            let mut entries = candidate_matrix(&grid, &a, &cfg.overlap).gather_triples(&grid);
            entries.sort_unstable_by_key(|&(i, j, _)| (i, j));
            entries
        })
        .remove(0)
}

#[test]
fn candidate_matrix_is_the_reliable_shared_kmer_pairs_with_true_seeds() {
    let spec = DatasetSpec::celegans_like(0.08, 42);
    let (_genome, sim_reads) = spec.generate();
    let reads: Vec<Seq> = sim_reads.into_iter().map(|r| r.seq).collect();
    let cfg = PipelineConfig::for_dataset(&spec);
    let hits: Vec<Vec<KmerHit>> = reads
        .iter()
        .map(|read| canonical_kmers(read, cfg.kmer.k))
        .collect();
    let reliable = reliable_kmers(&hits, &cfg.kmer);
    let want = oracle_pairs(&hits, &reliable);
    assert!(
        want.len() > 1000,
        "a candidate set worth checking: {} pairs",
        want.len()
    );
    let reliable_first = |read: u64, pos: u32| -> &KmerHit {
        let read_hits = &hits[read as usize];
        let hit = &read_hits[pos as usize];
        assert_eq!(hit.pos, pos);
        assert!(
            reliable.contains(&hit.kmer),
            "a seed names a reliable k-mer"
        );
        assert_eq!(
            read_hits.iter().find(|h| h.kmer == hit.kmer).map(|h| h.pos),
            Some(pos),
            "a seed sits on its k-mer's first occurrence in read {read}"
        );
        hit
    };
    for p in [1usize, 4] {
        for (label, spgemm) in [
            ("unbudgeted", SpGemmOptions::pipelined()),
            ("eager", SpGemmOptions::eager()),
            (
                "column-batched 64 KiB",
                SpGemmOptions::column_batched(64 << 10),
            ),
        ] {
            let c = gathered_c(&reads, &cfg, p, spgemm);
            let got: BTreeSet<(u64, u64)> = c.iter().map(|&(i, j, _)| (i, j)).collect();
            assert_eq!(got.len(), c.len(), "{label} p={p}: one entry per pair");
            assert!(
                got == want,
                "{label} p={p}: {} entries, oracle {}; {} missing, {} extra",
                got.len(),
                want.len(),
                want.difference(&got).count(),
                got.difference(&want).count()
            );
            for (i, j, seeds) in &c {
                for seed in seeds.seeds() {
                    let (v, h) = (
                        reliable_first(*i, seed.pos_v),
                        reliable_first(*j, seed.pos_h),
                    );
                    assert_eq!(
                        v.kmer, h.kmer,
                        "{label} p={p}: seed {seed:?} of ({i}, {j}) names two k-mers"
                    );
                    assert_eq!(
                        seed.same_strand,
                        v.fwd == h.fwd,
                        "{label} p={p}: strand of seed {seed:?} of ({i}, {j})"
                    );
                }
            }
        }
    }
}
