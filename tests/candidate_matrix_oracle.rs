//! An independent referee for the candidate matrix `C = AAᵀ`: computed
//! without the comm layer, the read pairs `i < j` that share at least
//! one reliable sampled canonical k-mer — a k-mer that `kmer_sampled`
//! keeps at the config's sample rate and whose occurrence count over the
//! whole read set lies in `for_dataset`'s reliable band — must be exactly
//! the pattern `candidate_matrix` gathers, at p ∈ {1, 4}, at rate 1 and
//! at `for_dataset`'s derived rate, under the unbudgeted production
//! schedule, the eager oracle schedule and the production schedule under
//! a small budget (blocking stages, 32-row batches). Every retained seed must name one such shared k-mer:
//! the same canonical k-mer at `pos_v` in read `i` and at `pos_h` in read
//! `j`, each the k-mer's first occurrence in its read, with `same_strand`
//! telling whether the two occurrences sit on the same strand. Reads of
//! tandem repeats, with A's k-mer windows small enough that a repeat
//! falls in a later window than its first occurrence, hold A's one entry
//! per read and k-mer to that first occurrence.
//!
//! The sample is context-free: a kept k-mer's count is its count with
//! every k-mer kept, so its reliable-band verdict is too.

use std::collections::{BTreeSet, HashMap, HashSet};

use elba::graph::{candidate_matrix, SharedSeeds};
use elba::prelude::*;
use elba::seq::kcount::kmer_owner;
use elba::seq::kmer::{canonical_kmers, KmerHit};
use elba::seq::{build_a_triples, count_kmers, kmer_sampled, AEntry};
use elba::sparse::SpGemmOptions;

/// Every canonical k-mer's occurrence count over all reads.
fn kmer_counts(hits: &[Vec<KmerHit>]) -> HashMap<u64, u32> {
    let mut counts: HashMap<u64, u32> = HashMap::new();
    for hit in hits.iter().flatten() {
        *counts.entry(hit.kmer).or_insert(0) += 1;
    }
    counts
}

/// The canonical k-mers `cfg`'s sample keeps whose occurrence count over
/// all reads lies in `cfg`'s reliable band.
fn reliable_kmers(hits: &[Vec<KmerHit>], cfg: &KmerConfig) -> HashSet<u64> {
    kmer_counts(hits)
        .into_iter()
        .filter(|&(kmer, count)| {
            kmer_sampled(kmer, cfg.sample_rate)
                && (cfg.reliable_min..=cfg.reliable_max).contains(&count)
        })
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

fn dataset() -> (Vec<Seq>, PipelineConfig) {
    let spec = DatasetSpec::celegans_like(0.08, 42);
    let (_genome, sim_reads) = spec.generate();
    let reads = sim_reads.into_iter().map(|r| r.seq).collect();
    (reads, PipelineConfig::for_dataset(&spec))
}

/// Reads cut from a genome of tandem repeats: each 500-base read holds
/// several copies of a 37-base unit, so its repeated k-mers lie 37
/// occurrences apart, and reads alternate strands.
fn tandem_reads() -> Vec<Seq> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(5);
    let mut random = |n: usize| -> Vec<u8> { (0..n).map(|_| rng.gen_range(0..4u8)).collect() };
    let mut genome = Vec::new();
    for _ in 0..12 {
        genome.extend(random(160));
        let unit = random(37);
        for _ in 0..4 {
            genome.extend_from_slice(&unit);
        }
    }
    let genome = Seq::from_codes(genome);
    (0..)
        .map(|i| i * 120)
        .take_while(|&start| start + 500 <= genome.len())
        .map(|start| {
            let read = genome.substring(start, start + 500);
            if start % 240 == 0 {
                read
            } else {
                read.reverse_complement()
            }
        })
        .collect()
}

/// How many occurrences of a reliable k-mer at rate 1 on one rank fall
/// in a later window of `cfg.batch_kmers` than the k-mer's first
/// occurrence in the same read (the scan is the reads' hits end to end).
fn repeats_past_a_window_boundary(hits: &[Vec<KmerHit>], cfg: &KmerConfig) -> usize {
    let reliable = reliable_kmers(hits, cfg);
    let mut at = 0;
    let mut past = 0;
    for read_hits in hits {
        let mut first_window: HashMap<u64, usize> = HashMap::new();
        for (i, hit) in read_hits.iter().enumerate() {
            let window = (at + i) / cfg.batch_kmers;
            let first = *first_window.entry(hit.kmer).or_insert(window);
            past += usize::from(first != window && reliable.contains(&hit.kmer));
        }
        at += read_hits.len();
    }
    past
}

#[test]
fn candidate_matrix_is_the_reliable_shared_kmer_pairs_with_true_seeds() {
    let (celegans, derived) = dataset();
    assert!(
        derived.kmer.sample_rate > 1,
        "celegans-like reads are sampled"
    );
    let mut every_kmer = derived.clone();
    every_kmer.kmer.sample_rate = 1;
    // Tandem repeats under windows of 64 occurrences: a k-mer repeated
    // within a read often lands in a later window of A's build than its
    // first occurrence, and A must still hold it once, there.
    let tandem = tandem_reads();
    let mut small_windows = every_kmer.clone();
    small_windows.kmer.batch_kmers = 64;
    let tandem_hits: Vec<Vec<KmerHit>> = tandem
        .iter()
        .map(|read| canonical_kmers(read, small_windows.kmer.k))
        .collect();
    let past = repeats_past_a_window_boundary(&tandem_hits, &small_windows.kmer);
    assert!(past > 100, "{past} repeats lie past a window boundary");
    for (reads, cfg, min_pairs) in [
        (&celegans, every_kmer, 1001),
        (&celegans, derived, 1001),
        (&tandem, small_windows, tandem.len()),
    ] {
        let s = cfg.kmer.sample_rate;
        let hits: Vec<Vec<KmerHit>> = reads
            .iter()
            .map(|read| canonical_kmers(read, cfg.kmer.k))
            .collect();
        let reliable = reliable_kmers(&hits, &cfg.kmer);
        let want = oracle_pairs(&hits, &reliable);
        assert!(
            want.len() >= min_pairs,
            "s={s}: a candidate set worth checking: {} pairs",
            want.len()
        );
        let reliable_first = |read: u64, pos: u32| -> &KmerHit {
            let read_hits = &hits[read as usize];
            let hit = &read_hits[pos as usize];
            assert_eq!(hit.pos, pos);
            assert!(
                reliable.contains(&hit.kmer),
                "s={s}: a seed names a reliable sampled k-mer"
            );
            assert_eq!(
                read_hits.iter().find(|h| h.kmer == hit.kmer).map(|h| h.pos),
                Some(pos),
                "s={s}: a seed sits on its k-mer's first occurrence in read {read}"
            );
            hit
        };
        for p in [1usize, 4] {
            for (label, spgemm) in [
                ("unbudgeted", SpGemmOptions::pipelined()),
                ("eager", SpGemmOptions::eager()),
                ("budgeted 64 KiB", SpGemmOptions::budgeted(64 << 10)),
            ] {
                let c = gathered_c(reads, &cfg, p, spgemm);
                let got: BTreeSet<(u64, u64)> = c.iter().map(|&(i, j, _)| (i, j)).collect();
                assert_eq!(
                    got.len(),
                    c.len(),
                    "{label} s={s} p={p}: one entry per pair"
                );
                assert!(
                    got == want,
                    "{label} s={s} p={p}: {} entries, oracle {}; {} missing, {} extra",
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
                            "{label} s={s} p={p}: seed {seed:?} of ({i}, {j}) names two k-mers"
                        );
                        assert_eq!(
                            seed.same_strand,
                            v.fwd == h.fwd,
                            "{label} s={s} p={p}: strand of seed {seed:?} of ({i}, {j})"
                        );
                    }
                }
            }
        }
    }
}

/// Counts are context-free: with the reliable band narrowed to one count
/// `c`, the table `count_kmers` builds at the derived rate holds exactly
/// the sampled k-mers of the table it builds at rate 1, for every `c` up
/// to the largest count — so every kept k-mer's count at rate `s` is its
/// count at rate 1 — at p ∈ {1, 4}.
#[test]
fn sampled_kmer_counts_are_their_counts_at_rate_one() {
    let (reads, derived) = dataset();
    let s = derived.kmer.sample_rate;
    assert!(s > 1, "celegans-like reads are sampled");
    let hits: Vec<Vec<KmerHit>> = reads
        .iter()
        .map(|read| canonical_kmers(read, derived.kmer.k))
        .collect();
    let kmers: Vec<u64> = kmer_counts(&hits).into_keys().collect();
    let most = kmer_counts(&hits).into_values().max().expect("k-mers");
    let kept = kmers.iter().filter(|&&kmer| kmer_sampled(kmer, s)).count();
    assert!(
        kept * (s as usize) < 2 * kmers.len(),
        "s={s} keeps {kept} of {} k-mers",
        kmers.len()
    );
    for p in [1usize, 4] {
        let (reads, kmers, derived) = (reads.clone(), kmers.clone(), derived.kmer.clone());
        Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let grid = ProcGrid::new(comm);
            let rank = grid.world().rank();
            let store = ReadStore::from_replicated(&grid, &reads);
            let owned: Vec<u64> = kmers
                .iter()
                .copied()
                .filter(|&kmer| kmer_owner(kmer, p) == rank)
                .collect();
            for c in 1..=most {
                let band = KmerConfig {
                    reliable_min: c,
                    reliable_max: c,
                    ..derived.clone()
                };
                let every = count_kmers(
                    &grid,
                    &store,
                    &KmerConfig {
                        sample_rate: 1,
                        ..band.clone()
                    },
                );
                let sampled = count_kmers(&grid, &store, &band);
                let mut want = 0;
                for &kmer in &owned {
                    let expected = kmer_sampled(kmer, s) && every.id_of(kmer).is_some();
                    want += usize::from(expected);
                    assert_eq!(
                        sampled.id_of(kmer).is_some(),
                        expected,
                        "p={p} rank {rank}: count {c} of k-mer {kmer:#x} at s={s}"
                    );
                }
                assert_eq!(sampled.n_local(), want, "p={p} rank {rank}: count {c}");
            }
        });
    }
}
