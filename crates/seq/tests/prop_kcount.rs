//! Property tests pinning the k-mer stage to a comm-free serial oracle
//! on 1×1, 2×2 and 3×3 grids: the oracle's `KmerTable` contents, the
//! oracle's A-matrix triples, and exchange buffering bounded by
//! `batch_kmers`, across randomized read sets, k values, batch sizes and
//! sample rates.

use elba_comm::ProcGrid;
use elba_comm::{Backend, Runner};
use elba_seq::kcount::{kmer_owner, kmer_sampled};
use elba_seq::kmer::canonical_kmers;
use elba_seq::{
    build_a_triples_with_stats, count_kmers_with_stats, AEntry, KmerConfig, KmerTable, ReadStore,
    Seq,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

include!("common/kmer_oracle.rs");

/// Random 2-bit base codes → `Seq`s (length 0 reads are legal and must
/// simply contribute nothing).
fn seqs_from(codes: &[Vec<u8>]) -> Vec<Seq> {
    codes
        .iter()
        .map(|read| Seq::from_codes(read.iter().map(|b| b % 4).collect()))
        .collect()
}

/// Run the stage on `p` ranks and hold every rank to the oracle, and
/// every leg of both exchanges to `batch_kmers` items: counting's
/// outgoing buckets and inbound chunks; A's queries out, answers in and
/// queries in from any one source.
fn check_stage(reads: &[Seq], cfg: &KmerConfig, p: usize) {
    let oracle = serial_kmer_stage(reads, cfg, p);
    let (reads, cfg) = (reads.to_vec(), cfg.clone());
    Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
        let grid = ProcGrid::new(comm);
        let store = ReadStore::from_replicated(&grid, &reads);
        let (table, count_stats) = count_kmers_with_stats(&grid, &store, &cfg);
        let (triples, triple_stats) = build_a_triples_with_stats(&grid, &store, &table, &cfg);
        let rank = grid.world().rank();
        assert_matches_oracle(rank, &table, &triples, &oracle);
        let batch = cfg.batch_kmers;
        for (leg, items) in [
            ("count out", count_stats.peak_outgoing_items),
            ("count in", count_stats.peak_inbound_items),
            ("queries out", triple_stats.peak_outgoing_items),
            ("answers in", triple_stats.peak_answer_items),
            ("queries in per source", triple_stats.peak_inbound_items),
        ] {
            assert!(items <= batch, "rank {rank}: {leg} {items} > batch {batch}");
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn stage_matches_serial_oracle_on_all_grids(
        p_idx in 0usize..3,
        k in 4usize..8,
        batch in 1usize..40,
        reliable_min in 1u32..3,
        sample_rate in 1u32..4,
        codes in proptest::collection::vec(proptest::collection::vec(0u8..4, 0..40), 1..10),
    ) {
        let cfg = KmerConfig {
            k,
            reliable_min,
            reliable_max: u32::MAX,
            batch_kmers: batch,
            threads: 1,
            sample_rate,
        };
        check_stage(&seqs_from(&codes), &cfg, [1usize, 4, 9][p_idx]);
    }
}

/// Reads sampled from one short random genome on both strands, so
/// k-mers repeat across reads and the reliable band has work to do.
fn sampled_reads(rng: &mut StdRng) -> Vec<Seq> {
    let genome: Vec<u8> = (0..rng.gen_range(1..400usize))
        .map(|_| rng.gen_range(0..4u8))
        .collect();
    (0..rng.gen_range(0..30usize))
        .map(|_| {
            let len = rng.gen_range(0..=genome.len().min(150));
            let start = rng.gen_range(0..=genome.len() - len);
            let read = Seq::from_codes(genome[start..start + len].to_vec());
            if rng.gen_bool(0.5) {
                read.reverse_complement()
            } else {
                read
            }
        })
        .collect()
}

/// The oracle check at CI scale: 240 seeded cases over p ∈ {1, 4, 9},
/// batch sizes from 1 up, reliable bands, k, thread counts and sample
/// rates. Run it in
/// release: `cargo test --release -p elba-seq --test prop_kcount --
/// --ignored`.
#[test]
#[ignore = "240-case stress; run in release"]
fn stage_matches_serial_oracle_stress() {
    let mut rng = StdRng::seed_from_u64(2027);
    for case in 0..240usize {
        let batch_kmers = match case % 4 {
            0 => 1,
            1 => rng.gen_range(2..8),
            2 => rng.gen_range(8..64),
            _ => rng.gen_range(64..1024),
        };
        let reliable_min = rng.gen_range(1..4u32);
        let cfg = KmerConfig {
            k: rng.gen_range(1..=21),
            reliable_min,
            reliable_max: reliable_min + rng.gen_range(0..8u32),
            batch_kmers,
            threads: [1, 3][case / 3 % 2],
            sample_rate: [1, 1, 2, 6][case / 6 % 4],
        };
        check_stage(&sampled_reads(&mut rng), &cfg, [1, 4, 9][case % 3]);
    }
}

/// Run the stage on 1×1, 2×2 and 3×3 grids and hold every rank to the
/// serial oracle.
fn assert_stage_matches_oracle(reads: &[Seq], k: usize, reliable_min: u32, batch_kmers: usize) {
    let cfg = KmerConfig {
        k,
        reliable_min,
        reliable_max: u32::MAX,
        batch_kmers,
        threads: 1,
        sample_rate: 1,
    };
    for p in [1usize, 4, 9] {
        check_stage(reads, &cfg, p);
    }
}

fn dna(reads: &[&str]) -> Vec<Seq> {
    reads.iter().map(|r| r.parse().expect("dna")).collect()
}

#[test]
fn empty_read_set_yields_an_empty_table() {
    assert_stage_matches_oracle(&[], 5, 1, 8);
}

#[test]
fn fewer_reads_than_ranks() {
    // Seven of nine ranks scan nothing but still own k-mers.
    assert_stage_matches_oracle(&dna(&["ACGTTGCAAGGCTA", "TTGCAAGGCTACCA"]), 5, 1, 4);
}

#[test]
fn reads_shorter_than_k_contribute_nothing() {
    let reads = dna(&["ACGT", "", "TTGCA", "G"]);
    assert_stage_matches_oracle(&reads, 6, 1, 4);
    let cfg = KmerConfig {
        k: 6,
        reliable_min: 1,
        ..KmerConfig::default()
    };
    assert!(serial_kmer_stage(&reads, &cfg, 1).0[0].is_empty());
}

#[test]
fn homopolymers_and_palindromes() {
    // Poly-A and poly-T are one canonical k-mer (packed value 0) seen on
    // opposite strands, many times per read; every 4-mer window of
    // (ACGT)ⁿ and every 6-mer of (GAATTC)ⁿ that is its own reverse
    // complement ties in `canonical`, which must then report forward.
    let reads = dna(&[
        "AAAAAAAAAAAAAAAA",
        "TTTTTTTTTTTTTTTT",
        "ACGTACGTACGTACGT",
        "GAATTCGAATTCGAATTC",
        "CCCCCCCCGGGGGGGG",
    ]);
    for k in [1usize, 4, 6] {
        for reliable_min in [1u32, 2] {
            assert_stage_matches_oracle(&reads, k, reliable_min, 5);
        }
    }
}

#[test]
fn identical_reads() {
    let reads = dna(&["ACGTTGCAAGGCTACCATGATTACAGGCATCGA"; 12]);
    assert_stage_matches_oracle(&reads, 7, 2, 16);
}

#[test]
fn smallest_middle_and_largest_k() {
    let reads = dna(&[
        "ACGTTGCAAGGCTACCATGATTACAGGCATCGATTGCAACGGTACCTAGG",
        "GCTACCATGATTACAGGCATCGATTGCAACGGTACCTAGGATCCGATAGC",
        "CCTAGGTACCGTTGCAATCGATGCCTGTAATCATGGTAGCCTTGCAACGT",
    ]);
    for k in [1usize, 17, 31] {
        assert_stage_matches_oracle(&reads, k, 1, 32);
    }
}

/// 31-base reads whose single k-mer is `A · (20 free bases) · GATTACAGAC`:
/// the forward strand is canonical (it starts with `A`, its reverse
/// complement with `G`), so every k-mer of the set carries the same low
/// 20 bits. An unkeyed multiplicative hash — `kmer · odd` — maps equal
/// low bits to equal low bits, which is where a `HashMap` picks its
/// bucket: all `N` keys of `KmerTable::local` and of a window's slot map
/// would walk one probe sequence, O(N²) in all. The stage's tables are
/// keyed per process (the owner's counts are a sorted buffer, no hash
/// table), so this input costs what any other `N` k-mers cost.
#[test]
fn kmers_crafted_to_collide_in_the_low_bits_stay_linear() {
    const N: u64 = 300_000;
    let suffix: Seq = "GATTACAGAC".parse().expect("dna");
    let reads: Vec<Seq> = (0..N)
        .map(|i| {
            let mut codes = vec![0u8];
            codes.extend((0..20).rev().map(|b| ((i >> (2 * b)) & 3) as u8));
            codes.extend_from_slice(suffix.codes());
            Seq::from_codes(codes)
        })
        .collect();
    let cfg = KmerConfig {
        k: 31,
        reliable_min: 1,
        ..KmerConfig::default()
    };
    let oracle = serial_kmer_stage(&reads, &cfg, 1);
    assert_eq!(oracle.0[0].len() as u64, N);
    let low_bits = |kmer: u64| kmer & ((1 << 20) - 1);
    assert!(oracle.0[0]
        .iter()
        .all(|&(kmer, _)| low_bits(kmer) == low_bits(oracle.0[0][0].0)));
    let started = std::time::Instant::now();
    Runner::new(Backend::InProcess).ranks(1).run(move |comm| {
        let grid = ProcGrid::new(comm);
        let store = ReadStore::from_replicated(&grid, &reads);
        let (table, _) = count_kmers_with_stats(&grid, &store, &cfg);
        let (triples, _) = build_a_triples_with_stats(&grid, &store, &table, &cfg);
        assert_matches_oracle(0, &table, &triples, &oracle);
    });
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(20),
        "{N} colliding k-mers took {elapsed:?}"
    );
}
