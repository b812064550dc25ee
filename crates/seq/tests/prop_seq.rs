//! Property tests for the genomics substrate: strand algebra, paper
//! slicing, k-mer canonicalization, FASTA round-trips, and the simulator
//! invariants that the quality evaluation depends on.

use elba_seq::dna::{complement, Seq};
use elba_seq::kmer::{
    canonical, canonical_kmers, pack, revcomp_packed, unpack_to_string, KmerHit, KmerScan,
};
use elba_seq::sim::{random_genome, simulate_reads, GenomeConfig, ReadSimConfig};
use proptest::prelude::*;

fn seq_strategy(max_len: usize) -> impl Strategy<Value = Seq> {
    proptest::collection::vec(0u8..4, 0..max_len).prop_map(Seq::from_codes)
}

proptest! {
    #[test]
    fn reverse_complement_is_involution(s in seq_strategy(300)) {
        prop_assert_eq!(s.reverse_complement().reverse_complement(), s);
    }

    #[test]
    fn complement_is_involution(b in 0u8..4) {
        prop_assert_eq!(complement(complement(b)), b);
    }

    #[test]
    fn rc_reverses_concatenation(a in seq_strategy(100), b in seq_strategy(100)) {
        // rc(a ⊕ b) == rc(b) ⊕ rc(a)
        let mut ab = a.clone();
        ab.extend_from(&b);
        let mut want = b.reverse_complement();
        want.extend_from(&a.reverse_complement());
        prop_assert_eq!(ab.reverse_complement(), want);
    }

    #[test]
    fn paper_slice_forward_and_reverse_agree(s in seq_strategy(120), x in 0usize..200, y in 0usize..200) {
        prop_assume!(!s.is_empty());
        let a = x % s.len();
        let b = y % s.len();
        // a == b is ambiguous in the paper's notation (a single base has
        // no direction); both orders then give the forward base.
        prop_assume!(a != b);
        let fwd = s.paper_slice(a.min(b), a.max(b));
        let rev = s.paper_slice(a.max(b), a.min(b));
        // l[j:i] is the reverse complement of l[i:j]
        prop_assert_eq!(rev, fwd.reverse_complement());
        prop_assert_eq!(fwd.len(), a.max(b) - a.min(b) + 1);
    }

    #[test]
    fn ascii_round_trip(s in seq_strategy(200)) {
        let text = s.to_string();
        let back: Seq = text.parse().expect("parse DNA");
        prop_assert_eq!(back, s);
    }

    #[test]
    fn packed_revcomp_matches_seq_revcomp(s in seq_strategy(40), k in 1usize..16) {
        prop_assume!(s.len() >= k);
        let packed = pack(&s, 0, k);
        let rc = revcomp_packed(packed, k);
        let want = s.substring(0, k).reverse_complement().to_string();
        prop_assert_eq!(unpack_to_string(rc, k), want);
    }

    #[test]
    fn slice_scan_equals_fresh_pack_at_every_position(s in seq_strategy(90)) {
        // The rolling scan against the definition, for every legal k:
        // one hit per window, in position order, each the canonical form
        // of a from-scratch `pack` and its `revcomp_packed`.
        for k in 1..=31usize {
            let want: Vec<KmerHit> = (0..(s.len() + 1).saturating_sub(k))
                .map(|pos| {
                    let fwd = pack(&s, pos, k);
                    let (kmer, fwd) = canonical(fwd, revcomp_packed(fwd, k));
                    KmerHit { kmer, pos: pos as u32, fwd }
                })
                .collect();
            let scan = KmerScan::new(s.codes(), k);
            prop_assert_eq!(scan.size_hint(), (want.len(), Some(want.len())), "k={}", k);
            prop_assert_eq!(scan.collect::<Vec<_>>(), want, "k={}", k);
        }
    }

    #[test]
    fn canonical_kmers_strand_invariant(s in seq_strategy(150), k in 3usize..12) {
        prop_assume!(s.len() >= k);
        let mut fwd: Vec<u64> = canonical_kmers(&s, k).into_iter().map(|h| h.kmer).collect();
        let mut rev: Vec<u64> =
            canonical_kmers(&s.reverse_complement(), k).into_iter().map(|h| h.kmer).collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        prop_assert_eq!(fwd, rev);
    }

    #[test]
    fn kmer_positions_in_bounds(s in seq_strategy(150), k in 3usize..12) {
        for hit in canonical_kmers(&s, k) {
            prop_assert!((hit.pos as usize) + k <= s.len());
        }
        if s.len() >= k {
            prop_assert_eq!(canonical_kmers(&s, k).len(), s.len() - k + 1);
        }
    }

    #[test]
    fn fasta_round_trip(seqs in proptest::collection::vec(seq_strategy(120), 0..6)) {
        use elba_seq::fasta::{read_fasta, write_fasta, FastaRecord};
        let records: Vec<FastaRecord> = seqs
            .into_iter()
            .enumerate()
            .map(|(i, seq)| FastaRecord { id: format!("r{i}"), seq })
            .collect();
        let mut buf = Vec::new();
        write_fasta(&mut buf, &records).expect("write");
        let back = read_fasta(std::io::BufReader::new(&buf[..])).expect("read");
        prop_assert_eq!(back, records);
    }

    #[test]
    fn error_free_simulated_reads_are_genome_substrings(seed in 0u64..500) {
        let genome = random_genome(&GenomeConfig {
            length: 4_000,
            repeat_fraction: 0.0,
            repeat_unit_len: 0,
            repeat_divergence: 0.0,
            seed,
        });
        let reads = simulate_reads(
            &genome,
            &ReadSimConfig { depth: 2.0, mean_len: 600, min_len: 200, error_rate: 0.0, seed },
        );
        for read in reads {
            let mut truth = genome.substring(read.truth.start, read.truth.end);
            if read.truth.rc {
                truth = truth.reverse_complement();
            }
            prop_assert_eq!(read.seq, truth);
        }
    }

    #[test]
    fn simulated_depth_is_respected(seed in 0u64..200, depth in 2u32..20) {
        let genome = random_genome(&GenomeConfig {
            length: 5_000,
            repeat_fraction: 0.0,
            repeat_unit_len: 0,
            repeat_divergence: 0.0,
            seed,
        });
        let reads = simulate_reads(
            &genome,
            &ReadSimConfig {
                depth: depth as f64,
                mean_len: 700,
                min_len: 200,
                error_rate: 0.0,
                seed: seed ^ 1,
            },
        );
        let total: usize = reads.iter().map(|r| r.seq.len()).sum();
        let want = depth as usize * 5_000;
        prop_assert!(total >= want, "total {} < target {}", total, want);
        // overshoot bounded by one read (the last one pushed us over)
        let max_read = reads.iter().map(|r| r.seq.len()).max().unwrap_or(0);
        prop_assert!(total < want + max_read + 1);
    }
}
