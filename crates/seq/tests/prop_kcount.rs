//! Property tests pinning the k-mer stage to a comm-free serial oracle
//! on 1×1, 2×2 and 3×3 grids: the oracle's `KmerTable` contents, the
//! oracle's A-matrix triples, and exchange buffering bounded by
//! `batch_kmers`, across randomized read sets, k values and batch sizes.

use elba_comm::ProcGrid;
use elba_comm::{Backend, Runner};
use elba_seq::kcount::kmer_owner;
use elba_seq::kmer::canonical_kmers;
use elba_seq::{
    build_a_triples_with_stats, count_kmers_with_stats, AEntry, KmerConfig, KmerTable, ReadStore,
    Seq,
};
use proptest::prelude::*;

include!("common/kmer_oracle.rs");

/// Random 2-bit base codes → `Seq`s (length 0 reads are legal and must
/// simply contribute nothing).
fn seqs_from(codes: &[Vec<u8>]) -> Vec<Seq> {
    codes
        .iter()
        .map(|read| Seq::from_codes(read.iter().map(|b| b % 4).collect()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn stage_matches_serial_oracle_on_all_grids(
        p_idx in 0usize..3,
        k in 4usize..8,
        batch in 1usize..40,
        reliable_min in 1u32..3,
        codes in proptest::collection::vec(proptest::collection::vec(0u8..4, 0..40), 1..10),
    ) {
        let p = [1usize, 4, 9][p_idx];
        let reads = seqs_from(&codes);
        let cfg = KmerConfig {
            k,
            reliable_min,
            reliable_max: u32::MAX,
            batch_kmers: batch,
            threads: 1,
        };
        let oracle = serial_kmer_stage(&reads, &cfg, p);
        let ok = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let grid = ProcGrid::new(comm);
            let store = ReadStore::from_replicated(&grid, &reads);
            let (table, count_stats) = count_kmers_with_stats(&grid, &store, &cfg);
            let (triples, triple_stats) =
                build_a_triples_with_stats(&grid, &store, &table, &cfg);
            // The oracle's table and triples, rank by rank...
            assert_matches_oracle(grid.world().rank(), &table, &triples, &oracle);
            // ...and the streaming bound: never more than batch_kmers
            // buffered on either side of the exchange.
            assert!(count_stats.peak_outgoing_items <= batch);
            assert!(count_stats.peak_inbound_items <= batch);
            assert!(triple_stats.peak_outgoing_items <= batch);
            assert!(triple_stats.peak_inbound_items <= batch);
            true
        });
        prop_assert!(ok.iter().all(|&b| b), "p={}", p);
    }
}
