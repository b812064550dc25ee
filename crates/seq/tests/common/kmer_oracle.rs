// Comm-free serial reference for the k-mer stage, `include!`d by
// `tests/prop_kcount.rs` and the `kcount` unit tests (the includer
// imports `Seq`, `canonical_kmers`, `kmer_owner`, `kmer_sampled`, `AEntry`,
// `KmerConfig`, `KmerTable` and `ReadStore`). Computed from the replicated
// reads alone: the sampled canonical k-mers → global multiplicities →
// reliable band → ids dense in (owner rank, k-mer) order →
// first-occurrence triples on the rank that holds the read.

/// What rank `r` of a `p`-rank run must hold: `.0[r]` its `(k-mer, id)`
/// table in k-mer order, `.1[r]` its A triples in canonical order.
type KmerOracle = (Vec<Vec<(u64, u64)>>, Vec<Vec<(u64, u64, AEntry)>>);

fn serial_kmer_stage(reads: &[Seq], cfg: &KmerConfig, p: usize) -> KmerOracle {
    let hits: Vec<Vec<_>> = reads
        .iter()
        .map(|r| {
            let mut hits = canonical_kmers(r, cfg.k);
            hits.retain(|hit| kmer_sampled(hit.kmer, cfg.sample_rate));
            hits
        })
        .collect();
    let mut counts = std::collections::BTreeMap::new();
    for hit in hits.iter().flatten() {
        *counts.entry(hit.kmer).or_insert(0u32) += 1;
    }
    let mut tables = vec![Vec::new(); p];
    for (&kmer, &c) in &counts {
        if (cfg.reliable_min..=cfg.reliable_max).contains(&c) {
            tables[kmer_owner(kmer, p)].push((kmer, 0u64));
        }
    }
    let mut ids = std::collections::HashMap::new();
    for entry in tables.iter_mut().flatten() {
        entry.1 = ids.len() as u64;
        ids.insert(entry.0, entry.1);
    }
    let q = (1..=p).find(|q| q * q == p).expect("square grid");
    let mut triples = vec![Vec::new(); p];
    for (read, read_hits) in hits.iter().enumerate() {
        let holder = ReadStore::initial_owner(reads.len(), q, read as u64);
        let mut seen = std::collections::HashSet::new();
        for hit in read_hits.iter().filter(|hit| seen.insert(hit.kmer)) {
            if let Some(&col) = ids.get(&hit.kmer) {
                let entry = AEntry {
                    pos: hit.pos,
                    fwd: hit.fwd,
                };
                triples[holder].push((read as u64, col, entry));
            }
        }
    }
    triples.iter_mut().for_each(|t| t.sort_unstable());
    (tables, triples)
}

/// Assert that `rank`'s distributed table and triples are the oracle's.
fn assert_matches_oracle(
    rank: usize,
    table: &KmerTable,
    triples: &[(u64, u64, AEntry)],
    (tables, oracle_triples): &KmerOracle,
) {
    let n_global: usize = tables.iter().map(Vec::len).sum();
    assert_eq!(table.n_global, n_global as u64, "rank {rank}: n_global");
    assert_eq!(table.n_local(), tables[rank].len(), "rank {rank}: n_local");
    for &(kmer, id) in &tables[rank] {
        assert_eq!(table.id_of(kmer), Some(id), "rank {rank}: id of {kmer:#x}");
    }
    assert_eq!(triples, &oracle_triples[rank][..], "rank {rank}: triples");
}
