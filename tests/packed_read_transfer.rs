//! Reads cross ranks packed four bases per byte. Both sequence transfers
//! — `ReadStore::exchange` (contig redistribution) and
//! `ReadStore::fetch_named` (the alignment fetch) — must deliver exactly
//! the input codes for reads of every length modulo 4 and 8, empty reads
//! included, on every grid shape and on both transports; the fetch must
//! deliver exactly the reads a rank's block names and it lacks.

use std::collections::BTreeSet;

use elba::prelude::*;
use elba::seq::store::MPI_COUNT_LIMIT;
use elba::sparse::DistMat;
use proptest::prelude::*;

/// Three reads of every length 0..=17, with codes that differ from read
/// to read and base to base.
fn reads() -> Vec<Seq> {
    (0..54usize)
        .map(|i| {
            let len = i % 18;
            Seq::from_codes(
                (0..len)
                    .map(|j| ((i * 7 + j * j * 3 + j / 3) % 4) as u8)
                    .collect(),
            )
        })
        .collect()
}

/// Whether `store` holds exactly the reads `ids`, each with its input
/// codes.
fn holds_exactly(store: &ReadStore, ids: impl IntoIterator<Item = u64>, all: &[Seq]) -> bool {
    let mut expect: Vec<u64> = ids.into_iter().collect();
    expect.sort_unstable();
    let mut held: Vec<u64> = store.iter().map(|(id, _)| id).collect();
    held.sort_unstable();
    held == expect
        && store
            .iter()
            .all(|(id, codes)| codes == all[id as usize].codes())
}

/// `check` must hold on every rank of every grid, on both backends.
fn for_each_grid(check: fn(&ProcGrid, &[Seq]) -> bool) {
    for backend in [Backend::InProcess, Backend::Socket] {
        for p in [1, 4, 9] {
            let out = Runner::new(backend).ranks(p).run(move |comm| {
                let grid = ProcGrid::new(comm);
                check(&grid, &reads())
            });
            assert!(out.iter().all(|&ok| ok), "{backend:?} p={p}: {out:?}");
        }
    }
}

/// Read `id` goes to rank `id % p`, and every fifth read also to the
/// next rank (a contig boundary needing the read on two ranks).
fn targets(id: u64, p: usize) -> Vec<usize> {
    let home = id as usize % p;
    if id.is_multiple_of(5) {
        vec![home, (home + 1) % p]
    } else {
        vec![home]
    }
}

fn exchange_delivers(grid: &ProcGrid, all: &[Seq], count_limit: usize) -> bool {
    let (p, me) = (grid.world().size(), grid.world().rank());
    let store = ReadStore::from_replicated(grid, all);
    let moved = store.exchange(grid, |id| targets(id, p), count_limit);
    let mine = (0..all.len() as u64).filter(|&id| targets(id, p).contains(&me));
    holds_exactly(&moved, mine, all)
}

#[test]
fn exchange_delivers_every_read_length_to_one_or_two_ranks() {
    for_each_grid(|grid, all| exchange_delivers(grid, all, MPI_COUNT_LIMIT));
}

#[test]
fn exchange_over_the_count_limit_delivers_every_read_length() {
    // Every non-empty payload exceeds 4 packed bytes: the
    // contiguous-datatype path.
    for_each_grid(|grid, all| exchange_delivers(grid, all, 4));
}

/// Fetch the reads the local block of the strict upper `pairs` names:
/// the fetched store must hold exactly the named reads this rank lacks,
/// each intact.
fn fetch_delivers(
    grid: &ProcGrid,
    all: &[Seq],
    pairs: Vec<(u64, u64, ())>,
    count_limit: usize,
) -> bool {
    let n = all.len();
    let store = ReadStore::from_replicated(grid, all);
    let c = DistMat::from_triples(grid, n, n, pairs, |_, _| ());
    let fetched = store.fetch_named(grid, &c, count_limit);
    let named: BTreeSet<u64> = (c.iter_global(grid))
        .flat_map(|(i, j, _)| [i, j])
        .filter(|&id| store.get(id).is_none())
        .collect();
    holds_exactly(&fetched, named, all)
}

/// Every strict-upper pair of `n` reads: each rank on or above the
/// diagonal names its whole row and column ranges.
fn all_pairs(n: usize) -> Vec<(u64, u64, ())> {
    let n = n as u64;
    (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j, ())))
        .collect()
}

#[test]
fn fetch_named_delivers_every_read_length() {
    for_each_grid(|grid, all| fetch_delivers(grid, all, all_pairs(all.len()), MPI_COUNT_LIMIT));
}

#[test]
fn fetch_named_over_the_count_limit_delivers_every_read_length() {
    for_each_grid(|grid, all| fetch_delivers(grid, all, all_pairs(all.len()), 4));
}

#[test]
fn a_read_named_by_two_ranks_reaches_both_and_an_empty_block_receives_none() {
    // 54 reads on a 2 × 2 grid: ranks 0–3 hold reads 0..14, 14..27,
    // 27..41 and 41..54. Read 30 is rank 2's; rank 1 names it as a
    // column of (2, 30) and rank 3 as a row of (30, 45). Rank 0's
    // diagonal block and rank 2's block below the diagonal are empty.
    for backend in [Backend::InProcess, Backend::Socket] {
        let out = Runner::new(backend).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            let all = reads();
            assert_eq!(ReadStore::initial_owner(all.len(), 2, 30), 2);
            let store = ReadStore::from_replicated(&grid, &all);
            let pairs = vec![(2, 30, ()), (30, 45, ())];
            let c = DistMat::from_triples(&grid, all.len(), all.len(), pairs, |_, _| ());
            let fetched = store.fetch_named(&grid, &c, MPI_COUNT_LIMIT);
            let intact = (fetched.iter()).all(|(id, codes)| codes == all[id as usize].codes());
            let mut ids: Vec<u64> = fetched.iter().map(|(id, _)| id).collect();
            ids.sort_unstable();
            (ids, intact)
        });
        let expect: [&[u64]; 4] = [&[], &[2, 30], &[], &[30]];
        for (rank, (ids, intact)) in out.iter().enumerate() {
            assert_eq!(ids, expect[rank], "{backend:?} rank {rank}");
            assert!(intact, "{backend:?} rank {rank}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // each case spins up an in-process cluster
        .. ProptestConfig::default()
    })]

    /// For a random strict-upper pattern, count limit and grid, each
    /// rank's fetched store holds exactly the reads its block names and
    /// its own store lacks: with the own store, every named read and
    /// nothing more.
    #[test]
    fn the_fetch_brings_exactly_the_reads_the_block_names(
        n in 1usize..=54,
        pairs in proptest::collection::vec((0u64..54, 0u64..54), 0..40),
        limit in (0usize..3).prop_map(|i| [0, 4, MPI_COUNT_LIMIT][i]),
        q in 1usize..=3,
    ) {
        let pairs: Vec<(u64, u64, ())> = pairs
            .into_iter()
            .map(|(a, b)| (a % n as u64, b % n as u64))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b), ()))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let out = Runner::new(Backend::InProcess).ranks(q * q).run(move |comm| {
            let grid = ProcGrid::new(comm);
            let all: Vec<Seq> = reads().into_iter().take(n).collect();
            fetch_delivers(&grid, &all, pairs.clone(), limit)
        });
        prop_assert!(out.iter().all(|&ok| ok), "{:?}", out);
    }
}
