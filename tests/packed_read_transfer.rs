//! Reads cross ranks packed four bases per byte. Both sequence transfers
//! — `ReadStore::exchange` (contig redistribution) and
//! `ReadStore::fetch_block_aligned` (the alignment fetch) — must deliver
//! exactly the input codes for reads of every length modulo 4 and 8,
//! empty reads included, on every grid shape and on both transports.

use elba::prelude::*;
use elba::seq::store::MPI_COUNT_LIMIT;
use elba::sparse::layout::Layout2D;

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

#[test]
fn fetch_block_aligned_delivers_every_read_length() {
    for_each_grid(|grid, all| {
        let store = ReadStore::from_replicated(grid, all);
        let fetched = store.fetch_block_aligned(grid);
        let layout = Layout2D::new(all.len(), grid.q());
        let row = layout.block_range(grid.myrow());
        let col = layout.block_range(grid.mycol());
        let ids = row.clone().chain(col.filter(|g| !row.contains(g)));
        holds_exactly(&fetched, ids.map(|g| g as u64), all)
    });
}
