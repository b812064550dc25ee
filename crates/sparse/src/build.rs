//! The triples → CSR builder under [`crate::Csr`]`::from_triples`.
//!
//! A CSR matrix is a pointer array over its rows, the column indices
//! grouped by row and ascending inside each, and the values alongside.
//! Building one is a bucket sort, not a comparison sort (CombBLAS' counting-sort
//! tuple ingestion): count the entries per row, give every input its
//! stable destination, move it there, and only then look inside the
//! rows — which are short (a row of an overlap matrix holds a handful
//! of entries) and usually arrive ascending already. Every step is
//! linear in `nnz + nrows`; the one comparison sort left is per row
//! and runs only on a row whose columns are out of order.
//!
//! The move has two forms, chosen by what the counting pass sees. When
//! every part ascends by row (the sorted lists a distributed build
//! receives, one per source) it is a merge: each part is read front to
//! back once. Otherwise values are collected in input order and permuted
//! in place along the permutation's cycles. Neither wraps a value in an
//! `Option`, clones it or leaves a slot uninitialized.
//!
//! Input that is already ascending by `(row, col)` — every build on
//! one rank, every matrix rebuilt from its own entries — skips all of it:
//! one check pass, one emit pass.

use crate::csr::entry_offset;

/// `(indptr, column indices, values)` of a CSR matrix.
pub(crate) type Compressed<T> = (Vec<u32>, Vec<u32>, Vec<T>);

/// Compress `parts` — read as one concatenated triple list, never
/// materialized as one — into `nrows` rows. Entries sharing a coordinate
/// are merged with `combine`, applied left to right in input order.
pub(crate) fn compress<T>(
    nrows: usize,
    ncols: usize,
    parts: Vec<Vec<(u32, u32, T)>>,
    combine: impl FnMut(&mut T, T),
) -> Compressed<T> {
    let n: usize = parts.iter().map(Vec::len).sum();
    // Every offset and destination below is a `u32`.
    entry_offset(n);
    let coords = || parts.iter().flatten().map(|&(r, c, _)| (r, c));
    debug_assert!(
        coords().all(|(r, c)| (r as usize) < nrows && (c as usize) < ncols),
        "triple outside the {nrows} × {ncols} shape"
    );
    if coords().is_sorted() {
        return fold_sorted(nrows, n, parts.into_iter().flatten(), combine);
    }

    // Stable counting sort on the row: row sizes first, which fix every
    // input's destination.
    let mut ptr = vec![0u32; nrows + 1];
    let mut parts_ascend = true;
    for part in &parts {
        let mut below = 0u32;
        for &(r, _, _) in part {
            ptr[r as usize + 1] += 1;
            parts_ascend &= below <= r;
            below = r;
        }
    }
    for m in 0..nrows {
        ptr[m + 1] += ptr[m];
    }
    let cursor = ptr[..nrows].to_vec();
    let (mut idx, mut val) = if parts_ascend && u16::try_from(parts.len()).is_ok() {
        merge_ascending_parts(n, parts, cursor)
    } else {
        scatter_and_permute(n, parts, cursor)
    };

    // Inside each row: nothing to do when the columns ascend strictly;
    // a stable sort by column when they are out of order (equal columns
    // keep input order, which is what `combine` folds in).
    let mut duplicates = false;
    let (mut order, mut dest): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
    for m in 0..nrows {
        let run = ptr[m] as usize..ptr[m + 1] as usize;
        if idx[run.clone()].windows(2).all(|w| w[0] < w[1]) {
            continue;
        }
        if !idx[run.clone()].is_sorted() {
            let cols = &mut idx[run.clone()];
            order.clear();
            order.extend(0..cols.len() as u32);
            order.sort_by_key(|&k| cols[k as usize]);
            dest.clear();
            dest.resize(cols.len(), 0);
            for (pos, &src) in order.iter().enumerate() {
                dest[src as usize] = pos as u32;
            }
            let values = &mut val[run.clone()];
            permute(&mut dest, |i, j| {
                cols.swap(i, j);
                values.swap(i, j);
            });
        }
        duplicates |= idx[run].windows(2).any(|w| w[0] == w[1]);
    }
    if !duplicates {
        return (ptr, idx, val);
    }
    let rows =
        (0..nrows).flat_map(|m| std::iter::repeat_n(m as u32, (ptr[m + 1] - ptr[m]) as usize));
    let entries = rows.zip(idx).zip(val).map(|((r, c), v)| (r, c, v));
    fold_sorted(nrows, n, entries, combine)
}

/// Group by row when every part already ascends by row — what a rank
/// holds after the all-to-all of a distributed build whose sources each
/// sent a sorted list. A part then reaches its slots front to back, so
/// noting which part fills each slot turns the move into a merge: one
/// cursor per part, every triple read once in order and written once in
/// order. `cursor[m]` is where row `m` starts.
fn merge_ascending_parts<T>(
    n: usize,
    parts: Vec<Vec<(u32, u32, T)>>,
    mut cursor: Vec<u32>,
) -> (Vec<u32>, Vec<T>) {
    let mut origin = vec![0u16; n];
    for (k, part) in parts.iter().enumerate() {
        for &(r, _, _) in part {
            let slot = &mut cursor[r as usize];
            origin[*slot as usize] = k as u16;
            *slot += 1;
        }
    }
    drop(cursor);
    let mut heads: Vec<_> = parts.into_iter().map(Vec::into_iter).collect();
    let mut idx = Vec::with_capacity(n);
    let mut val = Vec::with_capacity(n);
    for k in origin {
        let (_, c, v) = heads[usize::from(k)].next().expect("one input per slot");
        idx.push(c);
        val.push(v);
    }
    (idx, val)
}

/// Group by row whatever the input order: every input's stable
/// destination is computed and applied. Columns are `Copy` and go
/// straight to their slot; values are collected in input order and
/// permuted in place, so no value is ever wrapped, cloned or left
/// uninitialized. `cursor[m]` is where row `m` starts.
fn scatter_and_permute<T>(
    n: usize,
    parts: Vec<Vec<(u32, u32, T)>>,
    mut cursor: Vec<u32>,
) -> (Vec<u32>, Vec<T>) {
    let mut dest: Vec<u32> = Vec::with_capacity(n);
    let mut idx = vec![0u32; n];
    let mut val: Vec<T> = Vec::with_capacity(n);
    for (r, c, v) in parts.into_iter().flatten() {
        let slot = &mut cursor[r as usize];
        dest.push(*slot);
        idx[*slot as usize] = c;
        *slot += 1;
        val.push(v);
    }
    drop(cursor);
    permute(&mut dest, |i, j| val.swap(i, j));
    (idx, val)
}

/// Move every element to `dest[i]` by following the permutation's
/// cycles: each swap puts one element in its final place, so the whole
/// pass is at most `len` swaps. `dest` is consumed (it ends as the
/// identity).
fn permute(dest: &mut [u32], mut swap: impl FnMut(usize, usize)) {
    for i in 0..dest.len() {
        while dest[i] as usize != i {
            let j = dest[i] as usize;
            swap(i, j);
            dest.swap(i, j);
        }
    }
}

/// Compress entries that arrive ascending by `(row, col)`: one pass
/// that opens a slot per new coordinate and folds a repeated one into
/// the slot before it.
fn fold_sorted<T>(
    nrows: usize,
    capacity: usize,
    entries: impl Iterator<Item = (u32, u32, T)>,
    mut combine: impl FnMut(&mut T, T),
) -> Compressed<T> {
    let mut ptr = vec![0u32; nrows + 1];
    let mut idx = Vec::with_capacity(capacity);
    let mut val: Vec<T> = Vec::with_capacity(capacity);
    let mut last: Option<(u32, u32)> = None;
    for (r, c, v) in entries {
        if last == Some((r, c)) {
            combine(val.last_mut().expect("duplicate follows an entry"), v);
        } else {
            ptr[r as usize + 1] += 1;
            idx.push(c);
            val.push(v);
            last = Some((r, c));
        }
    }
    for m in 0..nrows {
        ptr[m + 1] += ptr[m];
    }
    (ptr, idx, val)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Csr;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type Triples = Vec<(u32, u32, u64)>;

    /// Order-sensitive on purpose: folding duplicates in any order but
    /// the input's gives a different value.
    fn combine(acc: &mut u64, v: u64) {
        *acc = acc.wrapping_mul(31).wrapping_add(v);
    }

    /// The builder this module replaced, kept as the oracle: a stable
    /// comparison sort of all triples by `(row, col)`, then compress.
    fn sort_and_compress(nrows: usize, mut triples: Triples) -> Compressed<u64> {
        triples.sort_by_key(|&(r, c, _)| (r, c));
        let mut ptr = vec![0u32; nrows + 1];
        let mut idx = Vec::new();
        let mut val: Vec<u64> = Vec::new();
        let mut last: Option<(u32, u32)> = None;
        for (r, c, v) in triples {
            if last == Some((r, c)) {
                combine(val.last_mut().expect("duplicate follows an entry"), v);
            } else {
                ptr[r as usize + 1] += 1;
                idx.push(c);
                val.push(v);
                last = Some((r, c));
            }
        }
        for m in 0..nrows {
            ptr[m + 1] += ptr[m];
        }
        (ptr, idx, val)
    }

    /// The constructor and the part-wise entry point against the oracle,
    /// on the triples and on their transpose (few long rows become many
    /// short ones).
    fn check(nrows: usize, ncols: usize, triples: &Triples, cuts: usize) {
        check_rows(nrows, ncols, triples, cuts);
        let swapped: Triples = triples.iter().map(|&(r, c, v)| (c, r, v)).collect();
        check_rows(ncols, nrows, &swapped, cuts);
    }

    fn check_rows(nrows: usize, ncols: usize, triples: &Triples, cuts: usize) {
        let (ptr, idx, val) = sort_and_compress(nrows, triples.clone());
        let csr = Csr::from_triples(nrows, ncols, triples.clone(), combine);
        assert_eq!(
            (csr.indptr(), csr.indices(), csr.values()),
            (&ptr[..], &idx[..], &val[..]),
            "csr"
        );
        let parts: Vec<Triples> = (0..cuts)
            .map(|k| triples[triples.len() * k / cuts..triples.len() * (k + 1) / cuts].to_vec())
            .collect();
        assert_eq!(
            Csr::from_triple_parts(nrows, ncols, parts, combine),
            csr,
            "{cuts} parts"
        );
    }

    fn shuffle<X>(items: &mut [X], rng: &mut StdRng) {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.gen_range(0..=i));
        }
    }

    fn random_triples(rng: &mut StdRng, nrows: usize, ncols: usize, n: usize) -> Triples {
        (0..n)
            .map(|_| {
                (
                    rng.gen_range(0..nrows as u32),
                    rng.gen_range(0..ncols as u32),
                    rng.gen_range(0..1000u64),
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Small shapes, so most coordinates repeat and most rows arrive
        /// out of order.
        #[test]
        fn random_triples_with_duplicates_match_the_oracle(
            seed in 0u64..1_000_000,
            nrows in 1usize..12,
            ncols in 1usize..12,
            n in 0usize..200,
            cuts in 1usize..5,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            check(nrows, ncols, &random_triples(&mut rng, nrows, ncols, n), cuts);
        }

        /// Hypersparse shapes: most rows and columns stay empty.
        #[test]
        fn mostly_empty_rows_and_columns_match_the_oracle(
            seed in 0u64..1_000_000,
            nrows in 1usize..2000,
            ncols in 1usize..2000,
            n in 0usize..60,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            check(nrows, ncols, &random_triples(&mut rng, nrows, ncols, n), 3);
        }

        /// `p` sorted runs concatenated — what a rank holds after the
        /// all-to-all of a distributed build — with rows either disjoint
        /// between the runs or shared by all of them.
        #[test]
        fn concatenated_sorted_runs_match_the_oracle(
            seed in 0u64..1_000_000,
            p in 1usize..6,
            disjoint_rows: bool,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (nrows, ncols) = (40usize, 30usize);
            let mut triples = Triples::new();
            for k in 0..p {
                let mut run = random_triples(&mut rng, nrows, ncols, 80);
                if disjoint_rows {
                    run.retain(|&(r, _, _)| r as usize % p == k);
                }
                run.sort_by_key(|&(r, c, _)| (r, c));
                triples.extend(run);
            }
            check(nrows, ncols, &triples, p);
        }
    }

    #[test]
    fn degenerate_shapes_match_the_oracle() {
        check(0, 0, &vec![], 1);
        check(0, 7, &vec![], 2);
        check(7, 0, &vec![], 2);
        check(5, 5, &vec![], 3);
        check(1, 1, &vec![(0, 0, 3), (0, 0, 4), (0, 0, 5)], 2);
    }

    #[test]
    fn one_very_long_row_in_every_order() {
        let mut rng = StdRng::seed_from_u64(9);
        let ncols = 5000usize;
        let ascending: Triples = (0..ncols as u32).map(|c| (2, c, c as u64)).collect();
        check(4, ncols, &ascending, 1);
        let reversed: Triples = ascending.iter().rev().copied().collect();
        check(4, ncols, &reversed, 2);
        let mut shuffled = ascending.clone();
        shuffle(&mut shuffled, &mut rng);
        // Every column twice, so the long row also folds duplicates.
        shuffled.extend(ascending.iter().map(|&(r, c, v)| (r, c, v + 1)));
        check(4, ncols, &shuffled, 3);
        // The same as one long *column*.
        let column: Triples = shuffled.iter().map(|&(r, c, v)| (c, r, v)).collect();
        check(ncols, 4, &column, 3);
    }

    #[test]
    fn ascending_and_reverse_ordered_inputs_match_the_oracle() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut sorted = random_triples(&mut rng, 50, 50, 400);
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        check(50, 50, &sorted, 1); // non-descending: duplicates adjacent
        sorted.dedup_by_key(|&mut (r, c, _)| (r, c));
        check(50, 50, &sorted, 4); // strictly ascending
        sorted.reverse();
        check(50, 50, &sorted, 4);
    }

    #[test]
    fn permute_moves_every_element_to_its_destination() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [0usize, 1, 2, 17, 256] {
            let mut dest: Vec<u32> = (0..n as u32).collect();
            shuffle(&mut dest, &mut rng);
            let want = dest.clone();
            let mut items: Vec<usize> = (0..n).collect();
            permute(&mut dest, |i, j| items.swap(i, j));
            for (from, &to) in want.iter().enumerate() {
                assert_eq!(items[to as usize], from);
            }
            assert!(dest.iter().enumerate().all(|(i, &d)| d as usize == i));
        }
    }
}
