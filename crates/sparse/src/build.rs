//! The one triples → compressed builder under [`crate::Csr`] and
//! [`crate::Csc`]`::from_triples`.
//!
//! A compressed matrix is a pointer array over its *major* index (rows
//! for CSR, columns for CSC), the *minor* indices grouped by major
//! slice and ascending inside each, and the values alongside. Building
//! one is a bucket sort, not a comparison sort (CombBLAS' counting-sort
//! tuple ingestion): count the entries per major slice, give every input
//! its stable destination, move it there, and only then look inside the
//! slices — which are short (a row of an overlap matrix holds a handful
//! of entries) and usually arrive ascending already. Every step is
//! linear in `nnz + n_major`; the one comparison sort left is per slice
//! and runs only on a slice whose minors are out of order.
//!
//! The move has two forms, chosen by what the counting pass sees. When
//! every part ascends by major (the sorted lists a distributed build
//! receives, one per source) it is a merge: each part is read front to
//! back once. Otherwise values are collected in input order and permuted
//! in place along the permutation's cycles. Neither wraps a value in an
//! `Option`, clones it or leaves a slot uninitialized.
//!
//! Input that is already ascending by `(major, minor)` — every build on
//! one rank, every matrix rebuilt from its own entries — skips all of it:
//! one check pass, one emit pass.

/// `(pointers, minor indices, values)` of a compressed matrix.
pub(crate) type Compressed<T> = (Vec<usize>, Vec<u32>, Vec<T>);

/// Compress `parts` — read as one concatenated triple list, never
/// materialized as one — into `n_major` slices. `key` maps a triple's
/// `(row, col)` to `(major, minor)`. Entries sharing a coordinate are
/// merged with `combine`, applied left to right in input order.
pub(crate) fn compress<T>(
    n_major: usize,
    n_minor: usize,
    parts: Vec<Vec<(u32, u32, T)>>,
    key: impl Fn(u32, u32) -> (u32, u32) + Copy,
    combine: impl FnMut(&mut T, T),
) -> Compressed<T> {
    let n: usize = parts.iter().map(Vec::len).sum();
    let keys = || parts.iter().flatten().map(|&(r, c, _)| key(r, c));
    debug_assert!(
        keys().all(|(a, b)| (a as usize) < n_major && (b as usize) < n_minor),
        "triple outside the {n_major} × {n_minor} (major × minor) shape"
    );
    if keys().is_sorted() {
        let entries = parts.into_iter().flatten().map(|(r, c, v)| {
            let (a, b) = key(r, c);
            (a, b, v)
        });
        return fold_sorted(n_major, n, entries, combine);
    }

    // Stable counting sort on the major index: slice sizes first, which
    // fix every input's destination (kept as `u32`, like the indices).
    assert!(
        u32::try_from(n).is_ok(),
        "a local block holds under 2^32 triples"
    );
    let mut ptr = vec![0usize; n_major + 1];
    let mut parts_ascend = true;
    for part in &parts {
        let mut below = 0u32;
        for &(r, c, _) in part {
            let (a, _) = key(r, c);
            ptr[a as usize + 1] += 1;
            parts_ascend &= below <= a;
            below = a;
        }
    }
    for m in 0..n_major {
        ptr[m + 1] += ptr[m];
    }
    let cursor = ptr[..n_major].to_vec();
    let (mut idx, mut val) = if parts_ascend && u16::try_from(parts.len()).is_ok() {
        merge_ascending_parts(n, parts, cursor, key)
    } else {
        scatter_and_permute(n, parts, cursor, key)
    };

    // Inside each slice: nothing to do when the minors ascend strictly;
    // a stable sort by minor when they are out of order (equal minors
    // keep input order, which is what `combine` folds in).
    let mut duplicates = false;
    let (mut order, mut dest): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
    for m in 0..n_major {
        let run = ptr[m]..ptr[m + 1];
        if idx[run.clone()].windows(2).all(|w| w[0] < w[1]) {
            continue;
        }
        if !idx[run.clone()].is_sorted() {
            let minors = &mut idx[run.clone()];
            order.clear();
            order.extend(0..minors.len() as u32);
            order.sort_by_key(|&k| minors[k as usize]);
            dest.clear();
            dest.resize(minors.len(), 0);
            for (pos, &src) in order.iter().enumerate() {
                dest[src as usize] = pos as u32;
            }
            let values = &mut val[run.clone()];
            permute(&mut dest, |i, j| {
                minors.swap(i, j);
                values.swap(i, j);
            });
        }
        duplicates |= idx[run].windows(2).any(|w| w[0] == w[1]);
    }
    if !duplicates {
        return (ptr, idx, val);
    }
    let majors = (0..n_major).flat_map(|m| std::iter::repeat_n(m as u32, ptr[m + 1] - ptr[m]));
    let entries = majors.zip(idx).zip(val).map(|((a, b), v)| (a, b, v));
    fold_sorted(n_major, n, entries, combine)
}

/// Group by major when every part already ascends by major — what a
/// rank holds after the all-to-all of a distributed build whose sources
/// each sent a sorted list. A part then reaches its slots front to back,
/// so noting which part fills each slot turns the move into a merge: one
/// cursor per part, every triple read once in order and written once in
/// order. `cursor[m]` is where slice `m` starts.
fn merge_ascending_parts<T>(
    n: usize,
    parts: Vec<Vec<(u32, u32, T)>>,
    mut cursor: Vec<usize>,
    key: impl Fn(u32, u32) -> (u32, u32),
) -> (Vec<u32>, Vec<T>) {
    let mut origin = vec![0u16; n];
    for (k, part) in parts.iter().enumerate() {
        for &(r, c, _) in part {
            let slot = &mut cursor[key(r, c).0 as usize];
            origin[*slot] = k as u16;
            *slot += 1;
        }
    }
    drop(cursor);
    let mut heads: Vec<_> = parts.into_iter().map(Vec::into_iter).collect();
    let mut idx = Vec::with_capacity(n);
    let mut val = Vec::with_capacity(n);
    for k in origin {
        let (r, c, v) = heads[usize::from(k)].next().expect("one input per slot");
        idx.push(key(r, c).1);
        val.push(v);
    }
    (idx, val)
}

/// Group by major whatever the input order: every input's stable
/// destination is computed and applied. Minors are `Copy` and go straight
/// to their slot; values are collected in input order and permuted in
/// place, so no value is ever wrapped, cloned or left uninitialized.
/// `cursor[m]` is where slice `m` starts.
fn scatter_and_permute<T>(
    n: usize,
    parts: Vec<Vec<(u32, u32, T)>>,
    mut cursor: Vec<usize>,
    key: impl Fn(u32, u32) -> (u32, u32),
) -> (Vec<u32>, Vec<T>) {
    let mut dest: Vec<u32> = Vec::with_capacity(n);
    let mut idx = vec![0u32; n];
    let mut val: Vec<T> = Vec::with_capacity(n);
    for (r, c, v) in parts.into_iter().flatten() {
        let (a, b) = key(r, c);
        let slot = &mut cursor[a as usize];
        dest.push(*slot as u32);
        idx[*slot] = b;
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

/// Compress entries that arrive ascending by `(major, minor)`: one pass
/// that opens a slot per new coordinate and folds a repeated one into
/// the slot before it.
fn fold_sorted<T>(
    n_major: usize,
    capacity: usize,
    entries: impl Iterator<Item = (u32, u32, T)>,
    mut combine: impl FnMut(&mut T, T),
) -> Compressed<T> {
    let mut ptr = vec![0usize; n_major + 1];
    let mut idx = Vec::with_capacity(capacity);
    let mut val: Vec<T> = Vec::with_capacity(capacity);
    let mut last: Option<(u32, u32)> = None;
    for (a, b, v) in entries {
        if last == Some((a, b)) {
            combine(val.last_mut().expect("duplicate follows an entry"), v);
        } else {
            ptr[a as usize + 1] += 1;
            idx.push(b);
            val.push(v);
            last = Some((a, b));
        }
    }
    for m in 0..n_major {
        ptr[m + 1] += ptr[m];
    }
    (ptr, idx, val)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Csc, Csr};
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
    /// comparison sort of all triples by `(major, minor)`, then compress.
    fn sort_and_compress(
        n_major: usize,
        mut triples: Triples,
        key: impl Fn(u32, u32) -> (u32, u32),
    ) -> Compressed<u64> {
        triples.sort_by_key(|&(r, c, _)| {
            let (a, b) = key(r, c);
            ((a as u64) << 32) | b as u64
        });
        let mut ptr = vec![0usize; n_major + 1];
        let mut idx = Vec::new();
        let mut val: Vec<u64> = Vec::new();
        let mut last: Option<(u32, u32)> = None;
        for (r, c, v) in triples {
            if last == Some((r, c)) {
                combine(val.last_mut().expect("duplicate follows an entry"), v);
            } else {
                ptr[key(r, c).0 as usize + 1] += 1;
                idx.push(key(r, c).1);
                val.push(v);
                last = Some((r, c));
            }
        }
        for m in 0..n_major {
            ptr[m + 1] += ptr[m];
        }
        (ptr, idx, val)
    }

    /// Both constructors and the part-wise entry point against the
    /// oracle.
    fn check(nrows: usize, ncols: usize, triples: &Triples, cuts: usize) {
        let (ptr, idx, val) = sort_and_compress(nrows, triples.clone(), |r, c| (r, c));
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

        let (ptr, idx, val) = sort_and_compress(ncols, triples.clone(), |r, c| (c, r));
        let csc = Csc::from_triples(nrows, ncols, triples.clone(), combine);
        assert_eq!(
            (csc.jc(), csc.ir(), csc.val()),
            (&ptr[..], &idx[..], &val[..]),
            "csc"
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
