//! Compressed sparse row storage — the one local format: the block of
//! every distributed matrix and the subgraph local assembly walks.
//! Column indices are `u32` (a local block never exceeds 2³² rows or
//! columns in any ELBA workload), and so are the row offsets: a block
//! holds under 2³² entries, and every builder checks that through
//! `entry_offset`, which panics naming the limit. A block of `nrows`
//! rows and `nnz` entries is `4·(nrows + 1) + nnz·(4 + size_of::<T>())`
//! bytes ([`Csr::heap_bytes`]).
//!
//! [`Csr::from_triples`] is a counting sort on the row index, linear in
//! `nnz + nrows` (`build.rs`). Triples that arrive already in
//! row-major order (every build on one rank) cost one check pass and one
//! emit pass; the sorted per-source lists a distributed build receives
//! are merged without being concatenated first.
//!
//! On the wire a block costs its entries, not its row count, and each
//! column index what its gap needs. The frame is one run of LEB128
//! varints (`elba_comm::transport::wire`) and then the values:
//! - `nrows`, `ncols`, `nnz`;
//! - per non-empty row, `empty rows skipped` and `len − 1`, then its
//!   columns as gaps: the first column, then `c − prev − 1`;
//! - the empty rows after the last non-empty one.
//!
//! A hypersparse off-diagonal block of the √P×√P grid (`n/√P` rows,
//! about `nnz/P` entries) ships only its non-empty rows, in place of
//! CombBLAS' DCSC (Buluç and Gilbert, IPDPS 2008), and a dense row
//! ships about a byte per entry of structure. Falling or repeated
//! columns cannot be written. [`elba_comm::CommMsg::nbytes`] is the
//! coded length, computed in one pass over the rows; the decoder
//! rebuilds the dense in-memory form after checking that every row
//! count, offset and column is one a kernel can follow.

use elba_comm::transport::wire::{varint_len, write_varint, WireError, WireReader};
use elba_comm::CommMsg;

/// The `u32` offset of entry `n` of a block: every builder's check that
/// the block holds under 2³² entries.
#[inline]
pub(crate) fn entry_offset(n: usize) -> u32 {
    u32::try_from(n)
        .unwrap_or_else(|_| panic!("a local sparse block holds under 2^32 entries, not {n}"))
}

/// A sparse matrix in CSR form with explicit `(indptr, indices, values)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<T> {
    nrows: usize,
    ncols: usize,
    indptr: Vec<u32>,
    indices: Vec<u32>,
    values: Vec<T>,
}

impl<T> Csr<T> {
    /// Empty matrix of the given shape.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Csr {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Build from (row, col, value) triples; duplicates are merged with
    /// `combine` (applied left-to-right in input order). Linear in
    /// `nnz + nrows` (see `build.rs`): a counting sort on the row,
    /// not a comparison sort of the triples.
    pub fn from_triples(
        nrows: usize,
        ncols: usize,
        triples: Vec<(u32, u32, T)>,
        combine: impl FnMut(&mut T, T),
    ) -> Self {
        Self::from_triple_parts(nrows, ncols, vec![triples], combine)
    }

    /// [`Csr::from_triples`] of `parts` read as one concatenated list —
    /// what a rank holds after an all-to-all, one part per source —
    /// without concatenating them first.
    pub(crate) fn from_triple_parts(
        nrows: usize,
        ncols: usize,
        parts: Vec<Vec<(u32, u32, T)>>,
        combine: impl FnMut(&mut T, T),
    ) -> Self {
        let (indptr, indices, values) = crate::build::compress(nrows, ncols, parts, combine);
        Csr {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        }
    }

    /// Build from parts already in canonical CSR order (sorted, deduped).
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<u32>,
        indices: Vec<u32>,
        values: Vec<T>,
    ) -> Self {
        assert_eq!(indptr.len(), nrows + 1);
        assert_eq!(indices.len(), values.len());
        assert_eq!(
            *indptr.last().expect("indptr non-empty") as usize,
            indices.len()
        );
        debug_assert!(indices.iter().all(|&c| (c as usize) < ncols));
        Csr {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        }
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    #[inline]
    pub fn indptr(&self) -> &[u32] {
        &self.indptr
    }

    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Bytes of heap storage behind this matrix (4-byte offsets +
    /// indices + values, by length). The quantity every stage charges
    /// against the memory tracker; deterministic across runs, unlike
    /// capacities.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<u32>()
            + self.indices.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<T>()
    }

    /// [`Csr::heap_bytes`] of [`Csr::transposed`], from the shape alone:
    /// `ncols + 1` offsets and the same entries.
    #[inline]
    pub fn transposed_heap_bytes(&self) -> usize {
        (self.ncols + 1) * std::mem::size_of::<u32>()
            + self.nnz() * (std::mem::size_of::<u32>() + std::mem::size_of::<T>())
    }

    /// [`Csr::heap_bytes`] plus the heap owned *inside* the stored
    /// values ([`elba_mem::DeepBytes`]): the true resident footprint for
    /// value types that are not plain-old-data (a `Vec`-carrying matrix
    /// entry would be undercounted at `size_of`). Equal to `heap_bytes`
    /// for POD values.
    pub fn deep_heap_bytes(&self) -> usize
    where
        T: elba_mem::DeepBytes,
    {
        self.heap_bytes()
            + self
                .values
                .iter()
                .map(elba_mem::DeepBytes::deep_bytes)
                .sum::<usize>()
    }

    /// Positions of row `i`'s entries in [`Csr::indices`] and
    /// [`Csr::values`].
    #[inline]
    pub(crate) fn row_span(&self, i: usize) -> std::ops::Range<usize> {
        self.indptr[i] as usize..self.indptr[i + 1] as usize
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[T]) {
        let span = self.row_span(i);
        (&self.indices[span.clone()], &self.values[span])
    }

    /// Number of stored entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_span(i).len()
    }

    /// Value at `(i, j)` if stored.
    pub fn get(&self, i: usize, j: usize) -> Option<&T> {
        let (cols, vals) = self.row(i);
        cols.binary_search(&(j as u32)).ok().map(|k| &vals[k])
    }

    /// Iterate all stored entries as `(row, col, &value)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, &T)> {
        (0..self.nrows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(&c, v)| (i as u32, c, v))
        })
    }

    /// Consume into the raw `(indptr, indices, values)` arrays — the
    /// inverse of [`Csr::from_parts`]. Used by the blocked SUMMA path to
    /// concatenate disjoint row-batch outputs without re-sorting.
    pub fn into_parts(self) -> (Vec<u32>, Vec<u32>, Vec<T>) {
        (self.indptr, self.indices, self.values)
    }

    /// Consume into (row, col, value) triples in row-major order.
    pub fn into_triples(self) -> Vec<(u32, u32, T)> {
        let mut out = Vec::with_capacity(self.nnz());
        let mut values = self.values.into_iter();
        for i in 0..self.nrows {
            for k in self.indptr[i] as usize..self.indptr[i + 1] as usize {
                out.push((
                    i as u32,
                    self.indices[k],
                    values.next().expect("value per index"),
                ));
            }
        }
        out
    }

    /// Keep only entries satisfying the predicate (CombBLAS `Prune`).
    pub fn retain(self, mut keep: impl FnMut(u32, u32, &T) -> bool) -> Csr<T> {
        let mut values = self.values.into_iter();
        filter_entries(
            self.nrows,
            self.ncols,
            &self.indptr,
            &self.indices,
            |i, c| {
                let v = values.next().expect("value per index");
                keep(i, c, &v).then_some(v)
            },
        )
    }

    /// [`Csr::retain`] of a borrowed matrix, cloning each kept value once
    /// — what a shared (`Arc`-held) block is pruned with while its other
    /// references stay alive. `keep` sees the entries in storage order.
    pub fn filtered(&self, mut keep: impl FnMut(u32, u32, &T) -> bool) -> Csr<T>
    where
        T: Clone,
    {
        let mut values = self.values.iter();
        filter_entries(
            self.nrows,
            self.ncols,
            &self.indptr,
            &self.indices,
            |i, c| {
                let v = values.next().expect("value per index");
                keep(i, c, v).then(|| v.clone())
            },
        )
    }

    /// Local transpose that moves every value: the builder run on the
    /// swapped triples (O(nnz + dims); each row of `self` is swept in
    /// order, so the transposed rows need no sort).
    pub fn transpose(self) -> Csr<T> {
        let (nrows, ncols) = (self.ncols, self.nrows);
        let swapped = self.into_triples().into_iter().map(|(r, c, v)| (c, r, v));
        Csr::from_triples(nrows, ncols, swapped.collect(), |_, _| {
            unreachable!("a stored coordinate is unique")
        })
    }

    /// Local transpose of a borrowed matrix, cloning each value once —
    /// what the distributed transpose runs on its (shared, `Arc`-held)
    /// local block. One counting pass over the columns; rows are swept
    /// in order, so each transposed row comes out sorted.
    pub fn transposed(&self) -> Csr<T>
    where
        T: Clone,
    {
        let mut indptr = vec![0u32; self.ncols + 1];
        for &c in &self.indices {
            indptr[c as usize + 1] += 1;
        }
        for j in 0..self.ncols {
            indptr[j + 1] += indptr[j];
        }
        let mut cursor = indptr.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut source = vec![0usize; self.nnz()];
        for i in 0..self.nrows {
            for k in self.row_span(i) {
                let c = self.indices[k] as usize;
                let pos = cursor[c] as usize;
                cursor[c] += 1;
                indices[pos] = i as u32;
                source[pos] = k;
            }
        }
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            indptr,
            indices,
            values: source.into_iter().map(|k| self.values[k].clone()).collect(),
        }
    }
}

/// The pass under [`Csr::retain`] and [`Csr::filtered`]: sweep a
/// structure in storage order and keep the entries `pick` returns a
/// value for. `pick` runs exactly once per entry (a predicate may
/// consume an iterator), so the survivors cannot be counted first: the
/// arrays start at the parent's size and give the slack back when they
/// end under half full — a heavily pruned matrix must not sit in its
/// parent's allocation while [`Csr::heap_bytes`] charges it by length.
fn filter_entries<T>(
    nrows: usize,
    ncols: usize,
    indptr: &[u32],
    indices: &[u32],
    mut pick: impl FnMut(u32, u32) -> Option<T>,
) -> Csr<T> {
    let mut kept_indptr = Vec::with_capacity(nrows + 1);
    kept_indptr.push(0u32);
    let mut kept_indices = Vec::with_capacity(indices.len());
    let mut kept_values = Vec::with_capacity(indices.len());
    for i in 0..nrows {
        for &c in &indices[indptr[i] as usize..indptr[i + 1] as usize] {
            if let Some(v) = pick(i as u32, c) {
                kept_indices.push(c);
                kept_values.push(v);
            }
        }
        kept_indptr.push(entry_offset(kept_indices.len()));
    }
    if kept_indices.len() < indices.len() / 2 {
        kept_indices.shrink_to_fit();
        kept_values.shrink_to_fit();
    }
    Csr {
        nrows,
        ncols,
        indptr: kept_indptr,
        indices: kept_indices,
        values: kept_values,
    }
}

impl<T> Csr<T> {
    /// Every varint of the frame's structure, in frame order: the shape,
    /// `nnz`, each non-empty row's `(empty rows skipped, len − 1)` and
    /// column gaps, and the empty rows after the last one.
    #[inline]
    fn for_each_code(&self, mut code: impl FnMut(u64)) {
        code(self.nrows as u64);
        code(self.ncols as u64);
        code(self.indices.len() as u64);
        let mut next_row = 0;
        for (i, w) in self.indptr.windows(2).enumerate() {
            if w[0] == w[1] {
                continue;
            }
            code((i - next_row) as u64);
            code(u64::from(w[1] - w[0] - 1));
            let cols = &self.indices[w[0] as usize..w[1] as usize];
            code(u64::from(cols[0]));
            for pair in cols.windows(2) {
                code(u64::from(pair[1] - pair[0] - 1));
            }
            next_row = i + 1;
        }
        code((self.nrows - next_row) as u64);
    }
}

impl<T: CommMsg + Clone> CommMsg for Csr<T> {
    fn nbytes(&self) -> usize {
        let mut bytes = 0;
        self.for_each_code(|v| bytes += varint_len(v));
        bytes + T::wire_slice_nbytes(&self.values)
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.for_each_code(|v| write_varint(out, v));
        T::wire_encode_slice(&self.values, out);
    }

    /// The inverse of `wire_encode`, into the dense in-memory form. A
    /// frame no encoder produces — a bad varint, a row past `nrows`, rows
    /// whose lengths overrun `nnz` or whose skips and trailing count miss
    /// `nrows`, a column at or past `ncols` — is [`WireError::Malformed`],
    /// so no accessor or kernel can index out of bounds on a decoded
    /// block. The offsets grow only as far as the row records reach, so
    /// a corrupt shape is refused before its rows are allocated.
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // Row ids and column indices are `u32`: a wider shape cannot be
        // addressed, and would only be an allocation.
        let dim = |r: &mut WireReader<'_>| {
            usize::try_from(r.read_varint()?)
                .ok()
                .filter(|&d| d as u64 <= 1 << 32)
                .ok_or(WireError::Malformed("csr shape"))
        };
        let (nrows, ncols) = (dim(r)?, dim(r)?);
        let nnz = usize::try_from(r.read_varint()?)
            .ok()
            .filter(|&n| n <= u32::MAX as usize)
            .ok_or(WireError::Malformed("csr offsets"))?;
        let rows_error = WireError::Malformed("csr rows");
        let mut indptr = vec![0u32];
        let mut indices = Vec::with_capacity(nnz.min(r.remaining()));
        while indices.len() < nnz {
            let skip = r.read_varint()?;
            if skip >= (nrows + 1 - indptr.len()) as u64 {
                return Err(rows_error);
            }
            let end = indptr[indptr.len() - 1];
            indptr.resize(indptr.len() + skip as usize, end);
            let len = r.read_varint()?;
            if len >= (nnz - indices.len()) as u64 {
                return Err(WireError::Malformed("csr offsets"));
            }
            let mut next = 0u64;
            for _ in 0..=len {
                let col = next
                    .checked_add(r.read_varint()?)
                    .filter(|&c| c < ncols as u64)
                    .ok_or(WireError::Malformed("csr columns"))?;
                indices.push(col as u32);
                next = col + 1;
            }
            indptr.push(entry_offset(indices.len()));
        }
        if r.read_varint()? != (nrows + 1 - indptr.len()) as u64 {
            return Err(rows_error);
        }
        indptr.resize(nrows + 1, entry_offset(nnz));
        let values = T::wire_decode_slice(nnz, r)?;
        Ok(Csr {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr<f64> {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        Csr::from_triples(
            3,
            3,
            vec![(2, 1, 4.0), (0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0)],
            |_, _| panic!("no duplicates"),
        )
    }

    #[test]
    fn from_triples_sorts() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row(0), (&[0u32, 2][..], &[1.0, 2.0][..]));
        assert_eq!(m.row(1).0.len(), 0);
        assert_eq!(m.row(2), (&[0u32, 1][..], &[3.0, 4.0][..]));
    }

    #[test]
    fn duplicates_merge() {
        let m = Csr::from_triples(
            2,
            2,
            vec![(0, 1, 1.0), (0, 1, 2.0), (0, 1, 4.0)],
            |acc, v| *acc += v,
        );
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 1), Some(&7.0));
    }

    #[test]
    fn get_and_iter() {
        let m = sample();
        assert_eq!(m.get(2, 1), Some(&4.0));
        assert_eq!(m.get(1, 1), None);
        let triples: Vec<_> = m.iter().map(|(r, c, &v)| (r, c, v)).collect();
        assert_eq!(
            triples,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]
        );
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let t = m.transposed();
        assert_eq!(t.get(1, 2), Some(&4.0));
        assert_eq!(t.get(0, 0), Some(&1.0));
        assert_eq!(t.get(2, 0), Some(&2.0));
        assert_eq!(m.clone().transpose(), t, "the moving transpose agrees");
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn retain_filters() {
        let m = sample().retain(|_, _, &v| v > 2.0);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(2, 0), Some(&3.0));
        assert_eq!(m.get(0, 0), None);
    }

    #[test]
    fn heavily_pruned_matrix_gives_its_slack_back() {
        let n = 1000usize;
        let row = || {
            let triples = (0..n as u32).map(|c| (0u32, c, c as f64)).collect();
            Csr::from_triples(1, n, triples, |_, _| unreachable!())
        };
        // Under half full: the arrays are cut to what survived.
        for few in [
            row().retain(|_, c, _| c % 10 == 0),
            row().filtered(|_, c, _| c % 10 == 0),
        ] {
            assert_eq!(few.nnz(), n / 10);
            assert!(few.indices.capacity() < n / 2, "{}", few.indices.capacity());
            assert!(few.values.capacity() < n / 2, "{}", few.values.capacity());
        }
        // Mostly kept: not worth a reallocation.
        let most = row().retain(|_, c, _| c % 10 != 0);
        assert_eq!(most.nnz(), n - n / 10);
        assert_eq!(most.indices.capacity(), n);
        assert_eq!(most.values.capacity(), n);
    }

    #[test]
    fn into_triples_round_trip() {
        let m = sample();
        let t = m.clone().into_triples();
        let rebuilt = Csr::from_triples(3, 3, t, |_, _| unreachable!());
        assert_eq!(rebuilt, m);
    }

    #[test]
    fn heap_bytes_book_four_byte_offsets() {
        assert_eq!(sample().heap_bytes(), 4 * 4 + 4 * (4 + 8));
        assert_eq!(Csr::<u8>::empty(204, 204).heap_bytes(), 820);
        let wide = Csr::from_triples(2, 7, vec![(0, 6, 1.0), (1, 2, 2.0)], |_, _| unreachable!());
        for m in [sample(), wide] {
            assert_eq!(m.transposed_heap_bytes(), m.transposed().heap_bytes());
        }
    }

    #[test]
    fn offsets_end_below_two_to_the_32() {
        assert_eq!(entry_offset(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "holds under 2^32 entries, not 4294967296")]
    fn a_block_of_two_to_the_32_entries_is_refused() {
        entry_offset(1 << 32);
    }

    #[test]
    fn empty_matrix() {
        let m: Csr<u8> = Csr::empty(4, 5);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.row(3).0.len(), 0);
    }
}
