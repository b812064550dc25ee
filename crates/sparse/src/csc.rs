//! Compressed sparse column storage with the paper's field names:
//! `JC` (column pointers), `IR` (row indices), `VAL` (edge payloads).
//!
//! ELBA converts each rank's induced-subgraph block from DCSC to CSC
//! before local assembly "for simplicity and faster vertex (column)
//! indexing" (§4.4) — the local-assembly walk reads `JC[c+1] − JC[c]` as
//! the vertex degree and scans `IR[JC[c]..JC[c+1]]` for successors. This
//! type exposes exactly those access patterns.
//!
//! [`Csc::from_triples`] is the CSR builder (`build.rs`) with the roles
//! of row and column swapped: a counting sort on the column, linear in
//! `nnz + ncols`. The induced subgraph is built through it directly,
//! with no hypersparse format in between.

/// Sparse matrix in CSC form.
#[derive(Debug, Clone, PartialEq)]
pub struct Csc<T> {
    nrows: usize,
    ncols: usize,
    /// Column pointer array (`JC` in the paper), length `ncols + 1`.
    jc: Vec<usize>,
    /// Row index array (`IR`), length `nnz`.
    ir: Vec<u32>,
    /// Value array (`VAL`), length `nnz`.
    val: Vec<T>,
}

impl<T> Csc<T> {
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Csc {
            nrows,
            ncols,
            jc: vec![0; ncols + 1],
            ir: Vec::new(),
            val: Vec::new(),
        }
    }

    /// Build from triples; duplicates merged with `combine` (left to
    /// right in input order). The CSR builder with the roles of row and
    /// column swapped (`build.rs`): linear in `nnz + ncols`.
    pub fn from_triples(
        nrows: usize,
        ncols: usize,
        triples: Vec<(u32, u32, T)>,
        combine: impl FnMut(&mut T, T),
    ) -> Self {
        let (jc, ir, val) =
            crate::build::compress(ncols, nrows, vec![triples], |r, c| (c, r), combine);
        Csc {
            nrows,
            ncols,
            jc,
            ir,
            val,
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
        self.ir.len()
    }

    /// The paper's `JC` column-pointer array.
    #[inline]
    pub fn jc(&self) -> &[usize] {
        &self.jc
    }

    /// The paper's `IR` row-index array.
    #[inline]
    pub fn ir(&self) -> &[u32] {
        &self.ir
    }

    /// The paper's `VAL` payload array.
    #[inline]
    pub fn val(&self) -> &[T] {
        &self.val
    }

    /// Degree of vertex (column) `j`: `JC[j+1] − JC[j]` — the expression
    /// the local-assembly root scan evaluates.
    #[inline]
    pub fn degree(&self, j: usize) -> usize {
        self.jc[j + 1] - self.jc[j]
    }

    /// Row indices and values stored in column `j` (the successor slice
    /// `IR[JC[c] .. JC[c+1]]`).
    #[inline]
    pub fn col(&self, j: usize) -> (&[u32], &[T]) {
        let span = self.jc[j]..self.jc[j + 1];
        (&self.ir[span.clone()], &self.val[span])
    }

    /// Value at `(i, j)` if stored.
    pub fn get(&self, i: usize, j: usize) -> Option<&T> {
        let (rows, vals) = self.col(j);
        rows.binary_search(&(i as u32)).ok().map(|k| &vals[k])
    }

    /// Iterate entries as `(row, col, &value)` in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, &T)> {
        (0..self.ncols).flat_map(move |j| {
            let (rows, vals) = self.col(j);
            rows.iter().zip(vals).map(move |(&r, v)| (r, j as u32, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csc<i32> {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        Csc::from_triples(
            3,
            3,
            vec![(2, 1, 4), (0, 0, 1), (0, 2, 2), (2, 0, 3)],
            |_, _| panic!("no duplicates"),
        )
    }

    #[test]
    fn columns_are_grouped() {
        let m = sample();
        assert_eq!(m.col(0), (&[0u32, 2][..], &[1, 3][..]));
        assert_eq!(m.col(1), (&[2u32][..], &[4][..]));
        assert_eq!(m.col(2), (&[0u32][..], &[2][..]));
    }

    #[test]
    fn degree_matches_paper_expression() {
        let m = sample();
        assert_eq!(m.degree(0), 2);
        assert_eq!(m.degree(1), 1);
        assert_eq!(m.degree(2), 1);
        assert_eq!(m.jc()[1] - m.jc()[0], 2);
    }

    #[test]
    fn get_and_iter_column_major() {
        let m = sample();
        assert_eq!(m.get(2, 0), Some(&3));
        assert_eq!(m.get(1, 1), None);
        let order: Vec<_> = m.iter().map(|(r, c, &v)| (r, c, v)).collect();
        assert_eq!(order, vec![(0, 0, 1), (2, 0, 3), (2, 1, 4), (0, 2, 2)]);
    }

    #[test]
    fn duplicate_merge() {
        let m = Csc::from_triples(2, 2, vec![(1, 1, 5), (1, 1, 6)], |acc, v| *acc += v);
        assert_eq!(m.get(1, 1), Some(&11));
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn empty() {
        let m: Csc<u8> = Csc::empty(3, 4);
        assert_eq!(m.degree(3), 0);
        assert_eq!(m.nnz(), 0);
    }
}
