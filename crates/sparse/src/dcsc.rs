//! Doubly compressed sparse column (DCSC) storage (Buluç & Gilbert 2008).
//!
//! A 2D-distributed block is *hypersparse*: its nnz is far smaller than
//! its dimension, so a CSC column-pointer array of length `ncols + 1`
//! would dwarf the payload. DCSC stores pointers only for the non-empty
//! columns. ELBA keeps pipeline matrices in DCSC and converts each local
//! induced-subgraph block to CSC just before local assembly (§4.4) — "only
//! column pointers need to be uncompressed and the row indices array stays
//! intact"; [`Dcsc::to_csc`] is exactly that expansion: the pointer array
//! is re-expanded in O(columns) and `ir`/`val` move over untouched.
//!
//! [`Dcsc::from_triples`] is the CSC builder (`build.rs`: a counting sort
//! on the column, no comparison sort of the triples) minus the empty
//! columns' pointers.

use crate::csc::Csc;
use crate::csr::Csr;

/// Sparse matrix storing only non-empty columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Dcsc<T> {
    nrows: usize,
    ncols: usize,
    /// Indices of the non-empty columns, ascending (`JC` in DCSC papers).
    jc: Vec<u32>,
    /// Pointer per non-empty column into `ir`/`val` (`CP`), length `jc.len()+1`.
    cp: Vec<usize>,
    /// Row indices, grouped by non-empty column.
    ir: Vec<u32>,
    val: Vec<T>,
}

impl<T> Dcsc<T> {
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Dcsc {
            nrows,
            ncols,
            jc: Vec::new(),
            cp: vec![0],
            ir: Vec::new(),
            val: Vec::new(),
        }
    }

    /// Build from triples; duplicates merged with `combine` (left to
    /// right in input order): the CSC builder (`build.rs`) minus the
    /// empty columns' pointers.
    pub fn from_triples(
        nrows: usize,
        ncols: usize,
        triples: Vec<(u32, u32, T)>,
        combine: impl FnMut(&mut T, T),
    ) -> Self {
        let (jc, ir, val) =
            crate::build::compress(ncols, nrows, vec![triples], |r, c| (c, r), combine);
        Self::from_transposed_csr(Csr::from_parts(ncols, nrows, jc, ir, val))
    }

    pub fn from_csr(m: Csr<T>) -> Self {
        Self::from_transposed_csr(m.transpose())
    }

    /// The DCSC of `M` from a CSR of `Mᵀ`: a column of `M` is a row of
    /// `Mᵀ`, so dropping the empty rows' pointers is the whole
    /// conversion — `indices` and `values` move over untouched
    /// (O(rows of `Mᵀ`), no per-entry work).
    pub fn from_transposed_csr(t: Csr<T>) -> Self {
        let (nrows, ncols) = (t.ncols(), t.nrows());
        let (indptr, ir, val) = t.into_parts();
        let mut jc = Vec::new();
        let mut cp = vec![0usize];
        for (j, span) in indptr.windows(2).enumerate() {
            if span[1] > span[0] {
                jc.push(j as u32);
                cp.push(span[1]);
            }
        }
        Dcsc {
            nrows,
            ncols,
            jc,
            cp,
            ir,
            val,
        }
    }

    /// Inverse of [`Dcsc::from_transposed_csr`]: re-expand the column
    /// pointers into the row pointers of `Mᵀ`'s CSR (O(columns)).
    pub fn into_transposed_csr(self) -> Csr<T> {
        let mut indptr = Vec::with_capacity(self.ncols + 1);
        indptr.push(0usize);
        for (&j, &end) in self.jc.iter().zip(&self.cp[1..]) {
            // Columns up to `j` exclusive are empty: they repeat the
            // previous end; column `j` itself closes at `end`.
            let prev = *indptr.last().expect("indptr starts at 0");
            indptr.resize(j as usize + 1, prev);
            indptr.push(end);
        }
        indptr.resize(self.ncols + 1, self.ir.len());
        Csr::from_parts(self.ncols, self.nrows, indptr, self.ir, self.val)
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

    /// Number of non-empty columns (the quantity DCSC compresses on).
    #[inline]
    pub fn nzc(&self) -> usize {
        self.jc.len()
    }

    /// Look up a column by global index (binary search over `jc`).
    pub fn col(&self, j: usize) -> (&[u32], &[T]) {
        match self.jc.binary_search(&(j as u32)) {
            Ok(k) => {
                let span = self.cp[k]..self.cp[k + 1];
                (&self.ir[span.clone()], &self.val[span])
            }
            Err(_) => (&[], &[]),
        }
    }

    pub fn get(&self, i: usize, j: usize) -> Option<&T> {
        let (rows, vals) = self.col(j);
        rows.binary_search(&(i as u32)).ok().map(|k| &vals[k])
    }

    /// Iterate entries as `(row, col, &value)` in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, &T)> {
        (0..self.jc.len()).flat_map(move |k| {
            let col = self.jc[k];
            let span = self.cp[k]..self.cp[k + 1];
            self.ir[span.clone()]
                .iter()
                .zip(&self.val[span])
                .map(move |(&r, v)| (r, col, v))
        })
    }

    /// Uncompress to CSC: expand `jc`/`cp` into a full column-pointer
    /// array; `ir` and `val` are reused unchanged (the paper's §4.4
    /// conversion, linear in the number of columns).
    pub fn to_csc(self) -> Csc<T> {
        let (nrows, ncols) = (self.nrows, self.ncols);
        let (jc, ir, val) = self.into_transposed_csr().into_parts();
        Csc::from_parts(nrows, ncols, jc, ir, val)
    }

    /// Memory footprint in bytes of the index structure (excludes values);
    /// used by tests asserting DCSC beats CSC on hypersparse blocks.
    pub fn index_bytes(&self) -> usize {
        self.jc.len() * 4 + self.cp.len() * 8 + self.ir.len() * 4
    }
}

/// On an MPI wire a DCSC block is one count header, a `(u32 column,
/// u32 length)` pair per non-empty column, and a `u32` row index plus
/// the value per entry — the receiver knows the shape from its layout.
/// That is `8 + 8·nzc + nnz·(4 + |T|)` bytes: never more than the
/// `8 + nnz·(16 + |T|)` of the same entries as global triples, and
/// independent of the block's dimensions (a CSR's `indptr` is not).
impl<T: elba_comm::CommMsg> elba_comm::CommMsg for Dcsc<T> {
    fn nbytes(&self) -> usize {
        8 + self.jc.len() * 8
            + self.ir.len() * 4
            + self.val.iter().map(|v| v.nbytes()).sum::<usize>()
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.nrows as u64).to_ne_bytes());
        out.extend_from_slice(&(self.ncols as u64).to_ne_bytes());
        self.jc.wire_encode(out);
        self.cp.wire_encode(out);
        self.ir.wire_encode(out);
        self.val.wire_encode(out);
    }

    fn wire_decode(
        r: &mut elba_comm::transport::wire::WireReader<'_>,
    ) -> Result<Self, elba_comm::transport::wire::WireError> {
        use elba_comm::transport::wire::WireError;
        let nrows =
            usize::try_from(r.read_u64()?).map_err(|_| WireError::Malformed("dcsc shape"))?;
        let ncols =
            usize::try_from(r.read_u64()?).map_err(|_| WireError::Malformed("dcsc shape"))?;
        let jc = Vec::<u32>::wire_decode(r)?;
        let cp = Vec::<usize>::wire_decode(r)?;
        let ir = Vec::<u32>::wire_decode(r)?;
        let val = Vec::<T>::wire_decode(r)?;
        // Structural sanity, so a corrupt frame cannot expand into a
        // CSR whose accessors index out of bounds.
        let consistent = cp.len() == jc.len() + 1
            && cp.first() == Some(&0)
            && cp.last() == Some(&ir.len())
            && ir.len() == val.len()
            && cp.windows(2).all(|w| w[0] < w[1])
            && jc.windows(2).all(|w| w[0] < w[1])
            && jc.last().is_none_or(|&j| (j as usize) < ncols);
        if !consistent {
            return Err(WireError::Malformed("dcsc structure"));
        }
        Ok(Dcsc {
            nrows,
            ncols,
            jc,
            cp,
            ir,
            val,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hypersparse() -> Dcsc<u8> {
        // 1000x1000 with 3 entries in 2 columns.
        Dcsc::from_triples(
            1000,
            1000,
            vec![(5, 700, 1), (900, 2, 2), (10, 700, 3)],
            |_, _| unreachable!(),
        )
    }

    #[test]
    fn stores_only_nonempty_columns() {
        let m = hypersparse();
        assert_eq!(m.nzc(), 2);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.col(700), (&[5u32, 10][..], &[1u8, 3][..]));
        assert_eq!(m.col(3).0.len(), 0);
    }

    #[test]
    fn get_matches() {
        let m = hypersparse();
        assert_eq!(m.get(900, 2), Some(&2));
        assert_eq!(m.get(5, 700), Some(&1));
        assert_eq!(m.get(5, 701), None);
    }

    #[test]
    fn to_csc_preserves_entries() {
        let m = hypersparse();
        let entries: Vec<_> = m.iter().map(|(r, c, &v)| (r, c, v)).collect();
        let csc = m.to_csc();
        let csc_entries: Vec<_> = csc.iter().map(|(r, c, &v)| (r, c, v)).collect();
        assert_eq!(entries, csc_entries);
        assert_eq!(csc.degree(700), 2);
    }

    #[test]
    fn index_smaller_than_csc_for_hypersparse() {
        let m = hypersparse();
        let csc_index_bytes = (m.ncols() + 1) * 8 + m.nnz() * 4;
        assert!(m.index_bytes() < csc_index_bytes / 10);
    }

    #[test]
    fn from_csr_round_trip() {
        let csr = Csr::from_triples(
            6,
            6,
            vec![(0u32, 5u32, 1.5f64), (3, 2, 2.5), (5, 5, 3.5)],
            |_, _| unreachable!(),
        );
        let entries: Vec<_> = csr.iter().map(|(r, c, &v)| (r, c, v)).collect();
        let dcsc = Dcsc::from_csr(csr);
        let mut got: Vec<_> = dcsc.iter().map(|(r, c, &v)| (r, c, v)).collect();
        got.sort_by_key(|&(r, c, _)| (r, c));
        let mut want = entries;
        want.sort_by_key(|&(r, c, _)| (r, c));
        assert_eq!(got, want);
    }

    #[test]
    fn transposed_csr_round_trip() {
        // Empty leading, interior and trailing rows of Mᵀ, and no rows at all.
        for triples in [
            vec![(2u32, 0u32, 1u8), (2, 5, 2), (4, 1, 3), (7, 7, 4)],
            vec![(0, 0, 1)],
            vec![(9, 3, 1)],
            vec![],
        ] {
            let t = Csr::from_triples(10, 8, triples, |_, _| unreachable!());
            let m = Dcsc::from_transposed_csr(t.clone());
            assert_eq!((m.nrows(), m.ncols()), (8, 10));
            assert_eq!(m.nzc(), (0..10).filter(|&i| t.row_nnz(i) > 0).count());
            for (r, c, v) in t.iter() {
                assert_eq!(m.get(c as usize, r as usize), Some(v));
            }
            assert_eq!(m.into_transposed_csr(), t);
        }
    }

    #[test]
    fn wire_size_follows_entries_not_dimensions() {
        use elba_comm::transport::wire::WireReader;
        use elba_comm::CommMsg;
        let m = hypersparse();
        assert_eq!(m.nbytes(), 8 + 2 * 8 + 3 * (4 + 1));
        assert_eq!(Dcsc::<u8>::empty(1 << 20, 1 << 20).nbytes(), 8);
        let mut frame = Vec::new();
        m.wire_encode(&mut frame);
        let mut r = WireReader::new(&frame);
        assert_eq!(Dcsc::<u8>::wire_decode(&mut r).expect("decodes"), m);
        r.finish().expect("decode consumes the whole frame");
        // A frame whose column pointers disagree with its entries is
        // rejected, not expanded.
        let mut bad = m.clone();
        bad.cp[2] = 7;
        let mut frame = Vec::new();
        bad.wire_encode(&mut frame);
        assert!(Dcsc::<u8>::wire_decode(&mut WireReader::new(&frame)).is_err());
    }

    #[test]
    fn duplicates_merge() {
        let m = Dcsc::from_triples(4, 4, vec![(1, 1, 10u32), (1, 1, 5)], |acc, v| *acc += v);
        assert_eq!(m.get(1, 1), Some(&15));
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn empty() {
        let m: Dcsc<u8> = Dcsc::empty(10, 10);
        assert_eq!(m.nzc(), 0);
        assert_eq!(m.col(5).0.len(), 0);
    }
}
