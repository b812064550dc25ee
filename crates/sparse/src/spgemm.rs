//! Local sparse kernels: Gustavson SpGEMM with a sparse accumulator (SPA)
//! and its masked form. The first runs inside every
//! SUMMA stage of overlap detection (`C = AAᵀ`), the second inside every
//! stage of the transitive-reduction sweep (`R ⊗ R` on `R`'s pattern).

use crate::csr::{entry_offset, Csr};
use crate::semiring::{MaskedFold, Semiring};

/// Sparse accumulator for one output row: a dense `Option` array plus a
/// touched-list, giving O(1) insert and O(k log k) sorted extraction for
/// k entries. The `Option` is the occupancy mark: a column's first
/// product fills its slot, every later one is folded into it in place
/// ([`Semiring::fold`]), and [`Spa::drain_sorted`] takes every touched
/// slot back to `None` — so the array is all `None` between rows and is
/// reused without clearing.
struct Spa<T> {
    values: Vec<Option<T>>,
    touched: Vec<u32>,
}

impl<T> Spa<T> {
    fn new(ncols: usize) -> Self {
        Spa {
            values: (0..ncols).map(|_| None).collect(),
            touched: Vec::new(),
        }
    }

    #[inline(always)]
    fn accumulate<S>(&mut self, semiring: &S, col: u32, a: &S::A, b: &S::B)
    where
        S: Semiring<Out = T>,
    {
        match &mut self.values[col as usize] {
            Some(acc) => semiring.fold(acc, a, b),
            empty => {
                if let Some(product) = semiring.multiply(a, b) {
                    *empty = Some(product);
                    self.touched.push(col);
                }
            }
        }
    }

    fn drain_sorted(&mut self, indices: &mut Vec<u32>, values: &mut Vec<T>) {
        self.touched.sort_unstable();
        for col in self.touched.drain(..) {
            indices.push(col);
            values.push(
                self.values[col as usize]
                    .take()
                    .expect("touched slot holds value"),
            );
        }
    }
}

/// C = A ⊗ B under `semiring` (Gustavson's row-by-row algorithm).
///
/// `A` is nrows×k with values of type `S::A`, `B` is k×ncols with values
/// of type `S::B`; entries for which `multiply` returns `None` contribute
/// nothing (filtering semirings).
pub fn spgemm<S>(a: &Csr<S::A>, b: &Csr<S::B>, semiring: &S) -> Csr<S::Out>
where
    S: Semiring + Sync,
    S::A: Sync,
    S::B: Sync,
{
    SpGemmBatcher::new(a, b, semiring).multiply_rows_par(0..a.nrows(), 0..b.ncols() as u32)
}

/// Multiply the output-row window `rows` of `a ⊗ b` restricted to the
/// output-column window `cols`, appending each produced row to
/// `indices`/`values` and one cumulative end offset per row to `indptr`
/// (relative to the buffers' state at entry). This is the kernel every
/// worker of [`SpGemmBatcher::multiply_rows_par`] runs on its row chunk:
/// a row's bytes depend only on `(a, b, semiring, row, cols, upper)`,
/// never on which worker ran it — the determinism the chunk merge
/// relies on.
///
/// Under `upper` (see [`SpGemmBatcher::strict_upper`]) row `i` keeps
/// only columns `≥ i + shift`. Each `B` row is cut at that floor by
/// walking it from its high end and stopping at the first column below
/// the floor — a binary search per `(i, k)` would cost what the skipped
/// products cost on the short rows of `Aᵀ`. An output entry still
/// receives its products in ascending `k`, so order-sensitive semiring
/// adds see the operand order of the unrestricted multiply.
#[allow(clippy::too_many_arguments)]
fn multiply_window<S: Semiring>(
    a: &Csr<S::A>,
    b: &Csr<S::B>,
    semiring: &S,
    spa: &mut Spa<S::Out>,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<u32>,
    upper: Option<i64>,
    indptr: &mut Vec<u32>,
    indices: &mut Vec<u32>,
    values: &mut Vec<S::Out>,
) {
    let cut_high = (cols.end as usize) < b.ncols();
    for i in rows {
        let floor = row_floor(upper, i, &cols);
        if floor >= cols.end {
            // Wholly below its floor: the row reads neither `A` nor `B`.
            indptr.push(entry_offset(indices.len()));
            continue;
        }
        let (a_cols, a_vals) = a.row(i);
        for (&k, a_ik) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = b.row(k as usize);
            // Rows are sorted, so the window's high end is one cut.
            let hi = if cut_high {
                b_cols.partition_point(|&j| j < cols.end)
            } else {
                b_cols.len()
            };
            for (&j, b_kj) in b_cols[..hi].iter().zip(&b_vals[..hi]).rev() {
                if j < floor {
                    break;
                }
                spa.accumulate(semiring, j, a_ik, b_kj);
            }
        }
        spa.drain_sorted(indices, values);
        indptr.push(entry_offset(indices.len()));
    }
}

/// First output column row `i` may produce: the window's start, raised
/// to `i + shift` under a strict-upper restriction (and capped at the
/// window's end, where the row is empty).
#[inline]
fn row_floor(upper: Option<i64>, i: usize, cols: &std::ops::Range<u32>) -> u32 {
    match upper {
        None => cols.start,
        Some(shift) => (i as i64 + shift)
            .max(cols.start as i64)
            .min(cols.end as i64) as u32,
    }
}

/// Row-batched SpGEMM driver owning one sparse accumulator *per worker*
/// that is reused across every [`SpGemmBatcher::multiply_rows_par`]
/// call — each row's drain leaves the SPA empty, so batching the output
/// rows costs no repeated O(ncols) allocation or clearing. One batcher
/// serves one `(A, B)` pair; the SUMMA schedule holds one per stage and
/// sweeps it over the row windows.
///
/// A multiply partitions its row window into contiguous chunks claimed
/// by self-scheduling workers (each with its own SPA) and concatenates
/// the per-chunk results in fixed row order, so the output CSR is
/// **byte-identical across thread counts** — the contract the
/// intra-rank threading of ELBA's local kernels rests on. With one
/// worker the window is one chunk. Workers never touch the comm layer.
pub struct SpGemmBatcher<'m, S: Semiring> {
    a: &'m Csr<S::A>,
    b: &'m Csr<S::B>,
    semiring: &'m S,
    /// One SPA per worker, allocated on first use.
    spas: Vec<Spa<S::Out>>,
    threads: usize,
    /// Strict-upper restriction: output row `i` keeps only columns
    /// `≥ i + shift` (see [`SpGemmBatcher::strict_upper`]).
    upper: Option<i64>,
}

impl<'m, S: Semiring> SpGemmBatcher<'m, S> {
    pub fn new(a: &'m Csr<S::A>, b: &'m Csr<S::B>, semiring: &'m S) -> Self {
        assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
        SpGemmBatcher {
            a,
            b,
            semiring,
            spas: Vec::new(),
            threads: 1,
            upper: None,
        }
    }

    /// Use up to `threads` intra-rank workers for each multiply (`0`
    /// means one, like `1`). SPAs for extra workers are allocated lazily
    /// on the first multiply that uses them.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Restrict every multiply to the strict upper triangle of the
    /// *global* product this block belongs to: local output row `i` and
    /// column `j` sit at global `row_offset + i` and `col_offset + j`,
    /// and only entries with global column > global row are
    /// accumulated. For a symmetric product (`C = AAᵀ`) whose caller
    /// keeps one triangle, a diagonal block does half the products and
    /// a block wholly on or below the diagonal returns an empty matrix
    /// without reading `B` or allocating an accumulator.
    pub fn strict_upper(mut self, row_offset: usize, col_offset: usize) -> Self {
        self.upper = Some(row_offset as i64 - col_offset as i64 + 1);
        self
    }

    /// Heap bytes of the *extra* per-worker sparse accumulators beyond
    /// worker 0's, which the one-worker multiply has always owned
    /// uncharged. This is what threading adds to the resident working
    /// set; callers charge it — via `record_mem_transient` or a
    /// resizable charge — so threaded runs stay honest in the `mem-hw`
    /// column while `threads = 1` numbers are bit-for-bit unchanged.
    /// Counted by the length convention: each SPA's dense value array
    /// (ncols `Option`s); the `touched` list is drained every row and
    /// bounded by a row's nnz, so it is noise, not charge.
    pub fn scratch_bytes(&self) -> usize {
        let per_spa = self.b.ncols() * std::mem::size_of::<Option<S::Out>>();
        self.spas.len().saturating_sub(1) * per_spa
    }

    /// Whether the `rows × cols` output window is empty by construction:
    /// no rows, no columns, or (floors rise with the row) even its first
    /// row starts at or past the window's end.
    fn produces_nothing(&self, rows: &std::ops::Range<usize>, cols: &std::ops::Range<u32>) -> bool {
        rows.is_empty() || cols.is_empty() || row_floor(self.upper, rows.start, cols) >= cols.end
    }
}

impl<'m, S> SpGemmBatcher<'m, S>
where
    S: Semiring + Sync,
    S::A: Sync,
    S::B: Sync,
{
    /// Multiply the output-row window `rows` of `A ⊗ B` restricted to
    /// output columns in `cols`: only products landing in that window
    /// are accumulated — the kernel underneath the distributed multiply,
    /// where a budgeted SUMMA stage multiplies one row batch at a time
    /// over every column. The result has
    /// `rows.len()` rows (row `i` holding output row `rows.start + i`)
    /// and keeps the full column dimension (entries outside the window
    /// are simply absent), so outputs of consecutive windows concatenate
    /// row-wise without reindexing.
    ///
    /// The row window is over-decomposed into contiguous chunks, idle
    /// workers claim chunks atomically, each runs the row kernel with
    /// its own SPA, and the chunks' CSR pieces are concatenated
    /// **in chunk (= row) order** onto the first chunk's arrays — so the
    /// result is the same for every thread count. A window too small to
    /// split, or a batcher with one worker, is one chunk written straight
    /// into the output arrays.
    pub fn multiply_rows_par(
        &mut self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<u32>,
    ) -> Csr<S::Out> {
        assert!(rows.end <= self.a.nrows(), "row range out of bounds");
        let ncols = self.b.ncols();
        assert!(cols.end as usize <= ncols, "column range out of bounds");
        if self.produces_nothing(&rows, &cols) {
            return Csr::empty(rows.len(), ncols);
        }
        let mut chunks = elba_par::overdecomposed_ranges(rows.clone(), self.threads, MIN_PAR_ROWS);
        let workers = self.threads.min(chunks.len());
        if workers == 1 {
            chunks = vec![rows.clone()];
        }
        while self.spas.len() < workers {
            self.spas.push(Spa::new(ncols));
        }
        let (a, b, semiring, upper) = (self.a, self.b, self.semiring, self.upper);
        // Self-scheduled chunk map, per-worker SPA scratch; results come
        // back in chunk (= row) order — the fixed-order merge contract.
        let mut parts =
            elba_par::run_indexed_with(chunks.len(), &mut self.spas[..workers], |ci, spa| {
                let chunk_rows = chunks[ci].clone();
                let mut indptr = Vec::with_capacity(chunk_rows.len() + 1);
                indptr.push(0u32);
                let mut indices = Vec::new();
                let mut values = Vec::new();
                multiply_window(
                    a,
                    b,
                    semiring,
                    spa,
                    chunk_rows,
                    cols.clone(),
                    upper,
                    &mut indptr,
                    &mut indices,
                    &mut values,
                );
                (indptr, indices, values)
            })
            .into_iter();
        let (mut indptr, mut indices, mut values) = parts.next().expect("a non-empty window");
        for (chunk_indptr, chunk_indices, chunk_values) in parts {
            let base = indices.len();
            indptr.extend(
                chunk_indptr[1..]
                    .iter()
                    .map(|&end| entry_offset(base + end as usize)),
            );
            indices.extend(chunk_indices);
            values.extend(chunk_values);
        }
        Csr::from_parts(rows.len(), ncols, indptr, indices, values)
    }
}

/// Smallest row-chunk a multiply hands a worker; windows below
/// `2 × MIN_PAR_ROWS` run as one chunk (spawn cost would dominate).
const MIN_PAR_ROWS: usize = 8;

/// "No slot": the column is not in the mask row being multiplied.
const NO_SLOT: u32 = u32::MAX;

/// Mask-indexed accumulator of the masked product `C⟨M⟩ = A ⊗ B`
/// (GraphBLAS; Milaković et al., PPoPP 2022): one [`MaskedFold::Slot`]
/// per stored entry of the mask, in the mask's storage order, seeded
/// from that entry ([`MaskedFold::empty`]), and nothing anywhere else.
/// [`MaskedAccumulator::accumulate`] folds one `(A, B)` block pair into
/// it and may be called once per SUMMA stage, so the distributed masked
/// product never builds a per-stage matrix, sorts a touched list or
/// merges; its size is `nnz(mask)` slots, known before any multiply.
///
/// Per output row the kernel marks the mask row's columns in a dense
/// slot array (`offset[col]` = offset of `(row, col)` in the mask row),
/// walks `A(i,:) × B(k,:)` and folds a product, with its mask entry,
/// only where the column is marked. A slot receives its products in
/// ascending `k`, as the unmasked kernel's entries do. Threaded runs
/// give each worker a contiguous row chunk, i.e. a disjoint slice of
/// the accumulator, so there is nothing to merge and the result cannot
/// depend on the thread count.
pub struct MaskedAccumulator<'m, M, F: MaskedFold<M>> {
    mask: &'m Csr<M>,
    fold: &'m F,
    acc: Vec<F::Slot>,
    /// One slot array per worker.
    offsets: Vec<Vec<u32>>,
    threads: usize,
}

impl<'m, M, F: MaskedFold<M>> MaskedAccumulator<'m, M, F> {
    pub fn new(mask: &'m Csr<M>, fold: &'m F) -> Self {
        MaskedAccumulator {
            mask,
            fold,
            acc: mask.values().iter().map(|m| fold.empty(m)).collect(),
            offsets: vec![vec![NO_SLOT; mask.ncols()]],
            threads: 1,
        }
    }

    /// Use up to `threads` intra-rank workers per multiply (`0` means
    /// one, like `1`).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Bytes of the accumulator and worker 0's slot array — the whole
    /// working set of a one-worker masked product, fixed at construction:
    /// `nnz(mask) · size_of::<Slot>() + 4 · ncols`.
    pub fn heap_bytes(&self) -> usize {
        self.acc.len() * std::mem::size_of::<F::Slot>()
            + self.mask.ncols() * std::mem::size_of::<u32>()
    }

    /// Bytes of the extra workers' slot arrays (the
    /// [`SpGemmBatcher::scratch_bytes`] convention: what threading adds).
    pub fn scratch_bytes(&self) -> usize {
        (self.offsets.len() - 1) * self.mask.ncols() * std::mem::size_of::<u32>()
    }

    /// The slots, aligned with the mask's `values()`: a slot no product
    /// reached is still its [`MaskedFold::empty`].
    pub fn values(&self) -> &[F::Slot] {
        &self.acc
    }

    /// Fold `A ⊗ B` into the accumulator on the mask's pattern.
    pub fn accumulate(&mut self, a: &Csr<F::A>, b: &Csr<F::B>)
    where
        M: Sync,
        F: Sync,
        F::A: Sync,
        F::B: Sync,
    {
        assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
        let mask = self.mask;
        assert_eq!(
            (a.nrows(), b.ncols()),
            (mask.nrows(), mask.ncols()),
            "the mask must have the product's shape"
        );
        if self.acc.is_empty() || a.nnz() == 0 || b.nnz() == 0 {
            return;
        }
        let workers = self.threads.min(mask.nrows() / MIN_PAR_ROWS).max(1);
        while self.offsets.len() < workers {
            self.offsets.push(vec![NO_SLOT; mask.ncols()]);
        }
        let fold = self.fold;
        let mut rest = &mut self.acc[..];
        let mut chunks = Vec::with_capacity(workers);
        let row_chunks = elba_par::chunk_ranges(0..mask.nrows(), workers);
        for (rows, offset) in row_chunks.into_iter().zip(&mut self.offsets) {
            let (mine, tail) = std::mem::take(&mut rest)
                .split_at_mut((mask.indptr()[rows.end] - mask.indptr()[rows.start]) as usize);
            rest = tail;
            chunks.push((rows, mine, offset));
        }
        elba_par::scope_with(&mut chunks, |_, (rows, acc, offset)| {
            accumulate_masked_rows(a, b, fold, mask, rows.clone(), offset, acc)
        });
    }
}

/// The masked kernel one worker runs over the output rows `rows`; `acc` is the
/// accumulator slice of exactly those rows' mask entries.
fn accumulate_masked_rows<M, F: MaskedFold<M>>(
    a: &Csr<F::A>,
    b: &Csr<F::B>,
    fold: &F,
    mask: &Csr<M>,
    rows: std::ops::Range<usize>,
    offset: &mut [u32],
    acc: &mut [F::Slot],
) {
    let base = mask.indptr()[rows.start] as usize;
    for i in rows {
        let span = mask.row_span(i);
        let (a_cols, a_vals) = a.row(i);
        if span.is_empty() || a_cols.is_empty() {
            continue;
        }
        let (mask_cols, mask_vals) = mask.row(i);
        let row_acc = &mut acc[span.start - base..span.end - base];
        for (o, &j) in mask_cols.iter().enumerate() {
            offset[j as usize] = o as u32;
        }
        for (&k, a_ik) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = b.row(k as usize);
            for (&j, b_kj) in b_cols.iter().zip(b_vals) {
                let o = offset[j as usize];
                if o == NO_SLOT {
                    continue;
                }
                let o = o as usize;
                fold.fold(&mut row_acc[o], &mask_vals[o], a_ik, b_kj);
            }
        }
        for &j in mask_cols {
            offset[j as usize] = NO_SLOT;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::semiring::{BoolOrAnd, MinPlus, PlusTimes};

    fn csr_from_dense(d: &Dense) -> Csr<f64> {
        Csr::from_triples(d.nrows(), d.ncols(), d.triples(), |_, _| unreachable!())
    }

    #[test]
    fn matches_dense_reference() {
        let a = Dense::from_rows(vec![vec![1.0, 0.0, 2.0], vec![0.0, 3.0, 0.0]]);
        let b = Dense::from_rows(vec![vec![0.0, 1.0], vec![4.0, 0.0], vec![5.0, 6.0]]);
        let c = spgemm(&csr_from_dense(&a), &csr_from_dense(&b), &PlusTimes);
        let want = a.matmul(&b);
        assert_eq!(Dense::from_csr(&c), want);
    }

    #[test]
    fn empty_rows_and_columns() {
        let a: Csr<f64> = Csr::empty(3, 4);
        let b: Csr<f64> = Csr::empty(4, 2);
        let c = spgemm(&a, &b, &PlusTimes);
        assert_eq!(c.nnz(), 0);
        assert_eq!((c.nrows(), c.ncols()), (3, 2));
    }

    #[test]
    fn boolean_path_semiring() {
        // Path graph 0-1-2 squared reaches two hops.
        let adj = Csr::from_triples(
            3,
            3,
            vec![(0u32, 1u32, true), (1, 0, true), (1, 2, true), (2, 1, true)],
            |_, _| unreachable!(),
        );
        let two_hop = spgemm(&adj, &adj, &BoolOrAnd);
        assert_eq!(two_hop.get(0, 2), Some(&true));
        assert_eq!(two_hop.get(0, 0), Some(&true)); // back and forth
        assert_eq!(two_hop.get(0, 1), None); // no 2-hop path 0→1 in a path graph
    }

    #[test]
    fn min_plus_shortest_two_hop() {
        let w = Csr::from_triples(
            3,
            3,
            vec![(0u32, 1u32, 5u64), (1, 2, 7), (0, 2, 100)],
            |_, _| unreachable!(),
        );
        let two = spgemm(&w, &w, &MinPlus);
        assert_eq!(two.get(0, 2), Some(&12));
    }

    #[test]
    fn filtering_semiring_drops_products() {
        use crate::semiring::FnSemiring;
        let s = FnSemiring::new(
            |a: &u64, b: &u64| {
                let p = a + b;
                p.is_multiple_of(2).then_some(p)
            },
            |acc: &mut u64, v| *acc = (*acc).min(v),
        );
        let m = Csr::from_triples(
            2,
            2,
            vec![(0u32, 0u32, 1u64), (0, 1, 2)],
            |_, _| unreachable!(),
        );
        let n = Csr::from_triples(
            2,
            2,
            vec![(0u32, 0u32, 1u64), (1, 0, 3)],
            |_, _| unreachable!(),
        );
        // products into (0,0): 1+1=2 (kept), 2+3=5 (dropped)
        let c = spgemm(&m, &n, &s);
        assert_eq!(c.get(0, 0), Some(&2));
        assert_eq!(c.nnz(), 1);
    }

    #[test]
    fn strict_upper_is_the_filtered_product() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(53);
        for _ in 0..30 {
            let (n, k, m) = (
                rng.gen_range(1..20),
                rng.gen_range(1..10),
                rng.gen_range(1..20),
            );
            let mut random = |rows: usize, cols: usize| {
                let mut t = Vec::new();
                for i in 0..rows {
                    for j in 0..cols {
                        if rng.gen_bool(0.4) {
                            t.push((i as u32, j as u32, rng.gen_range(1..5) as f64));
                        }
                    }
                }
                Csr::from_triples(rows, cols, t, |_, _| unreachable!())
            };
            let (a, b) = (random(n, k), random(k, m));
            // Block offsets putting the diagonal above, through and
            // below the block; windows cutting it on both sides.
            let (row0, col0) = (rng.gen_range(0..24usize), rng.gen_range(0..24usize));
            let lo = rng.gen_range(0..=m as u32);
            let window = lo..rng.gen_range(lo..=m as u32);
            let rows = 0..n;
            // Positive entries: the dense product's nonzeros are exactly
            // the sparse product's entries.
            let dense = Dense::from_csr(&a).matmul(&Dense::from_csr(&b));
            let want = csr_from_dense(&dense)
                .retain(|i, j, _| window.contains(&j) && col0 + j as usize > row0 + i as usize);
            for threads in [1usize, 3] {
                let got = SpGemmBatcher::new(&a, &b, &PlusTimes)
                    .with_threads(threads)
                    .strict_upper(row0, col0)
                    .multiply_rows_par(rows.clone(), window.clone());
                assert_eq!(got, want, "offsets ({row0}, {col0}) window {window:?}");
            }
        }
    }

    #[test]
    fn block_below_the_diagonal_is_empty_and_never_multiplies() {
        use crate::semiring::FnSemiring;
        let untouchable = FnSemiring::new(
            |_: &f64, _: &f64| -> Option<f64> { panic!("a strictly-lower block read B") },
            |_: &mut f64, _: f64| {},
        );
        let dense = |rows: usize, cols: usize| {
            let t = (0..rows as u32)
                .flat_map(|i| (0..cols as u32).map(move |j| (i, j, 1.0f64)))
                .collect();
            Csr::from_triples(rows, cols, t, |_, _| unreachable!())
        };
        let (a, b) = (dense(20, 3), dense(3, 4));
        // Global rows 8..28 against columns 4..8: wholly below the
        // diagonal. Rows 7..27 against columns 4..8 touch it only at
        // (7, 7), which the *strict* triangle excludes.
        for row0 in [8usize, 7] {
            for threads in [1usize, 2] {
                let mut batcher = SpGemmBatcher::new(&a, &b, &untouchable)
                    .with_threads(threads)
                    .strict_upper(row0, 4);
                elba_par::take_par_secs();
                assert_eq!(batcher.multiply_rows_par(0..20, 0..4), Csr::empty(20, 4));
                // No worker ran, and no accumulator was ever allocated.
                assert!(batcher.spas.is_empty());
                assert_eq!(elba_par::take_par_secs(), 0.0);
            }
        }
    }

    #[test]
    fn multiply_rows_matches_row_slice() {
        let a = Dense::from_rows(vec![
            vec![1.0, 0.0, 2.0],
            vec![0.0, 3.0, 0.0],
            vec![4.0, 0.0, 5.0],
        ]);
        let b = Dense::from_rows(vec![vec![0.0, 1.0], vec![4.0, 0.0], vec![5.0, 6.0]]);
        let (a, b) = (csr_from_dense(&a), csr_from_dense(&b));
        let full = spgemm(&a, &b, &PlusTimes);
        let mut batcher = SpGemmBatcher::new(&a, &b, &PlusTimes);
        let all_cols = 0..b.ncols() as u32;
        let mid = batcher.multiply_rows_par(1..3, all_cols.clone());
        assert_eq!(mid.nrows(), 2);
        for (r, c, v) in mid.iter() {
            assert_eq!(full.get(r as usize + 1, c as usize), Some(v));
        }
        assert_eq!(mid.nnz(), full.row_nnz(1) + full.row_nnz(2));
        // The SPA left by the previous window is reused as is.
        assert_eq!(batcher.multiply_rows_par(0..3, all_cols.clone()), full);
        let empty = batcher.multiply_rows_par(2..2, all_cols);
        assert_eq!((empty.nrows(), empty.nnz()), (0, 0));
    }

    /// A fold that reads its mask entry: a slot starts at the entry's
    /// value and every product lands scaled by it.
    struct ScaledByMask;

    impl MaskedFold<f64> for ScaledByMask {
        type A = f64;
        type B = f64;
        type Slot = f64;

        fn empty(&self, m: &f64) -> f64 {
            *m
        }

        fn fold(&self, slot: &mut f64, m: &f64, a: &f64, b: &f64) {
            *slot += m * a * b;
        }
    }

    fn random_csr(rng: &mut rand::rngs::StdRng, nrows: usize, ncols: usize) -> Csr<f64> {
        use rand::Rng;
        let mut d = Dense::zeros(nrows, ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                if rng.gen_bool(0.3) {
                    d.set(i, j, rng.gen_range(1..5) as f64);
                }
            }
        }
        csr_from_dense(&d)
    }

    #[test]
    fn masked_slots_are_seeded_and_folded_with_their_mask_entry() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        for _ in 0..10 {
            let (a, b, mask) = (
                random_csr(&mut rng, 40, 9),
                random_csr(&mut rng, 9, 30),
                random_csr(&mut rng, 40, 30),
            );
            let product = spgemm(&a, &b, &PlusTimes);
            let want: Vec<f64> = mask
                .iter()
                .map(|(i, j, m)| m + m * product.get(i as usize, j as usize).unwrap_or(&0.0))
                .collect();
            for threads in [1usize, 3] {
                let mut acc = MaskedAccumulator::new(&mask, &ScaledByMask).with_threads(threads);
                assert_eq!(acc.values(), mask.values(), "seeded from the mask");
                acc.accumulate(&a, &b);
                assert_eq!(acc.values(), &want[..], "threads={threads}");
            }
        }
    }

    #[test]
    fn masked_accumulator_bytes_are_the_slot_times_the_mask() {
        use crate::semiring::SemiringSlot;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(67);
        let mask = random_csr(&mut rng, 40, 30);
        let nnz = mask.nnz();
        assert!(nnz > 0);
        let plain = MaskedAccumulator::new(&mask, &SemiringSlot(PlusTimes));
        assert_eq!(
            plain.heap_bytes(),
            std::mem::size_of::<Option<f64>>() * nnz + 4 * 30
        );
        assert_eq!(plain.scratch_bytes(), 0);
        let scaled = MaskedAccumulator::new(&mask, &ScaledByMask).with_threads(4);
        assert_eq!(scaled.heap_bytes(), 8 * nnz + 4 * 30);
    }

    #[test]
    fn randomized_against_dense() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let (n, m, k) = (
                rng.gen_range(1..12),
                rng.gen_range(1..12),
                rng.gen_range(1..12),
            );
            let mut a = Dense::zeros(n, k);
            let mut b = Dense::zeros(k, m);
            for i in 0..n {
                for j in 0..k {
                    if rng.gen_bool(0.3) {
                        a.set(i, j, rng.gen_range(-4..5) as f64);
                    }
                }
            }
            for i in 0..k {
                for j in 0..m {
                    if rng.gen_bool(0.3) {
                        b.set(i, j, rng.gen_range(-4..5) as f64);
                    }
                }
            }
            let c = spgemm(&csr_from_dense(&a), &csr_from_dense(&b), &PlusTimes);
            assert_eq!(Dense::from_csr(&c), a.matmul(&b));
        }
    }
}
