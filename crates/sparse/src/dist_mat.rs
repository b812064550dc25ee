//! 2D-distributed sparse matrix (CombBLAS-style) over a √P×√P grid.
//!
//! Rank `(i, j)` owns block `(i, j)`: rows `row_layout.block_range(i)` ×
//! columns `col_layout.block_range(j)`, stored locally as CSR with local
//! indices. Provides the distributed operations ELBA's pipeline is built
//! from: triple routing, SUMMA SpGEMM under an arbitrary semiring,
//! transpose, element-wise apply/prune, row degrees into a [`DistVec`],
//! and symmetric row+column masking (branch removal).

use std::sync::Arc;

use elba_comm::{CommMsg, MemCharge, ProcGrid};

use crate::csr::{entry_offset, Csr};
use crate::dist_vec::DistVec;
use crate::layout::Layout2D;
use crate::routed::RoutedTriples;
use crate::run::{Plain, U32Run};
use crate::semiring::{MaskedFold, Semiring};
use crate::spgemm::{MaskedAccumulator, SpGemmBatcher};

/// Tag for the transpose block exchange.
const TRANSPOSE_TAG: u64 = 0x00F1_7A7A;
/// Tag of the symmetric product's direct fetch ([`UpperAat`]).
const FETCH_TAG: u64 = 0x00F1_7A7B;
/// Tag of the masked product's requests ([`MaskCut`]): a mask block's
/// non-empty rows or occupied columns.
const REQUEST_TAG: u64 = 0x00F1_7A7C;
/// Tag of the masked product's replies: a stage block cut to a request.
const REPLY_TAG: u64 = 0x00F1_7A7D;

/// Merge one batch-produced row (`cols`/`vals`, sorted by column) into a
/// per-row accumulator in place — the row-local step of the
/// SUMMA schedule's incremental accumulation. Transient memory
/// is one merged row, not a matrix.
fn merge_row<T>(
    acc: &mut (Vec<u32>, Vec<T>),
    cols: &[u32],
    vals: Vec<T>,
    mut add: impl FnMut(&mut T, T),
) {
    let (acc_cols, acc_vals) = acc;
    if acc_cols.is_empty() {
        acc_cols.extend_from_slice(cols);
        *acc_vals = vals;
        return;
    }
    let mut merged_cols = Vec::with_capacity(acc_cols.len() + cols.len());
    let mut merged_vals = Vec::with_capacity(acc_cols.len() + cols.len());
    let mut old_vals = std::mem::take(acc_vals).into_iter();
    let mut new_vals = vals.into_iter();
    let (mut ia, mut ib) = (0, 0);
    while ia < acc_cols.len() && ib < cols.len() {
        match acc_cols[ia].cmp(&cols[ib]) {
            std::cmp::Ordering::Less => {
                merged_cols.push(acc_cols[ia]);
                merged_vals.push(old_vals.next().expect("value per column"));
                ia += 1;
            }
            std::cmp::Ordering::Greater => {
                merged_cols.push(cols[ib]);
                merged_vals.push(new_vals.next().expect("value per column"));
                ib += 1;
            }
            std::cmp::Ordering::Equal => {
                let mut v = old_vals.next().expect("value per column");
                add(&mut v, new_vals.next().expect("value per column"));
                merged_cols.push(acc_cols[ia]);
                merged_vals.push(v);
                ia += 1;
                ib += 1;
            }
        }
    }
    merged_cols.extend_from_slice(&acc_cols[ia..]);
    merged_vals.extend(old_vals);
    merged_cols.extend_from_slice(&cols[ib..]);
    merged_vals.extend(new_vals);
    *acc_cols = merged_cols;
    *acc_vals = merged_vals;
}

/// Whether a budgeted SUMMA may prefetch: stage `s+1`'s blocks are in
/// flight while stage `s` multiplies, so two stages are resident, and
/// the budget must hold four of the largest — `4·(a_max + b_max) ≤
/// budget`, where `a_bytes` / `b_bytes` are this rank's largest `A` and
/// `B` operand blocks. No stage pairs blocks larger than the largest of
/// each operand. Every rank must reach the same verdict or the
/// collective schedule desynchronizes: one `allreduce` of the pair.
fn prefetch_fits(grid: &ProcGrid, a_bytes: usize, b_bytes: usize, budget: u64) -> bool {
    let (a_max, b_max) = grid
        .world()
        .allreduce((a_bytes as u64, b_bytes as u64), |x, y| {
            (x.0.max(y.0), x.1.max(y.1))
        });
    4 * (a_max + b_max) <= budget
}

/// One SUMMA stage's row-blocked multiply merged straight into the
/// per-row accumulators: multiply `row_batch` rows at a time (across
/// `threads` intra-rank workers), merge each produced row, and re-size
/// `charge` to `acc_entries × entry_bytes` (plus the per-worker SPA
/// scratch) after every row batch so the tracker sees the true working
/// set. `upper` carries the global `(row, column)` offsets of this
/// rank's `C` block: only its strict upper triangle is accumulated (see
/// [`DistMat::spgemm_aat_upper_with`]). Returns the updated
/// accumulated-entry count. The inner loop of the symmetric product's
/// SUMMA.
#[allow(clippy::too_many_arguments)]
fn merge_stage_rows<S>(
    a_block: &Csr<S::A>,
    b_block: &Csr<S::B>,
    semiring: &S,
    row_batch: usize,
    threads: usize,
    upper: (usize, usize),
    acc_rows: &mut [(Vec<u32>, Vec<S::Out>)],
    mut acc_entries: usize,
    entry_bytes: usize,
    charge: &mut MemCharge,
) -> usize
where
    S: Semiring + Sync,
    S::A: Sync,
    S::B: Sync,
{
    let nrows = acc_rows.len();
    let mut batcher = SpGemmBatcher::new(a_block, b_block, semiring)
        .with_threads(threads)
        .strict_upper(upper.0, upper.1);
    let mut start = 0;
    while start < nrows {
        let end = (start + row_batch).min(nrows);
        let batch = batcher.multiply_rows_par(start..end, 0..b_block.ncols() as u32);
        let (batch_indptr, batch_indices, batch_values) = batch.into_parts();
        let mut batch_vals = batch_values.into_iter();
        for (in_batch, row) in (start..end).enumerate() {
            let span = batch_indptr[in_batch] as usize..batch_indptr[in_batch + 1] as usize;
            if span.is_empty() {
                continue;
            }
            let vals: Vec<S::Out> = batch_vals.by_ref().take(span.len()).collect();
            let cols = &batch_indices[span];
            let before = acc_rows[row].0.len();
            merge_row(&mut acc_rows[row], cols, vals, |a, v| semiring.add(a, v));
            acc_entries += acc_rows[row].0.len() - before;
        }
        charge.set(acc_entries * entry_bytes + batcher.scratch_bytes());
        start = end;
    }
    charge.set(acc_entries * entry_bytes);
    acc_entries
}

/// Pack per-row `(cols, vals)` accumulators into one CSR. The packed
/// arrays are allocated at full capacity while the row Vecs are still
/// resident (rows free one by one as they are consumed), so assembly
/// transiently doubles the accumulated bytes — `charge` is bumped to
/// that peak and settled back to 1× once packed.
fn pack_rows_into_csr<V>(
    acc_rows: Vec<(Vec<u32>, Vec<V>)>,
    ncols: usize,
    entries: usize,
    entry_bytes: usize,
    charge: &mut MemCharge,
) -> Csr<V> {
    charge.set(2 * entries * entry_bytes);
    let nrows = acc_rows.len();
    let mut indptr = Vec::with_capacity(nrows + 1);
    indptr.push(0u32);
    let mut indices: Vec<u32> = Vec::with_capacity(entries);
    let mut values: Vec<V> = Vec::with_capacity(entries);
    for (cols, vals) in acc_rows {
        indices.extend(cols);
        values.extend(vals);
        indptr.push(entry_offset(indices.len()));
    }
    charge.set(entries * entry_bytes);
    Csr::from_parts(nrows, ncols, indptr, indices, values)
}

/// Options of the two pipeline products — overlap detection's symmetric
/// product and transitive reduction's masked product — wherever they are
/// called (the pipeline, its tests, the benches). Each runs one SUMMA
/// round over the whole output, and a memory budget is its only
/// parameter; the general product [`DistMat::spgemm_with`], the oracle
/// the test suites hold both to, takes a thread count alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpGemmOptions {
    /// Per-rank transient byte cap (stage blocks + row-batch product);
    /// `None` (the default) is unbounded. Without a budget stage `s+1`'s
    /// transfers are posted before stage `s` is multiplied, so they
    /// overlap the local multiply. A budget `b` decides two things:
    /// stages are prefetched only if four of the largest fit `b` (one
    /// `allreduce` agrees the verdict), and the symmetric product
    /// multiplies `clamp(b / 16 KiB, 32, 8192)` rows at a time instead of
    /// the whole block, which bounds the untracked per-batch product.
    /// Every entry of the symmetric product is kept, so `b` bounds
    /// neither `C` nor the traffic: a budgeted run sends exactly the
    /// unbudgeted fetch.
    pub mem_budget: Option<u64>,
    /// Intra-rank workers for the local multiply inside every SUMMA
    /// stage (`0` means one, like `1`); the count sizes the worker set
    /// and never picks a kernel. Output is byte-identical across thread
    /// counts — per-row results merge in fixed row order — and workers
    /// never enter the comm layer, so profiled wire bytes are unchanged
    /// too.
    pub threads: usize,
}

impl SpGemmOptions {
    /// Both products under a transient byte budget of `mem_budget` per
    /// rank: it decides prefetch and the symmetric product's row batch
    /// ([`SpGemmOptions::mem_budget`]).
    pub fn budgeted(mem_budget: u64) -> Self {
        assert!(mem_budget > 0, "a SpGEMM memory budget must be positive");
        SpGemmOptions {
            mem_budget: Some(mem_budget),
            threads: 0,
        }
    }

    /// Use `threads` intra-rank workers for the local multiply of every
    /// SUMMA stage (`0` means one, like `1`).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// A sparse matrix distributed in 2D blocks over the process grid.
///
/// The local block lives behind an [`Arc`]: SUMMA stage transfers ship
/// it as `Arc` clones (zero payload deep-copies, root included — see
/// [`elba_comm::Comm::bcast`]; a masked-product reply that cuts a block
/// copies the entries it keeps), and cloning a `DistMat` is a shallow
/// reference bump. Every mutating
/// operation consumes `self` and produces a fresh block, so shared
/// references can never observe mutation.
#[derive(Debug, Clone)]
pub struct DistMat<T> {
    row_layout: Layout2D,
    col_layout: Layout2D,
    local: Arc<Csr<T>>,
}

impl<T: Clone + CommMsg + Sync> DistMat<T> {
    /// Collectively build from triples with *global* indices; each rank may
    /// contribute any subset (triples are routed to their owner block).
    /// Duplicate entries are merged with `combine`.
    pub fn from_triples(
        grid: &ProcGrid,
        nrows: usize,
        ncols: usize,
        triples: Vec<(u64, u64, T)>,
        combine: impl FnMut(&mut T, T),
    ) -> Self {
        let q = grid.q();
        let row_layout = Layout2D::new(nrows, q);
        let col_layout = Layout2D::new(ncols, q);
        let p = grid.world().size();
        // Rebase to the owner's block-local `u32` indices before routing:
        // the receiver would do so first thing anyway, and the wire then
        // carries 8 bytes of coordinates per entry instead of 16. Callers
        // hand over runs that share a row with ascending columns, so the
        // cursors divide once per block crossing, not once per coordinate.
        let (mut rows, mut cols) = (row_layout.cursor(), col_layout.cursor());
        // Each owner's buffer keeps the caller's order; a sorted one (A's
        // triples) travels as row runs and column gaps (`routed.rs`).
        let mut outgoing: Vec<RoutedTriples<T>> =
            (0..p).map(|_| RoutedTriples::default()).collect();
        for (r, c, v) in triples {
            let (bi, r) = rows.locate(r as usize);
            let (bj, c) = cols.locate(c as usize);
            outgoing[grid.rank_of(bi, bj)].push((r as u32, c as u32, v));
        }
        let incoming = grid.world().alltoallv(outgoing);
        let incoming = incoming
            .into_iter()
            .map(RoutedTriples::into_triples)
            .collect();
        let row_range = row_layout.block_range(grid.myrow());
        let col_range = col_layout.block_range(grid.mycol());
        // The builder reads the per-source parts as one list without
        // concatenating them: nothing is copied before the counting sort.
        let local = Csr::from_triple_parts(row_range.len(), col_range.len(), incoming, combine);
        DistMat {
            row_layout,
            col_layout,
            local: Arc::new(local),
        }
    }

    /// Wrap an existing local block (layouts must match the grid).
    pub fn from_local(grid: &ProcGrid, nrows: usize, ncols: usize, local: Csr<T>) -> Self {
        let row_layout = Layout2D::new(nrows, grid.q());
        let col_layout = Layout2D::new(ncols, grid.q());
        assert_eq!(local.nrows(), row_layout.block_range(grid.myrow()).len());
        assert_eq!(local.ncols(), col_layout.block_range(grid.mycol()).len());
        DistMat {
            row_layout,
            col_layout,
            local: Arc::new(local),
        }
    }

    /// Global row count.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.row_layout.len()
    }

    /// Global column count.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.col_layout.len()
    }

    #[inline]
    pub fn row_layout(&self) -> Layout2D {
        self.row_layout
    }

    #[inline]
    pub fn col_layout(&self) -> Layout2D {
        self.col_layout
    }

    /// This rank's local block.
    #[inline]
    pub fn local(&self) -> &Csr<T> {
        &self.local
    }

    /// The `Arc` behind this rank's local block — the handle the stage
    /// transfers clone and [`elba_comm::Comm::mem_charge_shared`]
    /// keys its once-per-rank charge on.
    #[inline]
    pub fn local_arc(&self) -> &Arc<Csr<T>> {
        &self.local
    }

    /// Take the local block out, copying only if other references to it
    /// are still alive (a freshly built matrix is sole owner). The copy
    /// fallback is deliberate — mutating one handle of a shallowly
    /// cloned `DistMat` must not disturb the other — but the copy is
    /// *invisible to the memory tracker* (no `Comm` in scope here):
    /// callers holding a `SharedMemCharge` on the block should drop the
    /// guard before a consuming operation (see the TrReduction ordering
    /// in `elba-core`).
    pub fn into_local(self) -> Csr<T> {
        Arc::try_unwrap(self.local).unwrap_or_else(|arc| (*arc).clone())
    }

    /// Heap bytes behind this rank's local block — what one rank charges
    /// against the memory tracker while the matrix is resident.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.local.heap_bytes()
    }

    /// [`DistMat::heap_bytes`] including heap nested *inside* values
    /// (see [`Csr::deep_heap_bytes`]) — what honest residency charging
    /// uses for non-POD value types.
    #[inline]
    pub fn deep_heap_bytes(&self) -> usize
    where
        T: elba_mem::DeepBytes,
    {
        self.local.deep_heap_bytes()
    }

    /// Global nonzero count (collective).
    pub fn nnz_global(&self, grid: &ProcGrid) -> u64 {
        grid.world()
            .allreduce(self.local.nnz() as u64, |a, b| a + b)
    }

    /// Global index offsets of the local block: `(row_start, col_start)`.
    pub fn local_offsets(&self, grid: &ProcGrid) -> (usize, usize) {
        (
            self.row_layout.block_range(grid.myrow()).start,
            self.col_layout.block_range(grid.mycol()).start,
        )
    }

    /// Iterate local entries with *global* coordinates.
    pub fn iter_global<'a>(
        &'a self,
        grid: &ProcGrid,
    ) -> impl Iterator<Item = (u64, u64, &'a T)> + 'a {
        let (r0, c0) = self.local_offsets(grid);
        self.local
            .iter()
            .map(move |(r, c, v)| ((r as usize + r0) as u64, (c as usize + c0) as u64, v))
    }

    /// Gather every triple on every rank (test/diagnostic helper; global
    /// coordinates, unsorted).
    pub fn gather_triples(&self, grid: &ProcGrid) -> Vec<(u64, u64, T)> {
        let local: Vec<(u64, u64, T)> = self
            .iter_global(grid)
            .map(|(r, c, v)| (r, c, v.clone()))
            .collect();
        grid.world()
            .allgather(local)
            .into_iter()
            .flatten()
            .collect()
    }

    /// Keep only entries satisfying `keep` (CombBLAS `Prune`); local.
    /// No pipeline stage calls it: the symmetric product's test oracle
    /// prunes the general product to `r < c` with it.
    pub fn prune(self, grid: &ProcGrid, mut keep: impl FnMut(u64, u64, &T) -> bool) -> DistMat<T> {
        let (r0, c0) = (
            self.row_layout.block_range(grid.myrow()).start,
            self.col_layout.block_range(grid.mycol()).start,
        );
        let (row_layout, col_layout) = (self.row_layout, self.col_layout);
        DistMat {
            row_layout,
            col_layout,
            local: Arc::new(
                self.into_local()
                    .retain(|r, c, v| keep((r as usize + r0) as u64, (c as usize + c0) as u64, v)),
            ),
        }
    }

    /// Prune entries of `self` using the co-located entry of another
    /// same-shape, same-layout matrix (local; no communication). `keep`
    /// receives global coordinates, the value, and the other matrix's
    /// entry at the same position if present.
    pub fn zip_prune<U>(
        self,
        grid: &ProcGrid,
        other: &DistMat<U>,
        mut keep: impl FnMut(u64, u64, &T, Option<&U>) -> bool,
    ) -> DistMat<T> {
        assert_eq!(self.row_layout, other.row_layout);
        assert_eq!(self.col_layout, other.col_layout);
        let (r0, c0) = (
            self.row_layout.block_range(grid.myrow()).start,
            self.col_layout.block_range(grid.mycol()).start,
        );
        let other_local = Arc::clone(&other.local);
        let (row_layout, col_layout) = (self.row_layout, self.col_layout);
        DistMat {
            row_layout,
            col_layout,
            local: Arc::new(self.into_local().retain(|r, c, v| {
                keep(
                    (r as usize + r0) as u64,
                    (c as usize + c0) as u64,
                    v,
                    other_local.get(r as usize, c as usize),
                )
            })),
        }
    }

    /// Distributed transpose: block `(i, i)` transposes itself with the
    /// O(nnz) counting [`Csr::transposed`]; block `(i, j)` swaps its
    /// entries with the rank at `(j, i)` as block-local `(col, row,
    /// value)` triples — `8 + nnz·(8 + |T|)` bytes, proportional to the
    /// block's entries, not to its dimension — and the receiver
    /// counting-sorts them into its block with [`Csr::from_triples`].
    pub fn transpose(&self, grid: &ProcGrid) -> DistMat<T> {
        let local = if grid.is_diagonal() {
            self.local.transposed()
        } else {
            let partner = grid.transpose_rank();
            let mine: Vec<(u32, u32, T)> = self
                .local
                .iter()
                .map(|(r, c, v)| (c, r, v.clone()))
                .collect();
            grid.world().send(partner, TRANSPOSE_TAG, mine);
            let theirs = grid
                .world()
                .recv::<Vec<(u32, u32, T)>>(partner, TRANSPOSE_TAG);
            // The partner's block is `(mycol, myrow)` of `A`, so its
            // transpose spans A's column block `myrow` × row block `mycol`.
            Csr::from_triples(
                self.col_layout.block_range(grid.myrow()).len(),
                self.row_layout.block_range(grid.mycol()).len(),
                theirs,
                |_, _| unreachable!("a block holds each coordinate once"),
            )
        };
        // After the swap this rank holds block (myrow, mycol) of Aᵀ, whose
        // row layout is A's column layout and vice versa.
        DistMat {
            row_layout: self.col_layout,
            col_layout: self.row_layout,
            local: Arc::new(local),
        }
    }

    /// Distributed SpGEMM `C = self ⊗ other` under `semiring`, via the 2D
    /// SUMMA algorithm: at stage `s`, block column `s` of `A` is broadcast
    /// along grid rows and block row `s` of `B` along grid columns
    /// (blocking, see `stage_blocks`); each rank multiplies the
    /// pair locally on `threads` workers and keeps every stage's output
    /// as triples until one final sort-merge — the eager schedule, and
    /// the only one the general product has. Peak memory holds every
    /// stage's intermediate triples at once.
    ///
    /// The general product has no caller in the pipeline — overlap
    /// detection runs [`DistMat::spgemm_aat_upper_with`], transitive
    /// reduction [`DistMat::prune_by_product`] — and stays as the oracle
    /// the test suites hold those two to.
    pub fn spgemm_with<S, U>(
        &self,
        grid: &ProcGrid,
        other: &DistMat<U>,
        semiring: &S,
        threads: usize,
    ) -> DistMat<S::Out>
    where
        S: Semiring<A = T, B = U> + Sync,
        U: Clone + CommMsg + Sync,
        S::Out: Clone + CommMsg + Sync,
    {
        assert_eq!(
            self.col_layout, other.row_layout,
            "inner dimension layouts must agree for SUMMA"
        );
        let world = grid.world();
        let mut charge = world.mem_charge(0);
        let mut acc: Vec<(u32, u32, S::Out)> = Vec::new();
        let triple_bytes = std::mem::size_of::<(u32, u32, S::Out)>();
        for (a_block, b_block) in self.stage_blocks(grid, other) {
            // Stage blocks charge through the shared (ptr-keyed) path:
            // one charge per rank per block, so the owner's own resident
            // matrix is never counted twice.
            let _a_res = world.mem_charge_shared(&a_block, a_block.heap_bytes());
            let _b_res = world.mem_charge_shared(&b_block, b_block.heap_bytes());
            let mut batcher =
                SpGemmBatcher::new(&a_block, &b_block, semiring).with_threads(threads);
            let stage = batcher.multiply_rows_par(0..a_block.nrows(), 0..b_block.ncols() as u32);
            // The per-worker SPA scratch (0 with one worker) is a
            // transient spike on top of whatever is charged.
            world.record_mem_transient(batcher.scratch_bytes());
            acc.extend(stage.into_triples());
            charge.set(acc.len() * triple_bytes);
        }
        world.record_par_time(elba_par::take_par_secs());
        let row_range = self.row_layout.block_range(grid.myrow());
        let col_range = other.col_layout.block_range(grid.mycol());
        let local = Csr::from_triples(row_range.len(), col_range.len(), acc, |a, v| {
            semiring.add(a, v)
        });
        DistMat {
            row_layout: self.row_layout,
            col_layout: other.col_layout,
            local: Arc::new(local),
        }
    }

    /// The symmetric rank-k update of overlap detection: the strict
    /// upper triangle of `C = self ⊗ selfᵀ` — equal, value for value, to
    /// `spgemm_with(&self.transpose(grid), ..).prune(..)` under `r < c`,
    /// with or without a budget. Knowing that `C` is symmetric and that one
    /// triangle is all the caller keeps, the local kernels accumulate
    /// only `column > row`: a diagonal rank does half its products and a
    /// rank below the diagonal none. That restriction is the whole
    /// triangle: no entry is dropped after it is accumulated.
    /// Total multiply-adds halve; the ranks above the diagonal do what
    /// they always did, so with a core per rank the critical path is
    /// unchanged.
    ///
    /// No `Aᵀ` is built and nothing is broadcast. Rank `(i, j)` needs
    /// only `A(i, s)` and `A(j, s)ᵀ` at stage `s`, so the holder of
    /// `A(m, s)` sends the block as stored to `(m, j)` for `j ≥ m` and
    /// its transpose to `(i, m)` for `i < m`, never to itself. The
    /// diagonal rank `(m, m)` receives the block once and transposes it
    /// locally; a rank below the diagonal receives nothing and returns
    /// an empty block. Over a `q×q` grid that is `q³ − q(q+1)/2` block
    /// transfers, half of what the transpose swap plus the row and
    /// column broadcasts moved.
    ///
    /// One pipelined, row-blocked SUMMA round over the whole output
    /// (`UpperAat::summa`); `opts.mem_budget` picks its prefetch and row
    /// batch, never its traffic.
    pub fn spgemm_aat_upper_with<S>(
        &self,
        grid: &ProcGrid,
        semiring: &S,
        opts: &SpGemmOptions,
    ) -> DistMat<S::Out>
    where
        S: Semiring<A = T, B = T> + Sync,
        S::Out: Clone + CommMsg + Sync,
    {
        UpperAat { grid, a: self }.summa(semiring, opts.mem_budget, opts.threads)
    }

    /// The masked product fused with a prune of the mask: `self` pruned
    /// by `keep(row, col, value, slot)`, where `slot` is what `fold`
    /// made of the products `(a ⊗ b)(row, col)` at that entry
    /// ([`MaskedFold`]), computed on `self`'s pattern only (GraphBLAS
    /// `C⟨M⟩ = A ⊗ B`), so no product matrix ever exists. Under
    /// [`crate::SemiringSlot`] the slot is the general product's entry
    /// (`None` where it has none), and the result is what
    /// `self.zip_prune(grid, &a.spgemm_with(grid, b, ..), keep)` returns.
    /// `self` must be laid out like the product; block `(i, j)` of both
    /// is on the same rank, so the mask costs no communication.
    ///
    /// `keep` runs exactly once per entry of this rank's mask block, in
    /// the block's storage (row-major) order, after the last stage —
    /// whatever the budget or thread count — so a caller may keep
    /// per-entry state in an array aligned with the block's entries and
    /// walk it from inside `keep` (transitive reduction compacts its
    /// `(pre, post)` side array that way).
    ///
    /// One SUMMA folding every stage into one [`MaskedAccumulator`]:
    /// `nnz(mask block)` slots plus a column array, sized and charged
    /// before the first stage and never growing. The mask bounds the
    /// inputs too: stage blocks travel cut to what the receiver's mask
    /// block reaches ([`MaskCut`]), so a rank receives the `A` rows its
    /// mask has a row for and the `B` entries in a column its mask
    /// occupies. The kernel skips everything else, and a cut keeps its
    /// entries' order, so every slot folds the products it folded from
    /// the whole blocks, in the same order. All `opts.mem_budget`
    /// decides is whether stage `s+1`'s replies are posted while stage
    /// `s` multiplies: always without a budget, and under one iff four
    /// of the largest whole stage fit it — the rule the symmetric
    /// product shares, agreed grid-wide by one `allreduce`.
    pub fn prune_by_product<F>(
        &self,
        grid: &ProcGrid,
        a: &DistMat<F::A>,
        b: &DistMat<F::B>,
        fold: &F,
        opts: &SpGemmOptions,
        mut keep: impl FnMut(u64, u64, &T, &F::Slot) -> bool,
    ) -> DistMat<T>
    where
        F: MaskedFold<T> + Sync,
        F::A: Clone + CommMsg + Sync,
        F::B: Clone + CommMsg + Sync,
    {
        assert_eq!(
            a.col_layout, b.row_layout,
            "inner dimension layouts must agree for SUMMA"
        );
        assert_eq!(
            (self.row_layout, self.col_layout),
            (a.row_layout, b.col_layout),
            "the mask must be laid out like the product"
        );
        let world = grid.world();
        let lookahead = opts
            .mem_budget
            .is_none_or(|budget| prefetch_fits(grid, a.heap_bytes(), b.heap_bytes(), budget));
        let _mask_res = world.mem_charge_shared(&self.local, self.local.heap_bytes());
        let mut acc = MaskedAccumulator::new(&*self.local, fold).with_threads(opts.threads);
        let _acc_res = world.mem_charge(acc.heap_bytes());
        let fetch = MaskCut {
            grid,
            mask: &self.local,
            a,
            b,
        };
        for (a_block, b_block) in fetch.stages(lookahead) {
            let _a_res = world.mem_charge_shared(&a_block, a_block.heap_bytes());
            let _b_res = world.mem_charge_shared(&b_block, b_block.heap_bytes());
            acc.accumulate(&a_block, &b_block);
            world.record_mem_transient(acc.scratch_bytes());
        }
        world.record_par_time(elba_par::take_par_secs());
        let (r0, c0) = self.local_offsets(grid);
        let mut slots = acc.values().iter();
        let local = self.local.filtered(|r, c, v| {
            let slot = slots.next().expect("a slot per mask entry");
            keep((r as usize + r0) as u64, (c as usize + c0) as u64, v, slot)
        });
        DistMat {
            row_layout: self.row_layout,
            col_layout: self.col_layout,
            local: Arc::new(local),
        }
    }

    /// The general product's stage fetch: stage `s` yields block column
    /// `s` of `self`, broadcast along the grid row, and block row `s` of
    /// `other`, broadcast along the grid column — `Arc` clones of the
    /// owners' blocks, delivered whole to every rank of the row and
    /// column, one blocking broadcast pair per stage, so only one stage
    /// of remote blocks is ever resident. The oracle's schedule, kept
    /// plain on purpose: the pipeline products send each block only
    /// where it is used ([`UpperAat`]) or only as far as the receiver's
    /// mask reaches ([`MaskCut`]).
    fn stage_blocks<'a, U>(
        &'a self,
        grid: &'a ProcGrid,
        other: &'a DistMat<U>,
    ) -> impl Iterator<Item = StagePair<T, U>> + 'a
    where
        U: Clone + CommMsg + Sync,
    {
        (0..grid.q()).map(move |s| {
            (
                grid.row()
                    .bcast(s, (grid.mycol() == s).then(|| Arc::clone(&self.local))),
                grid.col()
                    .bcast(s, (grid.myrow() == s).then(|| Arc::clone(&other.local))),
            )
        })
    }

    /// Vertex degrees: row-wise nonzero count (the paper's "summation
    /// reduction over the row dimension" producing the degree vector `d`).
    /// Each rank counts its block's rows, slices the counts into the q
    /// vector sub-chunks its grid row owns, and reduce-scatters them
    /// across the row communicator as [`U32Run`]s, a varint per degree:
    /// a degree is bounded by the vertex's neighbours, not by the read
    /// count, so one below 128 costs one byte. Counts are `u32`, as
    /// column indices are: a row holds fewer than 2³² entries.
    pub fn row_degrees(&self, grid: &ProcGrid) -> DistVec<u32> {
        let partial: Vec<u32> = self
            .local
            .indptr()
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect();
        let row_range = self.row_layout.block_range(grid.myrow());
        let contributions: Vec<U32Run> = (0..grid.q())
            .map(|j| {
                let chunk = self.row_layout.chunk_range(grid.myrow(), j);
                let (lo, hi) = (chunk.start - row_range.start, chunk.end - row_range.start);
                U32Run::new(Plain, partial[lo..hi].to_vec())
            })
            .collect();
        let reduced = grid.row().reduce_scatter_block(contributions, |a, b| {
            let sums = a.values().iter().zip(b.values()).map(|(x, y)| x + y);
            U32Run::new(Plain, sums.collect())
        });
        DistVec::from_local(grid, self.row_layout.len(), reduced.into_values())
    }

    /// Zero out every row **and** column whose mask entry is `true`
    /// (ELBA's branch-vertex masking; requires a square matrix). The
    /// matrix keeps its dimensions — "row 10 is still a row in the
    /// matrix" — only its nonzeros change.
    pub fn mask_rows_cols(self, grid: &ProcGrid, mask: &DistVec<bool>) -> DistMat<T> {
        assert_eq!(
            self.row_layout, self.col_layout,
            "mask_rows_cols needs a square matrix"
        );
        assert_eq!(mask.len(), self.nrows());
        let (row_mask, col_mask) = mask.fetch_aligned(grid);
        // Local indices are block-relative and the fetched masks cover
        // exactly this block's row/column ranges, so direct indexing works.
        let (row_layout, col_layout) = (self.row_layout, self.col_layout);
        DistMat {
            row_layout,
            col_layout,
            local: Arc::new(
                self.into_local()
                    .retain(|r, c, _| !row_mask[r as usize] && !col_mask[c as usize]),
            ),
        }
    }
}

/// One SUMMA stage's `(A, B)` operand blocks.
type StagePair<A, B> = (Arc<Csr<A>>, Arc<Csr<B>>);

/// The symmetric product `a ⊗ aᵀ`, strict upper triangle
/// ([`DistMat::spgemm_aat_upper_with`]): rank `(i, j)` multiplies
/// `A(i, s) · A(j, s)ᵀ` at stage `s` when `i ≤ j`, and nothing below the
/// diagonal. The holder of `A(m, s)` is rank `(m, s)`; it sends the
/// block as stored to the row ranks `(m, j)`, `j ≥ m`, and its transpose
/// to the column ranks `(i, m)`, `i < m` — never to itself. The
/// diagonal rank `(m, m)` gets the block once and transposes it itself.
struct UpperAat<'m, T> {
    grid: &'m ProcGrid,
    a: &'m DistMat<T>,
}

impl<T: Clone + CommMsg + Sync> UpperAat<'_, T> {
    /// Ranks owed the holder's stage-`s` block as stored and as
    /// transposed (empty unless this rank holds `A(·, s)`).
    fn destinations(&self, s: usize) -> (Vec<usize>, Vec<usize>) {
        let (grid, m) = (self.grid, self.grid.myrow());
        if grid.mycol() != s {
            return (Vec::new(), Vec::new());
        }
        let rows = (m..grid.q())
            .filter(|&j| j != s)
            .map(|j| grid.rank_of(m, j))
            .collect();
        let cols = (0..m).map(|i| grid.rank_of(i, m)).collect();
        (rows, cols)
    }

    /// Stage `s`'s sends. Returns the transposed copy when this rank is
    /// the diagonal holder and keeps it as its own column operand; any
    /// other copy lives only as long as its buffered sends, so it is
    /// recorded as a transient, not held.
    fn post(&self, s: usize) -> Option<Arc<Csr<T>>> {
        let (world, local) = (self.grid.world(), &self.a.local);
        let (rows, cols) = self.destinations(s);
        world.send_each(&rows, FETCH_TAG, Arc::clone(local));
        let diagonal_holder = self.grid.mycol() == s && self.grid.is_diagonal();
        if cols.is_empty() && !diagonal_holder {
            return None;
        }
        let transposed = Arc::new(local.transposed());
        world.send_each(&cols, FETCH_TAG, Arc::clone(&transposed));
        if diagonal_holder {
            return Some(transposed);
        }
        world.record_mem_transient(transposed.heap_bytes());
        None
    }

    /// Each stage's `(A(i, s), A(j, s)ᵀ)` operand pair in stage order,
    /// `None` below the diagonal, where this rank multiplies nothing.
    /// With `lookahead`, stage `s+1`'s sends are posted before stage `s`
    /// is received, so the next transfer rides alongside the caller's
    /// multiply and blocked time books as wait; without it each stage is
    /// received blocking and only one stage of remote blocks is ever
    /// resident. Collective: every rank drives every stage.
    fn stages(&self, lookahead: bool) -> impl Iterator<Item = Option<StagePair<T, T>>> + '_ {
        let grid = self.grid;
        let world = grid.world();
        let (i, j) = (grid.myrow(), grid.mycol());
        let receive = move |src: usize| -> Arc<Csr<T>> {
            if lookahead {
                world.irecv(src, FETCH_TAG).wait()
            } else {
                world.recv(src, FETCH_TAG)
            }
        };
        // Sends are buffered, so prefetching stage s+1 is posting its
        // sends before stage s is received.
        let mut posted = if lookahead { self.post(0) } else { None };
        (0..grid.q()).map(move |s| {
            let kept = if lookahead {
                let next = if s + 1 < grid.q() {
                    self.post(s + 1)
                } else {
                    None
                };
                std::mem::replace(&mut posted, next)
            } else {
                self.post(s)
            };
            if i > j {
                return None;
            }
            let row = if j == s {
                Arc::clone(&self.a.local)
            } else {
                receive(grid.rank_of(i, s))
            };
            let col = if i < j {
                receive(grid.rank_of(j, s))
            } else {
                kept.unwrap_or_else(|| Arc::new(row.transposed()))
            };
            Some((row, col))
        })
    }

    /// ELBA's SUMMA for the symmetric product, its production
    /// schedule: one round of `q` stages over the whole output, each
    /// stage's rows merged into per-row accumulators that become the
    /// output block. Stage blocks are charged through shared
    /// (allocation-keyed) guards, which never count the owner's resident
    /// block twice.
    ///
    /// Without a `budget` stage `s+1`'s sends ride alongside stage `s`'s
    /// multiply and the row batch is the whole block: no communication
    /// beyond the stage fetch. Under a budget the stages are prefetched
    /// only if [`prefetch_fits`] agrees, and rows are multiplied in
    /// batches of `clamp(budget / 16 KiB, 32, 8192)`: a batch's product
    /// is built outside the accumulators, so the batch bounds it. Every
    /// accumulated entry is kept, so the output itself is never cut by
    /// the budget, and every transient is charged against the rank's
    /// memory tracker, so a profiled run shows what was reached.
    fn summa<S>(&self, semiring: &S, budget: Option<u64>, threads: usize) -> DistMat<S::Out>
    where
        S: Semiring<A = T, B = T> + Sync,
        S::Out: Clone + CommMsg + Sync,
    {
        let grid = self.grid;
        let world = grid.world();
        // `C`'s rows and columns are both laid out as `A`'s rows; `upper`
        // is this rank's block's global `(row, column)` offsets.
        let layout = self.a.row_layout;
        let (rows, cols) = (
            layout.block_range(grid.myrow()),
            layout.block_range(grid.mycol()),
        );
        let (nrows, ncols, upper) = (rows.len(), cols.len(), (rows.start, cols.start));
        let entry_bytes = std::mem::size_of::<u32>() + std::mem::size_of::<S::Out>();
        let (row_batch, prefetch) = match budget {
            None => (nrows.max(1), true),
            Some(budget) => (
                // One batch's output rows are a small slice of the
                // budget at a heuristic 1 KiB per accumulated row.
                ((budget / 16) as usize / 1024).clamp(32, 1 << 13),
                // A stage pairs an `A` block as stored with one
                // transposed; the transpose is sized, not built.
                prefetch_fits(
                    grid,
                    self.a.local.heap_bytes(),
                    self.a.local.transposed_heap_bytes(),
                    budget,
                ),
            ),
        };

        let mut acc_rows: Vec<(Vec<u32>, Vec<S::Out>)> =
            (0..nrows).map(|_| (Vec::new(), Vec::new())).collect();
        let mut acc_entries = 0usize;
        let mut charge = world.mem_charge(0);
        for stage in self.stages(prefetch) {
            // A rank with no output columns still drives the fetch
            // (every holder sends, every receiver drains), but its
            // multiply would produce nothing: skip it, as at a stage
            // this rank multiplies nothing in.
            let Some((a_block, b_block)) = stage.filter(|_| ncols > 0) else {
                continue;
            };
            let _a_res = world.mem_charge_shared(&a_block, a_block.heap_bytes());
            let _b_res = world.mem_charge_shared(&b_block, b_block.heap_bytes());
            acc_entries = merge_stage_rows(
                &a_block,
                &b_block,
                semiring,
                row_batch,
                threads,
                upper,
                &mut acc_rows,
                acc_entries,
                entry_bytes,
                &mut charge,
            );
        }
        world.record_par_time(elba_par::take_par_secs());

        let local = pack_rows_into_csr(acc_rows, ncols, acc_entries, entry_bytes, &mut charge);
        DistMat {
            row_layout: layout,
            col_layout: layout,
            local: Arc::new(local),
        }
    }
}

/// The masked product's stage fetch ([`DistMat::prune_by_product`]).
/// At stage `s` rank `(i, j)` folds `A(i, s) ⊗ B(s, j)` into the slots
/// of its mask block `M(i, j)`, and the kernel reads only the `A` rows
/// where `M(i, j)` has a row and the `B` entries in a column `M(i, j)`
/// occupies. So once per product each rank names those rows to the
/// other `q − 1` ranks of its grid row, the holders of `A(i, ·)`, and
/// those columns to the other `q − 1` ranks of its grid column, the
/// holders of `B(·, j)`, as packed `Vec<bool>`s. At stage `s` the holder
/// of `A(i, s)`, rank `(i, s)`, sends each row peer its block cut to the
/// rows that peer named, and the holder of `B(s, j)`, rank `(s, j)`,
/// each column peer its entries in the columns that peer named. A cut
/// that keeps every entry is the holder's own `Arc`, and a holder
/// multiplies its own block. At `q = 1` nothing is sent.
///
/// A rank holds `A(i, s)` at stage `s = j` only, and `B(s, j)` at
/// `s = i` only, so each request is read once, when its reply is built.
/// Two ranks share a grid row or a grid column, never both, so a product
/// sends at most one request and one reply each way between them, and
/// per-source order matches them, across products too.
struct MaskCut<'m, M, A, B> {
    grid: &'m ProcGrid,
    mask: &'m Csr<M>,
    a: &'m DistMat<A>,
    b: &'m DistMat<B>,
}

impl<M, A, B> MaskCut<'_, M, A, B>
where
    A: Clone + CommMsg + Sync,
    B: Clone + CommMsg + Sync,
{
    /// The other ranks of this rank's grid row, then of its grid column.
    fn peers(&self) -> (Vec<usize>, Vec<usize>) {
        let grid = self.grid;
        let (i, j) = (grid.myrow(), grid.mycol());
        let row = (0..grid.q())
            .filter(|&c| c != j)
            .map(|c| grid.rank_of(i, c))
            .collect();
        let col = (0..grid.q())
            .filter(|&r| r != i)
            .map(|r| grid.rank_of(r, j))
            .collect();
        (row, col)
    }

    /// Name the mask block's non-empty rows to the row peers and its
    /// occupied columns to the column peers. The two sets live only as
    /// long as their buffered sends: a transient.
    fn request(&self) {
        let (row_peers, col_peers) = self.peers();
        if row_peers.is_empty() {
            return;
        }
        let mask = self.mask;
        let rows: Vec<bool> = mask.indptr().windows(2).map(|w| w[0] != w[1]).collect();
        let mut cols = vec![false; mask.ncols()];
        for &c in mask.indices() {
            cols[c as usize] = true;
        }
        let world = self.grid.world();
        world.record_mem_transient(rows.len() + cols.len());
        world.send_each(&row_peers, REQUEST_TAG, Arc::new(rows));
        world.send_each(&col_peers, REQUEST_TAG, Arc::new(cols));
    }

    /// Stage `s`'s replies, from the holder of `A(i, s)` to its row peers
    /// and from the holder of `B(s, j)` to its column peers.
    fn post(&self, s: usize) {
        let (row_peers, col_peers) = self.peers();
        if self.grid.mycol() == s {
            for peer in row_peers {
                self.reply(peer, &self.a.local, true);
            }
        }
        if self.grid.myrow() == s {
            for peer in col_peers {
                self.reply(peer, &self.b.local, false);
            }
        }
    }

    /// Read `peer`'s request and send it `block` cut to the rows
    /// (`by_row`) or the columns it names. A cut copy lives only as long
    /// as its buffered send, so it is recorded with the request as a
    /// transient, one reply at a time.
    fn reply<T: Clone + CommMsg + Sync>(&self, peer: usize, block: &Arc<Csr<T>>, by_row: bool) {
        let world = self.grid.world();
        let named: Arc<Vec<bool>> = world.recv(peer, REQUEST_TAG);
        let cut = cut_to(block, &named, by_row);
        let copied = if Arc::ptr_eq(&cut, block) {
            0
        } else {
            cut.heap_bytes()
        };
        world.record_mem_transient(named.len() + copied);
        world.send(peer, REPLY_TAG, cut);
    }

    /// Each stage's `(A(i, s), B(s, j))` operand pair in stage order,
    /// cut to this rank's mask block. With `lookahead`, stage `s+1`'s
    /// replies are posted before stage `s` is received, so the next
    /// transfer rides alongside the caller's multiply and blocked time
    /// books as wait; without it each stage is received blocking and
    /// only one stage of remote blocks is ever resident. Collective:
    /// every rank drives every stage.
    fn stages(&self, lookahead: bool) -> impl Iterator<Item = StagePair<A, B>> + '_ {
        let grid = self.grid;
        let (i, j, q) = (grid.myrow(), grid.mycol(), grid.q());
        self.request();
        // Sends are buffered, so prefetching stage s+1 is posting its
        // replies before stage s is received.
        if lookahead {
            self.post(0);
        }
        (0..q).map(move |s| {
            if !lookahead {
                self.post(s);
            } else if s + 1 < q {
                self.post(s + 1);
            }
            let a = if j == s {
                Arc::clone(&self.a.local)
            } else {
                self.receive(grid.rank_of(i, s), lookahead)
            };
            let b = if i == s {
                Arc::clone(&self.b.local)
            } else {
                self.receive(grid.rank_of(s, j), lookahead)
            };
            (a, b)
        })
    }

    /// One reply from `src`: waited on as a request under `lookahead`
    /// (booked as wait), received blocking otherwise.
    fn receive<T: CommMsg>(&self, src: usize, lookahead: bool) -> T {
        let world = self.grid.world();
        if lookahead {
            world.irecv(src, REPLY_TAG).wait()
        } else {
            world.recv(src, REPLY_TAG)
        }
    }
}

/// `block` cut to the rows (`by_row`) or the columns `named` marks, its
/// entries' order kept; the block's own `Arc` when that is every entry.
fn cut_to<T: Clone>(block: &Arc<Csr<T>>, named: &[bool], by_row: bool) -> Arc<Csr<T>> {
    let keeps_all = if by_row {
        assert_eq!(named.len(), block.nrows(), "a request names block rows");
        let mut rows = block.indptr().windows(2).zip(named);
        rows.all(|(w, &n)| n || w[0] == w[1])
    } else {
        assert_eq!(named.len(), block.ncols(), "a request names block columns");
        block.indices().iter().all(|&c| named[c as usize])
    };
    if keeps_all {
        return Arc::clone(block);
    }
    Arc::new(block.filtered(|r, c, _| named[if by_row { r } else { c } as usize]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::semiring::{Count, PlusTimes};
    use elba_comm::{Backend, Runner};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_triples(
        rng: &mut StdRng,
        nrows: usize,
        ncols: usize,
        density: f64,
    ) -> Vec<(u64, u64, f64)> {
        let mut out = Vec::new();
        for r in 0..nrows {
            for c in 0..ncols {
                if rng.gen_bool(density) {
                    out.push((r as u64, c as u64, rng.gen_range(-3..4) as f64));
                }
            }
        }
        out.retain(|&(_, _, v)| v != 0.0);
        out
    }

    fn dense_from_triples(nrows: usize, ncols: usize, t: &[(u64, u64, f64)]) -> Dense {
        let mut d = Dense::zeros(nrows, ncols);
        for &(r, c, v) in t {
            d.set(r as usize, c as usize, v);
        }
        d
    }

    #[test]
    fn from_triples_round_trip() {
        for p in [1usize, 4, 9] {
            let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                let grid = ProcGrid::new(comm);
                // Only rank 0 contributes; routing must deliver to owners.
                let triples = if grid.world().rank() == 0 {
                    vec![(0u64, 0u64, 1.0f64), (6, 3, 2.0), (3, 6, 3.0), (9, 9, 4.0)]
                } else {
                    Vec::new()
                };
                let m = DistMat::from_triples(&grid, 10, 10, triples, |_, _| unreachable!());
                let mut all = m.gather_triples(&grid);
                all.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
                all
            });
            assert_eq!(
                out[0],
                vec![(0, 0, 1.0), (3, 6, 3.0), (6, 3, 2.0), (9, 9, 4.0)],
                "p={p}"
            );
        }
    }

    #[test]
    fn duplicate_triples_combined() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            // every rank contributes the same entry
            let triples = vec![(2u64, 2u64, 1.0f64)];
            let m = DistMat::from_triples(&grid, 5, 5, triples, |acc, v| *acc += v);
            m.gather_triples(&grid)
        });
        assert_eq!(out[0], vec![(2, 2, 4.0)]);
    }

    #[test]
    fn summa_matches_dense_reference() {
        for p in [1usize, 4, 9, 16] {
            let ok = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                let grid = ProcGrid::new(comm);
                let mut rng = StdRng::seed_from_u64(23 + p as u64);
                let (n, k, m) = (17, 11, 9);
                let a_triples = random_triples(&mut rng, n, k, 0.25);
                let b_triples = random_triples(&mut rng, k, m, 0.25);
                let mine_a = if grid.world().rank() == 0 {
                    a_triples.clone()
                } else {
                    Vec::new()
                };
                let mine_b = if grid.world().rank() == 0 {
                    b_triples.clone()
                } else {
                    Vec::new()
                };
                let a = DistMat::from_triples(&grid, n, k, mine_a, |_, _| unreachable!());
                let b = DistMat::from_triples(&grid, k, m, mine_b, |_, _| unreachable!());
                let c = a.spgemm_with(&grid, &b, &PlusTimes, 1);
                let want = dense_from_triples(n, k, &a_triples)
                    .matmul(&dense_from_triples(k, m, &b_triples));
                let got_triples = c.gather_triples(&grid);
                let got = dense_from_triples(n, m, &got_triples);
                got == want
            });
            assert!(ok.iter().all(|&x| x), "p={p}");
        }
    }

    #[test]
    fn all_budgets_match_dense_reference() {
        // The symmetric product with and without a budget against the
        // dense strict upper triangle of A·Aᵀ.
        for p in [1usize, 4, 9] {
            for opts in [
                SpGemmOptions::default(),
                // Budgeted regimes: blocking transfers and prefetched
                // ones, both in 32-row batches.
                SpGemmOptions::budgeted(1),
                SpGemmOptions::budgeted(1 << 30),
            ] {
                let ok = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                    let grid = ProcGrid::new(comm);
                    let mut rng = StdRng::seed_from_u64(101 + p as u64);
                    let (n, k) = (15, 12);
                    let a_triples = random_triples(&mut rng, n, k, 0.3);
                    let mine_a = if grid.world().rank() == 0 {
                        a_triples.clone()
                    } else {
                        Vec::new()
                    };
                    let a = DistMat::from_triples(&grid, n, k, mine_a, |_, _| unreachable!());
                    let c = a.spgemm_aat_upper_with(&grid, &PlusTimes, &opts);
                    let a_dense = dense_from_triples(n, k, &a_triples);
                    let mut want = a_dense.matmul(&a_dense.transpose());
                    for r in 0..n {
                        for c in 0..=r {
                            want.set(r, c, 0.0);
                        }
                    }
                    let got = dense_from_triples(n, n, &c.gather_triples(&grid));
                    got == want
                });
                assert!(ok.iter().all(|&x| x), "p={p} opts={opts:?}");
            }
        }
    }

    #[test]
    fn budgeted_tracked_high_water_respects_budget() {
        // The ELBA overlap-detection shape: a dense-ish C = AAᵀ. Every
        // entry the kernels accumulate is kept, so C itself is resident
        // under any budget, and packing its rows into one CSR holds it
        // twice (`pack_rows_into_csr`). The budget is that floor plus one
        // stage of blocks and slack, computed from the real sizes: the
        // budgeted run must stay under it on every rank, and never above
        // the unbudgeted one. Both must equal the general product pruned
        // to the strict upper triangle.
        let run = |opts: SpGemmOptions| {
            Runner::new(Backend::InProcess)
                .ranks(4)
                .run_profiled(move |comm| {
                    let grid = ProcGrid::new(comm);
                    let mut rng = StdRng::seed_from_u64(4242);
                    let (n, k) = (200usize, 64usize);
                    let triples = random_triples(&mut rng, n, k, 0.2);
                    let mine = if grid.world().rank() == 0 {
                        triples
                    } else {
                        Vec::new()
                    };
                    let a = DistMat::from_triples(&grid, n, k, mine, |_, _| unreachable!());
                    let c = {
                        let _g = grid.world().phase("spgemm");
                        a.spgemm_aat_upper_with(&grid, &PlusTimes, &opts)
                    };
                    let at = a.transpose(&grid);
                    let stage_bytes = a.heap_bytes() + at.heap_bytes();
                    let general = a
                        .spgemm_with(&grid, &at, &PlusTimes, 1)
                        .prune(&grid, |r, c, _| r < c);
                    let gathered = |m: &DistMat<f64>| {
                        let mut got = m.gather_triples(&grid);
                        got.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
                        got
                    };
                    (
                        gathered(&c),
                        gathered(&general),
                        c.heap_bytes(),
                        stage_bytes,
                    )
                })
        };
        let (outputs, plain) = run(SpGemmOptions::default());
        let max_c = outputs.iter().map(|o| o.2).max().expect("ranks");
        let max_stage = outputs.iter().map(|o| o.3).max().expect("ranks");
        let budget = (2 * max_c + max_stage + 8192) as u64;
        // Each rank's block has 100 rows, above the 32-row floor of the
        // budget-derived row batch: the one case here that runs more
        // than one row batch per stage.
        let (budgeted_outputs, budgeted) = run(SpGemmOptions::budgeted(budget));
        let hw_budgeted = budgeted.max_mem_hw("spgemm");
        assert!(
            hw_budgeted <= budget,
            "budgeted hw {hw_budgeted} exceeds budget {budget}"
        );
        let hw_plain = plain.max_mem_hw("spgemm");
        assert!(
            hw_budgeted <= hw_plain,
            "budgeted hw {hw_budgeted} above the unbudgeted {hw_plain}"
        );
        assert_eq!(
            outputs[0].0, budgeted_outputs[0].0,
            "a budget must not change the product"
        );
        assert_eq!(
            outputs[0].0, outputs[0].1,
            "the symmetric product must equal the general product's upper triangle"
        );
    }

    #[test]
    fn aat_with_count_semiring_counts_shared_columns() {
        // Mirrors overlap detection: A is reads×kmers, C = AAᵀ counts
        // shared k-mers between each read pair.
        let ok = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            // reads: 0 has kmers {0,1}, 1 has {1,2}, 2 has {3}
            let triples = if grid.world().rank() == 0 {
                vec![
                    (0u64, 0u64, 1u8),
                    (0, 1, 1),
                    (1, 1, 1),
                    (1, 2, 1),
                    (2, 3, 1),
                ]
            } else {
                Vec::new()
            };
            let a = DistMat::from_triples(&grid, 3, 4, triples, |_, _| unreachable!());
            let at = a.transpose(&grid);
            let c = a.spgemm_with(&grid, &at, &Count::<u8, u8>::new(), 1);
            let mut got = c.gather_triples(&grid);
            got.sort();
            got == vec![(0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 2), (2, 2, 1)]
        });
        assert!(ok.iter().all(|&x| x));
    }

    #[test]
    fn row_degrees_match_serial() {
        for p in [1usize, 4, 9] {
            let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                let grid = ProcGrid::new(comm);
                // path graph 0-1-2-3-4 plus branch 2-5, symmetric
                let edges: Vec<(u64, u64)> = vec![(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)];
                let triples: Vec<(u64, u64, u8)> = if grid.world().rank() == 0 {
                    edges
                        .iter()
                        .flat_map(|&(u, v)| [(u, v, 1u8), (v, u, 1u8)])
                        .collect()
                } else {
                    Vec::new()
                };
                let m = DistMat::from_triples(&grid, 6, 6, triples, |_, _| unreachable!());
                let deg = m.row_degrees(&grid);
                deg.to_global(&grid)
            });
            assert_eq!(out[0], vec![1, 2, 3, 2, 1, 1], "p={p}");
        }
    }

    #[test]
    fn mask_rows_cols_removes_branch_vertex() {
        // The §4.2 worked example: v1→v2→v3, v3→v4→v5→v6, v3→v7→v8
        // (0-indexed: v3 = vertex 2). Masking vertex 2 leaves chains
        // {0,1}, {3,4,5}, {6,7}.
        for p in [1usize, 4] {
            let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                let grid = ProcGrid::new(comm);
                let edges: Vec<(u64, u64)> =
                    vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (6, 7)];
                let triples: Vec<(u64, u64, u8)> = if grid.world().rank() == 0 {
                    edges
                        .iter()
                        .flat_map(|&(u, v)| [(u, v, 1u8), (v, u, 1u8)])
                        .collect()
                } else {
                    Vec::new()
                };
                let s = DistMat::from_triples(&grid, 8, 8, triples, |_, _| unreachable!());
                let deg = s.row_degrees(&grid);
                let mask = deg.map(&grid, |_, &d| d >= 3);
                let l = s.mask_rows_cols(&grid, &mask);
                let mut got: Vec<(u64, u64)> = l
                    .gather_triples(&grid)
                    .into_iter()
                    .map(|(r, c, _)| (r, c))
                    .collect();
                got.sort();
                got
            });
            let want: Vec<(u64, u64)> = vec![
                (0, 1),
                (1, 0),
                (3, 4),
                (4, 3),
                (4, 5),
                (5, 4),
                (6, 7),
                (7, 6),
            ];
            assert_eq!(out[0], want, "p={p}");
        }
    }

    #[test]
    fn prune_sees_global_coordinates() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            let triples = if grid.world().rank() == 0 {
                vec![(0u64, 1u64, 5u64), (1, 0, 6), (2, 2, 7)]
            } else {
                Vec::new()
            };
            let m = DistMat::from_triples(&grid, 3, 3, triples, |_, _| unreachable!());
            let kept = m.prune(&grid, |r, c, _| r != c);
            let mut got = kept.gather_triples(&grid);
            got.sort();
            got
        });
        assert_eq!(out[0], vec![(0, 1, 5), (1, 0, 6)]);
    }
}
