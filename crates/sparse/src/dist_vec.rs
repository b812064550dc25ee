//! Distributed vector over a √P×√P process grid.
//!
//! A vector of length `n` is partitioned into P contiguous chunks: rank
//! `(i, j)` owns sub-chunk `j` of block range `i` (see [`crate::layout`]).
//! This is the distribution ELBA uses for the degree vector `d`, the
//! branch vector `b`, the connected-component vector `v` and the
//! contig-to-processor assignment `p`.
//!
//! The key primitive is [`DistVec::fetch_aligned`] — the paper's Fig. 2
//! exchange: an `MPI_Allgather` over the grid-*row* communicator
//! reassembles the vector restricted to the local matrix block's row
//! range, and a point-to-point swap with the *transposed* rank `(j, i)`
//! yields the column range. Every rank then knows `v[u]` and `v[w]` for
//! every local nonzero `(u, w)` without a grid-wide allgather. A
//! `DistVec<bool>` mask ships eight entries to a byte (`bool`'s slice
//! codec in `elba_comm::msg`).
//!
//! [`DistVec::gather`] and [`DistVec::scatter_combine`] address remote
//! elements by their `u32` offset into the owner's chunk, not by global
//! index: the owner is the destination rank, so the offset is all the
//! receiver needs.

use elba_comm::{CommMsg, ProcGrid};

use crate::layout::Layout2D;

/// Tag used for the transposed-rank exchange inside `fetch_aligned`.
const FETCH_TAG: u64 = 0x00F1_F1F1;

/// A vector distributed in P chunks over the process grid.
#[derive(Debug, Clone)]
pub struct DistVec<T> {
    layout: Layout2D,
    local: Vec<T>,
}

impl<T: Clone + CommMsg> DistVec<T> {
    /// Build by evaluating `f` at every globally-owned index.
    pub fn from_fn(grid: &ProcGrid, n: usize, f: impl FnMut(usize) -> T) -> Self {
        let layout = Layout2D::new(n, grid.q());
        let range = layout.chunk_range(grid.myrow(), grid.mycol());
        DistVec {
            layout,
            local: range.map(f).collect(),
        }
    }

    /// Build from a replicated global slice (every rank passes the same
    /// data; each keeps only its chunk).
    pub fn from_global(grid: &ProcGrid, data: &[T]) -> Self {
        let layout = Layout2D::new(data.len(), grid.q());
        let range = layout.chunk_range(grid.myrow(), grid.mycol());
        DistVec {
            layout,
            local: data[range].to_vec(),
        }
    }

    /// Wrap an already-local chunk (must match the layout's chunk length).
    pub fn from_local(grid: &ProcGrid, n: usize, local: Vec<T>) -> Self {
        let layout = Layout2D::new(n, grid.q());
        assert_eq!(
            local.len(),
            layout.chunk_range(grid.myrow(), grid.mycol()).len()
        );
        DistVec { layout, local }
    }

    /// Global length.
    #[inline]
    pub fn len(&self) -> usize {
        self.layout.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.layout.is_empty()
    }

    #[inline]
    pub fn layout(&self) -> Layout2D {
        self.layout
    }

    /// This rank's chunk.
    #[inline]
    pub fn local(&self) -> &[T] {
        &self.local
    }

    #[inline]
    pub fn local_mut(&mut self) -> &mut [T] {
        &mut self.local
    }

    /// Global index range of this rank's chunk.
    pub fn global_range(&self, grid: &ProcGrid) -> std::ops::Range<usize> {
        self.layout.chunk_range(grid.myrow(), grid.mycol())
    }

    /// Replicate the whole vector on every rank (world allgather; chunk
    /// ranges are increasing in rank order, so concatenation is global
    /// order).
    pub fn to_global(&self, grid: &ProcGrid) -> Vec<T> {
        let chunks = grid.world().allgather(self.local.clone());
        let mut out = Vec::with_capacity(self.layout.len());
        for chunk in chunks {
            out.extend(chunk);
        }
        out
    }

    /// The rank owning global index `g`, and `g`'s offset into that
    /// rank's chunk: what [`DistVec::gather`] and
    /// [`DistVec::scatter_combine`] ship in place of the global index.
    fn owner_offset(&self, g: usize) -> (usize, u32) {
        let (i, j) = self.layout.chunk_owner(g);
        let offset = g - self.layout.chunk_range(i, j).start;
        let offset = u32::try_from(offset).expect("a vector chunk holds fewer than 2^32 entries");
        (i * self.layout.q() + j, offset)
    }

    /// Fetch arbitrary elements by global index (request/reply alltoallv
    /// pair). Returns values in the order of `indices`. Locally owned
    /// indices are served from this rank's chunk and every distinct
    /// remote index is requested once, however often it repeats, as a
    /// `u32` offset into its owner's chunk.
    pub fn gather(&self, grid: &ProcGrid, indices: &[usize]) -> Vec<T> {
        let mine = self.global_range(grid);
        let mut remote: Vec<usize> = indices
            .iter()
            .copied()
            .filter(|g| !mine.contains(g))
            .collect();
        remote.sort_unstable();
        remote.dedup();
        let mut requests: Vec<Vec<u32>> = vec![Vec::new(); grid.world().size()];
        for &g in &remote {
            let (owner, offset) = self.owner_offset(g);
            requests[owner].push(offset);
        }
        let incoming = grid.world().alltoallv(requests);
        let replies: Vec<Vec<T>> = incoming
            .into_iter()
            .map(|reqs| {
                reqs.into_iter()
                    .map(|offset| self.local[offset as usize].clone())
                    .collect()
            })
            .collect();
        // Chunk ranges increase in rank order, so the replies concatenated
        // by source rank line up with the sorted `remote` list.
        let fetched: Vec<T> = grid
            .world()
            .alltoallv(replies)
            .into_iter()
            .flatten()
            .collect();
        indices
            .iter()
            .map(|&g| {
                if mine.contains(&g) {
                    self.local[g - mine.start].clone()
                } else {
                    let pos = remote.binary_search(&g).expect("requested above");
                    fetched[pos].clone()
                }
            })
            .collect()
    }

    /// Fold `(index, value)` updates into their owners' chunks with
    /// `combine`: locally owned indices in place (in `updates` order),
    /// then the routed ones — each addressed by a `u32` offset into its
    /// owner's chunk — in source-rank order. `combine` should not depend
    /// on the order of its updates.
    pub fn scatter_combine(
        &mut self,
        grid: &ProcGrid,
        updates: Vec<(usize, T)>,
        mut combine: impl FnMut(&mut T, T),
    ) {
        let p = grid.world().size();
        let mine = self.global_range(grid);
        let mut outgoing: Vec<Vec<(u32, T)>> = (0..p).map(|_| Vec::new()).collect();
        for (g, v) in updates {
            if mine.contains(&g) {
                combine(&mut self.local[g - mine.start], v);
            } else {
                let (owner, offset) = self.owner_offset(g);
                outgoing[owner].push((offset, v));
            }
        }
        for batch in grid.world().alltoallv(outgoing) {
            for (offset, v) in batch {
                combine(&mut self.local[offset as usize], v);
            }
        }
    }

    /// The paper's Fig. 2 exchange. Returns `(row_vals, col_vals)`:
    /// the vector restricted to this rank's matrix block *row* range
    /// (`block_range(myrow)`) and block *column* range
    /// (`block_range(mycol)`), respectively.
    pub fn fetch_aligned(&self, grid: &ProcGrid) -> (Vec<T>, Vec<T>) {
        // Row range: an allgather over the grid-row communicator — grid
        // row i's chunks concatenated (in column order) cover block range
        // i exactly.
        let row_chunks = grid.row().allgather(self.local.clone());
        let mut row_vals = Vec::with_capacity(self.layout.block_range(grid.myrow()).len());
        for chunk in row_chunks {
            row_vals.extend(chunk);
        }
        // Column range: the transposed processor P(j, i) just assembled
        // block range j — swap with it point-to-point.
        let col_vals = if grid.is_diagonal() {
            row_vals.clone()
        } else {
            let partner = grid.transpose_rank();
            grid.world().send(partner, FETCH_TAG, row_vals.clone());
            grid.world().recv::<Vec<T>>(partner, FETCH_TAG)
        };
        debug_assert_eq!(col_vals.len(), self.layout.block_range(grid.mycol()).len());
        (row_vals, col_vals)
    }

    /// Map element-wise (with global index).
    pub fn map<U: Clone + CommMsg>(
        &self,
        grid: &ProcGrid,
        mut f: impl FnMut(usize, &T) -> U,
    ) -> DistVec<U> {
        let range = self.global_range(grid);
        DistVec {
            layout: self.layout,
            local: range.zip(&self.local).map(|(g, v)| f(g, v)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elba_comm::{Backend, Runner};

    #[test]
    fn round_trip_global() {
        for p in [1usize, 4, 9] {
            let out = Runner::new(Backend::InProcess).ranks(p).run(|comm| {
                let grid = ProcGrid::new(comm);
                let data: Vec<u64> = (0..37).map(|i| i * i).collect();
                let v = DistVec::from_global(&grid, &data);
                v.to_global(&grid)
            });
            let want: Vec<u64> = (0..37).map(|i| i * i).collect();
            assert!(out.iter().all(|v| v == &want));
        }
    }

    #[test]
    fn from_fn_matches_from_global() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            let v = DistVec::from_fn(&grid, 23, |g| g as u64 * 3);
            v.to_global(&grid)
        });
        assert_eq!(out[0], (0..23).map(|g| g as u64 * 3).collect::<Vec<_>>());
    }

    #[test]
    fn gather_arbitrary_indices() {
        let out = Runner::new(Backend::InProcess).ranks(9).run(|comm| {
            let grid = ProcGrid::new(comm);
            let v = DistVec::from_fn(&grid, 50, |g| g as u64 + 100);
            // every rank asks for a scattered, rank-dependent set
            let indices: Vec<usize> = (0..10)
                .map(|k| (k * 7 + grid.world().rank()) % 50)
                .collect();
            let got = v.gather(&grid, &indices);
            indices
                .into_iter()
                .zip(got)
                .all(|(g, val)| val == g as u64 + 100)
        });
        assert!(out.iter().all(|&ok| ok));
    }

    #[test]
    fn gather_with_duplicates_and_empty() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            let v = DistVec::from_fn(&grid, 10, |g| g as u64);
            if grid.world().rank() == 0 {
                v.gather(&grid, &[3, 3, 9, 0, 3])
            } else {
                v.gather(&grid, &[])
            }
        });
        assert_eq!(out[0], vec![3, 3, 9, 0, 3]);
        assert!(out[1].is_empty());
    }

    #[test]
    fn gather_serves_local_and_asks_each_remote_index_once() {
        // (what every rank asks for, payload bytes of the whole exchange)
        let n = 40usize;
        // two alltoallv of 4 × 4 buffers, each with an 8-byte length
        let framing = 2 * 4 * 4 * 8;
        let cases: [(&str, u64); 4] = [
            ("all-local", 0),
            // 4 ranks × 3 distinct remote indices × (4 B chunk offset
            // request + 8 B reply)
            ("all-remote", 4 * 3 * 12),
            // 500 copies of one remote and one local index: one round trip each
            ("duplicates", 4 * 12),
            ("rank0-only", 3 * 12),
        ];
        for (case, payload) in cases {
            let (out, profile) =
                Runner::new(Backend::InProcess)
                    .ranks(4)
                    .run_profiled(move |comm| {
                        let grid = ProcGrid::new(comm);
                        let v = DistVec::from_fn(&grid, n, |g| g as u64 * 3 + 1);
                        let mine = v.global_range(&grid);
                        let mut next = (mine.end % n..n).chain(0..n).filter(|g| !mine.contains(g));
                        let indices: Vec<usize> = match case {
                            "all-local" => mine.clone().rev().chain(mine.clone()).collect(),
                            "all-remote" => next.take(3).collect(),
                            "duplicates" => {
                                let remote = next.next().expect("n exceeds one chunk");
                                (0..1000)
                                    .map(|k| if k % 2 == 0 { remote } else { mine.start })
                                    .collect()
                            }
                            _ if grid.world().rank() == 0 => next.take(3).collect(),
                            _ => Vec::new(),
                        };
                        let _g = grid.world().phase("gather");
                        let got = v.gather(&grid, &indices);
                        got.len() == indices.len()
                            && indices
                                .iter()
                                .zip(&got)
                                .all(|(&g, &x)| x == g as u64 * 3 + 1)
                    });
            assert!(out.iter().all(|&ok| ok), "{case}");
            assert_eq!(profile.total_bytes("gather"), framing + payload, "{case}");
        }
    }

    #[test]
    fn scatter_combine_accumulates() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            let mut v = DistVec::from_fn(&grid, 8, |_| 0u64);
            // every rank increments every index by its rank+1
            let updates: Vec<(usize, u64)> = (0..8)
                .map(|g| (g, grid.world().rank() as u64 + 1))
                .collect();
            v.scatter_combine(&grid, updates, |acc, x| *acc += x);
            v.to_global(&grid)
        });
        // 1+2+3+4 = 10 at every index
        assert_eq!(out[0], vec![10; 8]);
    }

    #[test]
    fn scatter_combine_applies_owned_updates_in_place() {
        let (out, profile) = Runner::new(Backend::InProcess)
            .ranks(4)
            .run_profiled(|comm| {
                let grid = ProcGrid::new(comm);
                let mut v = DistVec::from_fn(&grid, 10, |_| 0u64);
                let updates: Vec<(usize, u64)> = v.global_range(&grid).map(|g| (g, 7)).collect();
                {
                    let _g = grid.world().phase("scatter");
                    v.scatter_combine(&grid, updates, |acc, x| *acc += x);
                }
                v.to_global(&grid)
            });
        assert_eq!(out[0], vec![7; 10]);
        // 4 × 4 empty buffers of one length word each: no update traveled.
        assert_eq!(profile.total_bytes("scatter"), 4 * 4 * 8);
    }

    #[test]
    fn fetch_aligned_covers_block_ranges() {
        for p in [1usize, 4, 9, 16] {
            let out = Runner::new(Backend::InProcess).ranks(p).run(|comm| {
                let grid = ProcGrid::new(comm);
                let n = 29;
                let v = DistVec::from_fn(&grid, n, |g| g as u64 * 2);
                let (row_vals, col_vals) = v.fetch_aligned(&grid);
                let row_range = v.layout().block_range(grid.myrow());
                let col_range = v.layout().block_range(grid.mycol());
                let row_ok = row_range
                    .clone()
                    .zip(&row_vals)
                    .all(|(g, &val)| val == g as u64 * 2)
                    && row_vals.len() == row_range.len();
                let col_ok = col_range
                    .clone()
                    .zip(&col_vals)
                    .all(|(g, &val)| val == g as u64 * 2)
                    && col_vals.len() == col_range.len();
                row_ok && col_ok
            });
            assert!(out.iter().all(|&ok| ok), "p={p}");
        }
    }

    #[test]
    fn map_keeps_layout() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            let v = DistVec::from_fn(&grid, 11, |g| g as u64);
            let w = v.map(&grid, |g, &x| (g as u64) + x);
            w.to_global(&grid)
        });
        assert_eq!(out[0], (0..11).map(|g| 2 * g as u64).collect::<Vec<_>>());
    }
}
