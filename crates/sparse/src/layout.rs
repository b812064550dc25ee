//! Index arithmetic for the 2D block distribution.
//!
//! A dimension of length `n` is split into `q` balanced block ranges (one
//! per grid row/column). Distributed *vectors* subdivide each block range
//! again into `q` sub-chunks, so that rank `(i, j)` owns sub-chunk `j` of
//! block `i`. By construction the union of the vector chunks held by grid
//! row `i` equals the matrix block-row range `i` — which is exactly the
//! property ELBA's induced-subgraph exchange (paper Fig. 2) relies on:
//! an allgather over the grid row reassembles the vector restricted to
//! the local block's row range.

/// Start offset of part `k` when splitting `n` items into `parts`
/// balanced contiguous pieces (sizes differ by at most one).
#[inline]
pub fn split_point(n: usize, parts: usize, k: usize) -> usize {
    debug_assert!(k <= parts);
    k * (n / parts) + k.min(n % parts)
}

/// Balanced block layout of one dimension over a √P×√P grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout2D {
    n: usize,
    q: usize,
}

impl Layout2D {
    pub fn new(n: usize, q: usize) -> Self {
        assert!(q > 0);
        Layout2D { n, q }
    }

    /// Global length of the dimension.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Grid side length.
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Global index range of matrix block `i` (a block-row or block-column).
    #[inline]
    pub fn block_range(&self, i: usize) -> std::ops::Range<usize> {
        split_point(self.n, self.q, i)..split_point(self.n, self.q, i + 1)
    }

    /// Which block a global index falls into.
    #[inline]
    pub fn block_of(&self, g: usize) -> usize {
        debug_assert!(g < self.n);
        let (base, rem) = (self.n / self.q, self.n % self.q);
        if base == 0 {
            // Fewer items than blocks: item g lives in block g.
            return g;
        }
        let boundary = rem * (base + 1);
        if g < boundary {
            g / (base + 1)
        } else {
            rem + (g - boundary) / base
        }
    }

    /// Global index range of vector sub-chunk `j` within block `i`
    /// (owned by grid rank `(i, j)`).
    #[inline]
    pub fn chunk_range(&self, i: usize, j: usize) -> std::ops::Range<usize> {
        let block = self.block_range(i);
        let m = block.len();
        (block.start + split_point(m, self.q, j))..(block.start + split_point(m, self.q, j + 1))
    }

    /// Grid position `(i, j)` of the rank owning vector element `g`.
    #[inline]
    pub fn chunk_owner(&self, g: usize) -> (usize, usize) {
        let i = self.block_of(g);
        let block = self.block_range(i);
        let m = block.len();
        let local = g - block.start;
        let (base, rem) = (m / self.q, m % self.q);
        let j = if base == 0 {
            local
        } else {
            let boundary = rem * (base + 1);
            if local < boundary {
                local / (base + 1)
            } else {
                rem + (local - boundary) / base
            }
        };
        (i, j)
    }

    /// World rank (row-major) owning vector element `g`.
    #[inline]
    pub fn owner_rank(&self, g: usize) -> usize {
        let (i, j) = self.chunk_owner(g);
        i * self.q + j
    }

    /// A [`BlockCursor`] over this layout.
    #[inline]
    pub fn cursor(&self) -> BlockCursor {
        BlockCursor {
            layout: *self,
            block: 0,
            range: 0..0,
        }
    }
}

/// [`Layout2D::block_of`] for a stream of indices with locality: keeps
/// the block range the last index fell into and pays `block_of`'s
/// divisions only when an index leaves it.
#[derive(Debug, Clone)]
pub struct BlockCursor {
    layout: Layout2D,
    block: usize,
    range: std::ops::Range<usize>,
}

impl BlockCursor {
    /// The block global index `g` falls into and `g`'s offset within it.
    #[inline]
    pub fn locate(&mut self, g: usize) -> (usize, usize) {
        if !self.range.contains(&g) {
            self.block = self.layout.block_of(g);
            self.range = self.layout.block_range(self.block);
        }
        (self.block, g - self.range.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_points_cover_exactly() {
        for n in [0usize, 1, 5, 7, 16, 100, 101] {
            for parts in [1usize, 2, 3, 4, 7] {
                assert_eq!(split_point(n, parts, 0), 0);
                assert_eq!(split_point(n, parts, parts), n);
                let mut total = 0;
                for k in 0..parts {
                    let len = split_point(n, parts, k + 1) - split_point(n, parts, k);
                    assert!(len >= n / parts && len <= n / parts + 1);
                    total += len;
                }
                assert_eq!(total, n);
            }
        }
    }

    #[test]
    fn block_of_inverts_ranges() {
        for n in [1usize, 5, 16, 97, 100] {
            for q in [1usize, 2, 3, 5] {
                let layout = Layout2D::new(n, q);
                for g in 0..n {
                    let i = layout.block_of(g);
                    assert!(layout.block_range(i).contains(&g), "n={n} q={q} g={g}");
                }
            }
        }
    }

    #[test]
    fn cursor_agrees_with_block_of_in_any_order() {
        for n in [1usize, 2, 5, 16, 97, 100] {
            for q in [1usize, 2, 3, 5] {
                let layout = Layout2D::new(n, q);
                let mut cursor = layout.cursor();
                // Ascending, descending, then a stride that hops blocks.
                let order = (0..n).chain((0..n).rev()).chain((0..n).map(|i| i * 7 % n));
                for g in order {
                    let i = layout.block_of(g);
                    let want = (i, g - layout.block_range(i).start);
                    assert_eq!(cursor.locate(g), want, "n={n} q={q} g={g}");
                }
            }
        }
    }

    #[test]
    fn chunks_partition_blocks() {
        for n in [4usize, 10, 37, 100] {
            for q in [2usize, 3, 4] {
                let layout = Layout2D::new(n, q);
                let mut seen = vec![false; n];
                for i in 0..q {
                    let mut union_len = 0;
                    for j in 0..q {
                        let chunk = layout.chunk_range(i, j);
                        union_len += chunk.len();
                        for g in chunk {
                            assert!(!seen[g]);
                            seen[g] = true;
                            assert_eq!(layout.chunk_owner(g), (i, j));
                            assert_eq!(layout.owner_rank(g), i * q + j);
                        }
                    }
                    assert_eq!(union_len, layout.block_range(i).len());
                }
                assert!(seen.iter().all(|&s| s));
            }
        }
    }

    #[test]
    fn row_chunks_union_equals_block_row() {
        // The invariant Fig. 2 depends on: grid row i's vector chunks,
        // concatenated in column order, cover exactly block range i.
        let layout = Layout2D::new(103, 4);
        for i in 0..4 {
            let mut concat = Vec::new();
            for j in 0..4 {
                concat.extend(layout.chunk_range(i, j));
            }
            assert_eq!(concat, layout.block_range(i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn tiny_dimension_fewer_items_than_blocks() {
        let layout = Layout2D::new(2, 3);
        assert_eq!(layout.block_range(0), 0..1);
        assert_eq!(layout.block_range(1), 1..2);
        assert_eq!(layout.block_range(2), 2..2);
        assert_eq!(layout.block_of(0), 0);
        assert_eq!(layout.block_of(1), 1);
    }
}
