//! Collective operations over a [`Comm`], implemented with the classic
//! algorithms whose message counts match what an MPI library would issue:
//! binomial trees for broadcast/reduce, dissemination barrier, flat
//! personalized exchange for `alltoallv`. Reduction operators must be
//! associative and commutative (as for `MPI_Op`).

use std::time::Instant;

use crate::msg::CommMsg;
use crate::runtime::{op, Comm, Rank, Tag};

impl Comm {
    /// Synchronize all ranks (dissemination barrier, ⌈log₂ P⌉ rounds).
    pub fn barrier(&self) {
        let tag = self.next_coll_tag(op::BARRIER);
        let started = Instant::now();
        let p = self.size();
        let mut step = 1;
        while step < p {
            let dst = (self.rank() + step) % p;
            let src = (self.rank() + p - step) % p;
            self.raw_send(dst, tag, ());
            self.coll_recv::<()>(src, tag);
            step <<= 1;
        }
        self.record_collective(op::BARRIER, 0, started.elapsed().as_secs_f64());
    }

    /// Broadcast from `root`: the root passes `Some(value)`, everyone else
    /// `None`; all ranks return the value (binomial tree, ⌈log₂ P⌉ depth).
    ///
    /// Delivery is *arrival-driven* (see `bcast_deliver_tree`): the
    /// root pushes the value into every rank's mailbox at post time, so
    /// no rank's progress ever depends on an inner tree rank reaching
    /// its own receive — the ROADMAP's deep-tree serialization item.
    /// Every rank still *books* the modeled wire bytes of its own
    /// binomial-tree sends, so profiled traffic is identical to the
    /// per-hop schedule an MPI library would run.
    ///
    /// Pass an [`Arc`](std::sync::Arc) to broadcast without copying: `Arc<T>` is a
    /// [`CommMsg`] whose wire size is the inner value's, so every tree
    /// edge clones only the handle — the payload is never deep-copied on
    /// any rank, root included (share the root's resident block with
    /// `Arc::clone` instead of packing a copy) — while the profiler books
    /// exactly the bytes the owned value would. Charge received blocks
    /// with [`Comm::mem_charge_shared`] to keep the once-per-rank
    /// accounting honest.
    pub fn bcast<T: CommMsg + Clone>(&self, root: Rank, value: Option<T>) -> T {
        let tag = self.next_coll_tag(op::BCAST);
        let started = Instant::now();
        let p = self.size();
        let vr = (self.rank() + p - root) % p; // virtual rank, root at 0
        let value = if vr == 0 {
            let value = value.expect("bcast root must supply a value");
            bcast_deliver_tree(self, root, tag, &value);
            value
        } else {
            self.coll_recv::<T>(root, tag)
        };
        let bytes = tree_share_bytes(self, vr, &value);
        self.record_collective(op::BCAST, bytes, started.elapsed().as_secs_f64());
        value
    }

    /// Gather every rank's value at `root` (rank-ordered). Non-roots get `None`.
    pub fn gather<T: CommMsg>(&self, root: Rank, value: T) -> Option<Vec<T>> {
        let tag = self.next_coll_tag(op::GATHER);
        let started = Instant::now();
        let result = if self.rank() == root {
            let mut all: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            all[root] = Some(value);
            for (src, slot) in all.iter_mut().enumerate() {
                if src != root {
                    *slot = Some(self.coll_recv::<T>(src, tag));
                }
            }
            Some(
                all.into_iter()
                    .map(|v| v.expect("gather slot filled"))
                    .collect(),
            )
        } else {
            let bytes = value.nbytes();
            self.raw_send(root, tag, value);
            self.record_collective(op::GATHER, bytes, 0.0);
            None
        };
        self.record_collective(op::GATHER, 0, started.elapsed().as_secs_f64());
        result
    }

    /// All ranks receive every rank's value, rank-ordered
    /// (gather at rank 0 + broadcast; 2(P−1) messages).
    pub fn allgather<T: CommMsg + Clone>(&self, value: T) -> Vec<T> {
        let gathered = self.gather(0, value);
        self.bcast(0, gathered)
    }

    /// Reduce all values to `root` with `op` (binomial tree). `op` must be
    /// associative + commutative. Non-roots get `None`.
    pub fn reduce<T: CommMsg>(&self, root: Rank, value: T, op: impl Fn(T, T) -> T) -> Option<T> {
        let tag = self.next_coll_tag(op::REDUCE);
        let started = Instant::now();
        let p = self.size();
        let vr = (self.rank() + p - root) % p;
        let mut acc = Some(value);
        let mut step = 1;
        while step < p {
            if vr & step != 0 {
                let parent = (vr - step + root) % p;
                let value = acc.take().expect("value still held before sending");
                let bytes = value.nbytes();
                self.raw_send(parent, tag, value);
                self.record_collective(op::REDUCE, bytes, started.elapsed().as_secs_f64());
                return None;
            }
            if vr + step < p {
                let child = (vr + step + root) % p;
                let other = self.coll_recv::<T>(child, tag);
                acc = Some(op(acc.take().expect("accumulator held"), other));
            }
            step <<= 1;
        }
        self.record_collective(op::REDUCE, 0, started.elapsed().as_secs_f64());
        acc
    }

    /// Reduction whose result is available on every rank.
    pub fn allreduce<T: CommMsg + Clone>(&self, value: T, op: impl Fn(T, T) -> T) -> T {
        let reduced = self.reduce(0, value, op);
        self.bcast(0, reduced)
    }

    /// Personalized all-to-all: `bufs[dst]` is shipped to rank `dst`;
    /// returns the buffers received, indexed by source rank. The analogue
    /// of `MPI_Alltoallv` (and ELBA's "custom all-to-all" for edge triples).
    /// A buffer is any message: a `Vec<T>` of records, or a type that
    /// ships its sorted run at its information size.
    pub fn alltoallv<M: CommMsg>(&self, bufs: Vec<M>) -> Vec<M> {
        assert_eq!(
            bufs.len(),
            self.size(),
            "personalized exchange needs one buffer per rank"
        );
        let tag = self.next_coll_tag(op::ALLTOALLV);
        let started = Instant::now();
        let mut bytes = 0;
        for (dst, buf) in bufs.into_iter().enumerate() {
            bytes += buf.nbytes();
            self.raw_send(dst, tag, buf);
        }
        let received: Vec<M> = (0..self.size())
            .map(|src| self.coll_recv::<M>(src, tag))
            .collect();
        self.record_collective(op::ALLTOALLV, bytes, started.elapsed().as_secs_f64());
        received
    }

    /// Block reduce-scatter: every rank contributes one value *per rank*;
    /// rank `i` returns the reduction of all ranks' `i`-th contribution
    /// (`MPI_Reduce_scatter_block`). Used for global contig sizes (§4.2).
    pub fn reduce_scatter_block<T: CommMsg>(
        &self,
        contributions: Vec<T>,
        op: impl Fn(T, T) -> T,
    ) -> T {
        assert_eq!(
            contributions.len(),
            self.size(),
            "reduce_scatter_block needs one contribution per rank"
        );
        let tag = self.next_coll_tag(op::REDUCE_SCATTER);
        let started = Instant::now();
        let mut bytes = 0;
        for (dst, value) in contributions.into_iter().enumerate() {
            bytes += value.nbytes();
            self.raw_send(dst, tag, value);
        }
        let mut acc: Option<T> = None;
        for src in 0..self.size() {
            let value = self.coll_recv::<T>(src, tag);
            acc = Some(match acc.take() {
                None => value,
                Some(prev) => op(prev, value),
            });
        }
        self.record_collective(op::REDUCE_SCATTER, bytes, started.elapsed().as_secs_f64());
        acc.expect("at least one contribution")
    }

    /// Exclusive prefix scan: rank `r` returns `op` folded over the values
    /// of ranks `0..r`; rank 0 returns `identity`.
    pub fn exscan<T: CommMsg + Clone>(&self, value: T, identity: T, op: impl Fn(T, T) -> T) -> T {
        let tag = self.next_coll_tag(op::EXSCAN);
        let started = Instant::now();
        let prefix = if self.rank() == 0 {
            identity
        } else {
            self.coll_recv::<T>(self.rank() - 1, tag)
        };
        if self.rank() + 1 < self.size() {
            // The prefix clone is inherent to the scan, not a transport
            // copy: this rank must both *return* its own prefix and fold
            // it into the successor's — two live values with different
            // owners. Payloads here are scalar counts in practice; the
            // zero-copy shared path is for broadcast fan-out, where one
            // value reaches many ranks.
            let next = op(prefix.clone(), value);
            let bytes = next.nbytes();
            self.raw_send(self.rank() + 1, tag, next);
            self.record_collective(op::EXSCAN, bytes, 0.0);
        }
        self.record_collective(op::EXSCAN, 0, started.elapsed().as_secs_f64());
        prefix
    }
}

/// Arrival-driven tree delivery: when a broadcast value "arrives" at a
/// rank, its whole subtree is fed in the same delivering path — which,
/// applied recursively from the root, collapses to the root pushing the
/// value into every rank's mailbox at post time. Inner tree ranks never
/// hold up their descendants by reaching their receive late, closing the
/// ROADMAP item where deep trees (large q) serialized on hop-by-hop
/// forwarding. Physical copies: one `clone()` per non-root rank — a
/// refcount bump on the shared (`Arc`) path, a deep copy on the owned
/// path (the same total copy count hop-by-hop forwarding performed,
/// just executed by the delivering thread).
///
/// Wire bytes are *not* booked here: the binomial tree survives as the
/// byte model — each rank books its own modeled tree share via
/// [`tree_share_bytes`] when it completes, keeping per-rank profiled
/// traffic identical to the per-hop schedule an MPI library would run.
fn bcast_deliver_tree<T: CommMsg + Clone>(comm: &Comm, root: Rank, tag: Tag, value: &T) {
    let p = comm.size();
    for vr in 1..p {
        let dst = (vr + root) % p;
        comm.raw_send(dst, tag, value.clone());
    }
}

/// Modeled wire bytes of this rank's share of a `bcast` binomial tree:
/// one message of `value.nbytes()` per tree child. The byte model every
/// broadcast books against, shared by the owned and `Arc`-shared paths
/// so their profiled traffic can never diverge.
fn tree_share_bytes<T: CommMsg>(comm: &Comm, vr: usize, value: &T) -> usize {
    let p = comm.size();
    let limit = if vr == 0 {
        p.next_power_of_two()
    } else {
        vr & vr.wrapping_neg()
    };
    let mut children = 0;
    let mut j = limit >> 1;
    while j >= 1 {
        if vr + j < p {
            children += 1;
        }
        j >>= 1;
    }
    // `nbytes` of a sparse block is a pass over its entries: take it once.
    if children == 0 {
        0
    } else {
        children * value.nbytes()
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::{Backend, Runner};

    fn nonpow2_sizes() -> Vec<usize> {
        vec![1, 2, 3, 4, 5, 7, 8, 9]
    }

    #[test]
    fn barrier_all_sizes() {
        for p in nonpow2_sizes() {
            Runner::new(Backend::InProcess).ranks(p).run(|comm| {
                for _ in 0..3 {
                    comm.barrier();
                }
            });
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for p in nonpow2_sizes() {
            for root in 0..p {
                let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                    let value = if comm.rank() == root {
                        Some(42u64 + root as u64)
                    } else {
                        None
                    };
                    comm.bcast(root, value)
                });
                assert!(
                    out.iter().all(|&v| v == 42 + root as u64),
                    "p={p} root={root}"
                );
            }
        }
    }

    #[test]
    fn bcast_vectors() {
        let out = Runner::new(Backend::InProcess).ranks(6).run(|comm| {
            let value = if comm.rank() == 2 {
                Some(vec![1u32, 2, 3])
            } else {
                None
            };
            comm.bcast(2, value)
        });
        assert!(out.iter().all(|v| v == &vec![1u32, 2, 3]));
    }

    #[test]
    fn gather_rank_ordered() {
        for p in nonpow2_sizes() {
            let out = Runner::new(Backend::InProcess)
                .ranks(p)
                .run(|comm| comm.gather(0, comm.rank() as u64 * 10));
            let root = out[0].as_ref().expect("root holds result");
            assert_eq!(root, &(0..p as u64).map(|r| r * 10).collect::<Vec<_>>());
            assert!(out[1..].iter().all(Option::is_none));
        }
    }

    #[test]
    fn reduce_sum_every_root() {
        for p in nonpow2_sizes() {
            for root in 0..p {
                let out = Runner::new(Backend::InProcess)
                    .ranks(p)
                    .run(move |comm| comm.reduce(root, comm.rank() as u64 + 1, |a, b| a + b));
                let expect = (p * (p + 1) / 2) as u64;
                assert_eq!(out[root], Some(expect), "p={p} root={root}");
                for (r, v) in out.iter().enumerate() {
                    if r != root {
                        assert!(v.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn allreduce_max() {
        let out = Runner::new(Backend::InProcess)
            .ranks(7)
            .run(|comm| comm.allreduce(comm.rank() as u64, u64::max));
        assert!(out.iter().all(|&v| v == 6));
    }

    #[test]
    fn allgather_orders_by_rank() {
        for p in nonpow2_sizes() {
            let out = Runner::new(Backend::InProcess)
                .ranks(p)
                .run(|comm| comm.allgather(comm.rank() as u64));
            for v in out {
                assert_eq!(v, (0..p as u64).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn alltoallv_personalizes() {
        let p = 4;
        let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            // rank r sends [r*10 + dst] to each dst.
            let bufs: Vec<Vec<u64>> = (0..p)
                .map(|dst| vec![comm.rank() as u64 * 10 + dst as u64])
                .collect();
            comm.alltoallv(bufs)
        });
        for (dst, received) in out.iter().enumerate() {
            for (src, buf) in received.iter().enumerate() {
                assert_eq!(buf, &vec![src as u64 * 10 + dst as u64]);
            }
        }
    }

    #[test]
    fn alltoallv_empty_buffers_ok() {
        let out = Runner::new(Backend::InProcess).ranks(3).run(|comm| {
            let bufs: Vec<Vec<u64>> = vec![Vec::new(); 3];
            comm.alltoallv(bufs)
        });
        assert!(out.iter().all(|bufs| bufs.iter().all(Vec::is_empty)));
    }

    #[test]
    fn reduce_scatter_block_sums_columns() {
        let p = 5;
        let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            // contribution[i] = rank + i; reduced column i = sum over ranks.
            let contributions: Vec<u64> = (0..p).map(|i| comm.rank() as u64 + i as u64).collect();
            comm.reduce_scatter_block(contributions, |a, b| a + b)
        });
        let rank_sum: u64 = (0..p as u64).sum();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, rank_sum + (p * i) as u64);
        }
    }

    #[test]
    fn exscan_prefix_sums() {
        let out = Runner::new(Backend::InProcess)
            .ranks(6)
            .run(|comm| comm.exscan(comm.rank() as u64 + 1, 0, |a, b| a + b));
        // rank r gets sum of 1..=r
        assert_eq!(out, vec![0, 1, 3, 6, 10, 15]);
    }

    #[test]
    fn bcast_subtree_does_not_depend_on_inner_rank_progress() {
        // Arrival-driven delivery: rank 2 (the tree parent of rank 3)
        // refuses to enter the broadcast until rank 3 has already
        // received its value. Under hop-by-hop forwarding this deadlocks.
        let out = Runner::new(Backend::InProcess)
            .ranks(4)
            .run(|comm| match comm.rank() {
                2 => {
                    let ack = comm.recv::<u64>(3, 1);
                    let v = comm.bcast(0, None::<u64>);
                    v + ack
                }
                3 => {
                    let v = comm.bcast(0, None);
                    comm.send(2, 1, v * 10);
                    v
                }
                _ => comm.bcast(0, (comm.rank() == 0).then_some(5u64)),
            });
        assert_eq!(out, vec![5, 5, 55, 5]);
    }

    #[test]
    fn collectives_interleave_with_p2p() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(right, 5, comm.rank() as u64);
            let sum = comm.allreduce(1u64, |a, b| a + b);
            let from_left = comm.recv::<u64>(left, 5);
            comm.barrier();
            sum + from_left
        });
        assert_eq!(out, vec![7, 4, 5, 6]);
    }
}
