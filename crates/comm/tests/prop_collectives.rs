//! Property tests for the collective implementations: every collective
//! must agree with its obvious serial reference on arbitrary inputs,
//! rank counts, and roots — including the non-power-of-two sizes where
//! binomial-tree index bugs live.

use elba_comm::{Backend, Runner};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn bcast_delivers_to_all(p in 1usize..10, root_k in 0usize..10, value: u64) {
        let root = root_k % p;
        let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            comm.bcast(root, (comm.rank() == root).then_some(value))
        });
        prop_assert!(out.iter().all(|&v| v == value));
    }

    #[test]
    fn reduce_sums_like_serial(p in 1usize..10, root_k in 0usize..10, values in proptest::collection::vec(0u64..1_000_000, 10)) {
        let root = root_k % p;
        let values_in = values.clone();
        let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            comm.reduce(root, values_in[comm.rank() % values_in.len()], |a, b| a + b)
        });
        let expect: u64 = (0..p).map(|r| values[r % values.len()]).sum();
        prop_assert_eq!(out[root], Some(expect));
        for (r, v) in out.iter().enumerate() {
            if r != root {
                prop_assert!(v.is_none());
            }
        }
    }

    #[test]
    fn allreduce_min_max(p in 1usize..10, values in proptest::collection::vec(0i64..1000, 10)) {
        let values_in = values.clone();
        let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let mine = values_in[comm.rank() % values_in.len()];
            (comm.allreduce(mine, i64::min), comm.allreduce(mine, i64::max))
        });
        let mine: Vec<i64> = (0..p).map(|r| values[r % values.len()]).collect();
        let (lo, hi) = (*mine.iter().min().expect("p>=1"), *mine.iter().max().expect("p>=1"));
        prop_assert!(out.iter().all(|&(a, b)| a == lo && b == hi));
    }

    #[test]
    fn allgather_is_rank_ordered(p in 1usize..10, salt: u64) {
        let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            comm.allgather(comm.rank() as u64 ^ salt)
        });
        let expect: Vec<u64> = (0..p as u64).map(|r| r ^ salt).collect();
        prop_assert!(out.iter().all(|v| v == &expect));
    }

    #[test]
    fn alltoallv_transposes_the_send_matrix(p in 1usize..8, salt in 0u64..1000) {
        let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let bufs: Vec<Vec<u64>> = (0..p)
                .map(|dst| {
                    // variable-length buffers: dst receives (src+dst+salt) repeated
                    vec![comm.rank() as u64 + dst as u64 + salt; (comm.rank() + dst) % 3 + 1]
                })
                .collect();
            comm.alltoallv(bufs)
        });
        for (dst, received) in out.iter().enumerate() {
            for (src, buf) in received.iter().enumerate() {
                let expect = vec![src as u64 + dst as u64 + salt; (src + dst) % 3 + 1];
                prop_assert_eq!(buf, &expect);
            }
        }
    }

    #[test]
    fn alltoallv_ignores_concurrent_p2p_traffic(
        p_idx in 0usize..3,
        socket: bool,
        sizes in proptest::collection::vec(0usize..9, 16),
        noise in proptest::collection::vec(0u64..1000, 4),
    ) {
        // Uneven buffers, with unrelated point-to-point traffic on user
        // tags sent before and between exchanges and received only after
        // them: neither may corrupt the other, on either backend.
        let p = [2usize, 3, 4][p_idx];
        let backend = if socket { Backend::Socket } else { Backend::InProcess };
        let sizes_in = sizes.clone();
        let noise_in = noise.clone();
        let out = Runner::new(backend).ranks(p).run(move |comm| {
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            let bufs = |round: u64| -> Vec<Vec<u64>> {
                (0..p)
                    .map(|dst| {
                        let len = sizes_in[(comm.rank() * p + dst + round as usize) % sizes_in.len()];
                        (0..len as u64)
                            .map(|i| round << 48 | (comm.rank() as u64) << 32 | (dst as u64) << 16 | i)
                            .collect()
                    })
                    .collect()
            };
            comm.send(right, 101, noise_in.clone());
            let first = comm.alltoallv(bufs(0));
            comm.send(right, 202, comm.rank() as u64);
            let second = comm.alltoallv(bufs(1));
            let from_left_a = comm.recv::<Vec<u64>>(left, 101);
            let from_left_b = comm.recv::<u64>(left, 202);
            (first, second, from_left_a == noise_in && from_left_b == left as u64)
        });
        for (dst, (first, second, p2p_ok)) in out.iter().enumerate() {
            prop_assert!(*p2p_ok, "rank {} p2p traffic", dst);
            for (round, received) in [first, second].into_iter().enumerate() {
                for (src, buf) in received.iter().enumerate() {
                    let len = sizes[(src * p + dst + round) % sizes.len()];
                    let round = round as u64;
                    let expect: Vec<u64> = (0..len as u64)
                        .map(|i| round << 48 | (src as u64) << 32 | (dst as u64) << 16 | i)
                        .collect();
                    prop_assert_eq!(buf, &expect);
                }
            }
        }
    }

    #[test]
    fn exscan_matches_prefix_sums(p in 1usize..10, values in proptest::collection::vec(0u64..1000, 10)) {
        let values_in = values.clone();
        let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            comm.exscan(values_in[comm.rank() % values_in.len()], 0, |a, b| a + b)
        });
        let mut prefix = 0u64;
        for (r, &got) in out.iter().enumerate() {
            prop_assert_eq!(got, prefix, "rank {}", r);
            prefix += values[r % values.len()];
        }
    }

    #[test]
    fn reduce_scatter_block_matches_columnwise_sum(p in 1usize..8, salt in 0u64..100) {
        let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let contributions: Vec<u64> =
                (0..p).map(|i| comm.rank() as u64 * 10 + i as u64 + salt).collect();
            comm.reduce_scatter_block(contributions, |a, b| a + b)
        });
        for (i, &got) in out.iter().enumerate() {
            let expect: u64 = (0..p as u64).map(|r| r * 10 + i as u64 + salt).sum();
            prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn split_groups_partition_the_world(p in 1usize..10, ncolors in 1usize..4) {
        let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let color = comm.rank() % ncolors;
            let sub = comm.split(color, comm.rank());
            // sum of ranks within the subgroup, computed two ways
            let via_sub: u64 = sub.allreduce(comm.rank() as u64, |a, b| a + b);
            (color, sub.size(), via_sub)
        });
        for (rank, &(color, size, sum)) in out.iter().enumerate() {
            let members: Vec<usize> = (0..p).filter(|r| r % ncolors == color).collect();
            prop_assert_eq!(size, members.len(), "rank {}", rank);
            prop_assert_eq!(sum, members.iter().map(|&r| r as u64).sum::<u64>());
        }
    }
}
