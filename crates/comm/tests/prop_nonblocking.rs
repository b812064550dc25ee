//! Property tests for the non-blocking point-to-point layer: `irecv`
//! must interoperate with the (eager, buffered) `send` and the blocking
//! `recv` in any combination — same mailboxes, same `(source, tag)`
//! matching, no messages lost or reordered within a tag.

use elba_comm::{Backend, Runner};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Ring exchange where each rank independently picks blocking or
    /// non-blocking for its receive (from generated bits): both pairings
    /// (send→recv, send→irecv) must deliver.
    #[test]
    fn ring_delivers_under_any_mix(p in 1usize..9, mode_bits in 0u64..256) {
        let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            let payload = comm.rank() as u64 * 1000 + 7;
            comm.send(next, 3, payload);
            if mode_bits >> comm.rank() & 1 == 1 {
                comm.irecv::<u64>(prev, 3).wait()
            } else {
                comm.recv::<u64>(prev, 3)
            }
        });
        for (rank, &got) in out.iter().enumerate() {
            let prev = (rank + p - 1) % p;
            prop_assert_eq!(got, prev as u64 * 1000 + 7);
        }
    }

    /// Many tagged messages posted as irecvs in one order and sent in
    /// another: tag matching must pair them up regardless of posting
    /// order on either side.
    #[test]
    fn out_of_order_tags_with_mixed_posting(
        n_msgs in 1usize..12,
        perm_seed in 0u64..10_000,
    ) {
        let out = Runner::new(Backend::InProcess).ranks(2).run(move |comm| {
            if comm.rank() == 0 {
                for tag in 0..n_msgs as u64 {
                    comm.send(1, tag, tag * 11 + 5);
                }
                Vec::new()
            } else {
                // Deterministic pseudo-shuffle of posting order.
                let mut order: Vec<u64> = (0..n_msgs as u64).collect();
                for i in (1..order.len()).rev() {
                    let j = (perm_seed as usize)
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(i) % (i + 1);
                    order.swap(i, j);
                }
                let requests: Vec<_> =
                    order.iter().map(|&tag| (tag, comm.irecv::<u64>(0, tag))).collect();
                let mut got: Vec<(u64, u64)> =
                    requests.into_iter().map(|(tag, req)| (tag, req.wait())).collect();
                got.sort_unstable();
                got
            }
        });
        let want: Vec<(u64, u64)> = (0..n_msgs as u64).map(|t| (t, t * 11 + 5)).collect();
        prop_assert_eq!(&out[1], &want);
    }

    /// An irecv posted *before* the barrier-separated send still matches,
    /// and test() never falsely completes before the send happened.
    #[test]
    fn early_posted_irecv_waits_for_late_send(p in 2usize..6, value in 0u64..1_000_000) {
        let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            if comm.rank() == 1 {
                let mut req = comm.irecv::<u64>(0, 9);
                let premature = req.test();
                comm.barrier(); // rank 0 sends only after this barrier
                let got = req.wait();
                (premature, got)
            } else {
                comm.barrier();
                if comm.rank() == 0 {
                    comm.send(1, 9, value);
                }
                (false, 0)
            }
        });
        let (premature, got) = out[1];
        prop_assert!(!premature, "test() completed before any send was posted");
        prop_assert_eq!(got, value);
    }

    /// Non-blocking broadcast agrees with the blocking one when both run
    /// back-to-back in the same SPMD program, for every root.
    #[test]
    fn ibcast_agrees_with_bcast(p in 1usize..10, root_k in 0usize..10, value: u64) {
        let root = root_k % p;
        let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let req = comm.ibcast(root, (comm.rank() == root).then_some(value));
            let blocking = comm.bcast(root, (comm.rank() == root).then_some(value ^ 1));
            (req.wait(), blocking)
        });
        for &(nb, b) in &out {
            prop_assert_eq!(nb, value);
            prop_assert_eq!(b, value ^ 1);
        }
    }
}
