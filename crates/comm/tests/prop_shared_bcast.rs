//! Property tests for the zero-copy `Arc`-shared broadcast path: shared
//! and owned broadcasts must deliver identical values on every grid
//! size and root, book byte-identical profiled wire traffic, survive
//! concurrent point-to-point traffic and FIFO-sensitive interleavings,
//! and mem-charge a shared payload once per rank no matter how many
//! references the rank holds.

use std::sync::Arc;

use elba_comm::{Backend, Runner};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn bcast_of_arc_equals_owned_bcast_all_roots(
        p in 1usize..10,
        root_k in 0usize..10,
        payload in proptest::collection::vec(any::<u32>(), 0..40),
    ) {
        let root = root_k % p;
        let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let owned = comm.bcast(root, (comm.rank() == root).then(|| payload.clone()));
            let shared =
                comm.bcast(root, (comm.rank() == root).then(|| Arc::new(payload.clone())));
            owned == *shared
        });
        prop_assert!(out.iter().all(|&ok| ok));
    }

    #[test]
    fn shared_and_owned_book_identical_wire_bytes(
        p in 1usize..10,
        root_k in 0usize..10,
        n in 0usize..100,
    ) {
        // The acceptance invariant: for the same value, the profiled
        // per-rank `bcast` byte counters of the shared path are
        // byte-identical to the owned path — we simulate MPI traffic,
        // and zero-copy transport must not change the model.
        let root = root_k % p;
        let (_, profile) = Runner::new(Backend::InProcess).ranks(p).run_profiled(move |comm| {
            let value = vec![7u64; n];
            {
                let _g = comm.phase("owned");
                comm.bcast(root, (comm.rank() == root).then(|| value.clone()));
            }
            {
                let _g = comm.phase("shared");
                let arc = Arc::new(value);
                comm.bcast(root, (comm.rank() == root).then_some(arc));
            }
        });
        for rank in profile.rank_profiles() {
            let coll = |phase: &str| {
                let mut entries: Vec<(&str, u64, u64)> = rank
                    .phase(phase)
                    .map(|ph| ph.collectives.clone())
                    .unwrap_or_default();
                entries.sort();
                entries
            };
            prop_assert_eq!(
                coll("owned"),
                coll("shared"),
                "rank {} profiled bytes diverge between owned and shared",
                rank.rank()
            );
        }
    }

    #[test]
    fn shared_bcast_interleaves_with_p2p_and_fifo_traffic(
        p in 2usize..9,
        root_k in 0usize..10,
        salt: u64,
    ) {
        // Two shared broadcasts between ring p2p sends on a reused tag
        // (per-(source, tag) FIFO must survive the broadcasts' pushes),
        // and an owned collective between them.
        let root = root_k % p;
        let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(right, 3, salt + comm.rank() as u64); // m1, tag 3
            let va = comm.bcast(root, (comm.rank() == root).then(|| Arc::new(vec![salt; 5])));
            comm.send(right, 3, salt + 100 + comm.rank() as u64); // m2, same tag
            let sum = comm.allreduce(1u64, |a, b| a + b);
            let vb = comm.bcast(
                root,
                (comm.rank() == root).then(|| Arc::new(vec![salt + 1; 3])),
            );
            let m1 = comm.recv::<u64>(left, 3);
            let m2 = comm.recv::<u64>(left, 3);
            comm.barrier();
            let fifo_ok = m1 == salt + left as u64 && m2 == salt + 100 + left as u64;
            fifo_ok && sum == p as u64 && *va == vec![salt; 5] && *vb == vec![salt + 1; 3]
        });
        prop_assert!(out.iter().all(|&ok| ok));
    }
}

#[test]
fn shared_payload_is_mem_charged_once_per_rank() {
    // A rank holding several references to one shared block — the
    // broadcast result, a second guard, and (on the root) the resident
    // source block itself — charges its bytes exactly once.
    let bytes = 100_000usize;
    let (_, profile) = Runner::new(Backend::InProcess)
        .ranks(4)
        .run_profiled(move |comm| {
            let _g = comm.phase("charge");
            let payload = (comm.rank() == 0).then(|| Arc::new(vec![0u8; bytes]));
            // The root charges its resident copy up front, like a pipeline
            // stage charging a matrix it is about to broadcast.
            let _resident = payload
                .as_ref()
                .map(|arc| comm.mem_charge_shared(arc, bytes));
            let arc = comm.bcast(0, payload);
            let _c1 = comm.mem_charge_shared(&arc, bytes);
            let _c2 = comm.mem_charge_shared(&arc, bytes);
            comm.barrier();
        });
    for rank in profile.rank_profiles() {
        assert_eq!(
            rank.phase("charge").expect("phase entered").mem_hw,
            bytes as u64,
            "rank {} must charge the shared block exactly once",
            rank.rank()
        );
    }
    // ... and the charge releases with the last guard.
    assert_eq!(profile.rank_profiles()[0].resident_bytes(), 0);
}

#[test]
fn distinct_blocks_still_charge_separately() {
    let (_, profile) = Runner::new(Backend::InProcess)
        .ranks(2)
        .run_profiled(|comm| {
            let _g = comm.phase("two");
            let a = comm.bcast(0, (comm.rank() == 0).then(|| Arc::new(vec![1u8; 1000])));
            let b = comm.bcast(1, (comm.rank() == 1).then(|| Arc::new(vec![2u8; 500])));
            let _ca = comm.mem_charge_shared(&a, 1000);
            let _cb = comm.mem_charge_shared(&b, 500);
            comm.barrier();
        });
    assert_eq!(profile.max_mem_hw("two"), 1500);
}
