//! The socket backend must be a drop-in [`Transport`]: every runtime
//! feature the in-process mailbox supports — tagged point-to-point,
//! out-of-order matching, communicator splits, the full collective set,
//! disconnect panics — must behave identically when every cross-rank
//! message is serialized into a frame and shipped through a Unix
//! socketpair (`Backend::Socket`).

use elba_comm::{Backend, Runner};

#[test]
fn ring_send_recv_over_sockets() {
    let out = Runner::new(Backend::Socket).ranks(5).run(|comm| {
        let next = (comm.rank() + 1) % comm.size();
        let prev = (comm.rank() + comm.size() - 1) % comm.size();
        comm.send(next, 7, comm.rank() as u64);
        comm.recv::<u64>(prev, 7)
    });
    assert_eq!(out, vec![4, 0, 1, 2, 3]);
}

#[test]
fn out_of_order_tags_are_buffered_over_sockets() {
    let out = Runner::new(Backend::Socket).ranks(2).run(|comm| {
        if comm.rank() == 0 {
            comm.send(1, 1, 10u64);
            comm.send(1, 2, 20u64);
            comm.send(1, 3, 30u64);
            0
        } else {
            let c = comm.recv::<u64>(0, 3);
            let b = comm.recv::<u64>(0, 2);
            let a = comm.recv::<u64>(0, 1);
            (a + b + c) as usize
        }
    });
    assert_eq!(out[1], 60);
}

#[test]
fn large_buffers_frame_and_decode() {
    // A multi-MB payload exercises the frame length header and the bulk
    // scalar slice codec end to end.
    let n = 4 << 20;
    let out = Runner::new(Backend::Socket).ranks(2).run(move |comm| {
        if comm.rank() == 0 {
            let buf: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            comm.send(1, 0, buf);
            0
        } else {
            let buf = comm.recv::<Vec<u8>>(0, 0);
            assert!(buf.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
            buf.len()
        }
    });
    assert_eq!(out[1], n);
}

#[test]
fn send_to_self_skips_serialization() {
    let out = Runner::new(Backend::Socket).ranks(3).run(|comm| {
        comm.send(comm.rank(), 9, comm.rank() as u64 * 3);
        comm.recv::<u64>(comm.rank(), 9)
    });
    assert_eq!(out, vec![0, 3, 6]);
}

#[test]
fn structured_payloads_round_trip() {
    let out = Runner::new(Backend::Socket).ranks(2).run(|comm| {
        if comm.rank() == 0 {
            comm.send(1, 1, (String::from("contig"), vec![1u32, 2, 3], Some(7u64)));
            0
        } else {
            let (s, v, o) = comm.recv::<(String, Vec<u32>, Option<u64>)>(0, 1);
            assert_eq!(s, "contig");
            assert_eq!(v, vec![1, 2, 3]);
            assert_eq!(o, Some(7));
            1
        }
    });
    assert_eq!(out, vec![0, 1]);
}

#[test]
fn collectives_match_in_process() {
    // Same SPMD body over both backends; every collective result must be
    // identical, bit for bit.
    fn body(comm: &elba_comm::Comm) -> (u64, Vec<u64>, u64, Vec<u64>, u64) {
        let me = comm.rank() as u64;
        let sum = comm.allreduce(me, |a, b| a + b);
        let all = comm.allgather(me * 2);
        let ex = comm.exscan(me + 1, 0, |a, b| a + b);
        let bufs: Vec<Vec<u64>> = (0..comm.size())
            .map(|dst| vec![me * 100 + dst as u64; dst + 1])
            .collect();
        let exchanged: Vec<u64> = comm.alltoallv(bufs).into_iter().flatten().collect();
        let bc = comm.bcast(1, (comm.rank() == 1).then_some(me * 7));
        (sum, all, ex, exchanged, bc)
    }
    let a = Runner::new(Backend::InProcess)
        .ranks(4)
        .run(|comm| body(&comm));
    let b = Runner::new(Backend::Socket)
        .ranks(4)
        .run(|comm| body(&comm));
    assert_eq!(a, b);
}

#[test]
fn split_builds_working_grids() {
    let out = Runner::new(Backend::Socket).ranks(6).run(|comm| {
        let color = comm.rank() / 3;
        let sub = comm.split(color, comm.rank());
        let next = (sub.rank() + 1) % sub.size();
        let prev = (sub.rank() + sub.size() - 1) % sub.size();
        sub.send(next, 1, comm.rank() as u64);
        let from_prev = sub.recv::<u64>(prev, 1);
        (sub.rank(), sub.size(), from_prev)
    });
    assert_eq!(out[0], (0, 3, 2));
    assert_eq!(out[3], (0, 3, 5));
    assert_eq!(out[5], (2, 3, 4));
}

#[test]
fn nested_splits_and_dup() {
    // ProcGrid does exactly this: world → row comms → col comms, plus a
    // dup for auxiliary traffic. Contexts must never collide.
    let out = Runner::new(Backend::Socket).ranks(4).run(|comm| {
        let row = comm.split(comm.rank() / 2, comm.rank());
        let col = comm.split(comm.rank() % 2, comm.rank());
        let aux = comm.dup();
        let r = row.allreduce(comm.rank() as u64, |a, b| a + b);
        let c = col.allreduce(comm.rank() as u64, |a, b| a + b);
        let w = aux.allreduce(1u64, |a, b| a + b);
        (r, c, w)
    });
    assert_eq!(out[0], (1, 2, 4)); // row {0,1}, col {0,2}
    assert_eq!(out[3], (5, 4, 4)); // row {2,3}, col {1,3}
}

#[test]
fn profiled_wire_bytes_match_in_process() {
    // Invariant 2 across backends: bytes are booked from CommMsg::nbytes
    // above the transport, so per-rank per-phase profiled traffic must be
    // byte-identical even though only the socket backend serializes.
    fn body(comm: &elba_comm::Comm) {
        let _g = comm.phase("exchange");
        let next = (comm.rank() + 1) % comm.size();
        comm.send(next, 1, vec![0u64; 64 * (comm.rank() + 1)]);
        let prev = (comm.rank() + comm.size() - 1) % comm.size();
        let _ = comm.recv::<Vec<u64>>(prev, 1);
        let _ = comm.allgather(comm.rank() as u64);
    }
    let (_, a) = Runner::new(Backend::InProcess)
        .ranks(3)
        .run_profiled(|comm| body(&comm));
    let (_, b) = Runner::new(Backend::Socket)
        .ranks(3)
        .run_profiled(|comm| body(&comm));
    for rank in 0..3 {
        let pa = &a.rank_profiles()[rank];
        let pb = &b.rank_profiles()[rank];
        let phase_a = pa.phase("exchange").expect("phase recorded");
        let phase_b = pb.phase("exchange").expect("phase recorded");
        assert_eq!(phase_a.bytes_sent(), phase_b.bytes_sent(), "rank {rank}");
        assert_eq!(phase_a.p2p_msgs, phase_b.p2p_msgs, "rank {rank}");
    }
}

#[test]
#[should_panic(expected = "panicked")]
fn rank_panic_propagates_over_sockets() {
    let _ = Runner::new(Backend::Socket).ranks(2).run(|comm| {
        if comm.rank() == 1 {
            panic!("deliberate failure");
        }
        0
    });
}

#[test]
#[should_panic(expected = "disconnected while waiting")]
fn blocked_recv_fails_when_peer_exits() {
    let _ = Runner::new(Backend::Socket).ranks(2).run(|comm| {
        if comm.rank() == 0 {
            return 0; // drops its Comm: Close frames + EOF reach rank 1
        }
        comm.recv::<u64>(0, 3)
    });
}

// ----------------------------------------------------------------------
// Communicators are views over one inbox per rank: what that design must
// get right, on both backends.
// ----------------------------------------------------------------------

const BOTH: [Backend; 2] = [Backend::InProcess, Backend::Socket];

#[test]
fn traffic_for_another_communicator_waits_in_the_stash() {
    // Two sub-communicators over the same pair, one with the rank order
    // reversed. The peer sends on `rev` first; the receiver asks `fwd`
    // first, so the `rev` envelope surfaces during a `fwd` receive and
    // must wait for `rev` — same source, same tag, different context.
    for backend in BOTH {
        let out = Runner::new(backend).ranks(2).run(|comm| {
            let fwd = comm.split(0, comm.rank());
            let rev = comm.split(0, comm.size() - comm.rank());
            assert_eq!(rev.rank(), 1 - comm.rank());
            if comm.rank() == 0 {
                rev.send(0, 5, 111u64); // world rank 1 is rank 0 of `rev`
                fwd.send(1, 5, 222u64);
                (0, 0)
            } else {
                let on_fwd = fwd.recv::<u64>(0, 5);
                let on_rev = rev.recv::<u64>(1, 5);
                (on_fwd, on_rev)
            }
        });
        assert_eq!(out[1], (222, 111), "{backend:?}");
    }
}

#[test]
fn same_pair_same_tag_never_crosses_contexts() {
    for backend in BOTH {
        let out = Runner::new(backend).ranks(2).run(|comm| {
            let aux = comm.dup();
            if comm.rank() == 0 {
                aux.send(1, 7, 1u64);
                comm.send(1, 7, 2u64);
                (0, 0)
            } else {
                let on_world = comm.recv::<u64>(0, 7);
                let on_aux = aux.recv::<u64>(0, 7);
                (on_world, on_aux)
            }
        });
        assert_eq!(out[1], (2, 1), "{backend:?}");
    }
}

#[test]
fn traffic_that_outruns_the_receivers_split_is_delivered_in_order() {
    // Rank 0 is the root of `split`'s allgather, so it returns first and
    // posts on the child at once; the gate holds rank 1 back until all of
    // it is in flight, so none of it was asked for when it was sent —
    // on the socket backend it may reach the inbox before rank 1's own
    // `split` has returned. A world message on the same tag sits in the
    // middle of the burst and must not be taken for child traffic.
    for backend in BOTH {
        let gate = std::sync::Arc::new(std::sync::Barrier::new(2));
        let out = Runner::new(backend).ranks(2).run(move |comm| {
            let child = comm.split(0, comm.rank());
            if comm.rank() == 0 {
                child.send(1, 3, 10u64);
                comm.send(1, 3, 99u64);
                child.send(1, 3, 20u64);
                child.send(1, 4, 30u64);
                gate.wait();
                Vec::new()
            } else {
                gate.wait();
                vec![
                    child.recv::<u64>(0, 4),
                    child.recv::<u64>(0, 3),
                    child.recv::<u64>(0, 3),
                    comm.recv::<u64>(0, 3),
                ]
            }
        });
        assert_eq!(out[1], vec![30, 10, 20, 99], "{backend:?}");
    }
}

#[test]
fn dropping_a_sub_communicator_early_does_not_close_the_rank() {
    for backend in BOTH {
        let out = Runner::new(backend).ranks(4).run(|comm| {
            let row = comm.split(comm.rank() / 2, comm.rank());
            let col = comm.split(comm.rank() % 2, comm.rank());
            let r = row.allreduce(comm.rank() as u64, |a, b| a + b);
            drop(row);
            let c = col.allreduce(comm.rank() as u64, |a, b| a + b);
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 1, comm.rank() as u64);
            let from_prev = comm.recv::<u64>(prev, 1);
            (r, c, from_prev, comm.allreduce(1u64, |a, b| a + b))
        });
        assert_eq!(out[0], (1, 2, 3, 4), "{backend:?}");
        assert_eq!(out[3], (5, 4, 2, 4), "{backend:?}");
    }
}
