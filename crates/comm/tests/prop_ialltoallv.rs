//! Property tests pinning the streaming `ialltoallv` to the blocking
//! `alltoallv` reference: posting every buffer, sealing and draining
//! yields the same per-source payloads under randomized buffer sizes
//! (including empty and single-rank exchanges), arbitrary chunk sizes and
//! credit windows, incremental multi-round posting, and while unrelated
//! `send`/`recv` traffic is in flight on user tags.

use elba_comm::{Backend, Comm, IalltoallvRequest, Runner};
use proptest::prelude::*;

const DEFAULT_WINDOW: usize = IalltoallvRequest::<u64>::DEFAULT_WINDOW;

/// Deterministic payload rank `src` sends to rank `dst`.
fn payload(src: usize, dst: usize, len: usize) -> Vec<u64> {
    (0..len as u64)
        .map(|i| (src as u64) << 32 | (dst as u64) << 16 | i)
        .collect()
}

/// Drain a sealed exchange into per-source buffers.
fn drain(req: IalltoallvRequest<'_, u64>, p: usize) -> Vec<Vec<u64>> {
    let mut got: Vec<Vec<u64>> = vec![Vec::new(); p];
    for (src, mut chunk) in req {
        got[src].append(&mut chunk);
    }
    got
}

/// Open an exchange and post every `bufs[dst]` to `dst`.
fn post_all(
    comm: &Comm,
    bufs: Vec<Vec<u64>>,
    chunk: usize,
    window: usize,
) -> IalltoallvRequest<'_, u64> {
    let mut req = comm.ialltoallv(chunk, window);
    for (dst, buf) in bufs.into_iter().enumerate() {
        req.post(dst, buf);
    }
    req
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn ialltoallv_equals_blocking_alltoallv(
        p_idx in 0usize..4,
        chunk in 1usize..9,
        window_idx in 0usize..3,
        sizes in proptest::collection::vec(0usize..17, 25),
    ) {
        let p = [1usize, 2, 3, 5][p_idx];
        let window = [1usize, 3, DEFAULT_WINDOW][window_idx];
        let sizes_in = sizes.clone();
        let ok = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let make = || -> Vec<Vec<u64>> {
                (0..p)
                    .map(|dst| payload(comm.rank(), dst, sizes_in[(comm.rank() * p + dst) % sizes_in.len()]))
                    .collect()
            };
            let mut req = post_all(&comm, make(), chunk, window);
            req.finish_sends();
            let got = drain(req, p);
            let want = comm.alltoallv(make());
            got == want
        });
        prop_assert!(ok.iter().all(|&b| b), "p={} chunk={} window={}", p, chunk, window);
    }

    #[test]
    fn streamed_rounds_concatenate_like_one_exchange(
        p_idx in 0usize..3,
        chunk in 1usize..6,
        round_sizes in proptest::collection::vec(0usize..7, 12),
    ) {
        // Posting a buffer in several rounds through the stream handle
        // must deliver the same concatenation as one eager alltoallv of
        // the whole thing — per-(source, tag) FIFO order end to end.
        let p = [1usize, 2, 4][p_idx];
        let rs = round_sizes.clone();
        let ok = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let rounds = 3usize;
            let piece = |round: usize, dst: usize| -> Vec<u64> {
                let len = rs[(round * p + dst + comm.rank()) % rs.len()];
                payload(comm.rank() * 10 + round, dst, len)
            };
            let mut req = comm.ialltoallv::<u64>(chunk, DEFAULT_WINDOW);
            let mut got: Vec<Vec<u64>> = vec![Vec::new(); p];
            for round in 0..rounds {
                for dst in 0..p {
                    req.post(dst, piece(round, dst));
                }
                // Drain opportunistically mid-stream, like the k-mer loop.
                while let Some((src, mut c)) = req.try_next() {
                    got[src].append(&mut c);
                }
            }
            req.finish_sends();
            for (src, mut c) in req.by_ref() {
                got[src].append(&mut c);
            }
            let want: Vec<Vec<u64>> = comm.alltoallv(
                (0..p)
                    .map(|dst| (0..rounds).flat_map(|round| piece(round, dst)).collect())
                    .collect(),
            );
            got == want
        });
        prop_assert!(ok.iter().all(|&b| b), "p={} chunk={}", p, chunk);
    }

    #[test]
    fn ialltoallv_ignores_concurrent_p2p_traffic(
        p_idx in 0usize..3,
        chunk in 1usize..5,
        sizes in proptest::collection::vec(0usize..9, 16),
        noise in proptest::collection::vec(0u64..1000, 4),
    ) {
        // Unrelated point-to-point traffic on user tags, sent before and
        // during the exchange and received only after it, must neither
        // corrupt nor be corrupted by the chunk stream.
        let p = [2usize, 3, 4][p_idx];
        let sizes_in = sizes.clone();
        let noise_in = noise.clone();
        let ok = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            let tag_a = 101;
            let tag_b = 202;
            comm.send(right, tag_a, noise_in.clone());
            let make = || -> Vec<Vec<u64>> {
                (0..p)
                    .map(|dst| payload(comm.rank(), dst, sizes_in[(comm.rank() * p + dst) % sizes_in.len()]))
                    .collect()
            };
            let mut req = post_all(&comm, make(), chunk, DEFAULT_WINDOW);
            // More p2p while chunks are in flight.
            comm.send(right, tag_b, comm.rank() as u64);
            req.finish_sends();
            let got = drain(req, p);
            let from_left_a = comm.recv::<Vec<u64>>(left, tag_a);
            let from_left_b = comm.recv::<u64>(left, tag_b);
            let want = comm.alltoallv(make());
            got == want && from_left_a == noise_in && from_left_b == left as u64
        });
        prop_assert!(ok.iter().all(|&b| b), "p={} chunk={}", p, chunk);
    }
}
