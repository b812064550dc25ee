//! Communication ceiling for the connected-components step of Algorithm 2
//! on the input that used to defeat it: chains whose read ids are not in
//! genome order.

use elba::comm::{Backend, ProcGrid, Runner};
use elba::core::{connected_components, UnionFind};
use elba::sparse::DistMat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn shuffled_chain_cc_stays_under_byte_ceiling() {
    // 400 chains of 150 reads, ids permuted: 60 000 vertices.
    let (chains, len) = (400usize, 150usize);
    let n = chains * len;
    let mut rng = StdRng::seed_from_u64(2022);
    let mut perm: Vec<u64> = (0..n as u64).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    let edges: Vec<(u64, u64)> = (0..n)
        .filter(|i| i % len + 1 < len)
        .map(|i| (perm[i], perm[i + 1]))
        .collect();
    let mut oracle = UnionFind::new(n);
    for &(a, b) in &edges {
        oracle.union(a as usize, b as usize);
    }

    let (out, profile) = Runner::new(Backend::InProcess)
        .ranks(4)
        .run_profiled(move |comm| {
            let grid = ProcGrid::new(comm);
            let triples: Vec<(u64, u64, u8)> = if grid.world().rank() == 0 {
                edges
                    .iter()
                    .flat_map(|&(a, b)| [(a, b, 1u8), (b, a, 1u8)])
                    .collect()
            } else {
                Vec::new()
            };
            let m = DistMat::from_triples(&grid, n, n, triples, |_, _| {});
            let _g = grid.world().phase("cc");
            let cc = connected_components(&grid, &m);
            (cc.labels.to_global(&grid), cc.rounds)
        });
    let (labels, rounds) = &out[0];
    assert_eq!(*labels, oracle.labels());
    assert!(*rounds <= 16, "{rounds} rounds");
    // 15.0 MB in 9 rounds with `u32` labels, FastSV pairs and chunk
    // offsets (final `u64` `to_global` included); 28.2 MB when they were
    // `u64`, and 978 MB in 120 rounds before CC hooked f[f[v]]. The
    // ceiling sits just above the `u32` figure: a wider exchange fails.
    let bytes = profile.total_bytes("cc");
    assert!(bytes <= 16_000_000, "cc moved {bytes} B in {rounds} rounds");
}
