//! Differential check of the distributed transitive reduction against
//! an implementation that shares no code with it:
//! `elba_baseline::serial_transitive_reduction` walks adjacency lists
//! edge by edge and iterates to its own fixed point, the pipeline runs
//! one masked min-plus SUMMA sweep. They must keep the same edges on
//! every grid, thread count and prefetch setting — which also checks,
//! from outside, that one sweep *is* the fixed point.

use elba::align::dovetail_edges;
use elba::baseline::serial_transitive_reduction;
use elba::graph::transitive_reduction_with;
use elba::prelude::*;
use elba::sparse::SpGemmOptions;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Edges = Vec<(u32, u32, SgEdge)>;

fn sorted(mut edges: Edges) -> Edges {
    edges.sort_by_key(|&(u, v, _)| (u, v));
    edges
}

/// The sweep's options rows: the pipeline's default, its masked kernel
/// on 2 and 4 threads, and a budget of one byte, under which the SUMMA
/// does not prefetch.
fn sweep_options() -> [(&'static str, SpGemmOptions); 4] {
    [
        ("default", SpGemmOptions::default()),
        ("threads=2", SpGemmOptions::default().with_threads(2)),
        ("threads=4", SpGemmOptions::default().with_threads(4)),
        ("budget=1 B", SpGemmOptions::budgeted(1)),
    ]
}

/// The distributed reduction of `edges` on `p` ranks under each of
/// [`sweep_options`], every rank contributing a slice, gathered back as
/// sorted edge lists.
fn distributed(p: usize, n: usize, edges: &Edges, fuzz: u32) -> Vec<(&'static str, Edges)> {
    let edges = edges.clone();
    let kept = Runner::new(Backend::InProcess)
        .ranks(p)
        .run(move |comm| {
            let grid = ProcGrid::new(comm);
            let rank = grid.world().rank();
            let mine: Vec<(u64, u64, SgEdge)> = edges
                .iter()
                .enumerate()
                .filter(|(i, _)| i % p == rank)
                .map(|(_, &(u, v, e))| (u as u64, v as u64, e))
                .collect();
            let r = DistMat::from_triples(&grid, n, n, mine, |_, _| unreachable!());
            sweep_options().map(|(label, opts)| {
                let (s, stats) = transitive_reduction_with(&grid, r.clone(), fuzz, 10, &opts);
                assert_eq!(stats.iterations, 1);
                (label, s.gather_triples(&grid))
            })
        })
        .remove(0);
    kept.into_iter()
        .map(|(label, kept)| {
            let kept = kept
                .into_iter()
                .map(|(u, v, e)| (u as u32, v as u32, e))
                .collect();
            (label, sorted(kept))
        })
        .collect()
}

fn assert_matches_baseline(what: &str, n: usize, edges: &Edges, fuzz: u32) -> usize {
    let want = sorted(serial_transitive_reduction(n, edges.clone(), fuzz));
    for p in [1usize, 4, 9] {
        for (label, got) in distributed(p, n, edges, fuzz) {
            assert_eq!(got, want, "{what}: p={p} fuzz={fuzz} {label}");
        }
    }
    edges.len() - want.len()
}

#[test]
fn random_bidirected_graphs_reduce_like_the_serial_baseline() {
    let (mut removed, mut saturated_removed) = (0, 0);
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(4100 + seed);
        let n = rng.gen_range(5..45usize);
        let target = rng.gen_range(n..n * (n - 1) / 3);
        // Small suffixes, so two-hop sums land on both sides of
        // `suffix + fuzz` and exactly on it. Real overhangs are small
        // too: a read is under 2³¹ bases, so no two-hop sum saturates.
        let mut seen = std::collections::BTreeSet::new();
        let mut edges: Edges = Vec::new();
        while edges.len() < target {
            let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            if u == v || !seen.insert((u, v)) {
                continue;
            }
            edges.push((
                u,
                v,
                SgEdge {
                    pre: 0,
                    post: 0,
                    src_rev: rng.gen_bool(0.3),
                    dst_rev: rng.gen_bool(0.3),
                    suffix: rng.gen_range(1..12),
                },
            ));
        }
        let fuzz = rng.gen_range(0..6);
        removed += assert_matches_baseline(&format!("seed {seed}"), n, &edges, fuzz);
        // Every `suffix + fuzz` saturates to the product's "no path"
        // value: an edge goes exactly when a path runs in its direction.
        saturated_removed += assert_matches_baseline(&format!("seed {seed}"), n, &edges, u32::MAX);
    }
    assert!(removed > 50, "the graphs held almost nothing transitive");
    assert!(saturated_removed > removed);
}

/// The smallest case of a path in another direction: 0→1→2 composes to
/// a forward-reverse path and the direct 0→2 edge is forward-forward,
/// so nothing is transitive at any fuzz — `u32::MAX`, where `suffix +
/// fuzz` saturates to the "no path" value, included.
#[test]
fn a_path_in_another_direction_removes_no_edge_at_any_fuzz() {
    let edge = |src_rev, dst_rev, suffix| SgEdge {
        pre: 0,
        post: 0,
        src_rev,
        dst_rev,
        suffix,
    };
    let edges: Edges = vec![
        (0, 1, edge(false, false, 10)),
        (1, 2, edge(false, true, 10)),
        (0, 2, edge(false, false, 20)),
    ];
    for fuzz in [5, 1 << 31, u32::MAX] {
        assert_eq!(assert_matches_baseline("three edges", 3, &edges, fuzz), 0);
    }
}

#[test]
fn chains_with_false_edges_reduce_like_the_serial_baseline() {
    // Five chromosomes, each tiled by 12 random-strand reads of 100
    // bases at stride 30 (read i overlaps i+1..i+3), plus false edges
    // between chromosomes that no two-hop path explains: the reduction
    // must keep exactly the i ↔ i+1 edges and every false edge.
    let (chromosomes, per, len, stride) = (5usize, 12usize, 100usize, 30usize);
    let mut rng = StdRng::seed_from_u64(77);
    let strands: Vec<bool> = (0..chromosomes * per).map(|_| rng.gen_bool(0.5)).collect();
    let mut edges: Edges = Vec::new();
    for c in 0..chromosomes {
        for i in 0..per {
            for d in 1..=((len - 1) / stride).min(per - 1 - i) {
                let (u, v) = (c * per + i, c * per + i + d);
                let (shift, overlap) = (d * stride, len - d * stride);
                let (u_span, w_span) = if strands[u] {
                    ((0, overlap - 1), (shift, len - 1))
                } else {
                    ((shift, len - 1), (0, overlap - 1))
                };
                let (fwd, bwd) = dovetail_edges(&OverlapAln {
                    rc: strands[u] != strands[v],
                    u_beg: u_span.0,
                    u_end: u_span.1,
                    w_beg: w_span.0,
                    w_end: w_span.1,
                    u_len: len,
                    v_len: len,
                    score: overlap as i32,
                });
                edges.push((u as u32, v as u32, fwd));
                edges.push((v as u32, u as u32, bwd));
            }
        }
    }
    let chain_edges = edges.len();
    let false_edge = SgEdge {
        pre: (len - 1) as u32,
        post: 0,
        src_rev: false,
        dst_rev: false,
        suffix: len as u32,
    };
    let false_pairs = [(3usize, 17usize), (30, 50), (8, 41)];
    for (u, v) in false_pairs {
        edges.push((u as u32, v as u32, false_edge));
        edges.push((v as u32, u as u32, false_edge));
    }
    let n = chromosomes * per;
    let removed = assert_matches_baseline("chains", n, &edges, 5);
    let adjacent = chromosomes * 2 * (per - 1);
    assert_eq!(removed, chain_edges - adjacent);
}
