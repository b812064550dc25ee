//! Property tests for the contig-generation stage in isolation: random
//! linear-chain string graphs must always yield exactly their linear
//! components as contigs, with LPT keeping per-rank loads balanced; and
//! connected components must label any forest of paths, cycles, stars and
//! isolated vertices like the serial union-find, whatever the vertex ids.

use elba_align::{dovetail_edges, OverlapAln, SgEdge};
use elba_comm::ProcGrid;
use elba_comm::{Backend, Runner};
use elba_core::{connected_components, contig_generation, gather_contigs, ContigConfig, UnionFind};
use elba_seq::{ReadStore, Seq};
use elba_sparse::DistMat;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build one exact chain over a fresh random genome; returns reads (with
/// chosen strands) and the symmetric directed edge pairs, ids offset by
/// `base`.
fn make_chain(seed: u64, n_reads: usize, base: u64) -> (Seq, Vec<Seq>, Vec<(u64, u64, SgEdge)>) {
    let read_len = 120usize;
    let stride = 70usize;
    let glen = stride * (n_reads - 1) + read_len;
    let mut rng = StdRng::seed_from_u64(seed);
    let genome = Seq::from_codes((0..glen).map(|_| rng.gen_range(0..4u8)).collect());
    let strands: Vec<bool> = (0..n_reads).map(|_| rng.gen_bool(0.5)).collect();
    let reads: Vec<Seq> = (0..n_reads)
        .map(|i| {
            let r = genome.substring(i * stride, i * stride + read_len);
            if strands[i] {
                r.reverse_complement()
            } else {
                r
            }
        })
        .collect();
    let overlap = read_len - stride;
    let mut triples = Vec::new();
    for i in 0..n_reads - 1 {
        let rc = strands[i] != strands[i + 1];
        let aln = if !strands[i] {
            OverlapAln {
                rc,
                u_beg: stride,
                u_end: read_len - 1,
                w_beg: 0,
                w_end: overlap - 1,
                u_len: read_len,
                v_len: read_len,
                score: overlap as i32,
            }
        } else {
            OverlapAln {
                rc,
                u_beg: 0,
                u_end: overlap - 1,
                w_beg: stride,
                w_end: read_len - 1,
                u_len: read_len,
                v_len: read_len,
                score: overlap as i32,
            }
        };
        let (fwd, bwd) = dovetail_edges(&aln);
        triples.push((base + i as u64, base + i as u64 + 1, fwd));
        triples.push((base + i as u64 + 1, base + i as u64, bwd));
    }
    (genome, reads, triples)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn every_chain_becomes_exactly_one_correct_contig(
        seed in 0u64..10_000,
        chain_sizes in proptest::collection::vec(2usize..7, 1..5),
        p_idx in 0usize..3,
    ) {
        let p = [1usize, 4, 9][p_idx];
        // Build several disjoint chains with globally unique read ids.
        let mut all_reads: Vec<Seq> = Vec::new();
        let mut all_triples: Vec<(u64, u64, SgEdge)> = Vec::new();
        let mut genomes: Vec<Seq> = Vec::new();
        for (c, &n_reads) in chain_sizes.iter().enumerate() {
            let (genome, reads, triples) =
                make_chain(seed.wrapping_add(c as u64 * 7919), n_reads, all_reads.len() as u64);
            genomes.push(genome);
            all_reads.extend(reads);
            all_triples.extend(triples);
        }
        let n = all_reads.len();
        let expected_contigs = chain_sizes.len();
        let reads_in = all_reads.clone();
        let triples_in = all_triples;
        let contigs = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let grid = ProcGrid::new(comm);
            let store = ReadStore::from_replicated(&grid, &reads_in);
            let mine = if grid.world().rank() == 0 { triples_in.clone() } else { Vec::new() };
            let s = DistMat::from_triples(&grid, n, n, mine, |_, _| unreachable!());
            let (local, _) = contig_generation(&grid, &s, &store, &ContigConfig::default());
            gather_contigs(&grid, &local)
        }).remove(0);

        prop_assert_eq!(contigs.len(), expected_contigs);
        // Each contig must equal one of the chain genomes (either strand).
        for contig in &contigs {
            let hit = genomes.iter().any(|g| {
                contig.seq == *g || contig.seq == g.reverse_complement()
            });
            prop_assert!(
                hit,
                "contig of {} reads / {} bp matches no chain genome",
                contig.read_ids.len(),
                contig.seq.len()
            );
        }
        // Read ids partition correctly: all reads used exactly once.
        let mut used: Vec<u64> = contigs.iter().flat_map(|c| c.read_ids.clone()).collect();
        used.sort_unstable();
        prop_assert_eq!(used, (0..n as u64).collect::<Vec<_>>());
    }

    #[test]
    fn lpt_distributes_chains_across_ranks(
        seed in 0u64..10_000,
        n_chains in 4usize..9,
    ) {
        // With >= P equal chains, no rank should hold everything.
        let p = 4usize;
        let mut all_reads: Vec<Seq> = Vec::new();
        let mut all_triples: Vec<(u64, u64, SgEdge)> = Vec::new();
        for c in 0..n_chains {
            let (_, reads, triples) =
                make_chain(seed.wrapping_add(c as u64 * 104729), 3, all_reads.len() as u64);
            all_reads.extend(reads);
            all_triples.extend(triples);
        }
        let n = all_reads.len();
        let reads_in = all_reads;
        let triples_in = all_triples;
        let per_rank = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let grid = ProcGrid::new(comm);
            let store = ReadStore::from_replicated(&grid, &reads_in);
            let mine = if grid.world().rank() == 0 { triples_in.clone() } else { Vec::new() };
            let s = DistMat::from_triples(&grid, n, n, mine, |_, _| unreachable!());
            let (local, stats) = contig_generation(&grid, &s, &store, &ContigConfig::default());
            (local.len(), stats.n_components)
        });
        let counts: Vec<usize> = per_rank.iter().map(|&(c, _)| c).collect();
        let total: usize = counts.iter().sum();
        prop_assert_eq!(total, n_chains);
        prop_assert_eq!(per_rank[0].1 as usize, n_chains);
        // equal-size chains, n_chains >= p: LPT must not stack them all
        let max_on_one = *counts.iter().max().expect("p ranks");
        prop_assert!(
            max_on_one <= n_chains.div_ceil(p) + 1,
            "rank holds {} of {} chains",
            max_on_one,
            n_chains
        );
    }
}

/// Run the contig stage on `p` ranks and return every contig as
/// `(sequence, read ids)`, each in the lexicographically smaller of its
/// two walk directions, sorted.
fn canonical_contigs(
    p: usize,
    reads: Vec<Seq>,
    triples: Vec<(u64, u64, SgEdge)>,
) -> Vec<(String, Vec<u64>)> {
    let n = reads.len();
    let contigs = Runner::new(Backend::InProcess)
        .ranks(p)
        .run(move |comm| {
            let grid = ProcGrid::new(comm);
            let store = ReadStore::from_replicated(&grid, &reads);
            let world = grid.world();
            let share = |rank: usize| triples.len() * rank / world.size();
            let mine = triples[share(world.rank())..share(world.rank() + 1)].to_vec();
            let s = DistMat::from_triples(&grid, n, n, mine, |_, _| unreachable!());
            let (local, _) = contig_generation(&grid, &s, &store, &ContigConfig::default());
            gather_contigs(&grid, &local)
        })
        .remove(0);
    let mut out: Vec<(String, Vec<u64>)> = contigs
        .into_iter()
        .map(|c| {
            let forward = (c.seq.to_string(), c.read_ids.clone());
            let backward = (
                c.seq.reverse_complement().to_string(),
                c.read_ids.into_iter().rev().collect(),
            );
            forward.min(backward)
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Every other test (and the benchmark) numbers reads in chain order,
    /// so a rank's reads, vertices and edges are runs of consecutive ids.
    /// Under a random renumbering the id → slot index, the re-indexing of
    /// the induced subgraph and the builder's ordering get no locality to
    /// lean on; the contigs must be the same ones, renumbered.
    #[test]
    fn contigs_survive_a_read_id_permutation(
        seed in 0u64..10_000,
        chain_sizes in proptest::collection::vec(2usize..9, 2..7),
    ) {
        let mut reads: Vec<Seq> = Vec::new();
        let mut triples: Vec<(u64, u64, SgEdge)> = Vec::new();
        for (c, &n_reads) in chain_sizes.iter().enumerate() {
            let (_, chain, edges) =
                make_chain(seed.wrapping_add(c as u64 * 7919), n_reads, reads.len() as u64);
            reads.extend(chain);
            triples.extend(edges);
        }
        let n = reads.len();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut perm: Vec<u64> = (0..n as u64).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let mut permuted_reads = reads.clone();
        for (old, read) in reads.iter().enumerate() {
            permuted_reads[perm[old] as usize] = read.clone();
        }
        let mut permuted_triples: Vec<(u64, u64, SgEdge)> = triples
            .iter()
            .map(|&(u, w, e)| (perm[u as usize], perm[w as usize], e))
            .collect();
        // ... and in no particular order either.
        for i in (1..permuted_triples.len()).rev() {
            permuted_triples.swap(i, rng.gen_range(0..=i));
        }
        // The canonical direction is fixed by the sequence (a random
        // genome is not its own reverse complement), so the id lists
        // agree once the unpermuted run's ids are renumbered.
        let mut want = canonical_contigs(1, reads, triples);
        for (_, ids) in &mut want {
            for id in ids {
                *id = perm[*id as usize];
            }
        }
        want.sort();
        prop_assert_eq!(want.len(), chain_sizes.len());
        for p in [1usize, 4, 9] {
            let got = canonical_contigs(p, permuted_reads.clone(), permuted_triples.clone());
            prop_assert_eq!(&got, &want, "p = {}", p);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn cc_labels_match_union_find_on_permuted_forests(
        seed in 0u64..10_000,
        shapes in proptest::collection::vec((0usize..4, 1usize..12), 1..10),
        p_idx in 0usize..3,
    ) {
        let p = [1usize, 4, 9][p_idx];
        // Components in id order: 0 = path, 1 = cycle, 2 = star, 3 = isolated.
        let mut edges: Vec<(u64, u64)> = Vec::new();
        let mut n = 0usize;
        for &(kind, size) in &shapes {
            let base = n as u64;
            let size = size as u64;
            match kind {
                0 => edges.extend((1..size).map(|i| (base + i - 1, base + i))),
                1 => edges.extend((0..size).map(|i| (base + i, base + (i + 1) % size))),
                2 => edges.extend((1..size).map(|i| (base, base + i))),
                _ => {}
            }
            n += size as usize;
        }
        edges.retain(|&(a, b)| a != b); // a 1-cycle is an isolated vertex
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perm: Vec<u64> = (0..n as u64).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        for e in &mut edges {
            *e = (perm[e.0 as usize], perm[e.1 as usize]);
        }
        let mut oracle = UnionFind::new(n);
        for &(a, b) in &edges {
            oracle.union(a as usize, b as usize);
        }
        let labels = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let grid = ProcGrid::new(comm);
            let triples: Vec<(u64, u64, u8)> = if grid.world().rank() == 0 {
                edges.iter().flat_map(|&(a, b)| [(a, b, 1u8), (b, a, 1u8)]).collect()
            } else {
                Vec::new()
            };
            // a 2-cycle lists its edge twice: keep one
            let m = DistMat::from_triples(&grid, n, n, triples, |_, _| {});
            connected_components(&grid, &m).labels.to_global(&grid)
        }).remove(0);
        prop_assert_eq!(labels, oracle.labels());
    }
}
