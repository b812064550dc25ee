//! Local contig assembly (§4.4) — line 6 of Algorithm 2.
//!
//! Each rank walks its induced subgraph, which by construction has
//! maximum degree 2: "there is always only one vertex in the frontier,
//! and the search is thus a linear walk". The walk scans all vertices for
//! unvisited roots (a row of length 1), follows intermediate vertices to
//! the opposite root, and stitches the contig as
//!
//! ```text
//! l_r[α : pre(e₀)] ⊕ l_c₁[post(e₀) : pre(e₁)] ⊕ … ⊕ l_r'[post(e_q−2) : β]
//! ```
//!
//! with `α ∈ {0, |l_r|−1}` and `β` chosen by traversal orientation, and
//! slices taken directly from the packed read buffer via stored offsets.
//! Reverse-complement strand flips are handled by the inclusive
//! `l[j:i]` slicing convention (see `elba_seq::dna`).
//!
//! The stage runs in two passes: a serial *trace* walks the graph and
//! records each contig as a list of oriented slices (the walk itself is
//! a pointer chase over shared `visited` state — inherently sequential
//! but cheap), then the slice concatenation — the actual byte copying,
//! which dominates on long contigs — is materialized on [`elba_par`]
//! workers. Results come back in task order (= trace order), so
//! assembled contigs are byte-identical for every thread count.
//!
//! Both passes are linear in what they touch. The trace resolves each
//! read in the store once per walk step and records the slice as a
//! borrow of the packed buffer ("we can simply use the offsets already
//! computed"); materializing sums the slice lengths, allocates the
//! contig once, and writes forward slices as block copies and reverse
//! slices as a reversed-complement iterator straight from that buffer —
//! no intermediate sequence per slice.

use elba_align::SgEdge;
use elba_comm::transport::wire::{varint_len, write_varint, WireError, WireReader};
use elba_comm::CommMsg;
use elba_seq::{ReadStore, Seq};

use crate::induced::LocalGraph;

/// What a walk reads of a directed string-graph edge `src → dst`: where
/// to cut the two reads and the strand each is read on. [`SgEdge`]'s
/// `suffix`, the transitive reduction's edge weight, is not among them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkEdge {
    /// The paper's `pre(e)`: last base of `src` before the overlap, in
    /// traversal order.
    pub pre: u32,
    /// The paper's `post(e)`: first overlapping base of `dst`, in
    /// traversal order.
    pub post: u32,
    /// `src` is traversed reverse-complemented.
    pub src_rev: bool,
    /// `dst` is traversed reverse-complemented.
    pub dst_rev: bool,
}

impl From<SgEdge> for WalkEdge {
    fn from(edge: SgEdge) -> Self {
        WalkEdge {
            pre: edge.pre,
            post: edge.post,
            src_rev: edge.src_rev,
            dst_rev: edge.dst_rev,
        }
    }
}

/// Largest read coordinate: reads are shorter than 2³¹ bases
/// ([`elba_seq::ReadTooLong`]).
const MAX_COORD: u64 = (1 << 31) - 1;

impl WalkEdge {
    /// The edge's two wire codes, `pre << 1 | src_rev` and
    /// `post << 1 | dst_rev`. Panics on a coordinate of 2³¹ or more,
    /// which no read has.
    #[inline]
    fn codes(&self) -> [u64; 2] {
        let code = |coord: u32, rev: bool| {
            let coord = u64::from(coord);
            assert!(coord <= MAX_COORD, "read coordinates are below 2^31");
            coord << 1 | u64::from(rev)
        };
        [code(self.pre, self.src_rev), code(self.post, self.dst_rev)]
    }
}

/// Each read coordinate shares one LEB128 varint with its strand flag,
/// `pre << 1 | src_rev` and `post << 1 | dst_rev`: 2 bytes on reads of up
/// to 64 bases, 4 on reads of up to 8 192, booked at that encoded length. A code of 2³² or more
/// (a coordinate of 2³¹ or more) is a malformed frame.
impl CommMsg for WalkEdge {
    #[inline]
    fn nbytes(&self) -> usize {
        self.codes().into_iter().map(varint_len).sum()
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        for code in self.codes() {
            write_varint(out, code);
        }
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut field = || {
            let code = r.read_varint()?;
            match code >> 1 {
                coord @ 0..=MAX_COORD => Ok((coord as u32, code & 1 == 1)),
                _ => Err(WireError::Malformed("walk edge coordinate")),
            }
        };
        let (pre, src_rev) = field()?;
        let (post, dst_rev) = field()?;
        Ok(WalkEdge {
            pre,
            post,
            src_rev,
            dst_rev,
        })
    }
}

/// One assembled contig.
#[derive(Debug, Clone)]
pub struct Contig {
    pub seq: Seq,
    /// Global ids of the reads concatenated into this contig, walk order.
    pub read_ids: Vec<u64>,
    /// The component was a cycle broken at an arbitrary vertex.
    pub circular: bool,
}

/// Local assembly options.
#[derive(Debug, Clone, Default)]
pub struct AssemblyConfig {
    /// Worker threads for the contig materialization pass (`0` means
    /// one, like `1`). Contigs are byte-identical for every value; this
    /// changes wall time only.
    pub threads: usize,
}

/// Counters for diagnostics and the contig-stage statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct AssemblyStats {
    pub contigs: usize,
    pub cycles: usize,
    pub reads_used: usize,
    pub orientation_breaks: usize,
}

/// One oriented slice recorded by the trace pass: the codes to emit,
/// borrowed from the read store's packed buffer, complemented back to
/// front when `reversed`.
#[derive(Debug, Clone, Copy)]
struct SliceSpec<'s> {
    codes: &'s [u8],
    reversed: bool,
}

impl<'s> SliceSpec<'s> {
    /// The paper's inclusive `l[from:to]` of a read: forward when
    /// `reversed` is false (`from ≤ to`), reverse-complement otherwise
    /// (`from ≥ to`, the `l[j:i]` convention). An exhausted read — the
    /// overlap covers all that remains, so the bounds cross — contributes
    /// nothing.
    fn cut(read: &'s [u8], from: usize, to: usize, reversed: bool) -> Self {
        let (lo, hi) = if reversed { (to, from) } else { (from, to) };
        SliceSpec {
            codes: if lo <= hi { &read[lo..=hi] } else { &[] },
            reversed,
        }
    }

    fn append_to(&self, out: &mut Vec<u8>) {
        if self.reversed {
            out.extend(
                self.codes
                    .iter()
                    .rev()
                    .map(|&c| elba_seq::dna::complement(c)),
            );
        } else {
            out.extend_from_slice(self.codes);
        }
    }
}

/// One traced walk: everything about a contig except its materialized
/// sequence bytes.
#[derive(Debug)]
struct WalkSpec<'s> {
    read_ids: Vec<u64>,
    slices: Vec<SliceSpec<'s>>,
    circular: bool,
}

/// Assemble every contig stored in this rank's induced subgraph: one per
/// chain, and one circular contig per cycle (the paper's contig
/// definition covers only chains; on a linear genome a cycle is a rare
/// repeat artifact).
pub fn local_assembly(
    graph: &LocalGraph,
    store: &ReadStore,
    cfg: &AssemblyConfig,
) -> (Vec<Contig>, AssemblyStats) {
    let n = graph.n_vertices();
    let adj = &graph.adj;
    let mut visited = vec![false; n];
    let mut walks: Vec<WalkSpec> = Vec::new();
    let mut stats = AssemblyStats::default();

    // Pass 1 (serial): trace each walk, recording slices instead of
    // copying bases — the pointer chase over shared `visited` state. A
    // read is looked up in the store once, when the walk steps onto it.
    let read_of = |v: usize| -> &[u8] {
        let gid = graph.global_ids[v];
        store
            .get(gid)
            .unwrap_or_else(|| panic!("read {gid} not stored locally"))
    };
    let trace = |start: usize, visited: &mut [bool], stats: &mut AssemblyStats| -> WalkSpec {
        let gid = |v: usize| graph.global_ids[v];
        let mut read_ids = Vec::new();
        let mut slices = Vec::new();
        visited[start] = true;
        read_ids.push(gid(start));
        let mut prev = start;
        let (root_nbrs, root_edges) = adj.row(start);
        let mut cur = root_nbrs[0] as usize;
        let first = root_edges[0];
        let root = read_of(start);
        let alpha = if first.src_rev { root.len() - 1 } else { 0 };
        slices.push(SliceSpec::cut(
            root,
            alpha,
            first.pre as usize,
            first.src_rev,
        ));
        let mut in_edge = first;
        let mut circular = false;
        loop {
            visited[cur] = true;
            read_ids.push(gid(cur));
            let read = read_of(cur);
            // The slice that ends the contig at this read.
            let terminal = |in_edge: &WalkEdge| {
                let beta = if in_edge.dst_rev { 0 } else { read.len() - 1 };
                SliceSpec::cut(read, in_edge.post as usize, beta, in_edge.dst_rev)
            };
            // Row `cur` holds its neighbours and, beside each, the
            // out-edge to it; it must name `prev` (the mirror edge).
            let (nbrs, out_edges) = adj.row(cur);
            assert!(
                nbrs.contains(&(prev as u32)),
                "missing directed edge {cur}->{prev} in symmetric local matrix"
            );
            let next = nbrs
                .iter()
                .zip(out_edges)
                .map(|(&nb, &edge)| (nb as usize, edge))
                .find(|&(nb, _)| nb != prev && !visited[nb]);
            match next {
                None => {
                    // Opposite root reached (or cycle closed / orientation
                    // anomaly): emit the terminal slice.
                    if nbrs.len() == 2 && nbrs.iter().all(|&x| visited[x as usize]) {
                        circular = true;
                    }
                    slices.push(terminal(&in_edge));
                    break;
                }
                Some((nb, out_edge)) => {
                    if in_edge.dst_rev != out_edge.src_rev {
                        // Inconsistent traversal orientation (fuzz artifact):
                        // terminate the contig cleanly at this read.
                        stats.orientation_breaks += 1;
                        slices.push(terminal(&in_edge));
                        break;
                    }
                    slices.push(SliceSpec::cut(
                        read,
                        in_edge.post as usize,
                        out_edge.pre as usize,
                        in_edge.dst_rev,
                    ));
                    prev = cur;
                    cur = nb;
                    in_edge = out_edge;
                }
            }
        }
        WalkSpec {
            read_ids,
            slices,
            circular,
        }
    };

    // Root scan over all n vertices (paper: linear search for degree 1).
    for s in 0..n {
        if !visited[s] && adj.row_nnz(s) == 1 {
            let walk = trace(s, &mut visited, &mut stats);
            stats.reads_used += walk.read_ids.len();
            stats.contigs += 1;
            walks.push(walk);
        }
    }
    // Remaining unvisited degree-2 vertices form cycles: each becomes a
    // circular contig, broken at its lowest-indexed vertex.
    for s in 0..n {
        if !visited[s] && adj.row_nnz(s) == 2 {
            let mut walk = trace(s, &mut visited, &mut stats);
            walk.circular = true;
            stats.reads_used += walk.read_ids.len();
            stats.contigs += 1;
            stats.cycles += 1;
            walks.push(walk);
        }
    }

    // Pass 2 (threaded): materialize each walk's bases. `run_indexed`
    // returns results in task order — the trace order above — so the
    // contig list is byte-identical for every thread count.
    let seqs = elba_par::run_indexed(walks.len(), cfg.threads, |i| {
        let slices = &walks[i].slices;
        let mut codes = Vec::with_capacity(slices.iter().map(|s| s.codes.len()).sum());
        for slice in slices {
            slice.append_to(&mut codes);
        }
        Seq::from_codes(codes)
    });
    let contigs = walks
        .into_iter()
        .zip(seqs)
        .map(|(walk, seq)| Contig {
            seq,
            read_ids: walk.read_ids,
            circular: walk.circular,
        })
        .collect();
    (contigs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elba_align::{dovetail_edges, OverlapAln};
    use elba_sparse::Csr;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn genome(len: usize, seed: u64) -> Seq {
        let mut rng = StdRng::seed_from_u64(seed);
        Seq::from_codes((0..len).map(|_| rng.gen_range(0..4u8)).collect())
    }

    /// Build a LocalGraph + ReadStore for a chain of reads tiling a
    /// genome, each read optionally reverse-complemented.
    fn chain_graph(
        g: &Seq,
        read_len: usize,
        stride: usize,
        strands: &[bool],
    ) -> (LocalGraph, ReadStore) {
        let n = strands.len();
        assert!(stride * (n - 1) + read_len <= g.len());
        let mut store = ReadStore::empty(n);
        let mut reads = Vec::new();
        for (i, &rc) in strands.iter().enumerate() {
            let r = g.substring(i * stride, i * stride + read_len);
            let r = if rc { r.reverse_complement() } else { r };
            store.push(i as u64, r.codes());
            reads.push(r);
        }
        let mut triples: Vec<(u32, u32, WalkEdge)> = Vec::new();
        for i in 0..n - 1 {
            // true alignment between read i and read i+1 in oriented space
            let overlap = read_len - stride;
            // coordinates on forward-genome layout
            let rc = strands[i] != strands[i + 1];
            // oriented w = v if same strand as u else rc(v); we need the
            // alignment of u against w where w is v oriented to match u.
            // Work in u's frame: if u is fwd, u's overlap is its suffix;
            // if u is rc, it is its prefix.
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
                // u is rc: in u's forward coords the overlap with the next
                // read (to the genome-right) sits at u[0..=overlap-1], and
                // in w coords (v oriented to u) at the suffix.
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
            triples.push((i as u32, (i + 1) as u32, fwd.into()));
            triples.push(((i + 1) as u32, i as u32, bwd.into()));
        }
        let graph = LocalGraph {
            global_ids: (0..n as u64).collect(),
            adj: Csr::from_triples(n, n, triples, |_, _| unreachable!()),
        };
        (graph, store)
    }

    fn assert_rebuilds(g: &Seq, contig: &Contig) {
        assert!(
            contig.seq == *g || contig.seq == g.reverse_complement(),
            "contig (len {}) != genome (len {}):\n  {}\n  {}",
            contig.seq.len(),
            g.len(),
            contig.seq,
            g
        );
    }

    #[test]
    fn slices_cut_forward_and_reverse_complement() {
        let read: Seq = "AGAACT".parse().expect("dna");
        let emit = |from, to, reversed| {
            let mut out = Vec::new();
            SliceSpec::cut(read.codes(), from, to, reversed).append_to(&mut out);
            Seq::from_codes(out).to_string()
        };
        assert_eq!(emit(2, 5, false), "AACT");
        // reverse complement of AACT read backwards from index 5 to 2
        assert_eq!(emit(5, 2, true), "AGTT");
        assert_eq!(emit(3, 3, true), "T", "a single base is still complemented");
        // crossed bounds: the read is exhausted
        assert_eq!(emit(4, 3, false), "");
        assert_eq!(emit(3, 4, true), "");
    }

    #[test]
    fn all_forward_chain_rebuilds_genome() {
        let g = genome(400, 1);
        let (graph, store) = chain_graph(&g, 100, 75, &[false; 5]);
        let (contigs, stats) = local_assembly(&graph, &store, &AssemblyConfig::default());
        assert_eq!(stats.contigs, 1);
        assert_eq!(contigs[0].read_ids.len(), 5);
        assert!(!contigs[0].circular);
        assert_rebuilds(&g, &contigs[0]);
    }

    #[test]
    fn alternating_strand_chain_rebuilds_genome() {
        let g = genome(400, 2);
        let strands = [false, true, false, true, false];
        let (graph, store) = chain_graph(&g, 100, 75, &strands);
        let (contigs, stats) = local_assembly(&graph, &store, &AssemblyConfig::default());
        assert_eq!(stats.contigs, 1);
        assert_eq!(stats.orientation_breaks, 0);
        assert_rebuilds(&g, &contigs[0]);
    }

    #[test]
    fn all_reverse_chain_rebuilds_genome() {
        let g = genome(325, 3);
        let (graph, store) = chain_graph(&g, 100, 75, &[true; 4]);
        let (contigs, _) = local_assembly(&graph, &store, &AssemblyConfig::default());
        assert_eq!(contigs.len(), 1);
        assert_rebuilds(&g, &contigs[0]);
    }

    #[test]
    fn random_strand_chains_rebuild_genome() {
        let mut rng = StdRng::seed_from_u64(12);
        for trial in 0..20 {
            let n = rng.gen_range(2..10);
            let read_len = 80;
            let stride = rng.gen_range(30..70);
            let g = genome(stride * (n - 1) + read_len, 100 + trial);
            let strands: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            let (graph, store) = chain_graph(&g, read_len, stride, &strands);
            let (contigs, stats) = local_assembly(&graph, &store, &AssemblyConfig::default());
            assert_eq!(stats.contigs, 1, "strands={strands:?}");
            assert_eq!(stats.orientation_breaks, 0);
            assert_rebuilds(&g, &contigs[0]);
        }
    }

    #[test]
    fn two_read_contig() {
        let g = genome(150, 4);
        let (graph, store) = chain_graph(&g, 100, 50, &[false, false]);
        let (contigs, _) = local_assembly(&graph, &store, &AssemblyConfig::default());
        assert_eq!(contigs.len(), 1);
        assert_eq!(contigs[0].read_ids, vec![0, 1]);
        assert_rebuilds(&g, &contigs[0]);
    }

    #[test]
    fn multiple_components_yield_multiple_contigs() {
        // two disjoint 3-read chains in one local graph
        let g1 = genome(250, 5);
        let g2 = genome(250, 6);
        let (graph1, store1) = chain_graph(&g1, 100, 75, &[false; 3]);
        let (_graph2, store2) = chain_graph(&g2, 100, 75, &[false; 3]);
        // merge: shift ids of the second chain by 3
        let mut store = ReadStore::empty(6);
        for (id, codes) in store1.iter() {
            store.push(id, codes);
        }
        for (id, codes) in store2.iter() {
            store.push(id + 3, codes);
        }
        let mut triples: Vec<(u32, u32, WalkEdge)> = Vec::new();
        for (r, c, e) in graph1.adj.iter() {
            triples.push((r, c, *e));
            triples.push((r + 3, c + 3, *e));
        }
        let graph = LocalGraph {
            global_ids: (0..6).collect(),
            adj: Csr::from_triples(6, 6, triples, |_, _| unreachable!()),
        };
        let (contigs, stats) = local_assembly(&graph, &store, &AssemblyConfig::default());
        assert_eq!(stats.contigs, 2);
        assert_eq!(contigs[0].read_ids.len(), 3);
        // second chain reuses chain-1 edge payloads over chain-2 reads, so
        // only the first contig is checked against its genome
        assert_rebuilds(&g1, &contigs[0]);
    }

    #[test]
    fn cycle_is_emitted_as_a_circular_contig() {
        // 3-cycle: reads tile a circular genome
        let g = genome(300, 7);
        let read_len = 140;
        let n = 3;
        let stride = 100;
        let mut store = ReadStore::empty(n);
        let mut circ = g.clone();
        circ.extend_from(&g.substring(0, read_len)); // wraparound copy
        for i in 0..n {
            store.push(
                i as u64,
                circ.substring(i * stride, i * stride + read_len).codes(),
            );
        }
        let overlap = (read_len - stride) as u32;
        let mut triples = Vec::new();
        for i in 0..n {
            let j = (i + 1) % n;
            let fwd = WalkEdge {
                pre: stride as u32 - 1,
                post: 0,
                src_rev: false,
                dst_rev: false,
            };
            let bwd = WalkEdge {
                pre: overlap,
                post: read_len as u32 - 1,
                src_rev: true,
                dst_rev: true,
            };
            triples.push((i as u32, j as u32, fwd));
            triples.push((j as u32, i as u32, bwd));
        }
        let graph = LocalGraph {
            global_ids: (0..n as u64).collect(),
            adj: Csr::from_triples(n, n, triples, |_, _| unreachable!()),
        };
        let (contigs, stats) = local_assembly(&graph, &store, &AssemblyConfig::default());
        assert_eq!(stats.cycles, 1);
        assert!(contigs[0].circular);
    }

    #[test]
    #[should_panic(expected = "missing directed edge")]
    fn asymmetric_graph_is_refused() {
        // 0 → 1 and 1 ⇄ 2, with no 1 → 0: the walk from root 0 steps onto
        // vertex 1, whose row does not name the vertex it came from.
        let g = genome(300, 8);
        let mut store = ReadStore::empty(3);
        for i in 0..3 {
            store.push(i as u64, g.substring(i * 100, i * 100 + 100).codes());
        }
        let edge = WalkEdge {
            pre: 74,
            post: 0,
            src_rev: false,
            dst_rev: false,
        };
        let triples = vec![(0, 1, edge), (1, 2, edge), (2, 1, edge)];
        let graph = LocalGraph {
            global_ids: (0..3).collect(),
            adj: Csr::from_triples(3, 3, triples, |_, _| unreachable!()),
        };
        local_assembly(&graph, &store, &AssemblyConfig::default());
    }

    #[test]
    fn contigs_identical_across_thread_counts() {
        // The threaded materialization pass must be a pure speed knob:
        // multi-component graph (chains of varying length + strand mix),
        // byte-identical contig lists for 1, 2, 3, and 8 workers.
        let mut rng = StdRng::seed_from_u64(77);
        let n_chains = 4usize;
        let mut store = ReadStore::empty(0);
        let mut triples: Vec<(u32, u32, WalkEdge)> = Vec::new();
        let mut base = 0u32;
        let mut total = 0usize;
        for chain in 0..n_chains {
            let n = 2 + chain; // 2..=5 reads per chain
            let strands: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            let g = genome(60 * (n - 1) + 90, 500 + chain as u64);
            let (graph_i, store_i) = chain_graph(&g, 90, 60, &strands);
            for (id, codes) in store_i.iter() {
                store.push(id + base as u64, codes);
            }
            for (r, c, e) in graph_i.adj.iter() {
                triples.push((r + base, c + base, *e));
            }
            base += n as u32;
            total += n;
        }
        let mut merged = ReadStore::empty(total);
        for (id, codes) in store.iter() {
            merged.push(id, codes);
        }
        let graph = LocalGraph {
            global_ids: (0..total as u64).collect(),
            adj: Csr::from_triples(total, total, triples, |_, _| unreachable!()),
        };
        let run = |threads: usize| {
            let cfg = AssemblyConfig { threads };
            local_assembly(&graph, &merged, &cfg)
        };
        let (baseline, base_stats) = run(1);
        assert_eq!(base_stats.contigs, n_chains);
        for threads in [2usize, 3, 8] {
            let (contigs, stats) = run(threads);
            assert_eq!(stats.contigs, base_stats.contigs, "threads={threads}");
            assert_eq!(contigs.len(), baseline.len(), "threads={threads}");
            for (a, b) in baseline.iter().zip(&contigs) {
                assert_eq!(a.read_ids, b.read_ids, "threads={threads}");
                assert_eq!(a.circular, b.circular, "threads={threads}");
                assert!(a.seq == b.seq, "threads={threads}: contig bytes diverge");
            }
        }
    }

    #[test]
    fn empty_graph_produces_nothing() {
        let graph = LocalGraph {
            global_ids: Vec::new(),
            adj: Csr::empty(0, 0),
        };
        let store = ReadStore::empty(0);
        let (contigs, stats) = local_assembly(&graph, &store, &AssemblyConfig::default());
        assert!(contigs.is_empty());
        assert_eq!(stats.contigs, 0);
    }
}
