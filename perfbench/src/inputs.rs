//! Workload inputs, generated inside the benchmark from `--seed`: the
//! program under test only ever sees `Vec<Seq>` and edge triples.

use std::collections::HashSet;
use std::sync::Arc;

use elba_align::{dovetail_edges, OverlapAln, SgEdge};
use elba_core::{ChainingConfig, PipelineConfig};
use elba_graph::SeedChaining;
use elba_seq::{DatasetSpec, Seq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    CelegansLike,
    HsapiensLike,
}

#[derive(Debug, Clone, PartialEq)]
pub enum InputSpec {
    /// Simulated reads through the full pipeline: `chromosomes`
    /// independently generated genomes of `scale` each, their reads in
    /// one read set. (The simulator draws one repeat family per genome,
    /// and how many reads land in it swings alignment work and
    /// completeness by ±20 % from seed to seed whatever the genome's
    /// size; independent chromosomes average that out.) `greedy`
    /// selects the `BestOnly` greedy extender instead of the default
    /// chained x-drop.
    Reads {
        dataset: Dataset,
        scale: f64,
        chromosomes: usize,
        greedy: bool,
    },
    /// A synthetic overlap graph through Algorithm 2 only.
    Chains(ChainSpec),
}

/// Shape of the synthetic chain graph: error-free chromosomes tiled by
/// fixed-length, random-strand reads, plus false cross-chromosome edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSpec {
    pub chromosomes: usize,
    pub reads_per_chromosome: usize,
    pub read_len: usize,
    /// Distance between consecutive read starts; `read_len = 4 * stride`
    /// makes read *i* overlap exactly *i*+1, *i*+2 and *i*+3.
    pub stride: usize,
    /// False edges between interior reads of different chromosomes; both
    /// endpoints reach degree 3 after reduction and become branch
    /// vertices.
    pub false_edges: usize,
}

pub type EdgeTriple = (u64, u64, SgEdge);

pub struct ReadInputs {
    /// The chromosomes, concatenated: the reference quality is
    /// evaluated against.
    pub genome: Seq,
    pub reads: Arc<Vec<Seq>>,
    /// `PipelineConfig::for_dataset` defaults (plus the greedy extender
    /// where the workload asks for it); the thread knob is set per run.
    pub cfg: PipelineConfig,
}

pub struct ChainInputs {
    pub spec: ChainSpec,
    pub chromosomes: Vec<Seq>,
    pub reads: Arc<Vec<Seq>>,
    pub triples: Arc<Vec<EdgeTriple>>,
    /// Whether each read is an endpoint of a false edge.
    pub branch: Vec<bool>,
}

pub enum Inputs {
    Reads(ReadInputs),
    Chains(ChainInputs),
}

impl InputSpec {
    pub fn generate(&self, seed: u64) -> Inputs {
        match self {
            InputSpec::Reads {
                dataset,
                scale,
                chromosomes,
                greedy,
            } => {
                let spec_of = |chromosome: usize| {
                    let seed = seed
                        .wrapping_mul(*chromosomes as u64)
                        .wrapping_add(chromosome as u64);
                    match dataset {
                        Dataset::CelegansLike => DatasetSpec::celegans_like(*scale, seed),
                        Dataset::HsapiensLike => DatasetSpec::hsapiens_like(*scale, seed),
                    }
                };
                let mut genome = Seq::new();
                let mut reads = Vec::new();
                for chromosome in 0..*chromosomes {
                    let (chromosome_seq, sim_reads) = spec_of(chromosome).generate();
                    genome.extend_from(&chromosome_seq);
                    reads.extend(sim_reads.into_iter().map(|r| r.seq));
                }
                // Thresholds depend on the read parameters only, which
                // every chromosome shares.
                let mut cfg = PipelineConfig::for_dataset(&spec_of(0));
                if *greedy {
                    cfg = cfg.seed_chaining(ChainingConfig {
                        chaining: SeedChaining::BestOnly,
                        ..ChainingConfig::default()
                    });
                }
                Inputs::Reads(ReadInputs {
                    genome,
                    reads: Arc::new(reads),
                    cfg,
                })
            }
            InputSpec::Chains(spec) => Inputs::Chains(chain_graph(spec, seed)),
        }
    }
}

impl Inputs {
    pub fn reads(&self) -> &Arc<Vec<Seq>> {
        match self {
            Inputs::Reads(r) => &r.reads,
            Inputs::Chains(c) => &c.reads,
        }
    }

    /// FNV-1a over every read (and, for a chain graph, every edge
    /// endpoint): equal exactly when the generated inputs are equal.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv::new();
        for read in self.reads().iter() {
            hash.write(read.codes());
            hash.write(&[0xff]);
        }
        if let Inputs::Chains(c) = self {
            for &(row, col, edge) in c.triples.iter() {
                hash.write(&row.to_le_bytes());
                hash.write(&col.to_le_bytes());
                hash.write(&edge.suffix.to_le_bytes());
            }
        }
        hash.finish()
    }
}

/// 64-bit FNV-1a; stable across Rust releases, unlike `DefaultHasher`.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// The dovetail edge pair between reads `d` strides apart on one
/// chromosome (`u` to the left), built the way
/// `crates/core/src/contig.rs`'s tests build theirs.
fn tile_edges(spec: &ChainSpec, d: usize, u_rc: bool, v_rc: bool) -> (SgEdge, SgEdge) {
    let shift = d * spec.stride;
    let overlap = spec.read_len - shift;
    let (u_span, w_span) = if u_rc {
        ((0, overlap - 1), (shift, spec.read_len - 1))
    } else {
        ((shift, spec.read_len - 1), (0, overlap - 1))
    };
    dovetail_edges(&OverlapAln {
        rc: u_rc != v_rc,
        u_beg: u_span.0,
        u_end: u_span.1,
        w_beg: w_span.0,
        w_end: w_span.1,
        u_len: spec.read_len,
        v_len: spec.read_len,
        score: overlap as i32,
    })
}

fn chain_graph(spec: &ChainSpec, seed: u64) -> ChainInputs {
    assert!(
        spec.stride > 0 && spec.read_len > spec.stride && spec.reads_per_chromosome >= 2,
        "chain spec must tile"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let n = spec.reads_per_chromosome;
    let chrom_len = spec.read_len + (n - 1) * spec.stride;
    let mut chromosomes = Vec::with_capacity(spec.chromosomes);
    let mut reads = Vec::with_capacity(spec.chromosomes * n);
    let mut strands = Vec::with_capacity(spec.chromosomes * n);
    for _ in 0..spec.chromosomes {
        let chrom = Seq::from_codes((0..chrom_len).map(|_| rng.gen_range(0..4u8)).collect());
        for i in 0..n {
            let read = chrom.substring(i * spec.stride, i * spec.stride + spec.read_len);
            let rc = rng.gen_bool(0.5);
            reads.push(if rc { read.reverse_complement() } else { read });
            strands.push(rc);
        }
        chromosomes.push(chrom);
    }

    let reach = (spec.read_len - 1) / spec.stride;
    let mut triples: Vec<EdgeTriple> = Vec::with_capacity(reads.len() * 2 * reach);
    for c in 0..spec.chromosomes {
        for i in 0..n {
            for d in 1..=reach.min(n - 1 - i) {
                let (u, v) = (c * n + i, c * n + i + d);
                let (fwd, bwd) = tile_edges(spec, d, strands[u], strands[v]);
                triples.push((u as u64, v as u64, fwd));
                triples.push((v as u64, u as u64, bwd));
            }
        }
    }

    // False edges join interior reads (degree 2 after reduction) of two
    // different chromosomes, each read used once, so every endpoint ends
    // at degree exactly 3.
    let mut branch = vec![false; reads.len()];
    let false_edge = SgEdge {
        pre: (spec.read_len - 1) as u32,
        post: 0,
        src_rev: false,
        dst_rev: false,
        suffix: spec.read_len as u32,
    };
    if spec.chromosomes >= 2 && n >= 3 {
        let mut used: HashSet<usize> = HashSet::new();
        let mut placed = 0;
        while placed < spec.false_edges && used.len() + 2 <= spec.chromosomes * (n - 2) {
            let pick =
                |rng: &mut StdRng| rng.gen_range(0..spec.chromosomes) * n + rng.gen_range(1..n - 1);
            let (u, v) = (pick(&mut rng), pick(&mut rng));
            if u / n == v / n || used.contains(&u) || used.contains(&v) {
                continue;
            }
            used.extend([u, v]);
            branch[u] = true;
            branch[v] = true;
            triples.push((u as u64, v as u64, false_edge));
            triples.push((v as u64, u as u64, false_edge));
            placed += 1;
        }
    }

    ChainInputs {
        spec: spec.clone(),
        chromosomes,
        reads: Arc::new(reads),
        triples: Arc::new(triples),
        branch,
    }
}

impl ChainInputs {
    /// The contigs Algorithm 2 must produce: per chromosome, every
    /// maximal run of at least two consecutive non-branch reads,
    /// spelled out as the chromosome interval those reads cover.
    /// Returns `(sequence, is a whole chromosome)` per piece.
    pub fn expected_pieces(&self) -> Vec<(Seq, bool)> {
        let n = self.spec.reads_per_chromosome;
        let mut pieces = Vec::new();
        for (c, chrom) in self.chromosomes.iter().enumerate() {
            let mut start = 0;
            while start < n {
                if self.branch[c * n + start] {
                    start += 1;
                    continue;
                }
                let mut end = start;
                while end + 1 < n && !self.branch[c * n + end + 1] {
                    end += 1;
                }
                if end > start {
                    let from = start * self.spec.stride;
                    let to = end * self.spec.stride + self.spec.read_len;
                    pieces.push((chrom.substring(from, to), end - start + 1 == n));
                }
                start = end + 1;
            }
        }
        pieces
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_reads() -> InputSpec {
        InputSpec::Reads {
            dataset: Dataset::CelegansLike,
            scale: 0.02,
            chromosomes: 2,
            greedy: false,
        }
    }

    pub(crate) fn tiny_chains(false_edges: usize) -> ChainSpec {
        ChainSpec {
            chromosomes: 6,
            reads_per_chromosome: 9,
            read_len: 80,
            stride: 20,
            false_edges,
        }
    }

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        for spec in [tiny_reads(), InputSpec::Chains(tiny_chains(2))] {
            let a = spec.generate(11).fingerprint();
            assert_eq!(a, spec.generate(11).fingerprint(), "{spec:?}");
            assert_ne!(a, spec.generate(12).fingerprint(), "{spec:?}");
        }
    }

    #[test]
    fn chain_graph_has_the_promised_shape() {
        let spec = tiny_chains(2);
        let Inputs::Chains(g) = InputSpec::Chains(spec.clone()).generate(5) else {
            panic!("chains expected");
        };
        assert_eq!(g.reads.len(), 6 * 9);
        // per chromosome: 8 + 7 + 6 neighbour pairs, both directions
        assert_eq!(g.triples.len(), 6 * 2 * (8 + 7 + 6) + 2 * 2);
        assert_eq!(g.branch.iter().filter(|&&b| b).count(), 4);
        let pieces = g.expected_pieces();
        let whole = pieces.iter().filter(|(_, whole)| *whole).count();
        assert!((2..=4).contains(&whole), "two edges touch 2..4 chromosomes");
        assert!(pieces
            .iter()
            .all(|(seq, whole)| *whole == (seq.len() == 80 + 8 * 20)));
    }
}
