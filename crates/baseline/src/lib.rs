//! # elba-baseline — shared-memory comparator assemblers
//!
//! The paper's Table 3/4 compare ELBA against shared-memory assemblers
//! (Hifiasm, HiCanu, Miniasm, Canu). Those codebases are large and
//! closed to this reproduction, so this crate provides two from-scratch
//! serial assemblers that preserve the *algorithmic shape* of the
//! comparison:
//!
//! * [`assemble_bog`] — a **best-overlap-graph** greedy assembler in the
//!   Canu/HiCanu family: indexes every reliable k-mer, aligns every
//!   candidate pair, keeps only each read end's best (longest) overlap,
//!   requires mutual agreement, and walks the resulting paths. Thorough
//!   and slow — the HiCanu stand-in.
//! * [`assemble_minimizer`] — a **minimizer-sketch** assembler in the
//!   minimap/miniasm/hifiasm family: samples window minimizers (far
//!   fewer seeds), aligns the sparser candidate set, applies a serial
//!   transitive reduction and walks non-branching paths. Fast — the
//!   Hifiasm/Miniasm stand-in.
//!
//! Both reuse the same x-drop kernel and `pre`/`post` walk machinery as
//! the distributed pipeline, so runtime differences reflect algorithm
//! structure, not implementation maturity.

use std::collections::HashMap;

use elba_align::{
    classify, extend_seed_with, OverlapAln, OverlapClass, Scoring, SgEdge, XdropWorkspace,
};
use elba_core::{local_assembly, AssemblyConfig, Contig, LocalGraph, WalkEdge};
use elba_seq::kmer::canonical_kmers;
use elba_seq::{ReadStore, Seq};
use elba_sparse::Csr;

/// Parameters shared by both baselines.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    pub k: usize,
    pub xdrop: i32,
    pub scoring: Scoring,
    pub min_overlap: usize,
    /// Minimum alignment score / span ratio (spurious-seed filter).
    pub min_score_ratio: f64,
    pub fuzz: usize,
    /// Reliable k-mer multiplicity band (as in the pipeline).
    pub reliable_min: u32,
    pub reliable_max: u32,
    /// Minimizer window for [`assemble_minimizer`].
    pub window: usize,
    /// Transitive-reduction overhang fuzz.
    pub tr_fuzz: u32,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            k: 17,
            xdrop: 15,
            scoring: Scoring::default(),
            min_overlap: 100,
            min_score_ratio: 0.55,
            fuzz: 60,
            reliable_min: 2,
            reliable_max: 200,
            window: 9,
            tr_fuzz: 150,
        }
    }
}

impl BaselineConfig {
    /// The comparators' parameters for a simulated dataset: the
    /// pipeline's `k` and x-drop, overlap and overhang thresholds at 5 %
    /// of the mean read length (what `PipelineConfig::for_dataset` uses
    /// on low-error reads).
    pub fn for_dataset(spec: &elba_seq::DatasetSpec) -> Self {
        let five_percent = (spec.reads.mean_len as f64 * 0.05) as usize;
        BaselineConfig {
            k: spec.k,
            xdrop: spec.xdrop,
            min_overlap: five_percent,
            fuzz: five_percent,
            ..BaselineConfig::default()
        }
    }
}

/// Outcome counters (for the Table 3 harness).
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselineStats {
    pub candidate_pairs: usize,
    pub aligned_pairs: usize,
    pub dovetail_edges: usize,
    pub contained_reads: usize,
    pub contigs: usize,
}

/// One seed shared by a read pair.
#[derive(Debug, Clone, Copy)]
struct PairSeed {
    u: u32,
    v: u32,
    pos_u: u32,
    pos_v: u32,
    same_strand: bool,
}

/// Candidate pairs via a full reliable-k-mer index (BOG flavour).
fn candidates_all_kmers(reads: &[Seq], cfg: &BaselineConfig) -> Vec<PairSeed> {
    // k-mer -> occurrences (read, pos, fwd)
    let mut index: HashMap<u64, Vec<(u32, u32, bool)>> = HashMap::new();
    for (rid, read) in reads.iter().enumerate() {
        let mut seen: HashMap<u64, ()> = HashMap::new();
        for hit in canonical_kmers(read, cfg.k) {
            if seen.insert(hit.kmer, ()).is_none() {
                index
                    .entry(hit.kmer)
                    .or_default()
                    .push((rid as u32, hit.pos, hit.fwd));
            }
        }
    }
    collect_pair_seeds(index, cfg)
}

/// Candidate pairs via window minimizers (miniasm flavour).
fn candidates_minimizer(reads: &[Seq], cfg: &BaselineConfig) -> Vec<PairSeed> {
    let mut index: HashMap<u64, Vec<(u32, u32, bool)>> = HashMap::new();
    for (rid, read) in reads.iter().enumerate() {
        let hits = canonical_kmers(read, cfg.k);
        if hits.is_empty() {
            continue;
        }
        let mut last_pick: Option<u32> = None;
        for window in hits.windows(cfg.window.max(1)) {
            let pick = window
                .iter()
                .min_by_key(|h| h.kmer.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .expect("window non-empty");
            if last_pick != Some(pick.pos) {
                last_pick = Some(pick.pos);
                index
                    .entry(pick.kmer)
                    .or_default()
                    .push((rid as u32, pick.pos, pick.fwd));
            }
        }
    }
    collect_pair_seeds(index, cfg)
}

/// Expand the inverted index into per-pair seeds (one seed per pair: the
/// smallest shared k-mer; filtering repeat k-mers above the reliable band).
fn collect_pair_seeds(
    index: HashMap<u64, Vec<(u32, u32, bool)>>,
    cfg: &BaselineConfig,
) -> Vec<PairSeed> {
    let mut seeds: HashMap<(u32, u32), PairSeed> = HashMap::new();
    // "First" must not mean hash order: which seed a pair is extended
    // from decides its alignment, and the baselines are test oracles.
    let mut buckets: Vec<_> = index.into_iter().collect();
    buckets.sort_unstable_by_key(|&(kmer, _)| kmer);
    for (_, occurrences) in buckets {
        let n = occurrences.len() as u32;
        if n < cfg.reliable_min || n > cfg.reliable_max {
            continue;
        }
        for (i, &(ru, pu, fu)) in occurrences.iter().enumerate() {
            for &(rv, pv, fv) in &occurrences[i + 1..] {
                if ru == rv {
                    continue;
                }
                let (u, v, pos_u, pos_v, fu, fv) = if ru < rv {
                    (ru, rv, pu, pv, fu, fv)
                } else {
                    (rv, ru, pv, pu, fv, fu)
                };
                seeds.entry((u, v)).or_insert(PairSeed {
                    u,
                    v,
                    pos_u,
                    pos_v,
                    same_strand: fu == fv,
                });
            }
        }
    }
    let mut out: Vec<PairSeed> = seeds.into_values().collect();
    out.sort_by_key(|s| (s.u, s.v));
    out
}

/// Align candidates, classify, and return the directed dovetail edges
/// plus the contained-read mask.
fn build_edges(
    reads: &[Seq],
    seeds: &[PairSeed],
    cfg: &BaselineConfig,
    stats: &mut BaselineStats,
) -> (Vec<(u32, u32, SgEdge)>, Vec<bool>) {
    let mut contained = vec![false; reads.len()];
    let mut edges = Vec::new();
    stats.candidate_pairs = seeds.len();
    let mut ws = XdropWorkspace::default();
    for seed in seeds {
        let u_codes = reads[seed.u as usize].codes();
        let v = &reads[seed.v as usize];
        let aln = if seed.same_strand {
            if seed.pos_u as usize + cfg.k > u_codes.len() || seed.pos_v as usize + cfg.k > v.len()
            {
                continue;
            }
            let aln = extend_seed_with(
                &mut ws,
                u_codes,
                v.codes(),
                seed.pos_u as usize,
                seed.pos_v as usize,
                cfg.k,
                cfg.xdrop,
                cfg.scoring,
            );
            OverlapAln::from_seed(aln, false, u_codes.len(), v.len())
        } else {
            let w = v.reverse_complement();
            let w_pos = v.len() - seed.pos_v as usize - cfg.k;
            if seed.pos_u as usize + cfg.k > u_codes.len() || w_pos + cfg.k > w.len() {
                continue;
            }
            let aln = extend_seed_with(
                &mut ws,
                u_codes,
                w.codes(),
                seed.pos_u as usize,
                w_pos,
                cfg.k,
                cfg.xdrop,
                cfg.scoring,
            );
            OverlapAln::from_seed(aln, true, u_codes.len(), v.len())
        };
        stats.aligned_pairs += 1;
        match classify(&aln, cfg.fuzz) {
            OverlapClass::ContainedU => contained[seed.u as usize] = true,
            OverlapClass::ContainedV => contained[seed.v as usize] = true,
            OverlapClass::Internal => {}
            OverlapClass::Dovetail { fwd, bwd } => {
                let score_ok = aln.score as f64 >= cfg.min_score_ratio * aln.span() as f64;
                if aln.span() >= cfg.min_overlap && score_ok {
                    edges.push((seed.u, seed.v, fwd));
                    edges.push((seed.v, seed.u, bwd));
                }
            }
        }
    }
    stats.contained_reads = contained.iter().filter(|&&c| c).count();
    edges.retain(|&(u, v, _)| !contained[u as usize] && !contained[v as usize]);
    (edges, contained)
}

/// Best-overlap-graph selection: per (read, end) keep the edge with the
/// longest overlap (largest aligned span ≈ smallest overhang), then keep
/// only mutual pairs (Canu's Bogart strategy).
fn best_overlap_filter(n: usize, edges: Vec<(u32, u32, SgEdge)>) -> Vec<(u32, u32, SgEdge)> {
    // read end key: (read, leaves-from-suffix?) — src_rev=false leaves the
    // read's right end, src_rev=true its left end.
    let mut best: HashMap<(u32, bool), (u32, u32)> = HashMap::new(); // -> (partner, suffix)
    for &(u, v, e) in &edges {
        let key = (u, e.src_rev);
        match best.get(&key) {
            Some(&(_, s)) if s <= e.suffix => {}
            _ => {
                best.insert(key, (v, e.suffix));
            }
        }
    }
    let is_best =
        |u: u32, v: u32, e: &SgEdge| best.get(&(u, e.src_rev)).map(|&(p, _)| p) == Some(v);
    let _ = n;
    edges
        .into_iter()
        .filter(|&(u, v, ref e)| {
            // mutual: the reverse edge must also be v's best on its end
            is_best(u, v, e) && best.iter().any(|(&(r, _), &(p, _))| r == v && p == u)
        })
        .collect()
}

/// Serial transitive reduction over directed SgEdge lists (miniasm-style):
/// the independent reference the distributed `TrReduction` is checked
/// against. It iterates to a fixed point on its own evidence.
pub fn serial_transitive_reduction(
    n: usize,
    mut edges: Vec<(u32, u32, SgEdge)>,
    fuzz: u32,
) -> Vec<(u32, u32, SgEdge)> {
    loop {
        let mut adj: Vec<Vec<(u32, SgEdge)>> = vec![Vec::new(); n];
        for &(u, v, e) in &edges {
            adj[u as usize].push((v, e));
        }
        let before = edges.len();
        edges.retain(|&(u, v, e)| {
            // transitive iff ∃ w: (u,w) + (w,v) direction-compatible with
            // overhang sum ≤ suffix + fuzz
            !adj[u as usize].iter().any(|&(w, e1)| {
                w != v
                    && adj[w as usize].iter().any(|&(x, e2)| {
                        x == v
                            && e1.dst_rev == e2.src_rev
                            && e1.src_rev == e.src_rev
                            && e2.dst_rev == e.dst_rev
                            && e1.suffix.saturating_add(e2.suffix) <= e.suffix.saturating_add(fuzz)
                    })
            })
        });
        if edges.len() == before {
            return edges;
        }
    }
}

/// Mask branch vertices (degree ≥ 3) and assemble the linear chains by
/// reusing the pipeline's walk.
fn assemble_from_edges(
    reads: &[Seq],
    edges: Vec<(u32, u32, SgEdge)>,
    stats: &mut BaselineStats,
) -> Vec<Contig> {
    let n = reads.len();
    let mut degree = vec![0usize; n];
    for &(u, _, _) in &edges {
        degree[u as usize] += 1;
    }
    let kept: Vec<(u32, u32, WalkEdge)> = edges
        .into_iter()
        .filter(|&(u, v, _)| degree[u as usize] <= 2 && degree[v as usize] <= 2)
        .map(|(u, v, e)| (u, v, e.into()))
        .collect();
    stats.dovetail_edges = kept.len();
    let graph = LocalGraph {
        global_ids: (0..n as u64).collect(),
        adj: Csr::from_triples(n, n, kept, |_, _| {}),
    };
    let mut store = ReadStore::empty(n);
    for (rid, read) in reads.iter().enumerate() {
        store.push(rid as u64, read.codes());
    }
    let (contigs, _) = local_assembly(&graph, &store, &AssemblyConfig::default());
    stats.contigs = contigs.len();
    contigs
}

/// Best-overlap-graph assembler (HiCanu/Canu stand-in).
pub fn assemble_bog(reads: &[Seq], cfg: &BaselineConfig) -> (Vec<Contig>, BaselineStats) {
    let mut stats = BaselineStats::default();
    let seeds = candidates_all_kmers(reads, cfg);
    let (edges, _) = build_edges(reads, &seeds, cfg, &mut stats);
    let edges = best_overlap_filter(reads.len(), edges);
    let contigs = assemble_from_edges(reads, edges, &mut stats);
    (contigs, stats)
}

/// Minimizer-sketch assembler (Hifiasm/Miniasm stand-in).
pub fn assemble_minimizer(reads: &[Seq], cfg: &BaselineConfig) -> (Vec<Contig>, BaselineStats) {
    let mut stats = BaselineStats::default();
    let seeds = candidates_minimizer(reads, cfg);
    let (edges, _) = build_edges(reads, &seeds, cfg, &mut stats);
    let edges = serial_transitive_reduction(reads.len(), edges, cfg.tr_fuzz);
    let contigs = assemble_from_edges(reads, edges, &mut stats);
    (contigs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elba_seq::sim::{random_genome, simulate_reads, GenomeConfig, ReadSimConfig};

    fn dataset(glen: usize, seed: u64, err: f64) -> (Seq, Vec<Seq>) {
        let genome = random_genome(&GenomeConfig {
            length: glen,
            repeat_fraction: 0.0,
            repeat_unit_len: 0,
            repeat_divergence: 0.0,
            seed,
        });
        let reads = simulate_reads(
            &genome,
            &ReadSimConfig {
                depth: 12.0,
                mean_len: 1_200,
                min_len: 600,
                error_rate: err,
                seed: seed ^ 0xABCD,
            },
        )
        .into_iter()
        .map(|r| r.seq)
        .collect();
        (genome, reads)
    }

    fn covers_most(genome: &Seq, contigs: &[Contig], frac: f64) -> bool {
        let longest = contigs.iter().map(|c| c.seq.len()).max().unwrap_or(0);
        longest as f64 >= frac * genome.len() as f64
    }

    #[test]
    fn bog_assembles_error_free_reads() {
        let (genome, reads) = dataset(6_000, 31, 0.0);
        let (contigs, stats) = assemble_bog(&reads, &BaselineConfig::default());
        assert!(stats.dovetail_edges > 0);
        assert!(!contigs.is_empty());
        assert!(covers_most(&genome, &contigs, 0.5), "longest too short");
    }

    #[test]
    fn minimizer_assembles_error_free_reads() {
        let (genome, reads) = dataset(6_000, 37, 0.0);
        let (contigs, stats) = assemble_minimizer(&reads, &BaselineConfig::default());
        assert!(!contigs.is_empty());
        assert!(stats.aligned_pairs > 0);
        assert!(covers_most(&genome, &contigs, 0.4), "longest too short");
    }

    #[test]
    fn minimizer_aligns_fewer_pairs_than_bog() {
        // the raison d'être of sketching: fewer candidate alignments
        let (_, reads) = dataset(8_000, 41, 0.0);
        let cfg = BaselineConfig::default();
        let mut s1 = BaselineStats::default();
        let mut s2 = BaselineStats::default();
        let all = candidates_all_kmers(&reads, &cfg);
        let sketch = candidates_minimizer(&reads, &cfg);
        let _ = build_edges(&reads, &all, &cfg, &mut s1);
        let _ = build_edges(&reads, &sketch, &cfg, &mut s2);
        assert!(
            s2.candidate_pairs <= s1.candidate_pairs,
            "minimizer {} vs all {}",
            s2.candidate_pairs,
            s1.candidate_pairs
        );
    }

    #[test]
    fn noisy_reads_still_assemble() {
        let (_, reads) = dataset(6_000, 43, 0.005);
        let (contigs, _) = assemble_bog(&reads, &BaselineConfig::default());
        assert!(!contigs.is_empty());
        let total: usize = contigs.iter().map(|c| c.seq.len()).sum();
        assert!(total > 2_000);
    }

    #[test]
    fn best_overlap_filter_keeps_mutual_best_only() {
        let e = |suffix: u32| SgEdge {
            pre: 0,
            post: 0,
            src_rev: false,
            dst_rev: false,
            suffix,
        };
        // 0 has two right-end options: 1 (overhang 5) and 2 (overhang 9);
        // best is 1. Edge 0->2 must be dropped.
        let edges = vec![
            (0u32, 1u32, e(5)),
            (1u32, 0u32, e(5)),
            (0u32, 2u32, e(9)),
            (2u32, 0u32, e(9)),
        ];
        let kept = best_overlap_filter(3, edges);
        let pairs: Vec<(u32, u32)> = kept.iter().map(|&(u, v, _)| (u, v)).collect();
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(1, 0)));
        assert!(!pairs.contains(&(0, 2)));
    }

    #[test]
    fn serial_tr_removes_skip_edges() {
        let e = |suffix: u32| SgEdge {
            pre: 0,
            post: 0,
            src_rev: false,
            dst_rev: false,
            suffix,
        };
        let edges = vec![
            (0u32, 1u32, e(10)),
            (1u32, 2u32, e(10)),
            (0u32, 2u32, e(20)),
        ];
        let kept = serial_transitive_reduction(3, edges, 2);
        let pairs: Vec<(u32, u32)> = kept.iter().map(|&(u, v, _)| (u, v)).collect();
        assert_eq!(pairs, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn empty_input() {
        let (contigs, stats) = assemble_bog(&[], &BaselineConfig::default());
        assert!(contigs.is_empty());
        assert_eq!(stats.candidate_pairs, 0);
    }
}
