//! The end-to-end ELBA pipeline (Algorithm 1): k-mer counting, sparse
//! overlap detection, x-drop alignment, transitive reduction, and the
//! contig generation of Algorithm 2. Phases carry the paper's Fig. 5
//! names (`CountKmer`, `DetectOverlap`, `Alignment`, `TrReduction`,
//! `ExtractContig`) so a profiled run yields the breakdown figures
//! directly.

use elba_align::SgEdge;
use elba_comm::{ProcGrid, SharedMemCharge};
use elba_graph::{
    align_and_classify, candidate_matrix, overlap_graph, symmetrize, transitive_reduction_with,
    AlignStats, OverlapConfig, ReductionStats, SeedChaining,
};
use elba_mem::MemBudget;
use elba_seq::{build_a_triples, count_kmers, AEntry, DatasetSpec, KmerConfig, ReadStore, Seq};
use elba_sparse::{DistMat, DistVec, SpGemmOptions};

use crate::assembly::Contig;
use crate::contig::{contig_generation, gather_contigs, ContigConfig, ContigStats};

/// Most bytes one occurrence holds in a window of A's triples —
/// its `(column or slot, entry)`, plus a `u64` column query when its
/// k-mer is new to the window: the k-mer stage's largest per-item
/// footprint (a counting window's is at most the same, an 8-byte
/// occurrence plus a 16-byte count record), and the unit `batch_kmers`
/// is derived from.
const A_RECORD_BYTES: usize = std::mem::size_of::<(u64, AEntry)>() + 8;

/// Shared sampled k-mers a true overlap of `min_overlap` bases should
/// still expect at the derived sample rate.
const SAMPLED_SHARED_KMERS: f64 = 8.0;

/// The k-mer sample rate `s` for a dataset: the largest that leaves a
/// true overlap of `min_overlap` bases an expected
/// [`SAMPLED_SHARED_KMERS`] shared sampled k-mers. Such an overlap has
/// `min_overlap − k + 1` k-mer windows, each error-free in both reads
/// with probability `(1 − e)^{2k}`, and the sample keeps one k-mer in
/// `s`:
///
/// `s = max(1, ⌊(min_overlap − k + 1)·(1 − e)^{2k} / 8⌋)`
///
/// celegans-like reads (0.5 % error, `k = 31`, 100-base `min_overlap`)
/// give 6, osativa-like 8; hsapiens-like (15 %, `k = 17`) keep every
/// k-mer, since 0.85³⁴ ≈ 0.4 % of windows are shared at all. An overlap
/// shorter than `k`, or an error rate of 1 or more, gives 1.
fn sample_rate(min_overlap: usize, k: usize, error_rate: f64) -> u32 {
    let windows = (min_overlap + 1).saturating_sub(k) as f64;
    let shared = (1.0 - error_rate).clamp(0.0, 1.0).powi(2 * k as i32);
    ((windows * shared / SAMPLED_SHARED_KMERS) as u32).max(1)
}

/// Seed-chaining knobs for the alignment stage, the argument of
/// [`PipelineConfig::seed_chaining`]. `Default` matches
/// [`OverlapConfig::default`]: chain mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChainingConfig {
    /// Seed-selection policy (the CLI's `--seed-chaining`).
    pub chaining: SeedChaining,
}

/// All pipeline parameters.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    pub kmer: KmerConfig,
    pub overlap: OverlapConfig,
    /// Overhang fuzz for transitive reduction.
    pub tr_fuzz: u32,
    /// Vestigial: transitive reduction is one sweep whatever this says
    /// (`0` skips it) — see `elba_graph::transitive_reduction_with`.
    pub tr_max_iters: usize,
    pub contig: ContigConfig,
    /// Per-rank memory budget; [`PipelineConfig::with_mem_budget`]
    /// derives the batching knobs from it. Unlimited by default.
    pub mem_budget: MemBudget,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            kmer: KmerConfig::default(),
            overlap: OverlapConfig::default(),
            tr_fuzz: 400,
            tr_max_iters: 10,
            contig: ContigConfig::default(),
            mem_budget: MemBudget::unlimited(),
        }
    }
}

impl PipelineConfig {
    /// Parameters for a simulated dataset: the paper's `k` and x-drop
    /// values, with alignment thresholds scaled to the dataset's read
    /// length and error rate, and the k-mer sample rate derived from the
    /// same three (`sample_rate` in this module).
    pub fn for_dataset(spec: &DatasetSpec) -> Self {
        let high_error = spec.reads.error_rate > 0.05;
        let mean_len = spec.reads.mean_len as f64;
        let min_overlap = (mean_len * 0.05) as usize;
        PipelineConfig {
            kmer: KmerConfig {
                k: spec.k,
                reliable_min: 2,
                // repeats at ~depth× multiplicity; allow a generous band
                reliable_max: (spec.reads.depth * 8.0) as u32,
                sample_rate: sample_rate(min_overlap, spec.k, spec.reads.error_rate),
                ..KmerConfig::default()
            },
            overlap: OverlapConfig {
                k: spec.k,
                xdrop: spec.xdrop,
                scoring: elba_align::Scoring::default(),
                min_overlap,
                min_score_ratio: if high_error { 0.25 } else { 0.7 },
                // x-drop stops earlier on noisy data → larger overhangs
                fuzz: if high_error {
                    (mean_len * 0.25) as usize
                } else {
                    (mean_len * 0.05) as usize
                },
                spgemm: SpGemmOptions::default(),
                threads: 0,
                ..OverlapConfig::default()
            },
            tr_fuzz: if high_error {
                (mean_len * 0.3) as u32
            } else {
                (mean_len * 0.1) as u32
            },
            tr_max_iters: 10,
            contig: ContigConfig::default(),
            mem_budget: MemBudget::unlimited(),
        }
    }

    /// Run every intra-rank threaded kernel — the local multiply of each
    /// SUMMA stage (overlap detection *and* transitive reduction), the
    /// x-drop alignment batch, the k-mer scan, and the contig-stage
    /// sequence materialization — on `threads` workers per rank (`0`
    /// means one, like `1`, the CLI default); there is no other way to
    /// set threads. The count sizes each kernel's worker set and never
    /// picks a code path. Assembled contigs — and profiled wire bytes —
    /// are identical for every value: threading changes wall time,
    /// resident scratch and the `par-s` column only.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.kmer.threads = threads;
        self.overlap.threads = threads;
        self.overlap.spgemm.threads = threads;
        self.contig.assembly.threads = threads;
        self
    }

    /// Seed-selection policy for the alignment stage (the CLI's
    /// `--seed-chaining`). [`ChainingConfig::default`] is the chained
    /// exact-DP default; `SeedChaining::BestOnly` is the greedy fast
    /// mode — a different algorithm, not a transparent knob.
    pub fn seed_chaining(mut self, cfg: ChainingConfig) -> Self {
        self.overlap.chaining = cfg.chaining;
        self
    }

    /// Cap this run's per-rank memory at `budget` and derive every
    /// batching knob from it, the single `--mem-budget` lever of the
    /// CLI:
    ///
    /// * the k-mer exchange's `batch_kmers` is derived inside
    ///   [`assemble`], where the grid size is known — the inbound
    ///   windows of a round scale with `p`,
    /// * both distributed products take the SpGEMM sub-budget as
    ///   [`SpGemmOptions::mem_budget`] (in `overlap.spgemm`): each
    ///   prefetches its stages only if four of the largest fit it, and
    ///   overlap detection multiplies in budget-sized row batches.
    ///   Neither moves a byte of traffic.
    ///
    /// The budget is the SUMMA's one parameter, and nothing else sets it
    /// in a production run. Derivations clamp to sane
    /// floors, so an absurdly small budget runs the smallest k-mer
    /// window and row batch, blocking, rather than failing; it cannot
    /// shrink what the run keeps resident, and a profiled run's `mem-hw`
    /// column shows what was actually reached.
    pub fn with_mem_budget(mut self, budget: MemBudget) -> Self {
        self.mem_budget = budget;
        if let Some(spgemm_bytes) = budget.spgemm_bytes() {
            // Preserve the thread knob: budgets size batches, not the
            // intra-rank worker count.
            self.overlap.spgemm =
                SpGemmOptions::budgeted(spgemm_bytes).with_threads(self.overlap.spgemm.threads);
        }
        self
    }
}

/// Everything a pipeline run reports.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Contigs assembled by *this rank*.
    pub local_contigs: Vec<Contig>,
    pub n_reads: usize,
    pub n_reliable_kmers: u64,
    pub candidate_nnz: u64,
    pub string_graph_nnz: u64,
    pub align_stats: AlignStats,
    pub reduction_stats: ReductionStats,
    pub contig_stats: ContigStats,
}

/// What Algorithm 1 lines 3–10 hand to contig generation: the string
/// matrix and the counters of the stages that built it.
pub struct StringGraph {
    /// The symmetrized string matrix `S`.
    pub s: DistMat<SgEdge>,
    /// `S`'s residency charge against the rank's memory tracker, held
    /// for as long as this value lives.
    _s_charge: SharedMemCharge,
    /// Reads classified as contained in another read (Algorithm 1 line
    /// 9): their rows and columns are already pruned out of `s`.
    pub contained: DistVec<bool>,
    pub n_reliable_kmers: u64,
    pub candidate_nnz: u64,
    /// Global nonzeros of `S`.
    pub nnz: u64,
    pub align_stats: AlignStats,
    pub reduction_stats: ReductionStats,
}

/// Algorithm 1 lines 3–10 — CountKmer, DetectOverlap, Alignment,
/// TrReduction — on a distributed read store: everything [`assemble`]
/// does before [`contig_generation`]. Collective.
pub fn string_graph(grid: &ProcGrid, store: &ReadStore, cfg: &PipelineConfig) -> StringGraph {
    let world = grid.world();
    let n_reads = store.n_global();

    // The config-time window derivation cannot see the grid size, but
    // a round's `alltoallv` delivers one window from every peer at once:
    // re-derive `batch_kmers` here, where `p` is known, so the outgoing
    // window plus the inbound windows fit the exchange sub-budget on any
    // grid — without this, the inbound windows alone exceed the budget
    // once p grows past a handful of ranks.
    let kmer_cfg = if cfg.mem_budget.is_limited() {
        let mut k = cfg.kmer.clone();
        k.batch_kmers = cfg.mem_budget.derive_batch_kmers_for(
            A_RECORD_BYTES,
            world.size().saturating_sub(1),
            k.batch_kmers,
        );
        k
    } else {
        cfg.kmer.clone()
    };

    // CountKmer: reliable k-mer table (Algorithm 1, line 3).
    let table = {
        let _g = world.phase("CountKmer");
        count_kmers(grid, store, &kmer_cfg)
    };

    // DetectOverlap: A, Aᵀ, candidate matrix C = AAᵀ (lines 4–6).
    // Long-lived matrices are charged against the rank's memory tracker
    // while resident, so the per-phase `mem-hw` column reports real
    // residency, not just the SpGEMM schedules' internal transients.
    // Charges go through the shared (Arc-keyed) path — the SUMMA stage
    // in which a rank "receives" its own resident block must not count
    // it twice — and use deep heap sizes, so value types carrying nested
    // heap stop undercounting.
    let (c, _c_charge) = {
        let _g = world.phase("DetectOverlap");
        let triples = build_a_triples(grid, store, &table, &kmer_cfg);
        let a = DistMat::from_triples(
            grid,
            n_reads,
            table.n_global as usize,
            triples,
            |acc: &mut AEntry, v| {
                if v.pos < acc.pos {
                    *acc = v;
                }
            },
        );
        let _a_charge = world.mem_charge_shared(a.local_arc(), a.deep_heap_bytes());
        let c = candidate_matrix(grid, &a, &cfg.overlap);
        let c_charge = world.mem_charge_shared(c.local_arc(), c.deep_heap_bytes());
        (c, c_charge)
    };
    let candidate_nnz = c.nnz_global(grid);

    // Alignment: x-drop + classification + pruning (lines 7–9).
    let (r, _r_charge, contained, align_stats) = {
        let _g = world.phase("Alignment");
        let (triples, contained, align_stats) = align_and_classify(grid, &c, store, &cfg.overlap);
        let r = overlap_graph(grid, n_reads, triples, &contained);
        let r_charge = world.mem_charge_shared(r.local_arc(), r.deep_heap_bytes());
        (r, r_charge, contained, align_stats)
    };
    drop(c);
    drop(_c_charge);

    // TrReduction: R → S (line 10). R's pipeline-level charge is
    // released *before* the reduction: the call consumes R into its hop
    // projection in R's own buffers and charges that projection and its
    // side array itself — a guard held out here would keep R's block
    // shared, so the projection would copy it, and would go on charging
    // a matrix that is gone.
    let (s, _s_charge, reduction_stats) = {
        let _g = world.phase("TrReduction");
        drop(_r_charge);
        let (s, stats) =
            transitive_reduction_with(grid, r, cfg.tr_fuzz, cfg.tr_max_iters, &cfg.overlap.spgemm);
        let s = symmetrize(grid, s);
        let s_charge = world.mem_charge_shared(s.local_arc(), s.deep_heap_bytes());
        (s, s_charge, stats)
    };
    let nnz = s.nnz_global(grid);

    StringGraph {
        s,
        _s_charge,
        contained,
        n_reliable_kmers: table.n_global,
        candidate_nnz,
        nnz,
        align_stats,
        reduction_stats,
    }
}

/// Run Algorithm 1 on a replicated read set (each rank passes the same
/// slice; the store keeps only the rank's block): [`string_graph`], then
/// Algorithm 2. Collective.
pub fn assemble(grid: &ProcGrid, reads: &[Seq], cfg: &PipelineConfig) -> PipelineResult {
    let store = ReadStore::from_replicated(grid, reads);
    let graph = string_graph(grid, &store, cfg);

    // ExtractContig: Algorithm 2 (line 11).
    let (local_contigs, contig_stats) = {
        let _g = grid.world().phase("ExtractContig");
        contig_generation(grid, &graph.s, &store, &cfg.contig)
    };

    PipelineResult {
        local_contigs,
        n_reads: reads.len(),
        n_reliable_kmers: graph.n_reliable_kmers,
        candidate_nnz: graph.candidate_nnz,
        string_graph_nnz: graph.nnz,
        align_stats: graph.align_stats,
        reduction_stats: graph.reduction_stats,
        contig_stats,
    }
}

/// [`assemble`] + gather: returns the full contig set on every rank.
pub fn assemble_gathered(
    grid: &ProcGrid,
    reads: &[Seq],
    cfg: &PipelineConfig,
) -> (Vec<Contig>, PipelineResult) {
    let result = assemble(grid, reads, cfg);
    let contigs = gather_contigs(grid, &result.local_contigs);
    (contigs, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elba_comm::{Backend, Runner};
    use elba_seq::sim::{random_genome, simulate_reads, GenomeConfig, ReadSimConfig};

    fn small_cfg(k: usize) -> PipelineConfig {
        PipelineConfig {
            kmer: KmerConfig {
                k,
                reliable_min: 2,
                reliable_max: 60,
                ..KmerConfig::default()
            },
            overlap: OverlapConfig {
                k,
                xdrop: 15,
                scoring: elba_align::Scoring::default(),
                min_overlap: 100,
                min_score_ratio: 0.55,
                fuzz: 60,
                spgemm: SpGemmOptions::default(),
                threads: 1,
                ..OverlapConfig::default()
            },
            tr_fuzz: 150,
            tr_max_iters: 10,
            contig: ContigConfig::default(),
            mem_budget: MemBudget::unlimited(),
        }
    }

    #[test]
    fn sample_rate_is_derived_from_the_dataset() {
        let rate = |spec: DatasetSpec| PipelineConfig::for_dataset(&spec).kmer.sample_rate;
        assert_eq!(rate(DatasetSpec::celegans_like(0.1, 7)), 6);
        assert_eq!(rate(DatasetSpec::osativa_like(0.1, 7)), 8);
        assert_eq!(rate(DatasetSpec::hsapiens_like(0.1, 7)), 1);
        assert_eq!(sample_rate(100, 31, 0.0), 8);
        assert_eq!(sample_rate(30, 31, 0.0), 1);
        assert_eq!(sample_rate(0, 31, 0.0), 1);
        assert_eq!(sample_rate(100, 31, 1.0), 1);
        assert_eq!(sample_rate(100, 31, 2.5), 1);
        assert_eq!(sample_rate(100, 31, f64::NAN), 1);
        assert_eq!(sample_rate(100, 31, -0.5), 8);
    }

    #[test]
    fn error_free_dataset_assembles_most_of_genome() {
        for p in [1usize, 4] {
            let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                let grid = ProcGrid::new(comm);
                let genome = random_genome(&GenomeConfig {
                    length: 8_000,
                    repeat_fraction: 0.0,
                    repeat_unit_len: 0,
                    repeat_divergence: 0.0,
                    seed: 61,
                });
                let reads: Vec<Seq> = simulate_reads(
                    &genome,
                    &ReadSimConfig {
                        depth: 12.0,
                        mean_len: 1_200,
                        min_len: 600,
                        error_rate: 0.0,
                        seed: 62,
                    },
                )
                .into_iter()
                .map(|r| r.seq)
                .collect();
                let (contigs, result) = assemble_gathered(&grid, &reads, &small_cfg(17));
                let longest = contigs.first().map_or(0, |c| c.seq.len());
                (
                    longest,
                    contigs.len(),
                    result.contig_stats.n_components,
                    genome.len(),
                )
            });
            let (longest, n_contigs, _components, genome_len) = out[0];
            assert!(n_contigs >= 1, "p={p}");
            assert!(
                longest as f64 >= 0.5 * genome_len as f64,
                "p={p}: longest contig {longest} vs genome {genome_len}"
            );
        }
    }

    #[test]
    fn results_identical_across_rank_counts() {
        let mut all: Vec<Vec<String>> = Vec::new();
        for p in [1usize, 4] {
            let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
                let grid = ProcGrid::new(comm);
                let genome = random_genome(&GenomeConfig {
                    length: 5_000,
                    repeat_fraction: 0.0,
                    repeat_unit_len: 0,
                    repeat_divergence: 0.0,
                    seed: 71,
                });
                let reads: Vec<Seq> = simulate_reads(
                    &genome,
                    &ReadSimConfig {
                        depth: 10.0,
                        mean_len: 1_000,
                        min_len: 500,
                        error_rate: 0.0,
                        seed: 72,
                    },
                )
                .into_iter()
                .map(|r| r.seq)
                .collect();
                let (contigs, _) = assemble_gathered(&grid, &reads, &small_cfg(17));
                contigs
                    .iter()
                    .map(|c| {
                        let f = c.seq.to_string();
                        let r = c.seq.reverse_complement().to_string();
                        if f <= r {
                            f
                        } else {
                            r
                        }
                    })
                    .collect::<Vec<_>>()
            });
            all.push(out.into_iter().next().expect("rank 0"));
        }
        assert_eq!(all[0], all[1], "contig sets must not depend on P");
    }

    #[test]
    fn spgemm_schedules_agree_end_to_end() {
        // Every regime of the budgeted SUMMA must assemble the same
        // contig set as the unbudgeted run (the first case) through the
        // whole pipeline (overlap detection *and* transitive reduction),
        // with the thread knob varied to cover the threaded
        // materialization. Each budget is written into `overlap.spgemm`
        // directly, not through `with_mem_budget`, so the k-mer window
        // stays the unbudgeted run's and only the SUMMA varies.
        let mut per_schedule: Vec<Vec<String>> = Vec::new();
        let cases = [
            (SpGemmOptions::default(), 1usize),
            (SpGemmOptions::default(), 4),
            // prefetched stages / blocking stages in 32-row batches /
            // the smallest budget
            (SpGemmOptions::budgeted(1 << 30), 4),
            (SpGemmOptions::budgeted(4 << 10), 1),
            (SpGemmOptions::budgeted(1), 4),
        ];
        for (opts, threads) in cases {
            let out = Runner::new(Backend::InProcess).ranks(4).run(move |comm| {
                let grid = ProcGrid::new(comm);
                let genome = random_genome(&GenomeConfig {
                    length: 5_000,
                    repeat_fraction: 0.0,
                    repeat_unit_len: 0,
                    repeat_divergence: 0.0,
                    seed: 91,
                });
                let reads: Vec<Seq> = simulate_reads(
                    &genome,
                    &ReadSimConfig {
                        depth: 10.0,
                        mean_len: 1_000,
                        min_len: 500,
                        error_rate: 0.0,
                        seed: 92,
                    },
                )
                .into_iter()
                .map(|r| r.seq)
                .collect();
                let mut cfg = small_cfg(17);
                cfg.overlap.spgemm = opts;
                let cfg = cfg.with_threads(threads);
                let (contigs, _) = assemble_gathered(&grid, &reads, &cfg);
                contigs
                    .iter()
                    .map(|c| c.seq.to_string())
                    .collect::<Vec<_>>()
            });
            per_schedule.push(out.into_iter().next().expect("rank 0"));
        }
        for later in &per_schedule[1..] {
            assert_eq!(
                &per_schedule[0], later,
                "contigs must not depend on the SpGEMM schedule or thread count"
            );
        }
    }

    #[test]
    fn noisy_reads_still_produce_contigs() {
        let out = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
            let grid = ProcGrid::new(comm);
            let genome = random_genome(&GenomeConfig {
                length: 6_000,
                repeat_fraction: 0.0,
                repeat_unit_len: 0,
                repeat_divergence: 0.0,
                seed: 81,
            });
            let reads: Vec<Seq> = simulate_reads(
                &genome,
                &ReadSimConfig {
                    depth: 15.0,
                    mean_len: 1_200,
                    min_len: 600,
                    error_rate: 0.005,
                    seed: 82,
                },
            )
            .into_iter()
            .map(|r| r.seq)
            .collect();
            let (contigs, result) = assemble_gathered(&grid, &reads, &small_cfg(17));
            let total: usize = contigs.iter().map(|c| c.seq.len()).sum();
            (contigs.len(), total, result.align_stats.dovetails)
        });
        let (n, total_bases, dovetails) = out[0];
        assert!(n >= 1);
        assert!(dovetails > 0);
        assert!(total_bases >= 3_000, "assembled {total_bases} bases");
    }
}
