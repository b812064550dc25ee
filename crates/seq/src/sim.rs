//! Synthetic genome + long-read simulator.
//!
//! Substitutes for the paper's Table 2 datasets (O. sativa, C. elegans,
//! H. sapiens PacBio reads), which are far too large for a CI box. The
//! simulator preserves the parameters the algorithms are sensitive to —
//! sequencing depth, read-length distribution, per-base error rate, and
//! repeat content (repeats are what create branch vertices) — at scaled
//! genome sizes. All randomness is seeded: datasets are reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dna::Seq;

/// Parameters for the synthetic genome.
#[derive(Debug, Clone)]
pub struct GenomeConfig {
    /// Genome length in bases.
    pub length: usize,
    /// Fraction of the genome covered by pasted repeat copies.
    pub repeat_fraction: f64,
    /// Length of each repeat unit.
    pub repeat_unit_len: usize,
    /// Per-base divergence between repeat copies.
    pub repeat_divergence: f64,
    pub seed: u64,
}

impl Default for GenomeConfig {
    fn default() -> Self {
        GenomeConfig {
            length: 100_000,
            repeat_fraction: 0.05,
            repeat_unit_len: 2_000,
            repeat_divergence: 0.01,
            seed: 0xE1BA,
        }
    }
}

/// Generate a random genome with interspersed near-identical repeats.
pub fn random_genome(cfg: &GenomeConfig) -> Seq {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut codes: Vec<u8> = (0..cfg.length).map(|_| rng.gen_range(0..4u8)).collect();
    if cfg.repeat_fraction > 0.0 && cfg.repeat_unit_len > 0 && cfg.length > cfg.repeat_unit_len {
        let unit: Vec<u8> = (0..cfg.repeat_unit_len)
            .map(|_| rng.gen_range(0..4u8))
            .collect();
        let copies = ((cfg.length as f64 * cfg.repeat_fraction) / cfg.repeat_unit_len as f64).ceil()
            as usize;
        for _ in 0..copies {
            let at = rng.gen_range(0..cfg.length - cfg.repeat_unit_len);
            for (offset, &base) in unit.iter().enumerate() {
                codes[at + offset] = if rng.gen_bool(cfg.repeat_divergence) {
                    rng.gen_range(0..4u8)
                } else {
                    base
                };
            }
        }
    }
    Seq::from_codes(codes)
}

/// Where a simulated read truly came from (kept for quality evaluation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadTruth {
    /// Genome interval `[start, end)` the read was sampled from.
    pub start: usize,
    pub end: usize,
    /// Whether the read is the reverse-complement strand.
    pub rc: bool,
}

/// A simulated long read plus its provenance.
#[derive(Debug, Clone)]
pub struct SimulatedRead {
    pub seq: Seq,
    pub truth: ReadTruth,
}

/// Parameters of the read sampler (PacBio-like).
#[derive(Debug, Clone)]
pub struct ReadSimConfig {
    /// Target sequencing depth (mean coverage of each genome base).
    pub depth: f64,
    /// Mean read length in bases.
    pub mean_len: usize,
    /// Minimum read length (shorter draws are redrawn/clamped).
    pub min_len: usize,
    /// Per-base error rate (split evenly across sub/ins/del).
    pub error_rate: f64,
    pub seed: u64,
}

impl Default for ReadSimConfig {
    fn default() -> Self {
        ReadSimConfig {
            depth: 20.0,
            mean_len: 8_000,
            min_len: 1_000,
            error_rate: 0.005,
            seed: 1,
        }
    }
}

/// Draw a gamma(4)-shaped read length with the configured mean (sum of
/// four exponentials — long-read length distributions are right-skewed).
fn draw_length(rng: &mut StdRng, cfg: &ReadSimConfig) -> usize {
    let scale = cfg.mean_len as f64 / 4.0;
    let mut len = 0.0;
    for _ in 0..4 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        len += -u.ln() * scale;
    }
    (len as usize).max(cfg.min_len)
}

/// Apply the error model to a perfect read.
fn corrupt(rng: &mut StdRng, perfect: &[u8], error_rate: f64) -> Vec<u8> {
    if error_rate <= 0.0 {
        return perfect.to_vec();
    }
    let p_each = error_rate / 3.0;
    let mut out = Vec::with_capacity(perfect.len() + 8);
    for &base in perfect {
        let roll: f64 = rng.gen();
        if roll < p_each {
            // substitution: any of the three other bases
            let sub = (base + rng.gen_range(1..4u8)) % 4;
            out.push(sub);
        } else if roll < 2.0 * p_each {
            // insertion before the base
            out.push(rng.gen_range(0..4u8));
            out.push(base);
        } else if roll < 3.0 * p_each {
            // deletion: skip the base
        } else {
            out.push(base);
        }
    }
    out
}

/// Sample reads to the configured depth, uniformly over the genome, with
/// random strand and the error model applied.
pub fn simulate_reads(genome: &Seq, cfg: &ReadSimConfig) -> Vec<SimulatedRead> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let glen = genome.len();
    let mut reads = Vec::new();
    let mut bases_emitted = 0usize;
    let target = (glen as f64 * cfg.depth) as usize;
    while bases_emitted < target {
        let len = draw_length(&mut rng, cfg).min(glen);
        let start = rng.gen_range(0..=glen - len);
        let end = start + len;
        let rc = rng.gen_bool(0.5);
        let mut perfect = genome.codes()[start..end].to_vec();
        if rc {
            perfect.reverse();
            for b in &mut perfect {
                *b = crate::dna::complement(*b);
            }
        }
        let noisy = corrupt(&mut rng, &perfect, cfg.error_rate);
        bases_emitted += noisy.len();
        reads.push(SimulatedRead {
            seq: Seq::from_codes(noisy),
            truth: ReadTruth { start, end, rc },
        });
    }
    reads
}

/// A named dataset: scaled stand-in for one row of the paper's Table 2.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    pub name: &'static str,
    pub genome: GenomeConfig,
    pub reads: ReadSimConfig,
    /// k-mer length the paper uses for this dataset.
    pub k: usize,
    /// x-drop threshold the paper uses for this dataset.
    pub xdrop: i32,
}

impl DatasetSpec {
    /// *C. elegans*-like: depth 40, 0.5 % error (paper: 100 Mb genome,
    /// 14.5 kb reads). `scale = 1` gives a 100 kb genome; read lengths are
    /// scaled ~7× down so the genome:read ratio stays assembly-like
    /// (otherwise nearly every read is contained in a longer one).
    pub fn celegans_like(scale: f64, seed: u64) -> Self {
        DatasetSpec {
            name: "C.elegans-like",
            genome: GenomeConfig {
                length: (100_000.0 * scale) as usize,
                repeat_fraction: 0.04,
                repeat_unit_len: 800,
                repeat_divergence: 0.01,
                seed,
            },
            reads: ReadSimConfig {
                depth: 40.0,
                mean_len: 2_000,
                min_len: 800,
                error_rate: 0.005,
                seed: seed ^ 0x9E37,
            },
            k: 31,
            xdrop: 15,
        }
    }

    /// *O. sativa*-like: depth 30, 0.5 % error, longer reads, more repeats
    /// (paper: 500 Mb; `scale = 1` gives 150 kb).
    pub fn osativa_like(scale: f64, seed: u64) -> Self {
        DatasetSpec {
            name: "O.sativa-like",
            genome: GenomeConfig {
                length: (150_000.0 * scale) as usize,
                repeat_fraction: 0.08,
                repeat_unit_len: 1_000,
                repeat_divergence: 0.01,
                seed,
            },
            reads: ReadSimConfig {
                depth: 30.0,
                mean_len: 2_400,
                min_len: 1_000,
                error_rate: 0.005,
                seed: seed ^ 0x9E37,
            },
            k: 31,
            xdrop: 15,
        }
    }

    /// *H. sapiens*-like: depth 10, 15 % error (paper: 3.2 Gb;
    /// `scale = 1` gives 200 kb). Exercises the high-error path with the
    /// paper's `k = 17`, `x = 7`.
    pub fn hsapiens_like(scale: f64, seed: u64) -> Self {
        DatasetSpec {
            name: "H.sapiens-like",
            genome: GenomeConfig {
                length: (200_000.0 * scale) as usize,
                repeat_fraction: 0.10,
                repeat_unit_len: 1_000,
                repeat_divergence: 0.02,
                seed,
            },
            reads: ReadSimConfig {
                depth: 10.0,
                mean_len: 1_800,
                min_len: 800,
                error_rate: 0.15,
                seed: seed ^ 0x9E37,
            },
            k: 17,
            xdrop: 7,
        }
    }

    /// Longest genome [`by_name`](Self::by_name) will build: 2³⁰ bases.
    pub const MAX_GENOME_LEN: usize = 1 << 30;

    /// The dataset a CLI flag or a `serve` job line names
    /// (`celegans|osativa|hsapiens`), checked before anything is
    /// allocated for it: `scale` arrives from outside the program, and
    /// [`generate`](Self::generate) allocates in proportion to it.
    /// Rejects an unknown name, a `scale` that is not a positive finite
    /// number, and a scaled genome shorter than one mean read (no read
    /// can be drawn) or longer than [`MAX_GENOME_LEN`](Self::MAX_GENOME_LEN).
    pub fn by_name(name: &str, scale: f64, seed: u64) -> Result<Self, String> {
        // `!(scale > 0.0)` rather than `scale <= 0.0`: NaN fails too
        if !(scale > 0.0 && scale.is_finite()) {
            return Err(format!(
                "dataset scale must be a positive finite number, got {scale}"
            ));
        }
        let spec = match name {
            "celegans" => Self::celegans_like(scale, seed),
            "osativa" => Self::osativa_like(scale, seed),
            "hsapiens" => Self::hsapiens_like(scale, seed),
            other => {
                return Err(format!(
                    "unknown dataset '{other}' (celegans|osativa|hsapiens)"
                ))
            }
        };
        let (shortest, longest) = (spec.reads.mean_len, Self::MAX_GENOME_LEN);
        if !(shortest..=longest).contains(&spec.genome.length) {
            return Err(format!(
                "dataset scale {scale} gives a {}-base {} genome; \
                 supported: {shortest} (one mean read) to {longest} bases",
                spec.genome.length, spec.name
            ));
        }
        Ok(spec)
    }

    /// Materialize the dataset.
    pub fn generate(&self) -> (Seq, Vec<SimulatedRead>) {
        let genome = random_genome(&self.genome);
        let reads = simulate_reads(&genome, &self.reads);
        (genome, reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_rejects_what_generate_cannot_survive() {
        for name in ["celegans", "osativa", "hsapiens"] {
            let spec = DatasetSpec::by_name(name, 0.02, 7).expect("smallest supported scale");
            assert!(spec.genome.length >= spec.reads.mean_len);
            for scale in [
                f64::NAN,
                f64::INFINITY,
                -1.0,
                0.0,
                1e-9,
                0.005,
                1e5,
                1e12,
                1e300,
            ] {
                let err = DatasetSpec::by_name(name, scale, 7).unwrap_err();
                assert!(err.contains("scale"), "{name} {scale}: {err}");
            }
        }
        let paper_scale = DatasetSpec::by_name("celegans", 1000.0, 7).expect("100 Mb");
        assert_eq!(paper_scale.genome.length, 100_000_000);
        let err = DatasetSpec::by_name("ecoli", 0.2, 7).unwrap_err();
        assert!(err.contains("unknown dataset 'ecoli'"), "{err}");
    }

    #[test]
    fn genome_has_requested_length() {
        let g = random_genome(&GenomeConfig {
            length: 5_000,
            ..Default::default()
        });
        assert_eq!(g.len(), 5_000);
    }

    #[test]
    fn genome_is_reproducible() {
        let cfg = GenomeConfig {
            length: 2_000,
            ..Default::default()
        };
        assert_eq!(random_genome(&cfg), random_genome(&cfg));
        let other = GenomeConfig { seed: 99, ..cfg };
        assert_ne!(random_genome(&other), random_genome(&cfg));
    }

    #[test]
    fn reads_reach_depth() {
        let g = random_genome(&GenomeConfig {
            length: 20_000,
            ..Default::default()
        });
        let cfg = ReadSimConfig {
            depth: 15.0,
            mean_len: 2_000,
            min_len: 500,
            ..Default::default()
        };
        let reads = simulate_reads(&g, &cfg);
        let total: usize = reads.iter().map(|r| r.seq.len()).sum();
        assert!(total >= 15 * 20_000, "total={total}");
        assert!(total < 17 * 20_000, "overshoot bounded by one read");
    }

    #[test]
    fn error_free_reads_match_genome() {
        let g = random_genome(&GenomeConfig {
            length: 10_000,
            ..Default::default()
        });
        let cfg = ReadSimConfig {
            depth: 3.0,
            error_rate: 0.0,
            mean_len: 1_000,
            min_len: 300,
            seed: 7,
        };
        for read in simulate_reads(&g, &cfg) {
            let truth = read.truth;
            let mut want = g.substring(truth.start, truth.end);
            if truth.rc {
                want = want.reverse_complement();
            }
            assert_eq!(read.seq, want);
        }
    }

    #[test]
    fn error_rate_roughly_matches() {
        // With only substitutions/ins/del at 10%, edit distance per base
        // should land near 0.1; check emitted length deviation is small
        // (ins and del balance out) and content differs.
        let g = random_genome(&GenomeConfig {
            length: 50_000,
            ..Default::default()
        });
        let cfg = ReadSimConfig {
            depth: 2.0,
            error_rate: 0.10,
            mean_len: 5_000,
            min_len: 1_000,
            seed: 3,
        };
        let reads = simulate_reads(&g, &cfg);
        let (mut emitted, mut sampled) = (0usize, 0usize);
        for r in &reads {
            emitted += r.seq.len();
            sampled += r.truth.end - r.truth.start;
        }
        let ratio = emitted as f64 / sampled as f64;
        assert!((ratio - 1.0).abs() < 0.02, "ins/del balance, got {ratio}");
    }

    #[test]
    fn read_lengths_respect_min() {
        let g = random_genome(&GenomeConfig {
            length: 30_000,
            ..Default::default()
        });
        let cfg = ReadSimConfig {
            depth: 5.0,
            mean_len: 2_000,
            min_len: 800,
            ..Default::default()
        };
        assert!(simulate_reads(&g, &cfg)
            .iter()
            .all(|r| r.truth.end - r.truth.start >= 800));
    }

    #[test]
    fn presets_have_paper_parameters() {
        let ce = DatasetSpec::celegans_like(1.0, 0);
        assert_eq!((ce.k, ce.xdrop), (31, 15));
        assert!((ce.reads.depth - 40.0).abs() < f64::EPSILON);
        let hs = DatasetSpec::hsapiens_like(1.0, 0);
        assert_eq!((hs.k, hs.xdrop), (17, 7));
        assert!((hs.reads.error_rate - 0.15).abs() < f64::EPSILON);
        assert!(
            hs.genome.length / hs.reads.mean_len >= 50,
            "genome:read ratio"
        );
        let os = DatasetSpec::osativa_like(1.0, 0);
        assert!((os.reads.depth - 30.0).abs() < f64::EPSILON);
    }

    #[test]
    fn dataset_generates() {
        let (genome, reads) = DatasetSpec::celegans_like(0.1, 42).generate();
        assert_eq!(genome.len(), 10_000);
        assert!(!reads.is_empty());
    }
}
