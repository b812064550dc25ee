//! One assembly job, described by an `elba assemble` command line.
//!
//! [`AssembleJob::parse`] is the one place a job's flags are checked:
//! `elba assemble`, the `elba launch` supervisor, every launch worker
//! and every `elba serve` job go through it. The job then owns the three
//! steps around the pipeline, so every runner of a job reads, runs and
//! writes it with the same code:
//!
//! 1. [`AssembleJob::read_reads`] loads `--reads` and refuses a read or
//!    a read set the pipeline cannot index;
//! 2. [`AssembleJob::run`] runs the pipeline on a fresh [`Runner`] mesh
//!    under the job's fault plan;
//! 3. [`AssembleJob::write_outputs`] writes `--out`, scaffolded when
//!    `--scaffold true`, and the `--gfa` graph when one is named.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};

use elba_comm::{Backend, FaultPlan, ProcGrid, RunProfile, Runner, SpmdFailure};
use elba_graph::SeedChaining;
use elba_mem::MemBudget;
use elba_seq::fasta::{read_fasta, write_fasta, FastaRecord};
use elba_seq::gfa::GfaGraph;
use elba_seq::kmer::MAX_K;
use elba_seq::{ReadTooLong, Seq, TooManyReads};

use crate::assembly::Contig;
use crate::pipeline::{assemble_gathered, ChainingConfig, PipelineConfig, PipelineResult};
use crate::scaffold::{scaffold_contigs, ScaffoldConfig, ScaffoldStats};

/// Parse `--key value` pairs for `command`, rejecting any key not in
/// `known` and any key given twice — a typo or a flag from an older
/// release must fail loudly instead of silently running the defaults.
pub fn parse_flags<S: AsRef<str>>(
    args: &[S],
    command: &str,
    known: &[&str],
) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter().map(AsRef::as_ref);
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("unexpected positional argument '{arg}'"));
        };
        if !known.contains(&key) {
            return Err(format!(
                "unknown flag --{key} for '{command}' (known: --{})",
                known.join(" --")
            ));
        }
        let Some(value) = it.next() else {
            return Err(format!("flag --{key} needs a value"));
        };
        if flags.insert(key.to_owned(), value.to_owned()).is_some() {
            return Err(format!("flag --{key} given twice"));
        }
    }
    Ok(flags)
}

/// A required flag's value.
pub fn get<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{key}"))
}

/// An optional flag's parsed value, `default` when it is absent.
pub fn num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--{key}: cannot parse '{raw}'")),
    }
}

/// `--threads` (default 1): zero workers is an error, not a synonym for
/// one.
fn threads_flag(flags: &HashMap<String, String>) -> Result<usize, String> {
    match num(flags, "threads", 1usize)? {
        0 => Err("--threads must be at least 1".to_owned()),
        threads => Ok(threads),
    }
}

/// Reject a rank count that cannot form a √p × √p grid, naming the
/// flag it came from.
pub fn require_square(flag: &str, ranks: usize) -> Result<(), String> {
    let q = (ranks as f64).sqrt().round() as usize;
    if ranks == 0 || q * q != ranks {
        return Err(format!(
            "{flag} must be a positive perfect square, got {ranks}"
        ));
    }
    Ok(())
}

/// Write `seqs` as FASTA records named `{prefix}{index}`.
pub fn write_seqs(path: &str, prefix: &str, seqs: &[Seq]) -> Result<(), String> {
    let records: Vec<FastaRecord> = seqs
        .iter()
        .enumerate()
        .map(|(i, seq)| FastaRecord {
            id: format!("{prefix}{i}"),
            seq: seq.clone(),
        })
        .collect();
    let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let mut writer = BufWriter::new(file);
    write_fasta(&mut writer, &records)
        .and_then(|()| writer.flush())
        .map_err(|e| format!("write {path}: {e}"))
}

/// Every record of a FASTA file, in file order.
pub fn read_seqs(path: &str) -> Result<Vec<Seq>, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    Ok(read_fasta(BufReader::new(file))
        .map_err(|e| format!("parse {path}: {e}"))?
        .into_iter()
        .map(|r| r.seq)
        .collect())
}

/// The `elba assemble` flags: a job is exactly these.
pub const ASSEMBLE_FLAGS: &[&str] = &[
    "reads",
    "out",
    "ranks",
    "threads",
    "k",
    "xdrop",
    "min-overlap",
    "min-score-ratio",
    "fuzz",
    "tr-fuzz",
    "seed-chaining",
    "mem-budget",
    "scaffold",
    "gfa",
    "fault",
];

/// Why a job's read set cannot be assembled.
#[derive(Debug)]
pub enum ReadsError {
    /// `--reads` cannot be opened or parsed.
    Unreadable(String),
    /// A read of 2³¹ bases or more ([`ReadTooLong`]).
    TooLong(String),
    /// A read set of 2³² reads or more ([`TooManyReads`]).
    TooMany(String),
}

impl std::fmt::Display for ReadsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadsError::Unreadable(e) | ReadsError::TooLong(e) | ReadsError::TooMany(e) => {
                f.write_str(e)
            }
        }
    }
}

/// The job an `assemble` command line describes, checked before any
/// rank starts: a bad flag is one error, not N ranks dying of it.
#[derive(Debug, Clone)]
pub struct AssembleJob {
    /// `--reads`: the FASTA file to assemble.
    pub reads: String,
    /// `--out`: where the contigs (or scaffolds) go.
    pub out: String,
    /// `--gfa`: where the assembly graph goes, if anywhere.
    pub gfa: Option<String>,
    /// `--ranks`: the world size, a perfect square.
    pub ranks: usize,
    /// Every pipeline parameter the flags set.
    pub cfg: PipelineConfig,
    /// `--scaffold true`: scaffold the contigs before writing `--out`.
    pub scaffold: bool,
    /// `--fault`: a plan naming only ranks below `ranks`.
    pub fault: Option<FaultPlan>,
}

impl AssembleJob {
    /// Check an `assemble` argument list. `world` is the rank count the
    /// caller will run the job on: `None` for a command line, which
    /// picks it with `--ranks` (default 4), and `Some(n)` for a rank
    /// group of `n`, which an absent `--ranks` means and a present one
    /// must repeat.
    pub fn parse<S: AsRef<str>>(args: &[S], world: Option<usize>) -> Result<AssembleJob, String> {
        let flags = parse_flags(args, "assemble", ASSEMBLE_FLAGS)?;
        let reads = get(&flags, "reads")?.to_owned();
        let out = get(&flags, "out")?.to_owned();
        let ranks: usize = num(&flags, "ranks", world.unwrap_or(4))?;
        require_square("--ranks", ranks)?;
        if let Some(group) = world.filter(|&group| group != ranks) {
            return Err(format!("--ranks {ranks} but the group has {group} ranks"));
        }
        let mut cfg = PipelineConfig::default().with_threads(threads_flag(&flags)?);
        cfg.kmer.k = num(&flags, "k", 31usize)?;
        if !(1..=MAX_K).contains(&cfg.kmer.k) {
            return Err(format!("--k must be in 1..={MAX_K}; got {}", cfg.kmer.k));
        }
        cfg.overlap.k = cfg.kmer.k;
        cfg.overlap.xdrop = num(&flags, "xdrop", 15i32)?;
        cfg.overlap.min_overlap = num(&flags, "min-overlap", 100usize)?;
        cfg.overlap.min_score_ratio = num(&flags, "min-score-ratio", 0.55f64)?;
        cfg.overlap.fuzz = num(&flags, "fuzz", 100usize)?;
        cfg.tr_fuzz = num(&flags, "tr-fuzz", 250u32)?;
        match flags.get("seed-chaining").map(String::as_str) {
            None | Some("chain") => {}
            Some("best") => {
                cfg = cfg.seed_chaining(ChainingConfig {
                    chaining: SeedChaining::BestOnly,
                })
            }
            Some(other) => {
                return Err(format!("--seed-chaining must be chain|best; got '{other}'"))
            }
        }
        // --mem-budget is the one batching lever: it derives batch_kmers
        // and the SpGEMM cap that picks the SUMMA's prefetch and row batch.
        if let Some(raw) = flags.get("mem-budget") {
            let budget = MemBudget::parse(raw).map_err(|e| format!("--mem-budget: {e}"))?;
            cfg = cfg.with_mem_budget(budget);
        }
        let scaffold = match flags.get("scaffold").map(String::as_str) {
            None | Some("false") => false,
            Some("true") => true,
            Some(other) => return Err(format!("--scaffold must be true|false; got '{other}'")),
        };
        // A fault aimed outside the world never fires: the run would pass
        // silently, so it is refused with the rest of the flags.
        let fault = flags
            .get("fault")
            .map(|raw| {
                FaultPlan::parse(raw)
                    .and_then(|plan| plan.check_ranks(ranks).map(|()| plan))
                    .map_err(|e| format!("--fault: {e}"))
            })
            .transpose()?;

        Ok(AssembleJob {
            reads,
            out,
            gfa: flags.get("gfa").cloned(),
            ranks,
            cfg,
            scaffold,
            fault,
        })
    }

    /// Load `--reads`, refusing a read or a read set the pipeline
    /// cannot index.
    pub fn read_reads(&self) -> Result<Vec<Seq>, ReadsError> {
        let reads = read_seqs(&self.reads).map_err(ReadsError::Unreadable)?;
        TooManyReads::check(reads.len())
            .map_err(|too_many| ReadsError::TooMany(format!("{}: {too_many}", self.reads)))?;
        ReadTooLong::check_all(&reads)
            .map_err(|too_long| ReadsError::TooLong(format!("{}: {too_long}", self.reads)))?;
        Ok(reads)
    }

    /// Assemble `reads` on `ranks` ranks of `backend` under the job's
    /// fault plan. Returns rank 0's gathered contigs and result, and
    /// every rank's profile; a dead rank is a typed [`SpmdFailure`].
    pub fn run(
        &self,
        backend: Backend,
        reads: Vec<Seq>,
    ) -> Result<((Vec<Contig>, PipelineResult), RunProfile), SpmdFailure> {
        let mut runner = Runner::new(backend).ranks(self.ranks);
        if let Some(plan) = &self.fault {
            runner = runner.faults(plan);
        }
        let cfg = self.cfg.clone();
        let (mut outputs, profile) = runner.try_run_profiled(move |comm| {
            let grid = ProcGrid::new(comm);
            assemble_gathered(&grid, &reads, &cfg)
        })?;
        Ok((outputs.remove(0), profile))
    }

    /// Write `--out` and, when named, `--gfa`. Returns the scaffolder's
    /// statistics when `--scaffold true` replaced the contigs in `--out`.
    pub fn write_outputs(&self, contigs: &[Contig]) -> Result<Option<ScaffoldStats>, String> {
        let mut seqs: Vec<Seq> = contigs.iter().map(|c| c.seq.clone()).collect();
        let mut stats = None;
        if self.scaffold {
            let scfg = ScaffoldConfig {
                k: self.cfg.kmer.k.min(21),
                min_overlap: self.cfg.overlap.min_overlap,
                ..Default::default()
            };
            let (scaffolds, scaffold_stats) = scaffold_contigs(&seqs, &scfg);
            seqs = scaffolds;
            stats = Some(scaffold_stats);
        }
        write_seqs(&self.out, "contig_", &seqs)?;

        // The graph is the assembly's, not the scaffolder's: segment i is
        // the contig that path i walks, whatever `--scaffold` wrote.
        if let Some(path) = &self.gfa {
            let mut graph = GfaGraph::new();
            for (i, contig) in contigs.iter().enumerate() {
                graph.add_segment(format!("contig_{i}"), contig.seq.clone());
                graph.add_path(
                    format!("walk_{i}"),
                    contig
                        .read_ids
                        .iter()
                        .map(|id| (format!("read_{id}"), false))
                        .collect(),
                );
            }
            let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            let mut writer = BufWriter::new(file);
            graph
                .write(&mut writer)
                .and_then(|()| writer.flush())
                .map_err(|e| format!("write {path}: {e}"))?;
        }
        Ok(stats)
    }
}
