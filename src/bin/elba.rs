//! `elba` — command-line front end for ELBA-RS.
//!
//! ```text
//! elba simulate --dataset celegans --scale 0.3 --seed 7 \
//!               --reads reads.fasta --genome genome.fasta
//! elba assemble --reads reads.fasta --ranks 4 --out contigs.fasta \
//!               [--k 31 --xdrop 15] [--scaffold true] [--gfa graph.gfa]
//! elba launch -- assemble --reads reads.fasta --ranks 4 --out contigs.fasta
//! elba evaluate --reference genome.fasta --contigs contigs.fasta
//! ```

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::process::{Child, ExitCode, ExitStatus};
use std::time::{Duration, Instant};

use elba::comm::WorkerError;
use elba::core::{JobInput, JobOutcome, JobResult, JobSpec, ServeConfig, Server};
use elba::exit;
use elba::prelude::*;
use elba::seq::fasta::{read_fasta, write_fasta, FastaRecord};
use elba::seq::gfa::GfaGraph;
use elba::seq::kmer::MAX_K;
use elba::seq::ReadTooLong;

/// A CLI failure plus the process exit code it maps to (see
/// [`elba::exit`] for the taxonomy). Plain `String` errors convert to
/// the generic [`exit::FAILURE`].
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    fn usage(message: impl Into<String>) -> CliError {
        CliError {
            code: exit::USAGE,
            message: message.into(),
        }
    }

    fn failure(message: impl Into<String>) -> CliError {
        CliError {
            code: exit::FAILURE,
            message: message.into(),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::failure(message)
    }
}

/// All output goes through one locked stdout writer, and the only
/// `io::Error` a command passes to `?` unmapped is a failed write to it
/// (a closed pipe): a typed failure, not a panic. File errors are
/// mapped with their path where they happen.
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError::failure(format!("write to stdout: {e}"))
    }
}

/// Parse `--key value` pairs for `command`, rejecting any key not in
/// `known` and any key given twice — a typo or a flag from an older
/// release must fail loudly instead of silently running the defaults.
fn parse_flags(
    args: &[String],
    command: &str,
    known: &[&str],
) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
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
        if flags.insert(key.to_owned(), value.clone()).is_some() {
            return Err(format!("flag --{key} given twice"));
        }
    }
    Ok(flags)
}

fn get<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{key}"))
}

fn num<T: std::str::FromStr>(
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

/// `--threads` (default 1) as `assemble` and `serve` read it: zero
/// workers is a usage error, not a synonym for one.
fn threads_flag(flags: &HashMap<String, String>) -> Result<usize, String> {
    match num(flags, "threads", 1usize)? {
        0 => Err("--threads must be at least 1".to_owned()),
        threads => Ok(threads),
    }
}

/// Reject a rank count that cannot form a √p × √p grid, naming the
/// flag it came from.
fn require_square(flag: &str, ranks: usize) -> Result<(), String> {
    let q = (ranks as f64).sqrt().round() as usize;
    if ranks == 0 || q * q != ranks {
        return Err(format!(
            "{flag} must be a positive perfect square, got {ranks}"
        ));
    }
    Ok(())
}

fn write_seqs(path: &str, prefix: &str, seqs: &[Seq]) -> Result<(), String> {
    let records: Vec<FastaRecord> = seqs
        .iter()
        .enumerate()
        .map(|(i, seq)| FastaRecord {
            id: format!("{prefix}{i}"),
            seq: seq.clone(),
        })
        .collect();
    let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    write_fasta(BufWriter::new(file), &records).map_err(|e| format!("write {path}: {e}"))
}

fn read_seqs(path: &str) -> Result<Vec<Seq>, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    Ok(read_fasta(BufReader::new(file))
        .map_err(|e| format!("parse {path}: {e}"))?
        .into_iter()
        .map(|r| r.seq)
        .collect())
}

/// `assemble`'s read set: [`read_seqs`], refusing a read the pipeline
/// cannot index with [`exit::READ_TOO_LONG`].
fn read_reads(path: &str) -> Result<Vec<Seq>, CliError> {
    let reads = read_seqs(path)?;
    ReadTooLong::check_all(&reads).map_err(|too_long| CliError {
        code: exit::READ_TOO_LONG,
        message: format!("{path}: {too_long}"),
    })?;
    Ok(reads)
}

const SIMULATE_KNOWN: &[&str] = &["dataset", "scale", "seed", "reads", "genome"];

fn cmd_simulate(flags: HashMap<String, String>, out: &mut dyn Write) -> Result<(), CliError> {
    let dataset = get(&flags, "dataset").map_err(CliError::usage)?;
    let scale: f64 = num(&flags, "scale", 0.2).map_err(CliError::usage)?;
    let seed: u64 = num(&flags, "seed", 2022).map_err(CliError::usage)?;
    let reads_path = get(&flags, "reads").map_err(CliError::usage)?;
    // Checked before anything is generated or created: `--scale` sizes
    // every allocation below.
    let spec = DatasetSpec::by_name(dataset, scale, seed).map_err(CliError::usage)?;
    let (genome, sim_reads) = spec.generate();
    let reads: Vec<Seq> = sim_reads.into_iter().map(|r| r.seq).collect();
    writeln!(
        out,
        "{}: genome {} bp, {} reads, depth {:.0}x, error {:.1}%",
        spec.name,
        genome.len(),
        reads.len(),
        spec.reads.depth,
        spec.reads.error_rate * 100.0
    )?;
    write_seqs(reads_path, "read_", &reads)?;
    if let Some(genome_path) = flags.get("genome") {
        write_seqs(genome_path, "genome_", std::slice::from_ref(&genome))?;
    }
    Ok(())
}

/// The job an `assemble` command line describes, checked before any
/// rank starts. The in-process path, the `elba launch` supervisor and
/// every launch worker build it from the same flags: all run the same
/// job, and a bad flag is one usage error, not N workers dying of it.
struct AssembleSetup {
    reads: String,
    out: String,
    gfa: Option<String>,
    ranks: usize,
    cfg: PipelineConfig,
    scaffold: bool,
    fault: Option<FaultPlan>,
}

const ASSEMBLE_KNOWN: &[&str] = &[
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

/// Every error is a missing or malformed flag: callers map it to
/// [`exit::USAGE`].
fn assemble_setup(flags: &HashMap<String, String>) -> Result<AssembleSetup, String> {
    let reads = get(flags, "reads")?.to_owned();
    let out = get(flags, "out")?.to_owned();
    let ranks: usize = num(flags, "ranks", 4)?;
    require_square("--ranks", ranks)?;
    let mut cfg = PipelineConfig::default().with_threads(threads_flag(flags)?);
    cfg.kmer.k = num(flags, "k", 31usize)?;
    if !(1..=MAX_K).contains(&cfg.kmer.k) {
        return Err(format!("--k must be in 1..={MAX_K}; got {}", cfg.kmer.k));
    }
    cfg.overlap.k = cfg.kmer.k;
    cfg.overlap.xdrop = num(flags, "xdrop", 15i32)?;
    cfg.overlap.min_overlap = num(flags, "min-overlap", 100usize)?;
    cfg.overlap.min_score_ratio = num(flags, "min-score-ratio", 0.55f64)?;
    cfg.overlap.fuzz = num(flags, "fuzz", 100usize)?;
    cfg.tr_fuzz = num(flags, "tr-fuzz", 250u32)?;
    match flags.get("seed-chaining").map(String::as_str) {
        None | Some("chain") => {}
        Some("best") => {
            cfg = cfg.seed_chaining(ChainingConfig {
                chaining: SeedChaining::BestOnly,
            })
        }
        Some(other) => return Err(format!("--seed-chaining must be chain|best; got '{other}'")),
    }
    // --mem-budget is the one batching lever: it derives batch_kmers and
    // the SpGEMM cap the SUMMA sizes its column windows under.
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

    Ok(AssembleSetup {
        reads,
        out,
        gfa: flags.get("gfa").cloned(),
        ranks,
        cfg,
        scaffold,
        fault,
    })
}

/// Per-rank profiled traffic over the *named* phases, one deterministic
/// line. Both transports book bytes from `CommMsg::nbytes` above the
/// transport, so this line must be identical between an in-process run
/// and an `elba launch` run of the same job — the CI smoke leg diffs
/// it. UNPHASED is excluded because the socket path books
/// auxiliary-communicator setup there that the in-process harness has
/// no analogue for.
fn wire_bytes_line(profile: &RunProfile) -> String {
    let names = profile.phase_names();
    let per_rank: Vec<String> = profile
        .rank_profiles()
        .iter()
        .map(|p| {
            let bytes: u64 = names
                .iter()
                .filter_map(|name| p.phase(name))
                .map(|phase| phase.bytes_sent())
                .sum();
            format!("rank{}={bytes}", p.rank())
        })
        .collect();
    format!("wire-bytes[named-phases]: {}", per_rank.join(" "))
}

fn assemble_finish(
    out: &mut dyn Write,
    setup: &AssembleSetup,
    (contigs, result): (Vec<Contig>, PipelineResult),
    profile: &RunProfile,
) -> Result<(), CliError> {
    let cfg = &setup.cfg;
    write!(out, "{}", profile.render_table())?;
    writeln!(out, "{}", wire_bytes_line(profile))?;
    if let Some(total) = cfg.mem_budget.total() {
        let peak = profile
            .phase_names()
            .iter()
            .map(|name| profile.max_mem_hw(name))
            .max()
            .unwrap_or(0);
        writeln!(
            out,
            "mem budget: {total} B/rank | peak tracked high-water: {peak} B ({})",
            if peak <= total {
                "within budget"
            } else {
                "EXCEEDED"
            }
        )?;
    }
    writeln!(
        out,
        "contigs: {} | reliable k-mers: {} | candidate pairs: {} | string-graph nnz: {} | \
         branch vertices: {} | cc rounds: {} | imbalance: {:.2}",
        contigs.len(),
        result.n_reliable_kmers,
        result.candidate_nnz,
        result.string_graph_nnz,
        result.contig_stats.branch_vertices,
        result.contig_stats.cc_rounds,
        result.contig_stats.imbalance
    )?;
    let aln = &result.align_stats;
    writeln!(
        out,
        "alignment: pairs {} | aligned {} | dovetails {} | contained {} | internal {} | \
         rejected {} | chains extended {} | seeds skipped {}",
        aln.candidate_pairs,
        aln.aligned_pairs,
        aln.dovetails,
        aln.contained,
        aln.internal,
        aln.rejected,
        aln.chains_extended,
        aln.seeds_skipped
    )?;

    let mut seqs: Vec<Seq> = contigs.iter().map(|c| c.seq.clone()).collect();
    if setup.scaffold {
        let scfg = elba::core::scaffold::ScaffoldConfig {
            k: cfg.kmer.k.min(21),
            min_overlap: cfg.overlap.min_overlap,
            ..Default::default()
        };
        let (scaffolds, stats) = elba::core::scaffold::scaffold_contigs(&seqs, &scfg);
        writeln!(
            out,
            "scaffolding: {} contigs -> {} scaffolds ({} joins)",
            stats.input_contigs, stats.output_scaffolds, stats.joins
        )?;
        seqs = scaffolds;
    }
    write_seqs(&setup.out, "contig_", &seqs)?;

    // The graph is the assembly's, not the scaffolder's: segment i is
    // the contig that path i walks, whatever `--scaffold` wrote to --out.
    if let Some(gfa_path) = &setup.gfa {
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
        let file = File::create(gfa_path).map_err(|e| format!("create {gfa_path}: {e}"))?;
        graph
            .write(BufWriter::new(file))
            .map_err(|e| format!("write {gfa_path}: {e}"))?;
        writeln!(out, "assembly graph written to {gfa_path}")?;
    }
    Ok(())
}

/// `elba assemble`: the flags are the whole job. Run directly, the
/// ranks are threads of this process and `--fault` kills are
/// thread-mode; started by `elba launch`, this process is `worker`'s
/// rank of a socket mesh and kills are process-mode. Either way the
/// reads are read once, and only rank 0 prints and writes the outputs.
fn cmd_assemble(
    flags: HashMap<String, String>,
    worker: Option<Worker>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let setup = assemble_setup(&flags).map_err(CliError::usage)?;
    if let Some(w) = worker.as_ref().filter(|w| w.rank >= setup.ranks) {
        let message = format!("ELBA_RANK: rank {} outside --ranks {}", w.rank, setup.ranks);
        return Err(CliError::usage(message));
    }
    let reads = read_reads(&setup.reads)?;
    let cfg = setup.cfg.clone();
    if worker.as_ref().is_none_or(|w| w.rank == 0) {
        let transport = if worker.is_some() {
            "socket"
        } else {
            "in-process"
        };
        writeln!(
            out,
            "assembling {} reads on {} {transport} ranks × {} thread(s) (k={}, spgemm={}{})",
            reads.len(),
            setup.ranks,
            cfg.kmer.threads,
            cfg.kmer.k,
            elba::sparse::algorithm_label(cfg.overlap.spgemm.algorithm),
            match cfg.mem_budget.total() {
                Some(bytes) => format!(", mem-budget={bytes}B/rank"),
                None => String::new(),
            }
        )?;
    }
    let (output, profile) = match worker {
        None => {
            let mut runner = Runner::new(Backend::InProcess).ranks(setup.ranks);
            if let Some(plan) = &setup.fault {
                runner = runner.faults(plan);
            }
            let (mut outputs, profile) = runner
                .try_run_profiled(move |comm| {
                    let grid = ProcGrid::new(comm);
                    assemble_gathered(&grid, &reads, &cfg)
                })
                .map_err(|failure| CliError {
                    // Dead ranks are a typed outcome, not a panic: name
                    // every casualty, root cause first, as `launch` does.
                    code: exit::RANK_FAILED,
                    message: format!("assemble: {failure}"),
                })?;
            (outputs.remove(0), profile)
        }
        Some(worker) => {
            let (gathered, _own_profile) = elba::comm::run_worker(
                &worker.socket_dir,
                worker.rank,
                setup.ranks,
                worker.mesh_timeout,
                setup.fault.as_ref(),
                move |comm| {
                    // The profile gather must not disturb the named-phase
                    // wire-byte accounting: the auxiliary communicator is
                    // split off before the grid exists (its setup books
                    // as UNPHASED), and each rank snapshots and encodes
                    // its profile before any gather traffic.
                    let aux = comm.dup();
                    let grid = ProcGrid::new(comm);
                    let output = assemble_gathered(&grid, &reads, &cfg);
                    let snapshot = aux.profile_handle().lock().expect("profile lock").clone();
                    let mut encoded = Vec::new();
                    snapshot.wire_encode(&mut encoded);
                    aux.gather(0, encoded).map(|frames| (output, frames))
                },
            )
            .map_err(|e| CliError {
                // The worker's exit code is the launcher's only signal, so
                // the failure class has to survive the process boundary.
                code: match &e {
                    WorkerError::Comm(_) => exit::PEER_GONE,
                    WorkerError::Killed(_) => exit::FAULT_KILLED,
                    WorkerError::Io(_) | WorkerError::Panic(_) => exit::FAILURE,
                },
                message: format!("socket worker rank {}: {e}", worker.rank),
            })?;
            // Non-root workers are done once the gather lands.
            let Some((output, frames)) = gathered else {
                return Ok(());
            };
            let mut profiles = Vec::with_capacity(frames.len());
            for frame in &frames {
                let mut reader = elba::comm::transport::wire::WireReader::new(frame);
                let decoded = elba::comm::Profile::wire_decode(&mut reader)
                    .and_then(|p| reader.finish().map(|()| p))
                    .map_err(|e| format!("decode gathered profile: {e:?}"))?;
                profiles.push(decoded);
            }
            (output, RunProfile::new(profiles))
        }
    };
    assemble_finish(out, &setup, output, &profile)
}

const LAUNCH_KNOWN: &[&str] = &["socket-dir", "launch-timeout"];

/// `elba launch [--socket-dir DIR] [--launch-timeout S] -- assemble ...`
///
/// Runs the job the `assemble` flags describe with every rank a
/// supervised worker *process* of this same binary, wired into a
/// Unix-socket mesh under a temp directory. `launch`'s own flags only
/// supervise; rank 0 prints what an in-process run prints.
fn cmd_launch(rest: &[String]) -> Result<(), CliError> {
    let Some(split) = rest.iter().position(|a| a == "--") else {
        return Err(CliError::usage(
            "launch needs '-- assemble ...' after its own flags",
        ));
    };
    let (head, tail) = (&rest[..split], &rest[split + 1..]);
    let flags = parse_flags(head, "launch", LAUNCH_KNOWN).map_err(CliError::usage)?;
    let timeout_secs: u64 = num(&flags, "launch-timeout", 600).map_err(CliError::usage)?;
    if timeout_secs == 0 {
        return Err(CliError::usage(
            "--launch-timeout must be at least 1 second",
        ));
    }
    let timeout = Duration::from_secs(timeout_secs);
    let Some(("assemble", assemble_args)) = tail.split_first().map(|(s, a)| (s.as_str(), a)) else {
        return Err(CliError::usage(format!(
            "launch runs only 'assemble' after '--', got '{}'",
            tail.join(" ")
        )));
    };
    // The supervisor checks the job with the code every worker runs, so
    // a bad flag or value is one usage error and nothing is spawned.
    let job = parse_flags(assemble_args, "assemble", ASSEMBLE_KNOWN).map_err(CliError::usage)?;
    let ranks = assemble_setup(&job).map_err(CliError::usage)?.ranks;

    let exe =
        std::env::current_exe().map_err(|e| CliError::failure(format!("current_exe: {e}")))?;
    let dir = flags.get("socket-dir").map_or_else(
        || std::env::temp_dir().join(format!("elba-launch-{}", std::process::id())),
        PathBuf::from,
    );
    let _ = std::fs::remove_dir_all(&dir); // stale sockets from a recycled pid
    std::fs::create_dir_all(&dir)
        .map_err(|e| CliError::failure(format!("create {}: {e}", dir.display())))?;
    let _cleanup = SocketDirGuard(dir.clone());
    let deadline = Instant::now() + timeout;
    let mut children: Vec<Option<(usize, Child)>> = Vec::with_capacity(ranks);
    for rank in 0..ranks {
        // The worker protocol (see `Worker`); `timeout` also bounds every
        // worker's mesh bring-up.
        let spawned = std::process::Command::new(&exe)
            .arg("assemble")
            .args(assemble_args)
            .env("ELBA_RANK", rank.to_string())
            .env("ELBA_SOCKET_DIR", &dir)
            .env("ELBA_MESH_TIMEOUT_MS", timeout.as_millis().to_string())
            .spawn();
        match spawned {
            Ok(child) => children.push(Some((rank, child))),
            Err(e) => {
                kill_and_reap(&mut children);
                return Err(CliError::failure(format!("spawn worker rank {rank}: {e}")));
            }
        }
    }
    supervise(&mut children, deadline, timeout)
}

/// Removes the socket rendezvous directory on every exit path — clean
/// completion, spawn failure, rank crash, timeout, or a panic in the
/// supervisor itself — so aborted launches never leak socket files.
struct SocketDirGuard(PathBuf);

impl Drop for SocketDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One abnormally-exited child: its rank, a severity class used to pick
/// the root cause of a cascade, a human-readable status, and whether it
/// refused the input (which the launch then exits with).
struct ChildFailure {
    rank: usize,
    severity: u8,
    status: String,
    read_too_long: bool,
}

fn classify_exit(rank: usize, status: ExitStatus) -> ChildFailure {
    use std::os::unix::process::ExitStatusExt;
    // Severity orders candidate root causes: a signal-killed or
    // fault-killed rank originated the failure; survivors that exited
    // because a peer vanished are cascade victims and sort last.
    let code = status.code();
    let (severity, status) = match code {
        Some(c) if c == i32::from(exit::FAULT_KILLED) => {
            (1, format!("exited with code {c} (killed by fault plan)"))
        }
        Some(c) if c == i32::from(exit::PEER_GONE) => {
            (3, format!("exited with code {c} (a peer rank died)"))
        }
        Some(c) if c == i32::from(exit::USAGE) => {
            (2, format!("exited with code {c} (bad arguments)"))
        }
        Some(c) if c == i32::from(exit::READ_TOO_LONG) => {
            (2, format!("exited with code {c} (a read is too long)"))
        }
        Some(c) => (2, format!("exited with code {c}")),
        None => match status.signal() {
            Some(s) => (0, format!("killed by signal {s}")),
            None => (2, format!("{status}")),
        },
    };
    ChildFailure {
        rank,
        severity,
        status,
        read_too_long: code == Some(i32::from(exit::READ_TOO_LONG)),
    }
}

/// Non-blocking pass over all children: reap exits, record abnormal
/// ones, return how many are still running.
fn sweep_children(
    children: &mut [Option<(usize, Child)>],
    failures: &mut Vec<ChildFailure>,
) -> usize {
    let mut running = 0;
    for slot in children.iter_mut() {
        let Some((rank, child)) = slot else { continue };
        match child.try_wait() {
            Ok(Some(status)) => {
                if !status.success() {
                    failures.push(classify_exit(*rank, status));
                }
                *slot = None;
            }
            Ok(None) => running += 1,
            Err(e) => {
                failures.push(ChildFailure {
                    rank: *rank,
                    severity: 2,
                    status: format!("wait failed: {e}"),
                    read_too_long: false,
                });
                *slot = None;
            }
        }
    }
    running
}

fn kill_and_reap(children: &mut [Option<(usize, Child)>]) {
    for slot in children.iter_mut() {
        if let Some((_, child)) = slot {
            let _ = child.kill();
            let _ = child.wait();
        }
        *slot = None;
    }
}

/// Poll all children until they finish, one dies, or the deadline
/// passes. Never blocks on any single child, so a hung rank 0 cannot
/// delay noticing that rank 3 died.
fn supervise(
    children: &mut [Option<(usize, Child)>],
    deadline: Instant,
    timeout: Duration,
) -> Result<(), CliError> {
    let mut failures: Vec<ChildFailure> = Vec::new();
    loop {
        let running = sweep_children(children, &mut failures);
        if !failures.is_empty() {
            // Give the cascade a moment to surface naturally (survivors
            // of a killed rank exit within milliseconds), then put the
            // rest down — a status collected after our own kill() would
            // be indistinguishable from the root cause.
            let grace = Instant::now() + Duration::from_millis(100);
            while sweep_children(children, &mut failures) > 0 && Instant::now() < grace {
                std::thread::sleep(Duration::from_millis(5));
            }
            kill_and_reap(children);
            failures.sort_by_key(|f| (f.severity, f.rank));
            let primary = &failures[0];
            let mut message = format!("launch failed: rank {} {}", primary.rank, primary.status);
            if failures.len() > 1 {
                let rest: Vec<String> = failures[1..]
                    .iter()
                    .map(|f| format!("rank {} {}", f.rank, f.status))
                    .collect();
                message.push_str(&format!("; then {}", rest.join("; ")));
            }
            // Every worker reads the same input: a refused read is the
            // input's failure, not a rank's.
            let code = if primary.read_too_long {
                exit::READ_TOO_LONG
            } else {
                exit::RANK_FAILED
            };
            return Err(CliError { code, message });
        }
        if running == 0 {
            return Ok(());
        }
        if Instant::now() >= deadline {
            let alive: Vec<String> = children
                .iter()
                .flatten()
                .map(|(rank, _)| rank.to_string())
                .collect();
            kill_and_reap(children);
            return Err(CliError {
                code: exit::LAUNCH_TIMEOUT,
                message: format!(
                    "launch timed out after {}s; killed still-running rank(s) {}",
                    timeout.as_secs(),
                    alive.join(", ")
                ),
            });
        }
        std::thread::sleep(Duration::from_millis(15));
    }
}

const EVALUATE_KNOWN: &[&str] = &["reference", "contigs"];

fn cmd_evaluate(flags: HashMap<String, String>, out: &mut dyn Write) -> Result<(), CliError> {
    let reference = read_seqs(get(&flags, "reference")?)?;
    let contigs = read_seqs(get(&flags, "contigs")?)?;
    // Scoring against the first of several records would measure the
    // contigs against part of the genome and still exit 0.
    let [reference] = <[Seq; 1]>::try_from(reference).map_err(|records| match records.len() {
        0 => "reference FASTA is empty".to_owned(),
        n => format!("reference FASTA holds {n} records; evaluate scores one genome"),
    })?;
    let report = evaluate(&reference, &contigs, &QualityConfig::default());
    writeln!(out, "completeness        : {:.2}%", report.completeness)?;
    writeln!(out, "longest contig      : {} bp", report.longest_contig)?;
    writeln!(out, "contigs             : {}", report.n_contigs)?;
    writeln!(out, "misassembled contigs: {}", report.misassembled_contigs)?;
    writeln!(out, "NG50                : {} bp", report.ng50)?;
    writeln!(out, "total length        : {} bp", report.total_len)?;
    writeln!(out, "unaligned contigs   : {}", report.unaligned_contigs)?;
    Ok(())
}

// ---------------------------------------------------------------------
// elba serve
// ---------------------------------------------------------------------

/// Parse one job-file line of whitespace-separated `key=value` tokens:
/// `name=j1 sim=celegans scale=0.05 seed=3 mem=32M fault=kill:1@phase:X`
/// or `name=j2 fasta=/path/reads.fasta mem=16M`. Blank lines and `#`
/// comments are skipped by the caller.
fn parse_job_line(line: &str, lineno: usize) -> Result<JobSpec, String> {
    let mut kv: HashMap<&str, &str> = HashMap::new();
    for token in line.split_whitespace() {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| format!("jobs line {lineno}: token '{token}' is not key=value"))?;
        if kv.insert(key, value).is_some() {
            return Err(format!("jobs line {lineno}: duplicate key '{key}'"));
        }
    }
    let name = kv
        .get("name")
        .ok_or_else(|| format!("jobs line {lineno}: missing name="))?
        .to_string();
    let input = match (kv.get("sim"), kv.get("fasta")) {
        (Some(dataset), None) => {
            let scale: f64 = kv.get("scale").map_or(Ok(0.1), |raw| {
                raw.parse()
                    .map_err(|_| format!("jobs line {lineno}: scale '{raw}'"))
            })?;
            let seed: u64 = kv.get("seed").map_or(Ok(1), |raw| {
                raw.parse()
                    .map_err(|_| format!("jobs line {lineno}: seed '{raw}'"))
            })?;
            JobInput::Sim {
                dataset: dataset.to_string(),
                scale,
                seed,
            }
        }
        (None, Some(path)) => JobInput::FastaPath(path.to_string()),
        _ => {
            return Err(format!(
                "jobs line {lineno}: need exactly one of sim=DATASET or fasta=PATH"
            ))
        }
    };
    let budget_bytes = match kv.get("mem") {
        None => 0,
        Some(raw) => MemBudget::parse(raw)
            .map_err(|e| format!("jobs line {lineno}: mem: {e}"))?
            .total()
            .unwrap_or(0),
    };
    Ok(JobSpec {
        name,
        input,
        budget_bytes,
        fault: kv.get("fault").map(|f| f.to_string()),
    })
}

fn read_job_file(path: &str) -> Result<Vec<JobSpec>, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("open {path}: {e}"))?;
    let mut specs = Vec::new();
    for (i, line) in raw.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        specs.push(parse_job_line(line, i + 1)?);
    }
    if specs.is_empty() {
        return Err(format!("{path}: no jobs"));
    }
    Ok(specs)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

const SERVE_KNOWN: &[&str] = &[
    "jobs",
    "groups",
    "group-ranks",
    "threads",
    "transport",
    "host-mem",
];

/// `elba serve`: run a batch of assembly jobs over a fixed pool of
/// supervised rank groups with budget admission control. Exits 0 iff
/// every submission was accepted and every job without a fault plan
/// completed — an injected kill failing its own job is expected chaos.
fn cmd_serve(flags: HashMap<String, String>, out: &mut dyn Write) -> Result<(), CliError> {
    let groups: usize = num(&flags, "groups", 2).map_err(CliError::usage)?;
    let group_ranks: usize = num(&flags, "group-ranks", 4).map_err(CliError::usage)?;
    let threads = threads_flag(&flags).map_err(CliError::usage)?;
    if groups == 0 {
        return Err(CliError::usage("--groups must be at least 1"));
    }
    require_square("--group-ranks", group_ranks).map_err(CliError::usage)?;
    let backend = match flags
        .get("transport")
        .map(String::as_str)
        .unwrap_or("inprocess")
    {
        "inprocess" => Backend::InProcess,
        "socket" => Backend::Socket,
        other => {
            return Err(CliError::usage(format!(
                "--transport must be inprocess or socket; got '{other}'"
            )))
        }
    };
    let host_cap = match flags.get("host-mem") {
        None => MemBudget::unlimited(),
        Some(raw) => {
            MemBudget::parse(raw).map_err(|e| CliError::usage(format!("--host-mem: {e}")))?
        }
    };
    let specs =
        read_job_file(get(&flags, "jobs").map_err(CliError::usage)?).map_err(CliError::usage)?;

    writeln!(
        out,
        "[serve] groups={groups} group-ranks={group_ranks} transport={} host-mem={} jobs={}",
        match backend {
            Backend::InProcess => "inprocess",
            Backend::Socket => "socket",
        },
        host_cap
            .total()
            .map_or("unlimited".to_string(), |b| b.to_string()),
        specs.len()
    )?;
    let server = Server::start(ServeConfig {
        groups,
        group_ranks,
        backend,
        host_cap,
        threads,
    });
    let started = Instant::now();
    let mut rejected = 0usize;
    for spec in specs {
        if let Err(e) = server.submit(spec.clone()) {
            writeln!(out, "job {}: REJECTED: {e}", spec.name)?;
            rejected += 1;
        }
    }
    let results = server.drain();
    let wall = started.elapsed().as_secs_f64();

    let mut unexpected_failures = 0usize;
    let mut completed = 0usize;
    let mut fault_killed = 0usize;
    for r in &results {
        match &r.outcome {
            JobOutcome::Completed {
                contigs, report, ..
            } => {
                completed += 1;
                let quality = report.as_ref().map_or(String::new(), |q| {
                    format!(" completeness={:.1}% ng50={}", q.completeness, q.ng50)
                });
                writeln!(
                    out,
                    "job {}: completed in {:.2}s (queued {:.2}s) contigs={}{quality}",
                    r.name,
                    r.run_secs,
                    r.queued_secs,
                    contigs.len()
                )?;
            }
            JobOutcome::Failed {
                error,
                killed_by_fault,
            } => {
                if *killed_by_fault {
                    fault_killed += 1;
                } else {
                    unexpected_failures += 1;
                }
                writeln!(
                    out,
                    "job {}: FAILED{}: {error}",
                    r.name,
                    if *killed_by_fault {
                        " (killed by fault plan)"
                    } else {
                        ""
                    }
                )?;
            }
        }
    }
    let mut latencies: Vec<f64> = results.iter().map(JobResult::latency_secs).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let failed = results.len() - completed;
    writeln!(
        out,
        "[serve] jobs={} completed={completed} failed={failed} fault-killed={fault_killed} rejected={rejected}",
        results.len()
    )?;
    writeln!(
        out,
        "[serve] throughput: {:.1} jobs/min | latency p50={:.2}s p99={:.2}s",
        results.len() as f64 / (wall / 60.0),
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
    )?;
    writeln!(
        out,
        "[serve] wall={wall:.2}s peak-latency={:.2}s",
        percentile(&latencies, 1.0)
    )?;
    if unexpected_failures > 0 || rejected > 0 {
        return Err(CliError::failure(format!(
            "{unexpected_failures} job(s) failed without a fault plan, {rejected} rejected"
        )));
    }
    Ok(())
}

fn usage() -> String {
    "usage: elba <simulate|assemble|serve|launch|evaluate> [--flag value]...\n\
     \n\
     simulate --dataset celegans|osativa|hsapiens --reads OUT.fasta\n\
     \u{20}        [--genome OUT.fasta] [--scale 0.2] [--seed 2022]\n\
     assemble --reads IN.fasta --out contigs.fasta [--ranks 4] [--k 31]\n\
     \u{20}        [--threads 1] [--xdrop 15] [--min-overlap 100] [--scaffold true]\n\
     \u{20}        [--min-score-ratio 0.55] [--fuzz 100] [--tr-fuzz 250]\n\
     \u{20}        [--seed-chaining chain|best]\n\
     \u{20}        (chain: exact x-drop DP per seed chain; best: one greedy\n\
     \u{20}        extension per strand — faster, may assemble differently)\n\
     \u{20}        [--mem-budget 64M] [--gfa graph.gfa] [--fault PLAN]\n\
     \u{20}        (--mem-budget: per-rank byte cap; the distributed SpGEMM runs\n\
     \u{20}        column-batched under it, pipelined without it)\n\
     \u{20}        (--fault: e.g. kill:1@phase:Alignment — a killed rank fails\n\
     \u{20}        the run with exit 10)\n\
     serve    --jobs jobs.txt [--groups 2] [--group-ranks 4] [--threads 1]\n\
     \u{20}        [--transport inprocess|socket] [--host-mem 512M]\n\
     \u{20}        (job lines: name=j1 sim=celegans scale=0.05 seed=3 mem=32M\n\
     \u{20}        [fault=kill:1@phase:Alignment] — or fasta=reads.fasta)\n\
     launch   [--launch-timeout 600] [--socket-dir DIR] -- assemble <flags>...\n\
     \u{20}        (the assemble job with every rank a supervised process on a\n\
     \u{20}        Unix-socket mesh; first abnormal exit kills the survivors)\n\
     evaluate --reference genome.fasta --contigs contigs.fasta"
        .to_owned()
}

/// This process's place in an `elba launch` run. The supervisor starts
/// every worker as `elba assemble <the job's flags>` with exactly three
/// variables set — `ELBA_SOCKET_DIR`, `ELBA_RANK` and
/// `ELBA_MESH_TIMEOUT_MS` — and a directly invoked `elba` has none.
struct Worker {
    rank: usize,
    socket_dir: PathBuf,
    mesh_timeout: Duration,
}

/// The one reader of the worker protocol: `Ok(None)` outside a launch;
/// a missing or malformed variable is an error naming it.
fn worker_env() -> Result<Option<Worker>, String> {
    let Some(socket_dir) = std::env::var_os("ELBA_SOCKET_DIR") else {
        return Ok(None);
    };
    fn var<T: std::str::FromStr>(name: &str) -> Result<T, String> {
        let raw = std::env::var(name).map_err(|_| format!("{name} is not set"))?;
        raw.parse()
            .map_err(|_| format!("{name}: cannot parse '{raw}'"))
    }
    Ok(Some(Worker {
        rank: var("ELBA_RANK")?,
        socket_dir: PathBuf::from(socket_dir),
        mesh_timeout: Duration::from_millis(var("ELBA_MESH_TIMEOUT_MS")?),
    }))
}

fn run(command: &str, rest: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let worker = worker_env().map_err(CliError::usage)?;
    if worker.is_some() && command != "assemble" {
        return Err(CliError::usage(
            "launch workers only run the assemble subcommand",
        ));
    }
    let flags = |known: &[&str]| parse_flags(rest, command, known).map_err(CliError::usage);
    match command {
        "simulate" => cmd_simulate(flags(SIMULATE_KNOWN)?, out),
        "assemble" => cmd_assemble(flags(ASSEMBLE_KNOWN)?, worker, out),
        "serve" => cmd_serve(flags(SERVE_KNOWN)?, out),
        "evaluate" => cmd_evaluate(flags(EVALUATE_KNOWN)?, out),
        "launch" => cmd_launch(rest),
        other => Err(CliError::usage(format!(
            "unknown command '{other}' (expected simulate|assemble|serve|launch|evaluate)\n{}",
            usage()
        ))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(exit::USAGE);
    };
    match run(command, rest, &mut std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {}", err.message);
            ExitCode::from(err.code)
        }
    }
}
