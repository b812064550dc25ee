//! `elba` — command-line front end for ELBA-RS.
//!
//! ```text
//! elba simulate --dataset celegans --scale 0.3 --seed 7 \
//!               --reads reads.fasta --genome genome.fasta
//! elba assemble --reads reads.fasta --ranks 4 --out contigs.fasta \
//!               [--k 31 --xdrop 15] [--scaffold true] [--gfa graph.gfa]
//! elba launch -- assemble --reads reads.fasta --ranks 4 --out contigs.fasta
//! elba serve --jobs jobs.txt --groups 2 --group-ranks 4 --host-mem 1G
//!            (a job line: `j1: --reads reads.fasta --out j1.fasta --mem-budget 64M`)
//! elba evaluate --reference genome.fasta --contigs contigs.fasta
//! ```

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Child, ExitCode, ExitStatus};
use std::time::{Duration, Instant};

use elba::comm::WorkerError;
use elba::core::job::{
    get, num, parse_flags, read_seqs, require_square, write_seqs, AssembleJob, ReadsError,
    ASSEMBLE_FLAGS,
};
use elba::core::{JobOutcome, JobResult, ServeConfig, Server};
use elba::exit;
use elba::prelude::*;

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
    job: &AssembleJob,
    (contigs, result): (Vec<Contig>, PipelineResult),
    profile: &RunProfile,
) -> Result<(), CliError> {
    let cfg = &job.cfg;
    write!(out, "{}", profile.render_table())?;
    writeln!(out, "{}", wire_bytes_line(profile))?;
    if let Some(total) = cfg.mem_budget.total() {
        let peak = profile
            .merged_mem()
            .phases()
            .map(|(_, high_water)| high_water)
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
    // `skipped`: pairs never aligned, because both reads were already
    // contained or because pass 3's score bound ruled out containing the
    // one uncontained read.
    writeln!(
        out,
        "alignment: pairs {} | skipped {} | aligned {} | dovetails {} | contained {} | \
         internal {} | rejected {} | seeds extended {} | seeds skipped {}",
        aln.candidate_pairs,
        aln.skipped_pairs,
        aln.aligned_pairs,
        aln.dovetails,
        aln.contained,
        aln.internal,
        aln.rejected,
        aln.chains_extended,
        aln.seeds_skipped
    )?;

    if let Some(stats) = job.write_outputs(&contigs)? {
        writeln!(
            out,
            "scaffolding: {} contigs -> {} scaffolds ({} joins)",
            stats.input_contigs, stats.output_scaffolds, stats.joins
        )?;
    }
    if let Some(gfa_path) = &job.gfa {
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
    args: &[String],
    worker: Option<Worker>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let job = AssembleJob::parse(args, None).map_err(CliError::usage)?;
    if let Some(w) = worker.as_ref().filter(|w| w.rank >= job.ranks) {
        let message = format!("ELBA_RANK: rank {} outside --ranks {}", w.rank, job.ranks);
        return Err(CliError::usage(message));
    }
    let reads = job.read_reads().map_err(|e| match e {
        ReadsError::TooLong(message) => CliError {
            code: exit::READ_TOO_LONG,
            message,
        },
        ReadsError::TooMany(message) => CliError {
            code: exit::TOO_MANY_READS,
            message,
        },
        ReadsError::Unreadable(message) => CliError::failure(message),
    })?;
    let cfg = &job.cfg;
    if worker.as_ref().is_none_or(|w| w.rank == 0) {
        let transport = if worker.is_some() {
            "socket"
        } else {
            "in-process"
        };
        writeln!(
            out,
            "assembling {} reads on {} {transport} ranks × {} thread(s) (k={}{})",
            reads.len(),
            job.ranks,
            cfg.kmer.threads,
            cfg.kmer.k,
            match cfg.mem_budget.total() {
                Some(bytes) => format!(", mem-budget={bytes}B/rank"),
                None => String::new(),
            }
        )?;
    }
    let (output, profile) = match worker {
        None => job
            .run(Backend::InProcess, reads)
            .map_err(|failure| CliError {
                // Dead ranks are a typed outcome, not a panic: name every
                // casualty, root cause first, as `launch` does.
                code: exit::RANK_FAILED,
                message: format!("assemble: {failure}"),
            })?,
        Some(worker) => {
            let cfg = cfg.clone();
            let (gathered, _own_profile) = elba::comm::run_worker(
                &worker.socket_dir,
                worker.rank,
                job.ranks,
                worker.mesh_timeout,
                job.fault.as_ref(),
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
    assemble_finish(out, &job, output, &profile)
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
    let ranks = AssembleJob::parse(assemble_args, None)
        .map_err(CliError::usage)?
        .ranks;

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
/// the root cause of a cascade, a human-readable status, and the exit
/// code it refused the input with, if it did (the launch then exits
/// with that code).
struct ChildFailure {
    rank: usize,
    severity: u8,
    status: String,
    refused_input: Option<u8>,
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
        Some(c) if c == i32::from(exit::TOO_MANY_READS) => {
            (2, format!("exited with code {c} (too many reads)"))
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
        refused_input: [exit::READ_TOO_LONG, exit::TOO_MANY_READS]
            .into_iter()
            .find(|&refusal| code == Some(i32::from(refusal))),
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
                    refused_input: None,
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
            // Every worker reads the same input: a refused read set is
            // the input's failure, not a rank's.
            let code = primary.refused_input.unwrap_or(exit::RANK_FAILED);
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

/// One job-file line: a job name, then the `elba assemble` flags that
/// are the job.
struct JobLine {
    lineno: usize,
    name: String,
    args: Vec<String>,
}

/// Read a job file of `NAME: <assemble flags>` lines; blank lines and
/// `#` comments are skipped. A job's flags are the server's to check,
/// but the batch is refused here when two lines name one job, or when a
/// path one job writes (`--out`, `--gfa`) is named by another: the jobs
/// would race on the file.
fn read_job_file(path: &str) -> Result<Vec<JobLine>, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("open {path}: {e}"))?;
    let mut jobs: Vec<JobLine> = Vec::new();
    let mut names: HashMap<String, usize> = HashMap::new();
    // Every path named so far: the first line naming it, and whether a
    // job writes it.
    let mut paths: HashMap<String, (usize, bool)> = HashMap::new();
    for (i, line) in raw.lines().enumerate() {
        let (lineno, line) = (i + 1, line.trim());
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name, args)) = line
            .split_once(':')
            .map(|(name, args)| (name.trim(), args))
            .filter(|(name, _)| !name.is_empty() && !name.contains(char::is_whitespace))
        else {
            return Err(format!(
                "jobs line {lineno}: expected 'NAME: <assemble flags>', got '{line}'"
            ));
        };
        if let Some(first) = names.insert(name.to_owned(), lineno) {
            return Err(format!(
                "jobs lines {first} and {lineno} both name job '{name}'"
            ));
        }
        let args: Vec<String> = args.split_whitespace().map(str::to_owned).collect();
        // A line whose flags do not parse names no path: submit rejects it.
        if let Ok(flags) = parse_flags(&args, "assemble", ASSEMBLE_FLAGS) {
            for (key, writes) in [("reads", false), ("out", true), ("gfa", true)] {
                let Some(file) = flags.get(key) else { continue };
                match paths.entry(file.clone()) {
                    Entry::Vacant(slot) => {
                        slot.insert((lineno, writes));
                    }
                    Entry::Occupied(slot) => {
                        let (first, first_writes) = *slot.get();
                        if writes || first_writes {
                            return Err(format!(
                                "jobs lines {first} and {lineno} both name '{file}', \
                                 which a job writes"
                            ));
                        }
                    }
                }
            }
        }
        jobs.push(JobLine {
            lineno,
            name: name.to_owned(),
            args,
        });
    }
    if jobs.is_empty() {
        return Err(format!("{path}: no jobs"));
    }
    Ok(jobs)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

const SERVE_KNOWN: &[&str] = &["jobs", "groups", "group-ranks", "transport", "host-mem"];

/// `elba serve`: run a batch of assembly jobs over a fixed pool of
/// supervised rank groups with budget admission control. Exits 0 iff
/// every submission was accepted and every job without a fault plan
/// completed — an injected kill failing its own job is expected chaos.
fn cmd_serve(flags: HashMap<String, String>, out: &mut dyn Write) -> Result<(), CliError> {
    let groups: usize = num(&flags, "groups", 2).map_err(CliError::usage)?;
    let group_ranks: usize = num(&flags, "group-ranks", 4).map_err(CliError::usage)?;
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
    let jobs =
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
        jobs.len()
    )?;
    let server = Server::start(ServeConfig {
        groups,
        group_ranks,
        backend,
        host_cap,
    });
    let started = Instant::now();
    let mut rejected = 0usize;
    for job in &jobs {
        if let Err(e) = server.submit(&job.name, &job.args) {
            writeln!(out, "job {} (line {}): REJECTED: {e}", job.name, job.lineno)?;
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
            JobOutcome::Completed { contigs, .. } => {
                completed += 1;
                writeln!(
                    out,
                    "job {}: completed in {:.2}s (queued {:.2}s) contigs={}",
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
     \u{20}        (--mem-budget: per-rank byte cap; it sizes the k-mer windows\n\
     \u{20}        and the SUMMA's row batches, and decides whether SUMMA\n\
     \u{20}        stages are prefetched)\n\
     \u{20}        (--fault: e.g. kill:1@phase:Alignment — a killed rank fails\n\
     \u{20}        the run with exit 10)\n\
     serve    --jobs jobs.txt [--groups 2] [--group-ranks 4]\n\
     \u{20}        [--transport inprocess|socket] [--host-mem 512M]\n\
     \u{20}        (a job line is `NAME: <assemble flags>`, e.g. `j1: --reads\n\
     \u{20}        r.fasta --out j1.fasta --mem-budget 16M`; --ranks is the\n\
     \u{20}        group's; a job claims its --mem-budget × ranks of --host-mem)\n\
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
        "assemble" => cmd_assemble(rest, worker, out),
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
