//! Chaos matrix for the fault-injection harness (invariant: a dead rank
//! is a *typed, named* failure, never a hang and never a survivor
//! panic).
//!
//! Library level — for every rank r of a 4-rank run, on both the
//! in-process and the socket transport, killing r mid-pipeline turns the
//! run into an `Err(SpmdFailure)` whose entry for r is `Killed` and
//! whose every other entry is a clean `PeerGone` cascade. A survivor
//! raises `PeerGone` where it detects the death, naming the peer it lost
//! and, inside a collective, the collective (`… during alltoallv`).
//!
//! Process level — `elba launch` supervises worker processes: a
//! SIGKILLed rank is named in the supervisor's error, survivors are
//! reaped (exit 13, not a hang), the socket rendezvous directory is
//! removed on every abort path, and a stalled launch dies at
//! `--launch-timeout` with its own exit code. The job, fault plan
//! included, is the `assemble` flags; `launch` only supervises.

use std::path::{Path, PathBuf};
use std::process::Command;

use elba::comm::{CommError, FailureCause, FaultPlan, SpmdFailure};
use elba::exit;
use elba::prelude::*;

// ---- library-level chaos: thread-mode kills on both transports ----

type Run<T> = Result<(Vec<T>, RunProfile), SpmdFailure>;

/// Run `body` on `nranks` ranks of the socket or the in-process backend
/// under `plan`.
fn run_with_plan<T, F>(socket: bool, nranks: usize, plan: &FaultPlan, body: F) -> Run<T>
where
    T: Send + 'static,
    F: Fn(Comm) -> T + Send + Sync + 'static,
{
    let backend = if socket {
        Backend::Socket
    } else {
        Backend::InProcess
    };
    Runner::new(backend)
        .ranks(nranks)
        .faults(plan)
        .try_run_profiled(body)
}

fn run_pipeline_with_plan(
    socket: bool,
    nranks: usize,
    plan: &FaultPlan,
    reads: Vec<Seq>,
    cfg: PipelineConfig,
) -> Run<(Vec<Contig>, PipelineResult)> {
    run_with_plan(socket, nranks, plan, move |comm| {
        let grid = ProcGrid::new(comm);
        assemble_gathered(&grid, &reads, &cfg)
    })
}

/// The peer a `PeerGone` failure names and what the rank was doing.
fn peer_gone(cause: &FailureCause) -> Option<(usize, &str)> {
    match cause {
        FailureCause::PeerGone(CommError::PeerGone { rank, ctx }) => Some((*rank, ctx)),
        _ => None,
    }
}

/// One simulated read set and `for_dataset`'s parameters for it.
fn dataset(spec: DatasetSpec) -> (Vec<Seq>, PipelineConfig) {
    let (_genome, sim_reads) = spec.generate();
    let reads: Vec<Seq> = sim_reads.into_iter().map(|r| r.seq).collect();
    let cfg = PipelineConfig::for_dataset(&spec);
    (reads, cfg)
}

/// The kill tests' input. It assembles no contig (its string graph is
/// empty), which is enough for a test of how failures are classified.
fn small_dataset() -> (Vec<Seq>, PipelineConfig) {
    dataset(DatasetSpec::celegans_like(0.05, 33))
}

/// The acceptance pin: kill every rank in turn, mid-CountKmer (inside
/// its windowed rounds: an `allreduce` and an `alltoallv` per window)
/// and mid-Alignment, on both backends. The run must end (no hang), the
/// killed rank must be classified `Killed`, and every other failed rank
/// must be a `PeerGone` cascade — an organic `Panic` anywhere means a
/// survivor crashed instead of unwinding cleanly.
#[test]
fn killing_each_rank_mid_alignment_is_typed_on_both_backends() {
    let (reads, cfg) = small_dataset();
    for phase in ["CountKmer", "Alignment"] {
        for socket in [false, true] {
            for victim in 0..4usize {
                kill_mid_phase_is_typed(phase, socket, victim, &reads, &cfg);
            }
        }
    }
}

fn kill_mid_phase_is_typed(
    phase: &str,
    socket: bool,
    victim: usize,
    reads: &[Seq],
    cfg: &PipelineConfig,
) {
    let plan = FaultPlan::parse(&format!("kill:{victim}@phase:{phase}")).expect("valid plan");
    let failure = run_pipeline_with_plan(socket, 4, &plan, reads.to_vec(), cfg.clone())
        .expect_err("a killed rank must fail the run");
    let label = format!("phase={phase} socket={socket} victim={victim}");
    let kill = failure
        .failures
        .iter()
        .find(|f| f.rank == victim)
        .unwrap_or_else(|| panic!("{label}: killed rank missing from failure"));
    match &kill.cause {
        FailureCause::Killed(desc) => {
            assert!(
                desc.contains(&format!("kill:{victim}")),
                "{label}: kill cause names the fault, got '{desc}'"
            );
        }
        other => panic!("{label}: expected Killed, got {other:?}"),
    }
    assert_eq!(
        failure.primary().rank,
        victim,
        "{label}: root cause must sort first"
    );
    for f in failure.failures.iter().filter(|f| f.rank != victim) {
        let Some((_, ctx)) = peer_gone(&f.cause) else {
            panic!(
                "{label}: survivor rank {} must unwind with PeerGone, got {:?}",
                f.rank, f.cause
            );
        };
        // CountKmer's only traffic is its rounds, so every survivor
        // stalls inside one of a round's collectives and says so.
        assert!(
            phase != "CountKmer" || names_a_round_collective(ctx),
            "{label}: rank {} names the stalled collective, got '{ctx}'",
            f.rank
        );
    }
    // The message a caller would print names the victim first.
    assert!(
        failure
            .to_string()
            .starts_with(&format!("rank {victim} killed")),
        "{label}: display starts with the root cause"
    );
}

/// TrReduction on both backends, every victim. In the pipeline the
/// victim dies at the phase's first transport call; inside the masked
/// product alone it dies at its first request, so every survivor is
/// left in the fetch's own receives and sends.
#[test]
fn killing_each_rank_mid_tr_reduction_is_typed_on_both_backends() {
    let (reads, cfg) = small_dataset();
    for socket in [false, true] {
        for victim in 0..4usize {
            kill_mid_phase_is_typed("TrReduction", socket, victim, &reads, &cfg);
            kill_mid_masked_fetch_is_typed(socket, victim);
        }
    }
}

/// The masked product's stage fetch with `victim` killed at its first
/// post: the run ends, the victim is `Killed`, and every survivor
/// unwinds with `PeerGone` on a request or a reply of the fetch.
fn kill_mid_masked_fetch_is_typed(socket: bool, victim: usize) {
    use elba::sparse::semiring::{PlusTimes, SemiringSlot};
    use elba::sparse::SpGemmOptions;

    let plan = FaultPlan::parse(&format!("kill:{victim}@phase:MaskedFetch")).expect("valid plan");
    let failure = run_with_plan(socket, 4, &plan, |comm| {
        let grid = ProcGrid::new(comm);
        let n = 40u64;
        let ring: Vec<(u64, u64, f64)> = if grid.world().rank() == 0 {
            (0..n)
                .flat_map(|r| [(r, (r + 1) % n, 1.0), (r, (r + 2) % n, 2.0)])
                .collect()
        } else {
            Vec::new()
        };
        let m = DistMat::from_triples(&grid, n as usize, n as usize, ring, |_, _| unreachable!());
        let _g = grid.world().phase("MaskedFetch");
        let fold = SemiringSlot(PlusTimes);
        let opts = SpGemmOptions::default();
        let kept = m.prune_by_product(&grid, &m, &m, &fold, &opts, |_, _, _, _| true);
        kept.local().nnz()
    })
    .expect_err("a killed rank must fail the run");
    let label = format!("masked fetch socket={socket} victim={victim}");
    let kill = failure
        .failures
        .iter()
        .find(|f| f.rank == victim)
        .unwrap_or_else(|| panic!("{label}: killed rank missing from failure"));
    assert!(
        matches!(kill.cause, FailureCause::Killed(_)),
        "{label}: expected Killed, got {:?}",
        kill.cause
    );
    for f in failure.failures.iter().filter(|f| f.rank != victim) {
        let Some((_, ctx)) = peer_gone(&f.cause) else {
            panic!(
                "{label}: survivor rank {} must unwind with PeerGone, got {:?}",
                f.rank, f.cause
            );
        };
        // The fetch's request and reply tags.
        assert!(
            ctx.ends_with("tag 0xf17a7c") || ctx.ends_with("tag 0xf17a7d"),
            "{label}: rank {} stalls in the fetch, got '{ctx}'",
            f.rank
        );
    }
}

/// Whether a `PeerGone` context names one of the collectives a k-mer
/// round runs: its `alltoallv`, or the `reduce` / `bcast` halves of its
/// `allreduce`.
fn names_a_round_collective(ctx: &str) -> bool {
    [" during alltoallv", " during reduce", " during bcast"]
        .iter()
        .any(|name| ctx.ends_with(name))
}

// ---- the k-mer stage's rounds: survivors raise where they detect ----

const CHUNK: usize = 32;
const ROUNDS: usize = 4;

/// The k-mer stage's exchange shape: a one-byte `allreduce` decides
/// whether another round runs, and each of `ROUNDS` rounds is an
/// `alltoallv` of one `CHUNK` to every other rank. Returns the number of
/// items received.
fn stream_exchange(comm: &Comm) -> usize {
    let me = comm.rank();
    let mut items = 0;
    let mut round = 0;
    while comm.allreduce(round < ROUNDS, |a, b| a || b) {
        let payload: Vec<u64> = (0..CHUNK as u64)
            .map(|i| ((round as u64) << 32) | ((me as u64) << 16) | i)
            .collect();
        let bufs: Vec<Vec<u64>> = (0..comm.size())
            .map(|dst| {
                if dst == me {
                    Vec::new()
                } else {
                    payload.clone()
                }
            })
            .collect();
        items += comm.alltoallv(bufs).iter().map(Vec::len).sum::<usize>();
        round += 1;
    }
    items
}

/// Kill one rank at assorted points (post-count and recv-count triggers)
/// on both backends. No survivor can finish a round without the victim,
/// so every one of them unwinds with `PeerGone`: each names a peer other
/// than itself (the victim, or a survivor that unwound before it), the
/// first observers name the victim, and every message names the round
/// collective it stalled in.
#[test]
fn checked_stream_survivors_observe_typed_peer_gone() {
    let cases: &[(&str, usize)] = &[
        ("kill:2@posts:5", 2),
        ("kill:1@recvs:3", 1),
        ("kill:3@posts:9", 3),
    ];
    for socket in [false, true] {
        for &(plan_text, victim) in cases {
            let plan = FaultPlan::parse(plan_text).expect("valid plan");
            let label = format!("socket={socket} plan={plan_text}");
            let failure = run_with_plan(socket, 4, &plan, |comm| stream_exchange(&comm))
                .expect_err("killed rank must fail the run");

            assert!(
                matches!(failure.primary().cause, FailureCause::Killed(_)),
                "{label}: victim cause"
            );
            assert_eq!(failure.primary().rank, victim, "{label}: victim rank");
            assert_eq!(
                failure.failures.len(),
                4,
                "{label}: every survivor unwound: {failure}"
            );
            let mut peers = Vec::new();
            for f in &failure.failures[1..] {
                let Some((peer, ctx)) = peer_gone(&f.cause) else {
                    panic!(
                        "{label}: rank {} must be PeerGone, got {:?}",
                        f.rank, f.cause
                    );
                };
                assert_ne!(peer, f.rank, "{label}: no rank blames itself");
                assert!(
                    names_a_round_collective(ctx),
                    "{label}: rank {} names the stalled collective, got '{ctx}'",
                    f.rank
                );
                peers.push(peer);
            }
            assert!(
                peers.contains(&victim),
                "{label}: at least the first observer names the victim: {failure}"
            );
        }
    }
}

/// A severed link is sender-visible: once the trigger fires, posting
/// across the cut raises `PeerGone` naming the unreachable peer (the
/// wire itself is cut, so both endpoints see the other as gone).
#[test]
fn severed_link_fails_the_sender_with_typed_error() {
    let plan = FaultPlan::parse("sever:0-1@posts:2").expect("valid plan");
    let failure = run_with_plan(false, 2, &plan, |comm| stream_exchange(&comm))
        .expect_err("a severed link must fail the run");
    assert!(
        !failure.failures.is_empty(),
        "at least one endpoint hit the cut"
    );
    for f in &failure.failures {
        let Some((peer, _)) = peer_gone(&f.cause) else {
            panic!("sever is a connectivity failure, not a kill: {:?}", f.cause);
        };
        assert_eq!(peer, 1 - f.rank, "each endpoint names the other");
    }
}

/// Seeded jitter is a pure scheduling perturbation: contigs and the
/// per-rank per-phase wire bytes are identical to a fault-free run, on
/// an input that assembles contigs.
#[test]
fn seeded_jitter_preserves_contigs_and_wire_bytes() {
    let (reads, cfg) = dataset(DatasetSpec::celegans_like(0.1, 7));
    let (reads_a, cfg_a) = (reads.clone(), cfg.clone());
    let (mut clean, clean_prof) =
        Runner::new(Backend::InProcess)
            .ranks(4)
            .run_profiled(move |comm| {
                let grid = ProcGrid::new(comm);
                assemble_gathered(&grid, &reads_a.clone(), &cfg_a.clone())
            });
    let plan = FaultPlan::parse("seed:9;delay:25").expect("valid plan");
    let (mut jittered, jitter_prof) =
        run_pipeline_with_plan(false, 4, &plan, reads, cfg).expect("jitter alone kills nobody");

    let (clean_contigs, _) = clean.remove(0);
    let (jitter_contigs, _) = jittered.remove(0);
    assert!(!clean_contigs.is_empty(), "the input assembles contigs");
    assert_eq!(clean_contigs.len(), jitter_contigs.len(), "contig count");
    for (a, b) in clean_contigs.iter().zip(&jitter_contigs) {
        assert!(a.seq == b.seq, "contig bases diverge under jitter");
    }
    assert_eq!(
        wire_shape(&clean_prof),
        wire_shape(&jitter_prof),
        "jitter must be invisible to the wire-byte model"
    );
}

/// Per-rank `(phase, bytes_sent, p2p_msgs)` over named phases.
fn wire_shape(profile: &RunProfile) -> Vec<Vec<(String, u64, u64)>> {
    let names = profile.phase_names();
    profile
        .rank_profiles()
        .iter()
        .map(|rank| {
            names
                .iter()
                .filter_map(|name| {
                    rank.phase(name)
                        .map(|p| (name.clone(), p.bytes_sent(), p.p2p_msgs))
                })
                .collect()
        })
        .collect()
}

// ---- process-level chaos: `elba launch` supervision ----

fn elba_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_elba"))
}

/// Fresh scratch directory under the system temp dir; removed and
/// recreated so reruns start clean.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("elba-fault-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Simulate a small read set into `dir` and return the reads path.
fn simulate_reads(dir: &Path) -> PathBuf {
    simulate_reads_at(dir, "0.05")
}

/// [`simulate_reads`] at a chosen `--scale` (0.05 assembles no contig).
fn simulate_reads_at(dir: &Path, scale: &str) -> PathBuf {
    let reads = dir.join("reads.fa");
    let status = elba_bin()
        .args([
            "simulate",
            "--dataset",
            "celegans",
            "--scale",
            scale,
            "--seed",
            "33",
        ])
        .arg("--reads")
        .arg(&reads)
        .arg("--genome")
        .arg(dir.join("genome.fa"))
        .status()
        .expect("run elba simulate");
    assert!(status.success(), "simulate failed");
    reads
}

struct LaunchOutcome {
    code: i32,
    stderr: String,
}

/// `elba launch --socket-dir D <supervision> -- assemble --ranks 4 <job>`:
/// `supervision` holds `launch`'s own flags, `job` extra `assemble` flags
/// (the fault plan is part of the job).
fn launch(
    dir: &Path,
    reads: &Path,
    socket_dir: &Path,
    supervision: &[&str],
    job: &[&str],
) -> LaunchOutcome {
    let mut cmd = elba_bin();
    cmd.args(["launch", "--socket-dir"])
        .arg(socket_dir)
        .args(supervision)
        .args(["--", "assemble", "--ranks", "4", "--k", "17"])
        .args(job)
        .arg("--reads")
        .arg(reads)
        .arg("--out")
        .arg(dir.join("contigs.fa"));
    let out = cmd.output().expect("run elba launch");
    LaunchOutcome {
        code: out.status.code().expect("launch not signal-killed"),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// SIGKILL each rank of a real socket launch in turn. The supervisor
/// must exit `RANK_FAILED`, name the signaled rank as the root cause,
/// reap the survivors (no hang, no stray panic output), and remove the
/// rendezvous directory even though the launch aborted.
#[test]
fn sigkilled_worker_is_named_and_rendezvous_dir_removed() {
    let dir = scratch("sigkill");
    let reads = simulate_reads(&dir);
    for victim in 0..4usize {
        let sock = dir.join(format!("sock-{victim}"));
        let fault = format!("sigkill:{victim}@phase:Alignment");
        let out = launch(&dir, &reads, &sock, &[], &["--fault", &fault]);
        assert_eq!(
            out.code,
            i32::from(exit::RANK_FAILED),
            "victim={victim}: stderr:\n{}",
            out.stderr
        );
        assert!(
            out.stderr.contains(&format!("rank {victim}")) && out.stderr.contains("signal 9"),
            "victim={victim}: supervisor names the signaled rank:\n{}",
            out.stderr
        );
        assert!(
            !out.stderr.contains("panicked at"),
            "victim={victim}: survivors exit cleanly, no panic spew:\n{}",
            out.stderr
        );
        assert!(
            !sock.exists(),
            "victim={victim}: rendezvous dir must be removed on abort"
        );
    }
}

/// A soft (`kill:`) fault in a worker process exits with the dedicated
/// `FAULT_KILLED` code, and the supervisor's taxonomy distinguishes it
/// from the `PEER_GONE` cascade exits of the survivors.
#[test]
fn soft_killed_worker_maps_to_fault_killed_exit() {
    let dir = scratch("softkill");
    let reads = simulate_reads(&dir);
    let sock = dir.join("sock");
    let out = launch(
        &dir,
        &reads,
        &sock,
        &[],
        &["--fault", "kill:1@phase:Alignment"],
    );
    assert_eq!(
        out.code,
        i32::from(exit::RANK_FAILED),
        "stderr:\n{}",
        out.stderr
    );
    assert!(
        out.stderr.contains("rank 1") && out.stderr.contains("killed by fault plan"),
        "root cause is the fault-killed rank:\n{}",
        out.stderr
    );
    assert!(!sock.exists(), "rendezvous dir removed");
}

/// A fault plan enters from the command line only, as `assemble
/// --fault`: nothing reads an `ELBA_FAULT_PLAN` left in the environment
/// (not even to parse it), while `--fault` delivers the same plan to the
/// thread ranks and reports like the launch supervisor. Child
/// processes, so no test in this binary races on the variable.
#[test]
fn ambient_fault_plan_is_ignored_but_assemble_fault_delivers_it() {
    let dir = scratch("ambient");
    let reads = simulate_reads_at(&dir, "0.15");
    let plan = "kill:1@phase:Alignment";
    let assemble = |out_name: &str, ambient: Option<&str>| {
        let mut cmd = elba_bin();
        cmd.args(["assemble", "--ranks", "4", "--k", "17", "--reads"])
            .arg(&reads)
            .arg("--out")
            .arg(dir.join(out_name))
            .env_remove("ELBA_FAULT_PLAN");
        if let Some(value) = ambient {
            cmd.env("ELBA_FAULT_PLAN", value);
        }
        let out = cmd.output().expect("run elba assemble");
        assert!(
            out.status.success(),
            "ELBA_FAULT_PLAN={ambient:?}: stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read(dir.join(out_name)).expect("contigs written")
    };
    let clean = assemble("clean.fa", None);
    assert!(!clean.is_empty(), "the plan must have something to kill");
    assert_eq!(assemble("ambient.fa", Some(plan)), clean);
    // not even parsed: a malformed value is nobody's input
    assert_eq!(assemble("garbage.fa", Some("kill:banana")), clean);

    let killed = dir.join("killed.fa");
    let out = elba_bin()
        .args(["assemble", "--ranks", "4", "--fault", plan, "--k", "17"])
        .arg("--reads")
        .arg(&reads)
        .arg("--out")
        .arg(&killed)
        .output()
        .expect("run elba assemble");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(i32::from(exit::RANK_FAILED)),
        "stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("rank 1 killed by fault plan"),
        "root cause is the fault-killed rank:\n{stderr}"
    );
    assert!(!killed.exists(), "a killed run writes no contigs");
}

/// Rank 2 sits below the diagonal at p = 4, so in the symmetric product
/// it multiplies nothing and only sends its block. Killed during
/// DetectOverlap — a thread rank by `kill:`, a worker process by
/// `sigkill:` — it is still a typed failure naming rank 2: exit
/// `RANK_FAILED`, no hang, no survivor panic, no socket dir left.
#[test]
fn kill_during_detect_overlap_is_a_typed_failure_on_both_backends() {
    let dir = scratch("detect-overlap");
    let reads = simulate_reads(&dir);
    let out = elba_bin()
        .args(["assemble", "--ranks", "4", "--k", "17"])
        .args(["--fault", "kill:2@phase:DetectOverlap", "--reads"])
        .arg(&reads)
        .arg("--out")
        .arg(dir.join("killed.fa"))
        .output()
        .expect("run elba assemble");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(i32::from(exit::RANK_FAILED)),
        "stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("rank 2 killed by fault plan"),
        "root cause is the fault-killed rank:\n{stderr}"
    );
    assert!(!stderr.contains("panicked at"), "survivor panic:\n{stderr}");

    let sock = dir.join("sock");
    let out = launch(
        &dir,
        &reads,
        &sock,
        &[],
        &["--fault", "sigkill:2@phase:DetectOverlap"],
    );
    assert_eq!(
        out.code,
        i32::from(exit::RANK_FAILED),
        "stderr:\n{}",
        out.stderr
    );
    assert!(
        out.stderr.contains("rank 2") && out.stderr.contains("signal 9"),
        "supervisor names the signaled rank:\n{}",
        out.stderr
    );
    assert!(
        !out.stderr.contains("panicked at"),
        "survivor panic:\n{}",
        out.stderr
    );
    assert!(!sock.exists(), "rendezvous dir must be removed on abort");
}

/// Workers stalled by heavy injected jitter are killed when
/// `--launch-timeout` expires; the supervisor exits with the dedicated
/// timeout code and still cleans up the rendezvous directory.
#[test]
fn launch_timeout_reaps_stalled_workers() {
    let dir = scratch("timeout");
    let reads = simulate_reads(&dir);
    let sock = dir.join("sock");
    let out = launch(
        &dir,
        &reads,
        &sock,
        &["--launch-timeout", "1"],
        &["--fault", "delay:500000"],
    );
    assert_eq!(
        out.code,
        i32::from(exit::LAUNCH_TIMEOUT),
        "stderr:\n{}",
        out.stderr
    );
    assert!(!sock.exists(), "rendezvous dir removed after timeout kill");
}

/// Fault-plan validation happens in the supervisor before anything is
/// spawned: a syntax error or an out-of-range target rank is a usage
/// error, not four workers dying with the same parse message. Either end
/// of a `sever` counts as a target — a cut to a rank that does not exist
/// never fires, and the launch would run clean.
#[test]
fn malformed_or_out_of_range_fault_plan_is_usage_error() {
    let dir = scratch("badplan");
    let reads = dir.join("never-read.fa"); // validated before any I/O
    for bad in [
        "kill:banana",
        "kill:7@posts:3",
        "sever:1-1",
        "sever:0-9",
        "sever:9-0@posts:2",
        "sigkill:4@phase:Alignment",
    ] {
        let sock = dir.join("sock");
        let out = launch(&dir, &reads, &sock, &[], &["--fault", bad]);
        assert_eq!(
            out.code,
            i32::from(exit::USAGE),
            "plan '{bad}' must be rejected up front, stderr:\n{}",
            out.stderr
        );
        assert!(!sock.exists(), "plan '{bad}': nothing was spawned");
    }
}

/// The worker protocol is read in one place and checked like a flag: a
/// malformed `ELBA_MESH_TIMEOUT_MS` or `ELBA_RANK`, or a rank outside
/// the job's `--ranks`, exits 2 naming the variable, before any input is
/// read or any mesh joined.
#[test]
fn malformed_worker_environment_is_usage_error_naming_the_variable() {
    let dir = scratch("workerenv");
    for (rank, timeout, culprit) in [
        ("0", "banana", "ELBA_MESH_TIMEOUT_MS"),
        ("0", "-5", "ELBA_MESH_TIMEOUT_MS"),
        ("one", "1000", "ELBA_RANK"),
        ("4", "1000", "ELBA_RANK"),
    ] {
        let out = elba_bin()
            .args(["assemble", "--ranks", "4", "--reads"])
            .arg(dir.join("never-read.fa"))
            .arg("--out")
            .arg(dir.join("contigs.fa"))
            .env("ELBA_SOCKET_DIR", dir.join("sock"))
            .env("ELBA_RANK", rank)
            .env("ELBA_MESH_TIMEOUT_MS", timeout)
            .output()
            .expect("run an elba worker");
        let label = format!("ELBA_RANK={rank} ELBA_MESH_TIMEOUT_MS={timeout}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(i32::from(exit::USAGE)),
            "{label}: stderr:\n{stderr}"
        );
        assert!(
            stderr.starts_with("error: ") && stderr.contains(culprit),
            "{label}: the error names {culprit}:\n{stderr}"
        );
    }
}

/// An unknown flag is a usage error naming the flag and the subcommand,
/// for every subcommand — and through `launch` it is caught in the
/// supervisor, before anything is spawned (workers dying on it would
/// surface as `RANK_FAILED`, not `USAGE`). Retired flags go the same
/// way — the SUMMA schedule flags (`--spgemm`, `--batch-rows`) and the
/// knob-audit ones (`--kmer-exchange`, `--batch-kmers`,
/// `--xdrop-kernel`, `--chain-band`), and `launch`'s old job flags
/// (`--ranks`, `--transport`, `--fault`: the job is `assemble`'s): a
/// stale command line must not silently run the default. So do retired
/// or malformed *values* (`--seed-chaining all`, `--scaffold maybe`) and
/// a flag given twice.
#[test]
fn unknown_flags_are_usage_errors_naming_the_flag_and_subcommand() {
    let dir = scratch("badflag");
    let sock = dir.join("sock");
    let run = |args: &[&str]| {
        let out = elba_bin().args(args).output().expect("run elba");
        (
            LaunchOutcome {
                code: out.status.code().expect("not signal-killed"),
                stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
            },
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let sock_arg = sock.to_str().expect("utf-8 temp path");
    // `launch <own> -- assemble --reads r.fa --out o.fa <tail>`
    let through_launch = |own: &[&'static str], tail: &[&'static str]| -> Vec<&str> {
        let mut argv = vec!["launch", "--socket-dir", sock_arg];
        argv.extend(own);
        argv.extend(["--", "assemble", "--reads", "r.fa", "--out", "o.fa"]);
        argv.extend(tail);
        argv
    };
    let direct = |tail: &[&'static str]| -> Vec<&str> {
        let mut argv = vec!["assemble", "--reads", "r.fa", "--out", "o.fa"];
        argv.extend(tail);
        argv
    };
    // (argv, what stderr must say); flags are validated before any I/O,
    // so no input file exists.
    let unknown = |flag: &str, command: &str| format!("unknown flag {flag} for '{command}'");
    let mut cases: Vec<(Vec<&str>, String)> = vec![
        (
            vec!["assemble", "--reeds", "r.fa"],
            unknown("--reeds", "assemble"),
        ),
        (
            vec!["simulate", "--dataset", "celegans", "--bogus-flag", "7"],
            unknown("--bogus-flag", "simulate"),
        ),
        (
            vec!["serve", "--jobs", "jobs.txt", "--group", "2"],
            unknown("--group", "serve"),
        ),
        (
            vec!["evaluate", "--reference", "g.fa", "--contig", "c.fa"],
            unknown("--contig", "evaluate"),
        ),
        (
            through_launch(&["--launch-timeout", "5", "--launch-timeout", "6"], &[]),
            "flag --launch-timeout given twice".to_owned(),
        ),
    ];
    for own in [
        ["--rank", "4"],
        ["--ranks", "4"],
        ["--transport", "socket"],
        ["--fault", "kill:1"],
    ] {
        cases.push((through_launch(&own, &[]), unknown(own[0], "launch")));
    }
    let not_assemble_flags: [[&str; 2]; 7] = [
        ["--bogus", "1"],
        ["--spgemm", "auto"],
        ["--batch-rows", "8"],
        ["--kmer-exchange", "eager"],
        ["--batch-kmers", "5"],
        ["--xdrop-kernel", "scalar"],
        ["--chain-band", "32"],
    ];
    for tail in &not_assemble_flags {
        let expect = unknown(tail[0], "assemble");
        cases.push((direct(tail), expect.clone()));
        cases.push((through_launch(&[], tail), expect));
    }
    let bad_values: [(&[&str], &str); 5] = [
        (
            &["--seed-chaining", "all"],
            "--seed-chaining must be chain|best",
        ),
        (&["--scaffold", "maybe"], "--scaffold must be true|false"),
        (&["--k", "32"], "--k must be in 1..=31; got 32"),
        (&["--k", "0"], "--k must be in 1..=31; got 0"),
        (&["--k", "17", "--k", "19"], "flag --k given twice"),
    ];
    for (tail, expect) in bad_values {
        cases.push((direct(tail), expect.to_string()));
        cases.push((through_launch(&[], tail), expect.to_string()));
    }
    for (argv, expect) in cases {
        let (out, _) = run(&argv);
        assert_eq!(
            out.code,
            i32::from(exit::USAGE),
            "{argv:?}: stderr:\n{}",
            out.stderr
        );
        assert!(
            out.stderr.contains(&expect),
            "{argv:?}: the error must say `{expect}`:\n{}",
            out.stderr
        );
        assert!(
            !out.stderr.contains("panicked at") && !sock.exists(),
            "{argv:?}: a usage error starts no rank and no worker:\n{}",
            out.stderr
        );
    }

    // `--scaffold` is a bool, not a presence flag. Scale 0.3 assembles
    // two contigs that scaffolding joins into one: --out changes, the
    // GFA must not — its segments are the contigs its paths walk.
    let reads = simulate_reads_at(&dir, "0.3");
    let gfa = dir.join("graph.gfa");
    for (value, scaffolds) in [("false", false), ("true", true)] {
        let (out, stdout) = run(&[
            "assemble",
            "--ranks",
            "1",
            "--k",
            "17",
            "--reads",
            reads.to_str().expect("utf-8 temp path"),
            "--out",
            dir.join("contigs.fa").to_str().expect("utf-8 temp path"),
            "--gfa",
            gfa.to_str().expect("utf-8 temp path"),
            "--scaffold",
            value,
        ]);
        assert_eq!(out.code, 0, "--scaffold {value}: stderr:\n{}", out.stderr);
        assert_eq!(
            stdout.contains("scaffolding: 2 contigs -> 1 scaffolds (1 joins)"),
            scaffolds,
            "--scaffold {value}:\n{stdout}"
        );
        let records = std::fs::read_to_string(&gfa).expect("read gfa");
        let count = |kind: &str| records.lines().filter(|l| l.starts_with(kind)).count();
        assert_eq!(
            (count("S\t"), count("P\t")),
            (2, 2),
            "--scaffold {value}: one segment per walk"
        );
    }
}
