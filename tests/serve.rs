//! Integration tests for `elba serve`'s scheduling layer: typed
//! admission control, budget queueing, fault isolation (a killed job
//! fails alone), a ≥100-job stress run proving the pool neither
//! deadlocks nor ever exceeds the host cap, and a served job writing
//! the contigs `elba assemble` writes from the same flags.

use std::path::PathBuf;

use elba::core::job::write_seqs;
use elba::core::{AssembleJob, JobOutcome, JobResult, ServeConfig, Server, SubmitError};
use elba::prelude::*;

const MIB: u64 = 1 << 20;

/// A test's own directory for the read sets its jobs assemble and the
/// files they write; removed when the test ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("elba-serve-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn path(&self, file: &str) -> String {
        self.0
            .join(file)
            .to_str()
            .expect("utf-8 temp path")
            .to_owned()
    }

    /// The reads of `dataset` at `scale` and `seed` as a FASTA file,
    /// simulated the first time a test asks for them.
    fn reads(&self, dataset: &str, scale: f64, seed: u64) -> String {
        let path = self.path(&format!("{dataset}-{scale}-{seed}.fa"));
        if !std::path::Path::new(&path).exists() {
            let spec = DatasetSpec::by_name(dataset, scale, seed).expect("dataset");
            let (_genome, sim_reads) = spec.generate();
            let reads: Vec<Seq> = sim_reads.into_iter().map(|r| r.seq).collect();
            write_seqs(&path, "read_", &reads).expect("write reads");
        }
        path
    }

    /// A job line's arguments: `reads` assembled into `<name>.fa` here,
    /// plus `extra` flags.
    fn job(&self, reads: &str, name: &str, extra: &str) -> Vec<String> {
        let out = self.path(&format!("{name}.fa"));
        let line = format!("--reads {reads} --out {out} {extra}");
        line.split_whitespace().map(str::to_owned).collect()
    }

    /// A tiny celegans job named `name`.
    fn tiny(&self, name: &str, seed: u64, extra: &str) -> Vec<String> {
        self.job(&self.reads("celegans", 0.03, seed), name, extra)
    }

    /// The bytes a finished job wrote to `<name>.fa`.
    fn written(&self, name: &str) -> Vec<u8> {
        std::fs::read(self.path(&format!("{name}.fa"))).expect("read job output")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `elba assemble` in process: the flags' job read, run and written by
/// the steps a served job takes.
fn assemble_in_process(args: &[String]) {
    let job = AssembleJob::parse(args, None).expect("valid job");
    let reads = job.read_reads().expect("readable reads");
    let ((contigs, _result), _profile) = job.run(Backend::InProcess, reads).expect("clean run");
    job.write_outputs(&contigs).expect("write outputs");
}

fn config(groups: usize, group_ranks: usize, host_cap: MemBudget) -> ServeConfig {
    ServeConfig {
        groups,
        group_ranks,
        backend: Backend::InProcess,
        host_cap,
    }
}

#[test]
fn over_cap_submission_is_rejected_with_typed_error() {
    let scratch = Scratch::new("over-cap");
    let server = Server::start(config(1, 1, MemBudget::bytes(64 * MIB)));

    // A claim larger than the whole host can never be admitted: typed
    // rejection at the door, nothing queued.
    let err = server
        .submit("too-big", &scratch.tiny("too-big", 1, "--mem-budget 128M"))
        .unwrap_err();
    assert_eq!(
        err,
        SubmitError::BudgetExceedsHostCap {
            requested: 128 * MIB,
            cap: 64 * MIB,
        }
    );

    // Validation failures are typed too.
    assert!(matches!(
        server.submit(
            "bad-plan",
            &scratch.tiny("bad-plan", 2, "--fault explode:everything")
        ),
        Err(SubmitError::InvalidJob(_))
    ));

    let results = server.drain();
    assert!(results.is_empty(), "rejected jobs must never run");
}

/// Each malformed line is one [`SubmitError::InvalidJob`] at the door;
/// the server runs on and the well-formed neighbour completes.
#[test]
fn malformed_job_lines_are_rejected_at_submit_and_their_neighbour_completes() {
    let scratch = Scratch::new("malformed");
    let server = Server::start(config(1, 4, MemBudget::unlimited()));
    let reads = scratch.reads("celegans", 0.03, 1);
    let out = scratch.path("bad.fa");
    for (line, message) in [
        (
            format!("--reads {reads} --out {out} --k 0"),
            "--k must be in 1..=",
        ),
        (
            format!("--reads {reads} --out {out} --threads 0"),
            "--threads must be at least 1",
        ),
        (
            format!("--reads {reads} --out {out} --ranks 9"),
            "--ranks 9 but the group has 4 ranks",
        ),
        (
            format!("--reads {reads} --out {out} --scale 0.1"),
            "unknown flag --scale",
        ),
        (format!("--out {out}"), "missing required flag --reads"),
    ] {
        let args: Vec<&str> = line.split_whitespace().collect();
        match server.submit("malformed", &args) {
            Err(SubmitError::InvalidJob(e)) => assert!(e.contains(message), "{line}: {e}"),
            other => panic!("{line}: expected InvalidJob, got {other:?}"),
        }
    }
    let neighbour = server
        .submit("neighbour", &scratch.tiny("neighbour", 2, ""))
        .unwrap();
    assert!(server.wait(neighbour).completed());
    assert_eq!(server.drain().len(), 1, "rejected jobs must never run");
    assert!(!std::path::Path::new(&out).exists());
}

/// A fault aimed at a rank the group does not have can never fire: the
/// job would run clean and pass as if the plan had been exercised. The
/// door rejects it instead — `kill`, `sigkill` and either end of a
/// `sever` — while a plan inside the group is accepted.
#[test]
fn fault_plan_naming_a_rank_outside_the_group_is_rejected_at_submit() {
    let scratch = Scratch::new("fault-outside");
    let server = Server::start(config(1, 4, MemBudget::unlimited()));
    for plan in [
        "kill:9@phase:Alignment",
        "sigkill:4",
        "sever:0-4@posts:2",
        "seed:3;sever:7-1",
    ] {
        let args = scratch.tiny("outside", 1, &format!("--fault {plan}"));
        match server.submit("outside", &args) {
            Err(SubmitError::InvalidJob(e)) => {
                assert!(e.contains("only 4 ranks"), "{plan}: {e}")
            }
            other => panic!("{plan}: expected InvalidJob, got {other:?}"),
        }
    }
    let inside = server
        .submit(
            "inside",
            &scratch.tiny("inside", 2, "--fault sever:0-3;kill:3@phase:Alignment"),
        )
        .expect("every rank the plan names is in the group");
    assert!(!server.wait(inside).completed(), "the plan fires");
    assert_eq!(server.drain().len(), 1, "rejected jobs must never run");
}

#[test]
fn budget_queueing_serializes_oversubscribed_jobs() {
    let scratch = Scratch::new("queueing");
    let cap = 1024 * MIB;
    let server = Server::start(config(2, 1, MemBudget::bytes(cap)));

    // Each job claims more than half the cap, so despite two free
    // groups the scheduler can only ever admit one at a time.
    let claim = 600 * MIB;
    let ids: Vec<_> = (0..3)
        .map(|i| {
            let name = format!("big-{i}");
            let args = scratch.tiny(&name, 100 + i, "--mem-budget 600M");
            server.submit(&name, &args).unwrap()
        })
        .collect();
    for id in ids {
        assert!(server.wait(id).completed());
    }

    let peak = server.peak_admitted_bytes();
    assert!(peak <= cap, "peak admitted {peak} exceeded cap {cap}");
    assert_eq!(
        peak, claim,
        "over-half-cap jobs must serialize: exactly one admitted at a time"
    );

    let results = server.drain();
    assert_eq!(results.len(), 3);
    assert!(results.iter().all(JobResult::completed));
}

#[test]
fn unbudgeted_job_charges_whole_cap_and_queues_behind_it() {
    let scratch = Scratch::new("unbudgeted");
    let cap = 256 * MIB;
    let server = Server::start(config(2, 1, MemBudget::bytes(cap)));
    // Unbudgeted jobs are charged the full cap: conservative, so two of
    // them can never overlap.
    let a = server
        .submit("unbudgeted-a", &scratch.tiny("unbudgeted-a", 7, ""))
        .unwrap();
    let b = server
        .submit("unbudgeted-b", &scratch.tiny("unbudgeted-b", 8, ""))
        .unwrap();
    assert!(server.wait(a).completed());
    assert!(server.wait(b).completed());
    assert_eq!(server.peak_admitted_bytes(), cap);
    server.drain();
}

#[test]
fn fault_killed_job_fails_alone_and_neighbors_match_solo_runs() {
    let scratch = Scratch::new("fault-killed");
    let server = Server::start(config(2, 4, MemBudget::unlimited()));
    let reads = |seed| scratch.reads("celegans", 0.05, seed);

    let clean_a = server
        .submit("clean-a", &scratch.job(&reads(41), "clean-a", ""))
        .unwrap();
    let killed = server
        .submit(
            "killed",
            &scratch.job(&reads(42), "killed", "--fault kill:1@phase:Alignment"),
        )
        .unwrap();
    let clean_b = server
        .submit("clean-b", &scratch.job(&reads(43), "clean-b", ""))
        .unwrap();

    // The fault-killed job fails — typed as an injected kill, and its
    // group is recycled rather than wedged.
    let killed_result = server.wait(killed);
    match &killed_result.outcome {
        JobOutcome::Failed {
            killed_by_fault, ..
        } => assert!(*killed_by_fault, "failure must be typed as a fault kill"),
        JobOutcome::Completed { .. } => panic!("fault-killed job completed"),
    }

    // The server survives the kill and its neighbors are untouched:
    // contigs byte-identical to solo runs of the same job.
    assert!(server.wait(clean_a).completed());
    assert!(server.wait(clean_b).completed());
    assemble_in_process(&scratch.job(&reads(41), "solo-a", ""));
    assemble_in_process(&scratch.job(&reads(43), "solo-b", ""));
    assert!(
        scratch.written("solo-a").starts_with(b">contig_0"),
        "baseline produced no contigs"
    );
    assert_eq!(scratch.written("clean-a"), scratch.written("solo-a"));
    assert_eq!(scratch.written("clean-b"), scratch.written("solo-b"));

    assert_eq!(server.groups_recycled(), 1);
    let results = server.drain();
    assert_eq!(results.len(), 3);
}

/// A served job is `elba assemble` run on a group: the same flags write
/// the same contigs. On these reads a serve job once ran its own
/// configuration and wrote 7 contigs where `assemble` wrote 9.
#[test]
fn a_served_job_writes_the_contigs_assemble_writes() {
    let scratch = Scratch::new("agree");
    let reads = scratch.reads("hsapiens", 0.1, 9);
    let server = Server::start(config(1, 4, MemBudget::unlimited()));
    let id = server
        .submit("served", &scratch.job(&reads, "served", ""))
        .unwrap();
    assert!(server.wait(id).completed());
    server.drain();

    assemble_in_process(&scratch.job(&reads, "assembled", ""));
    let assembled = scratch.written("assembled");
    assert!(assembled.starts_with(b">contig_0"), "no contigs assembled");
    assert_eq!(scratch.written("served"), assembled);
}

#[test]
fn hundred_job_stress_run_never_exceeds_cap_or_deadlocks() {
    let scratch = Scratch::new("stress");
    let cap = 1024 * MIB;
    let server = Server::start(config(4, 1, MemBudget::bytes(cap)));

    // Mixed claim sizes, including unbudgeted (= whole-cap) jobs, so the
    // admission queue constantly alternates between packing several
    // small jobs and serializing a whole-cap one.
    let budgets = [
        "--mem-budget 64M",
        "--mem-budget 256M",
        "",
        "--mem-budget 600M",
        "--mem-budget 128M",
    ];
    let n_jobs = 100;
    let ids: Vec<_> = (0..n_jobs)
        .map(|i| {
            let name = format!("stress-{i}");
            let reads = scratch.reads("celegans", 0.02, 1000 + i as u64);
            let args = scratch.job(&reads, &name, budgets[i % budgets.len()]);
            server.submit(&name, &args).unwrap()
        })
        .collect();
    for &id in &ids {
        server.wait(id);
    }
    let peak = server.peak_admitted_bytes();
    assert!(peak <= cap, "peak admitted {peak} exceeded cap {cap}");
    assert!(
        peak >= 600 * MIB,
        "the largest single claim must have been admitted"
    );

    let results = server.drain();
    assert_eq!(results.len(), n_jobs, "every submitted job must terminate");
    for r in &results {
        assert!(r.completed(), "job {} failed in stress run", r.name);
    }
}
