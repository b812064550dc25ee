//! Integration tests for `elba serve`'s scheduling layer: typed
//! admission control, budget queueing, fault isolation (a killed job
//! fails alone), and a ≥100-job stress run proving the pool neither
//! deadlocks nor ever exceeds the host cap.

use elba::core::{JobOutcome, JobResult, JobSpec, ServeConfig, Server, SubmitError};
use elba::prelude::*;

const MIB: u64 = 1 << 20;

fn tiny(name: &str, seed: u64) -> JobSpec {
    JobSpec::sim(name, "celegans", 0.03, seed)
}

fn contig_bytes(outcome: &JobOutcome) -> Vec<String> {
    match outcome {
        JobOutcome::Completed { contigs, .. } => {
            contigs.iter().map(|c| c.seq.to_string()).collect()
        }
        JobOutcome::Failed { error, .. } => panic!("job failed: {error}"),
    }
}

/// Mirror of the server's sim-job pipeline: same dataset spec, same
/// config derivation, same rank count — the solo baseline a served job
/// must reproduce byte-for-byte.
fn solo_contigs(dataset_seed: u64, scale: f64, nranks: usize) -> Vec<String> {
    let spec = DatasetSpec::celegans_like(scale, dataset_seed);
    let (_genome, sim_reads) = spec.generate();
    let reads: Vec<Seq> = sim_reads.into_iter().map(|r| r.seq).collect();
    let cfg = PipelineConfig::for_dataset(&spec).with_threads(1);
    let contigs = Runner::new(Backend::InProcess)
        .ranks(nranks)
        .run(move |comm| {
            let grid = ProcGrid::new(comm);
            let (contigs, _) = assemble_gathered(&grid, &reads, &cfg);
            contigs
        })
        .remove(0);
    contigs.iter().map(|c| c.seq.to_string()).collect()
}

#[test]
fn over_cap_submission_is_rejected_with_typed_error() {
    let server = Server::start(ServeConfig {
        groups: 1,
        group_ranks: 1,
        backend: Backend::InProcess,
        host_cap: MemBudget::bytes(64 * MIB),
        threads: 1,
    });

    // A claim larger than the whole host can never be admitted: typed
    // rejection at the door, nothing queued.
    let err = server
        .submit(tiny("too-big", 1).budget(128 * MIB))
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
        server.submit(tiny("bad-plan", 2).with_fault("explode:everything")),
        Err(SubmitError::InvalidFaultPlan(_))
    ));
    assert!(matches!(
        server.submit(JobSpec::sim("bad-ds", "tribble", 0.03, 3)),
        Err(SubmitError::InvalidDataset(_))
    ));

    let results = server.drain();
    assert!(results.is_empty(), "rejected jobs must never run");
}

#[test]
fn over_scaled_job_is_rejected_at_submit_and_its_neighbour_completes() {
    let server = Server::start(ServeConfig::default());
    // `scale` sizes the simulator's allocations; an absurd one used to
    // pass the door and abort the whole server inside `run_job`.
    for (i, scale) in [1e12, f64::NAN, f64::INFINITY, -1.0, 0.0, 1e-6]
        .into_iter()
        .enumerate()
    {
        let name = format!("hostile-{i}");
        assert!(
            matches!(
                server.submit(JobSpec::sim(&name, "celegans", scale, 1)),
                Err(SubmitError::InvalidDataset(_))
            ),
            "scale {scale} must be rejected at submit"
        );
    }
    let neighbour = server.submit(tiny("neighbour", 2)).unwrap();
    assert!(server.wait(neighbour).completed());
    assert_eq!(server.drain().len(), 1, "rejected jobs must never run");
}

/// A fault aimed at a rank the group does not have can never fire: the
/// job would run clean and pass as if the plan had been exercised. The
/// door rejects it instead — `kill`, `sigkill` and either end of a
/// `sever` — while a plan inside the group is accepted.
#[test]
fn fault_plan_naming_a_rank_outside_the_group_is_rejected_at_submit() {
    let server = Server::start(ServeConfig {
        groups: 1,
        group_ranks: 4,
        backend: Backend::InProcess,
        host_cap: MemBudget::unlimited(),
        threads: 1,
    });
    for plan in [
        "kill:9@phase:Alignment",
        "sigkill:4",
        "sever:0-4@posts:2",
        "seed:3;sever:7-1",
    ] {
        match server.submit(tiny("outside", 1).with_fault(plan)) {
            Err(SubmitError::InvalidFaultPlan(e)) => {
                assert!(e.contains("only 4 ranks"), "{plan}: {e}")
            }
            other => panic!("{plan}: expected InvalidFaultPlan, got {other:?}"),
        }
    }
    let inside = server
        .submit(tiny("inside", 2).with_fault("sever:0-3;kill:3@phase:Alignment"))
        .expect("every rank the plan names is in the group");
    assert!(!server.wait(inside).completed(), "the plan fires");
    assert_eq!(server.drain().len(), 1, "rejected jobs must never run");
}

#[test]
fn budget_queueing_serializes_oversubscribed_jobs() {
    let cap = 1024 * MIB;
    let server = Server::start(ServeConfig {
        groups: 2,
        group_ranks: 1,
        backend: Backend::InProcess,
        host_cap: MemBudget::bytes(cap),
        threads: 1,
    });

    // Each job claims more than half the cap, so despite two free
    // groups the scheduler can only ever admit one at a time.
    let claim = 600 * MIB;
    let ids: Vec<_> = (0..3)
        .map(|i| {
            server
                .submit(tiny(&format!("big-{i}"), 100 + i).budget(claim))
                .unwrap()
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
    let cap = 256 * MIB;
    let server = Server::start(ServeConfig {
        groups: 2,
        group_ranks: 1,
        backend: Backend::InProcess,
        host_cap: MemBudget::bytes(cap),
        threads: 1,
    });
    // Unbudgeted jobs are charged the full cap: conservative, so two of
    // them can never overlap.
    let a = server.submit(tiny("unbudgeted-a", 7)).unwrap();
    let b = server.submit(tiny("unbudgeted-b", 8)).unwrap();
    assert!(server.wait(a).completed());
    assert!(server.wait(b).completed());
    assert_eq!(server.peak_admitted_bytes(), cap);
    server.drain();
}

#[test]
fn fault_killed_job_fails_alone_and_neighbors_match_solo_runs() {
    let server = Server::start(ServeConfig {
        groups: 2,
        group_ranks: 4,
        backend: Backend::InProcess,
        host_cap: MemBudget::unlimited(),
        threads: 1,
    });

    let clean_a = server
        .submit(JobSpec::sim("clean-a", "celegans", 0.05, 41))
        .unwrap();
    let killed = server
        .submit(JobSpec::sim("killed", "celegans", 0.05, 42).with_fault("kill:1@phase:Alignment"))
        .unwrap();
    let clean_b = server
        .submit(JobSpec::sim("clean-b", "celegans", 0.05, 43))
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
    let a = server.wait(clean_a);
    let b = server.wait(clean_b);
    let solo_a = solo_contigs(41, 0.05, 4);
    let solo_b = solo_contigs(43, 0.05, 4);
    assert!(!solo_a.is_empty(), "baseline produced no contigs");
    assert_eq!(contig_bytes(&a.outcome), solo_a);
    assert_eq!(contig_bytes(&b.outcome), solo_b);

    assert_eq!(server.groups_recycled(), 1);
    let results = server.drain();
    assert_eq!(results.len(), 3);
}

#[test]
fn hundred_job_stress_run_never_exceeds_cap_or_deadlocks() {
    let cap = 1024 * MIB;
    let server = Server::start(ServeConfig {
        groups: 4,
        group_ranks: 1,
        backend: Backend::InProcess,
        host_cap: MemBudget::bytes(cap),
        threads: 1,
    });

    // Mixed claim sizes, including unbudgeted (= whole-cap) jobs, so the
    // admission queue constantly alternates between packing several
    // small jobs and serializing a whole-cap one.
    let claims = [64 * MIB, 256 * MIB, 0, 600 * MIB, 128 * MIB];
    let n_jobs = 100;
    let ids: Vec<_> = (0..n_jobs)
        .map(|i| {
            let spec = JobSpec::sim(&format!("stress-{i}"), "celegans", 0.02, 1000 + i as u64)
                .budget(claims[i % claims.len()]);
            server.submit(spec).unwrap()
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
