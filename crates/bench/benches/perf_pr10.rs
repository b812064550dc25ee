//! PR 10 perf trajectory: writes `BENCH_pr10.json` at the repository
//! root probing the multi-tenant serve layer. A fixed batch of small
//! mixed-budget jobs — `elba assemble` argument lists over simulated
//! read sets, written to FASTA before any clock starts — is pushed
//! through `Server` at pool sizes {1, 2, 4} single-rank groups under a
//! 1 GiB admission cap,
//! recording throughput (jobs/min) and submit→finish latency (p50/p99)
//! per pool size, plus the two invariants CI greps for: every job
//! completed and peak admitted budget stayed within the cap.
//!
//! Run with `cargo bench -p elba-bench --bench perf_pr10`.

use std::fmt::Write as _;
use std::time::Instant;

use elba_comm::Backend;
use elba_core::job::write_seqs;
use elba_core::{JobResult, ServeConfig, Server};
use elba_mem::MemBudget;
use elba_seq::{DatasetSpec, Seq};

const MIB: u64 = 1 << 20;
const JOBS_PER_POOL: usize = 36;
const CAP: u64 = 1024 * MIB;

/// The mixed-budget job batch as (name, `assemble` flags): small claims
/// that pack, large claims that serialize, and unbudgeted jobs charged
/// as the whole cap. Each job's reads are simulated into `dir` here, so
/// no run times the simulator.
fn job_batch(dir: &std::path::Path) -> Vec<(String, Vec<String>)> {
    let budgets = ["64M", "256M", "", "600M", "128M", "32M"];
    let path = |file: String| dir.join(file).to_str().expect("utf-8 path").to_owned();
    (0..JOBS_PER_POOL)
        .map(|i| {
            let name = format!("bench-{i}");
            let reads = path(format!("{name}.reads.fa"));
            let spec = DatasetSpec::celegans_like(0.02, 7000 + i as u64);
            let seqs: Vec<Seq> = spec.generate().1.into_iter().map(|r| r.seq).collect();
            write_seqs(&reads, "read_", &seqs).expect("write bench reads");
            let mut args = vec![
                "--reads".into(),
                reads,
                "--out".into(),
                path(format!("{name}.fa")),
            ];
            let budget = budgets[i % budgets.len()];
            if !budget.is_empty() {
                args.extend(["--mem-budget".into(), budget.into()]);
            }
            (name, args)
        })
        .collect()
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

struct PoolRun {
    groups: usize,
    wall_secs: f64,
    jobs_per_min: f64,
    p50_secs: f64,
    p99_secs: f64,
    all_completed: bool,
    peak_admitted: u64,
}

fn run_pool(groups: usize, batch: &[(String, Vec<String>)]) -> PoolRun {
    let server = Server::start(ServeConfig {
        groups,
        group_ranks: 1,
        backend: Backend::InProcess,
        host_cap: MemBudget::bytes(CAP),
    });
    let started = Instant::now();
    let ids: Vec<_> = batch
        .iter()
        .map(|(name, args)| server.submit(name, args).expect("bench jobs are valid"))
        .collect();
    for &id in &ids {
        server.wait(id);
    }
    let wall_secs = started.elapsed().as_secs_f64();
    let peak_admitted = server.peak_admitted_bytes();
    let results = server.drain();

    let mut latencies: Vec<f64> = results.iter().map(JobResult::latency_secs).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    PoolRun {
        groups,
        wall_secs,
        jobs_per_min: results.len() as f64 / (wall_secs / 60.0),
        p50_secs: percentile(&latencies, 0.50),
        p99_secs: percentile(&latencies, 0.99),
        all_completed: results.iter().all(JobResult::completed),
        peak_admitted,
    }
}

fn main() {
    let dir = std::env::temp_dir().join(format!("elba-perf-pr10-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let batch = job_batch(&dir);
    let runs: Vec<PoolRun> = [1usize, 2, 4]
        .iter()
        .map(|&g| run_pool(g, &batch))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);

    let mut all_completed = true;
    let mut within_cap = true;
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"pr\": 10,");
    let _ = writeln!(
        json,
        "  \"what\": \"multi-tenant serve: throughput/latency vs pool size under a 1 GiB admission cap\","
    );
    let _ = writeln!(
        json,
        "  \"shape\": {{ \"jobs_per_pool\": {JOBS_PER_POOL}, \"group_ranks\": 1, \"host_cap_bytes\": {CAP} }},"
    );
    for run in &runs {
        all_completed &= run.all_completed;
        within_cap &= run.peak_admitted <= CAP;
        let _ = writeln!(
            json,
            "  \"pool_{}\": {{ \"wall_secs\": {:.3}, \"jobs_per_min\": {:.1}, \
             \"latency_p50_secs\": {:.3}, \"latency_p99_secs\": {:.3}, \
             \"peak_admitted_bytes\": {} }},",
            run.groups,
            run.wall_secs,
            run.jobs_per_min,
            run.p50_secs,
            run.p99_secs,
            run.peak_admitted
        );
        eprintln!(
            "pool={}: {:.1} jobs/min, p50 {:.3} s, p99 {:.3} s, wall {:.2} s, peak {} MiB",
            run.groups,
            run.jobs_per_min,
            run.p50_secs,
            run.p99_secs,
            run.wall_secs,
            run.peak_admitted / MIB
        );
    }
    assert!(all_completed, "a bench job failed");
    assert!(within_cap, "admission exceeded the host cap");
    // The pool should actually scale: 4 groups must beat 1 group on
    // throughput (loose 1.2× bound — the 600 MiB + whole-cap jobs
    // serialize part of the schedule by design).
    let speedup = runs[2].jobs_per_min / runs[0].jobs_per_min.max(1e-9);
    eprintln!("pool-4 over pool-1 throughput: {speedup:.2}x");
    let _ = writeln!(json, "  \"pool4_over_pool1_throughput\": {speedup:.3},");
    let _ = writeln!(json, "  \"all_jobs_completed\": {all_completed},");
    let _ = writeln!(json, "  \"admitted_within_cap\": {within_cap}");
    let _ = writeln!(json, "}}");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr10.json");
    std::fs::write(out, &json).expect("write BENCH_pr10.json");
    eprintln!("wrote {out}");
    println!("{json}");
}
