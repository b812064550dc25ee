//! `perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]`
//! runs one workload in this process and prints its document, then — as
//! the last line of standard output — the one-line result the driver
//! reads. `perf compare A B` holds two sets of documents against the
//! bounds in `BENCHMARK.json`; `perf list` names the workloads.

#![deny(deprecated)]

use std::process::ExitCode;

use elba_perfbench::bench::{self, Options};
use elba_perfbench::compare;
use elba_perfbench::json::Json;
use elba_perfbench::workloads;

const DEFAULT_SEED: u64 = 11;
const DEFAULT_SECONDS: f64 = 25.0;
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn usage() -> String {
    let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
    format!(
        "usage: perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       \
         perf compare A.jsonl B.jsonl\n       perf list\nworkloads: {}",
        names.join(", ")
    )
}

fn run_workload(args: &[String]) -> Result<(), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value {value:?} for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(workloads::find(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    let outcome = bench::run(&Options {
        workload,
        seed,
        seconds,
        traced,
    })?;
    match out {
        Some(path) => std::fs::write(&path, format!("{}\n", outcome.document))
            .map_err(|e| format!("cannot write {path}: {e}"))?,
        None => println!("{}", outcome.document),
    }
    println!("{}", outcome.result);
    Ok(())
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let [base, candidate] = args else {
        return Err(usage());
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let benchmark = Json::parse(&read(BENCHMARK_JSON)?)?;
    let base = compare::parse_set(&read(base)?)?;
    let candidate = compare::parse_set(&read(candidate)?)?;
    let cmp = compare::compare(&benchmark, &base, &candidate)?;
    print!("{}", cmp.table);
    println!(
        "worse: {}, unresolved: {}, runs with failed repetitions: {}",
        cmp.worse, cmp.unresolved, cmp.failed_runs
    );
    Ok(cmp.worse == 0 && cmp.failed_runs == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((first, rest)) if first == "compare" => run_compare(rest),
        Some((first, [])) if first == "list" => {
            for workload in workloads::all() {
                println!("{}", workload.name);
            }
            Ok(true)
        }
        _ => run_workload(&args).map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
