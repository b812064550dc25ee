//! `perf compare A B`: hold a candidate set of documents against a
//! baseline set under the bounds `BENCHMARK.json` fixes.
//!
//! A set is a file of documents, one per line, as `run_all.sh` writes it;
//! appending several `run_all.sh` outputs (one per seed, say) makes a set
//! with several runs per workload. A metric's median and quartiles are
//! taken across a workload's runs, so a set with one run per workload has
//! no spread and its verdicts rest on the bound alone.

use std::fmt::Write as _;

use crate::json::Json;
use crate::stats::{verdict, Better, Summary, Verdict};

struct Bound {
    name: String,
    unit: String,
    better: Better,
    bound: f64,
}

fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Json::as_str);
            Some(Bound {
                name: text("name")?.to_owned(),
                unit: text("unit")?.to_owned(),
                better: Better::parse(text("better")?)?,
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<Bound>>>()
        .ok_or_else(|| "malformed end_to_end entry in BENCHMARK.json".to_owned())
}

/// The untraced documents of a set.
pub fn parse_set(text: &str) -> Result<Vec<Json>, String> {
    let mut docs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if doc.get("traced") == Some(&Json::Bool(false)) {
            docs.push(doc);
        }
    }
    Ok(docs)
}

fn workload_of(doc: &Json) -> &str {
    doc.get("workload").and_then(Json::as_str).unwrap_or("?")
}

/// Summary of `metric`'s reported values over a workload's documents.
fn summarize(docs: &[&Json], metric: &str) -> Option<Summary> {
    let values: Vec<f64> = docs
        .iter()
        .filter_map(|doc| doc.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect();
    Summary::of(&values)
}

fn docs_of<'a>(docs: &'a [Json], workload: &str) -> Vec<&'a Json> {
    docs.iter().filter(|d| workload_of(d) == workload).collect()
}

fn median_of(docs: &[Json], workload: &str, metric: &str) -> Option<f64> {
    summarize(&docs_of(docs, workload), metric).map(|s| s.median)
}

/// Thread scaling and the transport tax, the two documented ratios of
/// `wall_s` across workloads.
fn derived_ratios(label: &str, docs: &[Json], out: &mut String) {
    for (name, num, den) in [
        (
            "thread scaling hifi_p1t1/hifi_p1t2",
            "hifi_p1t1",
            "hifi_p1t2",
        ),
        (
            "transport tax greedy_p4_socket/greedy_p4",
            "greedy_p4_socket",
            "greedy_p4",
        ),
    ] {
        if let (Some(n), Some(d)) = (
            median_of(docs, num, "wall_s"),
            median_of(docs, den, "wall_s"),
        ) {
            let _ = writeln!(out, "{label}: {name} = {:.3} ({n:.4} s / {d:.4} s)", n / d);
        }
    }
}

/// Counts print whole, measurements with four decimals.
fn number(value: f64) -> String {
    if value.fract() == 0.0 {
        format!("{value}")
    } else {
        format!("{value:.4}")
    }
}

pub struct Comparison {
    pub table: String,
    pub worse: usize,
    pub unresolved: usize,
    pub failed_runs: usize,
}

/// One row per (workload, end-to-end metric) present in both sets.
pub fn compare(benchmark: &Json, base: &[Json], candidate: &[Json]) -> Result<Comparison, String> {
    let bounds = bounds(benchmark)?;
    let mut workloads: Vec<&str> = Vec::new();
    for doc in base {
        let name = workload_of(doc);
        if !workloads.contains(&name) && candidate.iter().any(|d| workload_of(d) == name) {
            workloads.push(name);
        }
    }
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<18} {:<18} {:>5} {:>13} {:>27} {:>13} {:>27} {:>6}  verdict",
        "workload", "metric", "unit", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "bound"
    );
    let (mut worse, mut unresolved, mut failed_runs) = (0, 0, 0);
    for workload in workloads {
        let (a_docs, b_docs) = (docs_of(base, workload), docs_of(candidate, workload));
        for doc in a_docs.iter().chain(&b_docs) {
            if doc.get("failed").and_then(Json::as_f64) != Some(0.0) {
                failed_runs += 1;
                let _ = writeln!(table, "{workload:<18} a run reports failed repetitions");
            }
        }
        for b in &bounds {
            let (Some(a), Some(c)) = (summarize(&a_docs, &b.name), summarize(&b_docs, &b.name))
            else {
                continue;
            };
            let v = verdict(&a, &c, b.bound, b.better);
            worse += usize::from(v == Verdict::Worse);
            unresolved += usize::from(v == Verdict::Unresolved);
            let _ = writeln!(
                table,
                "{workload:<18} {:<18} {:>5} {:>13} {:>27} {:>13} {:>27} {:>6}  {}",
                b.name,
                b.unit,
                number(a.median),
                format!("[{}, {}]", number(a.q1), number(a.q3)),
                number(c.median),
                format!("[{}, {}]", number(c.q1), number(c.q3)),
                b.bound,
                v.label()
            );
        }
    }
    derived_ratios("A", base, &mut table);
    derived_ratios("B", candidate, &mut table);
    Ok(Comparison {
        table,
        worse,
        unresolved,
        failed_runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark() -> Json {
        Json::parse(
            r#"{"end_to_end": [
                {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
                {"name": "completeness_pct", "unit": "%", "better": "higher", "bound": 0.02}]}"#,
        )
        .expect("json")
    }

    fn doc(workload: &str, wall: f64, completeness: f64) -> String {
        format!(
            r#"{{"workload": "{workload}", "traced": false, "failed": 0, "metrics": {{"wall_s": {{"value": {wall}}}, "completeness_pct": {{"value": {completeness}}}}}}}"#
        )
    }

    fn set(docs: &[String]) -> Vec<Json> {
        parse_set(&docs.join("\n")).expect("set")
    }

    #[test]
    fn rows_carry_a_verdict_per_workload_and_metric() {
        let traced = r#"{"workload": "hifi_p1t1", "traced": true, "metrics": {}}"#.to_owned();
        let base = set(&[
            doc("hifi_p1t1", 1.0, 98.0),
            doc("greedy_p4", 1.0, 98.0),
            traced,
        ]);
        assert_eq!(base.len(), 2, "traced documents are left out");
        let candidate = set(&[doc("hifi_p1t1", 1.2, 98.5), doc("greedy_p4", 1.05, 90.0)]);
        let cmp = compare(&benchmark(), &base, &candidate).expect("compares");
        // hifi wall +20 % > 10 % → worse; greedy wall +5 % → ok;
        // greedy completeness 98 → 90 is worse by more than 2 %.
        assert_eq!((cmp.worse, cmp.unresolved, cmp.failed_runs), (2, 0, 0));
        assert_eq!(cmp.table.lines().count(), 1 + 4);
    }

    #[test]
    fn several_runs_per_workload_are_summarized_across_runs() {
        let runs = |walls: &[f64]| -> Vec<Json> {
            let docs: Vec<String> = walls.iter().map(|&w| doc("hifi_p1t1", w, 98.0)).collect();
            set(&docs)
        };
        let base = runs(&[1.0, 1.01, 0.99, 1.0, 1.02]);
        let same = runs(&[1.01, 1.0, 1.0, 0.99, 1.02]);
        let cmp = compare(&benchmark(), &base, &same).expect("compares");
        assert_eq!((cmp.worse, cmp.unresolved), (0, 0));
        // A spread wider than the bound hides a regression of that size.
        let noisy = runs(&[0.8, 1.0, 1.3, 0.9, 1.2]);
        let cmp = compare(&benchmark(), &base, &noisy).expect("compares");
        assert_eq!((cmp.worse, cmp.unresolved), (0, 1));
    }
}
