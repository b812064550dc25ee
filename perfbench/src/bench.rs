//! One benchmark run of one workload: set-up, measured repetitions,
//! output checks, and the document that reports them.

use std::collections::BTreeMap;
use std::time::Instant;

use elba_comm::RunProfile;
use elba_core::Contig;

use crate::calibrate::{Calibrator, NOMINAL_S};
use crate::host;
use crate::inputs::Inputs;
use crate::json::Json;
use crate::metrics::{self, MetricDef, PHASE_FAMILIES};
use crate::probes;
use crate::run::{repetition, Layout, Repetition};
use crate::stages::StageCounts;
use crate::stats::{median, Better, Summary};
use crate::trace::Trace;
use crate::verify::{self, in_phase, Quality, PAPER_PHASES};
use crate::workloads::Workload;

/// Times the inputs are generated and warmed up in an untraced run; the
/// reported `setup_s` is the fastest, for the reason `wall_s` is.
const SETUPS: usize = 3;
/// Fewest measured repetitions of an untraced run, whatever `--seconds`.
const MIN_REPETITIONS: usize = 5;
/// Fewest untraced/traced repetition pairs of a traced run.
const MIN_TRACED_PAIRS: usize = 3;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

pub struct Outcome {
    /// Everything measured, for `compare` and for people.
    pub document: Json,
    /// The one-line result the driver reads.
    pub result: Json,
}

/// A metric's reported value plus, for timings taken more than once in
/// the run, the samples behind it.
struct Reading {
    value: f64,
    samples: Vec<f64>,
}

impl Reading {
    fn single(value: f64) -> Reading {
        Reading {
            value,
            samples: Vec::new(),
        }
    }

    fn median_of(samples: Vec<f64>) -> Reading {
        Reading {
            value: median(&samples),
            samples,
        }
    }

    /// The fastest sample (0 when there is none, like the median).
    fn min_of(samples: Vec<f64>) -> Reading {
        Reading {
            value: Summary::of(&samples).map_or(0.0, |s| s.min),
            samples,
        }
    }

    /// The fastest sample as a quiet host would have run it: divided by
    /// the run's calibration slowdown. The samples stay as measured.
    fn calibrated_min_of(samples: Vec<f64>, slowdown: f64) -> Reading {
        let mut reading = Reading::min_of(samples);
        reading.value /= slowdown;
        reading
    }
}

/// The contigs, hash and per-rank wire bytes every later repetition of
/// the run must reproduce.
struct Golden {
    contigs: Vec<Contig>,
    hash: u64,
    wire: Vec<u64>,
    profile: RunProfile,
}

/// Pass/fail bookkeeping: a repetition is one operation.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Everything attempted fails: an output check that covers the whole
    /// run (quality floor, reference equality) did not hold.
    fn fail_all(&mut self, why: String) {
        self.failed = self.attempted;
        self.errors.insert(0, why);
    }
}

/// Run one repetition and hold it to `golden` (set by the first that
/// succeeds). Returns the repetition when it ran at all, so its timing
/// is kept even if its output is wrong.
fn checked_repetition(
    inputs: &Inputs,
    layout: Layout,
    traced: bool,
    golden: &mut Option<Golden>,
    tally: &mut Tally,
) -> Option<Repetition> {
    tally.attempted += 1;
    let rep = match repetition(inputs, layout, traced) {
        Ok(rep) => rep,
        Err(failure) => {
            tally.fail(format!("repetition failed: {failure}"));
            return None;
        }
    };
    let hash = verify::contig_set_hash(&rep.contigs);
    let wire = verify::wire_bytes_per_rank(&rep.profile);
    match golden {
        None => {
            *golden = Some(Golden {
                contigs: rep.contigs.clone(),
                hash,
                wire,
                profile: rep.profile.clone(),
            });
        }
        Some(g) if g.hash != hash => tally.fail(format!(
            "contig-set hash {hash:016x} differs from the first repetition's {:016x}",
            g.hash
        )),
        Some(g) if g.wire != wire => tally.fail(format!(
            "per-rank wire bytes {wire:?} differ from the first repetition's {:?}",
            g.wire
        )),
        Some(_) => {}
    }
    Some(rep)
}

/// Output checks that cover the whole run: quality against the
/// generated reference, and equality with the workload's reference
/// configuration where it has one.
fn verify_run(workload: &Workload, inputs: &Inputs, golden: &Golden, tally: &mut Tally) -> Quality {
    let quality = verify::evaluate(inputs, &golden.contigs);
    if quality.completeness_pct < workload.completeness_floor {
        tally.fail_all(format!(
            "completeness {:.2}% is under the workload's floor of {}%",
            quality.completeness_pct, workload.completeness_floor
        ));
    }
    if quality.reference_mismatches > 0 {
        tally.fail_all(format!(
            "{} contigs or expected pieces do not match the reference exactly",
            quality.reference_mismatches
        ));
    }
    if let Some(reference) = workload.reference {
        let layout = Layout {
            ranks: workload.ranks,
            threads: reference.threads,
            backend: reference.backend,
        };
        match repetition(inputs, layout, false) {
            Err(failure) => tally.fail_all(format!("reference run failed: {failure}")),
            Ok(rep) => {
                let hash = verify::contig_set_hash(&rep.contigs);
                let wire = verify::wire_bytes_per_rank(&rep.profile);
                if hash != golden.hash {
                    tally.fail_all(format!(
                        "contig-set hash {:016x} differs from the reference configuration's {hash:016x}",
                        golden.hash
                    ));
                } else if wire != golden.wire {
                    tally.fail_all(format!(
                        "per-rank wire bytes {:?} differ from the reference configuration's {wire:?}",
                        golden.wire
                    ));
                }
            }
        }
    }
    quality
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let workload = &opts.workload;
    workload.check_size()?;
    let layout = Layout {
        ranks: workload.ranks,
        threads: workload.threads,
        backend: workload.backend,
    };
    let mut tally = Tally::default();
    let mut golden = None;
    let mut measured = if opts.traced {
        traced_run(opts, layout, &mut golden, &mut tally)
    } else {
        untraced_run(opts, layout, &mut golden, &mut tally)
    };
    let Some(golden) = golden else {
        return Err(format!(
            "no repetition of {} succeeded: {}",
            workload.name,
            tally.errors.join("; ")
        ));
    };
    let quality = verify_run(workload, &measured.inputs, &golden, &mut tally);
    let mut put = |name: &str, value: f64| {
        measured
            .readings
            .insert(name.to_owned(), Reading::single(value));
    };
    let defs = if opts.traced {
        put("quality.ng50_bp", quality.ng50_bp as f64);
        put("quality.contigs", quality.n_contigs as f64);
        put(
            "quality.misassembled_contigs",
            quality.misassembled_contigs as f64,
        );
        metrics::per_layer()
    } else {
        put("completeness_pct", quality.completeness_pct);
        metrics::end_to_end()
    };
    Ok(report(opts, &measured, &golden, &quality, &tally, &defs))
}

type Readings = BTreeMap<String, Reading>;

struct Measured {
    inputs: Inputs,
    readings: Readings,
    /// Spans of the last traced repetition, for the document.
    trace: Option<Trace>,
    /// Calibration samples of an end-to-end run, for the document.
    host: Option<Calibrator>,
}

/// End-to-end run: `SETUPS` set-ups (generate inputs, one discarded
/// warm-up repetition), then repetitions for `--seconds`, a calibration
/// sample before each of either. `wall_s` and `setup_s` are the fastest
/// of their samples divided by the run's calibration slowdown.
fn untraced_run(
    opts: &Options,
    layout: Layout,
    golden: &mut Option<Golden>,
    tally: &mut Tally,
) -> Measured {
    let mut host = Calibrator::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        host.sample();
        let started = Instant::now();
        let generated = opts.workload.input.generate(opts.seed);
        // Warm-up: page in the allocator and thread stacks. Its outcome
        // is not an operation; a broken run shows in the measured ones.
        let _ = repetition(&generated, layout, false);
        setup_s.push(started.elapsed().as_secs_f64());
        inputs = Some(generated);
    }
    let inputs = inputs.expect("SETUPS >= 1");

    let mut wall_s = Vec::new();
    let measuring = Instant::now();
    while wall_s.len() < MIN_REPETITIONS || measuring.elapsed().as_secs_f64() < opts.seconds {
        host.sample();
        if let Some(rep) = checked_repetition(&inputs, layout, false, golden, tally) {
            wall_s.push(rep.wall_s);
        } else if wall_s.is_empty() && tally.failed >= MIN_REPETITIONS {
            break; // nothing runs; the caller reports the errors
        }
    }
    let mut readings = Readings::new();
    let slowdown = host.slowdown();
    readings.insert(
        "wall_s".into(),
        Reading::calibrated_min_of(wall_s, slowdown),
    );
    readings.insert(
        "setup_s".into(),
        Reading::calibrated_min_of(setup_s, slowdown),
    );
    let (wire, tracked) = golden.as_ref().map_or((0, 0), |g| {
        (g.wire.iter().sum::<u64>(), tracked_peak_bytes(&g.profile))
    });
    readings.insert("wire_bytes".into(), Reading::single(wire as f64));
    readings.insert("tracked_peak_bytes".into(), Reading::single(tracked as f64));
    Measured {
        inputs,
        readings,
        trace: None,
        host: Some(host),
    }
}

/// Per-layer run: after one warm-up, alternate untraced and traced
/// repetitions for `--seconds`; the untraced walls are the base of
/// `trace.overhead_ratio`. Kernel probes run last.
fn traced_run(
    opts: &Options,
    layout: Layout,
    golden: &mut Option<Golden>,
    tally: &mut Tally,
) -> Measured {
    let inputs = opts.workload.input.generate(opts.seed);
    let _ = repetition(&inputs, layout, false);

    let mut untraced_wall = Vec::new();
    let mut traced_wall = Vec::new();
    let mut per_rep: Vec<Vec<(String, f64)>> = Vec::new();
    let mut last_trace = None;
    let measuring = Instant::now();
    while per_rep.len() < MIN_TRACED_PAIRS || measuring.elapsed().as_secs_f64() < opts.seconds {
        if let Some(rep) = checked_repetition(&inputs, layout, false, golden, tally) {
            untraced_wall.push(rep.wall_s);
        }
        if let Some(rep) = checked_repetition(&inputs, layout, true, golden, tally) {
            traced_wall.push(rep.wall_s);
            per_rep.push(layer_readings(&inputs, &rep));
            last_trace = Some(rep.trace);
        } else if per_rep.is_empty() && tally.failed >= MIN_TRACED_PAIRS {
            break; // nothing runs; the caller reports the errors
        }
    }

    let mut readings = Readings::new();
    let names: Vec<String> = per_rep
        .first()
        .map(|first| first.iter().map(|(name, _)| name.clone()).collect())
        .unwrap_or_default();
    for (i, name) in names.into_iter().enumerate() {
        let samples = per_rep.iter().map(|rep| rep[i].1).collect();
        readings.insert(name, Reading::median_of(samples));
    }
    // Minima, as for `wall_s`: host interference only ever adds time.
    let untraced = Reading::min_of(untraced_wall);
    let traced = Reading::min_of(traced_wall);
    let overhead = ratio(traced.value, untraced.value);
    readings.insert("trace.untraced_wall_s".into(), untraced);
    readings.insert("trace.traced_wall_s".into(), traced);
    readings.insert("trace.overhead_ratio".into(), Reading::single(overhead));
    // Read before the probes run: their buffers are not the workload's.
    let peak_rss = host::peak_rss_bytes().unwrap_or(0);
    readings.insert(
        "mem.peak_rss_bytes".into(),
        Reading::single(peak_rss as f64),
    );

    let xdrop = probes::xdrop_rates();
    for (kernel, rate) in [
        ("bitparallel", xdrop.bitparallel),
        ("scalar", xdrop.scalar),
        ("greedy", xdrop.greedy),
    ] {
        readings.insert(
            format!("align.xdrop_ext_per_s.{kernel}"),
            Reading::single(rate),
        );
    }
    readings.insert(
        "sparse.local_spgemm_flops_per_s".into(),
        Reading::single(probes::local_spgemm_flops_per_s()),
    );
    match probes::pingpong(layout.backend) {
        Ok((alpha, beta)) => {
            readings.insert("comm.alpha_s".into(), Reading::single(alpha));
            readings.insert("comm.beta_Bps".into(), Reading::single(beta));
        }
        Err(failure) => {
            tally.attempted += 1;
            tally.fail(format!("ping-pong probe failed: {failure}"));
        }
    }
    Measured {
        inputs,
        readings,
        trace: last_trace,
        host: None,
    }
}

/// The most bytes any rank's memory tracker held at once: the number a
/// `--mem-budget` is checked against. An exact count for given inputs.
fn tracked_peak_bytes(profile: &RunProfile) -> u64 {
    profile
        .merged_mem()
        .phases()
        .map(|(_, high_water)| high_water)
        .max()
        .unwrap_or(0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of one traced repetition: span self times, the
/// counts the stage calls returned, and the per-phase profile.
fn layer_readings(inputs: &Inputs, rep: &Repetition) -> Vec<(String, f64)> {
    let trace = &rep.trace;
    let counts = &rep.counts;
    let no_counts = StageCounts::default();
    let first = counts.first().unwrap_or(&no_counts);
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| out.push((name.to_owned(), value));

    // seq
    let count_kmers_s = trace.self_s("seq.count_kmers");
    put("seq.read_store_s", trace.self_s("seq.read_store"));
    put("seq.count_kmers_s", count_kmers_s);
    put("seq.build_a_triples_s", trace.self_s("seq.build_a_triples"));
    put("seq.read_exchange_s", trace.self_s("seq.read_exchange"));
    let kmers_scanned = match inputs {
        Inputs::Reads(r) => r
            .reads
            .iter()
            .map(|read| (read.len() + 1).saturating_sub(r.cfg.kmer.k) as f64)
            .sum(),
        Inputs::Chains(_) => 0.0,
    };
    put("seq.kmers_scanned", kmers_scanned);
    put("seq.kmers_per_s", ratio(kmers_scanned, count_kmers_s));
    put("seq.reliable_kmers", first.reliable_kmers as f64);
    let a_nnz: usize = counts.iter().map(|c| c.a_cols.len()).sum();
    put("seq.a_nnz", a_nnz as f64);
    let peak = counts.iter().map(|c| c.exchange_peak_bytes).max();
    put("seq.exchange_peak_bytes", peak.unwrap_or(0) as f64);

    // sparse: flops of C = A·Aᵀ are Σₖ colnnz(k)², from A's triples.
    let candidate_matrix_s = trace.self_s("graph.candidate_matrix");
    let mut cols: Vec<u64> = counts
        .iter()
        .flat_map(|c| c.a_cols.iter().copied())
        .collect();
    cols.sort_unstable();
    let flops: f64 = cols
        .chunk_by(|a, b| a == b)
        .map(|run| (run.len() as f64).powi(2))
        .sum();
    put("sparse.from_triples_s", trace.self_s("sparse.from_triples"));
    put("sparse.candidate_flops", flops);
    put("sparse.candidate_nnz", first.candidate_nnz as f64);
    put(
        "sparse.compression_ratio",
        ratio(flops, first.candidate_nnz as f64),
    );
    put("sparse.flops_per_s", ratio(flops, candidate_matrix_s));

    // graph
    let align_s = trace.self_s("graph.align_and_classify");
    put("graph.candidate_matrix_s", candidate_matrix_s);
    put("graph.align_and_classify_s", align_s);
    put("graph.overlap_graph_s", trace.self_s("graph.overlap_graph"));
    put("graph.tr_s", trace.self_s("graph.tr"));
    put("graph.symmetrize_s", trace.self_s("graph.symmetrize"));
    put(
        "graph.tr_iterations",
        first.reduction.map_or(0.0, |r| r.iterations as f64),
    );
    put(
        "graph.tr_removed",
        first.reduction.map_or(0.0, |r| r.removed as f64),
    );
    put("graph.string_graph_nnz", first.string_graph_nnz as f64);

    // align
    let a = first.align;
    put("align.candidate_pairs", a.candidate_pairs as f64);
    put("align.chains_extended", a.chains_extended as f64);
    put("align.seeds_skipped", a.seeds_skipped as f64);
    put(
        "align.pairs_per_s",
        ratio(a.candidate_pairs as f64, align_s),
    );
    put(
        "align.skip_ratio",
        ratio(
            a.seeds_skipped as f64,
            (a.seeds_skipped + a.chains_extended) as f64,
        ),
    );
    put(
        "align.useful_ratio",
        ratio((a.dovetails + a.contained) as f64, a.candidate_pairs as f64),
    );

    // core
    put(
        "core.contig_generation_s",
        trace.total_s("core.contig_generation"),
    );
    for step in [
        "branch_removal",
        "connected_components",
        "partition",
        "induced_subgraph",
        "local_assembly",
        "gather_contigs",
    ] {
        put(
            &format!("core.{step}_s"),
            trace.self_s(&format!("core.{step}")),
        );
    }
    put("core.cc_rounds", first.contig.cc_rounds as f64);
    put("core.branch_vertices", first.contig.branch_vertices as f64);
    put("core.components", first.contig.n_components as f64);
    put("core.imbalance", first.contig.imbalance);

    // comm / par / mem, per paper phase (sub-phases folded in)
    for (family, _) in PHASE_FAMILIES {
        for phase in PAPER_PHASES {
            put(
                &format!("{family}.{phase}"),
                phase_reading(&rep.profile, family, phase),
            );
        }
    }
    put("trace.coverage", trace.coverage(rep.wall_s));
    out
}

/// One per-phase profile metric: bytes and messages summed over ranks,
/// times taken on the slowest rank, memory as the profile's high-water.
fn phase_reading(profile: &RunProfile, family: &str, phase: &str) -> f64 {
    if family == "mem.hw_bytes" {
        return profile.max_mem_hw(phase) as f64;
    }
    let per_rank = profile.rank_profiles().iter().map(|rank| {
        rank.phases()
            .filter(|(name, _)| in_phase(name, phase))
            .map(|(_, p)| match family {
                "comm.bytes" => p.bytes_sent() as f64,
                "comm.msgs" => (p.p2p_msgs + p.coll_calls()) as f64,
                "comm.comm_s" => p.comm_secs,
                "comm.wait_s" => p.wait_secs,
                "par.par_s" => p.par_secs,
                other => unreachable!("unknown phase family {other}"),
            })
            .sum::<f64>()
    });
    match family {
        "comm.bytes" | "comm.msgs" => per_rank.sum(),
        _ => per_rank.fold(0.0, f64::max),
    }
}

fn better_label(better: Better) -> &'static str {
    match better {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

fn report(
    opts: &Options,
    measured: &Measured,
    golden: &Golden,
    quality: &Quality,
    tally: &Tally,
    defs: &[MetricDef],
) -> Outcome {
    let workload = &opts.workload;
    let Measured {
        inputs,
        readings,
        trace,
        host,
    } = measured;
    let mut contract_metrics = Vec::new();
    let mut document_metrics = Vec::new();
    for def in defs {
        let reading = readings.get(&def.name);
        let value = reading.map_or(0.0, |r| r.value);
        contract_metrics.push((
            def.name.clone(),
            Json::obj([("value", Json::from(value)), ("unit", Json::str(def.unit))]),
        ));
        let mut fields = vec![
            ("value".to_owned(), Json::from(value)),
            ("unit".to_owned(), Json::str(def.unit)),
            ("better".to_owned(), Json::str(better_label(def.better))),
        ];
        if let Some(summary) = reading.and_then(|r| Summary::of(&r.samples)) {
            fields.extend([
                ("n".to_owned(), Json::from(summary.n)),
                ("min".to_owned(), Json::from(summary.min)),
                ("q1".to_owned(), Json::from(summary.q1)),
                ("median".to_owned(), Json::from(summary.median)),
                ("q3".to_owned(), Json::from(summary.q3)),
                ("max".to_owned(), Json::from(summary.max)),
            ]);
            let samples = reading.map_or(&[][..], |r| &r.samples);
            fields.push((
                "samples".to_owned(),
                Json::Arr(samples.iter().map(|&s| Json::from(s)).collect()),
            ));
        }
        document_metrics.push((def.name.clone(), Json::Obj(fields)));
    }
    let correct = tally.failed == 0;
    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        ("metrics", Json::Obj(contract_metrics)),
    ]);

    let cores = host::available_parallelism();
    let reads = inputs.reads();
    let mut document = vec![
        ("schema".to_owned(), Json::str("elba-perf/1")),
        ("workload".to_owned(), Json::str(workload.name)),
        ("why".to_owned(), Json::str(workload.why)),
        ("seed".to_owned(), Json::from(opts.seed)),
        ("traced".to_owned(), Json::from(opts.traced)),
        ("seconds".to_owned(), Json::from(opts.seconds)),
        ("host".to_owned(), host::host_block()),
        (
            "layout".to_owned(),
            Json::obj([
                ("ranks", Json::from(workload.ranks)),
                ("threads", Json::from(workload.threads)),
                ("backend", Json::str(workload.backend_label())),
                (
                    "oversubscribed",
                    Json::from(workload.busy_threads() > cores),
                ),
            ]),
        ),
        (
            "inputs".to_owned(),
            Json::obj([
                ("reads", Json::from(reads.len())),
                (
                    "bases",
                    Json::from(reads.iter().map(|r| r.len()).sum::<usize>()),
                ),
                (
                    "fingerprint",
                    Json::str(format!("{:016x}", inputs.fingerprint())),
                ),
            ]),
        ),
        (
            "outputs".to_owned(),
            Json::obj([
                ("contig_hash", Json::str(format!("{:016x}", golden.hash))),
                (
                    "wire_bytes_per_rank",
                    Json::Arr(golden.wire.iter().map(|&b| Json::from(b)).collect()),
                ),
                ("contigs", Json::from(quality.n_contigs)),
                ("assembled_bp", Json::from(quality.assembled_bp)),
                ("completeness_pct", Json::from(quality.completeness_pct)),
                (
                    "completeness_floor",
                    Json::from(workload.completeness_floor),
                ),
                ("ng50_bp", Json::from(quality.ng50_bp)),
                (
                    "misassembled_contigs",
                    Json::from(quality.misassembled_contigs),
                ),
            ]),
        ),
        (
            "peak_rss_bytes".to_owned(),
            Json::from(host::peak_rss_bytes().unwrap_or(0)),
        ),
        ("correct".to_owned(), Json::from(correct)),
        ("attempted".to_owned(), Json::from(tally.attempted)),
        ("failed".to_owned(), Json::from(tally.failed)),
        (
            "fail_ratio".to_owned(),
            Json::from(ratio(tally.failed as f64, tally.attempted as f64)),
        ),
        (
            "errors".to_owned(),
            Json::Arr(tally.errors.iter().map(Json::str).collect()),
        ),
        ("phase_wall_s".to_owned(), phase_walls(&golden.profile)),
        ("metrics".to_owned(), Json::Obj(document_metrics)),
    ];
    if let Some(host) = host {
        document.push(("calibration".to_owned(), calibration_json(host)));
    }
    if let Some(trace) = trace {
        document.push(("spans".to_owned(), spans_json(trace)));
    }
    Outcome {
        document: Json::Obj(document),
        result,
    }
}

/// What `wall_s` and `setup_s` were divided by, and from which samples.
fn calibration_json(host: &Calibrator) -> Json {
    let mut fields = vec![
        ("nominal_s", Json::from(NOMINAL_S)),
        ("slowdown", Json::from(host.slowdown())),
    ];
    if let Some(summary) = Summary::of(&host.samples) {
        fields.extend([
            ("n", Json::from(summary.n)),
            ("min_s", Json::from(summary.min)),
            ("median_s", Json::from(summary.median)),
            ("max_s", Json::from(summary.max)),
        ]);
    }
    Json::obj(fields)
}

fn spans_json(trace: &Trace) -> Json {
    Json::Arr(
        trace
            .ranks
            .iter()
            .flatten()
            .map(|span| {
                Json::obj([
                    ("name", Json::str(span.name)),
                    ("rank", Json::from(span.rank)),
                    ("start_s", Json::from(span.start_s)),
                    ("end_s", Json::from(span.end_s)),
                    ("parent", span.parent.map_or(Json::Null, Json::from)),
                ])
            })
            .collect(),
    )
}

/// Max-over-ranks wall of each paper phase, from the run's first profile.
fn phase_walls(profile: &RunProfile) -> Json {
    Json::obj(
        PAPER_PHASES
            .iter()
            .map(|phase| (*phase, Json::from(profile.max_wall(phase)))),
    )
}
