//! Multi-tenant assembly serving: many jobs over a shared pool of
//! supervised rank groups (`elba serve`).
//!
//! The paper's lineage assumes one assembly per machine allocation; the
//! serving layer multiplexes many. Three pieces:
//!
//! * [`JobSpec`] — what to assemble (a FASTA file or a simulated-genome
//!   spec), under which per-job [`MemBudget`], optionally with an
//!   injected [`FaultPlan`]. The one serialized form is the job-file
//!   line `elba serve` parses.
//! * `Scheduler` — a FIFO admission queue with budget-based admission
//!   control: a job is admitted only while the aggregate of admitted
//!   budgets stays within the host cap; an over-cap submission is
//!   rejected with a typed [`SubmitError`] at submit time.
//! * `GroupPool` — N worker groups, each running admitted jobs through
//!   the backend-generic [`Runner`]. PR 9's supervision is what makes
//!   the pool tractable: a dead rank surfaces as a typed
//!   [`elba_comm::SpmdFailure`], never a hung group, so per-job failure
//!   handling is "mark the job failed, recycle the group". Each job gets
//!   a fresh mesh, so recycling is free — a failed job cannot poison the
//!   next.
//!
//! [`Server`] bundles the three behind `start / submit / wait / drain`;
//! the scheduler and the pool are reachable only through it.
//!
//! ## Admission rule
//!
//! Every job declares a whole-job memory claim (`budget_bytes`; `0`
//! means unbudgeted). With a host cap of `C` bytes:
//!
//! * a job claiming more than `C` is **rejected** at submit
//!   ([`SubmitError::BudgetExceedsHostCap`]);
//! * otherwise the job **queues** until `admitted + claim ≤ C`, where
//!   `admitted` sums the claims of running jobs — strictly FIFO, so a
//!   large job cannot be starved by small ones overtaking it;
//! * an unbudgeted job is charged the whole cap `C` (the conservative
//!   reading: it may use anything), which serializes it against every
//!   budgeted job.
//!
//! With no host cap, every submission is admitted as soon as a group is
//! free. The peak of `admitted` is tracked and exposed
//! ([`Server::peak_admitted_bytes`]) so tests and operators can assert
//! the invariant: **aggregate admitted budgets never exceed the cap**.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use elba_comm::{Backend, FaultPlan, ProcGrid, RunProfile, Runner};
use elba_mem::MemBudget;
use elba_quality::{evaluate, QualityConfig, QualityReport};
use elba_seq::fasta::read_fasta;
use elba_seq::{DatasetSpec, ReadTooLong, Seq};

use crate::assembly::Contig;
use crate::pipeline::{assemble_gathered, PipelineConfig};

// ---------------------------------------------------------------------
// Job specs
// ---------------------------------------------------------------------

/// What a job assembles.
#[derive(Debug, Clone, PartialEq)]
pub enum JobInput {
    /// Reads from a FASTA file, resolved on the serving host.
    FastaPath(String),
    /// A simulated dataset: `dataset` is one of `celegans`, `osativa`,
    /// `hsapiens` (the Table 2 stand-ins), scaled by `scale` and seeded
    /// by `seed`. The reference genome is regenerated on the worker, so
    /// completed sim jobs carry a [`QualityReport`].
    Sim {
        dataset: String,
        scale: f64,
        seed: u64,
    },
}

/// One assembly job: input, per-job memory claim, optional fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Caller-chosen job name, echoed in results and logs.
    pub name: String,
    pub input: JobInput,
    /// Whole-job memory claim in bytes; `0` = unbudgeted (charged as the
    /// full host cap under admission control). The pipeline runs under a
    /// per-rank [`MemBudget`] of `budget_bytes / group_ranks`.
    pub budget_bytes: u64,
    /// Optional fault plan injected below this job's comm layer
    /// ([`FaultPlan::parse`] syntax). The plan kills ranks *of this
    /// job's group only*; the server survives and recycles the group.
    pub fault: Option<String>,
}

impl JobSpec {
    /// A simulated-genome job with no budget and no faults.
    pub fn sim(name: &str, dataset: &str, scale: f64, seed: u64) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            input: JobInput::Sim {
                dataset: dataset.to_string(),
                scale,
                seed,
            },
            budget_bytes: 0,
            fault: None,
        }
    }

    /// Set the whole-job memory claim.
    pub fn budget(mut self, bytes: u64) -> JobSpec {
        self.budget_bytes = bytes;
        self
    }

    /// Attach a fault plan ([`FaultPlan::parse`] syntax).
    pub fn with_fault(mut self, plan: &str) -> JobSpec {
        self.fault = Some(plan.to_string());
        self
    }

    /// Resolve a sim input's [`DatasetSpec`]; `None` for FASTA jobs,
    /// error for a dataset [`DatasetSpec::by_name`] refuses to build.
    fn dataset_spec(&self) -> Result<Option<DatasetSpec>, String> {
        match &self.input {
            JobInput::FastaPath(_) => Ok(None),
            JobInput::Sim {
                dataset,
                scale,
                seed,
            } => DatasetSpec::by_name(dataset, *scale, *seed).map(Some),
        }
    }
}

// ---------------------------------------------------------------------
// Job lifecycle
// ---------------------------------------------------------------------

/// Identifies a submitted job within its server. Monotonic per server.
pub type JobId = u64;

/// Why a submission was refused. Typed so callers can distinguish
/// "misconfigured job" from "try later" without string matching.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The job's claim can never fit: it exceeds the host cap outright.
    BudgetExceedsHostCap { requested: u64, cap: u64 },
    /// `JobSpec::fault` failed [`FaultPlan::parse`], or names a rank
    /// outside the job's group ([`FaultPlan::check_ranks`]).
    InvalidFaultPlan(String),
    /// A sim input's dataset cannot be built: an unknown name, or a
    /// scale outside what [`DatasetSpec::by_name`] accepts.
    InvalidDataset(String),
    /// The server is draining; no new jobs.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::BudgetExceedsHostCap { requested, cap } => write!(
                f,
                "job budget {requested} B exceeds the host cap {cap} B: \
                 the job can never be admitted"
            ),
            SubmitError::InvalidFaultPlan(e) => write!(f, "invalid fault plan: {e}"),
            SubmitError::InvalidDataset(e) => write!(f, "{e}"),
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// How a finished job ended.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    Completed {
        /// Gathered contigs (rank 0's view; identical on every rank).
        contigs: Vec<Contig>,
        /// Table 4 metrics against the known reference — sim jobs only
        /// (a FASTA job has no reference to evaluate against).
        report: Option<QualityReport>,
        /// Per-rank phase/volume profiles — the per-job billing record.
        profile: RunProfile,
        n_reads: usize,
    },
    Failed {
        /// Human-readable primary cause (rank and classification for
        /// SPMD failures, I/O or validation text otherwise).
        error: String,
        /// The failure was an injected [`FaultPlan`] kill — expected
        /// chaos, not an organic fault.
        killed_by_fault: bool,
    },
}

/// Terminal record for one job.
#[derive(Debug, Clone)]
pub struct JobResult {
    pub id: JobId,
    pub name: String,
    pub outcome: JobOutcome,
    /// Submit → admission (queue wait).
    pub queued_secs: f64,
    /// Admission → terminal state (run time on the group).
    pub run_secs: f64,
}

impl JobResult {
    /// Completed successfully?
    pub fn completed(&self) -> bool {
        matches!(self.outcome, JobOutcome::Completed { .. })
    }

    /// Submit → terminal latency, the number the p50/p99 summaries use.
    pub fn latency_secs(&self) -> f64 {
        self.queued_secs + self.run_secs
    }
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

struct JobEntry {
    spec: JobSpec,
    /// Parsed at submit so workers never re-validate.
    plan: Option<FaultPlan>,
    /// Admission charge in bytes (claim, or the whole cap if unbudgeted).
    charge: u64,
    submitted: Instant,
    admitted: Option<Instant>,
    result: Option<JobResult>,
}

#[derive(Default)]
struct SchedulerState {
    jobs: Vec<JobEntry>,
    /// FIFO of queued job ids; only the head is ever considered for
    /// admission (no overtaking → no starvation of large jobs).
    queue: VecDeque<JobId>,
    /// Sum of charges of currently admitted (running) jobs.
    admitted_bytes: u64,
    /// High-water of `admitted_bytes` over the server's lifetime.
    peak_admitted_bytes: u64,
    closed: bool,
}

/// FIFO + budget admission queue. See the [module docs](self) for the
/// admission rule. Shared between submitters and the [`GroupPool`]
/// workers; all methods take `&self`.
struct Scheduler {
    host_cap: Option<u64>,
    /// Ranks per group: the world a job's fault plan must stay inside.
    group_ranks: usize,
    state: Mutex<SchedulerState>,
    /// Signaled on submit, admission, completion, and close.
    cv: Condvar,
}

impl Scheduler {
    /// A scheduler admitting against `host_cap` total bytes
    /// ([`MemBudget::unlimited`] = no admission control) for groups of
    /// `group_ranks` ranks.
    fn new(host_cap: MemBudget, group_ranks: usize) -> Scheduler {
        Scheduler {
            host_cap: host_cap.total(),
            group_ranks,
            state: Mutex::new(SchedulerState::default()),
            cv: Condvar::new(),
        }
    }

    /// Validate and enqueue a job. Returns its id, or a typed
    /// [`SubmitError`] — over-cap claims are rejected here, at the door.
    fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        let plan = match &spec.fault {
            None => None,
            Some(raw) => Some(
                FaultPlan::parse(raw)
                    .and_then(|plan| plan.check_ranks(self.group_ranks).map(|()| plan))
                    .map_err(SubmitError::InvalidFaultPlan)?,
            ),
        };
        spec.dataset_spec().map_err(SubmitError::InvalidDataset)?;
        let charge = match self.host_cap {
            None => spec.budget_bytes,
            Some(cap) => {
                if spec.budget_bytes > cap {
                    return Err(SubmitError::BudgetExceedsHostCap {
                        requested: spec.budget_bytes,
                        cap,
                    });
                }
                if spec.budget_bytes == 0 {
                    cap
                } else {
                    spec.budget_bytes
                }
            }
        };
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(SubmitError::ShuttingDown);
        }
        let id = st.jobs.len() as JobId;
        st.jobs.push(JobEntry {
            spec,
            plan,
            charge,
            submitted: Instant::now(),
            admitted: None,
            result: None,
        });
        st.queue.push_back(id);
        self.cv.notify_all();
        Ok(id)
    }

    /// Highest aggregate of admitted charges observed so far. The
    /// admission invariant is `peak_admitted_bytes() ≤ host_cap`.
    fn peak_admitted_bytes(&self) -> u64 {
        self.state.lock().unwrap().peak_admitted_bytes
    }

    /// Stop admitting; wake every waiter so workers can drain out.
    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    /// Worker side: block until the FIFO head fits under the cap, then
    /// admit it. `None` once the scheduler is closed and drained.
    fn take_next(&self) -> Option<(JobId, JobSpec, Option<FaultPlan>)> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(&id) = st.queue.front() {
                let charge = st.jobs[id as usize].charge;
                let fits = match self.host_cap {
                    None => true,
                    Some(cap) => st.admitted_bytes + charge <= cap,
                };
                if fits {
                    st.queue.pop_front();
                    st.admitted_bytes += charge;
                    st.peak_admitted_bytes = st.peak_admitted_bytes.max(st.admitted_bytes);
                    let entry = &mut st.jobs[id as usize];
                    entry.admitted = Some(Instant::now());
                    return Some((id, entry.spec.clone(), entry.plan.clone()));
                }
            } else if st.closed {
                return None;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Worker side: record a terminal outcome and release the charge.
    fn complete(&self, id: JobId, outcome: JobOutcome) {
        let mut st = self.state.lock().unwrap();
        let entry = &mut st.jobs[id as usize];
        let admitted = entry.admitted.expect("completing a job never admitted");
        entry.result = Some(JobResult {
            id,
            name: entry.spec.name.clone(),
            outcome,
            queued_secs: (admitted - entry.submitted).as_secs_f64(),
            run_secs: admitted.elapsed().as_secs_f64(),
        });
        let charge = entry.charge;
        st.admitted_bytes -= charge;
        self.cv.notify_all();
    }

    /// Block until `id` reaches a terminal state; returns its result.
    /// Panics on an unknown id (a programming error, not a job failure).
    fn wait(&self, id: JobId) -> JobResult {
        let mut st = self.state.lock().unwrap();
        loop {
            assert!((id as usize) < st.jobs.len(), "unknown job id {id}");
            if let Some(result) = &st.jobs[id as usize].result {
                return result.clone();
            }
            st = self.cv.wait(st).unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// Group pool
// ---------------------------------------------------------------------

/// Pool geometry + backend: how many rank groups serve jobs, how many
/// ranks each group runs, and which message plane carries them.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent rank groups (worker slots).
    pub groups: usize,
    /// Ranks per group; must be a perfect square (the pipeline runs on a
    /// √P×√P [`ProcGrid`]).
    pub group_ranks: usize,
    /// Message plane for every group.
    pub backend: Backend,
    /// Host-wide memory cap for admission control.
    pub host_cap: MemBudget,
    /// Intra-rank worker threads per rank (the pipeline `--threads` knob).
    pub threads: usize,
}

impl Default for ServeConfig {
    /// One single-rank in-process group, no cap, serial ranks.
    fn default() -> Self {
        ServeConfig {
            groups: 1,
            group_ranks: 1,
            backend: Backend::InProcess,
            host_cap: MemBudget::unlimited(),
            threads: 1,
        }
    }
}

/// The fixed pool of supervised worker groups. Each group is a thread
/// that pulls admitted jobs from the [`Scheduler`] and runs them through
/// a fresh [`Runner`] mesh; a job death ([`elba_comm::SpmdFailure`]) marks
/// that job failed and the group moves on — recycled, never wedged.
struct GroupPool {
    workers: Vec<std::thread::JoinHandle<()>>,
    recycled: Arc<std::sync::atomic::AtomicUsize>,
}

impl GroupPool {
    /// Spawn `cfg.groups` worker groups draining `scheduler`.
    fn start(cfg: &ServeConfig, scheduler: Arc<Scheduler>) -> GroupPool {
        assert!(cfg.groups > 0, "pool needs at least one group");
        let q = (cfg.group_ranks as f64).sqrt().round() as usize;
        assert!(
            cfg.group_ranks > 0 && q * q == cfg.group_ranks,
            "group_ranks must be a positive perfect square, got {}",
            cfg.group_ranks
        );
        let recycled = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let workers = (0..cfg.groups)
            .map(|g| {
                let scheduler = Arc::clone(&scheduler);
                let cfg = cfg.clone();
                let recycled = Arc::clone(&recycled);
                std::thread::Builder::new()
                    .name(format!("serve-group-{g}"))
                    .spawn(move || {
                        while let Some((id, spec, plan)) = scheduler.take_next() {
                            let outcome = run_job(&cfg, &spec, plan.as_ref());
                            if matches!(outcome, JobOutcome::Failed { .. }) {
                                recycled.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            scheduler.complete(id, outcome);
                        }
                    })
                    .expect("failed to spawn serve group")
            })
            .collect();
        GroupPool { workers, recycled }
    }

    /// Groups recycled so far (= jobs that ended [`JobOutcome::Failed`]).
    fn recycled(&self) -> usize {
        self.recycled.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Wait for every group to drain out (the scheduler must be closed,
    /// or this blocks forever).
    fn join(self) {
        for handle in self.workers {
            // A worker panicking outside run_job's catch is a server bug;
            // surface it instead of silently dropping the group.
            handle.join().expect("serve group panicked");
        }
    }
}

/// Run one job on a fresh mesh. Every failure path — bad input, rank
/// death, even a panic escaping the harness — lands in
/// [`JobOutcome::Failed`]; nothing a job does takes the server down.
fn run_job(cfg: &ServeConfig, spec: &JobSpec, plan: Option<&FaultPlan>) -> JobOutcome {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_job_inner(cfg, spec, plan)
    }));
    match outcome {
        Ok(outcome) => outcome,
        Err(payload) => JobOutcome::Failed {
            error: format!(
                "group panicked outside the SPMD harness: {}",
                panic_message(&payload)
            ),
            killed_by_fault: false,
        },
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_job_inner(cfg: &ServeConfig, spec: &JobSpec, plan: Option<&FaultPlan>) -> JobOutcome {
    // Load input + pick pipeline parameters.
    let (reads, reference, mut pipeline_cfg) = match &spec.input {
        JobInput::FastaPath(path) => {
            let file = match std::fs::File::open(path) {
                Ok(f) => f,
                Err(e) => {
                    return JobOutcome::Failed {
                        error: format!("cannot open reads '{path}': {e}"),
                        killed_by_fault: false,
                    }
                }
            };
            match read_fasta(std::io::BufReader::new(file)) {
                Ok(records) => {
                    let reads: Vec<Seq> = records.into_iter().map(|r| r.seq).collect();
                    if let Err(too_long) = ReadTooLong::check_all(&reads) {
                        return JobOutcome::Failed {
                            error: format!("reads '{path}': {too_long}"),
                            killed_by_fault: false,
                        };
                    }
                    (reads, None, PipelineConfig::default())
                }
                Err(e) => {
                    return JobOutcome::Failed {
                        error: format!("cannot parse reads '{path}': {e}"),
                        killed_by_fault: false,
                    }
                }
            }
        }
        JobInput::Sim { .. } => {
            let spec_ds = spec
                .dataset_spec()
                .expect("validated at submit")
                .expect("sim input has a dataset");
            let (genome, sim_reads) = spec_ds.generate();
            let reads: Vec<Seq> = sim_reads.into_iter().map(|r| r.seq).collect();
            let cfg = PipelineConfig::for_dataset(&spec_ds);
            (reads, Some(genome), cfg)
        }
    };
    if spec.budget_bytes > 0 {
        // The claim is whole-job; each of the group's ranks gets an even
        // share as its pipeline budget.
        let per_rank = (spec.budget_bytes / cfg.group_ranks as u64).max(1);
        pipeline_cfg = pipeline_cfg.with_mem_budget(MemBudget::bytes(per_rank));
    }
    pipeline_cfg = pipeline_cfg.with_threads(cfg.threads);

    let mut runner = Runner::new(cfg.backend).ranks(cfg.group_ranks);
    if let Some(plan) = plan {
        runner = runner.faults(plan);
    }
    let n_reads = reads.len();
    let run = {
        let pipeline_cfg = pipeline_cfg.clone();
        runner.try_run_profiled(move |comm| {
            let grid = ProcGrid::new(comm);
            assemble_gathered(&grid, &reads, &pipeline_cfg)
        })
    };
    match run {
        Ok((mut outputs, profile)) => {
            let (contigs, _result) = outputs.remove(0);
            let report = reference.as_ref().map(|genome| {
                let seqs: Vec<Seq> = contigs.iter().map(|c| c.seq.clone()).collect();
                evaluate(genome, &seqs, &QualityConfig::default())
            });
            JobOutcome::Completed {
                contigs,
                report,
                profile,
                n_reads,
            }
        }
        Err(failure) => JobOutcome::Failed {
            error: failure.to_string(),
            killed_by_fault: matches!(failure.primary().cause, elba_comm::FailureCause::Killed(_)),
        },
    }
}

// ---------------------------------------------------------------------
// Server facade
// ---------------------------------------------------------------------

/// The serving façade: a scheduler plus a running group pool.
///
/// ```
/// use elba_core::serve::{JobSpec, ServeConfig, Server};
///
/// let server = Server::start(ServeConfig::default());
/// let id = server.submit(JobSpec::sim("tiny", "celegans", 0.02, 7)).unwrap();
/// let result = server.wait(id);
/// assert!(result.completed());
/// let results = server.drain();
/// assert_eq!(results.len(), 1);
/// ```
pub struct Server {
    scheduler: Arc<Scheduler>,
    pool: GroupPool,
}

impl Server {
    /// Start the pool; the server accepts jobs until [`Server::drain`].
    pub fn start(cfg: ServeConfig) -> Server {
        let scheduler = Arc::new(Scheduler::new(cfg.host_cap, cfg.group_ranks));
        let pool = GroupPool::start(&cfg, Arc::clone(&scheduler));
        Server { scheduler, pool }
    }

    /// Validate and enqueue a job; see the [module docs](self) for the
    /// admission rule. Over-cap claims are rejected here, at the door.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        self.scheduler.submit(spec)
    }

    /// Block until `id` finishes; returns its result.
    pub fn wait(&self, id: JobId) -> JobResult {
        self.scheduler.wait(id)
    }

    /// Highest aggregate of admitted budget charges observed. The
    /// admission invariant: this never exceeds [`ServeConfig::host_cap`].
    pub fn peak_admitted_bytes(&self) -> u64 {
        self.scheduler.peak_admitted_bytes()
    }

    /// Groups recycled after job deaths so far.
    pub fn groups_recycled(&self) -> usize {
        self.pool.recycled()
    }

    /// Stop admitting, run every queued job to completion, shut the pool
    /// down, and return every job's result in submission order.
    pub fn drain(self) -> Vec<JobResult> {
        self.scheduler.close();
        self.pool.join();
        let st = self.scheduler.state.lock().unwrap();
        st.jobs
            .iter()
            .map(|j| j.result.clone().expect("drained job has a result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_validates_before_queueing() {
        let sched = Scheduler::new(MemBudget::unlimited(), 4);
        for plan in ["explode:9", "kill:4@phase:Alignment", "sever:0-4"] {
            let bad_plan = JobSpec::sim("bad", "celegans", 0.1, 1).with_fault(plan);
            assert!(
                matches!(
                    sched.submit(bad_plan),
                    Err(SubmitError::InvalidFaultPlan(_))
                ),
                "{plan}"
            );
        }
        let bad_dataset = JobSpec::sim("bad", "klebsiella", 0.1, 1);
        assert!(matches!(
            sched.submit(bad_dataset),
            Err(SubmitError::InvalidDataset(_))
        ));
    }

    #[test]
    fn unbudgeted_jobs_charge_the_whole_cap() {
        let sched = Scheduler::new(MemBudget::bytes(100), 1);
        let id = sched
            .submit(JobSpec::sim("greedy", "celegans", 0.02, 1))
            .unwrap();
        let st = sched.state.lock().unwrap();
        assert_eq!(st.jobs[id as usize].charge, 100);
    }
}
