//! Multi-tenant assembly serving: many jobs over a shared pool of
//! supervised rank groups (`elba serve`).
//!
//! The paper's lineage assumes one assembly per machine allocation; the
//! serving layer multiplexes many. A job is an `elba assemble` argument
//! list: [`AssembleJob::parse`] checks it against the group's rank
//! count, and the group runs it with the same [`AssembleJob`] steps as
//! `elba assemble`, so a served job writes the `--out` the command line
//! would. Two pieces sit behind [`Server`]'s `start / submit / wait /
//! drain`:
//!
//! * `Scheduler` — a FIFO admission queue with budget-based admission
//!   control: a job is admitted only while the aggregate of admitted
//!   claims stays within the host cap; a job that cannot run is
//!   rejected with a typed [`SubmitError`] at submit time.
//! * `GroupPool` — N worker groups, each running admitted jobs through
//!   the backend-generic [`elba_comm::Runner`]. A dead rank surfaces as
//!   a typed [`elba_comm::SpmdFailure`], never a hung group, so per-job
//!   failure handling is "mark the job failed, recycle the group". Each
//!   job gets a fresh mesh, so a failed job cannot poison the next.
//!
//! ## Admission rule
//!
//! A job's claim is its per-rank `--mem-budget` times the group's
//! ranks. With a host cap of `C` bytes:
//!
//! * a job claiming more than `C` is **rejected** at submit
//!   ([`SubmitError::BudgetExceedsHostCap`]);
//! * otherwise the job **queues** until `admitted + claim ≤ C`, where
//!   `admitted` sums the claims of running jobs — strictly FIFO, so a
//!   large job cannot be starved by small ones overtaking it;
//! * a job without `--mem-budget` is charged the whole cap `C` (the
//!   conservative reading: it may use anything), which serializes it
//!   against every budgeted job.
//!
//! With no host cap, every submission is admitted as soon as a group is
//! free. The peak of `admitted` is tracked and exposed
//! ([`Server::peak_admitted_bytes`]) so tests and operators can assert
//! the invariant: **aggregate admitted claims never exceed the cap**.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use elba_comm::{Backend, FailureCause, RunProfile};
use elba_mem::MemBudget;

use crate::assembly::Contig;
use crate::job::{require_square, AssembleJob};

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
    /// [`AssembleJob::parse`] refused the arguments: a malformed or
    /// unknown flag, a fault plan naming a rank outside the group, or a
    /// `--ranks` other than the group's.
    InvalidJob(String),
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
            SubmitError::InvalidJob(e) => write!(f, "invalid job: {e}"),
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// How a finished job ended.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    Completed {
        /// Gathered contigs (rank 0's view; identical on every rank),
        /// as assembled: `--out` holds the scaffolds of a
        /// `--scaffold true` job.
        contigs: Vec<Contig>,
        /// Per-rank phase/volume profiles — the per-job billing record.
        profile: RunProfile,
    },
    Failed {
        /// Human-readable primary cause (rank and classification for
        /// SPMD failures, I/O text otherwise).
        error: String,
        /// The failure was an injected `--fault` kill — expected
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
    name: String,
    /// Parsed at submit so workers never re-validate.
    job: AssembleJob,
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
    /// Ranks per group: the world every job runs on.
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
    /// [`SubmitError`] — invalid jobs and over-cap claims are rejected
    /// here, at the door.
    fn submit<S: AsRef<str>>(&self, name: &str, args: &[S]) -> Result<JobId, SubmitError> {
        let job =
            AssembleJob::parse(args, Some(self.group_ranks)).map_err(SubmitError::InvalidJob)?;
        let claim = job
            .cfg
            .mem_budget
            .total()
            .map_or(0, |per_rank| per_rank.saturating_mul(job.ranks as u64));
        let charge = match self.host_cap {
            None => claim,
            Some(cap) if claim > cap => {
                return Err(SubmitError::BudgetExceedsHostCap {
                    requested: claim,
                    cap,
                })
            }
            Some(cap) if claim == 0 => cap,
            Some(_) => claim,
        };
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(SubmitError::ShuttingDown);
        }
        let id = st.jobs.len() as JobId;
        st.jobs.push(JobEntry {
            name: name.to_owned(),
            job,
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
    fn take_next(&self) -> Option<(JobId, AssembleJob)> {
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
                    return Some((id, entry.job.clone()));
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
            name: entry.name.clone(),
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
    /// √P×√P [`elba_comm::ProcGrid`]).
    pub group_ranks: usize,
    /// Message plane for every group.
    pub backend: Backend,
    /// Host-wide memory cap for admission control.
    pub host_cap: MemBudget,
}

impl Default for ServeConfig {
    /// One single-rank in-process group, no cap.
    fn default() -> Self {
        ServeConfig {
            groups: 1,
            group_ranks: 1,
            backend: Backend::InProcess,
            host_cap: MemBudget::unlimited(),
        }
    }
}

/// The fixed pool of supervised worker groups. Each group is a thread
/// that pulls admitted jobs from the [`Scheduler`] and runs them through
/// a fresh [`elba_comm::Runner`] mesh; a job death ([`elba_comm::SpmdFailure`]) marks
/// that job failed and the group moves on — recycled, never wedged.
struct GroupPool {
    workers: Vec<std::thread::JoinHandle<()>>,
    recycled: Arc<std::sync::atomic::AtomicUsize>,
}

impl GroupPool {
    /// Spawn `cfg.groups` worker groups draining `scheduler`.
    fn start(cfg: &ServeConfig, scheduler: Arc<Scheduler>) -> GroupPool {
        assert!(cfg.groups > 0, "pool needs at least one group");
        if let Err(e) = require_square("group_ranks", cfg.group_ranks) {
            panic!("{e}");
        }
        let recycled = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let workers = (0..cfg.groups)
            .map(|g| {
                let scheduler = Arc::clone(&scheduler);
                let backend = cfg.backend;
                let recycled = Arc::clone(&recycled);
                std::thread::Builder::new()
                    .name(format!("serve-group-{g}"))
                    .spawn(move || {
                        while let Some((id, job)) = scheduler.take_next() {
                            let outcome = run_job(backend, &job);
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
fn run_job(backend: Backend, job: &AssembleJob) -> JobOutcome {
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job_inner(backend, job)));
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

/// The job's three [`AssembleJob`] steps, as `elba assemble` runs them.
fn run_job_inner(backend: Backend, job: &AssembleJob) -> JobOutcome {
    let failed = |error: String| JobOutcome::Failed {
        error,
        killed_by_fault: false,
    };
    let reads = match job.read_reads() {
        Ok(reads) => reads,
        Err(e) => return failed(e.to_string()),
    };
    match job.run(backend, reads) {
        Ok(((contigs, _result), profile)) => match job.write_outputs(&contigs) {
            Ok(_) => JobOutcome::Completed { contigs, profile },
            Err(e) => failed(e),
        },
        Err(failure) => JobOutcome::Failed {
            error: failure.to_string(),
            killed_by_fault: matches!(failure.primary().cause, FailureCause::Killed(_)),
        },
    }
}

// ---------------------------------------------------------------------
// Server facade
// ---------------------------------------------------------------------

/// The serving façade: a scheduler plus a running group pool.
///
/// ```
/// use elba_core::job::write_seqs;
/// use elba_core::serve::{ServeConfig, Server};
/// use elba_seq::{DatasetSpec, Seq};
///
/// let dir = std::env::temp_dir().join(format!("elba-serve-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir).unwrap();
/// let reads = dir.join("reads.fa").to_str().unwrap().to_owned();
/// let out = dir.join("contigs.fa").to_str().unwrap().to_owned();
/// let (_genome, sim) = DatasetSpec::celegans_like(0.02, 7).generate();
/// let seqs: Vec<Seq> = sim.into_iter().map(|r| r.seq).collect();
/// write_seqs(&reads, "read_", &seqs).unwrap();
///
/// let server = Server::start(ServeConfig::default());
/// let id = server.submit("tiny", &["--reads", &reads, "--out", &out]).unwrap();
/// assert!(server.wait(id).completed());
/// assert!(std::path::Path::new(&out).exists());
/// assert_eq!(server.drain().len(), 1);
/// std::fs::remove_dir_all(&dir).unwrap();
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

    /// Validate and enqueue the job `args` describe, `elba assemble`'s
    /// flags run on one group; see the [module docs](self) for the
    /// admission rule. Invalid jobs and over-cap claims are rejected
    /// here, at the door.
    pub fn submit<S: AsRef<str>>(&self, name: &str, args: &[S]) -> Result<JobId, SubmitError> {
        self.scheduler.submit(name, args)
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

    fn args(line: &str) -> Vec<&str> {
        line.split_whitespace().collect()
    }

    #[test]
    fn submit_validates_before_queueing() {
        let sched = Scheduler::new(MemBudget::unlimited(), 4);
        for bad in [
            "--fault explode:9",
            "--fault kill:4@phase:Alignment",
            "--fault sever:0-4",
            "--k 0",
            "--ranks 1",
            "--sim celegans",
        ] {
            let line = format!("--reads r.fa --out o.fa {bad}");
            assert!(
                matches!(
                    sched.submit("bad", &args(&line)),
                    Err(SubmitError::InvalidJob(_))
                ),
                "{bad}"
            );
        }
        assert!(sched.state.lock().unwrap().jobs.is_empty());
    }

    #[test]
    fn a_claim_is_the_rank_budget_times_the_group_and_unbudgeted_jobs_charge_the_whole_cap() {
        let sched = Scheduler::new(MemBudget::bytes(100 << 20), 4);
        let budgeted = sched
            .submit(
                "budgeted",
                &args("--reads r.fa --out a.fa --mem-budget 16M"),
            )
            .unwrap();
        let unbudgeted = sched
            .submit("greedy", &args("--reads r.fa --out b.fa"))
            .unwrap();
        assert_eq!(
            sched.submit("big", &args("--reads r.fa --out c.fa --mem-budget 26M")),
            Err(SubmitError::BudgetExceedsHostCap {
                requested: 104 << 20,
                cap: 100 << 20,
            })
        );
        let st = sched.state.lock().unwrap();
        assert_eq!(st.jobs[budgeted as usize].charge, 64 << 20);
        assert_eq!(st.jobs[unbudgeted as usize].charge, 100 << 20);
    }
}
