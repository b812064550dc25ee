//! The six named workloads. Sizes are tuned for roughly a second per
//! repetition on the 2-core development host; the shapes (which layer
//! carries the wall) are what each workload exists for.

use elba_comm::Backend;

use crate::inputs::{ChainSpec, Dataset, InputSpec};

/// No workload may run more busy threads than this (ranks × threads):
/// beyond 2:1 oversubscription of the 2-core host a wall time measures
/// the OS scheduler, not this code.
pub const MAX_BUSY_THREADS: usize = 4;

/// A second configuration of the same inputs whose contigs and per-rank
/// wire bytes the workload's own must equal (knob transparency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub backend: Backend,
    pub threads: usize,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layer carries the wall here, and why that matters.
    pub why: &'static str,
    pub ranks: usize,
    pub threads: usize,
    pub backend: Backend,
    pub input: InputSpec,
    /// A repetition whose `completeness_pct` falls under this fails.
    pub completeness_floor: f64,
    pub reference: Option<Reference>,
    /// Whether `BENCHMARK.json` lists the workload, i.e. whether the
    /// driver holds later changes to its bounds.
    pub gated: bool,
}

impl Workload {
    pub fn busy_threads(&self) -> usize {
        self.ranks * self.threads
    }

    /// The harness refuses to start a workload that would oversubscribe
    /// the host beyond [`MAX_BUSY_THREADS`].
    pub fn check_size(&self) -> Result<(), String> {
        if self.busy_threads() > MAX_BUSY_THREADS {
            return Err(format!(
                "workload {}: {} ranks x {} threads exceeds the {MAX_BUSY_THREADS}-thread cap",
                self.name, self.ranks, self.threads
            ));
        }
        Ok(())
    }

    pub fn backend_label(&self) -> &'static str {
        match self.backend {
            Backend::InProcess => "inprocess",
            Backend::Socket => "socket",
        }
    }
}

pub fn all() -> Vec<Workload> {
    let hifi = InputSpec::Reads {
        dataset: Dataset::CelegansLike,
        scale: 0.12,
        chromosomes: 1,
        greedy: false,
    };
    let greedy = InputSpec::Reads {
        dataset: Dataset::CelegansLike,
        scale: 0.25,
        chromosomes: 4,
        greedy: true,
    };
    vec![
        Workload {
            name: "hifi_p1t1",
            why: "single-threaded baseline: x-drop alignment with chaining is ~85% of wall, no communication",
            ranks: 1,
            threads: 1,
            backend: Backend::InProcess,
            input: hifi.clone(),
            completeness_floor: 90.0,
            reference: None,
            gated: true,
        },
        Workload {
            name: "hifi_p1t2",
            why: "same reads on 1 rank x 2 threads: only elba-par differs from hifi_p1t1, and it fits the 2 cores",
            ranks: 1,
            threads: 2,
            backend: Backend::InProcess,
            input: hifi,
            completeness_floor: 90.0,
            reference: Some(Reference {
                backend: Backend::InProcess,
                threads: 1,
            }),
            // Two busy threads on a shared 2-vCPU host: when the host
            // co-schedules the vCPUs on one physical core (episodes of
            // ~45 s were seen) the wall jumps 40 % with no change in the
            // code, which no bound up to the contract's 25 % survives.
            gated: false,
        },
        Workload {
            name: "noisy_p1t1",
            why: "15% error reads (k=17, x=7): short low-identity extensions and many rejected seeds stress alignment differently",
            ranks: 1,
            threads: 1,
            backend: Backend::InProcess,
            input: InputSpec::Reads {
                dataset: Dataset::HsapiensLike,
                scale: 0.08,
                chromosomes: 8,
                greedy: false,
            },
            completeness_floor: 45.0,
            reference: None,
            gated: true,
        },
        Workload {
            name: "greedy_p4",
            why: "greedy extension on 4 ranks: SUMMA overlap detection and the k-mer exchange carry the wall, alignment under 15%",
            ranks: 4,
            threads: 1,
            backend: Backend::InProcess,
            input: greedy.clone(),
            completeness_floor: 75.0,
            reference: None,
            gated: true,
        },
        Workload {
            name: "greedy_p4_socket",
            why: "greedy_p4 over socket frames: only the transport differs, so the wire codec and frame pump do the added work",
            ranks: 4,
            threads: 1,
            backend: Backend::Socket,
            input: greedy,
            completeness_floor: 75.0,
            reference: Some(Reference {
                backend: Backend::InProcess,
                threads: 1,
            }),
            // Host interference comes in episodes of 10 to 45 s, so a
            // run has to measure for longer than one to report a clean
            // minimum, and the driver's time cap pays for runs that long
            // on four workloads only. This one differs from `greedy_p4`
            // in the transport alone, and the run itself already checks
            // that its contigs and per-rank wire bytes equal the
            // in-process ones, so it is the one that gives way.
            gated: false,
        },
        Workload {
            name: "contig_chains_p4",
            why: "Algorithm 2 alone on a synthetic chain graph: transitive reduction and contig generation do all the work, alignment none",
            ranks: 4,
            threads: 1,
            backend: Backend::InProcess,
            input: InputSpec::Chains(ChainSpec {
                chromosomes: 2000,
                reads_per_chromosome: 150,
                read_len: 120,
                stride: 30,
                false_edges: 40,
            }),
            completeness_floor: 90.0,
            reference: None,
            gated: true,
        },
    ]
}

pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_fits_the_thread_cap_and_has_a_unique_name() {
        let workloads = all();
        assert_eq!(workloads.len(), 6);
        for (i, w) in workloads.iter().enumerate() {
            w.check_size().expect("within cap");
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(workloads[..i].iter().all(|o| o.name != w.name));
            assert_eq!(find(w.name).map(|f| f.ranks), Some(w.ranks));
        }
    }

    #[test]
    fn oversized_workload_is_refused() {
        let mut w = find("greedy_p4").expect("exists");
        w.threads = 2;
        assert!(w.check_size().is_err());
    }
}
