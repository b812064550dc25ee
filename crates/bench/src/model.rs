//! α–β (Hockney) machine model used to project the recorded communication
//! trace of a laptop-scale run onto the paper's machine configurations
//! (Cori Haswell, Summit CPU; Table 1) and rank counts (576–4096).
//!
//! The projection is deliberately simple and documented, because its job
//! is to reproduce the *shape* of Figs. 4–6 — parallel efficiency falling
//! with P as latency-bound phases stop scaling — not absolute numbers:
//!
//! ```text
//! T_phase(P) = compute_secs · (P_meas / P)            // perfect strong scaling
//!            + max(0, coll_calls · α · log2(P)        // latency term
//!                    + (total_bytes / P) / β          // bandwidth term
//!                    − overlap(P))                    // overlap credit
//! overlap(P) = min(wait_secs, compute_secs) · (P_meas / P)
//! ```
//!
//! `compute_secs` is measured wall time minus time blocked in
//! communication; `coll_calls` and `total_bytes` come straight from the
//! [`elba_comm::profile`] trace ([`observe`]). The latency term grows
//! with P while the other two shrink — exactly the behaviour the paper
//! reports for the `TrReduction` and `ExtractContig` phases ("the amount
//! of work is smaller ... and the algorithms are latency-bound", §6.1).
//!
//! The *overlap credit* refines the earlier model, which charged time
//! parked in non-blocking `wait`s fully as communication. A phase that
//! drives its transfers through requests (the SUMMA stages' `irecv`s)
//! can hide them behind local work; the k-mer stage's blocking
//! `alltoallv` rounds book no wait time and earn no credit. The hideable
//! share demonstrated by the trace is bounded both by the time actually
//! spent blocked
//! (`wait_secs` — transfer that *was* exposed and is overlappable) and
//! by the compute available to hide it, hence
//! `min(wait_secs, compute_secs)`. The credit is scaled like the compute
//! term (hiding capacity strong-scales away with local work) and the
//! communication term is floored at zero so the credit can never project
//! negative transfer time.

use elba_comm::RunProfile;

/// Condensed per-phase measurements extracted from a [`RunProfile`].
#[derive(Debug, Clone)]
pub struct PhaseObservation {
    pub phase: String,
    /// Max-over-ranks wall seconds at the measured rank count.
    pub wall_secs: f64,
    /// Wall seconds minus communication-blocked seconds.
    pub compute_secs: f64,
    /// Max-over-ranks seconds blocked in non-blocking request `wait`s —
    /// the exposed (non-overlapped) share of the phase's non-blocking
    /// communication, which the projection may credit as hideable.
    pub wait_secs: f64,
    /// Mean collective invocations per rank.
    pub coll_calls_per_rank: f64,
    /// Total bytes pushed by all ranks during the phase.
    pub total_bytes: f64,
}

/// Condense one phase of a profiled run into what the projection consumes.
pub fn observe(profile: &RunProfile, phase: &str) -> PhaseObservation {
    let max_wall = profile.max_wall(phase);
    let max_wait = profile.max_wait_secs(phase);
    let max_comm = profile.max_comm_secs(phase) + max_wait;
    PhaseObservation {
        phase: phase.to_owned(),
        wall_secs: max_wall,
        compute_secs: (max_wall - max_comm).max(0.0),
        wait_secs: max_wait,
        coll_calls_per_rank: profile.mean_coll_calls(phase),
        total_bytes: profile.total_bytes(phase) as f64,
    }
}

/// Interconnect + node parameters for the projection.
///
/// Values are representative published figures for the two machines in the
/// paper's Table 1, not measurements of this repository.
#[derive(Debug, Clone)]
pub struct MachineModel {
    pub name: &'static str,
    /// Point-to-point latency in seconds.
    pub alpha: f64,
    /// Per-rank effective bandwidth in bytes/second.
    pub beta: f64,
    /// Relative single-core compute speed (Cori Haswell = 1.0). The paper
    /// observes Summit's per-core alignment throughput is lower because
    /// the x-drop kernel lacks POWER9 SIMD.
    pub compute_speed: f64,
    /// Ranks per node used in the paper's runs (32 on both machines).
    pub ranks_per_node: usize,
}

impl MachineModel {
    /// Cray XC40 Aries dragonfly: ~1.3 µs latency, ~10 GB/s injection per
    /// node shared by 32 ranks.
    pub fn cori_haswell() -> Self {
        MachineModel {
            name: "Cori Haswell",
            alpha: 1.3e-6,
            beta: 10e9 / 32.0,
            compute_speed: 1.0,
            ranks_per_node: 32,
        }
    }

    /// Summit fat-tree (EDR InfiniBand): ~1.5 µs latency, ~23 GB/s per node
    /// shared by 32 used ranks; slower per-core alignment (no AVX2).
    pub fn summit_cpu() -> Self {
        MachineModel {
            name: "Summit CPU",
            alpha: 1.5e-6,
            beta: 23e9 / 32.0,
            compute_speed: 0.55,
            ranks_per_node: 32,
        }
    }

    /// Projected wall seconds of one phase at `target_ranks`, given an
    /// observation made at `measured_ranks`.
    pub fn project_phase(
        &self,
        obs: &PhaseObservation,
        measured_ranks: usize,
        target_ranks: usize,
    ) -> f64 {
        assert!(measured_ranks > 0 && target_ranks > 0);
        let p = target_ranks as f64;
        let scale = measured_ranks as f64 / p;
        let compute = obs.compute_secs / self.compute_speed * scale;
        let latency = obs.coll_calls_per_rank * self.alpha * p.log2().max(1.0);
        let bandwidth = (obs.total_bytes / p) / self.beta;
        // Measured overlap credit: see the module docs. Scales with the
        // compute that hides it and can never drive communication below
        // zero.
        let overlap = obs.wait_secs.min(obs.compute_secs) / self.compute_speed * scale;
        compute + (latency + bandwidth - overlap).max(0.0)
    }

    /// Project a whole pipeline (sum over phases) at `target_ranks`.
    pub fn project_total(
        &self,
        observations: &[PhaseObservation],
        measured_ranks: usize,
        target_ranks: usize,
    ) -> f64 {
        observations
            .iter()
            .map(|obs| self.project_phase(obs, measured_ranks, target_ranks))
            .sum()
    }

    /// Parallel efficiency of a strong-scaling series relative to its first
    /// point: `e(Pᵢ) = T(P₀)·P₀ / (T(Pᵢ)·Pᵢ)`.
    pub fn parallel_efficiency(ranks: &[usize], times: &[f64]) -> Vec<f64> {
        assert_eq!(ranks.len(), times.len());
        if ranks.is_empty() {
            return Vec::new();
        }
        let base = times[0] * ranks[0] as f64;
        ranks
            .iter()
            .zip(times)
            .map(|(&p, &t)| base / (t * p as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(compute: f64, calls: f64, bytes: f64) -> PhaseObservation {
        PhaseObservation {
            phase: "x".into(),
            wall_secs: compute,
            compute_secs: compute,
            wait_secs: 0.0,
            coll_calls_per_rank: calls,
            total_bytes: bytes,
        }
    }

    #[test]
    fn compute_bound_phase_scales_nearly_linearly() {
        let m = MachineModel::cori_haswell();
        let o = obs(100.0, 10.0, 1e6);
        let t576 = m.project_phase(&o, 16, 576);
        let t1152 = m.project_phase(&o, 16, 1152);
        let ratio = t576 / t1152;
        assert!(ratio > 1.9 && ratio <= 2.0, "ratio={ratio}");
    }

    #[test]
    fn latency_bound_phase_stops_scaling() {
        let m = MachineModel::cori_haswell();
        // Tiny compute, many collective calls: time should *grow* with P.
        let o = obs(1e-4, 1e5, 1e3);
        let small = m.project_phase(&o, 16, 64);
        let large = m.project_phase(&o, 16, 4096);
        assert!(large > small, "latency term must dominate at scale");
    }

    #[test]
    fn summit_slower_compute() {
        let cori = MachineModel::cori_haswell();
        let summit = MachineModel::summit_cpu();
        let o = obs(50.0, 1.0, 1.0);
        assert!(
            summit.project_phase(&o, 16, 576) > cori.project_phase(&o, 16, 576),
            "paper: ELBA is faster on Cori than Summit"
        );
    }

    #[test]
    fn efficiency_baseline_is_one() {
        let eff = MachineModel::parallel_efficiency(&[18, 32, 128], &[10.0, 6.0, 2.0]);
        assert!((eff[0] - 1.0).abs() < 1e-12);
        assert!(eff[1] < 1.0 && eff[1] > 0.9);
    }

    #[test]
    fn overlap_credit_reduces_projection() {
        let m = MachineModel::cori_haswell();
        let blocking = obs(10.0, 100.0, 1e9);
        let overlapped = PhaseObservation {
            wait_secs: 0.02,
            ..blocking.clone()
        };
        let t_block = m.project_phase(&blocking, 16, 576);
        let t_over = m.project_phase(&overlapped, 16, 576);
        assert!(
            t_over < t_block,
            "measured overlap must credit the projection: {t_over} vs {t_block}"
        );
        // The credit is capped by min(wait, compute): more wait than
        // compute earns nothing extra.
        let capped = PhaseObservation {
            compute_secs: 0.01,
            wait_secs: 50.0,
            ..blocking.clone()
        };
        let uncapped_equiv = PhaseObservation {
            compute_secs: 0.01,
            wait_secs: 0.01,
            ..blocking
        };
        let a = m.project_phase(&capped, 16, 576);
        let b = m.project_phase(&uncapped_equiv, 16, 576);
        assert!((a - b).abs() < 1e-12, "credit must cap at compute_secs");
    }

    #[test]
    fn overlap_credit_never_projects_negative_comm() {
        let m = MachineModel::cori_haswell();
        // Huge wait + huge compute, tiny actual traffic: the credit
        // would wipe out the comm terms many times over; total must
        // floor at the compute term alone.
        let o = PhaseObservation {
            phase: "x".into(),
            wall_secs: 200.0,
            compute_secs: 100.0,
            wait_secs: 100.0,
            coll_calls_per_rank: 1.0,
            total_bytes: 8.0,
        };
        let t = m.project_phase(&o, 16, 64);
        let compute_term = 100.0 * 16.0 / 64.0;
        assert!((t - compute_term).abs() < 1e-9, "t={t}");
    }

    #[test]
    fn zero_wait_matches_unrefined_formula() {
        let m = MachineModel::summit_cpu();
        let o = obs(42.0, 7.0, 5e8);
        let p = 1152f64;
        let by_hand =
            42.0 / m.compute_speed * 16.0 / p + 7.0 * m.alpha * p.log2() + (5e8 / p) / m.beta;
        let t = m.project_phase(&o, 16, 1152);
        assert!((t - by_hand).abs() < 1e-12);
    }

    #[test]
    fn project_total_sums_phases() {
        let m = MachineModel::cori_haswell();
        let obs_list = vec![obs(10.0, 1.0, 1e3), obs(20.0, 1.0, 1e3)];
        let total = m.project_total(&obs_list, 16, 64);
        let by_hand: f64 = obs_list.iter().map(|o| m.project_phase(o, 16, 64)).sum();
        assert!((total - by_hand).abs() < 1e-12);
    }
}
