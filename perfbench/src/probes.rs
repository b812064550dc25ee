//! Kernel-rate probes that ride along with a traced run: one fixed
//! x-drop batch per extension kernel, one fixed local SpGEMM, and a
//! two-rank ping-pong on the workload's transport. Inputs are fixed (not
//! derived from `--seed`) so the rates compare across workloads and runs.

use std::hint::black_box;
use std::time::Instant;

use elba_align::{extend_seed_greedy, extend_seed_with, Scoring, XdropKernel, XdropWorkspace};
use elba_comm::{Backend, Comm, Runner};
use elba_sparse::semiring::PlusTimes;
use elba_sparse::{Csr, SpGemmBatcher};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::median;

const PROBE_ITERS: usize = 5;

fn time_median(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..PROBE_ITERS)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Seed extensions per second of each extension kernel.
pub struct XdropRates {
    pub bitparallel: f64,
    pub scalar: f64,
    pub greedy: f64,
}

/// 256 pairs of 2 kb reads overlapping by 1.2 kb with ~1 % substitutions,
/// each extended from one mid-overlap seed.
pub fn xdrop_rates() -> XdropRates {
    const PAIRS: usize = 256;
    const K: usize = 17;
    const XDROP: i32 = 25;
    let mut rng = StdRng::seed_from_u64(19);
    let genome: Vec<u8> = (0..40_000).map(|_| rng.gen_range(0..4u8)).collect();
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..PAIRS)
        .map(|_| {
            let start = rng.gen_range(0..genome.len() - 3_000);
            let mut u = genome[start..start + 2_000].to_vec();
            let v = genome[start + 800..start + 2_800].to_vec();
            for _ in 0..20 {
                let at = rng.gen_range(0..u.len());
                // keep the seed itself exact
                if !(1_000..1_000 + K).contains(&at) {
                    u[at] = (u[at] + 1) % 4;
                }
            }
            (u, v)
        })
        .collect();
    let rate = |extend: &mut dyn FnMut(&[u8], &[u8]) -> i32| {
        let secs = time_median(|| {
            for (u, v) in &pairs {
                black_box(extend(black_box(u), black_box(v)));
            }
        });
        PAIRS as f64 / secs
    };
    let dp = |kernel: XdropKernel| {
        let mut ws = XdropWorkspace::with_kernel(kernel);
        rate(&mut |u, v| {
            extend_seed_with(&mut ws, u, v, 1_000, 200, K, XDROP, Scoring::default()).score
        })
    };
    let bitparallel = dp(XdropKernel::BitParallel);
    let scalar = dp(XdropKernel::Scalar);
    let mut ws = XdropWorkspace::default();
    let greedy = rate(&mut |u, v| {
        extend_seed_greedy(&mut ws, u, v, 1_000, 200, K, XDROP, Scoring::default()).score
    });
    XdropRates {
        bitparallel,
        scalar,
        greedy,
    }
}

/// Single-threaded flops per second of `A · Aᵀ` on one reads × k-mers
/// shaped block (3000 × 8000, 20 nonzeros a row) through
/// `SpGemmBatcher::multiply_rows_par` — the kernel inside every SUMMA
/// stage. A flop is one semiring multiply.
pub fn local_spgemm_flops_per_s() -> f64 {
    const ROWS: usize = 3_000;
    const COLS: usize = 8_000;
    let mut rng = StdRng::seed_from_u64(7);
    let mut triples = Vec::with_capacity(ROWS * 20);
    for r in 0..ROWS {
        for _ in 0..20 {
            triples.push((r as u32, rng.gen_range(0..COLS as u32), 1.0f64));
        }
    }
    let a = Csr::from_triples(ROWS, COLS, triples, |acc, v| *acc += v);
    let at = a.clone().transpose();
    let flops: f64 = (0..at.nrows())
        .map(|k| (at.row_nnz(k) as f64).powi(2))
        .sum();
    let secs = time_median(|| {
        let mut batcher = SpGemmBatcher::new(&a, &at, &PlusTimes).with_threads(1);
        black_box(batcher.multiply_rows_par(0..a.nrows(), 0..at.ncols() as u32));
    });
    flops / secs
}

/// Latency `alpha_s` (half a small-message round trip) and bandwidth
/// `beta_Bps` (4 MiB payloads) between two ranks on `backend`.
pub fn pingpong(backend: Backend) -> Result<(f64, f64), String> {
    let (out, _) = Runner::new(backend)
        .ranks(2)
        .try_run_profiled(|comm| pingpong_rank(&comm))
        .map_err(|failure| failure.to_string())?;
    Ok(out[0])
}

fn pingpong_rank(comm: &Comm) -> (f64, f64) {
    const SMALL_ITERS: usize = 512;
    const BIG_ITERS: usize = 8;
    const BIG_LEN: usize = 4 << 20;
    if comm.rank() == 0 {
        comm.send(1, 0, 1u64);
        let _ = comm.recv::<u64>(1, 0); // warm both directions
        let started = Instant::now();
        for i in 0..SMALL_ITERS {
            comm.send(1, 1, i as u64);
            let _ = comm.recv::<u64>(1, 1);
        }
        let alpha = started.elapsed().as_secs_f64() / SMALL_ITERS as f64 / 2.0;
        let big = vec![7u8; BIG_LEN];
        comm.send(1, 2, big.clone());
        let _ = comm.recv::<u64>(1, 2); // fault in buffers once
        let started = Instant::now();
        for _ in 0..BIG_ITERS {
            comm.send(1, 3, big.clone());
            let _ = comm.recv::<u64>(1, 3);
        }
        let per_round = started.elapsed().as_secs_f64() / BIG_ITERS as f64;
        // A round is the payload out plus an 8-byte ack back.
        let beta = BIG_LEN as f64 / (per_round - 2.0 * alpha).max(1e-9);
        (alpha, beta)
    } else {
        let _ = comm.recv::<u64>(0, 0);
        comm.send(0, 0, 0u64);
        for _ in 0..SMALL_ITERS {
            let v = comm.recv::<u64>(0, 1);
            comm.send(0, 1, v);
        }
        let _ = comm.recv::<Vec<u8>>(0, 2);
        comm.send(0, 2, 0u64);
        for _ in 0..BIG_ITERS {
            let _ = comm.recv::<Vec<u8>>(0, 3);
            comm.send(0, 3, 0u64);
        }
        (0.0, 0.0)
    }
}
