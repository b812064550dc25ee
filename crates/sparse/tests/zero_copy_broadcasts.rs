//! Proof that the SUMMA stage transfers are zero-copy: a value type
//! that counts its `Clone` calls flows through every distributed
//! schedule, and the count must not move during the multiply — stage
//! panels travel as `Arc` clones of the owners' resident blocks (no
//! root-side pack, no per-child deep copy), and the local kernels build
//! outputs from references. The symmetric product's direct fetch ships
//! `Arc`s too; the only values it clones are the ones its holders and
//! diagonal ranks transpose.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};

use elba_comm::{Backend, Comm, Runner};
use elba_comm::{CommMsg, ProcGrid};
use elba_sparse::semiring::Semiring;
use elba_sparse::{DistMat, SpGemmAlgorithm};

use common::{max_stage_bytes, schedule_rows, N_ROWS};

/// Total `Tick::clone` calls across all rank threads.
static CLONES: AtomicUsize = AtomicUsize::new(0);

#[derive(Debug, PartialEq)]
struct Tick(u64);

impl Clone for Tick {
    fn clone(&self) -> Self {
        CLONES.fetch_add(1, Ordering::Relaxed);
        Tick(self.0)
    }
}

impl CommMsg for Tick {
    fn nbytes(&self) -> usize {
        8
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.0.wire_encode(out);
    }

    fn wire_decode(
        r: &mut elba_comm::transport::wire::WireReader<'_>,
    ) -> Result<Self, elba_comm::transport::wire::WireError> {
        Ok(Tick(u64::wire_decode(r)?))
    }
}

/// Plus-times over `Tick`, building every product from references — any
/// clone observed during a multiply therefore comes from payload
/// copying in the schedule, not from the semiring.
struct TickPlusTimes;

impl Semiring for TickPlusTimes {
    type A = Tick;
    type B = Tick;
    type Out = Tick;

    fn multiply(&self, a: &Tick, b: &Tick) -> Option<Tick> {
        Some(Tick(a.0 * b.0))
    }

    fn add(&self, acc: &mut Tick, other: Tick) {
        acc.0 += other.0;
    }
}

/// One schedule-matrix row's product on one rank: (label, clones
/// observed during the multiply, checksum of the local block).
type Row = (String, usize, u64);

/// Every row of the schedule matrix in one SPMD run, each product in its
/// own profile phase: per row the general product and then the symmetric
/// one (flagged when budgeted), plus the values this rank's symmetric
/// fetch transposes per round.
fn schedule_matrix(comm: Comm) -> (Vec<Row>, Vec<(Row, bool)>, usize) {
    let grid = ProcGrid::new(comm);
    let (n, k) = (30usize, 24usize);
    let triples: Vec<(u64, u64, Tick)> = if grid.world().rank() == 0 {
        (0..n)
            .flat_map(|r| {
                (0..4).map(move |i| {
                    (
                        r as u64,
                        ((r * 7 + i * 5) % k) as u64,
                        Tick(1 + (r % 3) as u64),
                    )
                })
            })
            .collect()
    } else {
        Vec::new()
    };
    let a = DistMat::from_triples(&grid, n, k, triples, |acc, v: Tick| acc.0 += v.0);
    // Building Aᵀ clones values (the transpose exchange owns copies);
    // the claim under test starts at the multiply.
    let at = a.transpose(&grid);
    let mut general = Vec::new();
    let mut upper = Vec::new();
    for (label, opts) in schedule_rows(4 << 10, max_stage_bytes(&grid, &a, &at)) {
        for symmetric in [false, true] {
            let _phase = grid.world().phase(&format!("{label} {symmetric}"));
            grid.world().barrier();
            let before = CLONES.load(Ordering::SeqCst);
            let c = if symmetric {
                a.spgemm_aat_upper_with(&grid, &TickPlusTimes, &opts, |_, _, _| true)
            } else {
                a.spgemm_with(&grid, &at, &TickPlusTimes, &opts)
            };
            grid.world().barrier();
            let after = CLONES.load(Ordering::SeqCst);
            let checksum: u64 = c.local().values().iter().map(|t| t.0).sum();
            let row = (label.clone(), after - before, checksum);
            if symmetric {
                let budgeted = matches!(
                    opts.algorithm,
                    SpGemmAlgorithm::Pipelined {
                        mem_budget: Some(_)
                    }
                );
                upper.push((row, budgeted));
            } else {
                general.push(row);
            }
        }
    }
    // A holder transposes its block when it has column destinations or
    // is on the diagonal, and a diagonal rank transposes every row
    // operand it receives.
    let nnz = grid.world().allgather(a.local().nnz());
    let (i, j) = (grid.myrow(), grid.mycol());
    let holder = if i > 0 || i == j {
        nnz[grid.world().rank()]
    } else {
        0
    };
    let received: usize = (0..grid.q())
        .filter(|&s| i == j && s != i)
        .map(|s| nnz[grid.rank_of(i, s)])
        .sum();
    (general, upper, holder + received)
}

/// One test on purpose: `CLONES` is process-global, so a second test
/// cloning `Tick`s on another harness thread would leak into the
/// before/after window measured here.
#[test]
fn summa_schedules_deep_copy_no_payloads_and_agree() {
    for p in [4usize, 9] {
        let (per_rank, profile) = Runner::new(Backend::InProcess)
            .ranks(p)
            .run_profiled(schedule_matrix);
        let mut sums = Vec::new();
        for row in 0..N_ROWS {
            let label = &per_rank[0].0[row].0;
            let cloned: usize = per_rank.iter().map(|rank| rank.0[row].1).sum();
            assert_eq!(
                cloned, 0,
                "p={p} {label}: {cloned} payload deep-copies during the multiply"
            );
            let total: u64 = per_rank.iter().map(|rank| rank.0[row].2).sum();
            assert!(total > 0, "p={p} {label}: product must be non-trivial");
            sums.push(total);
        }
        // The no-clone semiring computes the same product under every
        // schedule.
        assert!(sums.windows(2).all(|w| w[0] == w[1]), "p={p}: {sums:?}");

        // The symmetric product: its fetch ships `Arc`s too, so the only
        // clones are its transposes, once per round.
        let q = (p as f64).sqrt() as usize;
        let transfers = q * q * q - q * (q + 1) / 2;
        let per_round: usize = per_rank.iter().map(|rank| rank.2).sum();
        let mut sums = Vec::new();
        for row in 0..N_ROWS {
            let ((label, _, _), budgeted) = &per_rank[0].1[row];
            let phase = format!("{label} true");
            let sends: u64 = profile
                .rank_profiles()
                .iter()
                .map(|rank| rank.phase(&phase).expect("phase recorded").p2p_msgs)
                .sum();
            // A budgeted product's estimate pass is one more round of
            // (structure-only) sends.
            let rounds = sends as usize / transfers - usize::from(*budgeted);
            // `CLONES` is global and each rank reads it between two
            // barriers; the first rank to read `before` does so before
            // any rank clones, so the largest difference is the run's.
            let cloned = per_rank
                .iter()
                .map(|rank| rank.1[row].0 .1)
                .max()
                .expect("ranks");
            assert_eq!(
                cloned,
                rounds * per_round,
                "p={p} symmetric {label}: clones beyond the fetch's transposes"
            );
            sums.push(per_rank.iter().map(|rank| rank.1[row].0 .2).sum::<u64>());
        }
        assert!(sums[0] > 0, "p={p}: symmetric product must be non-trivial");
        assert!(sums.windows(2).all(|w| w[0] == w[1]), "p={p}: {sums:?}");
    }
}
