//! Proof that the SUMMA stage broadcasts are zero-copy: a value type
//! that counts its `Clone` calls flows through every distributed
//! schedule, and the count must not move during the multiply — stage
//! panels travel as `Arc` clones of the owners' resident blocks (no
//! root-side pack, no per-child deep copy), and the local kernels build
//! outputs from references.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};

use elba_comm::{Backend, Runner};
use elba_comm::{CommMsg, ProcGrid};
use elba_sparse::semiring::Semiring;
use elba_sparse::DistMat;

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

/// One test on purpose: `CLONES` is process-global, so a second test
/// cloning `Tick`s on another harness thread would leak into the
/// before/after window measured here.
#[test]
fn summa_schedules_deep_copy_no_payloads_and_agree() {
    for p in [4usize, 9] {
        // Every row of the schedule matrix in one SPMD run; per row and
        // rank: (label, clones during the multiply, checksum).
        let per_rank = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
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
            // Building Aᵀ clones values (the transpose exchange owns
            // copies); the claim under test starts at the multiply.
            let at = a.transpose(&grid);
            schedule_rows(4 << 10, max_stage_bytes(&grid, &a, &at))
                .into_iter()
                .map(|(label, opts)| {
                    grid.world().barrier();
                    let before = CLONES.load(Ordering::SeqCst);
                    let c = a.spgemm_with(&grid, &at, &TickPlusTimes, &opts);
                    grid.world().barrier();
                    let after = CLONES.load(Ordering::SeqCst);
                    let checksum: u64 = c.local().values().iter().map(|t| t.0).sum();
                    (label, after - before, checksum)
                })
                .collect::<Vec<_>>()
        });
        let mut sums = Vec::new();
        for row in 0..N_ROWS {
            let label = &per_rank[0][row].0;
            let cloned: usize = per_rank.iter().map(|rank| rank[row].1).sum();
            assert_eq!(
                cloned, 0,
                "p={p} {label}: {cloned} payload deep-copies during the multiply"
            );
            let total: u64 = per_rank.iter().map(|rank| rank[row].2).sum();
            assert!(total > 0, "p={p} {label}: product must be non-trivial");
            sums.push(total);
        }
        // The no-clone semiring computes the same product under every
        // schedule.
        assert!(sums.windows(2).all(|w| w[0] == w[1]), "p={p}: {sums:?}");
    }
}
