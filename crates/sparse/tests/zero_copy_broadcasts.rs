//! Proof that the SUMMA stage broadcasts are zero-copy: a value type
//! that counts its `Clone` calls flows through every distributed
//! schedule, and the count must not move during the multiply — stage
//! panels travel as `Arc` clones of the owners' resident blocks (no
//! root-side pack, no per-child deep copy), and the local kernels build
//! outputs from references.

use std::sync::atomic::{AtomicUsize, Ordering};

use elba_comm::{Backend, Runner};
use elba_comm::{CommMsg, ProcGrid};
use elba_sparse::semiring::Semiring;
use elba_sparse::{DistMat, SpGemmOptions};

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
        let mut sums = Vec::new();
        for (label, opts) in [
            ("eager", SpGemmOptions::eager()),
            ("pipelined", SpGemmOptions::pipelined()),
            ("blocked", SpGemmOptions::blocked(8)),
            ("column_batched", SpGemmOptions::column_batched(8, None)),
            (
                "column_batched_budget",
                SpGemmOptions::column_batched(8, Some(4 << 10)),
            ),
            ("layered2", SpGemmOptions::layered(2)),
            ("layered3", SpGemmOptions::layered(3)),
        ] {
            let checks = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
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
                grid.world().barrier();
                let before = CLONES.load(Ordering::SeqCst);
                let c = a.spgemm_with(&grid, &at, &TickPlusTimes, &opts);
                grid.world().barrier();
                let after = CLONES.load(Ordering::SeqCst);
                let checksum: u64 = c.local().values().iter().map(|t| t.0).sum();
                (after - before, checksum, c.local().nnz())
            });
            let cloned: usize = checks.iter().map(|&(d, _, _)| d).sum();
            assert_eq!(
                cloned, 0,
                "p={p} {label}: {cloned} payload deep-copies during the multiply"
            );
            let total: u64 = checks.iter().map(|&(_, s, _)| s).sum();
            assert!(total > 0, "p={p} {label}: product must be non-trivial");
            sums.push(total);
        }
        // The no-clone semiring computes the same product under every
        // schedule.
        assert!(sums.windows(2).all(|w| w[0] == w[1]), "p={p}: {sums:?}");
    }
}
