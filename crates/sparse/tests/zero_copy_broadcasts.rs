//! Proof that the SUMMA stage transfers copy no payload they do not
//! change: a value type that counts its `Clone` calls flows through
//! every distributed product, and the count during the multiply must be
//! exactly the values a product builds anew — stage panels travel as
//! `Arc` clones of the owners' resident blocks (no root-side pack, no
//! per-child deep copy), and the local kernels build outputs from
//! references. The general product's blocking broadcasts (its one
//! schedule) clone nothing. The masked product, under every schedule
//! row, clones only the entries of the cut blocks it ships (a cut that
//! keeps every entry is the holder's `Arc`). The symmetric product's
//! direct fetch ships `Arc`s too; the only values it clones are the ones
//! its holders and diagonal ranks transpose.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};

use elba_comm::{Backend, Comm, Runner};
use elba_comm::{CommMsg, ProcGrid};
use elba_sparse::semiring::{Semiring, SemiringSlot};
use elba_sparse::{Csr, DistMat};

use common::{masked_stage_bytes, max_stage_bytes, schedule_rows, N_ROWS};

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

/// One product on one rank: (label, clones observed during the
/// multiply, checksum of what it computed on this rank).
type Row = (String, usize, u64);

/// What one rank saw in one SPMD run, each product in its own profile
/// phase.
struct Seen {
    /// The general product (its one schedule, the eager oracle).
    general: Row,
    /// The masked product per schedule row; its checksum sums the slots
    /// on this rank's mask block.
    masked: Vec<Row>,
    /// The general product's entries summed over this rank's mask
    /// block: what every masked row must have folded there.
    on_mask: u64,
    /// The values of the cut blocks this rank's masked fetch sends.
    cut: usize,
    /// The symmetric product per schedule row.
    upper: Vec<Row>,
    /// The values this rank's symmetric fetch transposes.
    transposed: usize,
}

/// Run `product` in its own profile phase between two barriers; returns
/// its result and the `Tick` clones observed meanwhile.
fn counted<R>(grid: &ProcGrid, phase: &str, product: impl FnOnce() -> R) -> (R, usize) {
    let _phase = grid.world().phase(phase);
    grid.world().barrier();
    let before = CLONES.load(Ordering::SeqCst);
    let out = product();
    grid.world().barrier();
    (out, CLONES.load(Ordering::SeqCst) - before)
}

/// Every product in one SPMD run: the general one, then the masked and
/// the symmetric one under every row of the schedule matrix, plus the
/// values this rank's symmetric fetch transposes per round.
fn schedule_matrix(comm: Comm) -> Seen {
    let grid = ProcGrid::new(comm);
    let (n, k) = (30usize, 24usize);
    let root = grid.world().rank() == 0;
    let triples: Vec<(u64, u64, Tick)> = if root {
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
    let ring: Vec<(u64, u64, u32)> = if root {
        (0..n as u64)
            .flat_map(|r| [0, 1, 7].map(|d| (r, (r + d) % n as u64, r as u32)))
            .collect()
    } else {
        Vec::new()
    };
    let mask = DistMat::from_triples(&grid, n, n, ring, |_, _| unreachable!());
    // Sizing the symmetric switch transposes blocks (cloning values), so
    // it runs before any counted product.
    let masked_rows = schedule_rows(masked_stage_bytes(&grid, &a, &at));
    let upper_rows = schedule_rows(max_stage_bytes(&grid, &a));
    let checksum = |c: &DistMat<Tick>| c.local().values().iter().map(|t| t.0).sum::<u64>();

    let (c, cloned) = counted(&grid, "general", || {
        a.spgemm_with(&grid, &at, &TickPlusTimes, 1)
    });
    let general = ("general".to_owned(), cloned, checksum(&c));
    let mut on_mask = 0;
    mask.clone().zip_prune(&grid, &c, |_, _, _, product| {
        on_mask += product.map_or(0, |t| t.0);
        true
    });

    // Each holder cuts its block to every peer's named rows (`A`, along
    // the grid row) or columns (`B`, along the grid column) and copies
    // the kept values, unless the cut keeps them all.
    let block = mask.local();
    let rows: Vec<bool> = (0..block.nrows()).map(|r| block.row_nnz(r) > 0).collect();
    let mut cols = vec![false; block.ncols()];
    for (_, c, _) in block.iter() {
        cols[c as usize] = true;
    }
    let (all_rows, all_cols) = (grid.world().allgather(rows), grid.world().allgather(cols));
    let copied = |m: &Csr<Tick>, named: &[bool], by_row: bool| {
        let kept = m
            .iter()
            .filter(|&(r, c, _)| named[if by_row { r } else { c } as usize])
            .count();
        if kept == m.nnz() {
            0
        } else {
            kept
        }
    };
    let (q, i, j) = (grid.q(), grid.myrow(), grid.mycol());
    let cut: usize = (0..q)
        .filter(|&c| c != j)
        .map(|c| copied(a.local(), &all_rows[grid.rank_of(i, c)], true))
        .chain(
            (0..q)
                .filter(|&r| r != i)
                .map(|r| copied(at.local(), &all_cols[grid.rank_of(r, j)], false)),
        )
        .sum();

    let mut masked = Vec::new();
    for (label, opts) in masked_rows {
        let mut sum = 0;
        let (_, cloned) = counted(&grid, &format!("{label} masked"), || {
            let fold = SemiringSlot(TickPlusTimes);
            mask.prune_by_product(&grid, &a, &at, &fold, &opts, |_, _, _, slot| {
                sum += slot.as_ref().map_or(0, |t| t.0);
                true
            })
        });
        masked.push((label, cloned, sum));
    }

    let mut upper = Vec::new();
    for (label, opts) in upper_rows {
        let (c, cloned) = counted(&grid, &format!("{label} symmetric"), || {
            a.spgemm_aat_upper_with(&grid, &TickPlusTimes, &opts)
        });
        upper.push((label, cloned, checksum(&c)));
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
    Seen {
        general,
        masked,
        on_mask,
        cut,
        upper,
        transposed: holder + received,
    }
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
        let cloned: usize = per_rank.iter().map(|rank| rank.general.1).sum();
        assert_eq!(cloned, 0, "p={p} general: {cloned} payload deep-copies");
        let total: u64 = per_rank.iter().map(|rank| rank.general.2).sum();
        assert!(total > 0, "p={p}: general product must be non-trivial");

        // The masked product: under every schedule row it clones the
        // values of its cuts and nothing else, and every row folds the
        // general product's entries on the mask.
        let on_mask: u64 = per_rank.iter().map(|rank| rank.on_mask).sum();
        assert!(on_mask > 0, "p={p}: the product must reach the mask");
        let cut: usize = per_rank.iter().map(|rank| rank.cut).sum();
        assert!(cut > 0, "p={p}: the ring mask must cut some block");
        assert_eq!(per_rank[0].masked.len(), N_ROWS);
        for row in 0..N_ROWS {
            let label = &per_rank[0].masked[row].0;
            // `CLONES` is global; see the symmetric product's note below.
            let cloned = per_rank
                .iter()
                .map(|rank| rank.masked[row].1)
                .max()
                .expect("ranks");
            assert_eq!(
                cloned, cut,
                "p={p} masked {label}: clones beyond the cuts during the multiply"
            );
            let total: u64 = per_rank.iter().map(|rank| rank.masked[row].2).sum();
            assert_eq!(total, on_mask, "p={p} masked {label}");
        }

        // The symmetric product: its fetch ships `Arc`s too, once under
        // every schedule row, so the only clones are its transposes.
        let q = (p as f64).sqrt() as u64;
        let transfers = q * q * q - q * (q + 1) / 2;
        let transposed: usize = per_rank.iter().map(|rank| rank.transposed).sum();
        let mut sums = Vec::new();
        for row in 0..N_ROWS {
            let label = &per_rank[0].upper[row].0;
            let phase = format!("{label} symmetric");
            let sends: u64 = profile
                .rank_profiles()
                .iter()
                .map(|rank| rank.phase(&phase).expect("phase recorded").p2p_msgs)
                .sum();
            assert_eq!(sends, transfers, "p={p} symmetric {label}: one fetch");
            // `CLONES` is global and each rank reads it between two
            // barriers; the first rank to read `before` does so before
            // any rank clones, so the largest difference is the run's.
            let cloned = per_rank
                .iter()
                .map(|rank| rank.upper[row].1)
                .max()
                .expect("ranks");
            assert_eq!(
                cloned, transposed,
                "p={p} symmetric {label}: clones beyond the fetch's transposes"
            );
            sums.push(per_rank.iter().map(|rank| rank.upper[row].2).sum::<u64>());
        }
        assert!(sums[0] > 0, "p={p}: symmetric product must be non-trivial");
        assert!(sums.windows(2).all(|w| w[0] == w[1]), "p={p}: {sums:?}");
    }
}
