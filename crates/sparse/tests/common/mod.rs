//! Shared by the distributed-SpGEMM property suites: the order-sensitive
//! [`Trace`] semiring with its [`tagged`] inputs, and the schedule matrix
//! every suite runs the symmetric product (`spgemm_aat_upper_with`) and
//! the masked product (`prune_by_product`) under: the eager reference
//! oracle, the unbudgeted production schedule, and the budgeted rows —
//! both sides of the `4·max_stage ≤ budget` switch between prefetched
//! stages and blocking ones, and `budget = 1`, the smallest. A budget
//! decides only that switch and the symmetric product's row batch. The
//! general product `spgemm_with` has one schedule, the eager oracle, and
//! is what the suites hold the other two to.

#![allow(dead_code)] // each suite uses its own subset

use elba_comm::{CommMsg, ProcGrid};
use elba_sparse::semiring::Semiring;
use elba_sparse::{DistMat, SpGemmOptions};

/// Rows in [`schedule_rows`]; row 0 is the oracle.
pub const N_ROWS: usize = 5;

/// The symmetric product's `max_stage` for `a ⊗ aᵀ`: the largest `A`
/// block as stored plus the largest `A` block transposed — the bound its
/// prefetch switch tests a budget against. Collective.
pub fn max_stage_bytes<T: Clone + CommMsg + Sync>(grid: &ProcGrid, a: &DistMat<T>) -> u64 {
    let local = a.local();
    let (a_max, b_max) = grid.world().allreduce(
        (
            local.heap_bytes() as u64,
            local.transposed().heap_bytes() as u64,
        ),
        |x, y| (x.0.max(y.0), x.1.max(y.1)),
    );
    a_max + b_max
}

/// The masked product's `max_stage` for `a ⊗ b`: the largest `A` block
/// plus the largest `B` block, the bound its prefetch switch tests a
/// budget against. Collective.
pub fn masked_stage_bytes<A, B>(grid: &ProcGrid, a: &DistMat<A>, b: &DistMat<B>) -> u64
where
    A: Clone + CommMsg + Sync,
    B: Clone + CommMsg + Sync,
{
    let (a_max, b_max) = grid
        .world()
        .allreduce((a.heap_bytes() as u64, b.heap_bytes() as u64), |x, y| {
            (x.0.max(y.0), x.1.max(y.1))
        });
    a_max + b_max
}

/// The labelled schedule matrix for a product whose largest stage is
/// `max_stage` bytes (see [`max_stage_bytes`] and
/// [`masked_stage_bytes`]).
pub fn schedule_rows(max_stage: u64) -> Vec<(String, SpGemmOptions)> {
    let switch = 4 * max_stage;
    let mut rows = vec![
        ("eager".to_owned(), SpGemmOptions::eager()),
        ("pipelined".to_owned(), SpGemmOptions::pipelined()),
    ];
    rows.extend(
        [
            ("prefetched, at the switch", switch.max(1)),
            (
                "blocking, just under the switch",
                switch.saturating_sub(1).max(1),
            ),
            ("blocking, the smallest budget", 1),
        ]
        .into_iter()
        .map(|(regime, budget)| {
            (
                format!("budgeted {regime} (budget={budget})"),
                SpGemmOptions::budgeted(budget),
            )
        }),
    );
    assert_eq!(rows.len(), N_ROWS);
    rows
}

/// Like the overlap semiring, order-sensitive in its add: a product is
/// the pair of operand tags, a sum is the concatenation in arrival
/// order. Two multiplies agree on every value only if each entry saw
/// its products in the same order (ascending `k` within a stage,
/// ascending stages).
pub struct Trace;

impl Semiring for Trace {
    type A = u32;
    type B = u32;
    type Out = Vec<(u32, u32)>;

    fn multiply(&self, a: &u32, b: &u32) -> Option<Self::Out> {
        Some(vec![(*a, *b)])
    }

    fn add(&self, acc: &mut Self::Out, other: Self::Out) {
        acc.extend(other);
    }
}

/// Distinctly tagged triples from a proptest entry list (dedup by
/// coordinate; the tag encodes the coordinate).
pub fn tagged(nrows: usize, ncols: usize, entries: &[(usize, usize)]) -> Vec<(u64, u64, u32)> {
    let coords: std::collections::BTreeSet<(usize, usize)> = entries
        .iter()
        .map(|&(r, c)| (r % nrows, c % ncols))
        .collect();
    coords
        .into_iter()
        .map(|(r, c)| (r as u64, c as u64, (r * 1000 + c) as u32))
        .collect()
}
