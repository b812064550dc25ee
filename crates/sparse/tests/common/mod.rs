//! Shared by the distributed-SpGEMM property suites: the order-sensitive
//! [`Trace`] semiring with its [`tagged`] inputs, and the schedule matrix
//! every suite runs the symmetric product (`spgemm_aat_upper_with`) and
//! the masked product (`prune_by_product`) under: the eager reference
//! oracle, the unbudgeted production schedule, and one budgeted row per
//! regime that schedule has — one round (a budget nothing can exhaust),
//! many rounds (a small budget), the quarter-budget floor (`budget = 1`:
//! single-column rounds, the worst case for a concatenation bug), and
//! both sides of the `4·max_stage ≤ budget` switch between prefetched
//! stages and blocking ones. The general product `spgemm_with` has one
//! schedule, the eager oracle, and is what the suites hold the other two
//! to.

#![allow(dead_code)] // each suite uses its own subset

use elba_comm::{CommMsg, ProcGrid};
use elba_sparse::semiring::Semiring;
use elba_sparse::{DistMat, SpGemmOptions};

/// Rows in [`schedule_rows`]; row 0 is the oracle.
pub const N_ROWS: usize = 7;

/// The symmetric product's `max_stage` for `a ⊗ aᵀ`: the largest
/// `A(i, s)` plus `A(j, s)ᵀ` block pair a rank on or above the diagonal
/// (`i ≤ j`) multiplies in one stage — what its budgeted schedule's
/// double-buffer switch tests against the budget. Collective.
pub fn max_stage_bytes<T: Clone + CommMsg + Sync>(grid: &ProcGrid, a: &DistMat<T>) -> u64 {
    let local = a.local();
    let sizes = grid.world().allgather((
        local.heap_bytes() as u64,
        local.transposed().heap_bytes() as u64,
    ));
    let q = grid.q();
    let mut max_stage = 0;
    for (i, j, s) in (0..q).flat_map(|i| (i..q).flat_map(move |j| (0..q).map(move |s| (i, j, s)))) {
        max_stage = max_stage.max(sizes[grid.rank_of(i, s)].0 + sizes[grid.rank_of(j, s)].1);
    }
    max_stage
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
/// [`masked_stage_bytes`]); `small` is the many-rounds budget.
pub fn schedule_rows(small: u64, max_stage: u64) -> Vec<(String, SpGemmOptions)> {
    let switch = 4 * max_stage;
    let mut rows = vec![
        ("eager".to_owned(), SpGemmOptions::eager()),
        ("pipelined".to_owned(), SpGemmOptions::pipelined()),
    ];
    rows.extend(
        [
            ("one round", 1 << 40),
            ("many rounds", small.max(1)),
            ("quarter-budget floor", 1),
            ("double-buffered, at the switch", switch.max(1)),
            (
                "blocking, just under the switch",
                switch.saturating_sub(1).max(1),
            ),
        ]
        .into_iter()
        .map(|(regime, budget)| {
            (
                format!("budgeted {regime} (budget={budget})"),
                SpGemmOptions::column_batched(budget),
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
