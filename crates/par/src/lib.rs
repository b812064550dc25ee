//! # elba-par — intra-rank threaded kernels for ELBA-RS
//!
//! ELBA is hybrid parallel: distributed SpGEMM *across* processes and
//! threaded local kernels *within* each process. The comm layer's
//! simulated ranks are single OS threads; this crate supplies the inner
//! level — a minimal scoped, work-stealing (chunk self-scheduling)
//! parallel-map substrate with **no dependencies beyond `std`**, the
//! same offline shim discipline as `crates/vendor`.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Every entry point returns results in *task
//!    order*, regardless of which worker computed what and when. Callers
//!    (the local SpGEMM multiply, the x-drop alignment batch, the k-mer
//!    scan, contig materialization) merge those results in fixed order,
//!    so output bytes are identical across thread counts.
//! 2. **No daemon threads.** Workers are spawned inside
//!    [`std::thread::scope`] per call and joined before it returns: a
//!    rank that parallelizes a kernel is *blocked* for the kernel's
//!    duration, so worker time books to the owning rank's active
//!    profiling phase automatically, and workers can never outlive a
//!    kernel and race a communication call. Threads never touch the comm
//!    layer — only the rank thread posts or receives.
//! 3. **Caller participates.** Worker 0 is the calling thread itself; a
//!    thread count sizes the worker set and never picks a code path —
//!    with one worker the same map runs as a plain loop, spawning
//!    nothing.
//!
//! Scheduling is chunked self-scheduling (each idle worker atomically
//! claims the next unclaimed task — stealing from a shared queue head),
//! which load-balances irregular tasks (sparse rows, alignment pairs)
//! without per-task channels or a persistent pool.
//!
//! **`par-s`.** [`scope_with`] adds its spawn→join wall time to a total
//! kept per calling thread (the rank thread, since worker 0 is the
//! caller), but only when it ran two or more workers. A stage drains it
//! with [`take_par_secs`] and books it to its profile phase, so the
//! `par-s` column counts exactly the kernels that fanned out and a
//! serial run books nothing.
//!
//! There is no process-wide thread setting: every threaded kernel reads
//! the worker count from its own config (what
//! `PipelineConfig::with_threads` sets), and `0` or `1` means one worker.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

thread_local! {
    /// Wall seconds of this thread's [`scope_with`] calls that ran two
    /// or more workers, since the last [`take_par_secs`].
    static PAR_SECS: Cell<f64> = const { Cell::new(0.0) };
}

/// The wall seconds this thread spent in fanned-out [`scope_with`]
/// calls since the last call, and reset the total to zero.
pub fn take_par_secs() -> f64 {
    PAR_SECS.with(|secs| secs.replace(0.0))
}

/// Run `f(worker_index, &mut states[worker_index])` once per worker, one
/// worker per element of `states`, and return the results in worker
/// order. Worker 0 runs on the calling thread; workers `1..n` are
/// scoped threads joined before return. This is the primitive the
/// self-scheduling maps are built on; use it directly when each worker
/// needs its own long-lived scratch (an SpGEMM sparse accumulator, an
/// x-drop workspace).
///
/// A call with two or more workers adds its wall time to the calling
/// thread's [`take_par_secs`] total.
///
/// A panic on any worker propagates to the caller after all workers are
/// joined (no detached threads, no lost panics).
pub fn scope_with<S, R, F>(states: &mut [S], f: F) -> Vec<R>
where
    S: Send,
    R: Send,
    F: Fn(usize, &mut S) -> R + Sync,
{
    let n = states.len();
    match n {
        0 => Vec::new(),
        1 => vec![f(0, &mut states[0])],
        _ => {
            let started = Instant::now();
            let mut iter = states.iter_mut();
            let mine = iter.next().expect("n >= 2");
            let results = std::thread::scope(|scope| {
                let handles: Vec<_> = iter
                    .enumerate()
                    .map(|(i, state)| {
                        let f = &f;
                        scope.spawn(move || f(i + 1, state))
                    })
                    .collect();
                let mut results = Vec::with_capacity(n);
                results.push(f(0, mine));
                for handle in handles {
                    results.push(
                        handle
                            .join()
                            .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
                    );
                }
                results
            });
            PAR_SECS.with(|secs| secs.set(secs.get() + started.elapsed().as_secs_f64()));
            results
        }
    }
}

/// Self-scheduling indexed map with per-worker scratch: run `f(i, &mut
/// scratch)` for every `i in 0..n`, tasks claimed atomically by up to
/// `states.len()` workers, results returned **in task order** (the
/// determinism contract). With one state (or `n <= 1`) this is a plain
/// serial loop over `states[0]`.
pub fn run_indexed_with<S, R, F>(n: usize, states: &mut [S], f: F) -> Vec<R>
where
    S: Send,
    R: Send,
    F: Fn(usize, &mut S) -> R + Sync,
{
    assert!(!states.is_empty(), "need at least one worker state");
    let workers = states.len().min(n.max(1));
    if workers <= 1 {
        let state = &mut states[0];
        return (0..n).map(|i| f(i, state)).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Vec<Vec<(usize, R)>> = scope_with(&mut states[..workers], |_, state| {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            mine.push((i, f(i, state)));
        }
        mine
    });
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in collected.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "task {i} ran twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every task claimed exactly once"))
        .collect()
}

/// Stateless [`run_indexed_with`]: `f(i)` for `i in 0..n` on up to
/// `threads` workers, results in task order.
pub fn run_indexed<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = threads.max(1).min(n.max(1));
    let mut states = vec![(); workers];
    run_indexed_with(n, &mut states, |i, ()| f(i))
}

/// Split `range` into up to `chunks` contiguous sub-ranges of
/// near-equal size (the first `len % chunks` ranges are one longer).
/// Deterministic for a given `(range, chunks)`; never returns an empty
/// sub-range.
pub fn chunk_ranges(range: Range<usize>, chunks: usize) -> Vec<Range<usize>> {
    let len = range.len();
    if len == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, len);
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = range.start;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, range.end);
    out
}

/// Chunk ranges for a self-scheduled sweep: over-decompose by
/// [`OVERDECOMPOSE`]× the worker count (so stragglers re-balance) while
/// keeping every chunk at least `min_chunk` long (so tiny tasks don't
/// drown in scheduling overhead).
pub fn overdecomposed_ranges(
    range: Range<usize>,
    threads: usize,
    min_chunk: usize,
) -> Vec<Range<usize>> {
    let len = range.len();
    let threads = threads.max(1);
    let max_chunks = len / min_chunk.max(1);
    let chunks = (threads * OVERDECOMPOSE).clamp(1, max_chunks.max(1));
    chunk_ranges(range, chunks)
}

/// Chunks per worker in [`overdecomposed_ranges`]: enough slack for the
/// atomic claim loop to re-balance irregular tasks, small enough that
/// per-chunk result buffers stay negligible.
pub const OVERDECOMPOSE: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_with_runs_every_worker_once() {
        let mut states = vec![0u64; 5];
        let ids = scope_with(&mut states, |w, s| {
            *s += 1;
            w
        });
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(states, vec![1; 5]);
    }

    #[test]
    fn only_a_fanned_out_scope_books_par_secs() {
        take_par_secs();
        let sleep = |_: usize, _: &mut ()| std::thread::sleep(std::time::Duration::from_millis(2));
        scope_with(&mut [()], sleep);
        run_indexed(1, 4, |_| ());
        assert_eq!(take_par_secs(), 0.0, "one worker is not threaded time");
        scope_with(&mut [(), ()], sleep);
        assert!(take_par_secs() >= 0.002);
        assert_eq!(take_par_secs(), 0.0, "taking resets the total");
    }

    #[test]
    fn run_indexed_preserves_task_order() {
        for threads in [1usize, 2, 3, 8] {
            let out = run_indexed(37, threads, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_indexed_with_gives_each_worker_its_own_state() {
        let mut scratch = vec![Vec::<usize>::new(); 4];
        let out = run_indexed_with(100, &mut scratch, |i, mine| {
            mine.push(i);
            i
        });
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        // Every task landed in exactly one worker's log.
        let mut all: Vec<usize> = scratch.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn chunk_ranges_tile_exactly() {
        for (len, chunks) in [(10usize, 3usize), (1, 5), (7, 7), (100, 1), (0, 4)] {
            let ranges = chunk_ranges(0..len, chunks);
            let mut covered = 0;
            let mut expect_start = 0;
            for r in &ranges {
                assert_eq!(r.start, expect_start);
                assert!(!r.is_empty());
                covered += r.len();
                expect_start = r.end;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn min_chunk_respected() {
        let ranges = overdecomposed_ranges(0..10, 8, 4);
        assert!(ranges.iter().all(|r| r.len() >= 4 || ranges.len() == 1));
        assert!(ranges.len() <= 2);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panic_propagates() {
        let mut states = vec![(); 3];
        let _ = run_indexed_with(16, &mut states, |i, ()| {
            if i == 7 {
                panic!("worker boom");
            }
            i
        });
    }
}
