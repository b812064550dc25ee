//! Bench-side spans: recorded around calls into each crate's public
//! functions, kept in memory, and written out with the document. Nothing
//! inside the program under test is instrumented.

use std::cell::RefCell;
use std::time::Instant;

/// One timed call on one rank. `parent` indexes the same rank's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub rank: usize,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

struct Open {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per-rank span recorder. All ranks of a run share one `epoch`, so span
/// times are comparable across ranks. An untraced run disables it and
/// pays one branch per span.
pub struct Recorder {
    epoch: Instant,
    rank: usize,
    open: Option<RefCell<Open>>,
}

impl Recorder {
    pub fn new(epoch: Instant, rank: usize, enabled: bool) -> Self {
        Recorder {
            epoch,
            rank,
            open: enabled.then(|| {
                RefCell::new(Open {
                    spans: Vec::new(),
                    stack: Vec::new(),
                })
            }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.open.is_some()
    }

    /// Run `f` inside a span named `name`, nested under whichever span
    /// is open on this rank.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(open) = &self.open else {
            return f();
        };
        let idx = {
            let mut open = open.borrow_mut();
            let idx = open.spans.len();
            let parent = open.stack.last().copied();
            open.spans.push(Span {
                name,
                rank: self.rank,
                start_s: self.epoch.elapsed().as_secs_f64(),
                end_s: f64::NAN,
                parent,
            });
            open.stack.push(idx);
            idx
        };
        let out = f();
        let mut open = open.borrow_mut();
        open.spans[idx].end_s = self.epoch.elapsed().as_secs_f64();
        open.stack.pop();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.open.map_or_else(Vec::new, |o| o.into_inner().spans)
    }
}

/// The spans of one traced repetition, one list per rank.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub ranks: Vec<Vec<Span>>,
}

impl Trace {
    /// A span's duration minus the part its direct children cover.
    fn self_time(spans: &[Span], idx: usize) -> f64 {
        let children: f64 = spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::duration_s)
            .sum();
        (spans[idx].duration_s() - children).max(0.0)
    }

    fn max_over_ranks(&self, per_rank: impl Fn(&[Span]) -> f64) -> f64 {
        self.ranks
            .iter()
            .map(|spans| per_rank(spans))
            .fold(0.0, f64::max)
    }

    /// A layer's time: the max over ranks of the self time of the spans
    /// carrying `name` (the slowest rank gates the run).
    pub fn self_s(&self, name: &str) -> f64 {
        self.max_over_ranks(|spans| {
            (0..spans.len())
                .filter(|&i| spans[i].name == name)
                .map(|i| Trace::self_time(spans, i))
                .sum()
        })
    }

    /// Max over ranks of the whole duration (children included) of the
    /// spans carrying `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.max_over_ranks(|spans| {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::duration_s)
                .sum()
        })
    }

    /// Share of `wall_s` the top-level spans account for on the rank
    /// where they account for most.
    pub fn coverage(&self, wall_s: f64) -> f64 {
        let covered = self.max_over_ranks(|spans| {
            spans
                .iter()
                .filter(|s| s.parent.is_none())
                .map(Span::duration_s)
                .sum()
        });
        if wall_s > 0.0 {
            covered / wall_s
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            rank: 0,
            start_s,
            end_s,
            parent,
        }
    }

    #[test]
    fn self_time_excludes_children_and_layers_take_the_slowest_rank() {
        let rank0 = vec![
            span("stage", 0.0, 1.0, None),
            span("step", 0.1, 0.4, Some(0)),
            span("step", 0.5, 0.7, Some(0)),
            span("gather", 1.0, 1.5, None),
        ];
        let rank1 = vec![
            span("stage", 0.0, 1.2, None),
            span("step", 0.2, 0.3, Some(0)),
        ];
        let trace = Trace {
            ranks: vec![rank0, rank1],
        };
        assert!((trace.self_s("step") - 0.5).abs() < 1e-12);
        // rank 0: 1.0 - 0.5 = 0.5; rank 1: 1.2 - 0.1 = 1.1
        assert!((trace.self_s("stage") - 1.1).abs() < 1e-12);
        assert!((trace.total_s("stage") - 1.2).abs() < 1e-12);
        assert!((trace.coverage(2.0) - 0.75).abs() < 1e-12);
        assert_eq!(trace.self_s("absent"), 0.0);
    }

    #[test]
    fn recorder_nests_spans_and_is_free_when_disabled() {
        let rec = Recorder::new(Instant::now(), 3, true);
        let value = rec.span("outer", || rec.span("inner", || 7));
        assert_eq!(value, 7);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_s <= spans[1].start_s && spans[1].end_s <= spans[0].end_s);
        assert!(spans.iter().all(|s| s.rank == 3));

        let off = Recorder::new(Instant::now(), 0, false);
        assert_eq!(off.span("outer", || 1), 1);
        assert!(off.into_spans().is_empty());
    }
}
