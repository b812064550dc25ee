//! Order statistics of repeated measurements and the noise-aware
//! comparison `compare` applies to two sets of runs.

/// Five-number summary of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarize `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let [q1, median, q3] = quartiles(&sorted);
        Some(Summary {
            n: sorted.len(),
            min,
            q1,
            median,
            q3,
            max,
        })
    }

    /// Interquartile distance as a share of the median — the spread the
    /// benchmark contract bounds.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of unsorted samples (0 for an empty slice).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// The three quartile cut points of ascending `sorted`, computed as
/// Python's `statistics.quantiles(values, n=4)` does (the "exclusive"
/// method), so spreads printed here match the ones the driver derives.
/// A single sample is its own quartiles.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let len = sorted.len();
    if len == 1 {
        return [sorted[0]; 3];
    }
    let m = len + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        // delta is taken against the unclamped cut and may exceed 4 at
        // the edges: the cut point is then extrapolated.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// Outcome of comparing a candidate set of runs against a baseline set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is within `bound` of the baseline's.
    Ok,
    /// The candidate's median is worse by more than `bound`.
    Worse,
    /// Either side's spread is wider than `bound`, so a regression of
    /// that size could hide in the noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare `candidate` against `base` under a regression `bound` given
/// as a share of the baseline median. A spread wider than the bound
/// makes the pair unresolved unless every candidate sample reads better
/// than every baseline sample.
pub fn verdict(base: &Summary, candidate: &Summary, bound: f64, better: Better) -> Verdict {
    let clear_win = match better {
        Better::Lower => candidate.max < base.min,
        Better::Higher => candidate.min > base.max,
    };
    if clear_win {
        return Verdict::Ok;
    }
    if base.spread() > bound || candidate.spread() > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => candidate.median - base.median,
        Better::Higher => base.median - candidate.median,
    };
    if worse_by > bound * base.median.abs() {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).expect("samples");
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!((s.n, s.min, s.max), (5, 1.0, 5.0));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).expect("samples");
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).expect("samples");
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn single_sample_and_empty() {
        let s = Summary::of(&[7.0]).expect("one sample");
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (7.0, 7.0, 7.0, 0.0));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn verdict_applies_bound_in_the_metric_direction() {
        let tight = |m: f64| Summary::of(&[m * 0.999, m, m * 1.001]).expect("samples");
        // 4 % slower under a 5 % bound is ok, 6 % is worse.
        assert_eq!(
            verdict(&tight(1.0), &tight(1.04), 0.05, Better::Lower),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&tight(1.0), &tight(1.06), 0.05, Better::Lower),
            Verdict::Worse
        );
        // The same move is an improvement when higher is better.
        assert_eq!(
            verdict(&tight(1.0), &tight(1.06), 0.05, Better::Higher),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&tight(1.0), &tight(0.9), 0.05, Better::Higher),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_sample_wins() {
        let noisy = Summary::of(&[0.8, 1.0, 1.2, 0.9, 1.1]).expect("samples");
        let same = noisy;
        assert_eq!(
            verdict(&noisy, &same, 0.05, Better::Lower),
            Verdict::Unresolved
        );
        let much_faster = Summary::of(&[0.4, 0.5, 0.6, 0.45, 0.55]).expect("samples");
        assert_eq!(
            verdict(&noisy, &much_faster, 0.05, Better::Lower),
            Verdict::Ok
        );
    }
}
