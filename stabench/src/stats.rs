//! Summary statistics the harness reports: medians, percentiles, the
//! per-item summary of a workload's operations, geometric means, and span
//! self time.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail statistic: the highest percentile that still has at least
/// `beyond` samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// The percentile, 0–100 (100 when the sample is too small to leave
    /// `beyond` samples above any rank: the tail is then the maximum).
    pub percentile: f64,
    /// Sample count.
    pub samples: usize,
}

/// Picks the sample with exactly `beyond` samples above it in sorted
/// order. Samples of `beyond` or fewer values have no such rank; their
/// tail is the maximum, reported at percentile 100.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(xs: &[f64], beyond: usize) -> Tail {
    assert!(!xs.is_empty(), "tail of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= beyond {
        return Tail {
            value: v[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    let rank = n - 1 - beyond;
    Tail {
        value: v[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples: n,
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`: the smallest sample
/// with at least `p` % of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `p` outside (0, 100].
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Latency samples of a workload that repeats a fixed mix of operations
/// (its "items": circuits, edits, batches) pass after pass, kept per item.
#[derive(Clone, Debug)]
pub struct ItemTimes {
    samples: Vec<Vec<f64>>,
}

impl ItemTimes {
    pub fn new(items: usize) -> ItemTimes {
        ItemTimes {
            samples: vec![Vec::new(); items],
        }
    }

    pub fn push(&mut self, item: usize, x: f64) {
        self.samples[item].push(x);
    }

    /// Each item's best (smallest) sample, for the items that have samples.
    pub fn bests(&self) -> Vec<f64> {
        self.per_item_stat(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
    }

    /// Each item's median, for the items that have samples.
    pub fn medians(&self) -> Vec<f64> {
        self.per_item_stat(median)
    }

    fn per_item_stat(&self, stat: impl Fn(&[f64]) -> f64) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| stat(v))
            .collect()
    }

    /// Every sample, item by item.
    pub fn all(&self) -> Vec<f64> {
        self.samples.iter().flatten().copied().collect()
    }

    /// The per-item samples, for the run record.
    pub fn per_item(&self) -> &[Vec<f64>] {
        &self.samples
    }
}

/// Percentile of the item latencies that `write_tail_ms` reports.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// A workload's latencies summarized over its items, each item taken at
/// its best sample of the run.
///
/// On a shared host, contention only ever adds time, and it comes in
/// stretches: on a 2-vCPU virtual machine the same loop ran at two speeds
/// about 1.5x apart, switching every few seconds, with the slow one
/// nearly half the time. A median over such samples lands on either speed
/// from one run to the next; an item's best sample over passes spread
/// across the run does not, unless the whole run is slow. The statistics
/// over items also do not depend on how many passes fit in the run, as an
/// order statistic over raw samples does (it moves from one item's
/// cluster to another's as the sample count changes).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// One pass: the sum over items.
    pub pass: f64,
    /// Geometric mean over items: a change that speeds one item and slows
    /// another by the same factor leaves it unchanged.
    pub geomean: f64,
    /// Median over items.
    pub p50: f64,
    /// [`TAIL_PERCENTILE`] over items.
    pub tail: f64,
}

/// Summarizes non-empty, strictly positive per-item latencies.
pub fn summarize(items: &[f64]) -> Summary {
    Summary {
        pass: items.iter().sum(),
        geomean: geomean(items),
        p50: median(items),
        tail: percentile(items, TAIL_PERCENTILE),
    }
}

/// Geometric mean of strictly positive values.
///
/// # Panics
///
/// Panics on an empty slice or a non-positive value.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of an empty sample");
    assert!(
        xs.iter().all(|&x| x > 0.0),
        "geometric mean needs positive values"
    );
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Self time of a span `[start, end)`: its duration minus the part of it
/// covered by the union of its children's intervals (children may
/// overlap when they ran on parallel workers; they are clipped to the
/// parent).
pub fn self_time(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    let mut iv: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_leaves_the_requested_samples_above_it() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs, 10);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.samples, 40);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let t = tail(&[5.0, 1.0, 3.0], 10);
        assert_eq!((t.value, t.percentile, t.samples), (5.0, 100.0, 3));
        let t = tail(&(0..11).map(f64::from).collect::<Vec<_>>(), 10);
        assert_eq!(t.value, 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 91.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 0.1), 1.0);
        assert_eq!(percentile(&[4.0, 2.0], 90.0), 4.0);
    }

    #[test]
    fn item_times_keep_samples_per_item() {
        let mut t = ItemTimes::new(3);
        for x in [1.0, 9.0, 2.0] {
            t.push(0, x);
        }
        t.push(2, 5.0);
        assert_eq!(t.medians(), vec![2.0, 5.0]);
        assert_eq!(t.bests(), vec![1.0, 5.0]);
        assert_eq!(t.all(), vec![1.0, 9.0, 2.0, 5.0]);
        assert!(t.per_item()[1].is_empty());
    }

    #[test]
    fn summary_does_not_depend_on_the_pass_count() {
        // Three items of 1, 2 and 4 s; one sample of the slow item is hit
        // by contention. Three passes and six passes summarize alike.
        let items = [1.0, 2.0, 4.0];
        let run = |passes: usize| {
            let mut t = ItemTimes::new(items.len());
            for p in 0..passes {
                for (i, &x) in items.iter().enumerate() {
                    t.push(i, if p == 1 && i == 2 { 3.0 * x } else { x });
                }
            }
            summarize(&t.bests())
        };
        let s = run(3);
        assert_eq!(run(6), s);
        assert_eq!((s.pass, s.p50, s.tail), (7.0, 2.0, 4.0));
        assert!((s.geomean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_weights_ratios_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        // Halving one item and doubling another leaves it unchanged.
        let a = geomean(&[1.0, 4.0, 9.0]);
        let b = geomean(&[0.5, 8.0, 9.0]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0.0, 10.0, &[]), 10.0);
        assert_eq!(self_time(0.0, 10.0, &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
        // Overlapping children (parallel workers) count once.
        assert_eq!(self_time(0.0, 10.0, &[(1.0, 5.0), (2.0, 6.0)]), 5.0);
        // Children are clipped to the parent interval.
        assert_eq!(self_time(2.0, 4.0, &[(0.0, 3.0), (3.5, 9.0)]), 0.5);
        assert_eq!(self_time(0.0, 4.0, &[(0.0, 4.0), (1.0, 2.0)]), 0.0);
    }
}
