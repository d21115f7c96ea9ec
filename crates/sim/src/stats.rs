//! Small statistics toolkit shared by the analysis crates.
//!
//! Everything here mirrors what the paper's Matlab post-processing needs:
//! empirical CDFs of frame lengths (Fig. 9), running mean and standard
//! deviation of throughput (the 550 ± 18 Mb/s NLoS result), and busy/idle
//! time accounting for the threshold-based link-utilization estimates
//! (Figs. 11 and 22).

use crate::time::{SimDuration, SimTime};

/// Empirical cumulative distribution function over `f64` samples.
#[derive(Clone, Debug, Default)]
pub struct Cdf {
    sorted: Vec<f64>,
    dirty: bool,
}

impl Cdf {
    /// An empty CDF.
    pub fn new() -> Self {
        Cdf::default()
    }

    /// Build directly from samples.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut c = Cdf::new();
        for s in samples {
            c.add(s);
        }
        c
    }

    /// Insert one sample.
    pub fn add(&mut self, sample: f64) {
        debug_assert!(sample.is_finite(), "non-finite sample");
        self.sorted.push(sample);
        self.dirty = true;
    }

    fn ensure_sorted(&mut self) {
        if self.dirty {
            self.sorted
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.dirty = false;
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if no samples were added.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// P(X ≤ x), in [0, 1]. Returns 0 for an empty CDF.
    pub fn probability_at(&mut self, x: f64) -> f64 {
        self.ensure_sorted();
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The q-quantile (q in [0, 1]) using nearest-rank. Panics if empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        self.ensure_sorted();
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }

    /// Median (0.5-quantile).
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Arithmetic mean. Panics if empty.
    pub fn mean(&self) -> f64 {
        assert!(!self.sorted.is_empty(), "mean of empty CDF");
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Minimum sample.
    pub fn min(&mut self) -> f64 {
        self.ensure_sorted();
        *self.sorted.first().expect("min of empty CDF")
    }

    /// Maximum sample.
    pub fn max(&mut self) -> f64 {
        self.ensure_sorted();
        *self.sorted.last().expect("max of empty CDF")
    }

    /// Evaluate the CDF at `points`, returning `(x, P(X ≤ x))` pairs —
    /// ready for plotting a figure-9 style curve.
    pub fn curve(&mut self, points: &[f64]) -> Vec<(f64, f64)> {
        points
            .iter()
            .map(|&x| (x, self.probability_at(x)))
            .collect()
    }

    /// Fraction of samples strictly greater than `threshold`
    /// (the "long frame" fraction of Fig. 10).
    pub fn fraction_above(&mut self, threshold: f64) -> f64 {
        1.0 - self.probability_at(threshold)
    }
}

/// Numerically stable online mean/variance (Welford) with a 95 % CI helper.
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats::default()
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        debug_assert!(x.is_finite());
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0.0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Accumulates busy time on a shared medium, merging overlapping busy
/// intervals — the ground-truth side of the link-utilization measurements.
#[derive(Clone, Debug, Default)]
pub struct BusyTracker {
    /// Sorted, disjoint busy intervals.
    intervals: Vec<(SimTime, SimTime)>,
}

impl BusyTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        BusyTracker::default()
    }

    /// Record that the medium was busy over `[start, end)`.
    /// Intervals may be added out of order and may overlap.
    pub fn add(&mut self, start: SimTime, end: SimTime) {
        if end <= start {
            return;
        }
        // Insert sorted by start, then merge neighbours.
        let pos = self.intervals.partition_point(|&(s, _)| s < start);
        self.intervals.insert(pos, (start, end));
        self.coalesce_around(pos);
    }

    fn coalesce_around(&mut self, pos: usize) {
        // Merge left.
        let mut i = pos;
        if i > 0 && self.intervals[i - 1].1 >= self.intervals[i].0 {
            let (s, e) = self.intervals.remove(i);
            i -= 1;
            self.intervals[i].1 = self.intervals[i].1.max(e);
            self.intervals[i].0 = self.intervals[i].0.min(s);
        }
        // Merge right as long as the next interval touches.
        while i + 1 < self.intervals.len() && self.intervals[i].1 >= self.intervals[i + 1].0 {
            let (_, e) = self.intervals.remove(i + 1);
            self.intervals[i].1 = self.intervals[i].1.max(e);
        }
    }

    /// Total busy time within the observation window `[from, to)`.
    pub fn busy_within(&self, from: SimTime, to: SimTime) -> SimDuration {
        let mut acc = SimDuration::ZERO;
        for &(s, e) in &self.intervals {
            let lo = s.max(from);
            let hi = e.min(to);
            if hi > lo {
                acc += hi - lo;
            }
        }
        acc
    }

    /// Busy fraction (utilization) over `[from, to)` in [0, 1].
    pub fn utilization(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        self.busy_within(from, to).as_secs_f64() / (to - from).as_secs_f64()
    }

    /// The merged intervals (sorted, disjoint).
    pub fn intervals(&self) -> &[(SimTime, SimTime)] {
        &self.intervals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_basic_probabilities() {
        let mut c = Cdf::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.probability_at(0.5), 0.0);
        assert_eq!(c.probability_at(2.0), 0.5);
        assert_eq!(c.probability_at(10.0), 1.0);
        assert_eq!(c.fraction_above(2.0), 0.5);
    }

    #[test]
    fn cdf_quantiles() {
        let mut c = Cdf::from_samples((1..=100).map(|i| i as f64));
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.median(), 50.0);
        assert_eq!(c.quantile(1.0), 100.0);
        assert_eq!(c.min(), 1.0);
        assert_eq!(c.max(), 100.0);
        assert!((c.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn cdf_curve_is_monotone() {
        let mut c = Cdf::from_samples([5.0, 1.0, 3.0, 3.0, 9.0]);
        let pts: Vec<f64> = (0..=10).map(|i| i as f64).collect();
        let curve = c.curve(&pts);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn online_stats_match_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic dataset is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn busy_tracker_merges_overlaps() {
        let mut b = BusyTracker::new();
        let t = SimTime::from_micros;
        b.add(t(10), t(20));
        b.add(t(15), t(30)); // overlaps previous
        b.add(t(40), t(50)); // disjoint
        b.add(t(0), t(5)); // out of order
        assert_eq!(b.intervals().len(), 3);
        assert_eq!(b.busy_within(t(0), t(100)), SimDuration::from_micros(35));
        assert!((b.utilization(t(0), t(100)) - 0.35).abs() < 1e-12);
    }

    #[test]
    fn busy_tracker_window_clipping() {
        let mut b = BusyTracker::new();
        let t = SimTime::from_micros;
        b.add(t(0), t(100));
        assert_eq!(b.busy_within(t(25), t(75)), SimDuration::from_micros(50));
        assert_eq!(b.utilization(t(25), t(75)), 1.0);
        assert_eq!(b.utilization(t(75), t(75)), 0.0);
    }

    #[test]
    fn busy_tracker_adjacent_intervals_coalesce() {
        let mut b = BusyTracker::new();
        let t = SimTime::from_micros;
        b.add(t(0), t(10));
        b.add(t(10), t(20));
        assert_eq!(b.intervals().len(), 1);
        assert_eq!(b.busy_within(t(0), t(20)), SimDuration::from_micros(20));
    }

    #[test]
    fn busy_tracker_containment() {
        let mut b = BusyTracker::new();
        let t = SimTime::from_micros;
        b.add(t(0), t(100));
        b.add(t(20), t(30)); // fully contained
        assert_eq!(b.intervals().len(), 1);
        assert_eq!(b.busy_within(t(0), t(100)), SimDuration::from_micros(100));
    }
}
