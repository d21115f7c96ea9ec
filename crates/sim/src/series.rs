//! Time-series recording.
//!
//! Several paper figures are value-versus-time plots (Fig. 12 PHY rate,
//! Fig. 14 amplitude + rate over 80 minutes, Fig. 23 TCP throughput around
//! the WiHD power-off). [`TimeSeries`] is the recorder those experiments
//! write into, with the windowed readers the report renderers need.

use crate::time::SimTime;

/// An append-only `(time, value)` series. Appends must be in non-decreasing
/// time order (the engine guarantees handlers run in time order).
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Append a sample. Panics in debug builds on out-of-order timestamps.
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(v.is_finite(), "non-finite sample at {t:?}");
        if let Some(&(last, _)) = self.points.last() {
            debug_assert!(t >= last, "TimeSeries::push out of order");
        }
        self.points.push((t, v));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The raw samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Last recorded value, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points.last().copied()
    }

    /// Value at time `t` under sample-and-hold (step) interpolation:
    /// the most recent sample at or before `t`. `None` before the first.
    pub fn sample_hold(&self, t: SimTime) -> Option<f64> {
        let idx = self.points.partition_point(|&(pt, _)| pt <= t);
        idx.checked_sub(1).map(|i| self.points[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn series() -> TimeSeries {
        let mut s = TimeSeries::new();
        s.push(t(10), 1.0);
        s.push(t(20), 2.0);
        s.push(t(30), 4.0);
        s
    }

    #[test]
    fn sample_hold_semantics() {
        let s = series();
        assert_eq!(s.sample_hold(t(5)), None);
        assert_eq!(s.sample_hold(t(10)), Some(1.0));
        assert_eq!(s.sample_hold(t(15)), Some(1.0));
        assert_eq!(s.sample_hold(t(25)), Some(2.0));
        assert_eq!(s.sample_hold(t(99)), Some(4.0));
    }
}
