//! Property tests for the simulation kernel: ordering and accounting
//! invariants the whole workspace assumes.
//!
//! Std-only: each property is driven by a deterministic seeded case loop
//! (the workspace builds offline, so no proptest). Failures print the case
//! seed, which reproduces the exact inputs.

use mmwave_sim::ctx::SimCtx;
use mmwave_sim::queue::EventQueue;
use mmwave_sim::rng::SimRng;
use mmwave_sim::stats::{BusyTracker, Cdf, OnlineStats};
use mmwave_sim::time::{SimDuration, SimTime};

const CASES: u64 = 128;

/// Whatever order events are scheduled in, they pop sorted by time,
/// and equal timestamps pop in insertion order.
#[test]
fn queue_pops_sorted_and_stable() {
    for case in 0..CASES {
        let mut r = SimRng::root(case).stream("queue-sorted");
        let n = 1 + (r.next_u64() % 199) as usize;
        let times: Vec<u64> = (0..n).map(|_| r.next_u64() % 1_000).collect();
        let mut q = EventQueue::with_ctx(&SimCtx::new());
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut popped = Vec::new();
        while let Some((at, idx)) = q.pop() {
            popped.push((at, idx));
        }
        assert_eq!(popped.len(), times.len(), "case {case}");
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "case {case}: out of order");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "case {case}: FIFO violated at equal times");
            }
        }
    }
}

/// BusyTracker: the merged busy time never exceeds the window, never
/// exceeds the sum of interval lengths, and equals it when intervals
/// are disjoint.
#[test]
fn busy_tracker_bounds() {
    for case in 0..CASES {
        let mut r = SimRng::root(case).stream("busy");
        let n = 1 + (r.next_u64() % 59) as usize;
        let spans: Vec<(u64, u64)> = (0..n)
            .map(|_| (r.next_u64() % 10_000, 1 + r.next_u64() % 499))
            .collect();
        let mut b = BusyTracker::new();
        let mut sum = 0u64;
        for &(s, len) in &spans {
            b.add(SimTime::from_nanos(s), SimTime::from_nanos(s + len));
            sum += len;
        }
        let window = (SimTime::ZERO, SimTime::from_nanos(11_000));
        let busy = b.busy_within(window.0, window.1).as_nanos();
        assert!(
            busy <= sum,
            "case {case}: merged busy {busy} > raw sum {sum}"
        );
        assert!(busy <= 11_000, "case {case}");
        let util = b.utilization(window.0, window.1);
        assert!((0.0..=1.0).contains(&util), "case {case}");
        // Intervals are disjoint and sorted after merging.
        for w in b.intervals().windows(2) {
            assert!(w[0].1 < w[1].0, "case {case}: intervals overlap");
        }
    }
}

/// CDF quantiles are monotone in q and bounded by min/max.
#[test]
fn cdf_quantile_monotone() {
    for case in 0..CASES {
        let mut r = SimRng::root(case).stream("cdf");
        let n = 1 + (r.next_u64() % 299) as usize;
        let samples: Vec<f64> = (0..n).map(|_| r.uniform(-1e6, 1e6)).collect();
        let mut cdf = Cdf::from_samples(samples.iter().cloned());
        let mut last = f64::MIN;
        for k in 0..=10 {
            let v = cdf.quantile(k as f64 / 10.0);
            assert!(v >= last, "case {case}: quantile not monotone");
            last = v;
        }
        assert_eq!(cdf.quantile(0.0), cdf.min(), "case {case}");
        assert_eq!(cdf.quantile(1.0), cdf.max(), "case {case}");
        // probability_at is a valid CDF.
        assert_eq!(cdf.probability_at(f64::MAX / 2.0), 1.0, "case {case}");
        assert_eq!(cdf.probability_at(-f64::MAX / 2.0), 0.0, "case {case}");
    }
}

/// Welford matches the two-pass computation.
#[test]
fn online_stats_match_two_pass() {
    for case in 0..CASES {
        let mut r = SimRng::root(case).stream("welford");
        let n = 2 + (r.next_u64() % 198) as usize;
        let samples: Vec<f64> = (0..n).map(|_| r.uniform(-1e3, 1e3)).collect();
        let mut s = OnlineStats::new();
        for &x in &samples {
            s.add(x);
        }
        let nf = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / nf;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (nf - 1.0);
        assert!(
            (s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()),
            "case {case}"
        );
        assert!(
            (s.variance() - var).abs() < 1e-6 * (1.0 + var),
            "case {case}"
        );
    }
}

/// Duration arithmetic: for_bits/bits_at round-trip within rounding.
#[test]
fn duration_bits_roundtrip() {
    for case in 0..CASES {
        let mut r = SimRng::root(case).stream("bits");
        let bits = 1 + r.next_u64() % 999_999_999;
        let rate = 1_000_000 + r.next_u64() % 4_999_000_000;
        let d = SimDuration::for_bits(bits, rate);
        let back = d.bits_at(rate);
        assert!(back >= bits, "case {case}");
        // Rounding up by at most one nanosecond's worth of bits.
        let slack = rate / 1_000_000_000 + 1;
        assert!(
            back - bits <= slack,
            "case {case}: {} extra bits",
            back - bits
        );
    }
}
