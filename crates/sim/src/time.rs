//! Simulated time in integer nanoseconds.
//!
//! All protocol timing in this workspace — SIFS gaps, TXOP limits, beacon
//! intervals, oscilloscope sample clocks — is expressed with these two types.
//! `u64` nanoseconds cover ~584 years of simulated time, so the paper's
//! longest campaign (the 80-minute amplitude/rate trace of Figure 14) fits
//! with nine orders of magnitude to spare.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An absolute instant on the simulation clock, in nanoseconds since start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }
    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }
    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }
    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }
    /// Construct from fractional seconds (rounded to the nearest nanosecond).
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite(), "negative or non-finite time");
        SimTime((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    /// Time since the epoch in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// Time since the epoch in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
    /// Time since the epoch in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`. Panics in debug builds if `earlier`
    /// is in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(self >= earlier, "SimTime::since: earlier is later");
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating difference: zero if `earlier` is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }
    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }
    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }
    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }
    /// Construct from fractional seconds (rounded to the nearest nanosecond).
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite(), "negative or non-finite span");
        SimDuration((s * 1e9).round() as u64)
    }
    /// Construct from fractional microseconds (rounded to the nearest ns).
    pub fn from_micros_f64(us: f64) -> Self {
        debug_assert!(us >= 0.0 && us.is_finite());
        SimDuration((us * 1e3).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    /// Span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// Span in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
    /// Span in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if this is the zero span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Time needed to serialize `bits` at `rate_bps` bits per second,
    /// rounded up to a whole nanosecond (a frame never finishes early).
    pub fn for_bits(bits: u64, rate_bps: u64) -> SimDuration {
        assert!(rate_bps > 0, "for_bits: zero rate");
        // ceil(bits * 1e9 / rate) without overflow for realistic inputs:
        // bits < 2^40, 1e9 < 2^30 -> product < 2^70. Use u128.
        let ns = ((bits as u128) * 1_000_000_000u128).div_ceil(rate_bps as u128);
        SimDuration(ns.min(u64::MAX as u128) as u64)
    }

    /// Number of bits that fit in this span at `rate_bps` (rounded down).
    pub fn bits_at(self, rate_bps: u64) -> u64 {
        ((self.0 as u128) * (rate_bps as u128) / 1_000_000_000u128).min(u64::MAX as u128) as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}
impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}
impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}
impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}
impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}
impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}
impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}
impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}
impl Mul<u32> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u32) -> SimDuration {
        SimDuration(self.0 * rhs as u64)
    }
}
impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        debug_assert!(rhs >= 0.0 && rhs.is_finite());
        SimDuration((self.0 as f64 * rhs).round() as u64)
    }
}
impl Div<u32> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u32) -> SimDuration {
        SimDuration(self.0 / rhs as u64)
    }
}
impl Div<SimDuration> for SimDuration {
    type Output = u64;
    /// How many whole `rhs` spans fit in `self`.
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}
impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}
impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

fn fmt_ns(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns == 0 {
        write!(f, "0s")
    } else if ns < 1_000 {
        write!(f, "{ns}ns")
    } else if ns < 1_000_000 {
        write!(f, "{:.3}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        write!(f, "{:.3}ms", ns as f64 / 1e6)
    } else {
        write!(f, "{:.3}s", ns as f64 / 1e9)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t=")?;
        fmt_ns(self.0, f)
    }
}
impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}
impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}
impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_millis(5);
        let d = SimDuration::from_micros(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).since(t), d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn saturating_since_is_zero_for_future() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
    }

    #[test]
    fn for_bits_rounds_up() {
        // 1 bit at 1 Gbps = exactly 1 ns.
        assert_eq!(
            SimDuration::for_bits(1, 1_000_000_000),
            SimDuration::from_nanos(1)
        );
        // 1 bit at 3 Gbps = 1/3 ns -> rounds up to 1 ns.
        assert_eq!(
            SimDuration::for_bits(1, 3_000_000_000),
            SimDuration::from_nanos(1)
        );
        // 12000 bits (1500 B) at 1.54 Gbps ≈ 7.792 µs.
        let d = SimDuration::for_bits(12_000, 1_540_000_000);
        assert!((d.as_micros_f64() - 7.7922).abs() < 0.01, "{d}");
    }

    #[test]
    fn bits_at_inverts_for_bits() {
        let d = SimDuration::for_bits(123_456, 2_310_000_000);
        let bits = d.bits_at(2_310_000_000);
        // Rounding up the duration can only gain bits, never lose them.
        assert!((123_456..=123_456 + 3).contains(&bits), "{bits}");
    }

    #[test]
    fn bit_budget_decides_like_the_airtime() {
        // `⌈b·10⁹/r⌉ > D ⇔ b > ⌊D·r/10⁹⌋`: the MAC's aggregation loop
        // compares its running bit total with `D.bits_at(r)` instead of
        // the airtime with `D`. Every rate of the IEEE 802.11ad table in
        // `mmwave_phy::mcs`; budgets of 0, the 1.9 µs data-PHY overhead,
        // 25 µs and the 160 µs PPDU cap; every `b` up to 200,000 bits.
        const RATES: [u64; 13] = [
            27_500_000,
            385_000_000,
            770_000_000,
            962_500_000,
            1_155_000_000,
            1_251_250_000,
            1_540_000_000,
            1_925_000_000,
            2_310_000_000,
            2_502_500_000,
            3_080_000_000,
            3_850_000_000,
            4_620_000_000,
        ];
        for rate in RATES {
            for d in [0, 1_900, 25_000, 160_000].map(SimDuration::from_nanos) {
                let budget = d.bits_at(rate);
                for b in 0..=200_000u64 {
                    assert_eq!(
                        SimDuration::for_bits(b, rate) > d,
                        b > budget,
                        "{b} bits at {rate} b/s against {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn display_picks_sensible_unit() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_micros(3).to_string(), "3.000us");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimDuration::from_secs(7).to_string(), "7.000s");
        assert_eq!(SimDuration::ZERO.to_string(), "0s");
    }

    #[test]
    fn duration_div_counts_periods() {
        let d = SimDuration::from_millis(1);
        let p = SimDuration::from_micros(300);
        assert_eq!(d / p, 3);
        assert_eq!(d % p, SimDuration::from_micros(100));
    }
}
