//! The Gigabit-Ethernet bottleneck.
//!
//! §4.1: "we do not observe results beyond roughly 900 mbps because the
//! Gigabit Ethernet interface at the docking station limits the achievable
//! throughput". The model is a token-paced serializer: each segment
//! occupies the wire for `bits/rate`, so the stream entering the air
//! interface can never exceed the wire rate.

use mmwave_sim::time::{SimDuration, SimTime};

/// Effective GigE payload rate: 1 Gb/s minus inter-frame gap, preamble,
/// Ethernet and IP/TCP header overhead on 1500-byte frames. The paper's
/// throughput plateau sits at 930–934 Mb/s; this end-to-end constant
/// reproduces it.
pub const GIGE_EFFECTIVE_BPS: u64 = 936_000_000;

/// A serializing rate limiter: admits a packet only when the previous one
/// has left the wire.
#[derive(Clone, Debug)]
pub struct RateLimiter {
    rate_bps: u64,
    next_free: SimTime,
}

impl RateLimiter {
    /// A limiter at `rate_bps`.
    pub fn new(rate_bps: u64) -> RateLimiter {
        assert!(rate_bps > 0);
        RateLimiter {
            rate_bps,
            next_free: SimTime::ZERO,
        }
    }

    /// The standard GigE bottleneck.
    pub fn gige() -> RateLimiter {
        RateLimiter::new(GIGE_EFFECTIVE_BPS)
    }

    /// The configured rate.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Earliest time a new packet may start.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Try to admit `bytes` at `now`. On success the wire is busy for the
    /// serialization time and the call returns `true`; otherwise the caller
    /// should retry at [`RateLimiter::next_free`].
    pub fn admit(&mut self, now: SimTime, bytes: u32) -> bool {
        if now < self.next_free {
            return false;
        }
        self.next_free = now + SimDuration::for_bits(bytes as u64 * 8, self.rate_bps);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_spacing() {
        let mut l = RateLimiter::new(1_000_000_000);
        let t0 = SimTime::from_micros(100);
        assert!(l.admit(t0, 1500));
        // 12 µs on the wire at 1 Gb/s.
        assert_eq!(l.next_free(), t0 + SimDuration::from_micros(12));
        assert!(!l.admit(t0 + SimDuration::from_micros(5), 1500));
        assert!(l.admit(t0 + SimDuration::from_micros(12), 1500));
    }

    #[test]
    fn sustained_rate_is_the_configured_rate() {
        let mut l = RateLimiter::gige();
        let mut t = SimTime::ZERO;
        let mut sent = 0u64;
        let horizon = SimTime::from_millis(100);
        while t < horizon {
            if l.admit(t, 1500) {
                sent += 1500 * 8;
            }
            t = l.next_free();
        }
        let rate = sent as f64 / 0.1;
        assert!(
            (rate / GIGE_EFFECTIVE_BPS as f64 - 1.0).abs() < 0.01,
            "rate {rate}"
        );
    }

    #[test]
    fn idle_wire_admits_immediately() {
        let mut l = RateLimiter::gige();
        assert!(l.admit(SimTime::from_secs(5), 60));
    }
}
