//! Deterministic random numbers with labelled substreams.
//!
//! Every stochastic component in a simulation (fading process, per-frame
//! error draws, TCP jitter, measurement noise, …) pulls from its own
//! substream, derived from the root seed and a string label. This gives two
//! properties the experiment suite relies on:
//!
//! 1. **Reproducibility** — the same root seed always produces the same
//!    campaign, so integration tests can assert concrete numbers.
//! 2. **Stability under extension** — adding a new random component (a new
//!    label) never shifts the draws of existing components, so unrelated
//!    regression baselines survive refactors.
//!
//! The generator is a hand-rolled xoshiro256\*\* (public domain algorithm by
//! Blackman & Vigna) so the whole crate is **std-only**: the simulation has
//! no external dependencies and builds in hermetic/offline environments.
//! The campaign-orchestration layer relies on this — per-task streams are
//! derived from `(experiment id, seed)` alone, so results are bitwise
//! identical regardless of worker count or scheduling order.

/// FNV-1a 64-bit hash; tiny, stable, good enough for seed derivation.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer; decorrelates nearby seed values.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xoshiro256** state, expanded from a 64-bit seed via SplitMix64 so that
/// no state word is ever all-zero.
#[derive(Clone, Debug)]
struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    fn seed_from_u64(seed: u64) -> Self {
        let mut z = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            *w = splitmix(z);
        }
        Xoshiro256 { s }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// A deterministic RNG tied to a root seed, able to fork labelled substreams.
///
/// ```
/// use mmwave_sim::rng::SimRng;
///
/// let mut a = SimRng::root(42).stream("fading");
/// let mut b = SimRng::root(42).stream("fading");
/// assert_eq!(a.next_u64(), b.next_u64());            // same label, same draws
/// let mut c = SimRng::root(42).stream("frame-errors");
/// assert_ne!(a.next_u64(), c.next_u64());            // different label, independent
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    seed: u64,
    inner: Xoshiro256,
}

impl SimRng {
    /// Create the root stream for a campaign.
    pub fn root(seed: u64) -> SimRng {
        SimRng {
            seed,
            inner: Xoshiro256::seed_from_u64(splitmix(seed)),
        }
    }

    /// Fork an independent substream identified by `label`.
    pub fn stream(&self, label: &str) -> SimRng {
        let derived = splitmix(self.seed ^ fnv1a(label.as_bytes()));
        SimRng {
            seed: derived,
            inner: Xoshiro256::seed_from_u64(derived),
        }
    }

    /// Fork an independent substream identified by `label` and an index
    /// (e.g. one stream per node or per run).
    pub fn stream_n(&self, label: &str, n: u64) -> SimRng {
        let derived = splitmix(self.seed ^ fnv1a(label.as_bytes()) ^ splitmix(n));
        SimRng {
            seed: derived,
            inner: Xoshiro256::seed_from_u64(derived),
        }
    }

    /// The derived seed of this stream (for diagnostics).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Next raw 32-bit draw (upper bits of a 64-bit draw).
    pub fn next_u32(&mut self) -> u32 {
        (self.inner.next_u64() >> 32) as u32
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard-normal draw (Box–Muller; two uniforms per call, no caching so
    /// draw counts stay easy to reason about).
    pub fn gauss(&mut self) -> f64 {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1: f64 = self.f64().max(f64::MIN_POSITIVE);
        let u2: f64 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gauss()
    }

    /// Exponentially distributed draw with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u: f64 = self.f64().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Bernoulli draw: true with probability `p` (clamped to [0, 1]).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform: empty range");
        lo + (hi - lo) * self.f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_is_identical() {
        let mut a = SimRng::root(7).stream("x");
        let mut b = SimRng::root(7).stream("x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_are_independent() {
        let mut a = SimRng::root(7).stream("alpha");
        let mut b = SimRng::root(7).stream("beta");
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn stream_n_indices_are_independent() {
        let root = SimRng::root(99);
        let mut s0 = root.stream_n("node", 0);
        let mut s1 = root.stream_n("node", 1);
        assert_ne!(s0.next_u64(), s1.next_u64());
    }

    #[test]
    fn different_root_seeds_differ() {
        let mut a = SimRng::root(1).stream("x");
        let mut b = SimRng::root(2).stream("x");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::root(11).stream("unit");
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v), "f64 out of range: {v}");
        }
    }

    #[test]
    fn gauss_moments() {
        let mut r = SimRng::root(5).stream("gauss");
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.gauss()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::root(5).stream("exp");
        let n = 20_000;
        let mean = (0..n).map(|_| r.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::root(1).stream("chance");
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((hits as f64 / 10_000.0 - 0.3).abs() < 0.03);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = SimRng::root(1).stream("uni");
        for _ in 0..1000 {
            let v = r.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&v));
        }
    }
}
