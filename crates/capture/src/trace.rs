//! Signal traces: segment lists and sampled waveforms.
//!
//! The simulation knows frame boundaries exactly, so the native trace form
//! is a list of [`TraceSegment`]s — each one frame's worth of received
//! envelope at the capture antenna, tagged with its source for ground-truth
//! checks. Rendering to a *sampled waveform* (what the MSO-X records)
//! happens on demand: segments become noisy I-channel samples at a chosen
//! rate, and all detection then works on samples only, exactly as the
//! paper's Matlab pipeline worked on scope exports.

use mmwave_sim::rng::SimRng;
use mmwave_sim::time::{SimDuration, SimTime};
use std::sync::OnceLock;

/// Size of the sampler's noise/phase lookup tables (must be a power of 2;
/// 4096 × 8 B keeps each table comfortably inside L1).
const TABLE_BITS: u32 = 12;
const TABLE_LEN: usize = 1 << TABLE_BITS;

/// Process-wide sampling tables, built once:
///
/// * `noise` — 4096 standard-normal draws from a *fixed internal* stream,
///   re-centred and re-scaled to exactly zero mean / unit RMS, so
///   table-indexed noise reproduces `noise_rms_v` precisely;
/// * `cos` — `cos(2π·k/4096)`, the I-projection of a uniformly random
///   carrier phase at 0.09° resolution.
///
/// Indexing both with bits of a single `next_u64` replaces the old
/// per-sample Box–Muller transform (two uniforms, `ln`, `sqrt`, `cos`)
/// plus a fresh `cos` for the phase — the sampler's entire per-sample
/// transcendental budget — with two L1 loads. The sampled waveform is
/// still deterministic per RNG stream, just a *different* (and cheaper)
/// stream than before; no experiment artifact consumes these samples, and
/// the detector contract over them is statistical.
fn sampling_tables() -> &'static (Vec<f64>, Vec<f64>) {
    static TABLES: OnceLock<(Vec<f64>, Vec<f64>)> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut rng = SimRng::root(0x5c09e).stream("scope-noise-table");
        let mut noise: Vec<f64> = (0..TABLE_LEN).map(|_| rng.gauss()).collect();
        let mean = noise.iter().sum::<f64>() / TABLE_LEN as f64;
        let rms =
            (noise.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / TABLE_LEN as f64).sqrt();
        for x in &mut noise {
            *x = (*x - mean) / rms;
        }
        let cos = (0..TABLE_LEN)
            .map(|k| (std::f64::consts::TAU * k as f64 / TABLE_LEN as f64).cos())
            .collect();
        (noise, cos)
    })
}

/// Samples rendered per inner chunk of [`SignalTrace::sample_into`]: the
/// bits buffer (4 KiB) stays L1-resident and the stage-2 loop is long
/// enough to amortize its vector prologue.
const SAMPLE_CHUNK: usize = 512;

/// Reusable sweep state for [`SignalTrace::sample_into`]: segment indices
/// sorted by start time and the currently-active set. Once grown to the
/// trace's segment count, sampling performs no allocations (the output
/// vector is caller-owned and likewise reused).
#[derive(Clone, Debug, Default)]
pub struct SampleScratch {
    /// Segment indices sorted by `(start, index)`.
    by_start: Vec<u32>,
    /// Indices of segments overlapping the current sample instant.
    active: Vec<u32>,
}

/// Ground-truth tag carried by a segment (never used by the detectors —
/// only by tests validating them).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct SegmentTag {
    /// Transmitting device id.
    pub source: usize,
    /// Coarse frame class for ground truth (e.g. 0 = control, 1 = data…).
    pub class: u8,
}

/// One contiguous span of received signal with (approximately) constant
/// envelope — one frame, or one sub-element of a sweep frame.
#[derive(Clone, Copy, Debug)]
pub struct TraceSegment {
    /// Start of the span.
    pub start: SimTime,
    /// End of the span (exclusive).
    pub end: SimTime,
    /// Envelope amplitude at the scope input, volts (≥ 0).
    pub amplitude_v: f64,
    /// Ground-truth tag.
    pub tag: SegmentTag,
}

impl TraceSegment {
    /// Segment duration.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// A capture: segments over an observation window, plus the front-end
/// noise amplitude.
#[derive(Clone, Debug, Default)]
pub struct SignalTrace {
    segments: Vec<TraceSegment>,
    /// RMS noise amplitude of the front end, volts.
    pub noise_rms_v: f64,
    /// Observation window start.
    pub window_start: SimTime,
    /// Observation window end.
    pub window_end: SimTime,
}

impl SignalTrace {
    /// An empty trace over `[start, end)` with the given noise floor.
    pub fn new(window_start: SimTime, window_end: SimTime, noise_rms_v: f64) -> SignalTrace {
        assert!(window_end > window_start);
        assert!(noise_rms_v >= 0.0);
        SignalTrace {
            segments: Vec::new(),
            noise_rms_v,
            window_start,
            window_end,
        }
    }

    /// Append a segment. Segments may overlap (concurrent transmissions);
    /// they must fall at least partially inside the window.
    pub fn push(&mut self, seg: TraceSegment) {
        debug_assert!(seg.end > seg.start, "empty segment");
        if seg.end <= self.window_start || seg.start >= self.window_end {
            return; // outside the observation window
        }
        let clipped = TraceSegment {
            start: seg.start.max(self.window_start),
            end: seg.end.min(self.window_end),
            ..seg
        };
        self.segments.push(clipped);
    }

    /// All recorded segments.
    pub fn segments(&self) -> &[TraceSegment] {
        &self.segments
    }

    /// Observation window length.
    pub fn window(&self) -> SimDuration {
        self.window_end - self.window_start
    }

    /// Envelope amplitude at instant `t`: power-sum of overlapping segments
    /// (amplitudes add in quadrature — incoherent sources).
    pub fn envelope_at(&self, t: SimTime) -> f64 {
        let sum_sq: f64 = self
            .segments
            .iter()
            .filter(|s| s.start <= t && t < s.end)
            .map(|s| s.amplitude_v * s.amplitude_v)
            .sum();
        sum_sq.sqrt()
    }

    /// Render to oscilloscope samples: the I-channel of the undersampled
    /// down-converted signal. Each sample is
    /// `envelope · cos(phase) + noise`, with `phase` random per sample —
    /// exactly the effect of undersampling a 60 GHz carrier at 10⁸ S/s:
    /// the carrier phase is effectively random sample to sample, so only
    /// the envelope is recoverable (the paper's "this prevents decoding").
    /// Returns `(sample_period, samples)`.
    ///
    /// Convenience wrapper over [`SignalTrace::sample_into`] with fresh
    /// buffers; hot callers (campaign loops, benches) should hold a
    /// [`SampleScratch`] and reuse an output vector instead.
    pub fn sample(&self, rate_hz: f64, rng: &mut SimRng) -> (SimDuration, Vec<f32>) {
        let mut out = Vec::new();
        let period = self.sample_into(rate_hz, rng, &mut SampleScratch::default(), &mut out);
        (period, out)
    }

    /// [`SignalTrace::sample`] into caller-owned buffers: `out` is cleared
    /// and refilled, `scratch` holds the segment sweep state. Performs no
    /// allocations once the buffers have grown to the trace's size.
    ///
    /// The waveform is bit-identical to [`SignalTrace::sample_reference`]
    /// for the same RNG stream (verified by a differential test): samples
    /// draw exactly one `next_u64` each, in emission order, and the
    /// per-sample float expression is unchanged. Speed comes from the
    /// *structure*: the envelope is piecewise constant, so segments are
    /// scanned only at boundaries, and each run of constant-envelope
    /// samples is rendered in two stages — a serial RNG fill of a bits
    /// chunk, then a table-lookup/multiply/convert loop over the chunk
    /// with no loop-carried state, which autovectorizes (AVX2 gathers for
    /// the table loads).
    pub fn sample_into(
        &self,
        rate_hz: f64,
        rng: &mut SimRng,
        scratch: &mut SampleScratch,
        out: &mut Vec<f32>,
    ) -> SimDuration {
        assert!(rate_hz > 0.0);
        let period = SimDuration::from_secs_f64(1.0 / rate_hz);
        assert!(!period.is_zero(), "sample rate above 1 GS/s tick limit");
        let n = (self.window().as_secs_f64() * rate_hz).floor() as usize;
        let (noise_tab, cos_tab) = sampling_tables();
        let noise_rms = self.noise_rms_v;
        let mask = (TABLE_LEN - 1) as u64;
        let segs = &self.segments;
        // Sort segment starts for an O(n + m) sweep instead of O(n·m).
        // The (start, index) key reproduces the reference's *stable* sort
        // with the allocation-free unstable one — tie order decides the
        // f64 summation order of overlapping envelopes, so it must match.
        let by_start = &mut scratch.by_start;
        by_start.clear();
        by_start.extend(0..segs.len() as u32);
        by_start.sort_unstable_by_key(|&i| (segs[i as usize].start, i));
        let active = &mut scratch.active;
        active.clear();
        let mut next_seg = 0;
        out.clear();
        out.resize(n, 0.0);
        let mut t = self.window_start;
        let mut emitted = 0usize;
        while emitted < n {
            // Reconcile the active set at the current sample instant
            // (starts are inclusive, ends exclusive, as before).
            while next_seg < by_start.len() && segs[by_start[next_seg] as usize].start <= t {
                active.push(by_start[next_seg]);
                next_seg += 1;
            }
            active.retain(|&s| segs[s as usize].end > t);
            let env_sq: f64 = active
                .iter()
                .map(|&s| {
                    let a = segs[s as usize].amplitude_v;
                    a * a
                })
                .sum();
            let env = env_sq.sqrt();
            // The envelope holds until the next segment boundary: emit the
            // whole run of samples without touching the segment list.
            let mut boundary = active
                .iter()
                .map(|&s| segs[s as usize].end)
                .min()
                .unwrap_or(SimTime::MAX);
            if next_seg < by_start.len() {
                boundary = boundary.min(segs[by_start[next_seg] as usize].start);
            }
            let run = if boundary == SimTime::MAX {
                n - emitted
            } else {
                // Samples at t, t+p, … strictly before the boundary.
                let span = boundary.since(t).as_nanos();
                let p = period.as_nanos();
                (span.div_ceil(p) as usize).min(n - emitted)
            };
            // Two-stage chunked render of the run.
            let mut bits = [0u64; SAMPLE_CHUNK];
            let mut done = 0usize;
            while done < run {
                let b = (run - done).min(SAMPLE_CHUNK);
                // Stage 1: serial RNG fill — one draw per sample, in
                // emission order (the loop-carried part, nothing else).
                for w in bits[..b].iter_mut() {
                    *w = rng.next_u64();
                }
                // Stage 2: independent per-sample table/math/convert.
                let o = &mut out[emitted + done..emitted + done + b];
                for (y, &w) in o.iter_mut().zip(bits[..b].iter()) {
                    let noise = noise_tab[(w & mask) as usize] * noise_rms;
                    let c = cos_tab[((w >> TABLE_BITS) & mask) as usize];
                    *y = (env * c + noise) as f32;
                }
                done += b;
            }
            emitted += run;
            t += SimDuration::from_nanos(period.as_nanos() * run as u64);
        }
        period
    }

    /// The pre-SoA scalar sampler, kept verbatim as the bit-level
    /// specification of [`SignalTrace::sample_into`] — differential tests
    /// and the same-phase reference benches run it against the chunked
    /// path on identical RNG streams.
    pub fn sample_reference(&self, rate_hz: f64, rng: &mut SimRng) -> (SimDuration, Vec<f32>) {
        assert!(rate_hz > 0.0);
        let period = SimDuration::from_secs_f64(1.0 / rate_hz);
        assert!(!period.is_zero(), "sample rate above 1 GS/s tick limit");
        let n = (self.window().as_secs_f64() * rate_hz).floor() as usize;
        let (noise_tab, cos_tab) = sampling_tables();
        let noise_rms = self.noise_rms_v;
        let mask = (TABLE_LEN - 1) as u64;
        let mut by_start: Vec<&TraceSegment> = self.segments.iter().collect();
        by_start.sort_by_key(|s| s.start);
        let mut active: Vec<&TraceSegment> = Vec::new();
        let mut next_seg = 0;
        let mut out = Vec::with_capacity(n);
        let mut t = self.window_start;
        let mut emitted = 0usize;
        while emitted < n {
            while next_seg < by_start.len() && by_start[next_seg].start <= t {
                active.push(by_start[next_seg]);
                next_seg += 1;
            }
            active.retain(|s| s.end > t);
            let env_sq: f64 = active.iter().map(|s| s.amplitude_v * s.amplitude_v).sum();
            let env = env_sq.sqrt();
            let mut boundary = active.iter().map(|s| s.end).min().unwrap_or(SimTime::MAX);
            if next_seg < by_start.len() {
                boundary = boundary.min(by_start[next_seg].start);
            }
            let run = if boundary == SimTime::MAX {
                n - emitted
            } else {
                let span = boundary.since(t).as_nanos();
                let p = period.as_nanos();
                (span.div_ceil(p) as usize).min(n - emitted)
            };
            for _ in 0..run {
                let bits = rng.next_u64();
                let noise = noise_tab[(bits & mask) as usize] * noise_rms;
                let c = cos_tab[((bits >> TABLE_BITS) & mask) as usize];
                out.push((env * c + noise) as f32);
            }
            emitted += run;
            t += SimDuration::from_nanos(period.as_nanos() * run as u64);
        }
        (period, out)
    }

    /// Ground-truth busy intervals (union of all segments) — used to
    /// validate the threshold detector against exact knowledge.
    pub fn ground_truth_busy(&self) -> mmwave_sim::stats::BusyTracker {
        let mut b = mmwave_sim::stats::BusyTracker::new();
        for s in &self.segments {
            b.add(s.start, s.end);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn tag(src: usize) -> SegmentTag {
        SegmentTag {
            source: src,
            class: 1,
        }
    }

    #[test]
    fn push_clips_to_window() {
        let mut tr = SignalTrace::new(t(100), t(200), 0.01);
        tr.push(TraceSegment {
            start: t(50),
            end: t(150),
            amplitude_v: 0.5,
            tag: tag(0),
        });
        tr.push(TraceSegment {
            start: t(300),
            end: t(400),
            amplitude_v: 0.5,
            tag: tag(0),
        });
        assert_eq!(tr.segments().len(), 1);
        assert_eq!(tr.segments()[0].start, t(100));
        assert_eq!(tr.segments()[0].end, t(150));
    }

    #[test]
    fn envelope_adds_in_quadrature() {
        let mut tr = SignalTrace::new(t(0), t(100), 0.0);
        tr.push(TraceSegment {
            start: t(10),
            end: t(50),
            amplitude_v: 0.3,
            tag: tag(0),
        });
        tr.push(TraceSegment {
            start: t(30),
            end: t(80),
            amplitude_v: 0.4,
            tag: tag(1),
        });
        assert_eq!(tr.envelope_at(t(20)), 0.3);
        assert!((tr.envelope_at(t(40)) - 0.5).abs() < 1e-12); // sqrt(0.09+0.16)
        assert_eq!(tr.envelope_at(t(60)), 0.4);
        assert_eq!(tr.envelope_at(t(90)), 0.0);
    }

    #[test]
    fn sampling_produces_expected_count_and_bounds() {
        let mut tr = SignalTrace::new(t(0), t(1000), 0.005);
        tr.push(TraceSegment {
            start: t(100),
            end: t(300),
            amplitude_v: 0.5,
            tag: tag(0),
        });
        let mut rng = SimRng::root(1).stream("sample");
        let (period, samples) = tr.sample(1e8, &mut rng);
        assert_eq!(samples.len(), 100_000); // 1 ms at 100 MS/s
        assert_eq!(period, SimDuration::from_nanos(10));
        // Samples inside the frame reach near ±0.5; outside only noise.
        let in_frame: Vec<f32> = samples[10_000..30_000].to_vec();
        let outside: Vec<f32> = samples[50_000..70_000].to_vec();
        let max_in = in_frame.iter().fold(0f32, |a, &b| a.max(b.abs()));
        let max_out = outside.iter().fold(0f32, |a, &b| a.max(b.abs()));
        assert!(max_in > 0.4, "{max_in}");
        assert!(max_out < 0.05, "{max_out}");
    }

    #[test]
    fn sampling_is_reproducible() {
        let mut tr = SignalTrace::new(t(0), t(100), 0.01);
        tr.push(TraceSegment {
            start: t(10),
            end: t(90),
            amplitude_v: 0.2,
            tag: tag(0),
        });
        let (_, a) = tr.sample(1e7, &mut SimRng::root(5).stream("s"));
        let (_, b) = tr.sample(1e7, &mut SimRng::root(5).stream("s"));
        assert_eq!(a, b);
    }

    #[test]
    fn ground_truth_busy_merges() {
        let mut tr = SignalTrace::new(t(0), t(100), 0.0);
        tr.push(TraceSegment {
            start: t(10),
            end: t(30),
            amplitude_v: 0.1,
            tag: tag(0),
        });
        tr.push(TraceSegment {
            start: t(20),
            end: t(40),
            amplitude_v: 0.1,
            tag: tag(1),
        });
        let busy = tr.ground_truth_busy();
        assert!((busy.utilization(t(0), t(100)) - 0.3).abs() < 1e-9);
    }
}
