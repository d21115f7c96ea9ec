//! Fig. 18 — angular reflection profiles of the D5000 link in the
//! conference room.
//!
//! At six probe positions, most profiles show a lobe towards the
//! transmitter and one towards the receiver (its ACK traffic), and a
//! significant number show *additional* lobes pointing at walls — first-
//! and second-order reflections.

use super::RunReport;
use crate::analysis::reflections::{expected_directions, measure_profile, unattributed_lobes};
use crate::report;
use crate::scenarios::{reflection_room, ReflectionRoom, RoomSystem};
use mmwave_mac::NetConfig;
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::{SimDuration, SimTime};

/// Per-probe profile summary shared with Fig. 19.
pub struct ProbeSummary {
    /// Probe letter.
    pub letter: char,
    /// Total lobes within 12 dB of the profile peak.
    pub lobes: usize,
    /// Lobes not pointing at either device.
    pub reflection_lobes: usize,
    /// Level of the strongest reflection lobe relative to the profile
    /// peak, dB (None if no reflection lobe).
    pub strongest_reflection_db: Option<f64>,
    /// Whether lobes towards TX and RX were found.
    pub tx_rx_seen: (bool, bool),
}

/// Run the room campaign for one system; shared by Figs. 18 and 19.
pub fn run_room(
    ctx: &SimCtx,
    system: RoomSystem,
    quick: bool,
    seed: u64,
) -> (ReflectionRoom, Vec<ProbeSummary>, String) {
    let mut r = reflection_room(
        ctx,
        system,
        NetConfig {
            seed,
            enable_fading: false,
            ..NetConfig::default()
        },
    );
    let horizon = SimTime::from_millis(if quick { 30 } else { 120 });
    match system {
        RoomSystem::Wigig => {
            // Load the laptop→dock direction.
            let mut i = 0u64;
            while r.net.now() < horizon {
                for _ in 0..20 {
                    r.net.push_mpdu(r.tx, 1500, i);
                    i += 1;
                }
                let t = r.net.now();
                r.net.run_until(t + SimDuration::from_micros(400));
            }
        }
        RoomSystem::Wihd => {
            r.net.run_until(horizon); // video streams by itself
        }
    }

    let tol = 16f64.to_radians();
    let mut output = String::new();
    let mut summaries = Vec::new();
    for (letter, pos) in r.layout.probes {
        let profile = measure_profile(&r.net, pos, 120, SimTime::ZERO, horizon);
        let exp = expected_directions(&r.net, pos, r.tx, r.rx);
        let pattern = profile.as_pattern();
        let peak = pattern.peak().gain_dbi;
        let lobes = pattern
            .lobes(1.0)
            .into_iter()
            .filter(|l| l.gain_dbi >= peak - 12.0)
            .count();
        let refl_dirs = unattributed_lobes(&profile, &exp, tol, 1.0, 12.0);
        let refl = refl_dirs.len();
        let strongest_reflection_db = refl_dirs
            .iter()
            .map(|d| pattern.gain_dbi(*d) - peak)
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            });
        let tx_seen = profile.has_lobe_toward(exp.toward_tx, tol, 1.0, 20.0);
        let rx_seen = profile.has_lobe_toward(exp.toward_rx, tol, 1.0, 20.0);
        output.push_str(&report::polar(
            &format!(
                "position {letter}: {lobes} lobes (≤8 dB), {refl} reflection lobes, TX {} RX {}",
                if tx_seen { "✓" } else { "✗" },
                if rx_seen { "✓" } else { "✗" }
            ),
            &profile.normalized_db(),
        ));
        output.push('\n');
        summaries.push(ProbeSummary {
            letter,
            lobes,
            reflection_lobes: refl,
            strongest_reflection_db,
            tx_rx_seen: (tx_seen, rx_seen),
        });
    }
    (r, summaries, output)
}

/// Shape checks common to Figs. 18/19.
pub fn check_room(summaries: &[ProbeSummary]) -> Vec<String> {
    let mut violations = Vec::new();
    // "most angular patterns have at least two clearly identifiable lobes"
    let two_plus = summaries.iter().filter(|s| s.lobes >= 2).count();
    if two_plus < 4 {
        violations.push(format!("only {two_plus}/6 probes show ≥2 lobes"));
    }
    // TX or RX lobe visible almost everywhere.
    let endpoint_seen = summaries
        .iter()
        .filter(|s| s.tx_rx_seen.0 || s.tx_rx_seen.1)
        .count();
    if endpoint_seen < 5 {
        violations.push(format!(
            "device lobes visible at only {endpoint_seen}/6 probes"
        ));
    }
    // "a significant number of angular patterns feature additional lobes"
    let with_reflections = summaries.iter().filter(|s| s.reflection_lobes > 0).count();
    if with_reflections < 2 {
        violations.push(format!(
            "reflection lobes at only {with_reflections}/6 probes — reflections too weak"
        ));
    }
    violations
}

/// Run the Fig. 18 measurement.
pub fn run(ctx: &SimCtx, quick: bool, seed: u64) -> RunReport {
    let (_room, summaries, output) = run_room(ctx, RoomSystem::Wigig, quick, seed);
    let violations = check_room(&summaries);
    RunReport { output, violations }
}
