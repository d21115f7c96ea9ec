//! Fig. 19 — angular reflection profiles of the WiHD link in the same
//! conference room.
//!
//! §4.3: the WiHD profiles "feature more and larger lobes than in
//! [Fig. 18]" — the wider 24-element patterns spray more energy onto the
//! walls, which is exactly why the WiHD system is the worse neighbour.

use super::fig18::{check_room, run_room};
use super::RunReport;
use crate::scenarios::RoomSystem;
use mmwave_sim::ctx::SimCtx;

/// Run the Fig. 19 measurement (and the Fig. 18 baseline for comparison).
pub fn run(ctx: &SimCtx, quick: bool, seed: u64) -> RunReport {
    let (_wigig_room, wigig, _) = run_room(ctx, RoomSystem::Wigig, quick, seed);
    let (_wihd_room, wihd, output) = run_room(ctx, RoomSystem::Wihd, quick, seed + 1);

    let mut violations = check_room(&wihd);
    let refl =
        |s: &[super::fig18::ProbeSummary]| -> usize { s.iter().map(|p| p.reflection_lobes).sum() };
    // §4.3: WiHD profiles "feature more and larger lobes". Lobe *counts*
    // are a noisy metric — the wider WiHD beams merge adjacent maxima into
    // single broad lobes — so the count check is loose and the *strength*
    // check below carries the physical claim.
    if refl(&wihd) + 4 < refl(&wigig) {
        violations.push(format!(
            "WiHD reflection lobes ({}) well below WiGig ({})",
            refl(&wihd),
            refl(&wigig)
        ));
    }
    let mean_strength = |s: &[super::fig18::ProbeSummary]| -> f64 {
        let v: Vec<f64> = s.iter().filter_map(|p| p.strongest_reflection_db).collect();
        if v.is_empty() {
            return -60.0;
        }
        v.iter().sum::<f64>() / v.len() as f64
    };
    if mean_strength(&wihd) < mean_strength(&wigig) - 0.5 {
        violations.push(format!(
            "WiHD reflections not larger: {:.1} dB vs WiGig {:.1} dB (rel. peak)",
            mean_strength(&wihd),
            mean_strength(&wigig)
        ));
    }

    RunReport {
        output: output
            + &format!(
                "\ntotals — reflection lobes: WiHD {} vs WiGig {}; mean strongest reflection: WiHD {:.1} dB vs WiGig {:.1} dB\n",
                refl(&wihd),
                refl(&wigig),
                mean_strength(&wihd),
                mean_strength(&wigig)
            ),
        violations,
    }
}
