//! Table 1 — frame periodicities of both systems.
//!
//! | Frame type                    | Paper's interval |
//! |-------------------------------|------------------|
//! | D5000 device discovery frame  | 102.4 ms         |
//! | D5000 beacon frame            | 1.1 ms           |
//! | WiHD device discovery frame   | 20 ms            |
//! | WiHD beacon frame             | 0.224 ms         |
//!
//! Measured from the MAC's transmission log (`TxLog`): the frame starts
//! of each class, by their ground-truth `FrameClass` labels, and the
//! median repeat interval. The paper extracted the same starts from
//! captured traces; this run does not go through the capture crate.

use super::RunReport;
use crate::report;
use crate::scenarios::{point_to_point, seeds};
use mmwave_channel::Environment;
use mmwave_geom::{Angle, Point, Room};
use mmwave_mac::{Device, FrameClass, Net, NetConfig, PatKey};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::SimTime;

fn quiet(seed: u64) -> NetConfig {
    NetConfig {
        seed,
        enable_fading: false,
        ..NetConfig::default()
    }
}

fn median_interval_ms(mut starts: Vec<SimTime>) -> Option<f64> {
    if starts.len() < 3 {
        return None;
    }
    starts.sort();
    let mut gaps: Vec<f64> = starts
        .windows(2)
        .map(|w| (w[1] - w[0]).as_millis_f64())
        .collect();
    gaps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Some(gaps[gaps.len() / 2])
}

/// Run the Table 1 measurement.
pub fn run(ctx: &SimCtx, quick: bool, seed: u64) -> RunReport {
    let horizon = SimTime::from_millis(if quick { 400 } else { 1200 });

    // Unpaired systems: discovery periodicities.
    let mut idle = Net::with_ctx(Environment::new(Room::open_space()), quiet(seed), ctx);
    let dock = idle.add_device(Device::wigig_dock(
        ctx,
        "Dock",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        seeds::DOCK_A,
    ));
    let hdmi = idle.add_device(Device::wihd_source(
        ctx,
        "HDMI TX",
        Point::new(20.0, 20.0),
        Angle::ZERO,
        seeds::WIHD_TX,
    ));
    idle.start();
    idle.run_until(horizon);
    // A sweep's first sub-element marks the discovery frame start. The
    // D5000's order is fixed (Qo(0) first); the WiHD's is shuffled, so the
    // earliest sub-element per sweep burst is found by gap-splitting.
    let d5000_disc = idle
        .txlog()
        .of(dock, FrameClass::DiscoverySub)
        .filter(|e| e.pattern == PatKey::Qo(0))
        .map(|e| e.start)
        .collect::<Vec<_>>();
    let mut wihd_subs: Vec<SimTime> = idle
        .txlog()
        .of(hdmi, FrameClass::DiscoverySub)
        .map(|e| e.start)
        .collect();
    wihd_subs.sort();
    let mut wihd_disc = Vec::new();
    let mut last_end = SimTime::ZERO;
    for s in wihd_subs {
        if wihd_disc.is_empty() || s.saturating_since(last_end).as_millis_f64() > 1.0 {
            wihd_disc.push(s);
        }
        last_end = s;
    }

    // Established links: beacon periodicities.
    let p = point_to_point(ctx, 2.0, quiet(seed + 1));
    let mut paired = p.net;
    let hdmi_tx = paired.add_device(Device::wihd_source(
        ctx,
        "HDMI TX",
        Point::new(0.0, 10.0),
        Angle::ZERO,
        seeds::WIHD_TX,
    ));
    let hdmi_rx = paired.add_device(Device::wihd_sink(
        ctx,
        "HDMI RX",
        Point::new(8.0, 10.0),
        Angle::from_degrees(180.0),
        seeds::WIHD_RX,
    ));
    paired.pair_wihd_instantly(hdmi_tx, hdmi_rx);
    paired.run_until(horizon.min(SimTime::from_millis(300)));
    let d5000_beacons: Vec<SimTime> = paired
        .txlog()
        .of(p.dock, FrameClass::Beacon)
        .map(|e| e.start)
        .collect();
    let wihd_beacons: Vec<SimTime> = paired
        .txlog()
        .of(hdmi_rx, FrameClass::WihdBeacon)
        .map(|e| e.start)
        .collect();

    let rows_data = [
        (
            "D5000 Device Discovery Frame",
            median_interval_ms(d5000_disc),
            102.4,
        ),
        ("D5000 Beacon Frame", median_interval_ms(d5000_beacons), 1.1),
        (
            "WiHD Device Discovery Frame",
            median_interval_ms(wihd_disc),
            20.0,
        ),
        ("WiHD Beacon Frame", median_interval_ms(wihd_beacons), 0.224),
    ];

    let mut violations = Vec::new();
    let mut rows = Vec::new();
    for (name, measured, expected) in rows_data {
        match measured {
            Some(ms) => {
                rows.push(vec![
                    name.to_string(),
                    format!("{ms:.3} ms"),
                    format!("{expected} ms"),
                ]);
                if (ms - expected).abs() / expected > 0.02 {
                    violations.push(format!(
                        "{name}: measured {ms:.3} ms vs paper {expected} ms"
                    ));
                }
            }
            None => violations.push(format!("{name}: too few frames captured")),
        }
    }

    RunReport {
        output: report::table(
            "Table 1 — frame periodicity",
            &["Frame type", "Measured interval", "Paper"],
            &rows,
        ),
        violations,
    }
}
