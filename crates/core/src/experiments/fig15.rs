//! Fig. 15 — the DVDO Air-3c WiHD frame flow.
//!
//! In contrast to the D5000 there is no data/ACK pairing: the source emits
//! variable-length data frames following the sink's periodic beacons, and
//! when the video queue empties only beacons remain on the air. The trace
//! shows the transition from active transmission to idle.

use super::RunReport;
use crate::report;
use crate::scenarios::seeds;
use mmwave_channel::Environment;
use mmwave_geom::{Angle, Point, Room};
use mmwave_mac::{Device, FrameClass, Net, NetConfig};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::SimTime;

/// Run the Fig. 15 capture.
pub fn run(ctx: &SimCtx, _quick: bool, seed: u64) -> RunReport {
    let mut net = Net::with_ctx(
        Environment::new(Room::open_space()),
        NetConfig {
            seed,
            enable_fading: false,
            ..NetConfig::default()
        },
        ctx,
    );
    let tx = net.add_device(Device::wihd_source(
        ctx,
        "HDMI TX",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        seeds::WIHD_TX,
    ));
    let rx = net.add_device(Device::wihd_sink(
        ctx,
        "HDMI RX",
        Point::new(8.0, 0.0),
        Angle::from_degrees(180.0),
        seeds::WIHD_RX,
    ));
    net.pair_wihd_instantly(tx, rx);
    // Stream for 40 ms, then cut the video: the trace must transition from
    // data+beacons to beacons only.
    net.run_until(SimTime::from_millis(40));
    net.set_video(tx, false);
    net.run_until(SimTime::from_millis(80));

    let active = (SimTime::from_millis(10), SimTime::from_millis(38));
    let idle = (SimTime::from_millis(45), SimTime::from_millis(80));

    let data_active = net
        .txlog()
        .in_window(active.0, active.1)
        .filter(|e| e.class == FrameClass::WihdData)
        .count();
    let data_idle = net
        .txlog()
        .in_window(idle.0, idle.1)
        .filter(|e| e.class == FrameClass::WihdData)
        .count();
    let beacons_idle = net
        .txlog()
        .in_window(idle.0, idle.1)
        .filter(|e| e.class == FrameClass::WihdBeacon)
        .count();
    let acks =
        net.txlog().of(rx, FrameClass::Ack).count() + net.txlog().of(tx, FrameClass::Ack).count();

    // Data frames come in variable lengths (the last frame of a burst is a
    // remainder).
    let durs: Vec<f64> = net
        .txlog()
        .in_window(active.0, active.1)
        .filter(|e| e.class == FrameClass::WihdData)
        .map(|e| (e.end - e.start).as_micros_f64())
        .collect();
    let min_dur = durs.iter().cloned().fold(f64::MAX, f64::min);
    let max_dur = durs.iter().cloned().fold(f64::MIN, f64::max);

    let mut violations = Vec::new();
    if data_active < 50 {
        violations.push(format!("only {data_active} data frames while streaming"));
    }
    if data_idle > 0 {
        violations.push(format!("{data_idle} data frames after the stream stopped"));
    }
    let expected_beacons = (idle.1 - idle.0).as_micros_f64() / 224.0;
    if (beacons_idle as f64) < 0.95 * expected_beacons {
        violations.push(format!(
            "beacons stopped with the video: {beacons_idle} vs expected ≈{expected_beacons:.0}"
        ));
    }
    if acks > 0 {
        violations.push(format!("WiHD must not exchange ACK frames, saw {acks}"));
    }
    if durs.len() > 10 && max_dur - min_dur < 5.0 {
        violations.push(format!(
            "data frames suspiciously uniform: {min_dur:.1}–{max_dur:.1} µs"
        ));
    }

    // Timeline excerpt around one beacon period while streaming.
    let mut rows = Vec::new();
    for e in net
        .txlog()
        .in_window(SimTime::from_millis(20), SimTime::from_micros(20_800))
        .take(12)
    {
        rows.push(vec![
            format!("{:?}", e.class),
            format!("{:.1} µs", e.start.as_micros_f64() - 20_000.0),
            format!("{:.1} µs", (e.end - e.start).as_micros_f64()),
        ]);
    }
    let output = report::table(
        "Fig. 15 — WiHD frame flow (one beacon period while streaming)",
        &["frame", "t (rel.)", "duration"],
        &rows,
    ) + &format!(
        "\nstreaming: {data_active} data frames ({min_dur:.1}–{max_dur:.1} µs)   after video off: {data_idle} data frames, {beacons_idle} beacons\n",
    );

    RunReport { output, violations }
}
