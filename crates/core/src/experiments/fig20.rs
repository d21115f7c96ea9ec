//! Fig. 20 — the blocked-LoS link: angular proof + throughput.
//!
//! The angular energy profile at the docking station shows *no* lobe on
//! the line of sight — all energy arrives via the wall — yet Iperf still
//! measures ≈550 Mb/s, more than half of a line-of-sight link.

use super::RunReport;
use crate::analysis::reflections::measure_profile;
use crate::report;
use crate::scenarios::{blocked_los_link, point_to_point};
use mmwave_geom::Angle;
use mmwave_mac::NetConfig;
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::{SimDuration, SimTime};
use mmwave_transport::{Stack, TcpConfig};

/// Run the Fig. 20 measurement.
pub fn run(ctx: &SimCtx, quick: bool, seed: u64) -> RunReport {
    let cfg = NetConfig {
        seed,
        enable_fading: false,
        ..NetConfig::default()
    };
    let mut b = blocked_los_link(ctx, cfg.clone());
    let mut violations = Vec::new();

    // --- Angular profile at the dock (short loaded run) ---
    let mut i = 0u64;
    let profile_window = SimTime::from_millis(20);
    while b.net.now() < profile_window {
        for _ in 0..20 {
            b.net.push_mpdu(b.laptop, 1500, i);
            i += 1;
        }
        let t = b.net.now();
        b.net.run_until(t + SimDuration::from_micros(400));
    }
    let dock_pos = b.net.device(b.dock).node.position;
    let laptop_pos = b.net.device(b.laptop).node.position;
    let profile = measure_profile(&b.net, dock_pos, 120, SimTime::ZERO, profile_window);
    let los_dir = Angle::from_radians((laptop_pos - dock_pos).angle());
    // The wall bounce arrives from up-and-right (towards the reflection
    // point at y = wall height).
    let bounce_dir = Angle::from_radians(
        (mmwave_geom::Point::new(laptop_pos.x / 2.0, b.wall_y) - dock_pos).angle(),
    );
    if profile.has_lobe_toward(los_dir, 12f64.to_radians(), 1.0, 6.0) {
        violations.push("profile still shows a line-of-sight lobe — blockage failed".into());
    }
    if !profile.has_lobe_toward(bounce_dir, 18f64.to_radians(), 1.0, 3.0) {
        violations.push(format!(
            "dominant energy does not arrive via the wall (expected from {bounce_dir})"
        ));
    }

    // --- TCP throughput over the reflection ---
    let mut b2 = blocked_los_link(
        ctx,
        NetConfig {
            seed: seed + 1,
            ..cfg.clone()
        },
    );
    b2.net.txlog_mut().set_enabled(false);
    let mut stack = Stack::new(b2.net);
    // Download direction (dock → laptop), the docking station's main use.
    let flow = stack.add_flow(TcpConfig::bulk(b2.dock, b2.laptop, 256 * 1024));
    let end = SimTime::from_secs_f64(if quick { 1.0 } else { 3.0 });
    stack.run_until(end);
    let nlos = stack
        .flow_stats(flow)
        .mean_goodput_mbps(SimTime::from_millis(300), end);

    // Line-of-sight reference at the same distance.
    let mut p = point_to_point(
        ctx,
        4.8,
        NetConfig {
            seed: seed + 2,
            ..cfg
        },
    );
    p.net.txlog_mut().set_enabled(false);
    let mut los_stack = Stack::new(p.net);
    let los_flow = los_stack.add_flow(TcpConfig::bulk(p.dock, p.laptop, 256 * 1024));
    los_stack.run_until(end);
    let los = los_stack
        .flow_stats(los_flow)
        .mean_goodput_mbps(SimTime::from_millis(300), end);

    // §4.3: ≈550 Mb/s, "more than half of what we measure on line-of-sight
    // links".
    // The reflected link runs BPSK 5/8 (≈963 Mb/s PHY): materially slower
    // than LoS but clearly usable — the paper measured 550 Mb/s; our MAC's
    // per-burst overheads land somewhat higher (see EXPERIMENTS.md).
    if !(450.0..=820.0).contains(&nlos) {
        violations.push(format!("NLoS throughput {nlos:.0} Mb/s (paper: ≈550)"));
    }
    if nlos < 0.5 * los {
        violations.push(format!("NLoS {nlos:.0} below half of LoS {los:.0}"));
    }
    if nlos > 0.95 * los {
        violations.push(format!(
            "NLoS {nlos:.0} indistinguishable from LoS {los:.0} — reflection loss missing"
        ));
    }

    let output = report::polar(
        "Fig. 20 — angular energy profile at the docking station (LoS blocked)",
        &profile.normalized_db(),
    ) + &format!(
        "\nLoS direction: {los_dir} (no lobe)   wall bounce: {bounce_dir} (dominant)\n\
         TCP over the reflection: {nlos:.0} Mb/s   line-of-sight reference: {los:.0} Mb/s\n"
    );

    RunReport { output, violations }
}
