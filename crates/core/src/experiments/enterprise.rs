//! Dense enterprise deployment — a multi-room office floor at scale.
//!
//! The paper measures single rooms; this experiment extrapolates its
//! models to the deployment density §6 worries about: a 6×3 grid of
//! radio-closed offices (absorber-grade partitions, one metal reflector
//! per room for multipath), six WiGig dock–laptop links per room
//! (108 links, 216 stations) plus a WiHD pair in every third room. Every
//! office is declared an opaque zone, and the medium runs with the
//! spatial interference graph enabled: cross-room pairs are provably
//! below the coupling floor and never touch the radiometric chain.
//!
//! Reported artifacts: per-link delivered throughput, aggregate floor
//! throughput, mean per-device airtime share, and Jain's fairness index
//! over the per-link throughputs. The prune mode honours the context
//! override ([`mmwave_channel::spatial::install_override`]), which the
//! campaign differential suite uses to prove enforce-mode and audit-mode
//! runs byte-identical.

use super::RunReport;
use crate::report;
use crate::scenarios::seeds;
use mmwave_channel::{Environment, SpatialConfig};
use mmwave_geom::{Angle, Material, Point, Room, Segment};
use mmwave_mac::{Delivery, Device, Net, NetConfig};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::hash::FastMap;
use mmwave_sim::time::SimTime;

const ROOMS_X: usize = 6;
const ROOMS_Y: usize = 3;
const ROOM_W: f64 = 6.0;
const ROOM_H: f64 = 4.0;
const PITCH_X: f64 = 6.4;
const PITCH_Y: f64 = 4.4;
const LINKS_PER_ROOM: usize = 6;

/// Jain's fairness index `(Σx)² / (n·Σx²)`; 1.0 when `xs` is empty.
fn jain(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

/// Run the enterprise floor.
pub fn run(ctx: &SimCtx, quick: bool, seed: u64) -> RunReport {
    let cfg = NetConfig {
        seed,
        enable_fading: false,
        ..NetConfig::default()
    };

    // --- floor plan -----------------------------------------------------
    let mut room = Room::open_space();
    for ry in 0..ROOMS_Y {
        for rx in 0..ROOMS_X {
            let (x0, y0) = (rx as f64 * PITCH_X, ry as f64 * PITCH_Y);
            let (x1, y1) = (x0 + ROOM_W, y0 + ROOM_H);
            let corners = [
                (Point::new(x0, y0), Point::new(x1, y0)),
                (Point::new(x1, y0), Point::new(x1, y1)),
                (Point::new(x1, y1), Point::new(x0, y1)),
                (Point::new(x0, y1), Point::new(x0, y0)),
            ];
            for (i, (a, b)) in corners.into_iter().enumerate() {
                room.add_obstacle(
                    Segment::new(a, b),
                    Material::Absorber,
                    format!("office-{rx}-{ry}-{i}"),
                );
            }
            // A metal cabinet along the left wall: in-room multipath.
            room.add_obstacle(
                Segment::new(
                    Point::new(x0 + 0.15, y0 + 1.2),
                    Point::new(x0 + 0.15, y0 + 2.8),
                ),
                Material::Metal,
                format!("cabinet-{rx}-{ry}"),
            );
            room.add_zone(Point::new(x0, y0), Point::new(x1, y1));
        }
    }
    let mut net = Net::with_ctx(Environment::new(room), cfg, ctx);
    net.txlog_mut().set_enabled(false);

    // --- stations -------------------------------------------------------
    let mut links: Vec<(usize, usize)> = Vec::new(); // (dock, laptop)
    for ry in 0..ROOMS_Y {
        for rx in 0..ROOMS_X {
            let (x0, y0) = (rx as f64 * PITCH_X, ry as f64 * PITCH_Y);
            for k in 0..LINKS_PER_ROOM {
                let x = x0 + 0.8 + k as f64 * 0.88;
                let dock = net.add_device(Device::wigig_dock(
                    ctx,
                    &format!("dock-{rx}-{ry}-{k}"),
                    Point::new(x, y0 + 0.6),
                    Angle::from_degrees(90.0),
                    seeds::DOCK_A,
                ));
                let laptop = net.add_device(Device::wigig_laptop(
                    ctx,
                    &format!("laptop-{rx}-{ry}-{k}"),
                    Point::new(x + 0.3, y0 + ROOM_H - 0.6),
                    Angle::from_degrees(-90.0),
                    seeds::LAPTOP_A,
                ));
                links.push((dock, laptop));
            }
            if (rx + ry) % 3 == 0 {
                let src = net.add_device(Device::wihd_source(
                    ctx,
                    &format!("wihd-src-{rx}-{ry}"),
                    Point::new(x0 + 1.0, y0 + 2.0),
                    Angle::ZERO,
                    seeds::WIHD_TX,
                ));
                let sink = net.add_device(Device::wihd_sink(
                    ctx,
                    &format!("wihd-sink-{rx}-{ry}"),
                    Point::new(x0 + ROOM_W - 0.8, y0 + 2.0),
                    Angle::from_degrees(180.0),
                    seeds::WIHD_RX,
                ));
                net.pair_wihd_instantly(src, sink);
            }
        }
    }
    net.enable_spatial(&SpatialConfig::default());
    for &(dock, laptop) in &links {
        net.associate_instantly(dock, laptop);
    }

    // --- traffic --------------------------------------------------------
    let horizon_ms = if quick { 20u64 } else { 120u64 };
    let mut delivered_bytes = vec![0u64; links.len()];
    let link_of_dock: FastMap<usize, usize> = links
        .iter()
        .enumerate()
        .map(|(i, &(dock, _))| (dock, i))
        .collect();
    let mut tag = 0u64;
    let mut scratch = Vec::new();
    for ms in 1..=horizon_ms {
        for &(dock, _) in &links {
            for _ in 0..2 {
                net.push_mpdu(dock, 1500, tag);
                tag += 1;
            }
        }
        net.run_until(SimTime::from_millis(ms));
        net.drain_deliveries_into(&mut scratch);
        for d in &scratch {
            if let Delivery::Mpdu { src, bytes, .. } = d {
                if let Some(&l) = link_of_dock.get(src) {
                    delivered_bytes[l] += *bytes as u64;
                }
            }
        }
    }

    // --- metrics --------------------------------------------------------
    let secs = horizon_ms as f64 / 1e3;
    let mbps: Vec<f64> = delivered_bytes
        .iter()
        .map(|b| *b as f64 * 8.0 / secs / 1e6)
        .collect();
    let aggregate: f64 = mbps.iter().sum();
    let fairness = jain(&mbps);
    let airtime: f64 = links
        .iter()
        .map(|&(dock, _)| net.device(dock).stats.tx_airtime_ns as f64 / (horizon_ms as f64 * 1e6))
        .sum::<f64>()
        / links.len() as f64;
    let pruned = ctx.counters().spatial_pruned_pairs;

    let mut violations = Vec::new();
    if links.len() < 100 {
        violations.push(format!(
            "{} links — floor below the 100-link target",
            links.len()
        ));
    }
    let dead = mbps.iter().filter(|m| **m == 0.0).count();
    if dead > 0 {
        violations.push(format!("{dead} links delivered nothing"));
    }
    if fairness < 0.55 {
        violations.push(format!(
            "Jain fairness {fairness:.3} — dense floor starves some links"
        ));
    }
    if aggregate < 10.0 * links.len() as f64 / 1e3 {
        violations.push(format!("aggregate {aggregate:.1} Mb/s implausibly low"));
    }
    if pruned == 0 {
        violations.push("spatial interference graph never pruned a pair".into());
    }

    let pts: Vec<(f64, f64)> = mbps
        .iter()
        .enumerate()
        .map(|(i, m)| (i as f64, *m))
        .collect();
    let output = report::series(
        "Enterprise floor — per-link delivered throughput",
        "link",
        "Mb/s",
        &pts,
    ) + &format!(
        "\nlinks: {}   aggregate: {aggregate:.1} Mb/s   Jain: {fairness:.3}   \
         mean dock airtime: {:.3}   pruned pairs: {pruned}\n",
        links.len(),
        airtime,
    );

    RunReport { output, violations }
}
