//! Ablation studies for the §5 design principles: what moves when the
//! cost-effective hardware and the protocol policies change?
//!
//! ```text
//! cargo run --release --bin ablations
//! ```
//!
//! * phase-shifter resolution vs side lobes (the "cheap hardware" knob);
//! * aggregation cap vs throughput and channel time (the §5 aggregation
//!   principle);
//! * carrier-sense threshold vs interference loss (the §5 MAC-behaviour
//!   principle);
//! * reflection order vs angular-profile lobes (the §5 geometric-MAC
//!   principle: "extend the geometric approach to include up to two
//!   reflections").

use mmwave_core::analysis::reflections::{
    expected_directions, measure_profile, unattributed_lobes,
};
use mmwave_core::report;
use mmwave_core::scenarios::{self, point_to_point, RoomSystem};
use mmwave_geom::Angle;
use mmwave_mac::{NetConfig, WigigConfig};
use mmwave_phy::{ArrayConfig, PhaseShifter, PhasedArray};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::{SimDuration, SimTime};
use mmwave_transport::{Stack, TcpConfig};

fn quiet(seed: u64) -> NetConfig {
    NetConfig {
        seed,
        enable_fading: false,
        ..NetConfig::default()
    }
}

fn ablate_phase_shifters() {
    // Average the side-lobe level over steering angles and device seeds,
    // once with the calibrated manufacturing errors and once without, so
    // the two imperfection sources separate cleanly.
    let steers = [-50.0, -30.0, -15.0, 15.0, 30.0, 50.0];
    let seeds = [1u64, 5, 7, 11, 13, 17];
    let mut rows = Vec::new();
    for bits in 1..=6u8 {
        let mean_sll = |with_errors: bool| -> f64 {
            let mut acc = 0.0;
            let mut n = 0;
            for &seed in &seeds {
                let mut cfg = ArrayConfig::wigig_2x8(seed);
                cfg.shifter = PhaseShifter::new(bits);
                if !with_errors {
                    cfg.amp_error_db = 0.0;
                    cfg.phase_error_rad = 0.0;
                }
                let arr = PhasedArray::new(cfg);
                for &deg in &steers {
                    if let Some(sll) = arr
                        .steered_pattern(Angle::from_degrees(deg))
                        .side_lobe_level_db()
                    {
                        acc += sll;
                        n += 1;
                    }
                }
            }
            acc / n as f64
        };
        rows.push(vec![
            format!("{bits}"),
            format!("{:.1}", mean_sll(false)),
            format!("{:.1}", mean_sll(true)),
        ]);
    }
    println!(
        "{}",
        report::table(
            "Ablation 1 — phase-shifter resolution vs mean side-lobe level",
            &[
                "bits",
                "SLL, ideal elements (dB)",
                "SLL, calibrated errors (dB)"
            ],
            &rows,
        )
    );
    println!("→ with clean elements, more shifter bits steadily buy side-lobe\n   suppression; with consumer-grade manufacturing spread the errors set\n   a floor near the paper's −4…−6 dB regardless — the cost-effective\n   design is imperfect beyond its shifters.\n");
}

fn ablate_aggregation() {
    let mut rows = Vec::new();
    for max_agg in [1usize, 2, 4, 7] {
        let mut p = point_to_point(&SimCtx::new(), 2.0, quiet(31));
        {
            let w = p.net.device_mut(p.dock).wigig_mut().expect("wigig");
            w.cfg = WigigConfig {
                max_aggregation: max_agg,
                min_aggregation: max_agg.clamp(1, 5),
                ..w.cfg
            };
        }
        let dock = p.dock;
        let mon = p.net.add_monitor(
            mmwave_geom::Point::new(1.0, 0.8),
            Angle::from_degrees(-90.0),
            mmwave_phy::AntennaPattern::isotropic(3.0),
            -70.0,
        );
        p.net.txlog_mut().set_enabled(false);
        let mut stack = Stack::new(p.net);
        let flow = stack.add_flow(TcpConfig::bulk(dock, p.laptop, 256 * 1024));
        stack.run_until(SimTime::from_secs(1));
        let goodput = stack
            .flow_stats(flow)
            .mean_goodput_mbps(SimTime::from_millis(300), SimTime::from_secs(1));
        let util = stack
            .net
            .monitor_utilization(mon, SimTime::from_millis(300));
        rows.push(vec![
            format!("{max_agg}"),
            format!("{goodput:.0}"),
            format!("{:.0}%", util * 100.0),
        ]);
    }
    println!(
        "{}",
        report::table(
            "Ablation 2 — A-MPDU aggregation cap (2 m link, bulk TCP)",
            &["max MPDUs", "goodput (Mb/s)", "channel busy"],
            &rows,
        )
    );
    println!("→ §5: on this link aggregation buys throughput, not channel time:\n   the 1-MPDU cap loses goodput with the medium about as busy, so it\n   spends more channel time per delivered bit.\n");
}

fn ablate_cs_threshold() {
    let mut rows = Vec::new();
    for thr in [-60.0, -68.0, -76.0] {
        let mut f = scenarios::interference_floor(&SimCtx::new(), 0.8, Angle::ZERO, quiet(33));
        // On every device, as a network-wide threshold applies.
        for d in 0..f.net.device_count() {
            f.net.device_mut(d).cs_threshold_dbm = thr;
        }
        let (db, lb) = (f.dock_b, f.laptop_b);
        f.net.txlog_mut().set_enabled(false);
        let mut stack = Stack::new(f.net);
        let flow = stack.add_flow(TcpConfig::bulk(db, lb, 192 * 1024));
        stack.run_until(SimTime::from_secs(1));
        let goodput = stack
            .flow_stats(flow)
            .mean_goodput_mbps(SimTime::from_millis(300), SimTime::from_secs(1));
        let st = stack.net.device(db).stats;
        rows.push(vec![
            format!("{thr} dBm"),
            format!("{goodput:.0}"),
            format!("{}", st.data_retx),
            format!("{}", st.cs_defers),
        ]);
    }
    println!(
        "{}",
        report::table(
            "Ablation 3 — carrier-sense threshold next to a WiHD interferer (0.8 m)",
            &[
                "CS threshold",
                "goodput (Mb/s)",
                "retransmissions",
                "deferrals"
            ],
            &rows,
        )
    );
    println!("→ §5: \"implement multiple MAC behaviors and choose the one which is\n   most suitable\" — the threshold moves goodput, and next to this\n   interferer the deafest one wins: −60 dBm sees more retransmissions and\n   more deferrals than −76 dBm, yet delivers the most.\n");
}

fn ablate_reflection_order() {
    let mut rows = Vec::new();
    for order in [0usize, 1, 2] {
        let mut r = scenarios::reflection_room(&SimCtx::new(), RoomSystem::Wigig, quiet(35));
        r.net.env.trace.max_order = order;
        let mut i = 0u64;
        while r.net.now() < SimTime::from_millis(30) {
            for _ in 0..20 {
                r.net.push_mpdu(r.tx, 1500, i);
                i += 1;
            }
            let t = r.net.now();
            r.net.run_until(t + SimDuration::from_micros(400));
        }
        let mut lobes = 0usize;
        let mut deep_lobes = 0usize;
        for (_, pos) in r.layout.probes {
            let profile = measure_profile(&r.net, pos, 120, SimTime::ZERO, r.net.now());
            let exp = expected_directions(&r.net, pos, r.tx, r.rx);
            lobes += unattributed_lobes(&profile, &exp, 16f64.to_radians(), 1.0, 12.0).len();
            deep_lobes += unattributed_lobes(&profile, &exp, 16f64.to_radians(), 0.5, 22.0).len();
        }
        rows.push(vec![
            format!("{order}"),
            format!("{lobes}"),
            format!("{deep_lobes}"),
        ]);
    }
    println!(
        "{}",
        report::table(
            "Ablation 4 — ray-tracing reflection order vs observed wall lobes",
            &["max order", "strong lobes (≤12 dB)", "all lobes (≤22 dB)"],
            &rows,
        )
    );
    println!("→ §5: a geometric MAC that ignores reflections misses every one of\n   those lobes. First-order bounces carry the strong ones; second-order\n   bounces add the weaker tail (the paper's position-B observation).\n");
}

fn main() {
    ablate_phase_shifters();
    ablate_aggregation();
    ablate_cs_threshold();
    ablate_reflection_order();
}
