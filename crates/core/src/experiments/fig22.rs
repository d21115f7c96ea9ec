//! Fig. 22 — side-lobe interference impact versus interferer distance.
//!
//! Two parallel D5000 links transfer files while the WiHD pair streams at
//! a lateral offset swept from 0 to 3 m; a Vubiq near Dock B measures link
//! utilization. The paper's shape: interference-free utilization 38–42 %,
//! WiHD alone 46 %, a high-interference regime below ~2 m with utilization
//! up to ~100 % (higher and more erratic for the 70°-rotated dock), and
//! the reported link rate moving *inversely* to utilization — with the
//! rotated link's rate lower throughout.

use super::RunReport;
use crate::report;
use crate::scenarios::interference_floor;
use mmwave_geom::{Angle, Point};
use mmwave_mac::NetConfig;

use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::SimTime;
use mmwave_transport::{Stack, TcpConfig};

/// Detection threshold of the utilization monitor (just above the CS
/// threshold: everything a nearby device would defer to counts as busy).
const MONITOR_THRESHOLD_DBM: f64 = -68.0;

/// One measured sweep point.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// WiHD lateral offset from Dock B, m.
    pub offset_m: f64,
    /// Measured utilization at the monitor (0–1).
    pub utilization: f64,
    /// Mean reported link rate of Dock B, Gb/s.
    pub rate_gbps: f64,
}

/// Measurement modes for the baselines and the sweep.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Both D5000 links transfer, WiHD off.
    WigigOnly,
    /// Only the WiHD streams.
    WihdOnly,
    /// Everything on.
    All,
}

fn measure(
    ctx: &SimCtx,
    offset_m: f64,
    rotation: Angle,
    mode: Mode,
    seed: u64,
    secs: f64,
) -> SweepPoint {
    let f = interference_floor(
        ctx,
        offset_m,
        rotation,
        NetConfig {
            seed,
            enable_fading: false,
            ..NetConfig::default()
        },
    );
    let (dock_a, laptop_a, dock_b, laptop_b, hdmi_tx) =
        (f.dock_a, f.laptop_a, f.dock_b, f.laptop_b, f.hdmi_tx);
    let mut net = f.net;
    net.txlog_mut().set_enabled(false);
    if mode == Mode::WigigOnly {
        net.set_video(hdmi_tx, false);
    }
    // The Vubiq just off Dock B's beam axis (inside the main-lobe edge so
    // every B-link frame registers), with a wide capture antenna.
    let mon = net.add_monitor(
        Point::new(3.05, 1.2),
        Angle::from_degrees(90.0),
        mmwave_phy::AntennaPattern::isotropic(3.0),
        MONITOR_THRESHOLD_DBM,
    );
    let mut stack = Stack::new(net);
    if mode != Mode::WihdOnly {
        stack.add_flow(TcpConfig::bulk(dock_a, laptop_a, 192 * 1024));
        stack.add_flow(TcpConfig::bulk(dock_b, laptop_b, 192 * 1024));
    }
    let end = SimTime::from_secs_f64(secs);
    // Sample the reported rate every 50 ms (the paper plots the driver's
    // periodic readout, not an instant).
    let mut rate_sum = 0.0;
    let mut rate_n = 0u32;
    let mut t = SimTime::from_millis(200);
    while t < end {
        stack.run_until(t);
        rate_sum += stack
            .net
            .device(dock_b)
            .wigig()
            .expect("wigig")
            .adapter
            .current()
            .rate_gbps();
        rate_n += 1;
        t += mmwave_sim::time::SimDuration::from_millis(50);
    }
    stack.run_until(end);
    let util = stack
        .net
        .monitor_utilization(mon, SimTime::from_millis(200));
    SweepPoint {
        offset_m,
        utilization: util,
        rate_gbps: rate_sum / rate_n.max(1) as f64,
    }
}

/// Run the Fig. 22 campaign.
pub fn run(ctx: &SimCtx, quick: bool, seed: u64) -> RunReport {
    let offsets: Vec<f64> = if quick {
        vec![0.2, 0.8, 1.6, 2.4, 3.0]
    } else {
        vec![0.0, 0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8, 3.0]
    };
    let secs = if quick { 1.0 } else { 2.5 };

    // The "rotated" dock: the paper nominally rotates 70°, and its rotated
    // link still reports 1.8–2.4 Gb/s — implying a ~3–5 dB link penalty.
    // Our synthesized array's penalty at exactly 70° is ~9 dB (enough to
    // collapse the 6 m link), so we steer to the same *effective*
    // operating point: boundary-region beamforming with elevated side
    // lobes and the paper's reported-rate band (see EXPERIMENTS.md).
    let rot = Angle::from_degrees(50.0);

    // Baselines.
    let free_aligned = measure(ctx, 1.5, Angle::ZERO, Mode::WigigOnly, seed, secs);
    let free_rotated = measure(ctx, 1.5, rot, Mode::WigigOnly, seed + 1, secs);
    let wihd_alone = measure(ctx, 1.5, Angle::ZERO, Mode::WihdOnly, seed + 2, secs);

    let mut aligned = Vec::new();
    let mut rotated = Vec::new();
    for (i, &off) in offsets.iter().enumerate() {
        aligned.push(measure(
            ctx,
            off,
            Angle::ZERO,
            Mode::All,
            seed + 10 + i as u64,
            secs,
        ));
        rotated.push(measure(
            ctx,
            off,
            rot,
            Mode::All,
            seed + 40 + i as u64,
            secs,
        ));
    }

    let mut violations = Vec::new();
    // Baseline shapes.
    if !(0.30..=0.62).contains(&free_aligned.utilization) {
        violations.push(format!(
            "interference-free utilization {:.0}% (paper: 38%)",
            free_aligned.utilization * 100.0
        ));
    }
    if !(0.30..=0.60).contains(&wihd_alone.utilization) {
        violations.push(format!(
            "WiHD-alone utilization {:.0}% (paper: 46%)",
            wihd_alone.utilization * 100.0
        ));
    }
    // High-interference regime below ~2 m: utilization well above the
    // interference-free level.
    let near_max = aligned
        .iter()
        .filter(|p| p.offset_m <= 2.0)
        .map(|p| p.utilization)
        .fold(0.0, f64::max);
    if near_max < free_aligned.utilization + 0.20 {
        violations.push(format!(
            "near-regime utilization peaks at {:.0}%, barely above the {:.0}% baseline",
            near_max * 100.0,
            free_aligned.utilization * 100.0
        ));
    }
    // Utilization declines towards 3 m.
    let far = aligned.last().expect("points").utilization;
    if far > near_max - 0.10 {
        violations.push(format!(
            "utilization does not decline with distance ({:.0}% at 3 m vs peak {:.0}%)",
            far * 100.0,
            near_max * 100.0
        ));
    }
    // The rotated dock suffers at least as much interference at its worst
    // ("at some measurement locations it reaches values of up to 100 %")…
    let max_util = |pts: &[SweepPoint]| pts.iter().map(|p| p.utilization).fold(0.0, f64::max);
    if max_util(&rotated) + 0.03 < max_util(&aligned) {
        violations.push(format!(
            "rotated peak utilization {:.0}% below aligned {:.0}%",
            max_util(&rotated) * 100.0,
            max_util(&aligned) * 100.0
        ));
    }
    // …and "shows a strongly varying pattern" — more variable than aligned.
    let std_util = |pts: &[SweepPoint]| {
        let m = pts.iter().map(|p| p.utilization).sum::<f64>() / pts.len().max(1) as f64;
        (pts.iter().map(|p| (p.utilization - m).powi(2)).sum::<f64>() / pts.len().max(1) as f64)
            .sqrt()
    };
    if std_util(&rotated) + 0.02 < std_util(&aligned) {
        violations.push(format!(
            "rotated utilization not more erratic (σ {:.2} vs aligned {:.2})",
            std_util(&rotated),
            std_util(&aligned)
        ));
    }
    // The rotated link's rate is lower (boundary beamforming).
    let mean_rate =
        |pts: &[SweepPoint]| pts.iter().map(|p| p.rate_gbps).sum::<f64>() / pts.len() as f64;
    if mean_rate(&rotated) >= mean_rate(&aligned) {
        violations.push(format!(
            "rotated rate {:.2} not below aligned {:.2} Gb/s",
            mean_rate(&rotated),
            mean_rate(&aligned)
        ));
    }
    // Inverse rate/utilization correlation in the aligned sweep: the rate
    // at the utilization peak is below the rate at 3 m.
    let peak_pt = aligned
        .iter()
        .max_by(|a, b| a.utilization.partial_cmp(&b.utilization).expect("finite"))
        .expect("points");
    let far_pt = aligned.last().expect("points");
    if peak_pt.rate_gbps > far_pt.rate_gbps + 0.05 {
        violations.push(format!(
            "no inverse rate/utilization correlation (peak-util rate {:.2} vs far rate {:.2})",
            peak_pt.rate_gbps, far_pt.rate_gbps
        ));
    }

    let mut rows = Vec::new();
    for (a, r) in aligned.iter().zip(&rotated) {
        rows.push(vec![
            format!("{:.1} m", a.offset_m),
            format!("{:.0}%", a.utilization * 100.0),
            format!("{:.2}", a.rate_gbps),
            format!("{:.0}%", r.utilization * 100.0),
            format!("{:.2}", r.rate_gbps),
        ]);
    }
    let output = report::table(
        "Fig. 22 — side-lobe interference vs WiHD offset",
        &["offset", "util (aligned)", "rate Gb/s", "util (rotated)", "rate Gb/s"],
        &rows,
    ) + &format!(
        "\nbaselines — interference-free: {:.0}% (aligned) / {:.0}% (rotated); WiHD alone: {:.0}%\n",
        free_aligned.utilization * 100.0,
        free_rotated.utilization * 100.0,
        wihd_alone.utilization * 100.0
    );

    RunReport { output, violations }
}
