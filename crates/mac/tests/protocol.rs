//! End-to-end protocol tests: the MAC state machines driven through the
//! event loop, validated against the paper's §4.1 observations.

use mmwave_channel::Environment;
use mmwave_geom::{Angle, Point, Room};
use mmwave_mac::{Delivery, Device, FrameClass, Net, NetConfig};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::SimTime;

fn quiet_cfg(seed: u64) -> NetConfig {
    NetConfig {
        seed,
        enable_fading: false,
        ..NetConfig::default()
    }
}

/// A dock at the origin facing +x and a laptop 2 m away facing back.
fn two_m_link(cfg: NetConfig) -> (Net, usize, usize) {
    let mut net = Net::with_ctx(Environment::new(Room::open_space()), cfg, &SimCtx::new());
    let dock = net.add_device(Device::wigig_dock(
        net.ctx(),
        "dock",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        13,
    ));
    let laptop = net.add_device(Device::wigig_laptop(
        net.ctx(),
        "laptop",
        Point::new(2.0, 0.0),
        Angle::from_degrees(180.0),
        11,
    ));
    (net, dock, laptop)
}

#[test]
fn discovery_leads_to_association() {
    let (mut net, dock, laptop) = two_m_link(quiet_cfg(42));
    net.pair(dock, laptop);
    net.start();
    net.run_until(SimTime::from_millis(20));
    let w = net.device(dock).wigig().expect("wigig");
    assert_eq!(w.state, mmwave_mac::device::WigigState::Associated);
    let s = net.device(laptop).wigig().expect("wigig");
    assert_eq!(s.state, mmwave_mac::device::WigigState::Associated);
    // Exactly one sweep was needed at 2 m.
    assert!(net.device(dock).stats.discovery_sweeps >= 1);
    // The discovery frame hit the log with 32 sub-elements.
    let subs = net.txlog().of(dock, FrameClass::DiscoverySub).count();
    assert_eq!(subs % 32, 0);
    assert!(subs >= 32);
}

#[test]
fn discovery_sweep_repeats_at_102_4_ms_when_alone() {
    // No peer in range: the dock keeps sweeping at the Table 1 period.
    let mut net = Net::with_ctx(
        Environment::new(Room::open_space()),
        quiet_cfg(1),
        &SimCtx::new(),
    );
    let dock = net.add_device(Device::wigig_dock(
        net.ctx(),
        "dock",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        13,
    ));
    net.start();
    net.run_until(SimTime::from_millis(600));
    let starts: Vec<SimTime> = {
        let mut s: Vec<SimTime> = net
            .txlog()
            .of(dock, FrameClass::DiscoverySub)
            .filter(|e| matches!(e.pattern, mmwave_mac::PatKey::Qo(0)))
            .map(|e| e.start)
            .collect();
        s.sort();
        s
    };
    assert!(starts.len() >= 5, "{} sweeps", starts.len());
    for w in starts.windows(2) {
        let gap = (w[1] - w[0]).as_micros_f64();
        assert!((gap - 102_400.0).abs() < 1.0, "sweep gap {gap} µs");
    }
}

#[test]
fn beacons_run_at_1_1_ms_when_associated() {
    let (mut net, dock, laptop) = two_m_link(quiet_cfg(2));
    net.associate_instantly(dock, laptop);
    net.run_until(SimTime::from_millis(50));
    let starts: Vec<SimTime> = net
        .txlog()
        .of(dock, FrameClass::Beacon)
        .map(|e| e.start)
        .collect();
    assert!(starts.len() >= 40, "{} beacons", starts.len());
    let mut gaps: Vec<f64> = starts
        .windows(2)
        .map(|w| (w[1] - w[0]).as_micros_f64())
        .collect();
    gaps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = gaps[gaps.len() / 2];
    assert!(
        (median - 1_100.0).abs() < 5.0,
        "median beacon gap {median} µs"
    );
    // The laptop answers most dock beacons.
    let replies = net.txlog().of(laptop, FrameClass::Beacon).count();
    assert!(
        replies as f64 > 0.8 * starts.len() as f64,
        "{replies} replies"
    );
}

#[test]
fn data_flows_and_is_delivered_in_order() {
    let (mut net, dock, laptop) = two_m_link(quiet_cfg(3));
    net.associate_instantly(dock, laptop);
    for i in 0..50u64 {
        assert!(net.push_mpdu(dock, 1500, i));
    }
    net.run_until(SimTime::from_millis(10));
    let deliveries = net.take_deliveries();
    let tags: Vec<u64> = deliveries
        .iter()
        .filter_map(|d| match d {
            Delivery::Mpdu { dev, tag, .. } if *dev == laptop => Some(*tag),
            _ => None,
        })
        .collect();
    assert_eq!(tags.len(), 50, "all MPDUs delivered");
    let mut sorted = tags.clone();
    sorted.sort();
    assert_eq!(tags, sorted, "in order");
    assert_eq!(net.queue_len(dock), 0);
}

#[test]
fn txop_structure_matches_fig8() {
    // A burst must start with RTS/CTS and then alternate data/ACK.
    let (mut net, dock, laptop) = two_m_link(quiet_cfg(4));
    net.associate_instantly(dock, laptop);
    for i in 0..20u64 {
        net.push_mpdu(dock, 1500, i);
    }
    net.run_until(SimTime::from_millis(5));
    let classes: Vec<(FrameClass, usize)> = net
        .txlog()
        .entries()
        .iter()
        .filter(|e| e.class != FrameClass::Beacon)
        .map(|e| (e.class, e.src))
        .collect();
    // First two non-beacon frames: RTS from dock, CTS from laptop.
    assert_eq!(classes[0], (FrameClass::Control, dock), "{classes:?}");
    assert_eq!(classes[1], (FrameClass::Control, laptop));
    // Then data/ack alternation.
    assert_eq!(classes[2].0, FrameClass::Data);
    assert_eq!(classes[3].0, FrameClass::Ack);
    assert_eq!(classes[4].0, FrameClass::Data);
}

#[test]
fn high_load_aggregates_low_load_does_not() {
    // Shove a large batch in at once: frames aggregate to the 25 µs cap.
    let (mut net, dock, laptop) = two_m_link(quiet_cfg(5));
    net.associate_instantly(dock, laptop);
    for i in 0..200u64 {
        net.push_mpdu(dock, 1500, i);
    }
    net.run_until(SimTime::from_millis(20));
    let max_dur = net
        .txlog()
        .of(dock, FrameClass::Data)
        .map(|e| (e.end - e.start).as_micros_f64())
        .fold(0.0, f64::max);
    assert!(
        max_dur > 15.0,
        "aggregation should produce long frames: {max_dur}"
    );
    assert!(max_dur <= 25.5, "25 µs cap violated: {max_dur}");

    // Sparse arrivals: one MPDU at a time → only short frames.
    let (mut net2, dock2, laptop2) = two_m_link(quiet_cfg(6));
    net2.associate_instantly(dock2, laptop2);
    for i in 0..20u64 {
        net2.run_until(SimTime::from_micros(500 * (i + 1)));
        net2.push_mpdu(dock2, 1500, i);
    }
    net2.run_until(SimTime::from_millis(15));
    let durs: Vec<f64> = net2
        .txlog()
        .of(dock2, FrameClass::Data)
        .map(|e| (e.end - e.start).as_micros_f64())
        .collect();
    assert!(!durs.is_empty());
    let long = durs.iter().filter(|&&d| d > 6.0).count();
    assert!(
        (long as f64) < 0.2 * durs.len() as f64,
        "sparse traffic should stay single-MPDU: {durs:?}"
    );
    let _ = laptop2;
    let _ = laptop;
}

#[test]
fn short_link_uses_mcs11() {
    let (mut net, dock, laptop) = two_m_link(quiet_cfg(7));
    net.associate_instantly(dock, laptop);
    for i in 0..10u64 {
        net.push_mpdu(dock, 1500, i);
    }
    net.run_until(SimTime::from_millis(5));
    let mcs: Vec<u8> = net
        .txlog()
        .of(dock, FrameClass::Data)
        .filter_map(|e| e.mcs)
        .collect();
    assert!(!mcs.is_empty());
    assert!(
        mcs.iter().all(|&m| m == 11),
        "2 m link must run 16-QAM 5/8: {mcs:?}"
    );
}

#[test]
fn long_link_uses_lower_mcs() {
    let mut net = Net::with_ctx(
        Environment::new(Room::open_space()),
        quiet_cfg(8),
        &SimCtx::new(),
    );
    let dock = net.add_device(Device::wigig_dock(
        net.ctx(),
        "dock",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        13,
    ));
    let laptop = net.add_device(Device::wigig_laptop(
        net.ctx(),
        "laptop",
        Point::new(8.0, 0.0),
        Angle::from_degrees(180.0),
        11,
    ));
    net.associate_instantly(dock, laptop);
    for i in 0..10u64 {
        net.push_mpdu(dock, 1500, i);
    }
    net.run_until(SimTime::from_millis(5));
    let mcs: Vec<u8> = net
        .txlog()
        .of(dock, FrameClass::Data)
        .filter_map(|e| e.mcs)
        .collect();
    assert!(!mcs.is_empty());
    assert!(
        mcs.iter().all(|&m| (5..=9).contains(&m)),
        "8 m link should run QPSK-class MCS: {mcs:?}"
    );
}

#[test]
fn out_of_range_link_never_associates() {
    let mut net = Net::with_ctx(
        Environment::new(Room::open_space()),
        quiet_cfg(9),
        &SimCtx::new(),
    );
    let dock = net.add_device(Device::wigig_dock(
        net.ctx(),
        "dock",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        13,
    ));
    let laptop = net.add_device(Device::wigig_laptop(
        net.ctx(),
        "laptop",
        Point::new(60.0, 0.0),
        Angle::from_degrees(180.0),
        11,
    ));
    net.pair(dock, laptop);
    net.start();
    net.run_until(SimTime::from_millis(400));
    let w = net.device(dock).wigig().expect("wigig");
    assert_eq!(w.state, mmwave_mac::device::WigigState::Unassociated);
    assert!(
        net.device(dock).stats.discovery_sweeps >= 3,
        "keeps sweeping"
    );
}

#[test]
fn wihd_beacons_every_224_us_and_video_flows() {
    let mut net = Net::with_ctx(
        Environment::new(Room::open_space()),
        quiet_cfg(10),
        &SimCtx::new(),
    );
    let tx = net.add_device(Device::wihd_source(
        net.ctx(),
        "hdmi tx",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        21,
    ));
    let rx = net.add_device(Device::wihd_sink(
        net.ctx(),
        "hdmi rx",
        Point::new(8.0, 0.0),
        Angle::from_degrees(180.0),
        22,
    ));
    net.pair_wihd_instantly(tx, rx);
    net.run_until(SimTime::from_millis(100));
    let beacons: Vec<SimTime> = net
        .txlog()
        .of(rx, FrameClass::WihdBeacon)
        .map(|e| e.start)
        .collect();
    assert!(beacons.len() > 400, "{} beacons", beacons.len());
    for w in beacons.windows(2) {
        assert!(((w[1] - w[0]).as_micros_f64() - 224.0).abs() < 1.0);
    }
    // Video data flows source → sink at roughly the configured rate.
    let bytes = net.device(rx).stats.bytes_rx;
    let expect = 800e6 / 8.0 * 0.1; // 100 ms at 800 Mb/s
    assert!(
        (bytes as f64) > 0.6 * expect && (bytes as f64) < 1.4 * expect,
        "{bytes} bytes vs expected ≈ {expect}"
    );
}

#[test]
fn wihd_duty_cycle_near_46_percent() {
    let mut net = Net::with_ctx(
        Environment::new(Room::open_space()),
        quiet_cfg(11),
        &SimCtx::new(),
    );
    let tx = net.add_device(Device::wihd_source(
        net.ctx(),
        "hdmi tx",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        21,
    ));
    let rx = net.add_device(Device::wihd_sink(
        net.ctx(),
        "hdmi rx",
        Point::new(8.0, 0.0),
        Angle::from_degrees(180.0),
        22,
    ));
    net.pair_wihd_instantly(tx, rx);
    // Monitor next to the link with a generous threshold.
    let mon = net.add_monitor(
        Point::new(4.0, 0.5),
        Angle::ZERO,
        mmwave_phy::AntennaPattern::isotropic(3.0),
        -80.0,
    );
    net.run_until(SimTime::from_millis(500));
    let util = net.monitor_utilization(mon, SimTime::ZERO);
    assert!(
        (0.35..=0.58).contains(&util),
        "WiHD standalone utilization {util}"
    );
}

#[test]
fn video_off_silences_data_but_not_beacons() {
    let mut net = Net::with_ctx(
        Environment::new(Room::open_space()),
        quiet_cfg(12),
        &SimCtx::new(),
    );
    let tx = net.add_device(Device::wihd_source(
        net.ctx(),
        "hdmi tx",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        21,
    ));
    let rx = net.add_device(Device::wihd_sink(
        net.ctx(),
        "hdmi rx",
        Point::new(8.0, 0.0),
        Angle::from_degrees(180.0),
        22,
    ));
    net.pair_wihd_instantly(tx, rx);
    net.run_until(SimTime::from_millis(50));
    net.set_video(tx, false);
    net.txlog_mut().clear();
    net.run_until(SimTime::from_millis(100));
    assert_eq!(
        net.txlog().of(tx, FrameClass::WihdData).count(),
        0,
        "no data while off"
    );
    assert!(
        net.txlog().of(rx, FrameClass::WihdBeacon).count() > 100,
        "beacons continue"
    );
}

#[test]
fn two_wigig_links_coexist_via_carrier_sense() {
    // Two parallel dock links 3 m apart: CSMA shares the medium without
    // persistent loss (§3.2: "The Dell D5000 systems do not interfere with
    // each other since they use CSMA/CA").
    let mut net = Net::with_ctx(
        Environment::new(Room::open_space()),
        quiet_cfg(13),
        &SimCtx::new(),
    );
    let dock_a = net.add_device(Device::wigig_dock(
        net.ctx(),
        "dock A",
        Point::new(0.0, 0.0),
        Angle::from_degrees(90.0),
        13,
    ));
    let lap_a = net.add_device(Device::wigig_laptop(
        net.ctx(),
        "laptop A",
        Point::new(0.0, 6.0),
        Angle::from_degrees(-90.0),
        11,
    ));
    let dock_b = net.add_device(Device::wigig_dock(
        net.ctx(),
        "dock B",
        Point::new(3.0, 0.0),
        Angle::from_degrees(90.0),
        7,
    ));
    let lap_b = net.add_device(Device::wigig_laptop(
        net.ctx(),
        "laptop B",
        Point::new(3.0, 6.0),
        Angle::from_degrees(-90.0),
        5,
    ));
    net.associate_instantly(dock_a, lap_a);
    net.associate_instantly(dock_b, lap_b);
    // Feed both links steadily for 400 ms: long enough that the transient
    // before loss-driven rate fallback settles amortizes away.
    for batch in 0..40u64 {
        net.run_until(SimTime::from_millis(10 * batch));
        for i in 0..50u64 {
            net.push_mpdu(dock_a, 1500, batch * 100 + i);
            net.push_mpdu(dock_b, 1500, 100_000 + batch * 100 + i);
        }
    }
    net.run_until(SimTime::from_millis(450));
    let delivered_a = net.device(lap_a).stats.mpdus_rx;
    let delivered_b = net.device(lap_b).stats.mpdus_rx;
    assert!(delivered_a >= 1990, "link A delivered {delivered_a}");
    assert!(delivered_b >= 1990, "link B delivered {delivered_b}");
    // Steady-state loss stays low: collisions back the rate off until the
    // links tolerate each other's side lobes (the Fig. 22 mechanism).
    let loss_a = net.device(dock_a).stats.data_loss_ratio();
    let loss_b = net.device(dock_b).stats.data_loss_ratio();
    assert!(loss_a < 0.12 && loss_b < 0.12, "loss {loss_a} / {loss_b}");
    assert_eq!(
        net.device(dock_a).stats.drops + net.device(dock_b).stats.drops,
        0
    );
}

#[test]
fn deterministic_given_seed() {
    // An 11.5 m link with fading on, sitting exactly at an MCS selection
    // boundary: the fading trajectory (seed-dependent) flips the selected
    // MCS, so different seeds produce different traces while equal seeds
    // reproduce exactly.
    let run = |seed: u64| {
        let mut net = Net::with_ctx(
            Environment::new(Room::open_space()),
            NetConfig {
                seed,
                ..NetConfig::default()
            },
            &SimCtx::new(),
        );
        let dock = net.add_device(Device::wigig_dock(
            net.ctx(),
            "dock",
            Point::new(0.0, 0.0),
            Angle::ZERO,
            13,
        ));
        let laptop = net.add_device(Device::wigig_laptop(
            net.ctx(),
            "laptop",
            Point::new(11.5, 0.0),
            Angle::from_degrees(180.0),
            11,
        ));
        net.associate_instantly(dock, laptop);
        let mut mcs_trace: Vec<u8> = Vec::new();
        for i in 1..=200u64 {
            net.push_mpdu(dock, 1500, i);
            net.run_until(SimTime::from_millis(100 * i));
            mcs_trace.push(
                net.device(dock)
                    .wigig()
                    .expect("wigig")
                    .adapter
                    .current()
                    .index,
            );
        }
        (mcs_trace, net.device(laptop).stats.bytes_rx)
    };
    assert_eq!(run(77), run(77));
    assert_ne!(run(77).0, run(78).0);
}

#[test]
fn bidirectional_traffic() {
    let (mut net, dock, laptop) = two_m_link(quiet_cfg(14));
    net.associate_instantly(dock, laptop);
    for i in 0..40u64 {
        net.push_mpdu(dock, 1500, i);
        net.push_mpdu(laptop, 60, 10_000 + i); // TCP-ACK-sized
    }
    net.run_until(SimTime::from_millis(20));
    assert_eq!(net.device(laptop).stats.mpdus_rx, 40);
    assert_eq!(net.device(dock).stats.mpdus_rx, 40);
}

#[test]
fn monitor_sees_nothing_when_idle() {
    let mut net = Net::with_ctx(
        Environment::new(Room::open_space()),
        quiet_cfg(15),
        &SimCtx::new(),
    );
    let _dock = net.add_device(Device::wigig_dock(
        net.ctx(),
        "dock",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        13,
    ));
    let mon = net.add_monitor(
        Point::new(1.0, 0.0),
        Angle::ZERO,
        mmwave_phy::AntennaPattern::isotropic(3.0),
        -80.0,
    );
    // No start(): nothing scheduled at all.
    net.run_until(SimTime::from_millis(10));
    assert_eq!(net.monitor_utilization(mon, SimTime::ZERO), 0.0);
}

#[test]
fn txlog_window_limits_memory() {
    let (mut net, dock, laptop) = two_m_link(quiet_cfg(16));
    net.associate_instantly(dock, laptop);
    net.txlog_mut()
        .set_window(SimTime::from_millis(5), SimTime::from_millis(6));
    for i in 0..100u64 {
        net.push_mpdu(dock, 1500, i);
    }
    net.run_until(SimTime::from_millis(20));
    for e in net.txlog().entries() {
        assert!(e.end > SimTime::from_millis(5) && e.start < SimTime::from_millis(6));
    }
}

#[test]
fn retry_limit_drops_and_reports() {
    // A link that dies after association: move the laptop out of range,
    // then push data — every frame times out and eventually drops.
    let (mut net, dock, laptop) = two_m_link(quiet_cfg(17));
    net.associate_instantly(dock, laptop);
    net.move_device(laptop, Point::new(80.0, 0.0), Angle::from_degrees(180.0));
    for i in 0..3u64 {
        net.push_mpdu(dock, 1500, i);
    }
    net.run_until(SimTime::from_millis(100));
    let deliveries = net.take_deliveries();
    let dropped_tags: Vec<u64> = deliveries
        .iter()
        .filter_map(|d| match d {
            Delivery::Dropped { dev, tags } if *dev == dock => Some(tags.clone()),
            _ => None,
        })
        .flatten()
        .collect();
    assert!(!dropped_tags.is_empty(), "drops must be reported");
    // The dead link shows up as deferrals (no CTS ever comes back) and/or
    // as the SNR-driven break; both paths must report the queued data.
    let st = net.device(dock).stats;
    assert!(st.cs_defers > 0 || st.ack_timeouts > 0);
    assert!(st.drops > 0);
}

#[test]
fn broken_link_reassociates_when_conditions_recover() {
    // Blockage (or rain fade) kills the link; when conditions recover the
    // dock's periodic discovery sweeps re-establish it.
    let (mut net, dock, laptop) = two_m_link(quiet_cfg(18));
    net.pair(dock, laptop);
    net.start();
    net.run_until(SimTime::from_millis(20));
    assert_eq!(
        net.device(dock).wigig().expect("wigig").state,
        mmwave_mac::device::WigigState::Associated
    );
    // Degrade: move the laptop far out of range; the next beacon breaks
    // the link.
    net.move_device(laptop, Point::new(60.0, 0.0), Angle::from_degrees(180.0));
    net.run_until(SimTime::from_millis(40));
    assert_eq!(
        net.device(dock).wigig().expect("wigig").state,
        mmwave_mac::device::WigigState::Unassociated
    );
    // Recover: bring it back; within two discovery periods it re-pairs.
    net.move_device(laptop, Point::new(2.0, 0.0), Angle::from_degrees(180.0));
    net.run_until(SimTime::from_millis(300));
    assert_eq!(
        net.device(dock).wigig().expect("wigig").state,
        mmwave_mac::device::WigigState::Associated,
        "link must re-associate after recovery"
    );
    // And it carries data again.
    for i in 0..10u64 {
        net.push_mpdu(dock, 1500, i);
    }
    net.run_until(SimTime::from_millis(310));
    assert_eq!(net.device(laptop).stats.mpdus_rx, 10);
}

#[test]
fn wihd_pairs_through_discovery() {
    // The WiHD source sweeps shuffled discovery frames every 20 ms until
    // its sink responds; after pairing the beacon grid starts.
    let mut net = Net::with_ctx(
        Environment::new(Room::open_space()),
        quiet_cfg(19),
        &SimCtx::new(),
    );
    let tx = net.add_device(Device::wihd_source(
        net.ctx(),
        "hdmi tx",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        21,
    ));
    let rx = net.add_device(Device::wihd_sink(
        net.ctx(),
        "hdmi rx",
        Point::new(6.0, 0.0),
        Angle::from_degrees(180.0),
        22,
    ));
    net.pair(tx, rx);
    net.start();
    net.run_until(SimTime::from_millis(120));
    assert!(net.device(tx).wihd().expect("wihd").paired);
    assert!(net.device(rx).wihd().expect("wihd").paired);
    assert!(net.device(tx).stats.discovery_sweeps >= 1);
    // Beacons run after pairing; video data flows.
    assert!(net.txlog().of(rx, FrameClass::WihdBeacon).count() > 100);
    assert!(net.device(rx).stats.bytes_rx > 1_000_000);
}

#[test]
fn wihd_discovery_order_is_shuffled() {
    // §4.2: the WiHD sweep order "changes with every transmitted device
    // discovery frame" (which is why the paper could not measure its
    // quasi-omni patterns).
    let mut net = Net::with_ctx(
        Environment::new(Room::open_space()),
        quiet_cfg(20),
        &SimCtx::new(),
    );
    let tx = net.add_device(Device::wihd_source(
        net.ctx(),
        "hdmi tx",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        21,
    ));
    net.start();
    net.run_until(SimTime::from_millis(90));
    // Collect the pattern order of each sweep.
    let mut subs: Vec<(SimTime, usize)> = net
        .txlog()
        .of(tx, FrameClass::DiscoverySub)
        .map(|e| {
            let idx = match e.pattern {
                mmwave_mac::PatKey::Qo(i) => i,
                other => panic!("discovery must use quasi-omni patterns, got {other:?}"),
            };
            (e.start, idx)
        })
        .collect();
    subs.sort_by_key(|(t, _)| *t);
    let per_sweep = 16;
    assert!(
        subs.len() >= 3 * per_sweep,
        "{} sub-elements captured",
        subs.len()
    );
    let orders: Vec<Vec<usize>> = subs
        .chunks(per_sweep)
        .take(3)
        .map(|c| c.iter().map(|(_, i)| *i).collect())
        .collect();
    assert_ne!(
        orders[0], orders[1],
        "sweep order must change between frames"
    );
    assert_ne!(orders[1], orders[2]);
    // Each sweep still covers all 16 patterns exactly once.
    for mut o in orders {
        o.sort();
        assert_eq!(o, (0..per_sweep).collect::<Vec<_>>());
    }
}
