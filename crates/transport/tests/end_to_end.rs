//! TCP over the simulated 60 GHz link, end to end.

use mmwave_channel::Environment;
use mmwave_geom::{Angle, Point, Room};
use mmwave_mac::{Device, Net, NetConfig};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::{SimDuration, SimTime};
use mmwave_transport::{Stack, TcpConfig};

fn link_stack(seed: u64, distance_m: f64) -> (Stack, usize, usize) {
    let mut net = Net::with_ctx(
        Environment::new(Room::open_space()),
        NetConfig {
            seed,
            enable_fading: false,
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
        Point::new(distance_m, 0.0),
        Angle::from_degrees(180.0),
        11,
    ));
    net.associate_instantly(dock, laptop);
    (Stack::new(net), dock, laptop)
}

#[test]
fn bulk_flow_reaches_gige_cap() {
    let (mut stack, dock, laptop) = link_stack(1, 2.0);
    let flow = stack.add_flow(TcpConfig::bulk(dock, laptop, 256 * 1024));
    stack.run_until(SimTime::from_secs(2));
    let g = stack
        .flow_stats(flow)
        .mean_goodput_mbps(SimTime::from_millis(500), SimTime::from_secs(2));
    // The paper's plateau: ≈ 930 Mb/s, limited by Gigabit Ethernet.
    assert!((850.0..=950.0).contains(&g), "goodput {g} Mb/s");
}

#[test]
fn window_clamp_scales_throughput() {
    // Small windows throttle throughput (the Fig. 9–11 knob); the ladder
    // must be strictly increasing until the GigE cap.
    let mut last = 0.0;
    for window in [8 * 1024u64, 16 * 1024, 32 * 1024, 64 * 1024] {
        let (mut stack, dock, laptop) = link_stack(2, 2.0);
        let flow = stack.add_flow(TcpConfig::bulk(dock, laptop, window));
        stack.run_until(SimTime::from_secs(1));
        let g = stack
            .flow_stats(flow)
            .mean_goodput_mbps(SimTime::from_millis(300), SimTime::from_secs(1));
        assert!(g > last, "window {window}: {g} ≤ {last}");
        last = g;
    }
    assert!(last > 200.0, "64 KiB window should exceed 200 Mb/s: {last}");
}

#[test]
fn paced_flow_matches_target() {
    let (mut stack, dock, laptop) = link_stack(3, 2.0);
    let flow = stack.add_flow(TcpConfig::paced(dock, laptop, 10_000_000)); // 10 Mb/s
    stack.run_until(SimTime::from_secs(2));
    let g = stack
        .flow_stats(flow)
        .mean_goodput_mbps(SimTime::from_millis(200), SimTime::from_secs(2));
    assert!((8.0..=11.0).contains(&g), "paced goodput {g}");
}

#[test]
fn file_transfer_completes() {
    let (mut stack, dock, laptop) = link_stack(4, 2.0);
    let cfg = TcpConfig {
        total_bytes: Some(10_000_000), // 10 MB
        ..TcpConfig::bulk(dock, laptop, 256 * 1024)
    };
    let flow = stack.add_flow(cfg);
    stack.run_until(SimTime::from_secs(2));
    assert!(
        stack.flow_finished(flow),
        "10 MB should finish in 2 s at ~900 Mb/s"
    );
    assert_eq!(stack.flow_stats(flow).bytes_acked, 10_000_500); // rounded to segments
}

#[test]
fn throughput_survives_distance_up_to_break() {
    // 8 m: lower MCS but still far above the GigE cap → full throughput.
    let (mut stack, dock, laptop) = link_stack(5, 8.0);
    let flow = stack.add_flow(TcpConfig::bulk(dock, laptop, 256 * 1024));
    stack.run_until(SimTime::from_secs(1));
    let g = stack
        .flow_stats(flow)
        .mean_goodput_mbps(SimTime::from_millis(300), SimTime::from_secs(1));
    assert!(g > 700.0, "8 m goodput {g}");
}

#[test]
fn broken_link_yields_zero_throughput() {
    // 30 m: below the sustainability threshold → the link breaks (or never
    // carries data), Fig. 13's abrupt fall.
    let (mut stack, dock, laptop) = link_stack(6, 30.0);
    let flow = stack.add_flow(TcpConfig::bulk(dock, laptop, 256 * 1024));
    stack.run_until(SimTime::from_secs(1));
    let g = stack
        .flow_stats(flow)
        .mean_goodput_mbps(SimTime::ZERO, SimTime::from_secs(1));
    assert!(g < 20.0, "goodput over a dead link: {g}");
}

#[test]
fn reverse_direction_flow_works() {
    // Laptop → dock (the Fig. 23 direction).
    let (mut stack, dock, laptop) = link_stack(7, 2.0);
    let flow = stack.add_flow(TcpConfig::bulk(laptop, dock, 256 * 1024));
    stack.run_until(SimTime::from_secs(1));
    let g = stack
        .flow_stats(flow)
        .mean_goodput_mbps(SimTime::from_millis(300), SimTime::from_secs(1));
    assert!(g > 700.0, "reverse goodput {g}");
}

#[test]
fn two_flows_share_two_links() {
    let mut net = Net::with_ctx(
        Environment::new(Room::open_space()),
        NetConfig {
            seed: 8,
            enable_fading: false,
            ..NetConfig::default()
        },
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
    let mut stack = Stack::new(net);
    let fa = stack.add_flow(TcpConfig::bulk(dock_a, lap_a, 128 * 1024));
    let fb = stack.add_flow(TcpConfig::bulk(dock_b, lap_b, 128 * 1024));
    stack.run_until(SimTime::from_secs(1));
    let ga = stack
        .flow_stats(fa)
        .mean_goodput_mbps(SimTime::from_millis(300), SimTime::from_secs(1));
    let gb = stack
        .flow_stats(fb)
        .mean_goodput_mbps(SimTime::from_millis(300), SimTime::from_secs(1));
    // Both links share the channel via CSMA; each still clears hundreds of
    // Mb/s (the medium is far from saturated, §4.4).
    assert!(ga > 300.0 && gb > 300.0, "shared goodputs {ga} / {gb}");
}

#[test]
fn goodput_series_has_reasonable_shape() {
    let (mut stack, dock, laptop) = link_stack(9, 2.0);
    let flow = stack.add_flow(TcpConfig::bulk(dock, laptop, 256 * 1024));
    stack.run_until(SimTime::from_secs(2));
    let series = stack.flow_stats(flow).goodput_series_mbps(
        SimTime::ZERO,
        SimTime::from_secs(2),
        SimDuration::from_millis(250),
    );
    assert_eq!(series.len(), 8);
    // After slow start, every interval sits near the cap.
    for (t, g) in &series[2..] {
        assert!(*g > 700.0, "interval at {t}: {g} Mb/s");
    }
}
