//! Quickstart: bring up a WiGig dock↔laptop link, run an Iperf-style TCP
//! flow over it, and look at what the frame-level analysis sees.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use mmwave_channel::Environment;
use mmwave_core::analysis::frame_level;
use mmwave_geom::{Angle, Point, Room};
use mmwave_mac::{Device, Net, NetConfig};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::{SimDuration, SimTime};
use mmwave_transport::{Stack, TcpConfig};

fn main() {
    // 1. An open-space environment and two devices 2 m apart.
    let env = Environment::new(Room::open_space());
    let mut net = Net::with_ctx(
        env,
        NetConfig {
            seed: 42,
            ..NetConfig::default()
        },
        &SimCtx::new(),
    );
    let dock = net.add_device(Device::wigig_dock(
        net.ctx(),
        "Dock",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        13, // canonical array seed
    ));
    let laptop = net.add_device(Device::wigig_laptop(
        net.ctx(),
        "Laptop",
        Point::new(2.0, 0.0),
        Angle::from_degrees(180.0),
        11,
    ));

    // 2. Associate (beam training happens inside) and report the link.
    net.associate_instantly(dock, laptop);
    let w = net.device(dock).wigig().expect("wigig device");
    println!(
        "link up: dock sector {} (steering {}), PHY rate {}",
        w.tx_sector,
        w.codebook.sector(w.tx_sector).steer,
        w.adapter.current().label(),
    );

    // 3. An Iperf-style bulk TCP flow with a 256 KiB window for 2 s.
    let mut stack = Stack::new(net);
    let flow = stack.add_flow(TcpConfig::bulk(dock, laptop, 256 * 1024));
    stack.run_until(SimTime::from_secs(2));

    let goodput = stack
        .flow_stats(flow)
        .mean_goodput_mbps(SimTime::from_millis(300), SimTime::from_secs(2));
    println!("TCP goodput: {goodput:.0} Mb/s (Gigabit-Ethernet limited, as in the paper)");

    // 4. Frame-level view: the same numbers the paper's Figs. 9–11 report.
    let net = &stack.net;
    let mut cdf =
        frame_level::frame_length_cdf(net, dock, SimTime::from_millis(300), SimTime::from_secs(2));
    println!(
        "data frames: {} | median {:.1} µs | max {:.1} µs | >5 µs (aggregated): {:.0}%",
        cdf.len(),
        cdf.median(),
        cdf.max(),
        frame_level::long_frame_fraction(
            net,
            dock,
            SimTime::from_millis(300),
            SimTime::from_secs(2),
            6.0
        ) * 100.0
    );
    let usage = frame_level::medium_usage(
        net,
        SimTime::from_millis(300),
        SimTime::from_secs(2),
        SimDuration::from_millis(1),
    );
    println!(
        "medium usage (1 ms capture windows with data): {:.0}%",
        usage * 100.0
    );
    let st = net.device(dock).stats;
    println!(
        "MAC: {} data PPDUs, {} retransmissions, {} CS deferrals",
        st.data_tx, st.data_retx, st.cs_defers
    );
}
