//! The paper's motivating scenario (§2: "dense deployment scenarios"):
//! an office with three WiGig docking links and one WiHD video link
//! sharing the 60 GHz channel. How much do the "allegedly non-interfering"
//! directional links actually cost each other?
//!
//! ```text
//! cargo run --example office_interference
//! ```

use mmwave_channel::Environment;
use mmwave_geom::{Angle, Point, Room};
use mmwave_mac::{Device, Net, NetConfig};
use mmwave_phy::AntennaPattern;
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::SimTime;
use mmwave_transport::{Stack, TcpConfig};

struct Link {
    name: &'static str,
    dock: usize,
    laptop: usize,
}

fn build(with_wihd: bool, seed: u64) -> (Stack, Vec<Link>, Vec<u16>, usize) {
    let mut net = Net::with_ctx(
        Environment::new(Room::open_space()),
        NetConfig {
            seed,
            ..NetConfig::default()
        },
        &SimCtx::new(),
    );
    // Three desks in a row, 2.5 m apart, links running "north".
    let mut links = Vec::new();
    for (i, name) in ["desk A", "desk B", "desk C"].iter().enumerate() {
        let x = i as f64 * 2.5;
        let dock = net.add_device(Device::wigig_dock(
            net.ctx(),
            name,
            Point::new(x, 0.0),
            Angle::from_degrees(90.0),
            13 + i as u64 * 2,
        ));
        let laptop = net.add_device(Device::wigig_laptop(
            net.ctx(),
            name,
            Point::new(x, 4.0),
            Angle::from_degrees(-90.0),
            11 + i as u64 * 2,
        ));
        net.associate_instantly(dock, laptop);
        links.push(Link { name, dock, laptop });
    }
    // A wireless-HDMI media link crossing behind the desks.
    let hdmi_tx = net.add_device(Device::wihd_source(
        net.ctx(),
        "media",
        Point::new(6.5, 0.5),
        Angle::from_degrees(90.0),
        21,
    ));
    let hdmi_rx = net.add_device(Device::wihd_sink(
        net.ctx(),
        "media",
        Point::new(6.5, 7.0),
        Angle::from_degrees(-90.0),
        22,
    ));
    net.pair_wihd_instantly(hdmi_tx, hdmi_rx);
    if !with_wihd {
        net.set_video(hdmi_tx, false);
    }
    let mon = net.add_monitor(
        Point::new(3.0, 2.0),
        Angle::ZERO,
        AntennaPattern::isotropic(3.0),
        -70.0,
    );
    net.txlog_mut().set_enabled(false);
    let mut stack = Stack::new(net);
    let flows: Vec<u16> = links
        .iter()
        .map(|l| stack.add_flow(TcpConfig::bulk(l.dock, l.laptop, 192 * 1024)))
        .collect();
    (stack, links, flows, mon)
}

fn main() {
    let horizon = SimTime::from_secs(2);
    for (label, with_wihd) in [("WiHD off", false), ("WiHD on ", true)] {
        let (mut stack, links, flows, mon) = build(with_wihd, 7);
        stack.run_until(horizon);
        print!("{label} |");
        for (l, f) in links.iter().zip(&flows) {
            let g = stack
                .flow_stats(*f)
                .mean_goodput_mbps(SimTime::from_millis(300), horizon);
            let st = stack.net.device(l.dock).stats;
            print!(" {}: {g:>4.0} Mb/s ({} retx)", l.name, st.data_retx);
        }
        println!(
            " | channel busy {:.0}%",
            stack
                .net
                .monitor_utilization(mon, SimTime::from_millis(300))
                * 100.0
        );
    }
    println!();
    println!("The desk nearest the media link pays for the WiHD system's blind");
    println!("transmissions — the paper's §4.4 in one office.");
}
