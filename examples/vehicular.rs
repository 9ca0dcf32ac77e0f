//! Vehicular emergency-warning scenario — the paper's third motivating
//! application (§1): "emergency warnings in vehicular networks".
//!
//! A large metropolitan deployment (the Ad Hoc City / CarNet scale the
//! paper cites) with fast vehicles. An accident triggers warning
//! multicasts to the "hazard zone" group; we compare HVDB against plain
//! flooding on the identical scenario to show the overhead gap at scale.
//!
//! ```sh
//! cargo run --release --example vehicular
//! ```

use hvdb::baselines::FloodingProtocol;
use hvdb::core::{GroupId, HvdbConfig, HvdbProtocol, TrafficItem};
use hvdb::geo::Aabb;
use hvdb::sim::{NodeId, RadioConfig, RandomWaypoint, SimConfig, SimDuration, SimTime, Simulator};

fn scenario() -> (Vec<(NodeId, GroupId)>, Vec<TrafficItem>) {
    let hazard = GroupId(1);
    // 80 vehicles subscribed to the hazard-zone channel.
    let members: Vec<(NodeId, GroupId)> = (0..80u32).map(|i| (NodeId(i * 7), hazard)).collect();
    // The crashed vehicle (node 3) sends 20 warnings.
    let traffic: Vec<TrafficItem> = (0..20)
        .map(|i| TrafficItem {
            at: SimTime::from_secs(200 + i),
            src: NodeId(3),
            group: hazard,
            size: 200,
            ..Default::default()
        })
        .collect();
    (members, traffic)
}

fn sim_config(seed: u64) -> (Aabb, SimConfig) {
    let area = Aabb::from_size(4000.0, 4000.0);
    let cfg = SimConfig {
        area,
        num_nodes: 600,
        radio: RadioConfig {
            range: 500.0,
            ..Default::default()
        },
        mobility_tick: SimDuration::from_secs(1),
        enhanced_fraction: 0.4,
        seed,
        compact_delivery: false,
    };
    (area, cfg)
}

fn main() {
    let (members, traffic) = scenario();

    // --- HVDB ---
    let (area, sim_cfg) = sim_config(77);
    let hvdb_cfg = HvdbConfig::new(area, 16, 16, 4);
    let mut sim = Simulator::new(
        sim_cfg,
        Box::new(RandomWaypoint::new(8.0, 20.0, 5.0)), // 30-70 km/h
    );
    let mut proto = HvdbProtocol::new(hvdb_cfg, &members, traffic.clone(), vec![]);
    sim.run(&mut proto, SimTime::from_secs(260));
    let h_ratio = sim.stats().delivery_ratio();
    let h_msgs = sim.stats().msgs_where(|_| true);
    let h_bytes = sim.stats().bytes_where(|_| true);
    let h_lat = sim.stats().mean_latency().unwrap_or(0.0);

    // --- Flooding on the identical scenario ---
    let (_, sim_cfg) = sim_config(77);
    let mut sim = Simulator::new(sim_cfg, Box::new(RandomWaypoint::new(8.0, 20.0, 5.0)));
    let mut flood = FloodingProtocol::new(&members, traffic, vec![]);
    sim.run(&mut flood, SimTime::from_secs(260));
    let f_ratio = sim.stats().delivery_ratio();
    let f_msgs = sim.stats().msgs_where(|_| true);
    let f_bytes = sim.stats().bytes_where(|_| true);
    let f_lat = sim.stats().mean_latency().unwrap_or(0.0);

    println!("== vehicular emergency warnings: 600 vehicles, 20 warnings ==");
    println!("protocol   delivery   msgs      bytes        mean-latency");
    println!(
        "HVDB       {h_ratio:<10.3} {h_msgs:<9} {h_bytes:<12} {:.1} ms",
        h_lat * 1e3
    );
    println!(
        "flooding   {f_ratio:<10.3} {f_msgs:<9} {f_bytes:<12} {:.1} ms",
        f_lat * 1e3
    );
    println!(
        "\nflooding transmits {:.1}x the messages of HVDB for the same warnings",
        f_msgs as f64 / h_msgs.max(1) as f64
    );
}
