//! Quickstart: build the paper's Fig. 2 scenario (8×8 virtual circles,
//! four 4-dimensional logical hypercubes), run the full HVDB protocol with
//! one multicast group, and print what happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hvdb::core::{
    cluster_heads, total_counters, GroupId, HvdbConfig, HvdbCore, HvdbSim, TrafficItem,
};
use hvdb::geo::Aabb;
use hvdb::sim::{
    NodeId, ParSimulator, RadioConfig, RandomWaypoint, SimConfig, SimDuration, SimTime,
};

fn main() {
    let area = Aabb::from_size(800.0, 800.0);
    let cfg = HvdbConfig::fig2(area);
    println!(
        "HVDB over {} VCs, dimension {}, mesh {:?}",
        cfg.grid.vc_count(),
        cfg.dim(),
        cfg.map.mesh_dims()
    );

    let sim_cfg = SimConfig {
        area,
        num_nodes: 250,
        radio: RadioConfig {
            range: 250.0,
            ..Default::default()
        },
        mobility_tick: SimDuration::from_secs(1),
        enhanced_fraction: 0.6, // 60% of nodes have CH-class hardware
        seed: 2005,
        compact_delivery: false,
    };
    // Gentle pedestrian mobility.
    let mobility = RandomWaypoint::new(0.5, 2.0, 20.0);
    // 64 spatial shards drained on one thread; more threads change only
    // wall-clock time, never a result.
    let mut sim: HvdbSim = ParSimulator::new(sim_cfg, Box::new(mobility), 64, 1);

    // One multicast group with members scattered across the area.
    let group = GroupId(1);
    let members: Vec<(NodeId, GroupId)> = [3u32, 57, 101, 160, 222]
        .into_iter()
        .map(|i| (NodeId(i), group))
        .collect();

    // Ten packets from a non-member source, after the backbone forms.
    let traffic: Vec<TrafficItem> = (0..10)
        .map(|i| TrafficItem {
            at: SimTime::from_secs(150 + 2 * i),
            src: NodeId(40),
            group,
            size: 512,
            ..Default::default()
        })
        .collect();

    let core = HvdbCore::new(cfg, &members, traffic, vec![]);
    sim.run(&core, SimTime::from_secs(200));

    let stats = sim.stats();
    println!("cluster heads elected : {}", cluster_heads(&sim).len());
    println!("delivery ratio        : {:.3}", stats.delivery_ratio());
    if let Some(lat) = stats.mean_latency() {
        println!("mean latency          : {:.1} ms", lat * 1e3);
    }
    println!(
        "control overhead      : {} msgs / {} bytes",
        stats.msgs_where(|c| c != "local-deliver" && !c.contains("data")),
        stats.bytes_where(|c| c != "local-deliver" && !c.contains("data")),
    );
    println!(
        "data traffic          : mesh {} + hypercube {} + local {} msgs",
        stats.msgs("mesh-data"),
        stats.msgs("hc-data"),
        stats.msgs("local-deliver"),
    );
    println!("protocol counters     : {:?}", total_counters(&sim));
}
