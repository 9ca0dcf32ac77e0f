//! Battlefield scenario — the paper's motivating application (§1, §3).
//!
//! Units (groups of soldiers around a vehicle) move together under
//! reference-point group mobility; only the vehicle-class nodes (one per
//! unit plus spares) have CH-capable hardware — exactly the §3 assumption:
//! "a mobile device equipped on a tank can have stronger capability than
//! the one equipped for a foot soldier". Command HQ multicasts orders to a
//! company-wide group while a recon squad streams reports to a second
//! group; a platoon is knocked out mid-run to exercise availability.
//!
//! ```sh
//! cargo run --release --example battlefield
//! ```

use hvdb::core::{
    cluster_heads, total_counters, GroupId, HvdbConfig, HvdbCore, HvdbSim, TrafficItem,
};
use hvdb::geo::Aabb;
use hvdb::sim::{
    FaultPlan, NodeId, ParSimulator, RadioConfig, ReferencePointGroup, SimConfig, SimDuration,
    SimTime,
};

fn main() {
    let area = Aabb::from_size(3200.0, 3200.0);
    // 16x16 VCs, dimension 4 => a 4x4 mesh of 4-cubes.
    let cfg = HvdbConfig::new(area, 16, 16, 4);
    let num_nodes = 400;
    let sim_cfg = SimConfig {
        area,
        num_nodes,
        radio: RadioConfig {
            range: 420.0, // vehicle-class radios
            ..Default::default()
        },
        mobility_tick: SimDuration::from_secs(1),
        // One in four nodes is vehicle-class (CH-capable).
        enhanced_fraction: 0.25,
        seed: 1944,
        compact_delivery: false,
    };
    // Squads of 10 moving together at convoy speeds.
    let mobility = ReferencePointGroup::new(10, 2.0, 8.0, 120.0);
    let mut sim: HvdbSim = ParSimulator::new(sim_cfg, Box::new(mobility), 64, 1);

    let orders = GroupId(1); // HQ -> everyone in the company group
    let recon = GroupId(2); // recon squad reports

    // Company group: every squad leader (first node of each squad).
    let members: Vec<(NodeId, GroupId)> = (0..num_nodes as u32)
        .step_by(10)
        .map(|i| (NodeId(i), orders))
        .chain(
            (0..num_nodes as u32)
                .skip(200)
                .step_by(40)
                .map(|i| (NodeId(i), recon)),
        )
        .collect();

    let mut traffic = Vec::new();
    // HQ (node 0) issues orders every 5 s.
    for i in 0..12 {
        traffic.push(TrafficItem {
            at: SimTime::from_secs(180 + 5 * i),
            src: NodeId(0),
            group: orders,
            size: 768,
            ..Default::default()
        });
    }
    // Recon (node 399) streams reports.
    for i in 0..20 {
        traffic.push(TrafficItem {
            at: SimTime::from_secs(185 + 3 * i),
            src: NodeId(399),
            group: recon,
            size: 1024,
            ..Default::default()
        });
    }

    let core = HvdbCore::new(cfg, &members, traffic, vec![]);
    // A platoon is destroyed at t = 200 s: 10 nodes fail simultaneously.
    let mut plan = FaultPlan::new();
    for i in 100..110u32 {
        plan = plan.fail(SimTime::from_secs(200), NodeId(i));
    }
    sim.inject_plan(&plan);
    sim.run(&core, SimTime::from_secs(260));

    let stats = sim.stats();
    println!("== battlefield scenario ==");
    println!("nodes {num_nodes}, vehicle-class 25%, squads of 10, 10 failed at t=200s");
    println!("cluster heads        : {}", cluster_heads(&sim).len());
    println!("delivery ratio       : {:.3}", stats.delivery_ratio());
    if let Some(lat) = stats.mean_latency() {
        println!("mean latency         : {:.1} ms", lat * 1e3);
    }
    println!(
        "p95 latency          : {:.1} ms",
        stats.latency_quantile(0.95).unwrap_or(0.0) * 1e3
    );
    let counters = total_counters(&sim);
    println!(
        "failovers after loss : {} (neighbors expired {})",
        counters.route_failovers, counters.neighbors_expired
    );
    println!("counters             : {counters:?}");
}
