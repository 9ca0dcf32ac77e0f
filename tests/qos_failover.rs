//! Cross-crate integration: the QoS availability chain of §5 — hypercube
//! disjoint paths, route-table alternatives, and protocol-level failover
//! and delivery under CH failures.

use hvdb::core::routes::{AdvertisedRoute, QosMetrics};
use hvdb::core::{
    cluster_heads, total_counters, GroupId, HvdbConfig, HvdbCore, HvdbSim, RouteTable, TrafficItem,
};
use hvdb::geo::{Aabb, Hnid, Point, Vec2};
use hvdb::hypercube::{disjoint_paths_complete, pair_connectivity, IncompleteHypercube};
use hvdb::sim::{
    FaultPlan, NodeId, ParSimulator, RadioConfig, SimConfig, SimDuration, SimTime, Stationary,
};

#[test]
fn structural_redundancy_flows_into_route_alternatives() {
    // The 4-cube offers 4 disjoint paths (paper §2.1)...
    let dim = 4u8;
    let cube = IncompleteHypercube::complete(dim);
    assert_eq!(pair_connectivity(&cube, 0b0000, 0b1111), 4);
    let paths = disjoint_paths_complete(0b0000, 0b1111, dim);
    assert_eq!(paths.len(), 4);

    // ...and a route table fed one beacon per disjoint first hop retains
    // multiple alternatives with distinct first hops.
    let link = QosMetrics {
        delay: SimDuration::from_millis(2),
        bandwidth_bps: 2e6,
    };
    let mut table = RouteTable::new(Hnid(0b0000), 4);
    for p in &paths {
        let first = p[1];
        let qos_rest = QosMetrics {
            delay: SimDuration::from_millis(2 * (p.len() as u64 - 2)),
            bandwidth_bps: 2e6,
        };
        table.integrate_beacon(
            Hnid(first),
            link,
            &[AdvertisedRoute {
                dst: Hnid(0b1111),
                hops: p.len() as u32 - 2,
                qos: qos_rest,
            }],
            SimTime::ZERO,
        );
    }
    let alts = table.routes_to(Hnid(0b1111));
    assert!(alts.len() >= 2, "only {} alternatives retained", alts.len());
    let firsts: std::collections::HashSet<Hnid> = alts.iter().map(|r| r.next_hop).collect();
    assert_eq!(firsts.len(), alts.len(), "first hops must be distinct");
}

#[test]
fn protocol_delivers_through_ch_failures() {
    // Full stack: kill a quarter of the backbone mid-run; delivery of
    // post-failure traffic stays high because replacement CHs are elected
    // and routes fail over onto their retained alternatives.
    let area = Aabb::from_size(800.0, 800.0);
    let cfg = HvdbConfig::fig2(area);
    let sim_cfg = SimConfig {
        area,
        num_nodes: 128,
        radio: RadioConfig {
            range: 250.0,
            ..Default::default()
        },
        mobility_tick: SimDuration::ZERO,
        enhanced_fraction: 1.0,
        seed: 9,
        compact_delivery: false,
    };
    let mut sim: HvdbSim = ParSimulator::new(sim_cfg, Box::new(Stationary), 64, 1);
    let grid = cfg.grid.clone();
    let ids: Vec<_> = grid.iter_ids().collect();
    // Two nodes per VC: primary at centre, spare offset.
    for (i, vc) in ids.iter().enumerate() {
        let c = grid.vcc(*vc);
        sim.world_mut().set_motion(NodeId(i as u32), c, Vec2::ZERO);
        sim.world_mut().set_motion(
            NodeId((64 + i) as u32),
            Point::new(c.x + 25.0, c.y + 10.0),
            Vec2::ZERO,
        );
    }
    sim.world_mut().rebuild_index();
    let g = GroupId(1);
    let members = [(NodeId(70), g), (NodeId(100), g), (NodeId(120), g)];
    let traffic: Vec<TrafficItem> = (0..5)
        .map(|i| TrafficItem {
            at: SimTime::from_secs(150 + 4 * i),
            src: NodeId(90),
            group: g,
            size: 300,
            ..Default::default()
        })
        .collect();
    let core = HvdbCore::new(cfg, &members, traffic, vec![]);
    // Kill 16 of the 64 centre nodes (the elected CHs) at t = 120 s.
    let mut plan = FaultPlan::new();
    for i in (0..64u32).step_by(4) {
        plan = plan.fail(SimTime::from_secs(120), NodeId(i));
    }
    sim.inject_plan(&plan);
    sim.run(&core, SimTime::from_secs(190));
    assert!(
        sim.stats().delivery_ratio() >= 0.9,
        "delivery {} after backbone failures; counters {:?}",
        sim.stats().delivery_ratio(),
        total_counters(&sim)
    );
    // The spares took over the headless VCs.
    let heads = cluster_heads(&sim);
    assert!(
        heads.len() >= 60,
        "only {} heads after recovery",
        heads.len()
    );
    // §5's mechanism fired: heads saw neighbours go silent and switched
    // destinations onto an alternative route instantly.
    let c = total_counters(&sim);
    assert!(c.neighbors_expired > 0, "no neighbour expired: {c:?}");
    assert!(c.route_failovers > 0, "no route failed over: {c:?}");
}
