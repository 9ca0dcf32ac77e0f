//! End-to-end integration tests of the distributed HVDB protocol on the
//! discrete-event simulator: clustering convergence, route maintenance,
//! membership propagation, and the full Fig. 6 multicast path.

use hvdb_core::{FrameBytes, GroupEvent, GroupId, HvdbConfig, HvdbProtocol, TrafficItem};
use hvdb_geo::{Aabb, Point, Vec2};
use hvdb_sim::{
    FaultEvent, FaultKind, NodeId, RadioConfig, SimConfig, SimDuration, SimTime, Simulator,
    Stationary,
};

/// A dense, stationary scenario over the paper's Fig. 2 layout: one node
/// near every VC centre (plus extras), everyone CH-capable.
fn fig2_sim(num_extra: usize, seed: u64) -> (Simulator<FrameBytes>, HvdbConfig) {
    let area = Aabb::from_size(800.0, 800.0);
    let cfg = HvdbConfig::fig2(area);
    let n = 64 + num_extra;
    let sim_cfg = SimConfig {
        area,
        num_nodes: n,
        radio: RadioConfig {
            range: 250.0,
            ..Default::default()
        },
        mobility_tick: SimDuration::ZERO,
        enhanced_fraction: 1.0,
        seed,
        compact_delivery: false,
    };
    let mut sim: Simulator<FrameBytes> = Simulator::new(sim_cfg, Box::new(Stationary));
    // Pin the first 64 nodes near the VC centres (small offsets so the
    // election distance criterion is exercised), extras scattered around
    // cell interiors.
    let grid = cfg.grid.clone();
    let ids: Vec<_> = grid.iter_ids().collect();
    for (i, vc) in ids.iter().enumerate() {
        let c = grid.vcc(*vc);
        let p = Point::new(c.x + (i % 7) as f64, c.y - (i % 5) as f64);
        sim.world_mut().set_motion(NodeId(i as u32), p, Vec2::ZERO);
    }
    for e in 0..num_extra {
        let vc = ids[(e * 13) % ids.len()];
        let c = grid.vcc(vc);
        let p = Point::new(c.x + 20.0 + (e % 3) as f64 * 5.0, c.y + 15.0);
        sim.world_mut()
            .set_motion(NodeId((64 + e) as u32), p, Vec2::ZERO);
    }
    sim.world_mut().rebuild_index();
    (sim, cfg)
}

#[test]
fn clustering_converges_to_one_head_per_vc() {
    let (mut sim, cfg) = fig2_sim(30, 7);
    let mut proto = HvdbProtocol::new(cfg, &[], vec![], vec![]);
    sim.run(&mut proto, SimTime::from_secs(12));
    let heads = proto.cluster_heads();
    assert_eq!(heads.len(), 64, "every VC must elect exactly one head");
    // The node pinned at each VC centre wins its VC (closest, stationary).
    for i in 0..64u32 {
        assert!(
            proto.is_head(NodeId(i)),
            "centre node {i} should head its VC"
        );
    }
}

#[test]
fn route_tables_fill_to_horizon() {
    let (mut sim, cfg) = fig2_sim(0, 8);
    let k = cfg.k;
    let mut proto = HvdbProtocol::new(cfg, &[], vec![], vec![]);
    sim.run(&mut proto, SimTime::from_secs(30));
    // Check a head in the middle of region (0,0): with k = 4 and a full
    // 4-cube + grid links, every other label (15) is within 4 hops.
    let mut checked = 0;
    for id in proto.cluster_heads() {
        let table = proto.route_table(id).unwrap();
        assert!(table.k() == k);
        if table.destination_count() > 0 {
            checked += 1;
            // All routes respect the horizon.
            // (Routes are per destination label within the region.)
            assert!(table.destination_count() <= 15);
        }
    }
    assert!(
        checked >= 48,
        "most heads should have routes, got {checked}"
    );
    // A specific interior head should know essentially the whole cube.
    let table = proto.route_table(NodeId(9)).unwrap(); // VC (1,1), region (0,0)
    assert!(
        table.destination_count() >= 12,
        "interior head knows {} of 15 labels",
        table.destination_count()
    );
}

#[test]
fn membership_propagates_to_mt_summaries() {
    let (mut sim, cfg) = fig2_sim(10, 9);
    // Members in two different regions: node 70 (extra) and node 63
    // (VC (7,7), region (1,1)); node 0 is in region (0,0).
    let g = GroupId(5);
    let members = [(NodeId(63), g), (NodeId(70), g)];
    let mut proto = HvdbProtocol::new(cfg, &members, vec![], vec![]);
    sim.run(&mut proto, SimTime::from_secs(120));
    // After two HT rounds every head's MT-Summary lists the member regions.
    let mut heads_knowing = 0;
    let mut total_heads = 0;
    for id in proto.cluster_heads() {
        let db = proto.membership_db(id).unwrap();
        total_heads += 1;
        if !db.mt.hypercubes_with(g).is_empty() {
            heads_knowing += 1;
        }
    }
    assert!(
        heads_knowing * 10 >= total_heads * 9,
        "only {heads_knowing}/{total_heads} heads learned the group"
    );
}

#[test]
fn multicast_delivers_across_regions() {
    let (mut sim, cfg) = fig2_sim(10, 10);
    let g = GroupId(1);
    // Members spread over three regions; source in a fourth.
    let members = [
        (NodeId(0), g),  // VC (0,0) region (0,0)
        (NodeId(7), g),  // VC (0,7) region (0,1)
        (NodeId(56), g), // VC (7,0) region (1,0)
        (NodeId(70), g), // extra node
    ];
    let traffic = vec![
        TrafficItem {
            at: SimTime::from_secs(130),
            src: NodeId(63), // VC (7,7) region (1,1)
            group: g,
            size: 512,
            ..Default::default()
        },
        TrafficItem {
            at: SimTime::from_secs(140),
            src: NodeId(63),
            group: g,
            size: 512,
            ..Default::default()
        },
    ];
    let mut proto = HvdbProtocol::new(cfg, &members, traffic, vec![]);
    sim.run(&mut proto, SimTime::from_secs(170));
    let ratio = sim.stats().delivery_ratio();
    assert!(
        ratio >= 0.75,
        "delivery ratio {ratio} too low; counters: {:?}",
        proto.counters()
    );
    // Data had to traverse the mesh tier.
    assert!(sim.stats().msgs("mesh-data") > 0, "no mesh-tier traffic");
    assert!(sim.stats().msgs("local-deliver") > 0, "no local delivery");
}

#[test]
fn multicast_within_single_region_uses_hypercube_tier() {
    let (mut sim, cfg) = fig2_sim(0, 11);
    let g = GroupId(2);
    // Source and members all inside region (0,0) but different VCs.
    let members = [(NodeId(1), g), (NodeId(18), g)]; // VC (0,1), VC (2,2)
    let traffic = vec![TrafficItem {
        at: SimTime::from_secs(100),
        src: NodeId(0), // VC (0,0)
        group: g,
        size: 256,
        ..Default::default()
    }];
    let mut proto = HvdbProtocol::new(cfg, &members, traffic, vec![]);
    sim.run(&mut proto, SimTime::from_secs(130));
    assert!(
        sim.stats().delivery_ratio() >= 0.99,
        "ratio {} counters {:?}",
        sim.stats().delivery_ratio(),
        proto.counters()
    );
    assert!(sim.stats().msgs("hc-data") > 0, "no hypercube-tier traffic");
}

#[test]
fn dynamic_join_becomes_visible_to_routing() {
    let (mut sim, cfg) = fig2_sim(0, 12);
    let g = GroupId(3);
    // Node 36 joins at t = 30 s; traffic at t = 150 s (after membership
    // propagation) from node 27 in another region.
    let events = vec![GroupEvent {
        at: SimTime::from_secs(30),
        node: NodeId(36), // VC (4,4) region (1,1)
        group: g,
        join: true,
    }];
    let traffic = vec![TrafficItem {
        at: SimTime::from_secs(150),
        src: NodeId(27), // VC (3,3) region (0,0)
        group: g,
        size: 512,
        ..Default::default()
    }];
    let mut proto = HvdbProtocol::new(cfg, &[], traffic, events);
    sim.run(&mut proto, SimTime::from_secs(180));
    assert_eq!(proto.group_members(g), vec![NodeId(36)]);
    assert!(
        sim.stats().delivery_ratio() >= 0.99,
        "ratio {} counters {:?}",
        sim.stats().delivery_ratio(),
        proto.counters()
    );
}

#[test]
fn deterministic_replay() {
    let run = |seed: u64| {
        let (mut sim, cfg) = fig2_sim(20, seed);
        let g = GroupId(1);
        let members = [(NodeId(5), g), (NodeId(60), g)];
        let traffic = vec![TrafficItem {
            at: SimTime::from_secs(120),
            src: NodeId(30),
            group: g,
            size: 400,
            ..Default::default()
        }];
        let mut proto = HvdbProtocol::new(cfg, &members, traffic, vec![]);
        sim.run(&mut proto, SimTime::from_secs(150));
        (
            sim.stats().delivery_ratio(),
            sim.stats().msgs_where(|_| true),
            sim.stats().bytes_where(|_| true),
            proto.cluster_heads(),
        )
    };
    assert_eq!(run(42), run(42));
}

#[test]
fn ch_failure_is_detected_and_routed_around() {
    let (mut sim, cfg) = fig2_sim(10, 13);
    let g = GroupId(4);
    let members = [(NodeId(2), g)]; // VC (0,2) region (0,0)
    let traffic = vec![TrafficItem {
        at: SimTime::from_secs(150),
        src: NodeId(16), // VC (2,0) region (0,0)
        group: g,
        size: 300,
        ..Default::default()
    }];
    let mut proto = HvdbProtocol::new(cfg, &members, traffic, vec![]);
    // Kill the CH of VC (1,1) (node 9) after the backbone forms: routes
    // through label 0011 must fail over.
    sim.inject(FaultEvent {
        at: SimTime::from_secs(60),
        kind: FaultKind::Fail(NodeId(9)),
    });
    sim.run(&mut proto, SimTime::from_secs(180));
    assert!(proto.counters().neighbors_expired > 0, "failure undetected");
    assert!(
        sim.stats().delivery_ratio() >= 0.99,
        "ratio {} counters {:?}",
        sim.stats().delivery_ratio(),
        proto.counters()
    );
}

#[test]
fn tree_caching_avoids_recomputation() {
    let (mut sim, cfg) = fig2_sim(0, 14);
    assert!(cfg.cache_trees);
    let g = GroupId(6);
    let members = [(NodeId(7), g)];
    // Many packets from the same source: first builds trees, rest hit cache.
    let traffic: Vec<TrafficItem> = (0..8)
        .map(|i| TrafficItem {
            at: SimTime::from_secs(130 + i),
            src: NodeId(56),
            group: g,
            size: 200,
            ..Default::default()
        })
        .collect();
    let mut proto = HvdbProtocol::new(cfg, &members, traffic, vec![]);
    sim.run(&mut proto, SimTime::from_secs(170));
    assert!(
        proto.counters().tree_cache_hits > 0,
        "no cache hits: {:?}",
        proto.counters()
    );
    assert!(sim.stats().delivery_ratio() > 0.8);
}
