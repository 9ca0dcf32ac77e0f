//! Cross-crate integration: radio impairments and fault injection flow
//! through to protocol-visible behaviour.

use hvdb::core::{GroupId, HvdbConfig, HvdbCore, HvdbNode, HvdbSim, TrafficItem};
use hvdb::geo::{Aabb, Point, Vec2};
use hvdb::sim::{
    FaultPlan, NodeId, ParSimulator, RadioConfig, SimConfig, SimDuration, SimTime, Stationary,
};

fn lossy_sim(loss: f64, seed: u64) -> HvdbSim {
    let area = Aabb::from_size(800.0, 800.0);
    let cfg = SimConfig {
        area,
        num_nodes: 80,
        radio: RadioConfig {
            range: 250.0,
            loss_prob: loss,
            ..Default::default()
        },
        mobility_tick: SimDuration::ZERO,
        enhanced_fraction: 1.0,
        seed,
        compact_delivery: false,
    };
    let mut sim = ParSimulator::new(cfg, Box::new(Stationary), 64, 1);
    // 64 nodes at VC centres + 16 extras.
    let grid = hvdb::geo::VcGrid::with_dimensions(area, 8, 8);
    for (i, vc) in grid.iter_ids().enumerate() {
        sim.world_mut()
            .set_motion(NodeId(i as u32), grid.vcc(vc), Vec2::ZERO);
    }
    for e in 0..16u32 {
        let vc = hvdb::geo::VcId::new((e % 8) as u16, (e / 2) as u16);
        let c = grid.vcc(vc);
        sim.world_mut().set_motion(
            NodeId(64 + e),
            Point::new(c.x + 20.0, c.y + 12.0),
            Vec2::ZERO,
        );
    }
    sim.world_mut().rebuild_index();
    sim
}

fn scenario() -> (Vec<(NodeId, GroupId)>, Vec<TrafficItem>) {
    let g = GroupId(1);
    let members = vec![(NodeId(65), g), (NodeId(70), g), (NodeId(79), g)];
    let traffic = (0..8)
        .map(|i| TrafficItem {
            at: SimTime::from_secs(120 + 2 * i),
            src: NodeId(67),
            group: g,
            size: 256,
            ..Default::default()
        })
        .collect();
    (members, traffic)
}

#[test]
fn total_loss_delivers_nothing() {
    let mut sim = lossy_sim(1.0, 1);
    let (members, traffic) = scenario();
    let cfg = HvdbConfig::fig2(Aabb::from_size(800.0, 800.0));
    let core = HvdbCore::new(cfg, &members, traffic, vec![]);
    sim.run(&core, SimTime::from_secs(170));
    assert_eq!(sim.stats().delivery_ratio(), 0.0);
    assert!(sim.stats().drops_loss > 0);
    // Nothing was ever elected either: candidacies never arrive, so each
    // eligible node sees only itself... (it still becomes head of its own
    // VC). Elections proceed, but no cross-node message ever lands.
    assert_eq!(sim.stats().latencies().len(), 0);
}

#[test]
fn moderate_loss_degrades_but_does_not_kill_delivery() {
    let (members, traffic) = scenario();
    let run = |loss: f64, seed: u64| {
        let mut sim = lossy_sim(loss, seed);
        let cfg = HvdbConfig::fig2(Aabb::from_size(800.0, 800.0));
        let core = HvdbCore::new(cfg, &members.clone(), traffic.clone(), vec![]);
        sim.run(&core, SimTime::from_secs(170));
        sim.stats().delivery_ratio()
    };
    let clean = run(0.0, 7);
    assert!(clean >= 0.99, "clean run delivered {clean}");
    // The soft-state control plane (generation-stamped refresh, K-miss
    // expiry, duplicate-head deferral) plus MAC retries and repeated
    // local delivery must hold delivery near-perfect at 15% frame loss —
    // the committed floor the CI `loss` gate enforces (PR 1's baseline
    // was a mean of ~0.65 here). A single run's ratio is a mean of only
    // 24 Bernoulli outcomes, so assert in expectation over seeds (seed 7
    // is PR 1's known-worst draw and stays in the set on purpose).
    let seeds = [1u64, 2, 3, 7];
    let mean = seeds.iter().map(|&s| run(0.15, s)).sum::<f64>() / seeds.len() as f64;
    assert!(mean >= 0.90, "15% loss dropped mean delivery to {mean}");
    assert!(mean <= clean + 1e-9);
}

#[test]
fn recovered_nodes_rejoin_the_backbone() {
    let mut sim = lossy_sim(0.0, 3);
    let cfg = HvdbConfig::fig2(Aabb::from_size(800.0, 800.0));
    let core = HvdbCore::new(cfg, &[], vec![], vec![]);
    // Take down 8 centre nodes, bring them back, and check they head VCs
    // again (the spares near those VCs are farther from the VCCs).
    let mut plan = FaultPlan::new();
    for i in 0..8u32 {
        plan = plan
            .fail(SimTime::from_secs(30), NodeId(i * 8))
            .recover(SimTime::from_secs(60), NodeId(i * 8));
    }
    sim.inject_plan(&plan);
    sim.run(&core, SimTime::from_secs(100));
    for i in 0..8u32 {
        assert!(
            sim.node_state(NodeId(i * 8)).is_some_and(HvdbNode::is_head),
            "recovered node {} did not reclaim its VC",
            i * 8
        );
    }
}
