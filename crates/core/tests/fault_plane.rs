//! The fault plane exercised through the *real* HVDB protocol: network
//! partitions with heal, on both engines.
//!
//! The engine-level semantics (barrier ordering, RNG isolation, every
//! fault kind's thread invariance on a synthetic protocol) live in the
//! sim crate's own tests. What they cannot show is that the *protocol*
//! reacts correctly: split islands re-elect cluster heads for the cells
//! whose head ended up on the far side, and the duplicate heads stand
//! down again after the heal — the head-census re-merge the `partition`
//! benchmark scenario gates in CI. These tests pin that behaviour at
//! integration-test scale, plus its exact thread invariance on the
//! sharded engine with the split straddling lookahead windows.

use hvdb_core::{FrameBytes, GroupId, HvdbConfig, HvdbCore, HvdbNode, HvdbProtocol, TrafficItem};
use hvdb_geo::{Aabb, Point, Vec2};
use hvdb_sim::{
    FaultPlan, NodeId, ParSimulator, RadioConfig, SimConfig, SimDuration, SimTime, Simulator,
    Stationary,
};

const NODES: usize = 74; // 64 VC-centre nodes + 10 extras.

fn sim_cfg(area: Aabb, seed: u64) -> SimConfig {
    SimConfig {
        area,
        num_nodes: NODES,
        radio: RadioConfig {
            range: 250.0,
            ..Default::default()
        },
        mobility_tick: SimDuration::ZERO,
        enhanced_fraction: 1.0,
        seed,
        compact_delivery: false,
    }
}

/// Pins the first 64 nodes near their VC centres (deterministic election
/// winners) and scatters the extras inside cells, exactly like the other
/// integration tests do.
fn place_fig2(cfg: &HvdbConfig, mut set: impl FnMut(NodeId, Point)) {
    let grid = &cfg.grid;
    let ids: Vec<_> = grid.iter_ids().collect();
    for (i, vc) in ids.iter().enumerate() {
        let c = grid.vcc(*vc);
        set(
            NodeId(i as u32),
            Point::new(c.x + (i % 7) as f64, c.y - (i % 5) as f64),
        );
    }
    for e in 0..(NODES - 64) {
        let vc = ids[(e * 13) % ids.len()];
        let c = grid.vcc(vc);
        set(
            NodeId((64 + e) as u32),
            Point::new(c.x + 20.0 + (e % 3) as f64 * 5.0, c.y + 15.0),
        );
    }
}

/// Splits the id space at 37: the west island holds centre nodes 0–36,
/// the east island the remaining centres plus every extra. Six extras
/// (64, 65, 66, 69, 70, 71) sit in cells whose centre lands west, so the
/// east island must elect them as replacement heads during the split and
/// the census visibly inflates — a real re-merge signal after the heal.
fn islands() -> Vec<Vec<NodeId>> {
    vec![
        (0..37).map(NodeId).collect(),
        (37..NODES as u32).map(NodeId).collect(),
    ]
}

fn pre_census(heads: &[NodeId]) -> Vec<NodeId> {
    let mut h = heads.to_vec();
    h.sort_unstable();
    h
}

#[test]
fn split_islands_reelect_and_remerge_after_heal() {
    let area = Aabb::from_size(800.0, 800.0);
    let cfg = HvdbConfig::fig2(area);
    let mut sim: Simulator<FrameBytes> = Simulator::new(sim_cfg(area, 5), Box::new(Stationary));
    place_fig2(&cfg, |id, p| sim.world_mut().set_motion(id, p, Vec2::ZERO));
    sim.world_mut().rebuild_index();
    let mut proto = HvdbProtocol::new(cfg, &[], vec![], vec![]);
    sim.inject_plan(
        &FaultPlan::new()
            .partition(SimTime::from_secs(40), islands())
            .heal(SimTime::from_secs(80)),
    );
    // Converged pre-split census: the 64 centre nodes.
    sim.run(&mut proto, SimTime::from_secs(40));
    let pre = pre_census(&proto.cluster_heads());
    assert_eq!(
        pre.len(),
        64,
        "clustering did not converge before the split"
    );
    // During the split, the east island re-elects heads for the cells
    // whose centre node is marooned west: the global census inflates.
    sim.run(&mut proto, SimTime::from_secs(80));
    let during = proto.cluster_heads();
    assert!(
        during.len() > 64,
        "no island re-election happened during the split (census {})",
        during.len()
    );
    // After the heal the duplicate heads must stand down again — probe
    // the census until it returns to exactly the pre-split set.
    let mut remerged_at = None;
    let mut t = SimTime::from_secs(80);
    while t < SimTime::from_secs(140) {
        t += SimDuration::from_secs(5);
        sim.run(&mut proto, t);
        if pre_census(&proto.cluster_heads()) == pre {
            remerged_at = Some(t);
            break;
        }
    }
    let at = remerged_at.expect("head census never re-merged within 60 s of the heal");
    assert!(
        at <= SimTime::from_secs(110),
        "re-merge took more than 30 s: census restored only at {at:?}"
    );
    assert!(
        sim.stats().drops_partitioned > 0,
        "the partition never gated a frame — the split did not bite"
    );
}

/// The same split/heal straddling lookahead windows on the sharded
/// engine, with live multicast traffic crossing the cut: the stats block
/// must stay byte-identical across worker-thread counts.
#[test]
fn partition_heal_is_thread_invariant_on_hvdb() {
    let run = |threads: usize| {
        let area = Aabb::from_size(800.0, 800.0);
        let cfg = HvdbConfig::fig2(area);
        let g = GroupId(1);
        // Members on both sides of the id split, so some deliveries are
        // cut off mid-partition and retried around the heal.
        let members = vec![(NodeId(9), g), (NodeId(54), g), (NodeId(70), g)];
        let traffic: Vec<TrafficItem> = (0..8)
            .map(|i| TrafficItem {
                at: SimTime::from_secs(35) + SimDuration::from_millis(300 * i),
                src: NodeId(64 + (i % 3) as u32),
                group: g,
                size: 256,
                ..Default::default()
            })
            .collect();
        let mut sim: ParSimulator<HvdbNode, FrameBytes> =
            ParSimulator::new(sim_cfg(area, 29), Box::new(Stationary), 8, threads);
        place_fig2(&cfg, |id, p| sim.world_mut().set_motion(id, p, Vec2::ZERO));
        sim.world_mut().rebuild_index();
        // Split lands microseconds into a lookahead window and the heal
        // arrives mid-traffic: both barriers interleave with in-flight
        // frames however the windows fall.
        sim.inject_plan(
            &FaultPlan::new()
                .partition(
                    SimTime::from_secs(36) + SimDuration::from_micros(500),
                    islands(),
                )
                .heal(SimTime::from_secs(37) + SimDuration::from_micros(100)),
        );
        let core = HvdbCore::new(cfg, &members, traffic, vec![]);
        sim.run(&core, SimTime::from_secs(45));
        assert!(
            sim.stats().drops_partitioned > 0,
            "the window-straddling partition never gated a frame"
        );
        format!("{:?}", sim.stats())
    };
    let one = run(1);
    assert_eq!(one, run(2), "threads=2 diverged from threads=1");
    assert_eq!(one, run(4), "threads=4 diverged from threads=1");
}
