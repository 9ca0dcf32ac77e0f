//! Cross-crate integration: snapshot model construction (geo + cluster +
//! hypercube + core) agrees with the distributed protocol's converged
//! state (core + sim).

use hvdb::cluster::Candidate;
use hvdb::core::{build_model, cluster_heads, HvdbConfig, HvdbCore, HvdbNode, HvdbSim};
use hvdb::geo::{Aabb, Vec2};
use hvdb::sim::{NodeId, ParSimulator, RadioConfig, SimConfig, SimDuration, SimTime, Stationary};

/// One node pinned at every VC centre over the Fig. 2 layout.
fn centre_candidates(cfg: &HvdbConfig) -> Vec<Candidate> {
    cfg.grid
        .iter_ids()
        .enumerate()
        .map(|(i, vc)| Candidate {
            node: i as u32,
            pos: cfg.grid.vcc(vc),
            vel: Vec2::ZERO,
            eligible: true,
        })
        .collect()
}

#[test]
fn snapshot_and_distributed_clustering_agree() {
    let area = Aabb::from_size(800.0, 800.0);
    let cfg = HvdbConfig::fig2(area);
    let candidates = centre_candidates(&cfg);
    // Snapshot construction.
    let model = build_model(&cfg, &candidates);
    assert_eq!(model.clustering.cluster_count(), 64);

    // Distributed construction over the simulator.
    let sim_cfg = SimConfig {
        area,
        num_nodes: 64,
        radio: RadioConfig {
            range: 250.0,
            ..Default::default()
        },
        mobility_tick: SimDuration::ZERO,
        enhanced_fraction: 1.0,
        seed: 3,
        compact_delivery: false,
    };
    let mut sim: HvdbSim = ParSimulator::new(sim_cfg, Box::new(Stationary), 64, 1);
    for (i, c) in candidates.iter().enumerate() {
        sim.world_mut()
            .set_motion(NodeId(i as u32), c.pos, Vec2::ZERO);
    }
    sim.world_mut().rebuild_index();
    let core = HvdbCore::new(cfg.clone(), &[], vec![], vec![]);
    sim.run(&core, SimTime::from_secs(15));

    // Every VC's snapshot-elected head is the distributed winner too.
    for (vc, head) in &model.clustering.head_of_vc {
        assert!(
            sim.node_state(NodeId(*head)).is_some_and(HvdbNode::is_head),
            "snapshot head {head} of {vc} not elected by protocol"
        );
    }
    assert_eq!(cluster_heads(&sim).len(), 64);
}

#[test]
fn hypercube_tier_matches_region_map() {
    let area = Aabb::from_size(800.0, 800.0);
    let cfg = HvdbConfig::fig2(area);
    let model = build_model(&cfg, &centre_candidates(&cfg));
    // Every hypercube node's neighbours in the built cube agree with the
    // region map's logical-neighbour relation.
    for hid in &model.mesh_present {
        let cube = model.cube(*hid).unwrap();
        for cell in cfg.map.region_cells(*hid) {
            let label = cfg.map.address_of(cell).hnid;
            let mut expect: Vec<u32> = cfg
                .map
                .intra_region_neighbors(cell)
                .iter()
                .map(|n| cfg.map.address_of(*n).hnid.0)
                .collect();
            expect.sort_unstable();
            assert_eq!(cube.neighbors(label.0), expect, "cell {cell}");
        }
    }
}

#[test]
fn fig2_example_end_to_end_identifiers() {
    // The full identifier chain of §4.1 over the Fig. 2 example:
    // position -> VC (CHID) -> HNID -> HID -> MNID and back.
    let area = Aabb::from_size(800.0, 800.0);
    let cfg = HvdbConfig::fig2(area);
    for vc in cfg.grid.iter_ids() {
        let pos = cfg.grid.vcc(vc);
        let chid = cfg.grid.vc_of(pos); // CHID == VcId
        assert_eq!(chid, vc);
        let addr = cfg.map.address_of(chid);
        let mnid = addr.hid.mnid();
        assert_eq!(mnid.hid(), addr.hid); // HID <-> MNID one-to-one
        assert_eq!(cfg.map.vc_of(addr), Some(vc)); // HNID one-to-one per cube
    }
}
