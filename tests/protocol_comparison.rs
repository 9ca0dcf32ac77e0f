//! Cross-crate integration: all five protocols run the identical scenario
//! and the comparative shape of the paper's claims holds on a small static
//! instance.

use hvdb::baselines::{DsmProtocol, FloodingProtocol, SharedTreeProtocol, SpbmProtocol};
use hvdb::core::{GroupId, HvdbConfig, HvdbProtocol, TrafficItem};
use hvdb::geo::{Aabb, Point, Vec2};
use hvdb::sim::{
    max_mean_ratio, NodeId, RadioConfig, SimConfig, SimDuration, SimTime, Simulator, Stationary,
    Stats,
};

const N_SIDE: u32 = 6;
const SPACING: f64 = 150.0;

fn sim_cfg(seed: u64) -> SimConfig {
    let side = N_SIDE as f64 * SPACING;
    SimConfig {
        area: Aabb::from_size(side, side),
        num_nodes: (N_SIDE * N_SIDE) as usize,
        radio: RadioConfig {
            range: 280.0,
            ..Default::default()
        },
        mobility_tick: SimDuration::ZERO,
        enhanced_fraction: 1.0,
        seed,
        compact_delivery: false,
    }
}

fn place<M: Clone>(sim: &mut Simulator<M>) {
    for r in 0..N_SIDE {
        for c in 0..N_SIDE {
            let id = NodeId(r * N_SIDE + c);
            let p = Point::new(c as f64 * SPACING + 20.0, r as f64 * SPACING + 20.0);
            sim.world_mut().set_motion(id, p, Vec2::ZERO);
        }
    }
    sim.world_mut().rebuild_index();
}

fn scenario() -> (Vec<(NodeId, GroupId)>, Vec<TrafficItem>) {
    let g = GroupId(1);
    let members = vec![
        (NodeId(0), g),
        (NodeId(35), g),
        (NodeId(5), g),
        (NodeId(30), g),
    ];
    let traffic = (0..6)
        .map(|i| TrafficItem {
            at: SimTime::from_secs(120 + 3 * i),
            src: NodeId(14),
            group: g,
            size: 400,
            ..Default::default()
        })
        .collect();
    (members, traffic)
}

fn run_protocol(which: &str) -> Stats {
    let (members, traffic) = scenario();
    let until = SimTime::from_secs(170);
    match which {
        "hvdb" => {
            let mut sim = Simulator::new(sim_cfg(1), Box::new(Stationary));
            place(&mut sim);
            let area = sim.world().area();
            let mut p =
                HvdbProtocol::new(HvdbConfig::new(area, 6, 6, 4), &members, traffic, vec![]);
            sim.run(&mut p, until);
            sim.stats().clone()
        }
        "flooding" => {
            let mut sim = Simulator::new(sim_cfg(1), Box::new(Stationary));
            place(&mut sim);
            let mut p = FloodingProtocol::new(&members, traffic, vec![]);
            sim.run(&mut p, until);
            sim.stats().clone()
        }
        "tree" => {
            let mut sim = Simulator::new(sim_cfg(1), Box::new(Stationary));
            place(&mut sim);
            let mut p = SharedTreeProtocol::new(&members, traffic, vec![]);
            sim.run(&mut p, until);
            sim.stats().clone()
        }
        "dsm" => {
            let mut sim = Simulator::new(sim_cfg(1), Box::new(Stationary));
            place(&mut sim);
            let mut p = DsmProtocol::new(&members, traffic, vec![]);
            sim.run(&mut p, until);
            sim.stats().clone()
        }
        "spbm" => {
            let mut sim = Simulator::new(sim_cfg(1), Box::new(Stationary));
            place(&mut sim);
            let mut p = SpbmProtocol::new(&members, traffic, vec![]);
            sim.run(&mut p, until);
            sim.stats().clone()
        }
        _ => unreachable!(),
    }
}

#[test]
fn all_protocols_deliver_on_static_grid() {
    for which in ["hvdb", "flooding", "tree", "dsm", "spbm"] {
        let stats = run_protocol(which);
        assert!(
            stats.delivery_ratio() >= 0.9,
            "{which} delivered only {}",
            stats.delivery_ratio()
        );
    }
}

#[test]
fn flooding_data_cost_exceeds_hvdb() {
    // The scalability motivation: flooding transmits per node per packet.
    let flood = run_protocol("flooding");
    let hvdb = run_protocol("hvdb");
    let flood_data = flood.msgs("flood-data");
    let hvdb_data = hvdb.msgs_where(|c| c.contains("data") || c == "local-deliver");
    assert!(
        flood_data > hvdb_data,
        "flooding {flood_data} !> hvdb {hvdb_data}"
    );
}

#[test]
fn dsm_membership_overhead_grows_faster_than_hvdb() {
    // §2.2: DSM floods every node's location network-wide, so its control
    // traffic grows ~quadratically with N; HVDB's backbone maintenance is
    // bounded by the (fixed-size) CH plane. On a small instance HVDB's
    // fixed cost can exceed DSM's — the paper's claim is about *scaling*,
    // so we compare growth factors between two network sizes.
    fn grid_sim<M: Clone>(n_side: u32) -> Simulator<M> {
        let spacing = 150.0;
        let side = n_side as f64 * spacing;
        let cfg = SimConfig {
            area: Aabb::from_size(side, side),
            num_nodes: (n_side * n_side) as usize,
            radio: RadioConfig {
                range: 280.0,
                ..Default::default()
            },
            mobility_tick: SimDuration::ZERO,
            enhanced_fraction: 1.0,
            seed: 2,
            compact_delivery: false,
        };
        let mut sim = Simulator::new(cfg, Box::new(Stationary));
        for r in 0..n_side {
            for c in 0..n_side {
                let id = NodeId(r * n_side + c);
                let p = Point::new(c as f64 * spacing + 20.0, r as f64 * spacing + 20.0);
                sim.world_mut().set_motion(id, p, Vec2::ZERO);
            }
        }
        sim.world_mut().rebuild_index();
        sim
    }
    let until = SimTime::from_secs(100);
    let run_at = |n_side: u32, which: &str| -> u64 {
        match which {
            "dsm" => {
                let mut sim = grid_sim(n_side);
                let mut p = DsmProtocol::new(&[], vec![], vec![]);
                sim.run(&mut p, until);
                sim.stats().bytes("dsm-location")
            }
            _ => {
                let mut sim = grid_sim(n_side);
                let area = sim.world().area();
                let mut p = HvdbProtocol::new(
                    HvdbConfig::new(area, n_side as u16, n_side as u16, 4),
                    &[],
                    vec![],
                    vec![],
                );
                sim.run(&mut p, until);
                sim.stats().bytes_where(|c| {
                    matches!(
                        c,
                        "beacon"
                            | "mnt-share"
                            | "ht-bcast"
                            | "join-report"
                            | "candidacy"
                            | "ch-announce"
                            | "handover"
                    )
                })
            }
        }
    };
    let dsm_growth = run_at(10, "dsm") as f64 / run_at(5, "dsm") as f64;
    let hvdb_growth = run_at(10, "hvdb") as f64 / run_at(5, "hvdb") as f64;
    // 4x the nodes: DSM's flood bytes grow ~16x; HVDB's backbone traffic
    // grows far slower.
    assert!(
        dsm_growth > 2.0 * hvdb_growth,
        "dsm growth {dsm_growth:.1} !>> hvdb growth {hvdb_growth:.1}"
    );
}

#[test]
fn shared_tree_concentrates_load_more_than_hvdb() {
    // §5: bottlenecks are "likely to occur in tree-based architectures".
    let tree = run_protocol("tree");
    let hvdb = run_protocol("hvdb");
    let tree_peak = max_mean_ratio(&tree.node_tx_bytes);
    let hvdb_peak = max_mean_ratio(&hvdb.node_tx_bytes);
    assert!(
        tree_peak > hvdb_peak,
        "tree peak {tree_peak} !> hvdb peak {hvdb_peak}"
    );
}
