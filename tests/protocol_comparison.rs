//! Cross-crate integration: all five protocols run the identical scenario
//! and the comparative shape of the paper's claims holds on a small static
//! instance.

use hvdb::baselines::{DsmProtocol, ParFlood, SharedTreeProtocol, SpbmProtocol};
use hvdb::core::{GroupId, HvdbConfig, HvdbCore, TrafficItem};
use hvdb::geo::{Aabb, Point, Vec2};
use hvdb::sim::{
    max_mean_ratio, NodeId, ParProtocol, ParSimulator, RadioConfig, SimConfig, SimDuration,
    SimTime, Stationary, Stats,
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

/// Runs `proto` on an `n_side`² grid, 150 m apart, until `until` and
/// returns the run's statistics.
fn run_on_grid<P: ParProtocol>(cfg: SimConfig, n_side: u32, proto: &P, until: SimTime) -> Stats
where
    P::Node: Send,
{
    let mut sim = ParSimulator::new(cfg, Box::new(Stationary), 64, 1);
    for r in 0..n_side {
        for c in 0..n_side {
            let id = NodeId(r * n_side + c);
            let p = Point::new(c as f64 * SPACING + 20.0, r as f64 * SPACING + 20.0);
            sim.world_mut().set_motion(id, p, Vec2::ZERO);
        }
    }
    sim.world_mut().rebuild_index();
    sim.run(proto, until);
    sim.stats().clone()
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
    let cfg = sim_cfg(1);
    match which {
        "hvdb" => {
            let hvdb = HvdbConfig::new(cfg.area, 6, 6, 4);
            let p = HvdbCore::new(hvdb, &members, traffic, vec![]);
            run_on_grid(cfg, N_SIDE, &p, until)
        }
        "flooding" => {
            let p = ParFlood::new(&members, traffic, vec![]);
            run_on_grid(cfg, N_SIDE, &p, until)
        }
        "tree" => {
            let p = SharedTreeProtocol::new(&members, traffic, vec![]);
            run_on_grid(cfg, N_SIDE, &p, until)
        }
        "dsm" => {
            let p = DsmProtocol::new(&members, traffic, vec![]);
            run_on_grid(cfg, N_SIDE, &p, until)
        }
        "spbm" => {
            let p = SpbmProtocol::new(&members, traffic, vec![]);
            run_on_grid(cfg, N_SIDE, &p, until)
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
    fn grid_cfg(n_side: u32) -> SimConfig {
        let side = n_side as f64 * SPACING;
        SimConfig {
            area: Aabb::from_size(side, side),
            num_nodes: (n_side * n_side) as usize,
            seed: 2,
            ..sim_cfg(2)
        }
    }
    let until = SimTime::from_secs(100);
    let run_at = |n_side: u32, which: &str| -> u64 {
        let cfg = grid_cfg(n_side);
        match which {
            "dsm" => {
                let p = DsmProtocol::new(&[], vec![], vec![]);
                run_on_grid(cfg, n_side, &p, until).bytes("dsm-location")
            }
            _ => {
                let side = n_side as u16;
                let p = HvdbCore::new(
                    HvdbConfig::new(cfg.area, side, side, 4),
                    &[],
                    vec![],
                    vec![],
                );
                run_on_grid(cfg, n_side, &p, until).bytes_where(|c| {
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
