//! Integration coverage of the adaptive soft-state refresh controller
//! (`hvdb_core::softstate::refresh`) on the full distributed protocol:
//! quiet-phase overhead must drop at least 2x against the fixed-rate
//! baseline on byte-identical inputs, without costing convergence or
//! delivery — and churn must snap the rate back.

use hvdb_core::{FrameBytes, GroupEvent, GroupId, HvdbConfig, HvdbProtocol, TrafficItem};
use hvdb_geo::{Aabb, Point, Vec2};
use hvdb_sim::{
    NodeId, RadioConfig, SimConfig, SimDuration, SimTime, Simulator, Stationary, Stats,
};

/// The paper's Fig. 2 layout, one stationary CH-capable node pinned near
/// every VC centre — a backbone that converges quickly and then goes
/// fully quiet, the adaptive controller's best case and the fixed rate's
/// worst.
fn fig2_sim(seed: u64) -> (Simulator<FrameBytes>, HvdbConfig) {
    let area = Aabb::from_size(800.0, 800.0);
    let cfg = HvdbConfig::fig2(area);
    let sim_cfg = SimConfig {
        area,
        num_nodes: 64,
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
    let grid = cfg.grid.clone();
    for (i, vc) in grid.iter_ids().enumerate() {
        let c = grid.vcc(vc);
        let p = Point::new(c.x + (i % 7) as f64, c.y - (i % 5) as f64);
        sim.world_mut().set_motion(NodeId(i as u32), p, Vec2::ZERO);
    }
    sim.world_mut().rebuild_index();
    (sim, cfg)
}

fn refresh_frames(stats: &Stats) -> u64 {
    stats.msgs("ch-refresh") + stats.msgs("mnt-refresh") + stats.msgs("ht-refresh")
}

/// Runs the protocol for `secs` simulated seconds with the adaptive
/// controller on or off, returning the finished protocol and stats.
fn run_variant(
    adaptive: bool,
    secs: u64,
    members: &[(NodeId, GroupId)],
    traffic: Vec<TrafficItem>,
    events: Vec<GroupEvent>,
) -> (HvdbProtocol, Stats) {
    let (mut sim, mut cfg) = fig2_sim(42);
    cfg.adaptive_refresh = adaptive;
    let mut proto = HvdbProtocol::new(cfg, members, traffic, events);
    sim.run(&mut proto, SimTime::from_secs(secs));
    let stats = sim.stats().clone();
    (proto, stats)
}

#[test]
fn quiet_phase_refresh_traffic_drops_at_least_2x() {
    let members = [
        (NodeId(3), GroupId(1)),
        (NodeId(20), GroupId(1)),
        (NodeId(45), GroupId(1)),
        (NodeId(60), GroupId(1)),
    ];
    // One multicast late in the run proves the backed-off control plane
    // still routes correctly.
    let traffic = vec![TrafficItem {
        at: SimTime::from_secs(100),
        src: NodeId(3),
        group: GroupId(1),
        size: 256,
        ..Default::default()
    }];
    let (fixed_proto, fixed_stats) = run_variant(false, 120, &members, traffic.clone(), vec![]);
    let (adaptive_proto, adaptive_stats) = run_variant(true, 120, &members, traffic, vec![]);
    // Both variants converge to the same backbone.
    assert_eq!(fixed_proto.cluster_heads().len(), 64);
    assert_eq!(adaptive_proto.cluster_heads().len(), 64);
    // Both deliver the late packet to all three remote members.
    assert_eq!(fixed_stats.delivery_ratio(), 1.0);
    assert_eq!(adaptive_stats.delivery_ratio(), 1.0);
    // The headline: the quiet phase sheds at least half the
    // refresh-plane frames (flood relays included). Deterministic — same
    // seed, same inputs, only the controller differs.
    let fixed = refresh_frames(&fixed_stats);
    let adaptive = refresh_frames(&adaptive_stats);
    assert!(
        fixed >= 2 * adaptive,
        "fixed-rate {fixed} refresh frames vs adaptive {adaptive}: improvement below 2x"
    );
    // The saving is visible in the controller's own books, not just the
    // radio's: refreshes were suppressed, and the rate histogram shows
    // time spent at backed-off intervals.
    assert_eq!(fixed_proto.counters().refresh_suppressed, 0);
    assert!(adaptive_proto.counters().refresh_suppressed > 0);
    assert!(fixed_stats.refresh_rate_hist.keys().all(|t| *t == 1));
    assert!(
        adaptive_stats.refresh_rate_hist.keys().any(|t| *t > 1),
        "adaptive histogram never left the floor rate: {:?}",
        adaptive_stats.refresh_rate_hist
    );
    assert_eq!(
        adaptive_stats.soft_refresh_suppressed,
        adaptive_proto.counters().refresh_suppressed,
        "sim and protocol suppression counters must agree"
    );
    // The region-cube cache earns its keep exactly here: once the
    // backbone converges, every refresh tick's designation check (fired
    // or suppressed) must reuse the cached cube instead of rebuilding it
    // from the MNT label set — hits dominate rebuilds in a quiet phase.
    for proto in [&fixed_proto, &adaptive_proto] {
        let hits = proto.counters().cube_cache_hits;
        let rebuilds = proto.counters().cube_rebuilds;
        assert!(
            hits > rebuilds,
            "quiet phase must be cache-hit dominated: {hits} hits vs {rebuilds} rebuilds"
        );
        assert!(rebuilds > 0, "convergence itself must rebuild the cube");
    }
}

#[test]
fn membership_churn_snaps_the_rate_back() {
    let members = [(NodeId(3), GroupId(1)), (NodeId(20), GroupId(1))];
    // A quiet run against one with a burst of membership churn in the
    // middle: the churned run must spend measurably more refresh frames
    // (snap-back working) while still suppressing some (backoff
    // recovering between and after bursts).
    let churn: Vec<GroupEvent> = (0..12u32)
        .map(|i| GroupEvent {
            at: SimTime::from_secs(60 + (i as u64) * 4),
            node: NodeId(10 + i),
            group: GroupId(1 + (i % 2)),
            join: i % 3 != 2,
        })
        .collect();
    let (quiet_proto, quiet_stats) = run_variant(true, 120, &members, vec![], vec![]);
    let (churn_proto, churn_stats) = run_variant(true, 120, &members, vec![], churn);
    let quiet = refresh_frames(&quiet_stats);
    let churned = refresh_frames(&churn_stats);
    assert!(
        churned > quiet,
        "churned run must refresh more ({churned} vs {quiet})"
    );
    assert!(
        churn_proto.counters().refresh_suppressed > 0,
        "even the churned run has quiet stretches to back off in"
    );
    assert!(quiet_proto.counters().refresh_suppressed > churn_proto.counters().refresh_suppressed);
}
