//! HVDB on the sharded engine.
//!
//! [`HvdbCore`] implements [`hvdb_sim::ParProtocol`] and runs on the
//! conservative lookahead-window [`ParSimulator`]. These tests pin down
//! the two contracts every result rests on:
//!
//! * **The script's outcome (absolute).** On a static dense scenario
//!   every scripted packet is originated and delivered, and the
//!   VC-centre nodes win their elections; every scripted fault leaves
//!   exactly one `FAULT` trace line at its instant.
//! * **Thread invariance (exact).** For a fixed shard count, the stats
//!   block — every counter, every delivery record — must be *byte
//!   identical* across worker thread counts. Threads are an execution
//!   resource, never a semantic input.
//!
//! The edge-case tests aim at the two hardest windows for shard
//! isolation: a cluster-head handover racing a member failure inside one
//! lookahead window, and shared-payload (`DeliverMany`) frames crossing
//! shard boundaries while mobility migrates nodes between cells mid-run.

use hvdb_core::{
    cluster_heads, total_counters, GroupId, HvdbConfig, HvdbCore, HvdbSim, TrafficItem,
};
use hvdb_geo::{Aabb, Point, Vec2};
use hvdb_sim::{
    trace, ByzantineMode, FaultPlan, NodeId, ParSimulator, RadioConfig, RandomWaypoint, SimConfig,
    SimDuration, SimTime, Stationary, TraceConfig,
};

const NODES: usize = 74; // 64 VC-centre nodes + 10 extras.

fn sim_cfg(area: Aabb, seed: u64, mobility_tick: SimDuration) -> SimConfig {
    SimConfig {
        area,
        num_nodes: NODES,
        radio: RadioConfig {
            range: 250.0,
            ..Default::default()
        },
        mobility_tick,
        enhanced_fraction: 1.0,
        seed,
        compact_delivery: false,
    }
}

/// Pins the first 64 nodes near their VC centres (deterministic election
/// winners) and scatters the extras inside cells, exactly like the
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

/// A scripted multicast scenario over the Fig. 2 layout: two groups with
/// members spread across regions, traffic after clustering has settled.
fn scripted() -> (HvdbConfig, Vec<(NodeId, GroupId)>, Vec<TrafficItem>) {
    let area = Aabb::from_size(800.0, 800.0);
    let cfg = HvdbConfig::fig2(area);
    let g1 = GroupId(1);
    let g2 = GroupId(2);
    let members = vec![
        (NodeId(65), g1),
        (NodeId(70), g1),
        (NodeId(9), g1),
        (NodeId(54), g2),
        (NodeId(66), g2),
    ];
    let traffic = (0..6)
        .map(|i| TrafficItem {
            at: SimTime::from_secs(35) + SimDuration::from_millis(400 * i),
            src: NodeId(64 + (i % 3) as u32),
            group: if i % 2 == 0 { g1 } else { g2 },
            size: 256,
            ..Default::default()
        })
        .collect();
    (cfg, members, traffic)
}

/// The Fig. 2 engine at `seed` with the layout placed and `plan` injected.
fn fig2_sim(cfg: &HvdbConfig, seed: u64, threads: usize, plan: &FaultPlan) -> HvdbSim {
    let mut sim: HvdbSim = ParSimulator::new(
        sim_cfg(cfg.grid.area(), seed, SimDuration::ZERO),
        Box::new(Stationary),
        8,
        threads,
    );
    place_fig2(cfg, |id, p| sim.world_mut().set_motion(id, p, Vec2::ZERO));
    sim.world_mut().rebuild_index();
    sim.inject_plan(plan);
    sim
}

fn run_par(seed: u64, threads: usize) -> HvdbSim {
    let (cfg, members, traffic) = scripted();
    let mut sim = fig2_sim(&cfg, seed, threads, &FaultPlan::new());
    let core = HvdbCore::new(cfg, &members, traffic, vec![]);
    sim.run(&core, SimTime::from_secs(50));
    sim
}

#[test]
fn scripted_traffic_is_fully_delivered_by_centre_heads() {
    let (_, _, traffic) = scripted();
    let sim = run_par(11, 4);

    // Every scripted packet was originated and reached every member.
    assert_eq!(
        sim.stats().origin_count(),
        traffic.len(),
        "the run originated a different packet count than scripted"
    );
    assert_eq!(sim.stats().delivery_ratio(), 1.0, "packets were lost");

    // The VC-centre nodes win their elections: 64 heads, one per VC.
    let heads = cluster_heads(&sim);
    assert_eq!(heads.len(), 64, "clustering census diverged");
    for i in 0..64u32 {
        assert!(
            heads.contains(&NodeId(i)),
            "centre node {i} should head its VC"
        );
    }

    // The multicast machinery actually ran (trees built at source CHs),
    // not just the flood fallback.
    assert!(total_counters(&sim).trees_built > 0, "no trees built");
}

#[test]
fn thread_count_is_invisible_for_hvdb() {
    let run = |threads: usize| {
        let sim = run_par(23, threads);
        // Equal outputs alone would also pass an engine that drained
        // every window inline: a lane past the caller's must have worked.
        let lanes = &sim.profile().lane_busy_secs;
        assert!(
            threads == 1 || lanes.iter().skip(1).any(|s| *s > 0.0),
            "threads={threads}: no worker lane drained a window"
        );
        format!("{:?}", sim.stats())
    };
    let one = run(1);
    assert_eq!(one, run(2), "threads=2 diverged from threads=1");
    assert_eq!(one, run(4), "threads=4 diverged from threads=1");
}

/// A cluster-head handover and a group-member failure land in the *same*
/// lookahead window. Fail/Recover are serial barriers between windows, so
/// the surviving shards must re-elect and keep delivering without any
/// cross-shard state read — and the whole episode must stay thread
/// invariant.
#[test]
fn head_handover_with_member_fail_in_one_window() {
    let run = |threads: usize| {
        let (cfg, members, mut traffic) = scripted();
        // Post-failure traffic into the re-elected VC.
        traffic.push(TrafficItem {
            at: SimTime::from_secs(44),
            src: NodeId(66),
            group: GroupId(1),
            size: 128,
            ..Default::default()
        });
        // Node 9 heads VC (1,1) and is also a g1 member; node 70 is a g1
        // member in another shard. Both fail inside one lookahead window
        // (sub-millisecond apart; the window is the radio latency).
        let plan = FaultPlan::new()
            .fail(SimTime::from_secs(38), NodeId(9))
            .fail(
                SimTime::from_secs(38) + SimDuration::from_micros(100),
                NodeId(70),
            );
        let mut sim = fig2_sim(&cfg, 37, threads, &plan);
        let core = HvdbCore::new(cfg, &members, traffic, vec![]);
        sim.run(&core, SimTime::from_secs(55));
        assert!(
            sim.node_state(NodeId(9)).is_some_and(|n| !n.is_head()),
            "failed node must have been stripped of its headship"
        );
        // The VC re-elected some surviving head.
        let heads = cluster_heads(&sim);
        assert!(
            heads.len() >= 60,
            "re-election stalled: only {} heads survive",
            heads.len()
        );
        // Pre-failure traffic was fully deliverable; later packets lose
        // only the failed members.
        assert!(
            sim.stats().delivery_ratio() > 0.7,
            "delivery collapsed after the in-window handover: {}",
            sim.stats().delivery_ratio()
        );
        format!("{:?}", sim.stats())
    };
    assert_eq!(run(1), run(4), "failure window broke thread invariance");
}

/// One scripted injection of every fault kind, timed after clustering
/// settles so each lands on a live, structured network.
fn every_kind_plan() -> FaultPlan {
    let west: Vec<NodeId> = (0..NODES as u32 / 2).map(NodeId).collect();
    let east: Vec<NodeId> = (NODES as u32 / 2..NODES as u32).map(NodeId).collect();
    FaultPlan::new()
        .fail(SimTime::from_secs(38), NodeId(9))
        .partition(SimTime::from_secs(39), vec![west, east])
        .byzantine(
            SimTime::from_secs(40),
            NodeId(5),
            ByzantineMode::SelectiveForward { drop_prob: 0.5 },
        )
        .clock_skew(SimTime::from_secs(41), NodeId(7), 1_500)
        .position_error(
            SimTime::from_secs(41) + SimDuration::from_micros(100),
            NodeId(12),
            Vec2::new(30.0, -20.0),
        )
        .fail_region(SimTime::from_secs(42), Point::new(400.0, 400.0), 120.0)
        .heal(SimTime::from_secs(43))
        .recover(SimTime::from_secs(44), NodeId(9))
}

/// The `FAULT` trace category is recorded by the engine itself from the
/// scripted plan — no RNG — so on the paper geometry every plan event
/// renders exactly one trace line, at its instant, and the rendering is
/// byte-identical at every thread count.
#[test]
fn fault_trace_has_one_line_per_plan_event() {
    let plan = every_kind_plan();
    let run = |threads: usize| {
        let (cfg, members, traffic) = scripted();
        let mut sim = fig2_sim(&cfg, 11, threads, &plan);
        sim.set_trace(TraceConfig::with_mask(trace::FAULT));
        let core = HvdbCore::new(cfg, &members, traffic, vec![]);
        sim.run(&core, SimTime::from_secs(50));
        let instants: Vec<SimTime> = sim.trace().events().map(|e| e.at).collect();
        (instants, sim.trace().render())
    };
    let (instants, one) = run(4);
    let scripted: Vec<SimTime> = plan.events().iter().map(|e| e.at).collect();
    assert_eq!(
        instants, scripted,
        "each scripted fault must record exactly one trace event, at its instant"
    );
    assert_eq!(one.lines().count(), plan.events().len());
    for needle in [
        "NodeFailed",
        "NodeRecovered",
        "PartitionApplied { islands: 2 }",
        "PartitionHealed",
        "ByzantineSet",
        "ClockSkewSet { skew_us: 1500 }",
        "PositionErrorSet",
        "RegionFailed",
    ] {
        assert!(
            one.contains(needle),
            "fault trace is missing {needle}:\n{one}"
        );
    }
    assert_eq!(one, run(1).1, "fault trace depends on thread count");
    assert_eq!(one, run(2).1, "fault trace depends on thread count");
}

/// Full-category trace on the full HVDB protocol: the shard-buffer merge
/// keys on `(time, node)`, which the worker-thread count cannot colour —
/// the rendered trace must be byte-identical across threads 1/2/4.
#[test]
fn hvdb_trace_is_byte_identical_across_thread_counts() {
    let run = |threads: usize| {
        let (cfg, members, traffic) = scripted();
        let mut sim = fig2_sim(&cfg, 23, threads, &FaultPlan::new());
        sim.set_trace(TraceConfig::all());
        let core = HvdbCore::new(cfg, &members, traffic, vec![]);
        sim.run(&core, SimTime::from_secs(50));
        sim.trace().render()
    };
    let one = run(1);
    // Every protocol plane actually emitted: elections, soft-state
    // refresh, and the data path end to end.
    for needle in ["ElectionWin", "RefreshSent", "FlowOrigin", "Delivered"] {
        assert!(one.contains(needle), "trace never recorded {needle}");
    }
    assert_eq!(one, run(2), "threads=2 changed the trace bytes");
    assert_eq!(one, run(4), "threads=4 changed the trace bytes");
}

/// Shared-payload (`DeliverMany`) frames cross shard boundaries while
/// random-waypoint mobility migrates nodes between spatial cells — the
/// path where a stale shard assignment or a missed re-index would corrupt
/// delivery. The run must stay thread invariant and keep delivering.
#[test]
fn cross_shard_delivery_under_cell_migration() {
    let run = |threads: usize| {
        let (cfg, members, traffic) = scripted();
        let mut sim: HvdbSim = ParSimulator::new(
            sim_cfg(cfg.grid.area(), 51, SimDuration::from_secs(1)),
            Box::new(RandomWaypoint::new(1.0, 5.0, 1.0)),
            8,
            threads,
        );
        // RandomWaypoint::init scattered everyone; keep its placement so
        // nodes genuinely change cells (and shards) during the run.
        sim.world_mut().rebuild_index();
        let core = HvdbCore::new(cfg, &members, traffic, vec![]);
        sim.run(&core, SimTime::from_secs(55));
        assert!(
            sim.stats().origin_count() > 0,
            "scenario scripted no traffic at all"
        );
        let delivered: u64 = sim.stats().origin_rows().iter().map(|r| r.3 as u64).sum();
        assert!(delivered > 0, "no packet survived cell migration");
        format!("{:?}", sim.stats())
    };
    assert_eq!(run(1), run(4), "mobility migration broke thread invariance");
}
