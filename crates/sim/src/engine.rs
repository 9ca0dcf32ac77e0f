//! The engine's scenario parameters ([`SimConfig`]) and the black-box
//! tests of what every protocol sees through [`crate::ParCtx`]: radio
//! timing and range, broadcast fan-out, resumable runs and every fault
//! kind's effect. The sharding mechanics themselves (thread invariance,
//! lanes, window commit order) are tested in [`crate::par`].
//!
//! Determinism: a `(SimConfig, shards, protocol)` triple replays
//! bit-identically at every thread count — events are totally ordered,
//! node iteration is by id, and all randomness flows from the seed.

use crate::radio::RadioConfig;
use crate::time::SimDuration;
use hvdb_geo::Aabb;
use serde::{Deserialize, Serialize};

/// Scenario parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Deployment area.
    pub area: Aabb,
    /// Number of mobile nodes.
    pub num_nodes: usize,
    /// Radio model.
    pub radio: RadioConfig,
    /// Interval between mobility updates (0 disables mobility ticks).
    pub mobility_tick: SimDuration,
    /// Fraction of nodes with [`crate::Capability::Enhanced`] hardware
    /// (CH-capable; paper §3 assumption 2). 1.0 makes every node eligible.
    pub enhanced_fraction: f64,
    /// Master random seed.
    pub seed: u64,
    /// Compact delivery accounting ([`crate::Stats::set_compact_delivery`]):
    /// origins keep counters only — no per-receiver record lists — so
    /// heavy traffic-plane runs stay O(packets) in memory. Requires the
    /// protocol to dedup deliveries by data id (all registered ones do).
    pub compact_delivery: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            area: Aabb::from_size(1000.0, 1000.0),
            num_nodes: 100,
            radio: RadioConfig::default(),
            mobility_tick: SimDuration::from_secs(1),
            enhanced_fraction: 1.0,
            seed: 1,
            compact_delivery: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ByzantineMode, FaultEvent, FaultKind, FaultPlan};
    use crate::mobility::{RandomWaypoint, Stationary};
    use crate::node::{Capability, NodeId};
    use crate::par::{ParCtx, ParProtocol, ParSimulator};
    use crate::time::SimTime;
    use crate::world::World;
    use hvdb_geo::{Point, Vec2};

    /// Shards for these tests: more than the handful of nodes most of
    /// them place, so neighbours usually sit in different shards.
    const SHARDS: usize = 4;

    fn new_sim<N: Send, M: Clone + Send>(cfg: SimConfig) -> ParSimulator<N, M> {
        ParSimulator::new(cfg, Box::new(Stationary), SHARDS, 1)
    }

    /// A protocol assembled from plain handler functions over a
    /// `Default` per-node state; unset handlers do nothing.
    struct Handlers<N, M> {
        start: fn(NodeId, &mut N, &mut ParCtx<'_, M>),
        message: fn(NodeId, &mut N, NodeId, M, &mut ParCtx<'_, M>),
        timer: fn(NodeId, &mut N, u64, &mut ParCtx<'_, M>),
        fail: fn(NodeId, &mut N),
        recover: fn(NodeId, &mut N),
    }

    impl<N, M> Handlers<N, M> {
        fn new() -> Self {
            Handlers {
                start: |_, _, _| {},
                message: |_, _, _, _, _| {},
                timer: |_, _, _, _| {},
                fail: |_, _| {},
                recover: |_, _| {},
            }
        }
    }

    impl<N: Default + Send, M: Clone + Send> ParProtocol for Handlers<N, M> {
        type Msg = M;
        type Node = N;

        fn make_node(&self, _id: NodeId, _world: &World) -> N {
            N::default()
        }

        fn on_start(&self, id: NodeId, node: &mut N, ctx: &mut ParCtx<'_, M>) {
            (self.start)(id, node, ctx)
        }

        fn on_message(
            &self,
            id: NodeId,
            node: &mut N,
            from: NodeId,
            msg: M,
            ctx: &mut ParCtx<'_, M>,
        ) {
            (self.message)(id, node, from, msg, ctx)
        }

        fn on_timer(&self, id: NodeId, node: &mut N, tag: u64, ctx: &mut ParCtx<'_, M>) {
            (self.timer)(id, node, tag, ctx)
        }

        fn on_fail(&self, id: NodeId, node: &mut N, _ctx: &mut ParCtx<'_, M>) {
            (self.fail)(id, node)
        }

        fn on_recover(&self, id: NodeId, node: &mut N, _ctx: &mut ParCtx<'_, M>) {
            (self.recover)(id, node)
        }
    }

    /// Node 0 sends "ping" to node 1 at start; node 1 replies; node 0
    /// counts replies and re-pings on a 5 s timer.
    struct PingPong;

    #[derive(Default)]
    struct PingNode {
        pings_rx: u32,
        pongs_rx: u32,
        timer_fired: u32,
    }

    impl ParProtocol for PingPong {
        type Msg = &'static str;
        type Node = PingNode;

        fn make_node(&self, _id: NodeId, _world: &World) -> PingNode {
            PingNode::default()
        }

        fn on_start(&self, id: NodeId, _node: &mut PingNode, ctx: &mut ParCtx<'_, &'static str>) {
            if id == NodeId(0) {
                ctx.send_reliable(id, NodeId(1), "ping", 100, "ping");
                ctx.set_timer(id, SimDuration::from_secs(5), 7);
            }
        }

        fn on_message(
            &self,
            id: NodeId,
            node: &mut PingNode,
            from: NodeId,
            msg: &'static str,
            ctx: &mut ParCtx<'_, &'static str>,
        ) {
            match msg {
                "ping" => {
                    node.pings_rx += 1;
                    ctx.send_reliable(id, from, "pong", 100, "pong");
                }
                "pong" => node.pongs_rx += 1,
                _ => unreachable!(),
            }
        }

        fn on_timer(
            &self,
            id: NodeId,
            node: &mut PingNode,
            tag: u64,
            ctx: &mut ParCtx<'_, &'static str>,
        ) {
            assert_eq!(tag, 7);
            node.timer_fired += 1;
            ctx.send_reliable(id, NodeId(1), "ping", 100, "ping");
        }
    }

    type PingSim = ParSimulator<PingNode, &'static str>;

    /// Network-wide `(pings_rx, pongs_rx, timer_fired)`.
    fn ping_totals(sim: &PingSim) -> (u32, u32, u32) {
        sim.world()
            .ids()
            .filter_map(|id| sim.node_state(id))
            .fold((0, 0, 0), |(a, b, c), n| {
                (a + n.pings_rx, b + n.pongs_rx, c + n.timer_fired)
            })
    }

    fn two_node_cfg() -> SimConfig {
        SimConfig {
            num_nodes: 2,
            mobility_tick: SimDuration::ZERO,
            ..Default::default()
        }
    }

    /// Places nodes at `(x, y)` and rebuilds the index.
    fn place<N: Send, M: Clone + Send>(sim: &mut ParSimulator<N, M>, at: &[(f64, f64)]) {
        for (i, &(x, y)) in at.iter().enumerate() {
            sim.world_mut()
                .set_motion(NodeId(i as u32), Point::new(x, y), Vec2::ZERO);
        }
        sim.world_mut().rebuild_index();
    }

    fn ping_pair(dist: f64) -> PingSim {
        let mut sim = new_sim(two_node_cfg());
        place(&mut sim, &[(0.0, 0.0), (dist, 0.0)]);
        sim
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim = ping_pair(100.0);
        sim.run(&PingPong, SimTime::from_secs(10));
        // Initial ping plus the timer re-ping, each answered.
        assert_eq!(ping_totals(&sim), (2, 2, 1));
        assert_eq!(sim.stats().msgs("ping"), 2);
        assert_eq!(sim.stats().msgs("pong"), 2);
        assert_eq!(sim.stats().bytes("ping"), 200);
    }

    #[test]
    fn out_of_range_send_fails() {
        let mut sim = ping_pair(500.0); // beyond 250 m range
        sim.run(&PingPong, SimTime::from_secs(10));
        assert_eq!(ping_totals(&sim).0, 0);
        assert_eq!(sim.stats().drops_out_of_range, 2);
    }

    #[test]
    fn messages_take_time_to_arrive() {
        let p: Handlers<Option<SimTime>, &'static str> = Handlers {
            start: |id, _, ctx| {
                if id == NodeId(0) {
                    ctx.send_reliable(id, NodeId(1), "data", 250, "hello");
                }
            },
            message: |_, arrival, _, _, ctx| *arrival = Some(ctx.now()),
            ..Handlers::new()
        };
        let mut sim = new_sim(two_node_cfg());
        place(&mut sim, &[(0.0, 0.0), (100.0, 0.0)]);
        sim.run(&p, SimTime::from_secs(1));
        // 250 bytes at 2 Mb/s = 1 ms + 0.5 ms latency + jitter < 0.2 ms.
        let t = sim
            .node_state(NodeId(1))
            .unwrap()
            .expect("message must arrive");
        assert!(t >= SimTime(1_500), "{t}");
        assert!(t <= SimTime(1_700), "{t}");
    }

    #[test]
    fn broadcast_reaches_all_in_range() {
        // Node state: broadcasts heard, all from node 0.
        let p: Handlers<u32, u8> = Handlers {
            start: |id, _, ctx| {
                if id == NodeId(0) {
                    let n = ctx.broadcast(id, "hello", 50, 1);
                    assert_eq!(n, 2);
                }
            },
            message: |_, got, from, _, _| {
                assert_eq!(from, NodeId(0));
                *got += 1;
            },
            ..Handlers::new()
        };
        let cfg = SimConfig {
            num_nodes: 4,
            mobility_tick: SimDuration::ZERO,
            ..Default::default()
        };
        let mut sim: ParSimulator<u32, u8> = new_sim(cfg);
        // 0 at origin; 1 and 2 in range; 3 far away.
        place(
            &mut sim,
            &[(0.0, 0.0), (100.0, 0.0), (0.0, 200.0), (900.0, 900.0)],
        );
        sim.run(&p, SimTime::from_secs(1));
        let got: Vec<u32> = (0..4)
            .map(|i| *sim.node_state(NodeId(i)).unwrap())
            .collect();
        assert_eq!(got, vec![0, 1, 1, 0]);
        // One transmission counted, not one per receiver.
        assert_eq!(sim.stats().msgs("hello"), 1);
    }

    #[test]
    fn dead_nodes_receive_nothing_and_timers_skip() {
        let mut sim = ping_pair(100.0);
        sim.inject_plan(&FaultPlan::new().fail(SimTime::ZERO, NodeId(1)));
        sim.run(&PingPong, SimTime::from_secs(10));
        // Node 1 failed at t=0 before any delivery: nothing received.
        assert_eq!(ping_totals(&sim).0, 0);
        assert!(sim.stats().drops_dead >= 1);
    }

    /// `(fails, recovers)` callbacks seen per node.
    fn fail_recover_counter() -> Handlers<(u32, u32), ()> {
        Handlers {
            fail: |_, n| n.0 += 1,
            recover: |_, n| n.1 += 1,
            ..Handlers::new()
        }
    }

    /// The ids whose counter `pick` is non-zero, each repeated that often.
    fn ids_where(sim: &ParSimulator<(u32, u32), ()>, pick: fn(&(u32, u32)) -> u32) -> Vec<NodeId> {
        sim.world()
            .ids()
            .flat_map(|id| std::iter::repeat_n(id, pick(sim.node_state(id).unwrap()) as usize))
            .collect()
    }

    #[test]
    fn fail_and_recover_callbacks() {
        let cfg = SimConfig {
            num_nodes: 3,
            mobility_tick: SimDuration::ZERO,
            ..Default::default()
        };
        let mut sim = new_sim(cfg);
        sim.inject_plan(
            &FaultPlan::new()
                .fail(SimTime::from_secs(1), NodeId(2))
                .recover(SimTime::from_secs(5), NodeId(2)),
        );
        let p = fail_recover_counter();
        sim.run(&p, SimTime::from_secs(3));
        assert_eq!(ids_where(&sim, |n| n.0), vec![NodeId(2)]);
        assert!(ids_where(&sim, |n| n.1).is_empty());
        assert!(!sim.world().alive(NodeId(2)));
        sim.run(&p, SimTime::from_secs(10));
        assert_eq!(ids_where(&sim, |n| n.1), vec![NodeId(2)]);
        assert!(sim.world().alive(NodeId(2)));
    }

    #[test]
    fn bandwidth_serialises_transmissions() {
        // Sending two 250-byte frames back-to-back: second arrives ~1 ms
        // after the first (radio busy).
        let p: Handlers<Vec<SimTime>, u8> = Handlers {
            start: |id, _, ctx| {
                if id == NodeId(0) {
                    ctx.send_reliable(id, NodeId(1), "d", 250, 1);
                    ctx.send_reliable(id, NodeId(1), "d", 250, 2);
                }
            },
            message: |_, arrivals, _, _, ctx| arrivals.push(ctx.now()),
            ..Handlers::new()
        };
        let mut sim = new_sim(two_node_cfg());
        place(&mut sim, &[(0.0, 0.0), (50.0, 0.0)]);
        sim.run(&p, SimTime::from_secs(1));
        let arrivals: &Vec<SimTime> = sim.node_state(NodeId(1)).unwrap();
        assert_eq!(arrivals.len(), 2);
        let gap = arrivals[1].since(arrivals[0]);
        assert!(
            gap >= SimDuration::from_micros(800) && gap <= SimDuration::from_micros(1400),
            "gap {gap}"
        );
    }

    /// 30 nodes under random waypoint running [`PingPong`] for 60 s,
    /// with a no-op heal at 30 s when `noop_fault` is set; returns the
    /// ping totals, the loss drops, every node's transmitted bytes and
    /// node 17's final position.
    fn waypoint_pings(seed: u64, noop_fault: bool) -> ((u32, u32, u32), u64, Vec<u64>, Point) {
        let cfg = SimConfig {
            num_nodes: 30,
            seed,
            ..Default::default()
        };
        let mut sim: PingSim = ParSimulator::new(
            cfg,
            Box::new(RandomWaypoint::new(1.0, 10.0, 2.0)),
            SHARDS,
            1,
        );
        if noop_fault {
            // Heal with no partition active: a no-op world mutation.
            sim.inject_plan(&FaultPlan::new().heal(SimTime::from_secs(30)));
        }
        sim.run(&PingPong, SimTime::from_secs(60));
        (
            ping_totals(&sim),
            sim.stats().drops_loss,
            sim.stats().node_tx_bytes.clone(),
            sim.world().position(NodeId(17)),
        )
    }

    #[test]
    fn deterministic_replay_same_seed() {
        assert_eq!(waypoint_pings(99, false), waypoint_pings(99, false));
    }

    #[test]
    fn enhanced_fraction_assignment() {
        let cfg = SimConfig {
            num_nodes: 100,
            enhanced_fraction: 0.3,
            ..Default::default()
        };
        let sim: ParSimulator<(), ()> = new_sim(cfg);
        let n = sim
            .world()
            .ids()
            .filter(|id| sim.world().capability(*id) == Capability::Enhanced)
            .count();
        assert_eq!(n, 30);
    }

    #[test]
    fn run_is_resumable() {
        let mut sim = ping_pair(100.0);
        sim.run(&PingPong, SimTime::from_secs(2));
        assert_eq!(ping_totals(&sim).2, 0);
        sim.run(&PingPong, SimTime::from_secs(20));
        assert_eq!(ping_totals(&sim).2, 1);
        assert_eq!(sim.now(), SimTime::from_secs(20));
    }

    #[test]
    fn resumed_run_does_not_double_count_sim_time() {
        // sim_secs must accumulate the *advance* of each run() call, not
        // the absolute horizon: run(10) + run(20) is 20 simulated seconds,
        // not 30. (Regression: the wall-clock-rate helper used to be fed
        // `until` directly by callers, double-counting resumed runs.)
        let mut sim = ping_pair(100.0);
        sim.run(&PingPong, SimTime::from_secs(10));
        assert!((sim.sim_secs() - 10.0).abs() < 1e-9, "{}", sim.sim_secs());
        sim.run(&PingPong, SimTime::from_secs(20));
        assert!((sim.sim_secs() - 20.0).abs() < 1e-9, "{}", sim.sim_secs());
        // Re-running at an earlier horizon advances nothing.
        sim.run(&PingPong, SimTime::from_secs(5));
        assert!((sim.sim_secs() - 20.0).abs() < 1e-9, "{}", sim.sim_secs());
    }

    #[test]
    fn partition_blocks_unicast_until_heal() {
        let mut sim = ping_pair(100.0);
        // Cut 0 from 1 for the first 4 s. The initial ping leaves during
        // on_start, *before* the t = 0 partition event fires, so it is
        // already in flight and arrives — but node 1's pong reply is
        // sent under the cut and dies. The 5 s timer re-ping round-trips
        // freely after the heal.
        sim.inject_plan(
            &FaultPlan::new()
                .partition(SimTime::ZERO, vec![vec![NodeId(0)], vec![NodeId(1)]])
                .heal(SimTime::from_secs(4)),
        );
        sim.run(&PingPong, SimTime::from_secs(10));
        let (pings, pongs, _) = ping_totals(&sim);
        assert_eq!(pings, 2);
        assert_eq!(pongs, 1);
        assert_eq!(sim.stats().drops_partitioned, 1);
        assert_eq!(sim.stats().drops_loss, 0);
    }

    #[test]
    fn partition_filters_broadcast_receivers() {
        let p: Handlers<(), u8> = Handlers {
            start: |id, _, ctx| {
                if id == NodeId(0) {
                    let n = ctx.broadcast(id, "b", 50, 1);
                    // Only same-island node 1 remains of 3 in-range peers.
                    assert_eq!(n, 1);
                }
            },
            message: |id, _, _, _, _| assert_eq!(id, NodeId(1)),
            ..Handlers::new()
        };
        let cfg = SimConfig {
            num_nodes: 4,
            mobility_tick: SimDuration::ZERO,
            ..Default::default()
        };
        let mut sim: ParSimulator<(), u8> = new_sim(cfg);
        place(
            &mut sim,
            &[(0.0, 0.0), (60.0, 0.0), (120.0, 0.0), (180.0, 0.0)],
        );
        sim.world_mut()
            .apply_partition(&[vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]]);
        sim.run(&p, SimTime::from_secs(1));
        assert_eq!(sim.stats().drops_partitioned, 2);
    }

    #[test]
    fn fail_region_kills_the_disc() {
        let cfg = SimConfig {
            num_nodes: 5,
            mobility_tick: SimDuration::ZERO,
            ..Default::default()
        };
        let mut sim = new_sim(cfg);
        place(
            &mut sim,
            &[
                (0.0, 0.0),
                (100.0, 0.0),
                (200.0, 0.0),
                (300.0, 0.0),
                (400.0, 0.0),
            ],
        );
        sim.inject(FaultEvent {
            at: SimTime::from_secs(1),
            kind: FaultKind::FailRegion {
                center: Point::new(100.0, 0.0),
                radius: 120.0,
            },
        });
        sim.run(&fail_recover_counter(), SimTime::from_secs(2));
        // Nodes at x = 0, 100, 200 sit within 120 m of (100, 0).
        assert_eq!(
            ids_where(&sim, |n| n.0),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
        assert!(!sim.world().alive(NodeId(1)));
        assert!(sim.world().alive(NodeId(3)));
        // One barrier event, not one per victim.
        assert_eq!(sim.stats().events_processed, 1);
    }

    #[test]
    fn selective_forward_drops_at_the_sender() {
        let mut sim: PingSim = new_sim(SimConfig {
            num_nodes: 2,
            mobility_tick: SimDuration::ZERO,
            seed: 3,
            ..Default::default()
        });
        place(&mut sim, &[(0.0, 0.0), (100.0, 0.0)]);
        sim.inject(FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::Byzantine {
                node: NodeId(1),
                mode: ByzantineMode::SelectiveForward { drop_prob: 1.0 },
            },
        });
        sim.run(&PingPong, SimTime::from_secs(10));
        // Node 1 hears both pings but silently swallows every pong.
        let (pings, pongs, _) = ping_totals(&sim);
        assert_eq!(pings, 2);
        assert_eq!(pongs, 0);
        assert_eq!(sim.stats().byzantine_dropped, 2);
        // The dropped frames never hit the air: no tx counted for them.
        assert_eq!(sim.stats().msgs("pong"), 0);
    }

    #[test]
    fn replay_stale_duplicates_deliveries() {
        let mut sim = ping_pair(100.0);
        sim.inject(FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::Byzantine {
                node: NodeId(0),
                mode: ByzantineMode::ReplayStale {
                    delay: SimDuration::from_secs(1),
                },
            },
        });
        sim.run(&PingPong, SimTime::from_secs(10));
        // The initial ping leaves during on_start, before the t = 0
        // Byzantine onset applies; the 5 s timer re-ping is replayed, so
        // node 1 hears three pings off two genuine sends plus one stale
        // duplicate.
        assert_eq!(ping_totals(&sim).0, 3);
        assert_eq!(sim.stats().byzantine_replayed, 1);
        // Replays are queue copies, not transmissions.
        assert_eq!(sim.stats().msgs("ping"), 2);
    }

    #[test]
    fn bogus_candidacy_flips_capability() {
        let cfg = SimConfig {
            num_nodes: 2,
            enhanced_fraction: 0.0,
            mobility_tick: SimDuration::ZERO,
            ..Default::default()
        };
        let mut sim: ParSimulator<(), ()> = new_sim(cfg);
        assert_eq!(sim.world().capability(NodeId(1)), Capability::Regular);
        sim.inject(FaultEvent {
            at: SimTime::from_secs(1),
            kind: FaultKind::Byzantine {
                node: NodeId(1),
                mode: ByzantineMode::BogusCandidacy { drop_prob: 0.5 },
            },
        });
        sim.run(&Handlers::new(), SimTime::from_secs(2));
        assert_eq!(sim.world().capability(NodeId(1)), Capability::Enhanced);
    }

    #[test]
    fn clock_skew_and_position_error_colour_observations() {
        let p: Handlers<Option<(SimTime, Point)>, u8> = Handlers {
            start: |id, _, ctx| {
                if id == NodeId(0) {
                    ctx.set_timer(id, SimDuration::from_secs(5), 1);
                }
            },
            timer: |id, seen, _, ctx| *seen = Some((ctx.now(), ctx.position(id))),
            ..Handlers::new()
        };
        let mut sim = new_sim(two_node_cfg());
        place(&mut sim, &[(0.0, 0.0), (100.0, 0.0)]);
        sim.inject_plan(
            &FaultPlan::new()
                .clock_skew(SimTime::from_secs(1), NodeId(0), -2_000_000)
                .position_error(SimTime::from_secs(1), NodeId(0), Vec2::new(30.0, 0.0)),
        );
        sim.run(&p, SimTime::from_secs(6));
        let (t, pos) = sim.node_state(NodeId(0)).unwrap().expect("timer fired");
        // The timer fires at true t = 5 s but node 0's clock reads 3 s,
        // and its GPS reads 30 m east of truth.
        assert_eq!(t, SimTime::from_secs(3));
        assert_eq!(pos, Point::new(30.0, 0.0));
        // Engine scheduling itself stayed exact.
        assert_eq!(sim.now(), SimTime::from_secs(6));
    }

    #[test]
    fn fault_free_runs_unchanged_by_fault_plane() {
        // A run with no faults injected must replay bit-identically to
        // one carrying a no-op fault: the fault plane draws no RNG and
        // adds no counter noise.
        let (a_pings, a_loss, a_bytes, _) = waypoint_pings(42, false);
        let (b_pings, b_loss, b_bytes, _) = waypoint_pings(42, true);
        assert_eq!((a_pings, a_loss), (b_pings, b_loss));
        assert_eq!(a_bytes, b_bytes);
    }
}
