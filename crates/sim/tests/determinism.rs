//! End-to-end determinism regression: the crate's core invariant is that
//! a run is a pure function of `(SimConfig, shards, protocol)` — two runs
//! with identical inputs must produce **bit-identical** statistics, node
//! positions and protocol-visible history. Every experiment, cached
//! baseline and perf comparison in this workspace rests on this.

use hvdb_sim::{
    Mobility, NodeId, ParCtx, ParProtocol, ParSimulator, RandomWaypoint, SimConfig, SimDuration,
    SimTime, Stats, World,
};
use hvdb_traffic::FLOW_NONE;

/// A busy little protocol exercising every engine facility: broadcast
/// gossip, reliable unicast, timers, RNG draws, neighbour queries and
/// delivery accounting. Each node keeps its own timer-tag history — the
/// protocol-visible event order.
struct Chatter;

impl ParProtocol for Chatter {
    type Msg = u64;
    type Node = Vec<u64>;

    fn make_node(&self, _id: NodeId, _world: &World) -> Vec<u64> {
        Vec::new()
    }

    fn on_start(&self, id: NodeId, _history: &mut Vec<u64>, ctx: &mut ParCtx<'_, u64>) {
        ctx.set_timer(id, SimDuration::from_millis(500 + id.0 as u64 * 7), 1);
        if id.0 == 0 {
            ctx.record_origin_flow(99, 3, FLOW_NONE, 0);
        }
    }

    fn on_message(
        &self,
        id: NodeId,
        _history: &mut Vec<u64>,
        from: NodeId,
        msg: u64,
        ctx: &mut ParCtx<'_, u64>,
    ) {
        if msg < 3 {
            // Re-broadcast with decremented hop budget.
            ctx.broadcast(id, "gossip", 64, msg + 1);
        } else if msg == 3 && id.0 % 7 == 0 {
            ctx.record_delivery_hops(99, id, 0);
            ctx.send_reliable(id, from, "ack", 32, 100);
        }
    }

    fn on_timer(&self, id: NodeId, history: &mut Vec<u64>, tag: u64, ctx: &mut ParCtx<'_, u64>) {
        history.push(tag);
        // Mix in RNG use and neighbour queries (scratch-buffer path).
        let n = ctx.with_neighbors(id, |ctx, neighbors| {
            let _ = ctx.rng().unit();
            neighbors.len()
        });
        if n > 0 && tag < 4 {
            ctx.broadcast(id, "gossip", 64, 0);
            ctx.set_timer(id, SimDuration::from_millis(900), tag + 1);
        }
    }
}

/// Everything a run exposes: stats, every node's timer history, final
/// node positions.
type RunOutput = (Stats, Vec<Vec<u64>>, Vec<(f64, f64)>);

fn run(seed: u64) -> RunOutput {
    let cfg = SimConfig {
        num_nodes: 40,
        seed,
        ..SimConfig::default()
    };
    let mobility: Box<dyn Mobility> = Box::new(RandomWaypoint::new(1.0, 8.0, 4.0));
    let mut sim = ParSimulator::new(cfg, mobility, 8, 1);
    sim.run(&Chatter, SimTime::from_secs(30));
    let history = sim
        .world()
        .ids()
        .map(|id| sim.node_state(id).unwrap().clone())
        .collect();
    let positions = (0..40u32)
        .map(|i| {
            let p = sim.world().position(NodeId(i));
            (p.x, p.y)
        })
        .collect();
    (sim.stats().clone(), history, positions)
}

#[test]
fn identical_config_and_seed_replays_bit_identically() {
    let (stats_a, hist_a, pos_a) = run(2024);
    let (stats_b, hist_b, pos_b) = run(2024);
    assert_eq!(stats_a, stats_b, "Stats must replay bit-identically");
    assert_eq!(hist_a, hist_b, "protocol event order must replay");
    // Positions compared bit-for-bit, not approximately.
    for (a, b) in pos_a.iter().zip(&pos_b) {
        assert_eq!(a.0.to_bits(), b.0.to_bits());
        assert_eq!(a.1.to_bits(), b.1.to_bits());
    }
}

#[test]
fn different_seed_diverges() {
    let (stats_a, ..) = run(2024);
    let (stats_c, ..) = run(2025);
    assert_ne!(
        stats_a, stats_c,
        "different seeds should not produce identical runs"
    );
}
