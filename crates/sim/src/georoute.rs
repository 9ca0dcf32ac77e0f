//! Location-based unicast forwarding primitives.
//!
//! The paper leaves physical routing between cluster heads to "some
//! location-based unicast routing algorithm" (§4.3), citing GPSR \[11\] as
//! the canonical example. This module supplies the two decisions such a
//! scheme makes at every relay:
//!
//! * [`greedy_next_hop`] — the neighbour strictly closest to the
//!   destination (greedy mode);
//! * [`recovery_next_hop`] — when greedy forwarding hits a local minimum
//!   (no neighbour makes progress), pick the best neighbour not yet
//!   visited. On the dense unit-disk graphs of the evaluated scenarios this
//!   bounded-memory recovery reaches the destination in the overwhelming
//!   majority of cases, matching GPSR's behaviour without implementing full
//!   planar-face traversal; packets carry a small visited list and a TTL.
//!
//! Both helpers are deterministic (ties break toward lower node id).

use crate::node::NodeId;
use crate::par::ParCtx;
use hvdb_geo::Point;

/// The neighbour of `from` strictly closer to `dest` than `from` itself,
/// breaking ties toward lower node id. `None` at a local minimum.
pub fn greedy_next_hop<M: Clone>(
    ctx: &mut ParCtx<'_, M>,
    from: NodeId,
    dest: Point,
) -> Option<NodeId> {
    greedy_next_hop_avoiding(ctx, from, dest, &[])
}

/// Greedy next hop that additionally skips `visited` relays — prevents
/// two-node ping-pong when a packet oscillates around a local minimum.
pub fn greedy_next_hop_avoiding<M: Clone>(
    ctx: &mut ParCtx<'_, M>,
    from: NodeId,
    dest: Point,
    visited: &[NodeId],
) -> Option<NodeId> {
    let my_d = ctx.position(from).distance_sq(dest);
    ctx.with_neighbors(from, |ctx, neighbors| {
        neighbors
            .iter()
            .copied()
            .filter(|n| !visited.contains(n))
            .map(|n| (n, ctx.position(n).distance_sq(dest)))
            .filter(|(_, d)| *d < my_d)
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then_with(|| a.0.cmp(&b.0)))
            .map(|(n, _)| n)
    })
}

/// Recovery mode: the neighbour closest to `dest` that is not in `visited`
/// (progress not required). `None` if every neighbour was already visited.
pub fn recovery_next_hop<M: Clone>(
    ctx: &mut ParCtx<'_, M>,
    from: NodeId,
    dest: Point,
    visited: &[NodeId],
) -> Option<NodeId> {
    ctx.with_neighbors(from, |ctx, neighbors| {
        neighbors
            .iter()
            .copied()
            .filter(|n| !visited.contains(n))
            .map(|n| (n, ctx.position(n).distance_sq(dest)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then_with(|| a.0.cmp(&b.0)))
            .map(|(n, _)| n)
    })
}

/// One forwarding decision: greedy if possible, else recovery. Returns the
/// chosen next hop, or `None` if the packet is stuck.
pub fn next_hop<M: Clone>(
    ctx: &mut ParCtx<'_, M>,
    from: NodeId,
    dest: Point,
    visited: &[NodeId],
) -> Option<NodeId> {
    greedy_next_hop_avoiding(ctx, from, dest, visited)
        .or_else(|| recovery_next_hop(ctx, from, dest, visited))
}

/// Maximum visited-list length carried in packets; beyond this, recovery
/// falls back to pure greedy (old entries are forgotten). Matches the small
/// fixed headers location-based schemes use.
pub const VISITED_CAP: usize = 8;

/// Appends `hop` to a bounded visited list (FIFO eviction at
/// [`VISITED_CAP`]).
pub fn push_visited(visited: &mut Vec<NodeId>, hop: NodeId) {
    if visited.len() >= VISITED_CAP {
        visited.remove(0);
    }
    visited.push(hop);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimConfig;
    use crate::mobility::Stationary;
    use crate::par::{ParProtocol, ParSimulator};
    use crate::time::{SimDuration, SimTime};
    use crate::world::World;
    use hvdb_geo::Vec2;

    /// Harness protocol: runs `f` once at t=0 from node 0's context.
    struct Probe {
        f: fn(&mut ParCtx<'_, u8>),
    }

    impl ParProtocol for Probe {
        type Msg = u8;
        type Node = ();
        fn make_node(&self, _: NodeId, _: &World) {}
        fn on_start(&self, id: NodeId, _: &mut (), ctx: &mut ParCtx<'_, u8>) {
            if id == NodeId(0) {
                (self.f)(ctx);
            }
        }
        fn on_message(&self, _: NodeId, _: &mut (), _: NodeId, _: u8, _: &mut ParCtx<'_, u8>) {}
        fn on_timer(&self, _: NodeId, _: &mut (), _: u64, _: &mut ParCtx<'_, u8>) {}
    }

    fn with_line_world(f: fn(&mut ParCtx<'_, u8>)) {
        let cfg = SimConfig {
            num_nodes: 5,
            mobility_tick: SimDuration::ZERO,
            ..Default::default()
        };
        let mut sim: ParSimulator<(), u8> = ParSimulator::new(cfg, Box::new(Stationary), 2, 1);
        // Line: 0 at x=0 .. 4 at x=800, spacing 200 (range 250).
        for i in 0..5u32 {
            let p = Point::new(i as f64 * 200.0, 500.0);
            sim.world_mut().set_motion(NodeId(i), p, Vec2::ZERO);
        }
        sim.world_mut().rebuild_index();
        sim.run(&Probe { f }, SimTime::from_secs(1));
    }

    #[test]
    fn greedy_picks_closest_forward_neighbor() {
        with_line_world(|ctx| {
            let dest = Point::new(800.0, 500.0);
            let hop = greedy_next_hop(ctx, NodeId(0), dest);
            assert_eq!(hop, Some(NodeId(1)));
        });
    }

    #[test]
    fn greedy_none_at_destination_vicinity_without_progress() {
        with_line_world(|ctx| {
            // Destination right on top of node 0: nobody is closer.
            let dest = Point::new(0.0, 500.0);
            assert_eq!(greedy_next_hop(ctx, NodeId(0), dest), None);
        });
    }

    #[test]
    fn recovery_ignores_visited() {
        with_line_world(|ctx| {
            let dest = Point::new(0.0, 500.0); // at node 0 itself
                                               // From node 1: greedy would pick node 0 (closest); recovery
                                               // skipping 0 must pick node 2.
            let r = recovery_next_hop(ctx, NodeId(1), dest, &[NodeId(0)]);
            assert_eq!(r, Some(NodeId(2)));
            let all = recovery_next_hop(ctx, NodeId(1), dest, &[NodeId(0), NodeId(2)]);
            assert_eq!(all, None);
        });
    }

    #[test]
    fn next_hop_falls_back_to_recovery() {
        with_line_world(|ctx| {
            let dest = Point::new(0.0, 500.0);
            // Node 0 has no progress (dest on itself); recovery picks
            // neighbour 1 unless visited.
            assert_eq!(next_hop(ctx, NodeId(0), dest, &[]), Some(NodeId(1)));
            assert_eq!(next_hop(ctx, NodeId(0), dest, &[NodeId(1)]), None);
        });
    }

    #[test]
    fn visited_list_is_bounded_fifo() {
        let mut v = Vec::new();
        for i in 0..20u32 {
            push_visited(&mut v, NodeId(i));
        }
        assert_eq!(v.len(), VISITED_CAP);
        assert_eq!(v[0], NodeId(20 - VISITED_CAP as u32));
        assert_eq!(*v.last().unwrap(), NodeId(19));
    }
}
