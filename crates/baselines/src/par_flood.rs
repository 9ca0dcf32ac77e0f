//! Flooding multicast on the sharded parallel engine.
//!
//! The serial [`crate::FloodingProtocol`] owns whole-network state behind
//! `&mut self`, which the parallel engine's shard isolation forbids. This
//! port splits the same algorithm into node-local state
//! ([`ParFloodNode`]) plus a shared read-only script ([`ParFlood`]):
//!
//! * Membership lives per node and is mutated only by that node's own
//!   scripted group-event timers.
//! * Expected-receiver counts (the serial `ScenarioState::originate`
//!   truth lookup) are **precomputed** from the script: for traffic item
//!   `i`, the members of its group after applying every group event with
//!   `at <= item.at` (in list order), minus the source. This requires no
//!   shared mutable truth map at run time.
//! * Data ids are `item index + 1` — a deterministic scheme that does not
//!   depend on timer firing order (the serial protocol numbers packets in
//!   firing order; the two schemes label the same packets differently but
//!   produce identical traffic, transmissions and delivery ratios).
//!
//! This is both the parallel engine's workhorse benchmark protocol (the
//! `perf` scenario's `engine-threads` arm) and a worked example of porting
//! a `Protocol` to [`ParProtocol`].

use crate::common::{TAG_GROUP_BASE, TAG_TRAFFIC_BASE};
use hvdb_core::{GroupEvent, GroupId, TrafficItem};
use hvdb_sim::{NodeId, ParCtx, ParProtocol, SimTime, World};
use rustc_hash::{FxHashMap, FxHashSet};

/// Flooded data frame (parallel engine).
#[derive(Debug, Clone)]
pub struct ParFloodMsg {
    /// Packet id (network-wide dedup).
    pub data_id: u64,
    /// Destination group.
    pub group: GroupId,
    /// Payload bytes.
    pub size: usize,
    /// Transmissions the packet took before this broadcast.
    pub hops: u32,
}

/// Per-node flooding state, owned by the node's shard.
#[derive(Debug, Default)]
pub struct ParFloodNode {
    /// Groups this node currently belongs to.
    pub member_of: FxHashSet<GroupId>,
    /// Data ids already counted as delivered here.
    pub delivered: FxHashSet<u64>,
    /// Data ids already rebroadcast from here.
    pub forwarded: FxHashSet<u64>,
}

/// The flooding protocol for [`hvdb_sim::ParSimulator`]: a read-only
/// scenario script shared by every shard.
pub struct ParFlood {
    traffic: Vec<TrafficItem>,
    group_events: Vec<GroupEvent>,
    /// Expected receiver count per traffic item, precomputed from the
    /// script (see module docs).
    expected: Vec<u64>,
    /// Initial membership, group -> members.
    initial: FxHashMap<GroupId, FxHashSet<NodeId>>,
}

impl ParFlood {
    /// Builds the protocol for a scripted scenario. Group events whose
    /// `at` is at or before a traffic item's `at` count toward that
    /// item's expected receivers (ties resolve in favour of the event;
    /// scenario generators keep the two streams on distinct instants).
    pub fn new(
        initial_groups: &[(NodeId, GroupId)],
        traffic: Vec<TrafficItem>,
        group_events: Vec<GroupEvent>,
    ) -> Self {
        let mut initial: FxHashMap<GroupId, FxHashSet<NodeId>> = FxHashMap::default();
        for (node, group) in initial_groups {
            initial.entry(*group).or_default().insert(*node);
        }
        let expected = traffic
            .iter()
            .map(|item| {
                let mut members = initial.get(&item.group).cloned().unwrap_or_default();
                for ev in &group_events {
                    if ev.group == item.group && ev.at <= item.at {
                        if ev.join {
                            members.insert(ev.node);
                        } else {
                            members.remove(&ev.node);
                        }
                    }
                }
                members.iter().filter(|n| **n != item.src).count() as u64
            })
            .collect();
        ParFlood {
            traffic,
            group_events,
            expected,
            initial,
        }
    }

    fn flood(
        &self,
        id: NodeId,
        node: &mut ParFloodNode,
        ctx: &mut ParCtx<'_, ParFloodMsg>,
        msg: ParFloodMsg,
    ) {
        if !node.forwarded.insert(msg.data_id) {
            return;
        }
        let bytes = 20 + msg.size;
        ctx.broadcast(id, "flood-data", bytes, msg);
    }
}

impl ParProtocol for ParFlood {
    type Msg = ParFloodMsg;
    type Node = ParFloodNode;

    fn make_node(&self, id: NodeId, _world: &World) -> ParFloodNode {
        ParFloodNode {
            member_of: self
                .initial
                .iter()
                .filter(|(_, m)| m.contains(&id))
                .map(|(g, _)| *g)
                .collect(),
            ..Default::default()
        }
    }

    fn on_start(&self, id: NodeId, _node: &mut ParFloodNode, ctx: &mut ParCtx<'_, ParFloodMsg>) {
        for (i, t) in self.traffic.iter().enumerate() {
            if t.src == id {
                ctx.set_timer(id, t.at.since(SimTime::ZERO), TAG_TRAFFIC_BASE + i as u64);
            }
        }
        for (i, g) in self.group_events.iter().enumerate() {
            if g.node == id {
                ctx.set_timer(id, g.at.since(SimTime::ZERO), TAG_GROUP_BASE + i as u64);
            }
        }
    }

    fn on_message(
        &self,
        id: NodeId,
        node: &mut ParFloodNode,
        _from: NodeId,
        msg: ParFloodMsg,
        ctx: &mut ParCtx<'_, ParFloodMsg>,
    ) {
        let hops = msg.hops + 1;
        if node.member_of.contains(&msg.group) && node.delivered.insert(msg.data_id) {
            ctx.record_delivery_hops(msg.data_id, id, hops);
        }
        self.flood(id, node, ctx, ParFloodMsg { hops, ..msg });
    }

    fn on_timer(
        &self,
        id: NodeId,
        node: &mut ParFloodNode,
        tag: u64,
        ctx: &mut ParCtx<'_, ParFloodMsg>,
    ) {
        if tag >= TAG_GROUP_BASE {
            let ev = self.group_events[(tag - TAG_GROUP_BASE) as usize];
            debug_assert_eq!(ev.node, id, "group-event timer fired at the wrong node");
            if ev.join {
                node.member_of.insert(ev.group);
            } else {
                node.member_of.remove(&ev.group);
            }
        } else if tag >= TAG_TRAFFIC_BASE {
            let idx = (tag - TAG_TRAFFIC_BASE) as usize;
            let item = self.traffic[idx];
            let data_id = idx as u64 + 1;
            ctx.record_origin_flow(data_id, self.expected[idx], item.flow, item.seq);
            self.flood(
                id,
                node,
                ctx,
                ParFloodMsg {
                    data_id,
                    group: item.group,
                    size: item.size,
                    hops: 0,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FloodingProtocol;
    use hvdb_geo::{Aabb, Point, Vec2};
    use hvdb_sim::{ParSimulator, RadioConfig, SimConfig, SimDuration, Simulator, Stationary};

    fn grid_cfg(n_side: u32, seed: u64) -> SimConfig {
        let spacing = 150.0;
        let side = n_side as f64 * spacing;
        SimConfig {
            area: Aabb::from_size(side, side),
            num_nodes: (n_side * n_side) as usize,
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

    fn place_grid(set: &mut dyn FnMut(NodeId, Point), n_side: u32) {
        let spacing = 150.0;
        for r in 0..n_side {
            for c in 0..n_side {
                let id = NodeId(r * n_side + c);
                set(
                    id,
                    Point::new(c as f64 * spacing + 10.0, r as f64 * spacing + 10.0),
                );
            }
        }
    }

    fn scripted() -> (Vec<(NodeId, GroupId)>, Vec<TrafficItem>, Vec<GroupEvent>) {
        let g = GroupId(1);
        let members = vec![(NodeId(0), g), (NodeId(24), g), (NodeId(12), g)];
        let traffic = vec![
            TrafficItem {
                at: SimTime::from_secs(1),
                src: NodeId(6),
                group: g,
                size: 256,
                ..Default::default()
            },
            TrafficItem {
                at: SimTime::from_secs(3),
                src: NodeId(18),
                group: g,
                size: 128,
                ..Default::default()
            },
        ];
        let group_events = vec![GroupEvent {
            at: SimTime::from_secs(2),
            node: NodeId(7),
            group: g,
            join: true,
        }];
        (members, traffic, group_events)
    }

    #[test]
    fn matches_serial_flooding() {
        let (members, traffic, group_events) = scripted();

        let mut serial = Simulator::new(grid_cfg(5, 1), Box::new(Stationary));
        place_grid(
            &mut |id, p| serial.world_mut().set_motion(id, p, Vec2::ZERO),
            5,
        );
        serial.world_mut().rebuild_index();
        let mut sp = FloodingProtocol::new(&members, traffic.clone(), group_events.clone());
        serial.run(&mut sp, SimTime::from_secs(10));

        let mut par: ParSimulator<ParFloodNode, ParFloodMsg> =
            ParSimulator::new(grid_cfg(5, 1), Box::new(Stationary), 8, 4);
        place_grid(
            &mut |id, p| par.world_mut().set_motion(id, p, Vec2::ZERO),
            5,
        );
        par.world_mut().rebuild_index();
        let pp = ParFlood::new(&members, traffic, group_events);
        par.run(&pp, SimTime::from_secs(10));

        assert_eq!(serial.stats().delivery_ratio(), 1.0);
        assert_eq!(par.stats().delivery_ratio(), 1.0);
        assert_eq!(
            serial.stats().msgs("flood-data"),
            par.stats().msgs("flood-data"),
            "serial and parallel flooding transmitted different frame counts"
        );
        assert_eq!(
            serial.stats().events_processed,
            par.stats().events_processed
        );
    }

    #[test]
    fn thread_count_is_invisible() {
        let (members, traffic, group_events) = scripted();
        let run = |threads: usize| {
            let mut sim: ParSimulator<ParFloodNode, ParFloodMsg> =
                ParSimulator::new(grid_cfg(5, 9), Box::new(Stationary), 8, threads);
            place_grid(
                &mut |id, p| sim.world_mut().set_motion(id, p, Vec2::ZERO),
                5,
            );
            sim.world_mut().rebuild_index();
            let p = ParFlood::new(&members, traffic.clone(), group_events.clone());
            sim.run(&p, SimTime::from_secs(10));
            format!("{:?}", sim.stats())
        };
        assert_eq!(run(1), run(4), "threads=4 diverged from threads=1");
    }

    #[test]
    fn expected_counts_follow_group_events() {
        let g = GroupId(3);
        let members = vec![(NodeId(0), g), (NodeId(1), g)];
        let traffic = vec![
            TrafficItem {
                at: SimTime::from_secs(1),
                src: NodeId(0),
                group: g,
                size: 10,
                ..Default::default()
            },
            TrafficItem {
                at: SimTime::from_secs(5),
                src: NodeId(0),
                group: g,
                size: 10,
                ..Default::default()
            },
        ];
        let group_events = vec![GroupEvent {
            at: SimTime::from_secs(3),
            node: NodeId(2),
            group: g,
            join: true,
        }];
        let p = ParFlood::new(&members, traffic, group_events);
        // Before the join: node 1 only. After: nodes 1 and 2.
        assert_eq!(p.expected, vec![1, 2]);
    }
}
