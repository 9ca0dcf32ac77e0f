//! Network-wide flooding multicast — the simplest baseline.
//!
//! Every data packet is re-broadcast once by every node that hears it.
//! Delivery is near-perfect on connected topologies and requires zero
//! control state, but the per-packet cost is Θ(N) transmissions — the
//! curve every scalable scheme is measured against (experiments F5/F6/C4).
//!
//! The protocol is node-local state ([`ParFloodNode`]) plus the shared
//! read-only [`Script`]: membership lives per node and is mutated only by
//! that node's own scripted group-event timers, and expected receivers
//! and data ids come from the script. It is also the `perf` scenario's
//! `engine-threads` workload.

use crate::common::{Member, TAG_GROUP_BASE, TAG_TRAFFIC_BASE};
use hvdb_core::{GroupEvent, GroupId, Script, TrafficItem};
use hvdb_sim::{NodeId, ParCtx, ParProtocol, World};
use rustc_hash::FxHashSet;

/// Flooded data frame.
#[derive(Debug, Clone)]
pub struct ParFloodMsg {
    /// Packet id (network-wide dedup).
    pub data_id: u64,
    /// Destination group.
    pub group: GroupId,
    /// Payload bytes.
    pub size: usize,
    /// Transmissions the packet took before this broadcast (hop-count
    /// accounting; rides the 20-byte header allowance).
    pub hops: u32,
}

/// Per-node flooding state, owned by the node's shard.
#[derive(Debug, Default)]
pub struct ParFloodNode {
    /// Scripted membership and delivery dedup.
    pub member: Member,
    /// Data ids already rebroadcast from here.
    pub forwarded: FxHashSet<u64>,
}

/// The flooding protocol: a read-only scenario script shared by every
/// shard.
pub struct ParFlood {
    script: Script,
}

impl ParFlood {
    /// Builds the protocol for a scripted scenario ([`Script::new`]).
    pub fn new(
        initial_groups: &[(NodeId, GroupId)],
        traffic: Vec<TrafficItem>,
        group_events: Vec<GroupEvent>,
    ) -> Self {
        ParFlood {
            script: Script::new(initial_groups, traffic, group_events),
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
            member: Member::new(&self.script, id),
            ..Default::default()
        }
    }

    fn on_start(&self, id: NodeId, _node: &mut ParFloodNode, ctx: &mut ParCtx<'_, ParFloodMsg>) {
        self.script.arm(id, ctx);
    }

    fn on_message(
        &self,
        id: NodeId,
        node: &mut ParFloodNode,
        _from: NodeId,
        msg: ParFloodMsg,
        ctx: &mut ParCtx<'_, ParFloodMsg>,
    ) {
        // The broadcast that reached us is one more transmission.
        let hops = msg.hops + 1;
        node.member.deliver(id, ctx, msg.data_id, msg.group, hops);
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
            node.member
                .apply(&self.script, (tag - TAG_GROUP_BASE) as usize);
        } else if tag >= TAG_TRAFFIC_BASE {
            let idx = (tag - TAG_TRAFFIC_BASE) as usize;
            let (item, data_id) = self.script.originate(idx, ctx);
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
    use hvdb_geo::{Aabb, Point, Vec2};
    use hvdb_sim::{ParSimulator, RadioConfig, SimConfig, SimDuration, SimTime, Stationary};

    type FloodSim = ParSimulator<ParFloodNode, ParFloodMsg>;

    /// An `n_side`² lossless grid, 150 m apart under a 250 m range, on 8
    /// shards at `threads` lanes.
    fn grid_sim(n_side: u32, seed: u64, threads: usize) -> FloodSim {
        let spacing = 150.0;
        let side = n_side as f64 * spacing;
        let cfg = SimConfig {
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
        };
        let mut sim = ParSimulator::new(cfg, Box::new(Stationary), 8, threads);
        for r in 0..n_side {
            for c in 0..n_side {
                let id = NodeId(r * n_side + c);
                let p = Point::new(c as f64 * spacing + 10.0, r as f64 * spacing + 10.0);
                sim.world_mut().set_motion(id, p, Vec2::ZERO);
            }
        }
        sim.world_mut().rebuild_index();
        sim
    }

    fn item(secs: u64, src: u32, group: GroupId, size: usize) -> TrafficItem {
        TrafficItem {
            at: SimTime::from_secs(secs),
            src: NodeId(src),
            group,
            size,
            ..Default::default()
        }
    }

    /// Two packets to a group one node joins between them, on the 5x5
    /// grid.
    fn scripted() -> (Vec<(NodeId, GroupId)>, Vec<TrafficItem>, Vec<GroupEvent>) {
        let g = GroupId(1);
        let members = vec![(NodeId(0), g), (NodeId(24), g), (NodeId(12), g)];
        let traffic = vec![item(1, 6, g, 256), item(3, 18, g, 128)];
        let group_events = vec![GroupEvent {
            at: SimTime::from_secs(2),
            node: NodeId(7),
            group: g,
            join: true,
        }];
        (members, traffic, group_events)
    }

    #[test]
    fn flooding_delivers_to_all_members() {
        let mut sim = grid_sim(5, 1, 1);
        let g = GroupId(1);
        let members = [(NodeId(0), g), (NodeId(24), g), (NodeId(12), g)];
        let p = ParFlood::new(&members, vec![item(1, 6, g, 256)], vec![]);
        sim.run(&p, SimTime::from_secs(10));
        assert_eq!(sim.stats().delivery_ratio(), 1.0);
    }

    #[test]
    fn every_node_transmits_once_per_packet() {
        let mut sim = grid_sim(4, 2, 1);
        let g = GroupId(1);
        let p = ParFlood::new(&[(NodeId(15), g)], vec![item(1, 0, g, 100)], vec![]);
        sim.run(&p, SimTime::from_secs(10));
        // Θ(N) cost: 16 nodes, 16 transmissions (one each).
        assert_eq!(sim.stats().msgs("flood-data"), 16);
        assert_eq!(sim.stats().delivery_ratio(), 1.0);
    }

    #[test]
    fn matches_serial_flooding() {
        // The scripted two packets around a join, on 5x5 at four lanes:
        // one flood-data frame per node per packet, everything delivered,
        // and the 291 events the serial flooding engine processed on this
        // script (the parallel engine matched it until that engine was
        // retired).
        let (members, traffic, group_events) = scripted();
        let packets = traffic.len() as u64;
        let mut sim = grid_sim(5, 1, 4);
        sim.run(
            &ParFlood::new(&members, traffic, group_events),
            SimTime::from_secs(10),
        );
        assert_eq!(sim.stats().delivery_ratio(), 1.0);
        assert_eq!(sim.stats().msgs("flood-data"), 25 * packets);
        assert_eq!(sim.stats().events_processed, 291);
    }

    #[test]
    fn duplicate_packets_not_redelivered() {
        let mut sim = grid_sim(3, 3, 1);
        let g = GroupId(2);
        let p = ParFlood::new(&[(NodeId(8), g)], vec![item(1, 0, g, 64)], vec![]);
        sim.run(&p, SimTime::from_secs(10));
        // Member hears the packet from several neighbours but counts once.
        assert_eq!(sim.stats().delivery_ratio(), 1.0);
        assert_eq!(sim.stats().latencies().len(), 1);
    }

    #[test]
    fn thread_count_is_invisible() {
        let (members, traffic, group_events) = scripted();
        let run = |threads: usize| {
            let mut sim = grid_sim(5, 9, threads);
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
        let traffic = vec![item(1, 0, g, 10), item(5, 0, g, 10)];
        let group_events = vec![GroupEvent {
            at: SimTime::from_secs(3),
            node: NodeId(2),
            group: g,
            join: true,
        }];
        let p = ParFlood::new(&members, traffic, group_events);
        // Before the join: node 1 only. After: nodes 1 and 2.
        assert_eq!([p.script.expected(0), p.script.expected(1)], [1, 2]);
    }
}
