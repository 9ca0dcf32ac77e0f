//! Network-wide flooding multicast — the simplest baseline.
//!
//! Every data packet is re-broadcast once by every node that hears it.
//! Delivery is near-perfect on connected topologies and requires zero
//! control state, but the per-packet cost is Θ(N) transmissions — the
//! curve every scalable scheme is measured against (experiments F5/F6/C4).

use crate::common::{ScenarioState, TAG_GROUP_BASE, TAG_TRAFFIC_BASE};
use hvdb_core::{GroupEvent, GroupId, TrafficItem};
use hvdb_sim::{Ctx, NodeId, Protocol};
use rustc_hash::FxHashSet;

/// Flooded data frame.
#[derive(Debug, Clone)]
pub struct FloodMsg {
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

/// The flooding protocol.
pub struct FloodingProtocol {
    scenario: ScenarioState,
    /// Per-node rebroadcast dedup.
    forwarded: Vec<FxHashSet<u64>>,
}

impl FloodingProtocol {
    /// Creates the protocol for a scripted scenario.
    pub fn new(
        initial_groups: &[(NodeId, GroupId)],
        traffic: Vec<TrafficItem>,
        group_events: Vec<GroupEvent>,
    ) -> Self {
        FloodingProtocol {
            scenario: ScenarioState::new(initial_groups, traffic, group_events),
            forwarded: Vec::new(),
        }
    }

    /// Access to scenario ground truth (experiments).
    pub fn scenario(&self) -> &ScenarioState {
        &self.scenario
    }

    fn flood(&mut self, node: NodeId, ctx: &mut Ctx<'_, FloodMsg>, msg: FloodMsg) {
        if !self.forwarded[node.idx()].insert(msg.data_id) {
            return;
        }
        let bytes = 20 + msg.size;
        ctx.broadcast(node, "flood-data", bytes, msg);
    }
}

impl Protocol for FloodingProtocol {
    type Msg = FloodMsg;

    fn on_start(&mut self, node: NodeId, ctx: &mut Ctx<'_, FloodMsg>) {
        self.scenario.on_start(node, ctx);
        if self.forwarded.len() < ctx.node_count() {
            self.forwarded = vec![FxHashSet::default(); ctx.node_count()];
        }
    }

    fn on_message(
        &mut self,
        node: NodeId,
        _from: NodeId,
        msg: FloodMsg,
        ctx: &mut Ctx<'_, FloodMsg>,
    ) {
        // The broadcast that reached us is one more transmission.
        let hops = msg.hops + 1;
        self.scenario
            .deliver_hops(node, ctx, msg.data_id, msg.group, hops);
        self.flood(node, ctx, FloodMsg { hops, ..msg });
    }

    fn on_timer(&mut self, node: NodeId, tag: u64, ctx: &mut Ctx<'_, FloodMsg>) {
        if tag >= TAG_GROUP_BASE {
            self.scenario
                .apply_group_event((tag - TAG_GROUP_BASE) as usize);
        } else if tag >= TAG_TRAFFIC_BASE {
            let (data_id, group, size) =
                self.scenario
                    .originate(node, ctx, (tag - TAG_TRAFFIC_BASE) as usize);
            self.flood(
                node,
                ctx,
                FloodMsg {
                    data_id,
                    group,
                    size,
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
    use hvdb_sim::{RadioConfig, SimConfig, SimDuration, SimTime, Simulator, Stationary};

    fn grid_sim(n_side: u32, seed: u64) -> Simulator<FloodMsg> {
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
        let mut sim = Simulator::new(cfg, Box::new(Stationary));
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

    #[test]
    fn flooding_delivers_to_all_members() {
        let mut sim = grid_sim(5, 1);
        let g = GroupId(1);
        let members = [(NodeId(0), g), (NodeId(24), g), (NodeId(12), g)];
        let traffic = vec![TrafficItem {
            at: SimTime::from_secs(1),
            src: NodeId(6),
            group: g,
            size: 256,
            ..Default::default()
        }];
        let mut p = FloodingProtocol::new(&members, traffic, vec![]);
        sim.run(&mut p, SimTime::from_secs(10));
        assert_eq!(sim.stats().delivery_ratio(), 1.0);
    }

    #[test]
    fn every_node_transmits_once_per_packet() {
        let mut sim = grid_sim(4, 2);
        let g = GroupId(1);
        let traffic = vec![TrafficItem {
            at: SimTime::from_secs(1),
            src: NodeId(0),
            group: g,
            size: 100,
            ..Default::default()
        }];
        let mut p = FloodingProtocol::new(&[(NodeId(15), g)], traffic, vec![]);
        sim.run(&mut p, SimTime::from_secs(10));
        // Θ(N) cost: 16 nodes, 16 transmissions (one each).
        assert_eq!(sim.stats().msgs("flood-data"), 16);
    }

    #[test]
    fn duplicate_packets_not_redelivered() {
        let mut sim = grid_sim(3, 3);
        let g = GroupId(2);
        let traffic = vec![TrafficItem {
            at: SimTime::from_secs(1),
            src: NodeId(0),
            group: g,
            size: 64,
            ..Default::default()
        }];
        let mut p = FloodingProtocol::new(&[(NodeId(8), g)], traffic, vec![]);
        sim.run(&mut p, SimTime::from_secs(10));
        // Member hears the packet from several neighbours but counts once.
        assert_eq!(sim.stats().delivery_ratio(), 1.0);
        assert_eq!(sim.stats().latencies().len(), 1);
    }
}
