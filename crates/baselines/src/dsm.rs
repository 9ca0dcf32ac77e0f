//! DSM-style multicast (Basagni et al. \[1\]) — global-snapshot source trees.
//!
//! In the Dynamic Source Multicast protocol "the location and transmission
//! radius information has to be periodically broadcast from each node to
//! all the other nodes in the network" (paper §2.2) — that network-wide
//! per-node flood is DSM's scalability ceiling and is modelled here
//! exactly. Sources then compute delivery locally from their snapshot and
//! source-route copies to the member locations (we geo-unicast per member;
//! DSM's optimal tree encoding shares path prefixes, so our data cost is an
//! upper bound — the *membership/location overhead*, which is what the
//! comparative experiments measure, is faithful).

use crate::common::{Member, TAG_GROUP_BASE, TAG_TRAFFIC_BASE};
use hvdb_core::{GroupEvent, GroupId, Script, TrafficItem};
use hvdb_geo::Point;
use hvdb_sim::georoute;
use hvdb_sim::{NodeId, ParCtx, ParProtocol, SimDuration, World};
use rustc_hash::{FxHashMap, FxHashSet};

const TAG_LOCATION: u64 = 1;

/// DSM messages.
#[derive(Debug, Clone)]
pub enum DsmMsg {
    /// A node's periodic network-wide location/membership flood.
    Location {
        /// The advertising node.
        node: NodeId,
        /// Its position at advertisement time.
        pos: Point,
        /// Its group memberships.
        groups: Vec<GroupId>,
        /// Advertisement sequence (flood dedup and freshness).
        seq: u64,
    },
    /// A data copy geo-routed to one member's last known location.
    Data {
        /// Packet id.
        data_id: u64,
        /// Destination group.
        group: GroupId,
        /// Payload bytes.
        size: usize,
        /// The member this copy is for.
        dest: NodeId,
        /// The member's snapshot position.
        dest_pos: Point,
        /// Relays visited.
        visited: Vec<NodeId>,
        /// Remaining hops.
        ttl: u32,
    },
}

impl DsmMsg {
    fn wire_size(&self) -> usize {
        match self {
            DsmMsg::Location { groups, .. } => 32 + groups.len() * 4,
            DsmMsg::Data { size, .. } => 36 + size,
        }
    }
}

/// One node's replicated view of another: (seq, position, groups).
type NodeView = (u64, Point, Vec<GroupId>);

/// One node's DSM state, owned by its shard.
#[derive(Debug, Default)]
pub struct DsmNode {
    member: Member,
    /// Snapshot: node -> latest view.
    snapshot: FxHashMap<NodeId, NodeView>,
    /// Flood dedup: (origin, seq).
    seen: FxHashSet<(NodeId, u64)>,
    /// This node's own advertisement sequence.
    seq: u64,
}

/// The DSM-style protocol: the scenario script shared read-only by every
/// shard.
pub struct DsmProtocol {
    script: Script,
    location_interval: SimDuration,
    geo_ttl: u32,
}

impl DsmProtocol {
    /// Creates the protocol for a scripted scenario.
    pub fn new(
        initial_groups: &[(NodeId, GroupId)],
        traffic: Vec<TrafficItem>,
        group_events: Vec<GroupEvent>,
    ) -> Self {
        DsmProtocol {
            script: Script::new(initial_groups, traffic, group_events),
            location_interval: SimDuration::from_secs(10),
            geo_ttl: 64,
        }
    }

    fn flood(st: &mut DsmNode, node: NodeId, ctx: &mut ParCtx<'_, DsmMsg>, msg: DsmMsg) {
        let (origin, seq) = match &msg {
            DsmMsg::Location { node, seq, .. } => (*node, *seq),
            _ => unreachable!("only location floods"),
        };
        if !st.seen.insert((origin, seq)) {
            return;
        }
        let bytes = msg.wire_size();
        ctx.broadcast(node, "dsm-location", bytes, msg);
    }

    /// The first hop toward `dest`: `dest` itself when it is a radio
    /// neighbour, else the geo next hop toward its snapshot position.
    fn first_hop(
        ctx: &mut ParCtx<'_, DsmMsg>,
        node: NodeId,
        dest: NodeId,
        dest_pos: Point,
        visited: &[NodeId],
    ) -> Option<NodeId> {
        if ctx.with_neighbors(node, |_, ns| ns.contains(&dest)) {
            Some(dest)
        } else {
            georoute::next_hop(ctx, node, dest_pos, visited)
        }
    }
}

impl ParProtocol for DsmProtocol {
    type Msg = DsmMsg;
    type Node = DsmNode;

    fn make_node(&self, id: NodeId, _world: &World) -> DsmNode {
        DsmNode {
            member: Member::new(&self.script, id),
            ..Default::default()
        }
    }

    fn on_start(&self, node: NodeId, _st: &mut DsmNode, ctx: &mut ParCtx<'_, DsmMsg>) {
        self.script.arm(node, ctx);
        let j = SimDuration(ctx.rng().range_u64(0, self.location_interval.0.max(1)));
        ctx.set_timer(node, j, TAG_LOCATION);
    }

    fn on_message(
        &self,
        node: NodeId,
        st: &mut DsmNode,
        _from: NodeId,
        msg: DsmMsg,
        ctx: &mut ParCtx<'_, DsmMsg>,
    ) {
        match msg {
            DsmMsg::Location {
                node: origin,
                pos,
                ref groups,
                seq,
            } => {
                let fresh = st
                    .snapshot
                    .get(&origin)
                    .map(|(old_seq, _, _)| seq > *old_seq)
                    .unwrap_or(true);
                if fresh {
                    st.snapshot.insert(origin, (seq, pos, groups.clone()));
                }
                Self::flood(st, node, ctx, msg);
            }
            DsmMsg::Data {
                data_id,
                group,
                size,
                dest,
                dest_pos,
                mut visited,
                ttl,
            } => {
                if dest == node {
                    st.member.deliver(node, ctx, data_id, group, 0);
                    return;
                }
                if ttl == 0 {
                    return;
                }
                georoute::push_visited(&mut visited, node);
                if let Some(nh) = Self::first_hop(ctx, node, dest, dest_pos, &visited) {
                    let msg = DsmMsg::Data {
                        data_id,
                        group,
                        size,
                        dest,
                        dest_pos,
                        visited,
                        ttl: ttl - 1,
                    };
                    let bytes = msg.wire_size();
                    ctx.send_reliable(node, nh, "dsm-data", bytes, msg);
                }
            }
        }
    }

    fn on_timer(&self, node: NodeId, st: &mut DsmNode, tag: u64, ctx: &mut ParCtx<'_, DsmMsg>) {
        if tag >= TAG_GROUP_BASE {
            st.member
                .apply(&self.script, (tag - TAG_GROUP_BASE) as usize);
        } else if tag >= TAG_TRAFFIC_BASE {
            let (item, data_id) = self
                .script
                .originate((tag - TAG_TRAFFIC_BASE) as usize, ctx);
            let (group, size) = (item.group, item.size);
            // Compute members from the local global snapshot (DSM's local
            // tree computation) and send one geo copy per member.
            let mut targets: Vec<(NodeId, Point)> = st
                .snapshot
                .iter()
                .filter(|(id, (_, _, groups))| **id != node && groups.contains(&group))
                .map(|(id, (_, pos, _))| (*id, *pos))
                .collect();
            targets.sort_by_key(|(id, _)| *id);
            for (dest, dest_pos) in targets {
                if let Some(nh) = Self::first_hop(ctx, node, dest, dest_pos, &[node]) {
                    let msg = DsmMsg::Data {
                        data_id,
                        group,
                        size,
                        dest,
                        dest_pos,
                        visited: vec![node],
                        ttl: self.geo_ttl,
                    };
                    let bytes = msg.wire_size();
                    ctx.send_reliable(node, nh, "dsm-data", bytes, msg);
                }
            }
        } else if tag == TAG_LOCATION {
            ctx.set_timer(node, self.location_interval, TAG_LOCATION);
            st.seq += 1;
            let msg = DsmMsg::Location {
                node,
                pos: ctx.position(node),
                groups: st.member.groups(),
                seq: st.seq,
            };
            Self::flood(st, node, ctx, msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvdb_geo::{Aabb, Vec2};
    use hvdb_sim::{ParSimulator, RadioConfig, SimConfig, SimTime, Stationary};

    fn grid_sim(n_side: u32, seed: u64) -> ParSimulator<DsmNode, DsmMsg> {
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
        let mut sim = ParSimulator::new(cfg, Box::new(Stationary), 8, 1);
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
    fn location_floods_build_global_snapshot() {
        let mut sim = grid_sim(4, 1);
        let g = GroupId(1);
        let p = DsmProtocol::new(&[(NodeId(5), g)], vec![], vec![]);
        sim.run(&p, SimTime::from_secs(25));
        // Every node's snapshot should cover every other node.
        for (n, st) in sim.nodes() {
            assert!(
                st.snapshot.len() >= 15,
                "node {n} snapshot has only {} entries",
                st.snapshot.len()
            );
        }
        // Flood cost: each advert is retransmitted by every node once:
        // N adverts * N transmissions per period >= N^2.
        assert!(sim.stats().msgs("dsm-location") >= 16 * 16);
    }

    #[test]
    fn data_reaches_members_from_snapshot() {
        let mut sim = grid_sim(4, 2);
        let g = GroupId(1);
        let members = [(NodeId(15), g), (NodeId(3), g)];
        let traffic = vec![TrafficItem {
            at: SimTime::from_secs(25), // after snapshots converge
            src: NodeId(0),
            group: g,
            size: 300,
            ..Default::default()
        }];
        let p = DsmProtocol::new(&members, traffic, vec![]);
        sim.run(&p, SimTime::from_secs(40));
        assert!(
            sim.stats().delivery_ratio() >= 0.99,
            "ratio {}",
            sim.stats().delivery_ratio()
        );
    }

    #[test]
    fn membership_changes_propagate_with_next_flood() {
        let mut sim = grid_sim(3, 3);
        let g = GroupId(2);
        let events = vec![GroupEvent {
            at: SimTime::from_secs(15),
            node: NodeId(8),
            group: g,
            join: true,
        }];
        let traffic = vec![TrafficItem {
            at: SimTime::from_secs(40), // after the join's next advert
            src: NodeId(0),
            group: g,
            size: 100,
            ..Default::default()
        }];
        let p = DsmProtocol::new(&[], traffic, events);
        sim.run(&p, SimTime::from_secs(55));
        assert_eq!(sim.stats().delivery_ratio(), 1.0);
    }
}
