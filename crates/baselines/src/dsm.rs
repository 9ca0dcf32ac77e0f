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

use crate::common::{ScenarioState, TAG_GROUP_BASE, TAG_TRAFFIC_BASE};
use hvdb_core::{GroupEvent, GroupId, TrafficItem};
use hvdb_geo::Point;
use hvdb_sim::georoute;
use hvdb_sim::{Ctx, NodeId, Protocol, SimDuration};
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

/// The DSM-style protocol.
pub struct DsmProtocol {
    scenario: ScenarioState,
    /// Per-node snapshot: node -> latest view.
    snapshot: Vec<FxHashMap<NodeId, NodeView>>,
    /// Per-node flood dedup: (origin, seq).
    seen: Vec<FxHashSet<(NodeId, u64)>>,
    location_interval: SimDuration,
    seq: Vec<u64>,
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
            scenario: ScenarioState::new(initial_groups, traffic, group_events),
            snapshot: Vec::new(),
            seen: Vec::new(),
            location_interval: SimDuration::from_secs(10),
            seq: Vec::new(),
            geo_ttl: 64,
        }
    }

    fn flood(&mut self, node: NodeId, ctx: &mut Ctx<'_, DsmMsg>, msg: DsmMsg) {
        let (origin, seq) = match &msg {
            DsmMsg::Location { node, seq, .. } => (*node, *seq),
            _ => unreachable!("only location floods"),
        };
        if !self.seen[node.idx()].insert((origin, seq)) {
            return;
        }
        let bytes = msg.wire_size();
        ctx.broadcast(node, "dsm-location", bytes, msg);
    }
}

impl Protocol for DsmProtocol {
    type Msg = DsmMsg;

    fn on_start(&mut self, node: NodeId, ctx: &mut Ctx<'_, DsmMsg>) {
        self.scenario.on_start(node, ctx);
        if self.snapshot.len() < ctx.node_count() {
            self.snapshot = vec![FxHashMap::default(); ctx.node_count()];
            self.seen = vec![FxHashSet::default(); ctx.node_count()];
            self.seq = vec![0; ctx.node_count()];
        }
        let j = SimDuration(ctx.rng().range_u64(0, self.location_interval.0.max(1)));
        ctx.set_timer(node, j, TAG_LOCATION);
    }

    fn on_message(&mut self, node: NodeId, _from: NodeId, msg: DsmMsg, ctx: &mut Ctx<'_, DsmMsg>) {
        match msg {
            DsmMsg::Location {
                node: origin,
                pos,
                ref groups,
                seq,
            } => {
                let snap = &mut self.snapshot[node.idx()];
                let fresh = snap
                    .get(&origin)
                    .map(|(old_seq, _, _)| seq > *old_seq)
                    .unwrap_or(true);
                if fresh {
                    snap.insert(origin, (seq, pos, groups.clone()));
                }
                self.flood(node, ctx, msg);
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
                    self.scenario.deliver(node, ctx, data_id, group);
                    return;
                }
                if ttl == 0 {
                    return;
                }
                georoute::push_visited(&mut visited, node);
                // Direct hand-off if the member is a neighbour.
                let hop = if ctx.with_neighbors(node, |_, ns| ns.contains(&dest)) {
                    Some(dest)
                } else {
                    georoute::next_hop(ctx, node, dest_pos, &visited)
                };
                if let Some(nh) = hop {
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

    fn on_timer(&mut self, node: NodeId, tag: u64, ctx: &mut Ctx<'_, DsmMsg>) {
        if tag >= TAG_GROUP_BASE {
            self.scenario
                .apply_group_event((tag - TAG_GROUP_BASE) as usize);
        } else if tag >= TAG_TRAFFIC_BASE {
            let (data_id, group, size) =
                self.scenario
                    .originate(node, ctx, (tag - TAG_TRAFFIC_BASE) as usize);
            // Compute members from the local global snapshot (DSM's local
            // tree computation) and send one geo copy per member.
            let targets: Vec<(NodeId, Point)> = {
                let snap = &self.snapshot[node.idx()];
                let mut t: Vec<(NodeId, Point)> = snap
                    .iter()
                    .filter(|(id, (_, _, groups))| **id != node && groups.contains(&group))
                    .map(|(id, (_, pos, _))| (*id, *pos))
                    .collect();
                t.sort_by_key(|(id, _)| *id);
                t
            };
            for (dest, dest_pos) in targets {
                let msg = DsmMsg::Data {
                    data_id,
                    group,
                    size,
                    dest,
                    dest_pos,
                    visited: vec![node],
                    ttl: self.geo_ttl,
                };
                if dest == node {
                    continue;
                }
                // First hop from the source.
                let hop = if ctx.with_neighbors(node, |_, ns| ns.contains(&dest)) {
                    Some(dest)
                } else {
                    georoute::next_hop(ctx, node, dest_pos, &[node])
                };
                if let Some(nh) = hop {
                    let bytes = msg.wire_size();
                    ctx.send_reliable(node, nh, "dsm-data", bytes, msg);
                }
            }
        } else if tag == TAG_LOCATION {
            ctx.set_timer(node, self.location_interval, TAG_LOCATION);
            self.seq[node.idx()] += 1;
            let mut groups: Vec<GroupId> = self.scenario.member_of[node.idx()]
                .iter()
                .copied()
                .collect();
            groups.sort_unstable();
            let msg = DsmMsg::Location {
                node,
                pos: ctx.position(node),
                groups,
                seq: self.seq[node.idx()],
            };
            self.flood(node, ctx, msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvdb_geo::{Aabb, Vec2};
    use hvdb_sim::{RadioConfig, SimConfig, SimTime, Simulator, Stationary};

    fn grid_sim(n_side: u32, seed: u64) -> Simulator<DsmMsg> {
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
    fn location_floods_build_global_snapshot() {
        let mut sim = grid_sim(4, 1);
        let g = GroupId(1);
        let mut p = DsmProtocol::new(&[(NodeId(5), g)], vec![], vec![]);
        sim.run(&mut p, SimTime::from_secs(25));
        // Every node's snapshot should cover every other node.
        for n in 0..16usize {
            assert!(
                p.snapshot[n].len() >= 15,
                "node {n} snapshot has only {} entries",
                p.snapshot[n].len()
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
        let mut p = DsmProtocol::new(&members, traffic, vec![]);
        sim.run(&mut p, SimTime::from_secs(40));
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
        let mut p = DsmProtocol::new(&[], traffic, events);
        sim.run(&mut p, SimTime::from_secs(55));
        assert_eq!(sim.stats().delivery_ratio(), 1.0);
    }
}
