//! Core-based shared-tree multicast — the "tree-based architecture" whose
//! bottleneck the paper's load-balancing claim targets (§5: "no problem of
//! bottlenecks exists, which is likely to occur in tree-based
//! architectures").
//!
//! A rendezvous *core* (the node nearest the area centre, a deterministic
//! choice every node can make from the scenario geometry — standing in for
//! MAODV's group-leader election) roots one shared tree per group:
//!
//! * members periodically geo-route `Join` refreshes toward the core;
//!   every relay on the path records soft forwarding state
//!   (group → downstream children), growing the reverse tree;
//! * sources geo-route data to the core; the core and every tree node
//!   forward down their recorded branches; members deliver.
//!
//! All traffic funnels through the core and its vicinity — exactly the
//! hot-spot structure experiment C3 quantifies against HVDB.

use crate::common::{Member, TAG_GROUP_BASE, TAG_TRAFFIC_BASE};
use hvdb_core::{GroupEvent, GroupId, Script, TrafficItem};
use hvdb_geo::Point;
use hvdb_sim::georoute;
use hvdb_sim::{NodeId, ParCtx, ParProtocol, SimDuration, SimTime, World};
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::OnceLock;

const TAG_JOIN_REFRESH: u64 = 1;

/// Shared-tree protocol messages.
#[derive(Debug, Clone)]
pub enum TreeMsg {
    /// A member's join refresh travelling toward the core.
    Join {
        /// The joining member.
        member: NodeId,
        /// The group being joined.
        group: GroupId,
        /// Relays visited (greedy recovery memory).
        visited: Vec<NodeId>,
        /// Remaining hops.
        ttl: u32,
    },
    /// Data travelling up to the core (geo phase).
    DataUp {
        /// Packet id.
        data_id: u64,
        /// Destination group.
        group: GroupId,
        /// Payload bytes.
        size: usize,
        /// Relays visited.
        visited: Vec<NodeId>,
        /// Remaining hops.
        ttl: u32,
        /// Transmissions taken before the current send (hop-count
        /// accounting; rides the header allowance).
        hops: u32,
    },
    /// Data travelling down the shared tree.
    DataDown {
        /// Packet id.
        data_id: u64,
        /// Destination group.
        group: GroupId,
        /// Payload bytes.
        size: usize,
        /// Transmissions taken before the current send.
        hops: u32,
    },
}

impl TreeMsg {
    fn class(&self) -> &'static str {
        match self {
            TreeMsg::Join { .. } => "tree-join",
            TreeMsg::DataUp { .. } => "tree-data-up",
            TreeMsg::DataDown { .. } => "tree-data-down",
        }
    }

    fn wire_size(&self) -> usize {
        match self {
            TreeMsg::Join { .. } => 28,
            TreeMsg::DataUp { size, .. } | TreeMsg::DataDown { size, .. } => 20 + size,
        }
    }
}

/// Per-node soft forwarding state for one group.
#[derive(Debug, Default, Clone)]
struct Branches {
    /// downstream child -> last refresh time.
    children: FxHashMap<NodeId, SimTime>,
}

/// One node's shared-tree state, owned by its shard.
#[derive(Debug, Default)]
pub struct TreeNode {
    member: Member,
    /// Per-group forwarding state.
    branches: FxHashMap<GroupId, Branches>,
    /// Dedup of forwarded data (down phase).
    forwarded: FxHashSet<u64>,
}

/// The shared-tree protocol: the scenario script and the tree's core,
/// shared read-only by every shard.
pub struct SharedTreeProtocol {
    script: Script,
    /// The core node and its position, resolved when the first node's
    /// state is built.
    core: OnceLock<(NodeId, Point)>,
    join_interval: SimDuration,
    state_ttl: SimDuration,
    geo_ttl: u32,
}

impl SharedTreeProtocol {
    /// Creates the protocol for a scripted scenario.
    pub fn new(
        initial_groups: &[(NodeId, GroupId)],
        traffic: Vec<TrafficItem>,
        group_events: Vec<GroupEvent>,
    ) -> Self {
        SharedTreeProtocol {
            script: Script::new(initial_groups, traffic, group_events),
            core: OnceLock::new(),
            join_interval: SimDuration::from_secs(5),
            state_ttl: SimDuration::from_secs(15),
            geo_ttl: 64,
        }
    }

    /// The elected core node (`None` before the run builds node state).
    pub fn core(&self) -> Option<NodeId> {
        self.core.get().map(|&(id, _)| id)
    }

    fn am_core(&self, node: NodeId) -> bool {
        self.core() == Some(node)
    }

    fn core_pos(&self) -> Point {
        self.core
            .get()
            .expect("core resolved before any callback")
            .1
    }

    fn live_children(&self, st: &TreeNode, group: GroupId, now: SimTime) -> Vec<NodeId> {
        let Some(b) = st.branches.get(&group) else {
            return Vec::new();
        };
        let mut out: Vec<NodeId> = b
            .children
            .iter()
            .filter(|(_, t)| now.since(**t) <= self.state_ttl)
            .map(|(c, _)| *c)
            .collect();
        out.sort_unstable();
        out
    }

    fn forward_toward_core(&self, node: NodeId, ctx: &mut ParCtx<'_, TreeMsg>, msg: TreeMsg) {
        let visited = match &msg {
            TreeMsg::Join { visited, .. } | TreeMsg::DataUp { visited, .. } => visited.clone(),
            TreeMsg::DataDown { .. } => Vec::new(),
        };
        if let Some(nh) = georoute::next_hop(ctx, node, self.core_pos(), &visited) {
            let class = msg.class();
            let bytes = msg.wire_size();
            ctx.send_reliable(node, nh, class, bytes, msg);
        }
    }

    /// Delivers at this tree node (`hops` transmissions behind us) and
    /// forwards down every live branch.
    #[allow(clippy::too_many_arguments)]
    fn push_down(
        &self,
        node: NodeId,
        st: &mut TreeNode,
        ctx: &mut ParCtx<'_, TreeMsg>,
        data_id: u64,
        group: GroupId,
        size: usize,
        hops: u32,
    ) {
        if !st.forwarded.insert(data_id) {
            return;
        }
        st.member.deliver(node, ctx, data_id, group, hops);
        for child in self.live_children(st, group, ctx.now()) {
            let msg = TreeMsg::DataDown {
                data_id,
                group,
                size,
                hops,
            };
            let bytes = msg.wire_size();
            ctx.send_reliable(node, child, "tree-data-down", bytes, msg);
        }
    }
}

impl ParProtocol for SharedTreeProtocol {
    type Msg = TreeMsg;
    type Node = TreeNode;

    fn make_node(&self, id: NodeId, world: &World) -> TreeNode {
        // Deterministic core: the node nearest the area centre at t=0.
        self.core.get_or_init(|| {
            let center = world.area().center();
            let mut best = (NodeId(0), f64::INFINITY);
            for n in world.ids() {
                let d = world.position(n).distance_sq(center);
                if d < best.1 {
                    best = (n, d);
                }
            }
            (best.0, world.position(best.0))
        });
        TreeNode {
            member: Member::new(&self.script, id),
            ..Default::default()
        }
    }

    fn on_start(&self, node: NodeId, _st: &mut TreeNode, ctx: &mut ParCtx<'_, TreeMsg>) {
        self.script.arm(node, ctx);
        // Members refresh joins periodically (phase-jittered).
        let j = SimDuration(ctx.rng().range_u64(0, self.join_interval.0.max(1)));
        ctx.set_timer(node, j, TAG_JOIN_REFRESH);
    }

    fn on_message(
        &self,
        node: NodeId,
        st: &mut TreeNode,
        from: NodeId,
        msg: TreeMsg,
        ctx: &mut ParCtx<'_, TreeMsg>,
    ) {
        match msg {
            TreeMsg::Join {
                member,
                group,
                mut visited,
                ttl,
            } => {
                // Record the reverse branch toward the member.
                st.branches
                    .entry(group)
                    .or_default()
                    .children
                    .insert(from, ctx.now());
                if self.am_core(node) || ttl == 0 {
                    return;
                }
                georoute::push_visited(&mut visited, node);
                self.forward_toward_core(
                    node,
                    ctx,
                    TreeMsg::Join {
                        member,
                        group,
                        visited,
                        ttl: ttl - 1,
                    },
                );
            }
            TreeMsg::DataUp {
                data_id,
                group,
                size,
                mut visited,
                ttl,
                hops,
            } => {
                let hops = hops + 1; // the send that reached us
                st.member.deliver(node, ctx, data_id, group, hops);
                if self.am_core(node) {
                    self.push_down(node, st, ctx, data_id, group, size, hops);
                } else if ttl > 0 {
                    georoute::push_visited(&mut visited, node);
                    self.forward_toward_core(
                        node,
                        ctx,
                        TreeMsg::DataUp {
                            data_id,
                            group,
                            size,
                            visited,
                            ttl: ttl - 1,
                            hops,
                        },
                    );
                }
            }
            TreeMsg::DataDown {
                data_id,
                group,
                size,
                hops,
            } => {
                self.push_down(node, st, ctx, data_id, group, size, hops + 1);
            }
        }
    }

    fn on_timer(&self, node: NodeId, st: &mut TreeNode, tag: u64, ctx: &mut ParCtx<'_, TreeMsg>) {
        if tag >= TAG_GROUP_BASE {
            st.member
                .apply(&self.script, (tag - TAG_GROUP_BASE) as usize);
        } else if tag >= TAG_TRAFFIC_BASE {
            let (item, data_id) = self
                .script
                .originate((tag - TAG_TRAFFIC_BASE) as usize, ctx);
            let (group, size) = (item.group, item.size);
            if self.am_core(node) {
                self.push_down(node, st, ctx, data_id, group, size, 0);
            } else {
                self.forward_toward_core(
                    node,
                    ctx,
                    TreeMsg::DataUp {
                        data_id,
                        group,
                        size,
                        visited: vec![node],
                        ttl: self.geo_ttl,
                        hops: 0,
                    },
                );
            }
        } else if tag == TAG_JOIN_REFRESH {
            ctx.set_timer(node, self.join_interval, TAG_JOIN_REFRESH);
            if self.am_core(node) {
                return;
            }
            for group in st.member.groups() {
                self.forward_toward_core(
                    node,
                    ctx,
                    TreeMsg::Join {
                        member: node,
                        group,
                        visited: vec![node],
                        ttl: self.geo_ttl,
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvdb_geo::{Aabb, Vec2};
    use hvdb_sim::{ParSimulator, RadioConfig, SimConfig, Stationary};

    fn grid_sim(n_side: u32, seed: u64) -> ParSimulator<TreeNode, TreeMsg> {
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
    fn tree_delivers_after_joins_settle() {
        let mut sim = grid_sim(5, 1);
        let g = GroupId(1);
        let members = [(NodeId(0), g), (NodeId(24), g), (NodeId(4), g)];
        let traffic = vec![TrafficItem {
            at: SimTime::from_secs(20),
            src: NodeId(20),
            group: g,
            size: 256,
            ..Default::default()
        }];
        let p = SharedTreeProtocol::new(&members, traffic, vec![]);
        sim.run(&p, SimTime::from_secs(40));
        assert!(
            sim.stats().delivery_ratio() >= 0.99,
            "ratio {}",
            sim.stats().delivery_ratio()
        );
    }

    #[test]
    fn core_is_center_node() {
        let mut sim = grid_sim(5, 2);
        let p = SharedTreeProtocol::new(&[], vec![], vec![]);
        sim.run(&p, SimTime::from_secs(1));
        // 5x5 grid: node 12 sits nearest the centre.
        assert_eq!(p.core(), Some(NodeId(12)));
    }

    #[test]
    fn load_concentrates_near_core() {
        let mut sim = grid_sim(5, 3);
        let g = GroupId(1);
        // Corner members, corner source: everything crosses the middle.
        let members = [
            (NodeId(0), g),
            (NodeId(4), g),
            (NodeId(20), g),
            (NodeId(24), g),
        ];
        let traffic: Vec<TrafficItem> = (0..10)
            .map(|i| TrafficItem {
                at: SimTime::from_secs(20 + i),
                src: NodeId(2),
                group: g,
                size: 400,
                ..Default::default()
            })
            .collect();
        let p = SharedTreeProtocol::new(&members, traffic, vec![]);
        sim.run(&p, SimTime::from_secs(45));
        let core = p.core().unwrap();
        let bytes = &sim.stats().node_tx_bytes;
        let core_bytes = bytes[core.idx()];
        let mean: f64 = bytes.iter().sum::<u64>() as f64 / bytes.len() as f64;
        assert!(
            core_bytes as f64 > 1.5 * mean,
            "core {core_bytes} vs mean {mean}"
        );
        assert!(sim.stats().delivery_ratio() >= 0.9);
    }

    #[test]
    fn stale_branches_expire() {
        let mut sim = grid_sim(4, 4);
        let g = GroupId(1);
        // Member leaves at t = 30; packet at t = 60 expects nobody.
        let members = [(NodeId(15), g)];
        let events = vec![GroupEvent {
            at: SimTime::from_secs(30),
            node: NodeId(15),
            group: g,
            join: false,
        }];
        let traffic = vec![TrafficItem {
            at: SimTime::from_secs(60),
            src: NodeId(0),
            group: g,
            size: 100,
            ..Default::default()
        }];
        let p = SharedTreeProtocol::new(&members, traffic, events);
        sim.run(&p, SimTime::from_secs(80));
        // Expected receivers = 0, so ratio stays 1.0 and no delivery happens.
        assert_eq!(sim.stats().delivery_ratio(), 1.0);
        assert_eq!(sim.stats().latency_hist().count(), 0);
    }
}
