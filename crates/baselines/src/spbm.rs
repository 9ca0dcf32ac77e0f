//! SPBM-style multicast (Transier et al. \[28\]) — quad-tree membership
//! aggregation with position-based forwarding.
//!
//! SPBM "uses a hierarchical aggregation of membership information: the
//! further away a region is from an intermediate node, the higher the level
//! of aggregation" (paper §2.2). The HVDB paper's critique — the property
//! our comparative experiments quantify — is that "all the nodes in the
//! network are involved in the membership update".
//!
//! Mechanism reproduced here:
//!
//! * the area is covered by a quad-tree of squares; leaf squares are sized
//!   to the radio range;
//! * every node periodically broadcasts its memberships to its leaf square
//!   (level-0 update — *every* node transmits);
//! * per square and level, the node nearest the square centre acts as the
//!   representative and floods the square's aggregate within the *parent*
//!   square (scoped flood — every node in the parent square retransmits);
//!   at the top level the aggregate floods network-wide;
//! * data packets recurse down the quad-tree: a copy is geo-routed toward
//!   each sub-square known to contain members; inside a leaf square the
//!   packet is broadcast.

use crate::common::{ScenarioState, TAG_GROUP_BASE, TAG_TRAFFIC_BASE};
use hvdb_core::{GroupEvent, GroupId, TrafficItem};
use hvdb_geo::{Aabb, Point};
use hvdb_sim::georoute;
use hvdb_sim::{Ctx, NodeId, Protocol, SimDuration};
use rustc_hash::{FxHashMap, FxHashSet};

const TAG_L0: u64 = 1;
const TAG_AGG: u64 = 2;

/// A quad-tree square: level and coordinates (level 0 = leaves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Square {
    /// Level (0 = leaf; `levels` = whole area).
    pub level: u8,
    /// Column index at this level.
    pub x: u16,
    /// Row index at this level.
    pub y: u16,
}

/// Quad-tree geometry over the deployment area.
#[derive(Debug, Clone)]
pub struct QuadTree {
    area: Aabb,
    /// Number of levels above the leaves (top square = whole area).
    pub levels: u8,
    leaf_size: f64,
}

impl QuadTree {
    /// Builds a quad-tree whose leaf squares are at most `leaf_target`
    /// across (typically the radio range).
    pub fn new(area: Aabb, leaf_target: f64) -> Self {
        let side = area.width().max(area.height());
        let mut levels = 0u8;
        while side / (1u32 << levels) as f64 > leaf_target && levels < 12 {
            levels += 1;
        }
        QuadTree {
            area,
            levels,
            leaf_size: side / (1u32 << levels) as f64,
        }
    }

    /// The square containing `p` at `level`.
    pub fn square_of(&self, p: Point, level: u8) -> Square {
        debug_assert!(level <= self.levels);
        let cells = 1u32 << (self.levels - level);
        let size = self.leaf_size * (1u32 << level) as f64;
        let x = (((p.x - self.area.min.x) / size).floor() as i64).clamp(0, cells as i64 - 1);
        let y = (((p.y - self.area.min.y) / size).floor() as i64).clamp(0, cells as i64 - 1);
        Square {
            level,
            x: x as u16,
            y: y as u16,
        }
    }

    /// The centre of a square.
    pub fn center(&self, sq: Square) -> Point {
        let size = self.leaf_size * (1u32 << sq.level) as f64;
        Point::new(
            self.area.min.x + (sq.x as f64 + 0.5) * size,
            self.area.min.y + (sq.y as f64 + 0.5) * size,
        )
    }

    /// Whether `p` lies inside `sq`.
    pub fn contains(&self, sq: Square, p: Point) -> bool {
        self.square_of(p, sq.level) == sq
    }

    /// The four child squares of `sq` (level must be > 0).
    pub fn children(&self, sq: Square) -> [Square; 4] {
        debug_assert!(sq.level > 0);
        let l = sq.level - 1;
        let (x, y) = (sq.x * 2, sq.y * 2);
        [
            Square { level: l, x, y },
            Square {
                level: l,
                x: x + 1,
                y,
            },
            Square {
                level: l,
                x,
                y: y + 1,
            },
            Square {
                level: l,
                x: x + 1,
                y: y + 1,
            },
        ]
    }

    /// The parent square (level must be < `levels`).
    pub fn parent(&self, sq: Square) -> Square {
        debug_assert!(sq.level < self.levels);
        Square {
            level: sq.level + 1,
            x: sq.x / 2,
            y: sq.y / 2,
        }
    }
}

/// SPBM messages.
#[derive(Debug, Clone)]
pub enum SpbmMsg {
    /// Level-0 membership broadcast within the leaf square.
    L0 {
        /// The advertising node.
        node: NodeId,
        /// Its memberships.
        groups: Vec<GroupId>,
    },
    /// A representative's aggregate for `square`, flooded within the
    /// parent square (network-wide at the top level).
    Agg {
        /// The square being summarised.
        square: Square,
        /// Groups with members in the square.
        groups: Vec<GroupId>,
        /// Flood origin.
        origin: NodeId,
        /// Flood sequence.
        seq: u64,
    },
    /// A data copy recursing down the quad-tree toward `target`.
    Data {
        /// Packet id.
        data_id: u64,
        /// Destination group.
        group: GroupId,
        /// Payload bytes.
        size: usize,
        /// The square this copy must reach.
        target: Square,
        /// Relays visited.
        visited: Vec<NodeId>,
        /// Remaining hops.
        ttl: u32,
    },
    /// Final delivery broadcast inside a leaf square.
    LeafDeliver {
        /// Packet id.
        data_id: u64,
        /// Destination group.
        group: GroupId,
        /// Payload bytes.
        size: usize,
    },
}

impl SpbmMsg {
    fn wire_size(&self) -> usize {
        match self {
            SpbmMsg::L0 { groups, .. } => 24 + groups.len() * 4,
            SpbmMsg::Agg { groups, .. } => 32 + groups.len() * 4,
            SpbmMsg::Data { size, .. } => 32 + size,
            SpbmMsg::LeafDeliver { size, .. } => 20 + size,
        }
    }
}

/// The SPBM-style protocol.
pub struct SpbmProtocol {
    scenario: ScenarioState,
    quad: Option<QuadTree>,
    /// Per-node: per-square known groups (freshest flood wins per origin).
    sq_groups: Vec<FxHashMap<Square, FxHashSet<GroupId>>>,
    /// Per-node: leaf-square member table (node -> groups).
    leaf_members: Vec<FxHashMap<NodeId, Vec<GroupId>>>,
    /// Per-node flood dedup.
    seen: Vec<FxHashSet<(NodeId, u64)>>,
    /// Per-node data dedup (data_id, square).
    seen_data: Vec<FxHashSet<(u64, Square)>>,
    seq: Vec<u64>,
    update_interval: SimDuration,
    geo_ttl: u32,
}

impl SpbmProtocol {
    /// Creates the protocol for a scripted scenario.
    pub fn new(
        initial_groups: &[(NodeId, GroupId)],
        traffic: Vec<TrafficItem>,
        group_events: Vec<GroupEvent>,
    ) -> Self {
        SpbmProtocol {
            scenario: ScenarioState::new(initial_groups, traffic, group_events),
            quad: None,
            sq_groups: Vec::new(),
            leaf_members: Vec::new(),
            seen: Vec::new(),
            seen_data: Vec::new(),
            seq: Vec::new(),
            update_interval: SimDuration::from_secs(10),
            geo_ttl: 64,
        }
    }

    /// The quad-tree geometry (after start).
    pub fn quad(&self) -> Option<&QuadTree> {
        self.quad.as_ref()
    }

    /// Per-node aggregate table size (experiment instrumentation).
    pub fn table_len(&self, node: NodeId) -> usize {
        self.sq_groups[node.idx()].len()
    }

    fn scoped_reflood(&mut self, node: NodeId, ctx: &mut Ctx<'_, SpbmMsg>, msg: SpbmMsg) {
        // Re-broadcast an Agg flood if we are inside its scope square
        // (the parent of the summarised square; whole network at top).
        let (square, origin, seq) = match &msg {
            SpbmMsg::Agg {
                square,
                origin,
                seq,
                ..
            } => (*square, *origin, *seq),
            _ => unreachable!(),
        };
        if !self.seen[node.idx()].insert((origin, seq)) {
            return;
        }
        let quad = self.quad.as_ref().expect("started");
        let in_scope = if square.level >= quad.levels {
            true
        } else {
            let scope = quad.parent(square);
            quad.contains(scope, ctx.position(node))
        };
        if in_scope {
            let bytes = msg.wire_size();
            ctx.broadcast(node, "spbm-agg", bytes, msg);
        }
    }

    /// Whether this node is the representative of `sq`: nearest to the
    /// square centre among itself and its radio neighbours inside the
    /// square (a deterministic local approximation of SPBM's per-square
    /// coordination).
    fn is_representative(&self, node: NodeId, ctx: &mut Ctx<'_, SpbmMsg>, sq: Square) -> bool {
        let quad = self.quad.as_ref().expect("started");
        let center = quad.center(sq);
        let my_pos = ctx.position(node);
        if !quad.contains(sq, my_pos) {
            return false;
        }
        let my_d = my_pos.distance_sq(center);
        ctx.with_neighbors(node, |ctx, neighbors| {
            for &n in neighbors {
                let p = ctx.position(n);
                if quad.contains(sq, p) {
                    let d = p.distance_sq(center);
                    if d < my_d || (d == my_d && n < node) {
                        return false;
                    }
                }
            }
            true
        })
    }

    fn groups_of_square(&self, node: NodeId, sq: Square) -> FxHashSet<GroupId> {
        let quad = self.quad.as_ref().expect("started");
        if sq.level == 0 {
            // Union of leaf member table (only meaningful for own leaf).
            let mut out: FxHashSet<GroupId> = FxHashSet::default();
            for groups in self.leaf_members[node.idx()].values() {
                out.extend(groups.iter().copied());
            }
            out.extend(self.scenario.member_of[node.idx()].iter().copied());
            // If the leaf isn't ours, fall back to the flood table.
            if let Some(known) = self.sq_groups[node.idx()].get(&sq) {
                out.extend(known.iter().copied());
            }
            let _ = quad;
            out
        } else {
            let mut out: FxHashSet<GroupId> = FxHashSet::default();
            // A distant square is known by its own flooded aggregate; a
            // nearby one by the finer aggregates of its children.
            if let Some(known) = self.sq_groups[node.idx()].get(&sq) {
                out.extend(known.iter().copied());
            }
            for child in quad.children(sq) {
                if let Some(known) = self.sq_groups[node.idx()].get(&child) {
                    out.extend(known.iter().copied());
                }
            }
            out
        }
    }

    fn forward_data(&mut self, node: NodeId, ctx: &mut Ctx<'_, SpbmMsg>, msg: SpbmMsg) {
        let (target, visited) = match &msg {
            SpbmMsg::Data {
                target, visited, ..
            } => (*target, visited.clone()),
            _ => unreachable!(),
        };
        let quad = self.quad.as_ref().expect("started");
        let dest = quad.center(target);
        if let Some(nh) = georoute::next_hop(ctx, node, dest, &visited) {
            let bytes = msg.wire_size();
            ctx.send_reliable(node, nh, "spbm-data", bytes, msg);
        }
    }

    /// Handles a data copy addressed to `target` at a node inside it:
    /// split to child squares with members, or leaf-broadcast.
    fn split_or_deliver(
        &mut self,
        node: NodeId,
        ctx: &mut Ctx<'_, SpbmMsg>,
        data_id: u64,
        group: GroupId,
        size: usize,
        target: Square,
    ) {
        if !self.seen_data[node.idx()].insert((data_id, target)) {
            return;
        }
        let quad = self.quad.as_ref().expect("started").clone();
        if target.level == 0 {
            let msg = SpbmMsg::LeafDeliver {
                data_id,
                group,
                size,
            };
            let bytes = msg.wire_size();
            self.scenario.deliver(node, ctx, data_id, group);
            ctx.broadcast(node, "spbm-deliver", bytes, msg);
            return;
        }
        for child in quad.children(target) {
            if !self.groups_of_square(node, child).contains(&group) {
                continue;
            }
            if quad.contains(child, ctx.position(node)) {
                // Recurse locally.
                self.split_or_deliver(node, ctx, data_id, group, size, child);
            } else {
                let msg = SpbmMsg::Data {
                    data_id,
                    group,
                    size,
                    target: child,
                    visited: vec![node],
                    ttl: self.geo_ttl,
                };
                self.forward_data(node, ctx, msg);
            }
        }
    }
}

impl Protocol for SpbmProtocol {
    type Msg = SpbmMsg;

    fn on_start(&mut self, node: NodeId, ctx: &mut Ctx<'_, SpbmMsg>) {
        self.scenario.on_start(node, ctx);
        if self.quad.is_none() {
            self.quad = Some(QuadTree::new(ctx.area(), ctx.radio_range()));
            let n = ctx.node_count();
            self.sq_groups = vec![FxHashMap::default(); n];
            self.leaf_members = vec![FxHashMap::default(); n];
            self.seen = vec![FxHashSet::default(); n];
            self.seen_data = vec![FxHashSet::default(); n];
            self.seq = vec![0; n];
        }
        let j = SimDuration(ctx.rng().range_u64(0, self.update_interval.0.max(1)));
        ctx.set_timer(node, j, TAG_L0);
        // Aggregation fires half a period after level-0 updates.
        ctx.set_timer(node, j + SimDuration(self.update_interval.0 / 2), TAG_AGG);
    }

    fn on_message(
        &mut self,
        node: NodeId,
        _from: NodeId,
        msg: SpbmMsg,
        ctx: &mut Ctx<'_, SpbmMsg>,
    ) {
        match msg {
            SpbmMsg::L0 {
                node: origin,
                groups,
            } => {
                let quad = self.quad.as_ref().expect("started");
                // Only neighbours in the same leaf square record the entry.
                let my_leaf = quad.square_of(ctx.position(node), 0);
                if quad.contains(my_leaf, ctx.position(origin)) {
                    if groups.is_empty() {
                        self.leaf_members[node.idx()].remove(&origin);
                    } else {
                        self.leaf_members[node.idx()].insert(origin, groups);
                    }
                }
            }
            SpbmMsg::Agg {
                square, ref groups, ..
            } => {
                let set: FxHashSet<GroupId> = groups.iter().copied().collect();
                self.sq_groups[node.idx()].insert(square, set);
                self.scoped_reflood(node, ctx, msg);
            }
            SpbmMsg::Data {
                data_id,
                group,
                size,
                target,
                mut visited,
                ttl,
            } => {
                let quad = self.quad.as_ref().expect("started").clone();
                if quad.contains(target, ctx.position(node)) {
                    self.split_or_deliver(node, ctx, data_id, group, size, target);
                } else if ttl > 0 {
                    georoute::push_visited(&mut visited, node);
                    self.forward_data(
                        node,
                        ctx,
                        SpbmMsg::Data {
                            data_id,
                            group,
                            size,
                            target,
                            visited,
                            ttl: ttl - 1,
                        },
                    );
                }
            }
            SpbmMsg::LeafDeliver { data_id, group, .. } => {
                self.scenario.deliver(node, ctx, data_id, group);
            }
        }
    }

    fn on_timer(&mut self, node: NodeId, tag: u64, ctx: &mut Ctx<'_, SpbmMsg>) {
        if tag >= TAG_GROUP_BASE {
            self.scenario
                .apply_group_event((tag - TAG_GROUP_BASE) as usize);
        } else if tag >= TAG_TRAFFIC_BASE {
            let (data_id, group, size) =
                self.scenario
                    .originate(node, ctx, (tag - TAG_TRAFFIC_BASE) as usize);
            let quad = self.quad.as_ref().expect("started").clone();
            let top = Square {
                level: quad.levels,
                x: 0,
                y: 0,
            };
            self.split_or_deliver(node, ctx, data_id, group, size, top);
        } else if tag == TAG_L0 {
            ctx.set_timer(node, self.update_interval, TAG_L0);
            let mut groups: Vec<GroupId> = self.scenario.member_of[node.idx()]
                .iter()
                .copied()
                .collect();
            groups.sort_unstable();
            let msg = SpbmMsg::L0 { node, groups };
            let bytes = msg.wire_size();
            // Every node transmits, regardless of membership — the cost
            // structure the HVDB paper critiques.
            ctx.broadcast(node, "spbm-l0", bytes, msg);
        } else if tag == TAG_AGG {
            ctx.set_timer(node, self.update_interval, TAG_AGG);
            let quad = self.quad.as_ref().expect("started").clone();
            // For each level, if we represent our square, flood its
            // aggregate within the parent scope.
            for level in 0..quad.levels {
                let sq = quad.square_of(ctx.position(node), level);
                if !self.is_representative(node, ctx, sq) {
                    continue;
                }
                let mut groups: Vec<GroupId> =
                    self.groups_of_square(node, sq).into_iter().collect();
                groups.sort_unstable();
                if groups.is_empty() {
                    continue;
                }
                self.seq[node.idx()] += 1;
                let msg = SpbmMsg::Agg {
                    square: sq,
                    groups,
                    origin: node,
                    seq: self.seq[node.idx()],
                };
                // Self-originated flood: mark seen and broadcast.
                self.seen[node.idx()].insert((node, self.seq[node.idx()]));
                let bytes = msg.wire_size();
                ctx.broadcast(node, "spbm-agg", bytes, msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvdb_geo::Vec2;
    use hvdb_sim::{RadioConfig, SimConfig, SimTime, Simulator, Stationary};

    #[test]
    fn quad_tree_geometry() {
        let q = QuadTree::new(Aabb::from_size(1000.0, 1000.0), 250.0);
        assert_eq!(q.levels, 2); // 1000 -> 500 -> 250
        let p = Point::new(10.0, 10.0);
        assert_eq!(
            q.square_of(p, 0),
            Square {
                level: 0,
                x: 0,
                y: 0
            }
        );
        assert_eq!(
            q.square_of(p, 2),
            Square {
                level: 2,
                x: 0,
                y: 0
            }
        );
        let sq = Square {
            level: 1,
            x: 1,
            y: 0,
        };
        assert!(q.contains(sq, Point::new(700.0, 100.0)));
        assert!(!q.contains(sq, Point::new(100.0, 100.0)));
        assert_eq!(
            q.parent(Square {
                level: 0,
                x: 3,
                y: 2
            }),
            Square {
                level: 1,
                x: 1,
                y: 1
            }
        );
        let kids = q.children(Square {
            level: 1,
            x: 0,
            y: 0,
        });
        assert_eq!(kids.len(), 4);
        assert!(kids.iter().all(|k| k.level == 0 && k.x < 2 && k.y < 2));
        // Center round-trips.
        for level in 0..=2u8 {
            let sq = q.square_of(Point::new(333.0, 777.0), level);
            assert!(q.contains(sq, q.center(sq)));
        }
    }

    fn grid_sim(n_side: u32, seed: u64) -> Simulator<SpbmMsg> {
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
    fn every_node_participates_in_membership_update() {
        let mut sim = grid_sim(5, 1);
        let g = GroupId(1);
        let mut p = SpbmProtocol::new(&[(NodeId(0), g)], vec![], vec![]);
        sim.run(&mut p, SimTime::from_secs(25));
        // All 25 nodes broadcast L0 updates (twice in 25 s).
        assert!(sim.stats().msgs("spbm-l0") >= 25);
        // Aggregates flooded too.
        assert!(sim.stats().msgs("spbm-agg") > 0);
    }

    #[test]
    fn aggregates_reach_distant_nodes() {
        let mut sim = grid_sim(6, 2);
        let g = GroupId(1);
        let mut p = SpbmProtocol::new(&[(NodeId(0), g)], vec![], vec![]);
        sim.run(&mut p, SimTime::from_secs(40));
        // The far-corner node should know a top-level square with group g.
        let far = NodeId(35);
        let knows = p.sq_groups[far.idx()]
            .iter()
            .any(|(_, groups)| groups.contains(&g));
        assert!(knows, "far node never learned the group's region");
    }

    #[test]
    fn data_recurses_to_members() {
        let mut sim = grid_sim(6, 3);
        let g = GroupId(1);
        let members = [(NodeId(35), g), (NodeId(30), g)];
        let traffic = vec![TrafficItem {
            at: SimTime::from_secs(45),
            src: NodeId(0),
            group: g,
            size: 256,
            ..Default::default()
        }];
        let mut p = SpbmProtocol::new(&members, traffic, vec![]);
        sim.run(&mut p, SimTime::from_secs(70));
        assert!(
            sim.stats().delivery_ratio() >= 0.99,
            "ratio {}",
            sim.stats().delivery_ratio()
        );
    }
}
