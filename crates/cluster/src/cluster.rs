//! Cluster formation from a network snapshot.
//!
//! Given every node's (position, velocity, eligibility), [`form_clusters`]
//! produces the paper's Mobile Node Tier structure (§3): each VC with at
//! least one eligible resident gets one cluster head; every node is a
//! member of its primary VC's cluster and — through VC overlap — possibly
//! of neighbouring clusters too ("an MN within the overlapped regions can
//! be a cluster member of two or multiple clusters at the same time for
//! more reliable communications").
//!
//! This module is the *centralised* (snapshot) formulation used by the
//! model-construction experiments and by tests; the distributed, message-
//! driven version lives in `hvdb-core::protocol` and converges to the same
//! assignment under stable positions.

use crate::election::{elect, Candidate};
use hvdb_geo::{VcGrid, VcId};
use rustc_hash::FxHashMap;

/// The outcome of cluster formation over one snapshot.
#[derive(Debug, Clone, Default)]
pub struct Clustering {
    /// The elected head of each VC that has one.
    pub head_of_vc: FxHashMap<VcId, u32>,
    /// Inverse map: each head's VC.
    pub vc_of_head: FxHashMap<u32, VcId>,
    /// Every node's primary cluster (the VC containing it).
    pub primary_of_node: FxHashMap<u32, VcId>,
    /// All clusters each node belongs to (primary first, then overlaps).
    pub memberships_of_node: FxHashMap<u32, Vec<VcId>>,
    /// Members of each VC's cluster (nodes whose coverage includes the VC).
    pub members_of_vc: FxHashMap<VcId, Vec<u32>>,
}

impl Clustering {
    /// Number of formed clusters (VCs with a head).
    pub fn cluster_count(&self) -> usize {
        self.head_of_vc.len()
    }

    /// Whether `node` heads some cluster.
    pub fn is_head(&self, node: u32) -> bool {
        self.vc_of_head.contains_key(&node)
    }
}

/// Forms clusters from a network snapshot. `nodes` supplies each node's
/// candidacy (position, velocity, hardware class); election follows the
/// two criteria of \[23\] via [`elect`].
pub fn form_clusters(grid: &VcGrid, nodes: &[Candidate]) -> Clustering {
    let mut out = Clustering::default();
    // Membership: primary VC plus overlap VCs.
    for c in nodes {
        let primary = grid.vc_of(c.pos);
        out.primary_of_node.insert(c.node, primary);
        let covering = grid.covering_vcs(c.pos);
        debug_assert!(covering.contains(&primary));
        let mut m = Vec::with_capacity(covering.len());
        m.push(primary);
        for vc in covering {
            if vc != primary {
                m.push(vc);
            }
        }
        for vc in &m {
            out.members_of_vc.entry(*vc).or_default().push(c.node);
        }
        out.memberships_of_node.insert(c.node, m);
    }
    for members in out.members_of_vc.values_mut() {
        members.sort_unstable();
    }
    // Election per VC among the candidates *residing* in it (covered by the
    // circle). Iterate VCs in grid order for determinism.
    for vc in grid.iter_ids() {
        let Some(members) = out.members_of_vc.get(&vc) else {
            continue;
        };
        let candidates: Vec<Candidate> = members
            .iter()
            .filter_map(|id| nodes.iter().find(|c| c.node == *id))
            .copied()
            .collect();
        if let Some(head) = elect(grid, vc, &candidates) {
            out.head_of_vc.insert(vc, head);
            out.vc_of_head.insert(head, vc);
        }
    }
    // A node can win at most one VC election as primary head; overlap can
    // elect the same node in two VCs. Keep only the election for the node's
    // *primary* VC when both happened, re-electing the other VC without it.
    let double_heads: Vec<(u32, VcId)> = out
        .head_of_vc
        .iter()
        .filter(|(vc, head)| out.primary_of_node.get(*head) != Some(*vc))
        .map(|(vc, head)| (*head, *vc))
        .collect();
    for (head, vc) in double_heads {
        // Only demote if the node also heads its primary VC; otherwise this
        // is its only headship and it may keep it (it still resides in the
        // circle by construction).
        let primary = out.primary_of_node[&head];
        if out.head_of_vc.get(&primary) == Some(&head) {
            out.head_of_vc.remove(&vc);
            let candidates: Vec<Candidate> = out.members_of_vc[&vc]
                .iter()
                .filter(|id| **id != head)
                .filter_map(|id| nodes.iter().find(|c| c.node == *id))
                .copied()
                .collect();
            if let Some(new_head) = elect(grid, vc, &candidates) {
                out.head_of_vc.insert(vc, new_head);
                out.vc_of_head.insert(new_head, vc);
            }
        }
    }
    // Rebuild inverse map cleanly (demotions may have left stale entries).
    out.vc_of_head = out
        .head_of_vc
        .iter()
        .map(|(vc, head)| (*head, *vc))
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvdb_geo::{Aabb, Point, Vec2};

    fn grid() -> VcGrid {
        VcGrid::with_dimensions(Aabb::from_size(800.0, 800.0), 8, 8)
    }

    fn cand(node: u32, pos: Point) -> Candidate {
        Candidate {
            node,
            pos,
            vel: Vec2::ZERO,
            eligible: true,
        }
    }

    #[test]
    fn one_cluster_per_occupied_vc() {
        let g = grid();
        // Put one node at each of three VC centres.
        let nodes = vec![
            cand(0, g.vcc(VcId::new(0, 0))),
            cand(1, g.vcc(VcId::new(3, 3))),
            cand(2, g.vcc(VcId::new(7, 7))),
        ];
        let c = form_clusters(&g, &nodes);
        assert_eq!(c.cluster_count(), 3);
        assert_eq!(c.head_of_vc[&VcId::new(0, 0)], 0);
        assert_eq!(c.head_of_vc[&VcId::new(3, 3)], 1);
        assert_eq!(c.head_of_vc[&VcId::new(7, 7)], 2);
        assert!(c.is_head(1));
        assert_eq!(c.head_of_vc[&c.primary_of_node[&2]], 2);
    }

    #[test]
    fn members_join_their_primary_cluster() {
        let g = grid();
        let center = g.vcc(VcId::new(4, 4));
        let nodes = vec![
            cand(0, center),
            cand(1, Point::new(center.x + 10.0, center.y)),
            cand(2, Point::new(center.x - 15.0, center.y + 5.0)),
        ];
        let c = form_clusters(&g, &nodes);
        assert_eq!(c.cluster_count(), 1);
        assert_eq!(c.head_of_vc[&VcId::new(4, 4)], 0); // closest to VCC
        assert_eq!(c.members_of_vc[&VcId::new(4, 4)], vec![0, 1, 2]);
        assert_eq!(c.head_of_vc[&c.primary_of_node[&1]], 0);
    }

    #[test]
    fn overlap_membership_in_multiple_clusters() {
        let g = grid();
        // A node on the edge midpoint between two cells lies in both circles.
        let edge = Point::new(200.0, 150.0);
        let covering = g.covering_vcs(edge);
        assert!(covering.len() >= 2);
        let nodes = vec![cand(0, edge)];
        let c = form_clusters(&g, &nodes);
        let memberships = &c.memberships_of_node[&0];
        assert!(memberships.len() >= 2);
        assert_eq!(memberships[0], g.vc_of(edge)); // primary first
    }

    #[test]
    fn no_eligible_resident_no_cluster() {
        let g = grid();
        let mut weak = cand(0, g.vcc(VcId::new(2, 2)));
        weak.eligible = false;
        let c = form_clusters(&g, &[weak]);
        assert_eq!(c.cluster_count(), 0);
        assert_eq!(c.head_of_vc.get(&c.primary_of_node[&0]), None);
        // The node is still a member of its VC.
        assert_eq!(c.members_of_vc[&VcId::new(2, 2)], vec![0]);
    }

    #[test]
    fn overlap_node_heads_at_most_its_primary_when_others_available() {
        let g = grid();
        // Node 0 on the seam covers two VCs; node 1 sits in the neighbour
        // VC's centre. Node 0 must not head both clusters.
        let edge = Point::new(200.0, 150.0);
        let primary = g.vc_of(edge);
        let covering = g.covering_vcs(edge);
        let other = *covering.iter().find(|vc| **vc != primary).unwrap();
        let nodes = vec![cand(0, edge), cand(1, g.vcc(other))];
        let c = form_clusters(&g, &nodes);
        assert_eq!(c.head_of_vc[&other], 1);
        assert_eq!(c.head_of_vc[&primary], 0);
    }

    #[test]
    fn dense_population_every_vc_headed() {
        let g = grid();
        // One node per VC centre.
        let nodes: Vec<Candidate> = g
            .iter_ids()
            .enumerate()
            .map(|(i, vc)| cand(i as u32, g.vcc(vc)))
            .collect();
        let c = form_clusters(&g, &nodes);
        assert_eq!(c.cluster_count(), 64);
        // Every node heads its own VC (it's the only resident at distance 0).
        for (i, vc) in g.iter_ids().enumerate() {
            assert_eq!(c.head_of_vc[&vc], i as u32);
        }
    }

    #[test]
    fn deterministic_given_same_snapshot() {
        let g = grid();
        let nodes: Vec<Candidate> = (0..200)
            .map(|i| {
                cand(
                    i,
                    Point::new((i as f64 * 37.0) % 800.0, (i as f64 * 53.0) % 800.0),
                )
            })
            .collect();
        let a = form_clusters(&g, &nodes);
        let b = form_clusters(&g, &nodes);
        assert_eq!(a.head_of_vc, b.head_of_vc);
        assert_eq!(a.members_of_vc, b.members_of_vc);
    }
}
