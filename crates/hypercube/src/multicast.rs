//! Multicast trees inside (incomplete) hypercubes.
//!
//! At the hypercube tier a CH that receives a multicast packet "computes a
//! multicast tree using its HT-Summary … The multicast tree is then
//! encapsulated into the packet header in order to forward the packet within
//! the logical hypercube" (paper §4.3). Two tree constructions are provided:
//!
//! * [`binomial_tree`] — the classic spanning binomial tree of a complete
//!   cube (depth = dimension, perfectly balanced forwarding load): the
//!   hypercube-native broadcast structure the paper's load-balancing
//!   argument leans on;
//! * [`multicast_tree`] — a shortest-path Steiner-style tree covering an
//!   arbitrary destination subset of an *incomplete* cube (BFS paths merged
//!   into a tree), used for selective delivery to member CHs.

use crate::label::{self, NodeLabel};
use crate::routing;
use crate::topology::IncompleteHypercube;
use rustc_hash::FxHashMap;
use std::collections::VecDeque;

/// A multicast tree: parent links and a deterministic child ordering,
/// rooted at `root`. Suitable for header encapsulation (see
/// [`MulticastTree::encode_edges`]).
///
/// Flat layout: three contiguous arrays instead of two hash maps —
/// `(child, parent)` pairs sorted by child (binary-searched for parent
/// lookups), plus a CSR-style `(parent, start, len)` span table over one
/// concatenated child list for traversal. Derived deterministically from
/// the parent relation, so structural equality is well-defined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MulticastTree {
    /// The root label.
    pub root: NodeLabel,
    /// `(child, parent)`, sorted by child.
    by_child: Vec<(NodeLabel, NodeLabel)>,
    /// `(parent, start, len)` spans into `child_list`, sorted by parent.
    spans: Vec<(NodeLabel, u32, u32)>,
    /// Child runs, grouped per parent in span order, each run sorted.
    child_list: Vec<NodeLabel>,
}

impl MulticastTree {
    fn from_parents(root: NodeLabel, parent: FxHashMap<NodeLabel, NodeLabel>) -> Self {
        let mut by_child: Vec<(NodeLabel, NodeLabel)> = parent.into_iter().collect();
        by_child.sort_unstable();
        Self::from_sorted_pairs(root, by_child)
    }

    /// Builds the flat tables from a `(child, parent)` list already
    /// sorted by (unique) child.
    fn from_sorted_pairs(root: NodeLabel, by_child: Vec<(NodeLabel, NodeLabel)>) -> Self {
        let mut pc: Vec<(NodeLabel, NodeLabel)> = by_child.iter().map(|&(c, p)| (p, c)).collect();
        pc.sort_unstable();
        let mut spans: Vec<(NodeLabel, u32, u32)> = Vec::new();
        let mut child_list = Vec::with_capacity(pc.len());
        for (p, c) in pc {
            match spans.last_mut() {
                Some((lp, _, len)) if *lp == p => *len += 1,
                _ => spans.push((p, child_list.len() as u32, 1)),
            }
            child_list.push(c);
        }
        MulticastTree {
            root,
            by_child,
            spans,
            child_list,
        }
    }

    /// The parent of `u`, if it is a non-root tree node.
    pub fn parent_of(&self, u: NodeLabel) -> Option<NodeLabel> {
        self.by_child
            .binary_search_by_key(&u, |&(c, _)| c)
            .ok()
            .map(|i| self.by_child[i].1)
    }

    /// All nodes of the tree (root first, then BFS order).
    pub fn nodes(&self) -> Vec<NodeLabel> {
        let mut out = vec![self.root];
        let mut queue = VecDeque::from([self.root]);
        while let Some(u) = queue.pop_front() {
            for &c in self.children_of(u) {
                out.push(c);
                queue.push_back(c);
            }
        }
        out
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.by_child.len() + 1
    }

    /// Number of links (= forwarding transmissions for one packet).
    pub fn edge_count(&self) -> usize {
        self.by_child.len()
    }

    /// Deterministic content-byte estimate of the tree's flat arrays
    /// (entries × entry size, not allocator capacity).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.by_child.len() * size_of::<(NodeLabel, NodeLabel)>()
            + self.spans.len() * size_of::<(NodeLabel, u32, u32)>()
            + self.child_list.len() * size_of::<NodeLabel>()
    }

    /// Depth of the tree (root = 0).
    pub fn depth(&self) -> u32 {
        let mut best = 0;
        for &(leaf, _) in &self.by_child {
            let mut d = 0;
            let mut cur = leaf;
            while let Some(p) = self.parent_of(cur) {
                d += 1;
                cur = p;
            }
            best = best.max(d);
        }
        best
    }

    /// Whether the tree contains `u`.
    pub fn contains(&self, u: NodeLabel) -> bool {
        u == self.root || self.parent_of(u).is_some()
    }

    /// The children of `u` (empty slice if leaf or absent).
    pub fn children_of(&self, u: NodeLabel) -> &[NodeLabel] {
        match self.spans.binary_search_by_key(&u, |&(p, ..)| p) {
            Ok(i) => {
                let (_, start, len) = self.spans[i];
                &self.child_list[start as usize..(start + len) as usize]
            }
            Err(_) => &[],
        }
    }

    /// Serialises the tree as a flat (parent, child) edge list in BFS order
    /// — the form that is "encapsulated into the packet header" (§4.3). The
    /// encoding is self-contained: a forwarding CH finds its own children by
    /// scanning the list.
    pub fn encode_edges(&self) -> Vec<(NodeLabel, NodeLabel)> {
        let mut out = Vec::with_capacity(self.edge_count());
        let mut queue = VecDeque::from([self.root]);
        while let Some(u) = queue.pop_front() {
            for &c in self.children_of(u) {
                out.push((u, c));
                queue.push_back(c);
            }
        }
        out
    }

    /// Rebuilds a tree from an encoded edge list (inverse of
    /// [`MulticastTree::encode_edges`]). Returns `None` for an inconsistent
    /// list (a child with two parents, or edges not reachable from `root`).
    pub fn decode_edges(root: NodeLabel, edges: &[(NodeLabel, NodeLabel)]) -> Option<Self> {
        let mut by_child: Vec<(NodeLabel, NodeLabel)> = Vec::with_capacity(edges.len());
        for &(p, c) in edges {
            if c == root {
                return None;
            }
            by_child.push((c, p));
        }
        by_child.sort_unstable();
        // A child with two parents is not a tree.
        if by_child.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
        let tree = Self::from_sorted_pairs(root, by_child);
        // Reachability audit.
        if tree.nodes().len() != tree.node_count() {
            return None;
        }
        Some(tree)
    }
}

/// The spanning binomial tree of a complete `dim`-cube rooted at `root`:
/// node `u`'s children are obtained by flipping each bit *below* the lowest
/// set bit of `u XOR root`. Depth = `dim`, and exactly `C(dim, k)` nodes at
/// level `k` — the regular, symmetric broadcast structure of §2.1.
pub fn binomial_tree(root: NodeLabel, dim: u8) -> MulticastTree {
    let mut parent = FxHashMap::default();
    for u in 0..label::node_count(dim) as u32 {
        if u == root {
            continue;
        }
        let rel = u ^ root;
        let lowest = rel.trailing_zeros() as u8;
        parent.insert(u, label::flip(u, lowest));
    }
    MulticastTree::from_parents(root, parent)
}

/// A multicast tree covering `destinations` in the incomplete cube, built
/// by merging BFS shortest paths root→destination in ascending destination
/// order (deterministic). Destinations equal to the root or unreachable are
/// skipped; the returned tree covers every *reachable* destination.
///
/// The merge is the standard shortest-path heuristic for Steiner trees:
/// each new destination attaches via its BFS path, truncated at the first
/// node already in the tree, so shared prefixes are forwarded once — the
/// paper's motivation for computing (and caching) an explicit tree instead
/// of unicasting per destination.
pub fn multicast_tree(
    cube: &IncompleteHypercube,
    root: NodeLabel,
    destinations: &[NodeLabel],
) -> MulticastTree {
    let mut parent: FxHashMap<NodeLabel, NodeLabel> = FxHashMap::default();
    let mut dests: Vec<NodeLabel> = destinations.to_vec();
    dests.sort_unstable();
    dests.dedup();
    for dst in dests {
        if dst == root || parent.contains_key(&dst) {
            continue;
        }
        let Some(path) = routing::bfs_route(cube, root, dst) else {
            continue;
        };
        // Attach the path, stopping the rewrite at the first tree node
        // walking backwards from dst.
        for w in path.windows(2).rev() {
            let (p, c) = (w[0], w[1]);
            if parent.contains_key(&c) {
                break;
            }
            parent.insert(c, p);
        }
    }
    MulticastTree::from_parents(root, parent)
}

/// Dimension-order (e-cube) multicast tree in a complete cube: at each node
/// the destination set is partitioned by the lowest differing dimension and
/// forwarded along it. Classic MPP-style multicast; shortest paths for all
/// destinations, but shares prefixes only when dimension orders align.
/// Provided as an ablation alternative to [`multicast_tree`].
pub fn ecube_multicast_tree(root: NodeLabel, destinations: &[NodeLabel], dim: u8) -> MulticastTree {
    let mut parent: FxHashMap<NodeLabel, NodeLabel> = FxHashMap::default();
    let mut dests: Vec<NodeLabel> = destinations.to_vec();
    dests.sort_unstable();
    dests.dedup();
    for dst in dests {
        if dst == root {
            continue;
        }
        let path = routing::ecube_route(root, dst, dim);
        for w in path.windows(2) {
            parent.entry(w[1]).or_insert(w[0]);
        }
    }
    MulticastTree::from_parents(root, parent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_tree_spans_cube_with_dim_depth() {
        for dim in 1..=6u8 {
            let t = binomial_tree(0, dim);
            assert_eq!(t.node_count(), 1 << dim);
            assert_eq!(t.depth(), dim as u32);
            // Level sizes are binomial coefficients; check total via nodes().
            assert_eq!(t.nodes().len(), 1 << dim);
        }
    }

    #[test]
    fn binomial_tree_arbitrary_root_is_isomorphic() {
        let t = binomial_tree(0b1010, 4);
        assert_eq!(t.node_count(), 16);
        assert_eq!(t.depth(), 4);
        assert!(t.contains(0b0101));
        // Every edge is a hypercube link.
        for (p, c) in t.encode_edges() {
            assert_eq!(label::hamming(p, c), 1);
        }
    }

    #[test]
    fn binomial_root_children_are_all_bit_flips() {
        let t = binomial_tree(0, 4);
        assert_eq!(t.children_of(0), &[0b0001, 0b0010, 0b0100, 0b1000]);
    }

    #[test]
    fn multicast_tree_covers_reachable_destinations() {
        let mut cube = IncompleteHypercube::complete(4);
        cube.remove_node(0b0110);
        let dests = [0b1111, 0b0011, 0b0101, 0b0110]; // 0110 absent
        let t = multicast_tree(&cube, 0b0000, &dests);
        assert!(t.contains(0b1111));
        assert!(t.contains(0b0011));
        assert!(t.contains(0b0101));
        assert!(!t.contains(0b0110));
        // Every edge must be a usable link of the damaged cube.
        for (p, c) in t.encode_edges() {
            assert!(cube.has_link(p, c));
        }
    }

    #[test]
    fn multicast_tree_shares_common_prefixes() {
        let cube = IncompleteHypercube::complete(4);
        // Destinations clustered in the 1xxx subcube: the tree should be
        // far smaller than the sum of individual path lengths.
        let dests = [
            0b1000, 0b1001, 0b1010, 0b1011, 0b1100, 0b1101, 0b1110, 0b1111,
        ];
        let t = multicast_tree(&cube, 0b0000, &dests);
        let sum_paths: usize = dests
            .iter()
            .map(|d| label::hamming(0b0000, *d) as usize)
            .sum();
        assert!(
            t.edge_count() < sum_paths,
            "{} !< {}",
            t.edge_count(),
            sum_paths
        );
        assert!(dests.iter().all(|d| t.contains(*d)));
    }

    #[test]
    fn multicast_tree_single_destination_is_shortest_path() {
        let cube = IncompleteHypercube::complete(5);
        let t = multicast_tree(&cube, 0b00000, &[0b10101]);
        assert_eq!(t.edge_count() as u32, label::hamming(0b00000, 0b10101));
    }

    #[test]
    fn multicast_tree_empty_destinations() {
        let cube = IncompleteHypercube::complete(3);
        let t = multicast_tree(&cube, 0b000, &[]);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.edge_count(), 0);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn multicast_tree_root_in_destinations_is_ignored() {
        let cube = IncompleteHypercube::complete(3);
        let t = multicast_tree(&cube, 0b000, &[0b000, 0b001]);
        assert_eq!(t.node_count(), 2);
    }

    #[test]
    fn encode_decode_round_trip() {
        let cube = IncompleteHypercube::complete(4);
        let t = multicast_tree(&cube, 0b0000, &[0b1111, 0b0111, 0b1001]);
        let edges = t.encode_edges();
        let back = MulticastTree::decode_edges(0b0000, &edges).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn decode_rejects_double_parent() {
        let edges = vec![(0, 1), (2, 1)];
        assert!(MulticastTree::decode_edges(0, &edges).is_none());
    }

    #[test]
    fn decode_rejects_unreachable_edges() {
        let edges = vec![(0, 1), (5, 6)]; // 5 never attached to the tree
        assert!(MulticastTree::decode_edges(0, &edges).is_none());
    }

    #[test]
    fn ecube_tree_reaches_all_destinations_via_shortest_paths() {
        let dests = [0b111, 0b101, 0b010];
        let t = ecube_multicast_tree(0b000, &dests, 3);
        for d in dests {
            assert!(t.contains(d));
            // Depth of d equals Hamming distance (shortest).
            let mut hops = 0;
            let mut cur = d;
            while let Some(p) = t.parent_of(cur) {
                hops += 1;
                cur = p;
            }
            assert_eq!(hops, label::hamming(0b000, d));
        }
    }

    #[test]
    fn forwarding_load_distribution_binomial_vs_star() {
        // A node's forwarding load is its child count. The binomial tree
        // fans out over levels: the root sends dim copies and no node
        // sends more, where a naive star's root would unicast 31 times.
        let t = binomial_tree(0, 5);
        let load: Vec<usize> = t.nodes().iter().map(|&u| t.children_of(u).len()).collect();
        assert_eq!(t.children_of(0).len(), 5);
        assert_eq!(load.iter().copied().max(), Some(5));
        assert_eq!(load.iter().sum::<usize>(), t.edge_count());
    }
}
