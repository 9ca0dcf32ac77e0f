//! Incomplete hypercubes with extra logical links.
//!
//! Katseff's incomplete hypercube admits any number of *nodes*; the paper
//! generalises it: "We generalize the incomplete hypercube by allowing any
//! number of nodes/links to be absent due to many reasons such as mobility,
//! transmission range, and failure of nodes" (§2.1). In the HVDB model a
//! hypercube node exists only while a cluster head occupies the
//! corresponding virtual circle, and the Fig. 3 layout additionally joins
//! grid-adjacent VCs with "additional logical links". [`IncompleteHypercube`]
//! models all three deviations from the complete cube: absent nodes, absent
//! links, and extra links.

use crate::label::{self, NodeLabel};
use rustc_hash::FxHashSet;
use serde::{Deserialize, Serialize};

/// Normalises an undirected link to (min, max) order.
#[inline]
fn key(u: NodeLabel, v: NodeLabel) -> (NodeLabel, NodeLabel) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

/// A possibly-incomplete hypercube: a `dim`-cube with a present-node set, a
/// removed-link set, and an extra-link set (logical links that are not
/// Hamming-distance-1, e.g. the grid-adjacency links of the paper's Fig. 3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IncompleteHypercube {
    dim: u8,
    /// Bitmap of present nodes, one bit per label.
    present: Vec<u64>,
    present_count: usize,
    removed_links: FxHashSet<(NodeLabel, NodeLabel)>,
    extra_links: FxHashSet<(NodeLabel, NodeLabel)>,
}

impl IncompleteHypercube {
    /// A complete `dim`-dimensional hypercube.
    ///
    /// # Panics
    /// Panics if `dim` exceeds [`label::MAX_DIM`].
    pub fn complete(dim: u8) -> Self {
        assert!(dim <= label::MAX_DIM, "dimension {dim} exceeds MAX_DIM");
        let n = label::node_count(dim);
        let words = n.div_ceil(64);
        let mut present = vec![u64::MAX; words];
        // Clear bits beyond 2^dim in the last word.
        let tail = n % 64;
        if tail != 0 {
            present[words - 1] = (1u64 << tail) - 1;
        }
        IncompleteHypercube {
            dim,
            present,
            present_count: n,
            removed_links: FxHashSet::default(),
            extra_links: FxHashSet::default(),
        }
    }

    /// An empty `dim`-cube (no nodes present); populate with
    /// [`IncompleteHypercube::add_node`].
    pub fn empty(dim: u8) -> Self {
        assert!(dim <= label::MAX_DIM, "dimension {dim} exceeds MAX_DIM");
        let words = label::node_count(dim).div_ceil(64);
        IncompleteHypercube {
            dim,
            present: vec![0; words],
            present_count: 0,
            removed_links: FxHashSet::default(),
            extra_links: FxHashSet::default(),
        }
    }

    /// Builds a cube containing exactly `nodes`.
    pub fn with_nodes(dim: u8, nodes: impl IntoIterator<Item = NodeLabel>) -> Self {
        let mut cube = Self::empty(dim);
        for n in nodes {
            cube.add_node(n);
        }
        cube
    }

    /// Dimension of the (underlying complete) cube.
    #[inline]
    pub fn dim(&self) -> u8 {
        self.dim
    }

    /// Number of present nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.present_count
    }

    /// Whether every one of the `2^dim` nodes is present and no link is
    /// removed (extra links do not affect completeness).
    pub fn is_complete(&self) -> bool {
        self.present_count == label::node_count(self.dim) && self.removed_links.is_empty()
    }

    /// Whether node `u` is present.
    #[inline]
    pub fn contains(&self, u: NodeLabel) -> bool {
        label::in_range(u, self.dim) && self.present[u as usize / 64] >> (u as usize % 64) & 1 == 1
    }

    /// Adds a node (idempotent).
    ///
    /// # Panics
    /// Panics if the label is out of range for the dimension.
    pub fn add_node(&mut self, u: NodeLabel) {
        assert!(
            label::in_range(u, self.dim),
            "label {u} out of range for dim {}",
            self.dim
        );
        if !self.contains(u) {
            self.present[u as usize / 64] |= 1 << (u as usize % 64);
            self.present_count += 1;
        }
    }

    /// Removes a node (idempotent). Links incident to an absent node are
    /// implicitly unusable; they are not tracked individually.
    pub fn remove_node(&mut self, u: NodeLabel) {
        if self.contains(u) {
            self.present[u as usize / 64] &= !(1 << (u as usize % 64));
            self.present_count -= 1;
        }
    }

    /// Removes the (hypercube or extra) link between `u` and `v`.
    pub fn remove_link(&mut self, u: NodeLabel, v: NodeLabel) {
        let k = key(u, v);
        if self.extra_links.contains(&k) {
            self.extra_links.remove(&k);
        } else {
            self.removed_links.insert(k);
        }
    }

    /// Adds an extra (non-Hamming-1) logical link, such as the paper's
    /// grid-adjacency links. Adding a Hamming-1 pair is a no-op because the
    /// link already exists structurally.
    pub fn add_extra_link(&mut self, u: NodeLabel, v: NodeLabel) {
        debug_assert!(label::in_range(u, self.dim) && label::in_range(v, self.dim));
        if label::hamming(u, v) != 1 && u != v {
            self.extra_links.insert(key(u, v));
        }
    }

    /// Whether a usable link joins `u` and `v`: both present, and either a
    /// non-removed hypercube link or an extra link.
    pub fn has_link(&self, u: NodeLabel, v: NodeLabel) -> bool {
        if !self.contains(u) || !self.contains(v) || u == v {
            return false;
        }
        let k = key(u, v);
        if self.removed_links.contains(&k) {
            return false;
        }
        label::hamming(u, v) == 1 || self.extra_links.contains(&k)
    }

    /// The usable neighbours of `u`, in ascending label order (determinism
    /// matters: simulation replays must be bit-identical).
    pub fn neighbors(&self, u: NodeLabel) -> Vec<NodeLabel> {
        if !self.contains(u) {
            return Vec::new();
        }
        let mut out: Vec<NodeLabel> = label::neighbors(u, self.dim)
            .filter(|v| self.has_link(u, *v))
            .collect();
        for (a, b) in &self.extra_links {
            if *a == u && self.has_link(u, *b) {
                out.push(*b);
            } else if *b == u && self.has_link(u, *a) {
                out.push(*a);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Iterates over present nodes in ascending label order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = NodeLabel> + '_ {
        (0..label::node_count(self.dim) as u32).filter(move |u| self.contains(*u))
    }

    /// All usable links as (u, v) with u < v, sorted.
    pub fn links(&self) -> Vec<(NodeLabel, NodeLabel)> {
        let mut out = Vec::new();
        for u in self.iter_nodes() {
            for v in self.neighbors(u) {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Whether the present nodes form a single connected component.
    pub fn is_connected(&self) -> bool {
        let Some(start) = self.iter_nodes().next() else {
            return true; // vacuously
        };
        let mut seen = vec![false; label::node_count(self.dim)];
        let mut stack = vec![start];
        seen[start as usize] = true;
        let mut count = 0usize;
        while let Some(u) = stack.pop() {
            count += 1;
            for v in self.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v);
                }
            }
        }
        count == self.present_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_cube_counts() {
        for dim in 0..=8u8 {
            let c = IncompleteHypercube::complete(dim);
            assert_eq!(c.node_count(), 1 << dim);
            assert!(c.is_complete());
            assert!(c.is_connected());
            // n * 2^(n-1) links in an n-cube.
            if dim > 0 {
                assert_eq!(c.links().len(), dim as usize * (1 << (dim - 1)));
            }
        }
    }

    #[test]
    fn neighbors_of_complete_cube_match_label_algebra() {
        let c = IncompleteHypercube::complete(4);
        let mut want: Vec<u32> = label::neighbors(0b1000, 4).collect();
        want.sort_unstable();
        assert_eq!(c.neighbors(0b1000), want);
    }

    #[test]
    fn remove_node_disconnects_its_links() {
        let mut c = IncompleteHypercube::complete(3);
        c.remove_node(0b000);
        assert!(!c.contains(0b000));
        assert_eq!(c.node_count(), 7);
        assert!(!c.has_link(0b000, 0b001));
        assert!(c.neighbors(0b001).iter().all(|v| *v != 0b000));
        assert!(c.is_connected()); // 3-cube minus a vertex stays connected
    }

    #[test]
    fn remove_link_is_selective_and_restorable() {
        let mut c = IncompleteHypercube::complete(3);
        c.remove_link(0b000, 0b001);
        assert!(!c.has_link(0b000, 0b001));
        assert!(!c.has_link(0b001, 0b000));
        assert!(c.has_link(0b000, 0b010));
    }

    #[test]
    fn extra_links_join_non_adjacent_labels() {
        let mut c = IncompleteHypercube::complete(4);
        // Fig. 3: grid-adjacent 0010 and 1000 (Hamming 2) get a logical link.
        c.add_extra_link(0b0010, 0b1000);
        assert!(c.has_link(0b0010, 0b1000));
        assert!(c.neighbors(0b1000).contains(&0b0010));
        // Removing it works through the same API.
        c.remove_link(0b1000, 0b0010);
        assert!(!c.has_link(0b0010, 0b1000));
    }

    #[test]
    fn extra_link_on_hamming_one_pair_is_noop() {
        let mut c = IncompleteHypercube::complete(3);
        c.add_extra_link(0b000, 0b001);
        c.remove_link(0b000, 0b001); // removes the structural link
        assert!(!c.has_link(0b000, 0b001));
    }

    #[test]
    fn with_nodes_builds_partial_cube() {
        let c = IncompleteHypercube::with_nodes(4, [0, 1, 3, 7, 15]);
        assert_eq!(c.node_count(), 5);
        assert!(c.contains(7));
        assert!(!c.contains(2));
        assert!(c.is_connected()); // chain 0-1-3-7-15
        assert_eq!(c.neighbors(3), vec![1, 7]);
    }

    #[test]
    fn disconnected_detection() {
        let c = IncompleteHypercube::with_nodes(3, [0b000, 0b111]);
        assert!(!c.is_connected());
        let empty = IncompleteHypercube::empty(3);
        assert!(empty.is_connected());
    }

    #[test]
    fn idempotent_add_remove() {
        let mut c = IncompleteHypercube::empty(3);
        c.add_node(5);
        c.add_node(5);
        assert_eq!(c.node_count(), 1);
        c.remove_node(5);
        c.remove_node(5);
        assert_eq!(c.node_count(), 0);
    }

    #[test]
    fn dim_zero_single_node() {
        let c = IncompleteHypercube::complete(0);
        assert_eq!(c.node_count(), 1);
        assert!(c.contains(0));
        assert!(c.neighbors(0).is_empty());
    }

    #[test]
    fn large_dim_uses_multiple_words() {
        let c = IncompleteHypercube::complete(8); // 256 nodes, 4 words
        assert_eq!(c.node_count(), 256);
        assert!(c.contains(255));
        assert!(!c.contains(256)); // out of range
    }
}
