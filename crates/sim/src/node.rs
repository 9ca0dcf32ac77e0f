//! Node identity and hardware class. Per-node simulation state lives in
//! [`crate::World`] (position, liveness) and in the engine's shards.

use serde::{Deserialize, Serialize};

/// Identifier of a mobile node. Dense (0..n), usable as a vector index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's index into per-node vectors.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Hardware class of a node.
///
/// The paper's second stability assumption (§3): "We assume MNs have
/// different computation and communications capabilities, with the CHs
/// having stronger capability than others … e.g., in a battlefield, a mobile
/// device equipped on a tank can have stronger capability than the one
/// equipped for a foot soldier." Only [`Capability::Enhanced`] nodes are
/// eligible for cluster-head election.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Capability {
    /// Ordinary node (foot soldier): host only.
    Regular,
    /// Backbone-capable node (tank): may be elected cluster head.
    Enhanced,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_is_dense_index() {
        assert_eq!(NodeId(7).idx(), 7);
        assert_eq!(NodeId(7).to_string(), "n7");
    }
}
