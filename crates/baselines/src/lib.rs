//! # hvdb-baselines — comparison protocols for the HVDB reproduction
//!
//! Behavioural models of the schemes the HVDB paper (Wang et al., IPDPS
//! 2005) positions itself against, each implemented as a
//! [`hvdb_sim::ParProtocol`] over the same engine and the same scenario
//! [`hvdb_core::Script`] as the HVDB protocol:
//!
//! * [`par_flood`] — network-wide flooding: Θ(N) per packet, no state;
//!   also the `perf` scenario's `engine-threads` workload;
//! * [`shared_tree`] — core-rooted shared tree (MAODV-style): the
//!   "tree-based architecture" whose core bottleneck the paper's
//!   load-balancing claim targets (§5);
//! * [`dsm`] — DSM-style global location/membership floods with local
//!   source-tree computation (§2.2's first critique);
//! * [`spbm`] — SPBM-style quad-tree membership aggregation where "all the
//!   nodes in the network are involved in the membership update" (§2.2's
//!   closing critique, the paper's closest competitor).
//!
//! [`common`] holds the per-node scenario state every baseline keeps, so
//! comparative runs differ only in the protocol.

#![warn(missing_docs)]

pub mod common;
pub mod dsm;
pub mod par_flood;
pub mod shared_tree;
pub mod spbm;

pub use common::Member;
pub use dsm::{DsmMsg, DsmNode, DsmProtocol};
pub use par_flood::{ParFlood, ParFloodMsg, ParFloodNode};
pub use shared_tree::{SharedTreeProtocol, TreeMsg, TreeNode};
pub use spbm::{QuadTree, SpbmMsg, SpbmNode, SpbmProtocol, Square};
