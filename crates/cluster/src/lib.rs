//! # hvdb-cluster — mobility-prediction location-based clustering
//!
//! The HVDB model's Mobile Node Tier (Wang et al., IPDPS 2005, §3) groups
//! MNs into clusters over the virtual-circle grid using the mobility
//! prediction and location-based clustering technique of Sivavakeesar,
//! Pavlou and Liotta (WCNC 2004) — reference \[23\] of the paper. Since that
//! system is not available as open source, this crate implements the two
//! published election criteria directly:
//!
//! 1. highest predicted residence time within the cluster's virtual circle
//!    (computed geometrically from position and velocity), and
//! 2. minimum distance from the virtual circle centre,
//!
//! restricted to CH-capable hardware (paper §3's capability assumption).
//!
//! Modules: [`election`] (scoring and election), [`cluster`] (snapshot
//! cluster formation with overlap membership), [`maintenance`] (handover
//! events and stability measurement), [`lease`] (generation-stamped
//! head tracking consumed by the distributed protocol's members).

#![warn(missing_docs)]

pub mod cluster;
pub mod election;
pub mod lease;
pub mod maintenance;

pub use cluster::{form_clusters, Clustering};
pub use election::{elect, Candidate};
pub use lease::{HeadLease, LeaseUpdate};
pub use maintenance::{diff, Handover, StabilityReport};
