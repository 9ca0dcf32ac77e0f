//! # hvdb-core — the logical Hypercube-based Virtual Dynamic Backbone
//!
//! Reproduction of the primary contribution of *"A Novel QoS Multicast
//! Model in Mobile Ad Hoc Networks"* (Wang, Cao, Zhang, Chan, Wu —
//! IPDPS 2005): the HVDB three-tier model and its three algorithms.
//!
//! * [`model`] — system parameters (§4.1) and snapshot backbone
//!   construction (§3): clustering tier, incomplete hypercubes with the
//!   Fig. 3 grid links, occupied mesh nodes;
//! * [`routes`] — proactive local logical route maintenance (Fig. 4):
//!   QoS-annotated bounded distance-vector tables with disjoint
//!   alternatives. §5's instant failover is [`RouteTable::remove_via`]
//!   promoting the next alternative, counted in
//!   [`Counters::route_failovers`];
//! * [`summary`] / [`membership`] — summary-based membership update
//!   (Fig. 5): Local-Membership → MNT-Summary → HT-Summary → MT-Summary,
//!   plus the two designated-broadcaster criteria of §4.2;
//! * [`tree`] — mesh-tier multicast trees with header encapsulation;
//! * [`softstate`] — generation-stamped soft-state primitives (monotone
//!   origin clocks, stale suppression, K-miss expiry) backing the
//!   control plane's loss robustness;
//! * [`packet`] — over-the-air message formats and wire sizes;
//! * [`protocol`] — the full distributed protocol ([`HvdbCore`] over
//!   per-node [`HvdbNode`] state) on the `hvdb-sim` engine, implementing
//!   logical location-based multicast routing (Fig. 6), plus the scenario
//!   [`Script`] every protocol, HVDB and baselines alike, reads.

#![warn(missing_docs)]

pub mod frame;
pub mod membership;
pub mod model;
pub mod packet;
pub mod protocol;
pub mod routes;
pub mod softstate;
pub mod summary;
pub mod tree;

pub use frame::{FrameBytes, FrameCtx};
pub use membership::MembershipDb;
pub use model::{
    build_model, build_region_cube, region_center, BackboneStats, DesignationCriterion, GroupEvent,
    HvdbConfig, HvdbModel, TrafficItem,
};
pub use packet::{ChMsg, GeoPacket, GeoTarget, HvdbMsg};
pub use protocol::{
    cluster_heads, total_counters, Counters, HvdbCore, HvdbNode, HvdbSim, Script, TAG_GROUP_BASE,
    TAG_TRAFFIC_BASE,
};
pub use routes::{AdvertisedRoute, QosMetrics, RouteEntry, RouteTable};
pub use softstate::refresh::RefreshController;
pub use softstate::{miss_deadline, Freshness, GenClock, SoftEntry, SoftStore};
pub use summary::{GroupId, HtSummary, LocalMembership, MntSummary, MtSummary};
pub use tree::{mesh_path, MeshTree};
