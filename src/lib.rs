//! # hvdb — logical Hypercube-based Virtual Dynamic Backbone
//!
//! A full reproduction of **"A Novel QoS Multicast Model in Mobile Ad Hoc
//! Networks"** (Guojun Wang, Jiannong Cao, Lifan Zhang, Keith C. C. Chan,
//! Jie Wu — IPDPS 2005) as a Rust workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`geo`] | virtual-circle grid, logical identifiers (CHID/HNID/HID/MNID), spatial index |
//! | [`hypercube`] | incomplete hypercubes, routing, disjoint paths, multicast trees |
//! | [`sim`] | deterministic sharded discrete-event MANET simulator |
//! | [`traffic`] | deterministic traffic plane: seeded load generators, per-flow latency/jitter/hop histograms |
//! | [`cluster`] | mobility-prediction cluster-head election |
//! | [`core`] | the HVDB model and protocol (route maintenance, membership summaries, multicast) |
//! | [`baselines`] | flooding, shared-tree, DSM-style and SPBM-style comparison protocols |
//!
//! This facade crate re-exports everything under one roof and hosts the
//! runnable examples (`examples/`) and cross-crate integration tests
//! (`tests/`).
//!
//! ## Quickstart
//!
//! ```no_run
//! use hvdb::core::{GroupId, HvdbConfig, HvdbCore, HvdbSim, TrafficItem};
//! use hvdb::sim::{NodeId, ParSimulator, SimConfig, SimTime, RandomWaypoint};
//! use hvdb::geo::Aabb;
//!
//! let area = Aabb::from_size(800.0, 800.0);
//! let cfg = HvdbConfig::fig2(area); // the paper's 8x8-VC example
//! let sim_cfg = SimConfig { area, num_nodes: 200, ..Default::default() };
//! // 64 spatial shards on one thread: threads change wall-clock only.
//! let mobility = Box::new(RandomWaypoint::new(1.0, 5.0, 10.0));
//! let mut sim: HvdbSim = ParSimulator::new(sim_cfg, mobility, 64, 1);
//! let group = GroupId(1);
//! let members = [(NodeId(10), group), (NodeId(190), group)];
//! let traffic = vec![TrafficItem {
//!     at: SimTime::from_secs(120), src: NodeId(50), group, size: 512,
//!     ..Default::default()
//! }];
//! let core = HvdbCore::new(cfg, &members, traffic, vec![]);
//! sim.run(&core, SimTime::from_secs(180));
//! println!("delivery ratio: {:.3}", sim.stats().delivery_ratio());
//! ```

pub use hvdb_baselines as baselines;
pub use hvdb_cluster as cluster;
pub use hvdb_core as core;
pub use hvdb_geo as geo;
pub use hvdb_hypercube as hypercube;
pub use hvdb_sim as sim;
pub use hvdb_traffic as traffic;
