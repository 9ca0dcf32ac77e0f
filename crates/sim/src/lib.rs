//! # hvdb-sim — a deterministic discrete-event MANET simulator
//!
//! The HVDB paper (Wang et al., IPDPS 2005) evaluates a protocol design for
//! large-scale MANETs; reproducing its claims requires a packet-level
//! simulator, which this crate provides:
//!
//! * [`time`] — integer microsecond clock ([`SimTime`], [`SimDuration`]);
//! * [`event`] — a totally ordered event queue;
//! * [`rng`] — seeded, forkable randomness ([`SimRng`]);
//! * [`node`] / [`world`] — node population, unit-disk neighbourhoods;
//! * [`radio`] — bandwidth / latency / jitter / loss model;
//! * [`mobility`] — stationary, random-waypoint and group mobility;
//! * [`stats`] — overhead, load, delivery and latency measurement plus
//!   fairness indices (Jain, max/mean, Gini);
//! * [`fault`] — the declarative adversary & partition plane
//!   ([`FaultPlan`]): partitions with heal, regional outages, Byzantine
//!   nodes, clock/position error, injected as barrier events;
//! * [`trace`] — the deterministic structured protocol trace
//!   ([`Trace`]): typed, category-filtered, ring-bounded event records,
//!   byte-identical at every thread count;
//! * [`georoute`] — greedy location-based forwarding (GPSR-style);
//! * [`engine`] — the scenario parameters ([`SimConfig`]);
//! * [`par`] — the engine: the [`ParProtocol`] trait and the sharded
//!   [`ParSimulator`] event loop with multi-threaded window dispatch.
//!
//! Every run is a pure function of `(SimConfig, shards, protocol)`: events
//! are totally ordered, iteration is index-ordered, and all randomness
//! flows from the config seed. Coarse parallelism still belongs outside
//! the simulator (sweeps over seeds/parameters in `hvdb-bench`); *within*
//! one run, [`ParSimulator`] shards the node population and commits each
//! lookahead window in a fixed order, so its output is byte-identical at
//! every thread count.

#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod fault;
pub mod georoute;
mod lanes;
pub mod mobility;
pub mod node;
pub mod par;
pub mod radio;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;
pub mod world;

pub use engine::SimConfig;
pub use event::{EventKind, EventQueue};
pub use fault::{ByzantineMode, FaultEvent, FaultKind, FaultPlan};
pub use mobility::{Mobility, RandomWaypoint, ReferencePointGroup, Stationary};
pub use node::{Capability, NodeId};
pub use par::{EngineProfile, ParCtx, ParProtocol, ParSimulator, PhaseSlice};
pub use radio::RadioConfig;
pub use rng::SimRng;
pub use stats::{gini, jain_fairness, max_mean_ratio, sim_sec_per_wall_sec, Stats};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceConfig, TraceEvent, TraceKind};
pub use world::World;
