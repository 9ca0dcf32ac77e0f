//! Declarative fault injection: the adversary & partition plane.
//!
//! Real ad-hoc deployments see failure modes far richer than uniform
//! frame loss: the network splits into islands and later re-merges,
//! whole regions go dark together (jamming, terrain, a destroyed
//! vehicle cluster), individual nodes misbehave (replaying stale state,
//! bidding for cluster-head roles they should not win, silently
//! dropping frames they agreed to forward), and clocks and GPS readings
//! drift. This module expresses all of them as one typed, declarative,
//! seed-deterministic schedule — a [`FaultPlan`] of [`FaultEvent`]s —
//! that the engine ([`crate::ParSimulator::inject_plan`]) executes as
//! serial barrier events.
//!
//! The design rule, borrowed from production fault-injection harnesses:
//! **faults live in the radio/world layer, never in protocol code**.
//! Partitions gate frame delivery inside the engine send paths,
//! Byzantine modes intercept the misbehaving node's own transmissions,
//! and clock/position error skews only what the protocol *observes*
//! ([`crate::ParCtx::now`] / [`crate::ParCtx::position`]) — the protocol
//! under test runs unmodified, and the engine's thread count stays
//! invisible because every fault application is a barrier between
//! lookahead windows.
//!
//! ```
//! use hvdb_sim::{FaultPlan, NodeId, SimTime, SimDuration, ByzantineMode};
//! use hvdb_geo::{Point, Vec2};
//!
//! let plan = FaultPlan::new()
//!     .partition(
//!         SimTime::from_secs(40),
//!         vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]],
//!     )
//!     .heal(SimTime::from_secs(80))
//!     .fail_region(SimTime::from_secs(100), Point::new(400.0, 400.0), 150.0)
//!     .byzantine(
//!         SimTime::from_secs(10),
//!         NodeId(7),
//!         ByzantineMode::SelectiveForward { drop_prob: 0.9 },
//!     )
//!     .clock_skew(SimTime::from_secs(5), NodeId(3), -250_000)
//!     .position_error(SimTime::from_secs(5), NodeId(3), Vec2::new(30.0, -10.0));
//! assert_eq!(plan.len(), 6);
//! ```

use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};
use hvdb_geo::{Point, Vec2};

/// How a Byzantine (misbehaving) node deviates from the protocol. All
/// modes are enforced in the engine's send paths against the
/// misbehaving node itself — the protocol code keeps running unmodified
/// and simply experiences the consequences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ByzantineMode {
    /// The node silently drops each frame it would transmit with
    /// probability `drop_prob` (selective forwarding / grey hole): it
    /// still participates in the protocol, but the traffic routed
    /// through it leaks away.
    SelectiveForward {
        /// Per-frame drop probability in `[0, 1]`.
        drop_prob: f64,
    },
    /// The node re-transmits a duplicate of every frame it sends,
    /// `delay` after the original arrival — stale-stamp replay. The
    /// duplicates carry the original (by then outdated) payload, so
    /// soft-state receivers must suppress them by generation stamp.
    ReplayStale {
        /// Lag between the genuine arrival and the replayed duplicate.
        delay: SimDuration,
    },
    /// The node advertises [`crate::Capability::Enhanced`] hardware it
    /// does not have (a bogus cluster-head candidacy bid) and, having
    /// won roles it cannot serve, drops each frame it would forward
    /// with probability `drop_prob`.
    BogusCandidacy {
        /// Per-frame drop probability in `[0, 1]` once roles are won.
        drop_prob: f64,
    },
}

impl ByzantineMode {
    /// A stable small-integer discriminant for trace records:
    /// 0 selective-forward, 1 replay-stale, 2 bogus-candidacy.
    #[inline]
    pub fn code(&self) -> u8 {
        match self {
            ByzantineMode::SelectiveForward { .. } => 0,
            ByzantineMode::ReplayStale { .. } => 1,
            ByzantineMode::BogusCandidacy { .. } => 2,
        }
    }

    /// The per-transmission drop probability this mode applies (0 for
    /// modes that never drop).
    #[inline]
    pub fn drop_prob(&self) -> f64 {
        match *self {
            ByzantineMode::SelectiveForward { drop_prob } => drop_prob,
            ByzantineMode::BogusCandidacy { drop_prob } => drop_prob,
            ByzantineMode::ReplayStale { .. } => 0.0,
        }
    }

    /// The replay lag this mode applies to successfully sent frames
    /// (`None` for modes that never replay).
    #[inline]
    pub fn replay_delay(&self) -> Option<SimDuration> {
        match *self {
            ByzantineMode::ReplayStale { delay } => Some(delay),
            _ => None,
        }
    }
}

/// One fault, applied atomically at its scheduled instant. Every kind
/// runs as a serial barrier in the engine: the world mutates between
/// lookahead windows, so thread count cannot influence outcomes.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Fail-stop: the node goes down (frames to/from it drop, timers
    /// skip, [`crate::ParProtocol::on_fail`] fires).
    Fail(NodeId),
    /// The node comes back up with an idle radio
    /// ([`crate::ParProtocol::on_recover`] fires).
    Recover(NodeId),
    /// The network splits into islands: frames may only be delivered
    /// between nodes of the same island (the radio model drops the
    /// rest as [`crate::Stats::drops_partitioned`]). Nodes absent from
    /// every group share island 0 with the first group. A new
    /// partition replaces any previous one.
    Partition(Vec<Vec<NodeId>>),
    /// Removes the active partition: full radio connectivity returns
    /// and the split head hierarchies must re-merge.
    Heal,
    /// Correlated regional outage: every alive node within `radius` of
    /// `center` fails together (one barrier, ascending id order).
    FailRegion {
        /// Centre of the outage disc.
        center: Point,
        /// Radius of the outage disc in metres.
        radius: f64,
    },
    /// The node starts misbehaving in the given [`ByzantineMode`].
    /// [`ByzantineMode::BogusCandidacy`] additionally flips the node's
    /// hardware class to [`crate::Capability::Enhanced`] at injection.
    Byzantine {
        /// The misbehaving node.
        node: NodeId,
        /// How it misbehaves.
        mode: ByzantineMode,
    },
    /// The node's clock reads `skew_us` microseconds off true
    /// simulation time from now on (clamped at zero): every
    /// [`crate::ParCtx::now`] observation the protocol makes at this node
    /// is skewed, while engine-internal scheduling stays exact.
    ClockSkew {
        /// The node whose clock drifts.
        node: NodeId,
        /// Offset in microseconds (negative = clock runs behind).
        skew_us: i64,
    },
    /// The node's GPS reads `error` off its true position from now on:
    /// every [`crate::ParCtx::position`] observation of this node is
    /// displaced, while true positions keep driving radio reachability
    /// and the spatial index.
    PositionError {
        /// The node whose GPS drifts.
        node: NodeId,
        /// Reported-minus-true displacement in metres.
        error: Vec2,
    },
}

/// A [`FaultKind`] bound to its injection instant.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault applies (absolute simulation time).
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A declarative schedule of faults, built once and injected into the
/// engine via `inject_plan`. Construction is pure data — no RNG, no
/// engine handle — so the same plan replays bit-identically at every
/// thread count and serializes into benchmark reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an already-built [`FaultEvent`].
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// Schedules a fail-stop fault at `node`.
    pub fn fail(mut self, at: SimTime, node: NodeId) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::Fail(node),
        });
        self
    }

    /// Schedules a recovery of `node`.
    pub fn recover(mut self, at: SimTime, node: NodeId) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::Recover(node),
        });
        self
    }

    /// Schedules a network partition into the given islands.
    pub fn partition(mut self, at: SimTime, groups: Vec<Vec<NodeId>>) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::Partition(groups),
        });
        self
    }

    /// Schedules the heal of the active partition.
    pub fn heal(mut self, at: SimTime) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::Heal,
        });
        self
    }

    /// Schedules a correlated regional outage (disc of `radius` around
    /// `center`).
    pub fn fail_region(mut self, at: SimTime, center: Point, radius: f64) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::FailRegion { center, radius },
        });
        self
    }

    /// Schedules `node` to start misbehaving in `mode`.
    pub fn byzantine(mut self, at: SimTime, node: NodeId, mode: ByzantineMode) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::Byzantine { node, mode },
        });
        self
    }

    /// Schedules `node`'s clock to read `skew_us` microseconds off true
    /// time.
    pub fn clock_skew(mut self, at: SimTime, node: NodeId, skew_us: i64) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::ClockSkew { node, skew_us },
        });
        self
    }

    /// Schedules `node`'s GPS to read `error` off its true position.
    pub fn position_error(mut self, at: SimTime, node: NodeId, error: Vec2) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::PositionError { node, error },
        });
        self
    }

    /// The scheduled events, in insertion order (the engines' event
    /// queues order them by time with insertion-order tie-breaking).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_preserves_insertion_order() {
        let plan = FaultPlan::new()
            .heal(SimTime::from_secs(9))
            .fail(SimTime::from_secs(1), NodeId(3));
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.events()[0].kind, FaultKind::Heal);
        assert_eq!(plan.events()[1].kind, FaultKind::Fail(NodeId(3)));
        assert_eq!(plan.events()[1].at, SimTime::from_secs(1));
    }

    #[test]
    fn byzantine_mode_helpers() {
        let sf = ByzantineMode::SelectiveForward { drop_prob: 0.7 };
        let rp = ByzantineMode::ReplayStale {
            delay: SimDuration::from_secs(2),
        };
        let bc = ByzantineMode::BogusCandidacy { drop_prob: 0.4 };
        assert_eq!(sf.drop_prob(), 0.7);
        assert_eq!(bc.drop_prob(), 0.4);
        assert_eq!(rp.drop_prob(), 0.0);
        assert_eq!(rp.replay_delay(), Some(SimDuration::from_secs(2)));
        assert_eq!(sf.replay_delay(), None);
        assert_eq!(bc.replay_delay(), None);
    }

    #[test]
    fn push_appends_prebuilt_events() {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            at: SimTime::from_secs(5),
            kind: FaultKind::ClockSkew {
                node: NodeId(1),
                skew_us: -100,
            },
        });
        assert_eq!(plan.len(), 1);
    }
}
