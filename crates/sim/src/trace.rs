//! Deterministic structured protocol trace.
//!
//! A [`Trace`] is a bounded, category-filtered ring of typed
//! [`TraceEvent`] records — election rounds, head handovers, soft-state
//! expiry/suppression, fault injections, flow milestones — each carrying
//! the *true* (unskewed) sim-time and the node it happened at. Protocols
//! emit through [`crate::ParCtx::trace`]; the engine owns the buffer:
//! [`crate::ParSimulator`] collects events into shard-local buffers and
//! merges them at each window commit in `(time, node)` order — shard
//! structure does not depend on the worker-thread count, so the merged
//! trace is **byte-identical at every thread count**, the same
//! determinism contract the stats obey.
//!
//! The `FAULT` category is recorded by the engine itself from the
//! scripted [`crate::FaultPlan`] — RNG-free — one line per plan event at
//! its instant (checked in `crates/core/tests/par_protocol.rs`).
//!
//! Tracing is off by default and zero-cost when off: every emission
//! point is a single bitmask test against [`Trace::mask`] (or the
//! shard-local copy of it) before any event is constructed.

use crate::node::NodeId;
use crate::time::SimTime;
use std::collections::VecDeque;

/// Category bit: cluster-head election rounds, wins, stand-downs,
/// retirements and state handovers.
pub const ELECTION: u32 = 1 << 0;
/// Category bit: soft-state refresh transmissions/suppressions, stale
/// rejections, expiries and stamp hints.
pub const SOFT_STATE: u32 = 1 << 1;
/// Category bit: fault-plane injections (fail/recover, partition/heal,
/// regional outage, Byzantine arming, clock/position error), recorded by
/// the engine itself — deterministic across engines.
pub const FAULT: u32 = 1 << 2;
/// Category bit: data-plane flow milestones (origination, delivery).
pub const FLOW: u32 = 1 << 3;
/// Every category.
pub const ALL: u32 = ELECTION | SOFT_STATE | FAULT | FLOW;

/// The sentinel node id used for network-wide events (partition, heal,
/// regional outage) that have no single originating node.
pub const GLOBAL_NODE: NodeId = NodeId(u32::MAX);

/// Ring capacity used when a caller enables tracing without choosing one.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Parses a `--trace-filter` style category list (comma-separated
/// `election`/`soft-state`/`fault`/`flow`, or `all`) into a mask.
pub fn parse_mask(spec: &str) -> Result<u32, String> {
    let mut mask = 0u32;
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        mask |= match part {
            "all" => ALL,
            "election" => ELECTION,
            "soft-state" => SOFT_STATE,
            "fault" => FAULT,
            "flow" => FLOW,
            other => {
                return Err(format!(
                    "unknown trace category `{other}` (expected election, soft-state, fault, flow or all)"
                ))
            }
        };
    }
    if mask == 0 {
        return Err(
            "empty trace filter (expected election, soft-state, fault, flow or all)".into(),
        );
    }
    Ok(mask)
}

/// The category names selected by `mask`, in bit order.
pub fn mask_names(mask: u32) -> Vec<&'static str> {
    let mut out = Vec::new();
    if mask & ELECTION != 0 {
        out.push("election");
    }
    if mask & SOFT_STATE != 0 {
        out.push("soft-state");
    }
    if mask & FAULT != 0 {
        out.push("fault");
    }
    if mask & FLOW != 0 {
        out.push("flow");
    }
    out
}

/// What happened. Payloads are kept to plain integers so events are
/// `Copy` and render identically everywhere; the virtual-circle id is
/// carried as its `(row, col)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A node opened an election round: broadcast its candidacy for `vc`.
    ElectionStart {
        /// The virtual circle campaigned for, as `(row, col)`.
        vc: (u16, u16),
    },
    /// The decide phase ended with this node winning headship of `vc`.
    ElectionWin {
        /// The virtual circle won, as `(row, col)`.
        vc: (u16, u16),
        /// The designation term announced with the win.
        term: u64,
    },
    /// A sitting head lost its round and resigned, handing state over.
    StandDown {
        /// The virtual circle resigned, as `(row, col)`.
        vc: (u16, u16),
        /// The winning rival the state handover is addressed to.
        to: u32,
    },
    /// A head drifted out of its virtual circle and retired.
    HeadRetire {
        /// The virtual circle vacated, as `(row, col)`.
        vc: (u16, u16),
    },
    /// A predecessor's handover was folded into this head's database.
    HandoverApplied {
        /// The virtual circle the handover belongs to, as `(row, col)`.
        vc: (u16, u16),
    },
    /// A soft-state refresh frame was originated.
    RefreshSent,
    /// The adaptive controller suppressed `n` due refreshes.
    RefreshSuppressed {
        /// How many refresh transmissions were skipped.
        n: u64,
    },
    /// A stale (older-stamp) update was rejected.
    StaleSuppressed,
    /// `n` soft-state entries aged out.
    SoftExpired {
        /// How many entries were pruned.
        n: u64,
    },
    /// A stamp hint was sent to refresh a peer holding stale state.
    StampHint,
    /// A tracked data-plane flow originated a packet.
    FlowOrigin {
        /// Flow id.
        flow: u32,
        /// Sequence number within the flow.
        seq: u32,
    },
    /// A data packet reached a group member.
    Delivered {
        /// Forwarding hops the packet took.
        hops: u32,
    },
    /// Fault plane: the node failed (fail-stop).
    NodeFailed,
    /// Fault plane: the node came back up.
    NodeRecovered,
    /// Fault plane: a regional outage felled `victims` nodes.
    RegionFailed {
        /// How many nodes the region contained.
        victims: u32,
    },
    /// Fault plane: the network split into `islands` radio islands.
    PartitionApplied {
        /// Number of islands.
        islands: u32,
    },
    /// Fault plane: the partition healed.
    PartitionHealed,
    /// Fault plane: a node was armed with a Byzantine mode.
    ByzantineSet {
        /// Mode discriminant: 0 selective-forward, 1 replay-stale,
        /// 2 bogus-candidacy.
        mode: u8,
    },
    /// Fault plane: the node's clock was skewed.
    ClockSkewSet {
        /// The injected skew in microseconds.
        skew_us: i64,
    },
    /// Fault plane: the node's GPS reading was displaced.
    PositionErrorSet,
}

impl TraceKind {
    /// The category bit this event belongs to.
    #[inline]
    pub fn category(&self) -> u32 {
        use TraceKind::*;
        match self {
            ElectionStart { .. }
            | ElectionWin { .. }
            | StandDown { .. }
            | HeadRetire { .. }
            | HandoverApplied { .. } => ELECTION,
            RefreshSent
            | RefreshSuppressed { .. }
            | StaleSuppressed
            | SoftExpired { .. }
            | StampHint => SOFT_STATE,
            FlowOrigin { .. } | Delivered { .. } => FLOW,
            NodeFailed
            | NodeRecovered
            | RegionFailed { .. }
            | PartitionApplied { .. }
            | PartitionHealed
            | ByzantineSet { .. }
            | ClockSkewSet { .. }
            | PositionErrorSet => FAULT,
        }
    }

    /// A short stable name (Chrome-trace event names, summaries).
    pub fn name(&self) -> &'static str {
        use TraceKind::*;
        match self {
            ElectionStart { .. } => "election-start",
            ElectionWin { .. } => "election-win",
            StandDown { .. } => "stand-down",
            HeadRetire { .. } => "head-retire",
            HandoverApplied { .. } => "handover-applied",
            RefreshSent => "refresh-sent",
            RefreshSuppressed { .. } => "refresh-suppressed",
            StaleSuppressed => "stale-suppressed",
            SoftExpired { .. } => "soft-expired",
            StampHint => "stamp-hint",
            FlowOrigin { .. } => "flow-origin",
            Delivered { .. } => "delivered",
            NodeFailed => "node-failed",
            NodeRecovered => "node-recovered",
            RegionFailed { .. } => "region-failed",
            PartitionApplied { .. } => "partition",
            PartitionHealed => "heal",
            ByzantineSet { .. } => "byzantine-set",
            ClockSkewSet { .. } => "clock-skew",
            PositionErrorSet => "position-error",
        }
    }
}

/// One trace record: *true* engine time (clock-skew faults never colour
/// the trace), the node it happened at ([`GLOBAL_NODE`] for network-wide
/// fault events), and what happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// True simulation time of the event.
    pub at: SimTime,
    /// The node the event happened at, or [`GLOBAL_NODE`].
    pub node: NodeId,
    /// What happened.
    pub kind: TraceKind,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:>12} ", self.at.0)?;
        if self.node == GLOBAL_NODE {
            write!(f, "[net]   ")?;
        } else {
            write!(f, "n{:<6} ", self.node.0)?;
        }
        write!(f, "{:?}", self.kind)
    }
}

/// Trace configuration: which categories to record and how many events
/// the ring keeps. The default is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceConfig {
    /// Category bitmask ([`ELECTION`] | [`SOFT_STATE`] | [`FAULT`] |
    /// [`FLOW`]); 0 disables tracing entirely.
    pub mask: u32,
    /// Ring capacity; 0 means [`DEFAULT_CAPACITY`] when a mask is set.
    pub capacity: usize,
}

impl TraceConfig {
    /// Everything on, default capacity.
    pub fn all() -> Self {
        TraceConfig {
            mask: ALL,
            capacity: DEFAULT_CAPACITY,
        }
    }

    /// The given categories on, default capacity.
    pub fn with_mask(mask: u32) -> Self {
        TraceConfig {
            mask,
            capacity: DEFAULT_CAPACITY,
        }
    }
}

/// The bounded, category-filtered event ring an engine owns. When the
/// ring is full the *oldest* event is dropped (and counted), so the
/// trace always holds the most recent history.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    mask: u32,
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Trace {
    /// Builds a trace from `cfg` (a zero capacity with a non-zero mask
    /// falls back to [`DEFAULT_CAPACITY`]).
    pub fn new(cfg: TraceConfig) -> Self {
        let capacity = if cfg.mask != 0 && cfg.capacity == 0 {
            DEFAULT_CAPACITY
        } else {
            cfg.capacity
        };
        Trace {
            mask: cfg.mask,
            capacity,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Reconfigures the trace, clearing any recorded events.
    pub fn configure(&mut self, cfg: TraceConfig) {
        *self = Trace::new(cfg);
    }

    /// The active category mask (0 = tracing off).
    #[inline]
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// Whether any category in `cat` is being recorded.
    #[inline]
    pub fn enabled(&self, cat: u32) -> bool {
        self.mask & cat != 0
    }

    /// Records one event if its category is enabled.
    #[inline]
    pub fn record(&mut self, at: SimTime, node: NodeId, kind: TraceKind) {
        if self.mask & kind.category() != 0 {
            self.push(TraceEvent { at, node, kind });
        }
    }

    /// Appends an already-filtered event, applying the ring bound. Used
    /// by the parallel engine's commit merge (shard buffers are filtered
    /// at emission).
    pub fn push(&mut self, ev: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded (or tracing is off).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// How many events the ring bound evicted.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the trace one event per line — the stable byte form the
    /// determinism tests compare and `--trace-out` exports embed.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for ev in &self.events {
            writeln!(out, "{ev}").expect("string write cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_by_default_and_zero_cost_shape() {
        let mut t = Trace::default();
        assert_eq!(t.mask(), 0);
        t.record(SimTime(5), NodeId(1), TraceKind::RefreshSent);
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn category_filter_applies() {
        let mut t = Trace::new(TraceConfig::with_mask(ELECTION));
        t.record(SimTime(1), NodeId(0), TraceKind::RefreshSent);
        t.record(
            SimTime(2),
            NodeId(0),
            TraceKind::ElectionStart { vc: (1, 2) },
        );
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.events().next().unwrap().kind,
            TraceKind::ElectionStart { vc: (1, 2) }
        );
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut t = Trace::new(TraceConfig {
            mask: ALL,
            capacity: 3,
        });
        for i in 0..5u64 {
            t.record(SimTime(i), NodeId(i as u32), TraceKind::StaleSuppressed);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let first = t.events().next().unwrap();
        assert_eq!(first.at, SimTime(2));
    }

    #[test]
    fn mask_parsing_round_trips() {
        assert_eq!(parse_mask("all").unwrap(), ALL);
        assert_eq!(parse_mask("election,fault").unwrap(), ELECTION | FAULT);
        assert_eq!(parse_mask("soft-state").unwrap(), SOFT_STATE);
        assert!(parse_mask("bogus").is_err());
        assert!(parse_mask("").is_err());
        assert_eq!(mask_names(ELECTION | FLOW), vec!["election", "flow"]);
    }

    #[test]
    fn zero_capacity_with_mask_gets_default() {
        let t = Trace::new(TraceConfig {
            mask: FAULT,
            capacity: 0,
        });
        assert!(t.enabled(FAULT));
        let mut t = t;
        t.record(SimTime(1), GLOBAL_NODE, TraceKind::PartitionHealed);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn render_is_stable() {
        let mut t = Trace::new(TraceConfig::all());
        t.record(
            SimTime(123),
            NodeId(7),
            TraceKind::ElectionWin {
                vc: (0, 3),
                term: 2,
            },
        );
        t.record(
            SimTime(456),
            GLOBAL_NODE,
            TraceKind::PartitionApplied { islands: 2 },
        );
        let r = t.render();
        assert!(r.contains("n7"));
        assert!(r.contains("[net]"));
        assert!(r.contains("ElectionWin { vc: (0, 3), term: 2 }"));
        assert_eq!(r.lines().count(), 2);
    }
}
