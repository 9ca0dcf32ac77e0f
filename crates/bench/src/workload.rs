//! Scenario generation for the experiments.
//!
//! Every experiment builds its scenario through [`Workload`], so HVDB and
//! every baseline see byte-identical inputs (same node placement seed, same
//! membership, same traffic schedule).

use hvdb_core::{GroupEvent, GroupId, HvdbConfig, TrafficItem};
use hvdb_geo::Aabb;
use hvdb_sim::{
    FaultPlan, Mobility, NodeId, RadioConfig, RandomWaypoint, SimConfig, SimDuration, SimRng,
    SimTime, Stationary,
};
use hvdb_traffic::TrafficSpec;
use serde::{Deserialize, Serialize};

/// Mobility regimes used across experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MobilityKind {
    /// No movement (membership/overhead experiments).
    Static,
    /// Random waypoint with the given (min, max) speed in m/s.
    Waypoint(f64, f64),
}

impl MobilityKind {
    /// Instantiates the mobility model.
    pub fn build(&self) -> Box<dyn Mobility> {
        match self {
            MobilityKind::Static => Box::new(Stationary),
            MobilityKind::Waypoint(lo, hi) => Box::new(RandomWaypoint::new(*lo, *hi, 10.0)),
        }
    }
}

/// A complete scenario description.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Deployment area side (square), metres.
    pub side: f64,
    /// Node count.
    pub nodes: usize,
    /// VC grid side (rows = cols).
    pub vc_side: u16,
    /// Hypercube dimension.
    pub dim: u8,
    /// Radio range (metres).
    pub range: f64,
    /// Independent per-receiver frame-loss probability (the `loss`
    /// robustness sweep's axis; 0 everywhere else).
    pub loss_prob: f64,
    /// Mobility regime.
    pub mobility: MobilityKind,
    /// Number of multicast groups.
    pub groups: usize,
    /// Members per group.
    pub members_per_group: usize,
    /// Data packets per group.
    pub packets_per_group: usize,
    /// Payload bytes per packet.
    pub payload: usize,
    /// Warm-up before traffic starts (backbone + membership convergence).
    pub warmup: SimDuration,
    /// Traffic window length.
    pub traffic_window: SimDuration,
    /// Cool-down after the last send.
    pub cooldown: SimDuration,
    /// Fraction of nodes with CH-class hardware.
    pub enhanced_fraction: f64,
    /// Scripted membership churn: this many join/leave events (drawn
    /// deterministically from the seed, alternating join-heavy) spread
    /// over the traffic window. 0 = a quiet control plane (the
    /// `overhead` scenario's baseline phase).
    pub churn_events: usize,
    /// Shaped traffic-plane load ([`hvdb_traffic::TrafficSpec`]): when
    /// set, the data traffic is generated by seeded per-flow sources
    /// (CBR/Poisson/on-off, staggered group sessions) *instead of* the
    /// legacy `packets_per_group` uniform draw, and every packet carries
    /// its flow id and sequence number so the simulator's per-flow
    /// latency/jitter/hop accounting engages.
    pub traffic_spec: Option<TrafficSpec>,
    /// Sender interface-queue cap ([`RadioConfig::max_queue`]): sends
    /// attempted beyond this much queued airtime are refused at the
    /// interface (`drops_queue_full`). `ZERO` (default) = unbounded
    /// backlog, the legacy behaviour.
    pub queue_cap: SimDuration,
    /// Compact delivery accounting ([`SimConfig::compact_delivery`]):
    /// counters-only origins for heavy traffic-plane runs.
    pub compact_delivery: bool,
    /// Master seed.
    pub seed: u64,
    /// Worker threads of the run's engine ([`hvdb_sim::ParSimulator`]).
    /// Any value produces byte-identical results — the engine's
    /// determinism contract — so this is purely a wall-clock knob.
    pub threads: usize,
    /// Scripted fault plane ([`hvdb_sim::FaultPlan`]), the one way to
    /// script a fault: fail-stop and recovery, partitions with heal,
    /// regional outages, Byzantine nodes and clock/position error,
    /// passed to the scenario unchanged. Note the boundary:
    /// `churn_events` stays separate because membership churn is
    /// *protocol input* (join/leave requests the protocol must serve),
    /// whereas the fault plan attacks the *environment* underneath it.
    pub faults: FaultPlan,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            side: 1600.0,
            nodes: 300,
            vc_side: 8,
            dim: 4,
            range: 450.0,
            loss_prob: 0.0,
            mobility: MobilityKind::Static,
            groups: 2,
            members_per_group: 10,
            packets_per_group: 10,
            payload: 512,
            warmup: SimDuration::from_secs(120),
            traffic_window: SimDuration::from_secs(40),
            cooldown: SimDuration::from_secs(40),
            enhanced_fraction: 0.8,
            churn_events: 0,
            traffic_spec: None,
            queue_cap: SimDuration::ZERO,
            compact_delivery: false,
            seed: 1,
            threads: 1,
            faults: FaultPlan::new(),
        }
    }
}

/// The materialised scenario inputs shared by all protocols.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Simulator configuration.
    pub sim: SimConfig,
    /// HVDB configuration (derived system parameters).
    pub hvdb: HvdbConfig,
    /// Initial group membership.
    pub members: Vec<(NodeId, GroupId)>,
    /// Scripted traffic.
    pub traffic: Vec<TrafficItem>,
    /// Scripted membership changes (empty unless an experiment adds some).
    pub group_events: Vec<GroupEvent>,
    /// The fault plan ([`Workload::faults`]), injected verbatim into every
    /// protocol's run so fault comparisons stay apples-to-apples.
    pub faults: FaultPlan,
    /// Simulation end time.
    pub until: SimTime,
    /// The mobility regime (each run builds its own model instance).
    pub mobility_kind: MobilityKind,
    /// Worker threads of the run's engine (from [`Workload::threads`]).
    pub threads: usize,
}

impl Workload {
    /// Materialises the scenario: deterministic membership and traffic from
    /// the seed.
    pub fn build(&self) -> Scenario {
        let area = Aabb::from_size(self.side, self.side);
        let sim = SimConfig {
            area,
            num_nodes: self.nodes,
            radio: RadioConfig {
                range: self.range,
                loss_prob: self.loss_prob,
                max_queue: self.queue_cap,
                ..Default::default()
            },
            mobility_tick: match self.mobility {
                MobilityKind::Static => SimDuration::ZERO,
                _ => SimDuration::from_secs(1),
            },
            enhanced_fraction: self.enhanced_fraction,
            seed: self.seed,
            compact_delivery: self.compact_delivery,
        };
        let hvdb = HvdbConfig::new(area, self.vc_side, self.vc_side, self.dim);
        // Deterministic membership and traffic from a scenario-level RNG
        // (independent of the simulator's internal streams).
        let mut rng = SimRng::new(self.seed ^ 0x5EED_CAFE);
        let mut members = Vec::new();
        for g in 0..self.groups {
            let gid = GroupId(g as u32 + 1);
            let chosen = rng.sample_indices(self.nodes, self.members_per_group.min(self.nodes));
            for m in chosen {
                members.push((NodeId(m as u32), gid));
            }
        }
        let mut traffic = Vec::new();
        let window = self.traffic_window.0.max(1);
        if let Some(spec) = &self.traffic_spec {
            // Traffic-plane load: seeded per-flow sources. Each flow
            // streams from one node for the whole window; sources are
            // drawn from the scenario stream in flow-id order.
            let srcs: Vec<NodeId> = (0..spec.flow_count(self.groups))
                .map(|_| NodeId(rng.index(self.nodes) as u32))
                .collect();
            for p in spec.schedule(self.groups, window, self.seed) {
                traffic.push(TrafficItem {
                    at: SimTime(self.warmup.0 + p.at_us),
                    src: srcs[p.flow as usize],
                    group: GroupId(p.group + 1),
                    size: p.size,
                    flow: p.flow,
                    seq: p.seq,
                });
            }
        } else {
            for g in 0..self.groups {
                let gid = GroupId(g as u32 + 1);
                for _ in 0..self.packets_per_group {
                    let src = NodeId(rng.index(self.nodes) as u32);
                    let at = SimTime(self.warmup.0 + rng.range_u64(0, window));
                    traffic.push(TrafficItem {
                        at,
                        src,
                        group: gid,
                        size: self.payload,
                        ..Default::default()
                    });
                }
            }
        }
        traffic.sort_by_key(|t| (t.at, t.src));
        // Scripted membership churn: join/leave events over the traffic
        // window from an independent stream. Two joins per leave keeps
        // groups populated for the whole run (delivery accounting reads
        // ground truth at send time, so churn and traffic compose).
        let mut group_events = Vec::new();
        if self.churn_events > 0 && self.groups > 0 {
            let mut crng = SimRng::new(self.seed ^ 0xC4_0412_CAFE);
            for i in 0..self.churn_events {
                let gid = GroupId(crng.index(self.groups) as u32 + 1);
                let node = NodeId(crng.index(self.nodes) as u32);
                group_events.push(GroupEvent {
                    at: SimTime(self.warmup.0 + crng.range_u64(0, window)),
                    node,
                    group: gid,
                    join: i % 3 != 2,
                });
            }
            group_events.sort_by_key(|e| (e.at, e.node, e.group.0));
        }
        let until = SimTime(self.warmup.0 + self.traffic_window.0 + self.cooldown.0);
        Scenario {
            sim,
            hvdb,
            members,
            traffic,
            group_events,
            faults: self.faults.clone(),
            until,
            mobility_kind: self.mobility,
            threads: self.threads,
        }
    }

    /// A shrunk copy for smoke testing: a handful of nodes, a ~1-second
    /// simulation, one seed's worth of everything. Numbers produced under
    /// smoke are meaningless (the backbone has no time to converge); the
    /// point is that the full pipeline — scenario construction, run,
    /// metrics, JSON — executes quickly.
    pub fn smoke(&self) -> Workload {
        Workload {
            nodes: self.nodes.min(40),
            side: self.side.min(800.0),
            groups: self.groups.min(2),
            members_per_group: self.members_per_group.min(3),
            packets_per_group: self.packets_per_group.min(2),
            churn_events: self.churn_events.min(3),
            warmup: SimDuration::from_millis(400),
            traffic_window: SimDuration::from_millis(300),
            cooldown: SimDuration::from_millis(300),
            ..self.clone()
        }
    }
}

/// One protocol run's headline measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Delivery ratio over expected receivers.
    pub delivery: f64,
    /// Mean end-to-end latency (seconds), 0 when nothing delivered.
    pub latency: f64,
    /// Total control messages (everything that is not payload-carrying).
    pub control_msgs: u64,
    /// Total control bytes.
    pub control_bytes: u64,
    /// Total data-plane messages.
    pub data_msgs: u64,
    /// Total data-plane bytes.
    pub data_bytes: u64,
    /// Jain fairness of per-node transmitted bytes.
    pub jain: f64,
    /// Peak-to-mean per-node transmitted bytes.
    pub max_mean: f64,
    /// Gini coefficient of per-node transmitted bytes.
    pub gini: f64,
}

impl RunMetrics {
    /// The metrics as named pairs, in stable order, for report rows.
    pub fn metric_pairs(&self) -> Vec<(String, f64)> {
        vec![
            ("delivery".into(), self.delivery),
            ("latency_ms".into(), self.latency * 1e3),
            ("control_msgs".into(), self.control_msgs as f64),
            ("control_bytes".into(), self.control_bytes as f64),
            ("data_msgs".into(), self.data_msgs as f64),
            ("data_bytes".into(), self.data_bytes as f64),
            ("jain".into(), self.jain),
            ("max_mean".into(), self.max_mean),
            ("gini".into(), self.gini),
        ]
    }
}

/// Message classes originated by the soft-state refresh timer (periodic
/// re-advertisement rather than content change), *including* their flood
/// relays — the traffic the adaptive controller suppresses in quiet
/// phases, measured separately so the `overhead` scenario can gate it.
pub fn is_refresh_class(class: &str) -> bool {
    matches!(class, "ch-refresh" | "mnt-refresh" | "ht-refresh")
}

/// Classifies message classes into control vs data planes (shared across
/// protocols so comparisons are apples-to-apples).
pub fn is_data_class(class: &str) -> bool {
    matches!(
        class,
        "mesh-data"
            | "hc-data"
            | "local-deliver"
            | "data-to-ch"
            | "flood-data"
            | "tree-data-up"
            | "tree-data-down"
            | "dsm-data"
            | "spbm-data"
            | "spbm-deliver"
    )
}

/// Extracts [`RunMetrics`] from a finished simulation.
pub fn metrics_of(stats: &hvdb_sim::Stats) -> RunMetrics {
    RunMetrics {
        delivery: stats.delivery_ratio(),
        latency: stats.mean_latency().unwrap_or(0.0),
        control_msgs: stats.msgs_where(|c| !is_data_class(c)),
        control_bytes: stats.bytes_where(|c| !is_data_class(c)),
        data_msgs: stats.msgs_where(is_data_class),
        data_bytes: stats.bytes_where(is_data_class),
        jain: hvdb_sim::jain_fairness(&stats.node_tx_bytes),
        max_mean: hvdb_sim::max_mean_ratio(&stats.node_tx_bytes),
        gini: hvdb_sim::gini(&stats.node_tx_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let w = Workload::default();
        let a = w.build();
        let b = w.build();
        assert_eq!(a.members, b.members);
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.until, b.until);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Workload::default().build();
        let b = Workload {
            seed: 2,
            ..Default::default()
        }
        .build();
        assert_ne!(a.traffic, b.traffic);
    }

    #[test]
    fn member_counts_match_request() {
        let w = Workload {
            groups: 3,
            members_per_group: 7,
            ..Default::default()
        };
        let s = w.build();
        assert_eq!(s.members.len(), 21);
        for g in 1..=3u32 {
            assert_eq!(s.members.iter().filter(|(_, gid)| gid.0 == g).count(), 7);
        }
    }

    #[test]
    fn traffic_within_window() {
        let w = Workload::default();
        let s = w.build();
        assert_eq!(s.traffic.len(), w.groups * w.packets_per_group);
        for t in &s.traffic {
            assert!(t.at >= SimTime(w.warmup.0));
            assert!(t.at < SimTime(w.warmup.0 + w.traffic_window.0));
        }
    }

    #[test]
    fn data_class_partition() {
        assert!(is_data_class("mesh-data"));
        assert!(is_data_class("flood-data"));
        assert!(!is_data_class("beacon"));
        assert!(!is_data_class("mnt-share"));
        assert!(!is_data_class("spbm-l0"));
        assert!(!is_data_class("dsm-location"));
        // Refresh-plane classes are control traffic, and a strict subset
        // of it.
        for c in ["ch-refresh", "mnt-refresh", "ht-refresh"] {
            assert!(is_refresh_class(c));
            assert!(!is_data_class(c));
        }
        assert!(!is_refresh_class("mnt-share"));
        assert!(!is_refresh_class("stamp-hint"));
    }

    #[test]
    fn traffic_spec_generates_flow_tagged_deterministic_schedules() {
        use hvdb_traffic::{SourceModel, FLOW_NONE};
        let w = Workload {
            groups: 3,
            traffic_spec: Some(TrafficSpec {
                flows_per_group: 2,
                rate_pps: 20.0,
                payload: 300,
                model: SourceModel::Poisson,
                group_stagger_us: 2_000_000,
            }),
            queue_cap: SimDuration::from_millis(200),
            compact_delivery: true,
            ..Workload::default()
        };
        let a = w.build();
        let b = w.build();
        assert_eq!(a.traffic, b.traffic, "spec traffic must replay identically");
        assert!(!a.traffic.is_empty());
        assert_eq!(a.sim.radio.max_queue, SimDuration::from_millis(200));
        assert!(a.sim.compact_delivery);
        for t in &a.traffic {
            assert_ne!(t.flow, FLOW_NONE);
            assert!(t.flow < 6);
            // Every flow keeps one source for its whole session.
            assert!(t.at >= SimTime(w.warmup.0));
            assert!(t.at < SimTime(w.warmup.0 + w.traffic_window.0));
        }
        for flow in 0..6u32 {
            let srcs: Vec<NodeId> = a
                .traffic
                .iter()
                .filter(|t| t.flow == flow)
                .map(|t| t.src)
                .collect();
            assert!(srcs.windows(2).all(|w| w[0] == w[1]));
        }
        // Legacy path stays untracked.
        let legacy = Workload::default().build();
        assert!(legacy.traffic.iter().all(|t| t.flow == FLOW_NONE));
    }

    #[test]
    fn churn_events_are_deterministic_and_windowed() {
        let w = Workload {
            churn_events: 30,
            ..Workload::default()
        };
        let a = w.build();
        let b = w.build();
        assert_eq!(a.group_events, b.group_events);
        assert_eq!(a.group_events.len(), 30);
        let joins = a.group_events.iter().filter(|e| e.join).count();
        assert_eq!(joins, 20, "two joins per leave keep groups populated");
        for e in &a.group_events {
            assert!(e.at >= SimTime(w.warmup.0));
            assert!(e.at < SimTime(w.warmup.0 + w.traffic_window.0));
            assert!(e.group.0 >= 1 && e.group.0 <= w.groups as u32);
        }
        // Quiet default: no churn unless asked for.
        assert!(Workload::default().build().group_events.is_empty());
    }

    #[test]
    fn scripted_fault_plan_passes_through_unchanged() {
        // Quiet default: an empty plan unless asked for.
        assert!(Workload::default().build().faults.is_empty());
        let plan = FaultPlan::new()
            .fail(SimTime::from_secs(130), NodeId(4))
            .recover(SimTime::from_secs(140), NodeId(4))
            .heal(SimTime::from_secs(999));
        let w = Workload {
            faults: plan.clone(),
            ..Workload::default()
        };
        assert_eq!(w.build().faults, plan);
    }
}
