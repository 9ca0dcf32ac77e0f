//! The scenario registry: every experiment of the paper as a named,
//! declarative entry behind one CLI.
//!
//! Each [`ScenarioDef`] reproduces one figure or claim of the paper
//! (c1–c4 for the §5/§2 claims, f1–f6 for the figures, a1 for the design
//! ablations), measures the reproduction itself (the `seed` baseline,
//! `scale` and `perf`), or gates a regression (`loss`, `overhead`,
//! `traffic`, `partition`, `byzantine`). A scenario executes either as
//! declarative [`SweepSpec`]s over one default seed set —
//! `(workload-point × protocol × seed)` jobs fanned out over the rayon
//! runner — or as custom code (seeded sweeps with their own columns, and
//! the structural audits of graph properties rather than packet traffic).
//! Both produce the same uniform [`Row`]s and serialize to
//! `BENCH_<scenario>.json`, so the perf trajectory accumulates one file
//! per scenario per run.
//!
//! Every scenario also supports a *smoke* mode ([`RunOpts::smoke`]):
//! shrunk inputs and ~1-second simulations that exercise the full
//! pipeline in milliseconds. The test suite runs every registered
//! scenario in smoke mode and validates the emitted JSON.

use crate::report::{Json, Row, ScenarioReport};
use crate::runner::{
    average, hvdb_run, mean, min_of, new_sim, per_cell, profile_json, run_hvdb_tweaked, run_one,
    run_one_instrumented, run_par_flood, run_par_hvdb_timeline, sample_par_hvdb, timeline_json,
    Proto, RunDetail, SHARDS,
};
use crate::validate::Check::{Band, Ceiling, Equal, Floor, Knee, Ratio};
use crate::validate::Label::{AtLeast, Baseline, Except, Is};
use crate::validate::Smoke::{Apply, Lower, Refuse, Skip};
use crate::validate::{Gate, Rows};
use crate::workload::{metrics_of, MobilityKind, RunMetrics, Workload};
use hvdb_core::{
    build_model, build_region_cube, cluster_heads, total_counters, DesignationCriterion,
    HvdbConfig, HvdbCore, HvdbNode, HvdbSim, Script,
};
use hvdb_geo::{Aabb, Hid, Hnid, Point, Vec2};
use hvdb_hypercube::routing::{diameter, local_routes};
use hvdb_hypercube::{label, pair_connectivity, IncompleteHypercube};
use hvdb_sim::{
    gini, jain_fairness, max_mean_ratio, sim_sec_per_wall_sec, ByzantineMode, FaultEvent,
    FaultKind, FaultPlan, NodeId, ParSimulator, RadioConfig, SimConfig, SimDuration, SimRng,
    SimTime, Stationary,
};

/// Options shared by every scenario execution.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Shrink everything to a ~1-second pipeline check.
    pub smoke: bool,
    /// Override the seed set of every seeded scenario ([`RunOpts::seeds_or`]).
    pub seeds: Option<Vec<u64>>,
    /// Worker threads for parallel-engine arms (`--threads`, default 1).
    /// Recorded in the report; deterministic metrics do not depend on it.
    pub threads: usize,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            smoke: false,
            seeds: None,
            threads: 1,
        }
    }
}

impl RunOpts {
    /// The seeds a seeded scenario runs: an explicit `--seeds` list always
    /// wins, whole; otherwise `default`, cut to its first seed in a smoke
    /// run.
    pub fn seeds_or(&self, default: &[u64]) -> Vec<u64> {
        match &self.seeds {
            Some(seeds) => seeds.clone(),
            None if self.smoke => default.iter().copied().take(1).collect(),
            None => default.to_vec(),
        }
    }
}

/// One declarative sweep: an axis of workload points, run under a set of
/// protocols, averaged over the scenario's seeds.
pub struct SweepSpec {
    /// Axis name (becomes [`Row::sweep`]).
    pub axis: &'static str,
    /// `(label, workload)` points along the axis.
    pub points: Vec<(String, Workload)>,
    /// Protocols to compare at every point.
    pub protos: Vec<Proto>,
}

/// How a scenario executes.
pub enum Exec {
    /// Declarative protocol-comparison sweeps through the rayon runner,
    /// each `(point, protocol)` averaged over the default seed set given
    /// here (or `--seeds`, [`RunOpts::seeds_or`]).
    Sweeps(fn() -> Vec<SweepSpec>, &'static [u64]),
    /// Custom code: seeded sweeps with their own columns, structural
    /// audits and config ablations.
    Custom(fn(&RunOpts) -> CustomOut),
}

/// Everything an [`Exec::Custom`] scenario hands back to
/// [`run_scenario`]: the rows plus the optional report blocks.
#[derive(Default)]
pub struct CustomOut {
    /// The measurements.
    pub rows: Vec<Row>,
    /// Declarative workload block: the serialized [`FaultPlan`]
    /// ([`fault_plan_json`]), so a committed `BENCH_<scenario>.json`
    /// records exactly which faults produced its numbers.
    pub workload: Option<Json>,
    /// Deterministic sim-time metrics timeline.
    pub timeline: Option<Json>,
    /// Non-deterministic wall-clock engine profile.
    pub profile: Option<Json>,
}

impl From<Vec<Row>> for CustomOut {
    fn from(rows: Vec<Row>) -> Self {
        CustomOut {
            rows,
            ..CustomOut::default()
        }
    }
}

/// A registered experiment.
pub struct ScenarioDef {
    /// Registry name (`BENCH_<name>.json`).
    pub name: &'static str,
    /// The paper figure / claim reproduced.
    pub figure: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Execution recipe.
    pub exec: Exec,
    /// The CI gates its report must pass (`hvdb-bench validate`); each
    /// declaration carries the reason for its threshold.
    pub gates: &'static [Gate],
}

/// All registered scenarios, in presentation order.
pub fn registry() -> Vec<ScenarioDef> {
    vec![
        ScenarioDef {
            name: "seed",
            figure: "§6 baseline",
            summary: "HVDB vs all four baselines on the paper's 200-node 800x800 scenario",
            exec: Exec::Sweeps(sweeps_seed, &[1, 2, 3]),
            gates: &[],
        },
        ScenarioDef {
            name: "loss",
            figure: "robustness",
            summary: "delivery ratio vs frame-loss rate 0-30% across seeds (soft-state control-plane regression gate)",
            exec: Exec::Custom(custom_loss),
            gates: LOSS_GATES,
        },
        ScenarioDef {
            name: "scale",
            figure: "north-star",
            summary: "node-count sweep 100-20000 at constant density: delivery, latency, per-node control bytes + memory; large-N points and the engine-threads arm run HVDB on the sharded parallel engine (CI trajectory gate)",
            exec: Exec::Custom(custom_scale),
            gates: SCALE_GATES,
        },
        ScenarioDef {
            name: "perf",
            figure: "north-star",
            summary: "parallel-engine wall-clock throughput at 1 vs N worker threads on one flooding workload (event-count equality + events/s speedup gates)",
            exec: Exec::Custom(custom_perf),
            gates: PERF_GATES,
        },
        ScenarioDef {
            name: "overhead",
            figure: "roadmap c4",
            summary: "control frames/s vs churn rate at fixed loss, adaptive vs fixed-rate refresh (CI quiet-phase gate)",
            exec: Exec::Custom(custom_overhead),
            gates: OVERHEAD_GATES,
        },
        ScenarioDef {
            name: "traffic",
            figure: "§5 QoS / C3 load",
            summary: "offered-load sweep up the saturation knee: goodput, p50/p99/p999 latency, jitter — HVDB vs flooding/shared-tree (knee + p99 CI gate)",
            exec: Exec::Custom(custom_traffic),
            gates: TRAFFIC_GATES,
        },
        ScenarioDef {
            name: "partition",
            figure: "robustness",
            summary: "network split into two islands with later heal: reachable-delivery floor during the split, head-hierarchy re-merge time after it (CI fault-plane gate)",
            exec: Exec::Custom(custom_partition),
            gates: PARTITION_GATES,
        },
        ScenarioDef {
            name: "byzantine",
            figure: "robustness",
            summary: "misbehaving nodes (selective forwarding, stale replay, bogus CH candidacy) at k=0-4: delivery damage per adversarial node (CI fault-plane gate)",
            exec: Exec::Custom(custom_byzantine),
            gates: BYZANTINE_GATES,
        },
        ScenarioDef {
            name: "c1-availability",
            figure: "§5 claim 1",
            summary: "disjoint logical routes: structure under damage, delivery and route failover under fail-stop",
            exec: Exec::Custom(custom_c1),
            gates: &[],
        },
        ScenarioDef {
            name: "c2-diameter",
            figure: "§2.1/§5 claim 2",
            summary: "small diameter: logical distances across dimensions, occupancy and horizons",
            exec: Exec::Custom(custom_c2),
            gates: &[],
        },
        ScenarioDef {
            name: "c3-load",
            figure: "§5 claim 3",
            summary: "load balancing: per-node transmitted-bytes distribution vs the shared-tree bottleneck",
            exec: Exec::Custom(custom_c3),
            gates: &[],
        },
        ScenarioDef {
            name: "c4-scalability",
            figure: "§1/§2.2 claim 4",
            summary: "control overhead vs network size, group count and group size (HVDB/SPBM/DSM)",
            exec: Exec::Sweeps(sweeps_c4, &[5, 6]),
            gates: &[],
        },
        ScenarioDef {
            name: "f1-model",
            figure: "Fig. 1",
            summary: "three-tier model construction: backbone statistics and cluster stability",
            exec: Exec::Custom(custom_f1),
            gates: &[],
        },
        ScenarioDef {
            name: "f2-grid",
            figure: "Fig. 2",
            summary: "the 8x8-VC worked example at full and partial occupancy",
            exec: Exec::Custom(custom_f2),
            gates: &[],
        },
        ScenarioDef {
            name: "f3-hypercube",
            figure: "Fig. 3",
            summary: "the 4-d hypercube with grid links: routes of node 1000, structural properties",
            exec: Exec::Custom(custom_f3),
            gates: &[],
        },
        ScenarioDef {
            name: "f4-routes",
            figure: "Fig. 4",
            summary: "proactive route maintenance: table completeness, beacon cost, failure recovery",
            exec: Exec::Custom(custom_f4),
            gates: &[],
        },
        ScenarioDef {
            name: "f5-membership",
            figure: "Fig. 5",
            summary: "summary-based membership update overhead vs size, groups and members",
            exec: Exec::Sweeps(sweeps_f5, &[1, 2, 3]),
            gates: &[],
        },
        ScenarioDef {
            name: "f6-routing",
            figure: "Fig. 6",
            summary: "end-to-end multicast: all protocols across size and mobility",
            exec: Exec::Sweeps(sweeps_f6, &[11, 12, 13]),
            gates: &[],
        },
        ScenarioDef {
            name: "a1-ablations",
            figure: "DESIGN §4",
            summary: "ablations: horizon k, dimension, tree caching, designated-broadcaster criterion",
            exec: Exec::Custom(custom_a1),
            gates: &[],
        },
    ]
}

// Gate declarations: what each scenario's report must show in CI
// (`hvdb-bench validate`), each threshold with its reason. Kept as
// two-line tables, one gate per `Rows::new(..).check(..)`.

#[rustfmt::skip]
const LOSS_GATES: &[Gate] = &[
    // Worst-seed delivery at 15% frame loss: the pre-soft-state baseline
    // was ~0.65, the soft-state control plane lifts it above 0.90.
    Rows::new("frame-loss", &["hvdb"], Is("loss=0.15"))
        .check("delivery_worst", Floor(0.90), Refuse),
    // The high-loss band: adaptive refresh measured 0.969 worst-seed at
    // 25% and 0.953 at 30%; the band keeps the whole >= 25% regime from
    // silently eroding while the 15% point stays green.
    Rows::new("frame-loss", &["hvdb"], Is("loss=0.25"))
        .check("delivery_worst", Floor(0.93), Refuse),
    Rows::new("frame-loss", &["hvdb"], Is("loss=0.3"))
        .check("delivery_worst", Floor(0.93), Refuse),
];

#[rustfmt::skip]
const SCALE_GATES: &[Gate] = &[
    // Thread invariance on the real protocol: HVDB on the sharded engine
    // processes exactly the threads=1 event count at every worker count.
    Rows::new("engine-threads", &["hvdb"], Baseline("threads", 1.0))
        .check("events_processed", Equal, Apply),
    // The 100k campaign's first enforced milestone: delivery holds at
    // every point from 20000 nodes up (smoke runs stop far below it).
    Rows::new("network-size", &[], AtLeast("nodes", 20000.0))
        .check("delivery", Floor(0.99), Skip),
];

#[rustfmt::skip]
const PERF_GATES: &[Gate] = &[
    // Determinism, always enforced: threads may change wall-clock only; a
    // diverging event count means the commit order leaked into results.
    Rows::new("engine-threads", &["par-flood"], Baseline("threads", 1.0))
        .check("events_processed", Equal, Apply),
    // Parallel speedup of the largest thread count over threads=1,
    // binding only for >= 4 threads on >= 4 hardware threads (the
    // committed baseline ran on one). The smaller smoke workload is gated
    // at 1.2x.
    Rows::new("engine-threads", &["par-flood"], Baseline("threads", 1.0))
        .check("events_per_s", Ratio(2.0, Some(4.0)), Lower(1.2)),
];

#[rustfmt::skip]
const OVERHEAD_GATES: &[Gate] = &[
    // The quiet phase, where adaptive refresh must earn its keep: the
    // fixed rate's refresh-plane frames/s over adaptive's (committed
    // ~3.2x; the floor keeps the headline >= 2x claim honest).
    Rows::new("churn", &["hvdb-adaptive", "hvdb-fixed"], Is("churn=0"))
        .check("refresh_frames_per_s", Ratio(2.0, None), Refuse),
    // Absolute ceiling on adaptive quiet-phase control frames/s
    // (committed ~719; the fixed rate burns ~1132): fails a change
    // that re-inflates the control plane even if the ratio still passes.
    Rows::new("churn", &["hvdb-adaptive"], Is("churn=0"))
        .check("control_frames_per_s", Ceiling(900.0), Refuse),
];

#[rustfmt::skip]
const TRAFFIC_GATES: &[Gate] = &[
    // The §5 load claim: a load point is sustained while mean delivery
    // stays >= 0.90 and p99 <= 500 ms (past that, queues are saturated
    // and packets ride the cooldown out). HVDB's knee must sit strictly
    // above both baselines', which also forces the sweep past theirs.
    Rows::new("offered-load", &["flooding", "shared-tree", "hvdb"], AtLeast("pps", 0.0))
        .check("delivery", Knee(0.90, "p99_ms", 500.0), Refuse),
    // HVDB's pre-knee p99: the run is deterministic, so drift outside the
    // band means the data path or radio model changed (committed ~29 ms;
    // 2x headroom either way for deliberate retuning).
    Rows::new("offered-load", &["hvdb"], Is("pps=160"))
        .check("p99_ms", Band(10.0, 60.0), Refuse),
];

#[rustfmt::skip]
const PARTITION_GATES: &[Gate] = &[
    // Worst-seed delivery to same-island receivers once each island has
    // re-grown its half of the backbone. Cross-island traffic is
    // physically impossible and excluded; the cut transient is reported
    // as delivery_reachable but not gated (re-election takes tens of
    // seconds by design).
    Rows::new("partition", &["hvdb"], Is("phase=partition"))
        .check("delivery_reachable_steady_worst", Floor(0.95), Refuse),
    // Head-hierarchy re-merge after the heal: the committed run measures
    // ~5 s; the budget gives soft-state expiry headroom.
    Rows::new("partition", &["hvdb"], Is("phase=healed"))
        .check("remerge_secs_worst", Ceiling(15.0), Refuse),
];

#[rustfmt::skip]
const BYZANTINE_GATES: &[Gate] = &[
    // Delivery lost per misbehaving node relative to the k=0 control, at
    // every k > 0: bounds one adversarial node's blast radius.
    Rows::new("byzantine", &["hvdb"], Except("byz=0"))
        .check("damage_per_node", Ceiling(0.05), Refuse),
];

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<ScenarioDef> {
    registry().into_iter().find(|s| s.name == name)
}

/// Executes a scenario and packages the report.
pub fn run_scenario(def: &ScenarioDef, opts: &RunOpts) -> ScenarioReport {
    let out = match def.exec {
        Exec::Sweeps(specs, seeds) => {
            run_sweeps(&specs(), &opts.seeds_or(seeds), opts.smoke).into()
        }
        Exec::Custom(f) => f(opts),
    };
    ScenarioReport {
        scenario: def.name.into(),
        figure: def.figure.into(),
        summary: def.summary.into(),
        smoke: opts.smoke,
        threads: opts.threads.max(1),
        workload: out.workload,
        timeline: out.timeline,
        profile: out.profile,
        rows: out.rows,
    }
}

/// Runs declarative sweeps: every `(spec, point, proto)` is one cell of
/// [`per_cell`]'s fan-out over `seeds`, averaged into one row. A smoke run
/// keeps the first two points of each spec, shrunk.
fn run_sweeps(specs: &[SweepSpec], seeds: &[u64], smoke: bool) -> Vec<Row> {
    let mut cells = Vec::new();
    for spec in specs {
        let points = if smoke { 2 } else { spec.points.len() };
        for (label, w) in spec.points.iter().take(points) {
            let w = if smoke { w.smoke() } else { w.clone() };
            for &proto in &spec.protos {
                cells.push((spec.axis, label, w.clone(), proto));
            }
        }
    }
    let runs = per_cell(&cells, seeds, |(_, _, w, proto), seed| {
        run_one(*proto, &Workload { seed, ..w.clone() }.build())
    });
    cells
        .iter()
        .zip(runs)
        .map(|((axis, label, _, proto), runs)| {
            Row::new(*axis, *label, proto.name(), average(&runs).metric_pairs())
        })
        .collect()
}

// ---------------------------------------------------------------------
// Declarative sweeps
// ---------------------------------------------------------------------

/// The paper's §6 evaluation scenario: 200 nodes on 800x800 m, 8x8 VCs,
/// dimension 4, 250 m radio range — the baseline every future
/// optimisation is measured against, and the geometry every scenario on
/// the paper's area starts from.
pub fn paper_workload() -> Workload {
    Workload {
        side: 800.0,
        nodes: 200,
        vc_side: 8,
        dim: 4,
        range: 250.0,
        ..Workload::default()
    }
}

fn sweeps_seed() -> Vec<SweepSpec> {
    vec![SweepSpec {
        axis: "paper-scenario",
        points: vec![("200-nodes-800x800".into(), paper_workload())],
        protos: Proto::ALL.to_vec(),
    }]
}

fn c4_base() -> Workload {
    Workload {
        packets_per_group: 2,
        warmup: SimDuration::from_secs(90),
        traffic_window: SimDuration::from_secs(20),
        cooldown: SimDuration::from_secs(20),
        ..Workload::default()
    }
}

fn sweeps_c4() -> Vec<SweepSpec> {
    let size_point = |nodes: usize| {
        (
            format!("nodes={nodes}"),
            Workload {
                nodes,
                side: (nodes as f64 * 8533.0).sqrt(),
                vc_side: if nodes >= 1000 { 12 } else { 8 },
                ..c4_base()
            },
        )
    };
    vec![
        SweepSpec {
            axis: "network-size",
            points: vec![size_point(250), size_point(500)],
            protos: vec![Proto::Hvdb, Proto::Spbm, Proto::Dsm],
        },
        // DSM's N^2 location flood makes 1000-node runs prohibitively slow
        // to *simulate* (the overhead it would generate is the point), so
        // the largest size drops DSM rather than waiting on it.
        SweepSpec {
            axis: "network-size-large",
            points: vec![size_point(1000)],
            protos: vec![Proto::Hvdb, Proto::Spbm],
        },
        SweepSpec {
            axis: "group-count",
            points: [2usize, 8, 24]
                .into_iter()
                .map(|groups| {
                    (
                        format!("groups={groups}"),
                        Workload {
                            nodes: 400,
                            groups,
                            ..c4_base()
                        },
                    )
                })
                .collect(),
            protos: vec![Proto::Hvdb, Proto::Spbm, Proto::Dsm],
        },
        SweepSpec {
            axis: "members-per-group",
            points: [10usize, 50, 150]
                .into_iter()
                .map(|members| {
                    (
                        format!("members={members}"),
                        Workload {
                            nodes: 400,
                            members_per_group: members,
                            ..c4_base()
                        },
                    )
                })
                .collect(),
            protos: vec![Proto::Hvdb, Proto::Spbm, Proto::Dsm],
        },
    ]
}

fn membership_workload() -> Workload {
    Workload {
        packets_per_group: 0, // membership machinery only
        warmup: SimDuration::from_secs(100),
        traffic_window: SimDuration::from_secs(1),
        cooldown: SimDuration::from_secs(1),
        ..Workload::default()
    }
}

fn sweeps_f5() -> Vec<SweepSpec> {
    let protos = vec![Proto::Hvdb, Proto::Spbm, Proto::Dsm];
    vec![
        SweepSpec {
            axis: "network-size",
            points: [100usize, 200, 400]
                .into_iter()
                .map(|nodes| {
                    (
                        format!("nodes={nodes}"),
                        Workload {
                            nodes,
                            side: (nodes as f64 * 8000.0).sqrt(), // constant density
                            ..membership_workload()
                        },
                    )
                })
                .collect(),
            protos: protos.clone(),
        },
        SweepSpec {
            axis: "group-count",
            points: [1usize, 4, 8, 16]
                .into_iter()
                .map(|groups| {
                    (
                        format!("groups={groups}"),
                        Workload {
                            groups,
                            ..membership_workload()
                        },
                    )
                })
                .collect(),
            protos: protos.clone(),
        },
        SweepSpec {
            axis: "members-per-group",
            points: [5usize, 20, 60, 120]
                .into_iter()
                .map(|members| {
                    (
                        format!("members={members}"),
                        Workload {
                            members_per_group: members,
                            ..membership_workload()
                        },
                    )
                })
                .collect(),
            protos,
        },
    ]
}

fn sweeps_f6() -> Vec<SweepSpec> {
    vec![
        SweepSpec {
            axis: "default",
            points: vec![("300-nodes-static".into(), Workload::default())],
            protos: Proto::ALL.to_vec(),
        },
        SweepSpec {
            axis: "network-size",
            points: [150usize, 300, 600]
                .into_iter()
                .map(|nodes| {
                    (
                        format!("nodes={nodes}"),
                        Workload {
                            nodes,
                            side: (nodes as f64 * 8533.0).sqrt(),
                            ..Workload::default()
                        },
                    )
                })
                .collect(),
            protos: Proto::ALL.to_vec(),
        },
        SweepSpec {
            axis: "mobility",
            points: [
                ("static", MobilityKind::Static),
                ("speed=0.5-2", MobilityKind::Waypoint(0.5, 2.0)),
                ("speed=2-8", MobilityKind::Waypoint(2.0, 8.0)),
                ("speed=8-15", MobilityKind::Waypoint(8.0, 15.0)),
            ]
            .into_iter()
            .map(|(name, mobility)| {
                (
                    name.to_string(),
                    Workload {
                        mobility,
                        ..Workload::default()
                    },
                )
            })
            .collect(),
            protos: vec![Proto::Hvdb, Proto::Flooding, Proto::Spbm],
        },
    ]
}

// ---------------------------------------------------------------------
// Custom scenarios (structural audits and config ablations)
// ---------------------------------------------------------------------

/// The `loss` robustness sweep: delivery ratio vs independent frame-loss
/// rate, reported as the per-point mean *and worst seed* — the first
/// scenario designed to regression-test robustness rather than raw
/// throughput. CI gates on `delivery_worst` at the 15%, 25% and 30%
/// points (the `loss` entry's [`ScenarioDef::gates`]).
fn custom_loss(opts: &RunOpts) -> CustomOut {
    // The paper's §6 geometry at a density where the backbone is fully
    // occupied; small payload bursts so the measurement tracks the
    // control plane's health, not queueing.
    let base = Workload {
        nodes: 120,
        members_per_group: 8,
        packets_per_group: 12,
        warmup: SimDuration::from_secs(100),
        traffic_window: SimDuration::from_secs(30),
        cooldown: SimDuration::from_secs(20),
        enhanced_fraction: 1.0,
        ..paper_workload()
    };
    let losses: Vec<f64> = if opts.smoke {
        vec![0.0, 0.15]
    } else {
        vec![0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
    };
    // Seed 7 was PR 1's known-worst draw; it stays in the set on purpose.
    let seeds = opts.seeds_or(&[1, 2, 3, 7]);
    let runs = per_cell(&losses, &seeds, |&loss, seed| {
        let w = Workload {
            loss_prob: loss,
            seed,
            ..base.clone()
        };
        let w = if opts.smoke { w.smoke() } else { w };
        run_one_instrumented(Proto::Hvdb, &w.build())
    });
    let rows: Vec<Row> = losses
        .iter()
        .zip(&runs)
        .map(|(loss, runs)| {
            // `average` truncates the count means, as the committed file
            // carries them.
            let m = average(&runs.iter().map(|(m, _)| *m).collect::<Vec<_>>());
            Row::new(
                "frame-loss",
                format!("loss={loss}"),
                Proto::Hvdb.name(),
                vec![
                    ("delivery".into(), m.delivery),
                    ("delivery_worst".into(), min_of(runs, |(m, _)| m.delivery)),
                    ("latency_ms".into(), m.latency * 1e3),
                    ("control_msgs".into(), m.control_msgs as f64),
                    ("control_bytes".into(), m.control_bytes as f64),
                    (
                        "refresh_broadcasts".into(),
                        mean(runs, |(_, d)| d.soft_refresh_msgs as f64),
                    ),
                    (
                        "stale_suppressed".into(),
                        mean(runs, |(_, d)| d.soft_stale_suppressed as f64),
                    ),
                    (
                        "soft_expired".into(),
                        mean(runs, |(_, d)| d.soft_expired as f64),
                    ),
                ],
            )
        })
        .collect();
    rows.into()
}

/// Serializes a [`FaultPlan`] as the report's `workload` block: an
/// object with one `fault_plan` array, one self-describing object per
/// scheduled event. Committed `BENCH_partition.json` /
/// `BENCH_byzantine.json` files thereby record exactly which faults
/// produced their numbers.
pub fn fault_plan_json(plan: &FaultPlan) -> Json {
    Json::Obj(vec![(
        "fault_plan".into(),
        Json::Arr(plan.events().iter().map(fault_event_json).collect()),
    )])
}

fn fault_event_json(ev: &FaultEvent) -> Json {
    let mut fields = vec![("at_us".to_string(), Json::Num(ev.at.0 as f64))];
    let mut kind = |k: &str| fields.push(("kind".into(), Json::Str(k.into())));
    match &ev.kind {
        FaultKind::Fail(node) => {
            kind("fail");
            fields.push(("node".into(), Json::Num(node.0 as f64)));
        }
        FaultKind::Recover(node) => {
            kind("recover");
            fields.push(("node".into(), Json::Num(node.0 as f64)));
        }
        FaultKind::Partition(groups) => {
            kind("partition");
            fields.push((
                "islands".into(),
                Json::Arr(
                    groups
                        .iter()
                        .map(|g| Json::Arr(g.iter().map(|n| Json::Num(n.0 as f64)).collect()))
                        .collect(),
                ),
            ));
        }
        FaultKind::Heal => kind("heal"),
        FaultKind::FailRegion { center, radius } => {
            kind("fail-region");
            fields.push(("x".into(), Json::Num(center.x)));
            fields.push(("y".into(), Json::Num(center.y)));
            fields.push(("radius".into(), Json::Num(*radius)));
        }
        FaultKind::Byzantine { node, mode } => {
            kind("byzantine");
            fields.push(("node".into(), Json::Num(node.0 as f64)));
            let (name, param, value) = match mode {
                ByzantineMode::SelectiveForward { drop_prob } => {
                    ("selective-forward", "drop_prob", *drop_prob)
                }
                ByzantineMode::ReplayStale { delay } => {
                    ("replay-stale", "delay_us", delay.0 as f64)
                }
                ByzantineMode::BogusCandidacy { drop_prob } => {
                    ("bogus-candidacy", "drop_prob", *drop_prob)
                }
            };
            fields.push(("mode".into(), Json::Str(name.into())));
            fields.push((param.into(), Json::Num(value)));
        }
        FaultKind::ClockSkew { node, skew_us } => {
            kind("clock-skew");
            fields.push(("node".into(), Json::Num(node.0 as f64)));
            fields.push(("skew_us".into(), Json::Num(*skew_us as f64)));
        }
        FaultKind::PositionError { node, error } => {
            kind("position-error");
            fields.push(("node".into(), Json::Num(node.0 as f64)));
            fields.push(("ex".into(), Json::Num(error.x)));
            fields.push(("ey".into(), Json::Num(error.y)));
        }
    }
    Json::Obj(fields)
}

/// One seed's `partition` measurements (times in seconds, heads as
/// end-of-phase census counts).
struct PartitionRun {
    heads_pre: f64,
    heads_during: f64,
    heads_end: f64,
    pre_delivery: f64,
    part_delivery: f64,
    part_reachable: f64,
    part_reachable_steady: f64,
    healed_delivery: f64,
    drops_partitioned: f64,
    remerge_secs: f64,
}

/// The `partition` scenario: the network splits into two geographic
/// islands (west/east halves of the area, the radio-silence line a
/// jammed or shadowed corridor would produce) mid-traffic and heals
/// later. One continuous HVDB run per
/// seed, segmented so the cluster-head census can be probed: pre-split
/// census `H0`, census at the heal, then a probe every few seconds until
/// the census returns to the pre-split level (re-merge time). Delivery
/// is attributed per traffic item to its phase; during the split it is
/// additionally restricted to *reachable* (same-island) receivers — raw
/// delivery is dragged down by construction because cross-island
/// receivers are physically unreachable. Reachable delivery is reported
/// both over the whole split (`delivery_reachable`, which includes the
/// re-election transient right after the cut, when each island is still
/// re-growing its half of the backbone) and over the *steady* tail
/// (items sent once the islands have had the settle interval to
/// re-converge) — the CI floor
/// (declared on the `partition` entry's [`ScenarioDef::gates`]) gates the
/// steady number, matching the paper's claim about operation *within* a
/// partition rather than about cut-transient losses.
///
/// The report additionally carries a `timeline` block sampled from the
/// first seed at the probe cadence: the head-census spike at the split
/// and its decay after the heal become a replayable time-series, and the
/// re-merge instant is independently derivable from it (the validator
/// cross-checks the derived value against `remerge_secs_probe`).
fn custom_partition(opts: &RunOpts) -> CustomOut {
    // Full run: split at 140 s (20 s into traffic), heal at 220 s, 100 s
    // of probe/cool-down after the heal. Smoke compresses everything to
    // a ~1-second pipeline check.
    let (nodes, packets, warmup, window, cooldown, split_off, heal_off, probe, settle) =
        if opts.smoke {
            (
                40,
                3,
                SimDuration::from_millis(400),
                SimDuration::from_millis(300),
                SimDuration::from_millis(300),
                SimDuration::from_millis(100),
                SimDuration::from_millis(200),
                SimDuration::from_millis(100),
                SimDuration::ZERO,
            )
        } else {
            (
                200,
                40,
                SimDuration::from_secs(120),
                SimDuration::from_secs(160),
                SimDuration::from_secs(40),
                SimDuration::from_secs(20),
                SimDuration::from_secs(100),
                SimDuration::from_secs(5),
                SimDuration::from_secs(30),
            )
        };
    let base = Workload {
        nodes,
        packets_per_group: packets,
        warmup,
        traffic_window: window,
        cooldown,
        enhanced_fraction: 1.0,
        ..paper_workload()
    };
    let split_at = SimTime(warmup.0 + split_off.0);
    let heal_at = SimTime(warmup.0 + heal_off.0);
    let seeds = opts.seeds_or(&[1, 2, 3]);
    let boundary = base.side / 2.0;
    let first_seed = seeds[0];
    let runs = per_cell(&[()], &seeds, |_, seed| {
        let w = Workload {
            seed,
            ..base.clone()
        };
        let scenario = w.build();
        // The scenario's own plan is empty; the split plan below is
        // injected after it.
        let (mut sim, core) = hvdb_run(&scenario);
        // Geographic west/east islands from the seed's actual (static)
        // placement: the boundary falls on a VC-grid edge, so each
        // island keeps whole virtual cells and an intact half of the
        // backbone — only cross-boundary links go silent.
        let west: Vec<NodeId> = (0..nodes)
            .map(|i| NodeId(i as u32))
            .filter(|&n| sim.world().position(n).x < boundary)
            .collect();
        let east: Vec<NodeId> = (0..nodes)
            .map(|i| NodeId(i as u32))
            .filter(|&n| sim.world().position(n).x >= boundary)
            .collect();
        let plan = FaultPlan::new()
            .partition(split_at, vec![west.clone(), east])
            .heal(heal_at);
        sim.inject_plan(&plan);
        // One stepped drive at the probe cadence from t=0 to the end:
        // every phase constant is a probe multiple by construction, so
        // the stepped horizons hit `split_at`/`heal_at` exactly and the
        // event schedule (hence every statistic) is identical to a
        // single continuous run. Each step doubles as a timeline sample
        // point (recorded for the first seed) and, after the heal, as a
        // census probe: the re-merge instant is the first probe where
        // the head count falls back to the pre-split level (+10%
        // tolerance — soft state may settle one or two heads off). No
        // return within the horizon reports the full horizon, which
        // the re-merge budget gate then fails.
        let sample_timeline = seed == first_seed;
        let mut samples = Vec::new();
        let mut heads_pre = 0usize;
        let mut heads_during = 0usize;
        let mut remerge = None;
        let mut t = SimTime::ZERO;
        while t < scenario.until {
            t = SimTime((t.0 + probe.0).min(scenario.until.0));
            sim.run(&core, t);
            let heads = cluster_heads(&sim).len();
            if t == split_at {
                heads_pre = heads;
            }
            if t == heal_at {
                heads_during = heads;
            }
            if remerge.is_none() && t > heal_at && heads <= heads_pre + heads_pre / 10 {
                remerge = Some((t.0 - heal_at.0) as f64 / 1e6);
            }
            if sample_timeline {
                samples.push(sample_par_hvdb(&sim));
            }
        }
        let remerge_secs = remerge.unwrap_or((scenario.until.0 - heal_at.0) as f64 / 1e6);
        // Attribute each traffic item's deliveries to its phase.
        // Membership is static here (no churn), so ground truth is
        // the scripted initial membership.
        let in_west: Vec<bool> = (0..nodes)
            .map(|i| west.contains(&NodeId(i as u32)))
            .collect();
        let same_island = |a: NodeId, b: NodeId| in_west[a.0 as usize] == in_west[b.0 as usize];
        let mut sums = [(0u64, 0u64); 3]; // (delivered, expected) per phase
        let mut reach = (0u64, 0u64);
        let mut reach_steady = (0u64, 0u64);
        let steady_from = SimTime(split_at.0 + settle.0);
        for (idx, item) in scenario.traffic.iter().enumerate() {
            let delivered = sim.stats().receivers_of(Script::data_id(idx));
            let expected: Vec<NodeId> = scenario
                .members
                .iter()
                .filter(|(n, g)| *g == item.group && *n != item.src)
                .map(|(n, _)| *n)
                .collect();
            let phase = if item.at < split_at {
                0
            } else if item.at < heal_at {
                1
            } else {
                2
            };
            let got = expected.iter().filter(|n| delivered.contains(n)).count() as u64;
            sums[phase].0 += got;
            sums[phase].1 += expected.len() as u64;
            if phase == 1 {
                let reachable: Vec<NodeId> = expected
                    .iter()
                    .copied()
                    .filter(|n| same_island(*n, item.src))
                    .collect();
                let got = reachable.iter().filter(|n| delivered.contains(n)).count() as u64;
                reach.1 += reachable.len() as u64;
                reach.0 += got;
                if item.at >= steady_from {
                    reach_steady.1 += reachable.len() as u64;
                    reach_steady.0 += got;
                }
            }
        }
        let ratio = |(d, e): (u64, u64)| if e == 0 { 1.0 } else { d as f64 / e as f64 };
        let run = PartitionRun {
            heads_pre: heads_pre as f64,
            heads_during: heads_during as f64,
            heads_end: cluster_heads(&sim).len() as f64,
            pre_delivery: ratio(sums[0]),
            part_delivery: ratio(sums[1]),
            part_reachable: ratio(reach),
            part_reachable_steady: ratio(reach_steady),
            healed_delivery: ratio(sums[2]),
            drops_partitioned: sim.stats().drops_partitioned as f64,
            remerge_secs,
        };
        (run, plan, samples)
    })
    .remove(0);
    // The workload block records the first seed's plan (islands are
    // placement-derived, so the exact rosters vary per seed); the
    // timeline likewise carries the first seed's sample series.
    let plan = runs[0].1.clone();
    let samples = runs[0].2.clone();
    let runs: Vec<PartitionRun> = runs.into_iter().map(|(r, _, _)| r).collect();
    let remerge_worst = runs
        .iter()
        .map(|r| r.remerge_secs)
        .fold(f64::NEG_INFINITY, f64::max);
    let rows = vec![
        Row::new(
            "partition",
            "phase=pre",
            Proto::Hvdb.name(),
            vec![
                ("heads".into(), mean(&runs, |r| r.heads_pre)),
                ("delivery".into(), mean(&runs, |r| r.pre_delivery)),
            ],
        ),
        Row::new(
            "partition",
            "phase=partition",
            Proto::Hvdb.name(),
            vec![
                ("heads".into(), mean(&runs, |r| r.heads_during)),
                ("delivery".into(), mean(&runs, |r| r.part_delivery)),
                (
                    "delivery_reachable".into(),
                    mean(&runs, |r| r.part_reachable),
                ),
                (
                    "delivery_reachable_steady".into(),
                    mean(&runs, |r| r.part_reachable_steady),
                ),
                (
                    "delivery_reachable_steady_worst".into(),
                    min_of(&runs, |r| r.part_reachable_steady),
                ),
                (
                    "drops_partitioned".into(),
                    mean(&runs, |r| r.drops_partitioned),
                ),
            ],
        ),
        Row::new(
            "partition",
            "phase=healed",
            Proto::Hvdb.name(),
            vec![
                ("heads".into(), mean(&runs, |r| r.heads_end)),
                ("delivery".into(), mean(&runs, |r| r.healed_delivery)),
                ("remerge_secs".into(), mean(&runs, |r| r.remerge_secs)),
                ("remerge_secs_worst".into(), remerge_worst),
            ],
        ),
    ];
    // Timeline annotations pin the instants a reader (and the validator's
    // cross-check) needs to re-derive the re-merge time from the series:
    // `heads_target` and `remerge_secs_probe` are the first seed's values,
    // matching the sampled series.
    let first = &runs[0];
    let heads_target = first.heads_pre + (first.heads_pre / 10.0).floor();
    let timeline = timeline_json(
        probe.0 as f64 / 1e6,
        vec![
            ("split_at_secs".into(), Json::Num(split_at.0 as f64 / 1e6)),
            ("heal_at_secs".into(), Json::Num(heal_at.0 as f64 / 1e6)),
            ("heads_target".into(), Json::Num(heads_target)),
            ("remerge_secs_probe".into(), Json::Num(first.remerge_secs)),
        ],
        &samples,
    );
    CustomOut {
        rows,
        workload: Some(fault_plan_json(&plan)),
        timeline: Some(timeline),
        profile: None,
    }
}

/// The `byzantine` scenario: k misbehaving nodes (selective forwarding,
/// stale-stamp replay, bogus CH candidacy, round-robin over evenly
/// spaced ids) start mid-warm-up, so the backbone the traffic window
/// sees has already absorbed them. Each k runs the standard HVDB recipe
/// over the seed set; the headline column is `damage_per_node` — mean
/// delivery lost per adversarial node relative to the k=0 control —
/// gated by the `byzantine` entry's [`ScenarioDef::gates`].
fn custom_byzantine(opts: &RunOpts) -> CustomOut {
    let base = Workload {
        packets_per_group: 30,
        traffic_window: SimDuration::from_secs(60),
        enhanced_fraction: 1.0,
        ..paper_workload()
    };
    let base = if opts.smoke { base.smoke() } else { base };
    let onset = SimTime(base.warmup.0 / 2);
    let plan_for = |k: usize| -> FaultPlan {
        let mut plan = FaultPlan::new();
        for i in 0..k {
            let node = NodeId(((i + 1) * base.nodes / (k + 1)) as u32);
            let mode = match i % 3 {
                0 => ByzantineMode::SelectiveForward { drop_prob: 0.9 },
                1 => ByzantineMode::ReplayStale {
                    delay: SimDuration::from_secs(2),
                },
                _ => ByzantineMode::BogusCandidacy { drop_prob: 0.9 },
            };
            plan = plan.byzantine(onset, node, mode);
        }
        plan
    };
    let ks: Vec<usize> = if opts.smoke {
        vec![0, 1]
    } else {
        vec![0, 1, 2, 4]
    };
    let seeds = opts.seeds_or(&[1, 2, 3]);
    let runs = per_cell(&ks, &seeds, |&k, seed| {
        let w = Workload {
            seed,
            faults: plan_for(k),
            ..base.clone()
        };
        run_one_instrumented(Proto::Hvdb, &w.build())
    });
    let d0 = mean(&runs[0], |(m, _)| m.delivery);
    let rows = ks
        .iter()
        .zip(&runs)
        .map(|(&k, runs)| {
            let dk = mean(runs, |(m, _)| m.delivery);
            let damage = if k == 0 { 0.0 } else { (d0 - dk) / k as f64 };
            Row::new(
                "byzantine",
                format!("byz={k}"),
                Proto::Hvdb.name(),
                vec![
                    ("delivery".into(), dk),
                    ("delivery_worst".into(), min_of(runs, |(m, _)| m.delivery)),
                    ("damage_per_node".into(), damage),
                    (
                        "byzantine_dropped".into(),
                        mean(runs, |(_, d)| d.byzantine_dropped as f64),
                    ),
                    (
                        "byzantine_replayed".into(),
                        mean(runs, |(_, d)| d.byzantine_replayed as f64),
                    ),
                    (
                        "stale_suppressed".into(),
                        mean(runs, |(_, d)| d.soft_stale_suppressed as f64),
                    ),
                ],
            )
        })
        .collect();
    CustomOut {
        rows,
        workload: Some(fault_plan_json(&plan_for(
            *ks.last().expect("ks non-empty"),
        ))),
        ..CustomOut::default()
    }
}

/// VC grid side for a constant-density node sweep: the deployment area
/// grows with the node count while the radio range stays fixed, so the
/// VC grid must grow with it or VCs outgrow radio reach and the backbone
/// cannot form (same convention as the c4 sweep).
///
/// The historical 100–2000-node trajectory points keep their committed
/// grids (8 below 1000 nodes, 12 up to 2000) so the CI baselines stay
/// comparable across PRs; beyond 2000 the side is derived from the
/// geometry directly — enough cells that the VC *diagonal* stays inside
/// the 450 m radio range (cell ≤ 450/√2 ≈ 318 m): a member in one corner
/// of its VC must still hear a head elected in the opposite corner, or
/// the final local-delivery broadcast strands it (measured: a 363 m cell
/// at 20k nodes loses ~3% delivery to exactly this geometry, with zero
/// drops anywhere else in the pipeline). The bound also keeps
/// neighbouring VC centres comfortably within reach of each other.
/// Rounded up to the multiple of 4 the 2×2-region hypercube map
/// requires: 20k nodes get a 44-cell side; the 100k campaign point lands
/// at 92.
fn scaled_vc_side(nodes: usize) -> u16 {
    if nodes < 1000 {
        8
    } else if nodes <= 2000 {
        12
    } else {
        let side = (nodes as f64 * 8533.0).sqrt();
        ((side / 318.0).ceil() as u16).next_multiple_of(4)
    }
}

/// One scale-sweep run: uniform metrics, full engine instrumentation,
/// scenario horizon (simulated seconds), node count.
type ScaleRun = (RunMetrics, RunDetail, f64, usize);

/// Aggregates one node-count's runs into a `scale` report row. All rows
/// — small-N, large-N, and engine-threads — share this column
/// set, so the trajectory gate applies uniformly.
fn scale_row(sweep: &str, label: String, runs: &[ScaleRun]) -> Row {
    Row::new(
        sweep,
        label,
        Proto::Hvdb.name(),
        vec![
            ("delivery".into(), mean(runs, |(m, ..)| m.delivery)),
            ("delivery_worst".into(), min_of(runs, |(m, ..)| m.delivery)),
            ("latency_ms".into(), mean(runs, |(m, ..)| m.latency) * 1e3),
            (
                "control_frames_per_s".into(),
                mean(runs, |(m, _, secs, _)| m.control_msgs as f64 / secs),
            ),
            (
                "control_bytes_per_node".into(),
                mean(runs, |(m, _, _, n)| m.control_bytes as f64 / *n as f64),
            ),
            (
                "refresh_frames_per_s".into(),
                mean(runs, |(_, d, secs, _)| d.refresh_frames as f64 / secs),
            ),
            (
                "refresh_suppressed".into(),
                mean(runs, |(_, d, ..)| d.soft_refresh_suppressed as f64),
            ),
            (
                "memory_per_node_bytes".into(),
                mean(runs, |(_, d, ..)| d.memory_per_node_bytes),
            ),
            (
                "events_processed".into(),
                mean(runs, |(_, d, ..)| d.events_processed as f64),
            ),
        ],
    )
}

/// The `scale` trajectory sweep: the paper's geometry stretched at
/// constant density, reporting what the north star cares about —
/// delivery, latency, *per-node* control cost and *per-node* memory
/// (both must stay flat as the network grows for the backbone to call
/// itself scalable). CI re-runs this sweep at `--threads 4` and requires
/// every deterministic number to equal the committed `BENCH_scale.json`.
///
/// Every point runs the one HVDB recipe ([`run_one_instrumented`]), so
/// every row is proto `hvdb`, in three sub-sweeps:
///
/// * `network-size`, 100–2000 nodes — two seeds each on one thread, the
///   sweep's small-N trajectory;
/// * `network-size`, 5000–100000 nodes — the large-N campaign points,
///   one seed each on `multi` threads; delivery at every point from 20k
///   up is gated at >= 0.99 ([`ScenarioDef::gates`]);
/// * `engine-threads` — HVDB itself at 1 vs N worker threads on the
///   same workload: `events_processed` must be exactly equal (the
///   determinism contract on the real protocol, not just the flooding
///   benchmark).
///
/// Rows carry no wall-clock metric: the benchmark package
/// (`benchmark/`) times the engine in isolated runs.
///
/// The engine-threads runs are stepped at a fixed sampling cadence
/// ([`run_par_hvdb_timeline`]; stepping a deterministic engine does not
/// change its event schedule), and the multi-thread arm's first seed
/// contributes the report's `timeline` block (head census and memory
/// flatness over sim-time) plus the non-deterministic `profile` block
/// (drain/commit/barrier phase split, per-lane busy time).
fn custom_scale(opts: &RunOpts) -> CustomOut {
    let node_counts: Vec<usize> = if opts.smoke {
        vec![30, 40]
    } else {
        vec![100, 200, 400, 600, 1000, 1400, 2000]
    };
    let par_counts: Vec<usize> = if opts.smoke {
        vec![]
    } else {
        vec![5000, 10000, 20000, 50000, 100000]
    };
    let seeds = opts.seeds_or(&[1, 2]);
    // vc_side is set per point by `scaled_vc_side` below.
    let base = Workload {
        dim: 4,
        range: 450.0,
        groups: 3,
        members_per_group: 10,
        packets_per_group: 8,
        warmup: SimDuration::from_secs(100),
        traffic_window: SimDuration::from_secs(30),
        cooldown: SimDuration::from_secs(20),
        ..Workload::default()
    };
    let scale_workload = |nodes: usize, seed: u64, threads: usize| {
        let w = Workload {
            nodes,
            side: (nodes as f64 * 8533.0).sqrt(),
            vc_side: scaled_vc_side(nodes),
            seed,
            threads,
            ..base.clone()
        };
        let w = if opts.smoke { w.smoke() } else { w };
        let mut scenario = w.build();
        // Geo unicast makes ~one VC of progress per hop (heads sit near
        // VC centres), so the default TTL of 24 strands far corners of
        // grids wider than ~12 VCs — the Manhattan diameter plus slack
        // keeps every member reachable at any sweep size.
        let diameter = 2 * scaled_vc_side(nodes) as u32;
        scenario.hvdb.geo_ttl = scenario.hvdb.geo_ttl.max(diameter + 8);
        scenario
    };
    let multi = if opts.threads > 1 { opts.threads } else { 4 };

    // Small-N trajectory points, one thread each, (node count × seed) in
    // parallel via rayon.
    let runs = per_cell(&node_counts, &seeds, |&nodes, seed| {
        let scenario = scale_workload(nodes, seed, 1);
        let secs = scenario.until.since(SimTime::ZERO).as_secs_f64();
        let (m, detail) = run_one_instrumented(Proto::Hvdb, &scenario);
        (m, detail, secs, nodes)
    });
    let mut rows: Vec<Row> = node_counts
        .iter()
        .zip(&runs)
        .map(|(nodes, runs)| scale_row("network-size", format!("nodes={nodes}"), runs))
        .collect();

    // Large-N campaign points: one seed each (a 20k-node HVDB run is the
    // wall-clock budget of the whole small-N sweep), run one after
    // another — each run already uses `multi` worker threads.
    for &nodes in &par_counts {
        let scenario = scale_workload(nodes, seeds[0], multi);
        let secs = scenario.until.since(SimTime::ZERO).as_secs_f64();
        let (m, detail) = run_one_instrumented(Proto::Hvdb, &scenario);
        rows.push(scale_row(
            "network-size",
            format!("nodes={nodes}"),
            &[(m, detail, secs, nodes)],
        ));
    }

    // The engine-threads sweep: HVDB itself at 1 vs `multi` worker
    // threads on the same workload and shard layout. Everything but
    // wall-clock must match exactly; validate gates `events_processed`
    // equality across the two rows.
    let et_nodes = if opts.smoke { 40 } else { 2000 };
    // Both thread arms run stepped at the same cadence, so the
    // events_processed equality gate compares like with like; the
    // timeline/profile blocks come from the multi-thread arm's first
    // seed.
    const TIMELINE_STEPS: u64 = 16;
    let mut timeline = None;
    let mut profile = None;
    // Sequential on purpose: these rows time the engine, and parallel seeds
    // would time each other.
    for &threads in &[1usize, multi] {
        let runs: Vec<ScaleRun> = seeds
            .iter()
            .map(|&seed| {
                let scenario = scale_workload(et_nodes, seed, threads);
                let secs = scenario.until.since(SimTime::ZERO).as_secs_f64();
                let interval = SimDuration((scenario.until.0 / TIMELINE_STEPS).max(1));
                let (m, detail, samples) = run_par_hvdb_timeline(&scenario, interval);
                if threads == multi && seed == seeds[0] {
                    timeline = Some(timeline_json(
                        interval.as_secs_f64(),
                        vec![
                            ("nodes".into(), Json::Num(et_nodes as f64)),
                            ("threads".into(), Json::Num(threads as f64)),
                        ],
                        &samples,
                    ));
                    profile = Some(profile_json(&detail.engine_profile));
                }
                (m, detail, secs, et_nodes)
            })
            .collect();
        rows.push(scale_row(
            "engine-threads",
            format!("threads={threads}"),
            &runs,
        ));
    }
    CustomOut {
        rows,
        workload: None,
        timeline,
        profile,
    }
}

/// The `perf` scenario: wall-clock throughput of the engine
/// ([`hvdb_sim::ParSimulator`] running [`hvdb_baselines::ParFlood`] on
/// its own 16 shards)
/// on one flooding workload at 1 and `--threads` (default 4) worker
/// threads, as events/s and simulated-seconds per wall-second. The gates
/// ([`ScenarioDef::gates`]) require identical `events_processed` at every
/// thread count (the determinism contract, always) and a >= 2x events/s
/// speedup when the machine has the cores to show one.
///
/// Smoke mode shrinks the node count but keeps tens of simulated
/// seconds (unlike [`Workload::smoke`]'s milliseconds): a wall-clock
/// ratio needs enough work to rise above timer noise.
///
/// Rows additionally report `lane_imbalance` — max/mean per-lane busy
/// wall-time from the engine profiler, 1.0 being perfect balance. It is
/// observational (never gated: wall-clock is machine-dependent); the
/// multi-thread row's first seed also contributes the report's
/// non-deterministic `profile` block.
fn custom_perf(opts: &RunOpts) -> CustomOut {
    let seeds = opts.seeds_or(&[1, 2]);
    // vc_side is set by `scaled_vc_side` below.
    let full = Workload {
        dim: 4,
        range: 450.0,
        groups: 3,
        members_per_group: 10,
        // Flooding carries the whole load here; a dense packet schedule
        // keeps lookahead windows full enough for the speedup measurement
        // to reflect the engine, not idle lanes between wavefronts.
        packets_per_group: 24,
        warmup: SimDuration::from_secs(100),
        traffic_window: SimDuration::from_secs(30),
        cooldown: SimDuration::from_secs(20),
        ..Workload::default()
    };
    let base = if opts.smoke {
        Workload {
            warmup: SimDuration::from_secs(40),
            traffic_window: SimDuration::from_secs(10),
            cooldown: SimDuration::from_secs(10),
            ..full
        }
    } else {
        full
    };
    const PAR_SHARDS: usize = 16;
    let par_nodes = if opts.smoke { 120 } else { 600 };
    let multi = if opts.threads > 1 { opts.threads } else { 4 };
    let mut rows = Vec::new();
    let mut profile = None;
    // Sequential on purpose, like `scale`'s engine-threads arm: parallel
    // seeds would time each other.
    for &threads in &[1usize, multi] {
        let mut events = 0u64;
        let mut wall = 0.0f64;
        let mut sim_secs = 0.0f64;
        let mut delivery = 0.0f64;
        let mut imbalance = 0.0f64;
        for &seed in &seeds {
            let w = Workload {
                nodes: par_nodes,
                side: (par_nodes as f64 * 8533.0).sqrt(),
                vc_side: scaled_vc_side(par_nodes),
                seed,
                threads,
                ..base.clone()
            };
            let (m, detail) = run_par_flood(&w.build(), PAR_SHARDS);
            events += detail.events_processed;
            wall += detail.wall_secs;
            sim_secs += detail.sim_secs;
            delivery += m.delivery;
            imbalance += detail.engine_profile.lane_imbalance();
            if threads == multi && seed == seeds[0] {
                profile = Some(profile_json(&detail.engine_profile));
            }
        }
        rows.push(Row::new(
            "engine-threads",
            format!("threads={threads}"),
            "par-flood",
            vec![
                ("events_per_s".into(), events as f64 / wall.max(1e-9)),
                (
                    "sim_sec_per_wall_sec".into(),
                    sim_sec_per_wall_sec(sim_secs, wall),
                ),
                ("wall_ms".into(), wall * 1e3),
                ("events_processed".into(), events as f64),
                ("hardware_threads".into(), rayon::hardware_threads() as f64),
                ("lane_imbalance".into(), imbalance / seeds.len() as f64),
                ("delivery".into(), delivery / seeds.len() as f64),
            ],
        ));
    }
    CustomOut {
        rows,
        profile,
        ..CustomOut::default()
    }
}

/// The `overhead` scenario: control traffic vs membership-churn rate at a
/// fixed 10% frame loss, run under both the adaptive refresh controller
/// and the PR 2 fixed rate on byte-identical inputs. The quiet phase
/// (`churn=0`) is the gated point: adaptive refresh-plane frames/s must
/// be at most half the fixed-rate baseline's ([`ScenarioDef::gates`]),
/// converting the ROADMAP's c4 overhead delta into an enforced number.
fn custom_overhead(opts: &RunOpts) -> CustomOut {
    let base = Workload {
        nodes: 120,
        loss_prob: 0.10,
        members_per_group: 8,
        packets_per_group: 6,
        warmup: SimDuration::from_secs(100),
        traffic_window: SimDuration::from_secs(30),
        cooldown: SimDuration::from_secs(20),
        enhanced_fraction: 1.0,
        ..paper_workload()
    };
    let churns: Vec<usize> = if opts.smoke {
        vec![0, 3]
    } else {
        vec![0, 12, 40]
    };
    let seeds = opts.seeds_or(&[1, 2, 3]);
    const VARIANTS: [(&str, bool); 2] = [("hvdb-adaptive", true), ("hvdb-fixed", false)];
    let cells: Vec<(usize, &str, bool)> = churns
        .iter()
        .flat_map(|&churn| VARIANTS.map(|(proto, adaptive)| (churn, proto, adaptive)))
        .collect();
    let runs = per_cell(&cells, &seeds, |&(churn, _, adaptive), seed| {
        let w = Workload {
            churn_events: churn,
            seed,
            ..base.clone()
        };
        let w = if opts.smoke { w.smoke() } else { w };
        let scenario = w.build();
        let secs = scenario.until.since(SimTime::ZERO).as_secs_f64();
        let (m, detail) = run_hvdb_tweaked(&scenario, &|cfg| cfg.adaptive_refresh = adaptive);
        (m, detail, secs, w.nodes)
    });
    let rows: Vec<Row> = cells
        .iter()
        .zip(&runs)
        .map(|(&(churn, proto, _), runs)| {
            Row::new(
                "churn",
                format!("churn={churn}"),
                proto,
                vec![
                    ("delivery".into(), mean(runs, |(m, ..)| m.delivery)),
                    (
                        "control_frames_per_s".into(),
                        mean(runs, |(m, _, secs, _)| m.control_msgs as f64 / secs),
                    ),
                    (
                        "control_bytes_per_node".into(),
                        mean(runs, |(m, _, _, n)| m.control_bytes as f64 / *n as f64),
                    ),
                    (
                        "refresh_frames_per_s".into(),
                        mean(runs, |(_, d, secs, _)| d.refresh_frames as f64 / secs),
                    ),
                    (
                        "refresh_suppressed".into(),
                        mean(runs, |(_, d, ..)| d.soft_refresh_suppressed as f64),
                    ),
                    (
                        "stale_suppressed".into(),
                        mean(runs, |(_, d, ..)| d.soft_stale_suppressed as f64),
                    ),
                    (
                        "stamp_hints_sent".into(),
                        mean(runs, |(_, d, ..)| d.hvdb_counters.stamp_hints_sent as f64),
                    ),
                    // The PR-4 residual made visible: region-cube builds
                    // served from the per-head cache vs actually
                    // performed. In the quiet phase nearly every
                    // designation check is a hit.
                    (
                        "cube_cache_hits".into(),
                        mean(runs, |(_, d, ..)| d.hvdb_counters.cube_cache_hits as f64),
                    ),
                    (
                        "cube_rebuilds".into(),
                        mean(runs, |(_, d, ..)| d.hvdb_counters.cube_rebuilds as f64),
                    ),
                ],
            )
        })
        .collect();
    rows.into()
}

/// The `traffic` scenario: deterministic shaped load swept up the
/// saturation knee, HVDB against the flooding and shared-tree baselines
/// on byte-identical offered traffic.
///
/// Every point offers `pps` packets/s of Poisson traffic split over 24
/// concurrent flows (12 groups × 2 flows, group sessions staggered 1 s
/// apart), through a 250 ms interface-queue cap, and reports
/// histogram-derived goodput, p50/p99/p999 latency and jitter — the
/// traffic plane's per-flow accounting, no per-packet records. As load
/// crosses a protocol's capacity its queues saturate: latency quantiles
/// blow up and the queue cap starts dropping, so delivery falls — the
/// knee. Flooding spends Θ(N) transmissions per packet (every node's
/// radio carries the whole offered load), the shared tree funnels
/// everything through its core; HVDB's clustered trees spread the same
/// load across the backbone, which is exactly the §5 claim the `traffic`
/// entry's [`ScenarioDef::gates`] turn into a CI gate: HVDB's knee must
/// sit strictly above both baselines', and its pre-knee p99 must stay
/// inside the committed band.
fn custom_traffic(opts: &RunOpts) -> CustomOut {
    use hvdb_traffic::{SourceModel, TrafficSpec};
    // The paper's §6 geometry at full backbone occupancy, zero frame
    // loss and no mobility: the sweep must expose *load* limits, not
    // control-plane robustness (the loss scenario covers that).
    let base = Workload {
        nodes: 120,
        // Many small sessions: HVDB's per-packet cost scales with the
        // member-CH count of the destination group, flooding's with N —
        // the session mix real multicast workloads have (and the paper
        // assumes) is lots of modest groups, not a few giant ones.
        groups: 12,
        members_per_group: 4,
        packets_per_group: 0, // all data comes from the traffic spec
        warmup: SimDuration::from_secs(100),
        traffic_window: SimDuration::from_secs(20),
        cooldown: SimDuration::from_secs(15),
        enhanced_fraction: 1.0,
        queue_cap: SimDuration::from_millis(250),
        compact_delivery: true,
        ..paper_workload()
    };
    let offered: Vec<f64> = if opts.smoke {
        vec![10.0, 20.0]
    } else {
        vec![20.0, 40.0, 80.0, 160.0, 240.0, 320.0, 480.0, 640.0]
    };
    let seeds = opts.seeds_or(&[1, 2]);
    const PROTOS: [Proto; 3] = [Proto::Hvdb, Proto::Flooding, Proto::SharedTree];
    const FLOWS_PER_GROUP: u32 = 2;
    // Derived, not hardcoded: retuning base.groups must retune the
    // per-flow rate split with it.
    let flows = base.groups as u32 * FLOWS_PER_GROUP;
    let cells: Vec<(f64, Proto)> = offered
        .iter()
        .flat_map(|&pps| PROTOS.map(|proto| (pps, proto)))
        .collect();
    let runs = per_cell(&cells, &seeds, |&(pps, proto), seed| {
        let w = Workload {
            traffic_spec: Some(TrafficSpec {
                flows_per_group: FLOWS_PER_GROUP,
                rate_pps: pps / flows as f64,
                payload: base.payload,
                model: SourceModel::Poisson,
                group_stagger_us: 1_000_000,
            }),
            seed,
            ..base.clone()
        };
        let w = if opts.smoke { w.smoke() } else { w };
        let window_secs = w.traffic_window.as_secs_f64();
        let scenario = w.build();
        let (m, detail) = match proto {
            // Zero-loss heavy load: one LocalDeliver broadcast per
            // delivery — the repeat knob exists for loss robustness
            // and would triple HVDB's final-hop load for nothing.
            Proto::Hvdb => run_hvdb_tweaked(&scenario, &|cfg| cfg.deliver_repeats = 1),
            p => run_one_instrumented(p, &scenario),
        };
        (m, detail.traffic, window_secs)
    });
    let rows: Vec<Row> = cells
        .iter()
        .zip(&runs)
        .map(|(&(pps, proto), runs)| {
            Row::new(
                "offered-load",
                format!("pps={pps}"),
                proto.name(),
                vec![
                    ("offered_pps".into(), pps),
                    ("delivery".into(), mean(runs, |(m, ..)| m.delivery)),
                    ("delivery_worst".into(), min_of(runs, |(m, ..)| m.delivery)),
                    // Receiver-slot throughput: distinct (packet, receiver)
                    // deliveries per second — deliberately NOT in the same
                    // unit as offered_pps (a packet fans out to every group
                    // member).
                    (
                        "delivered_pps".into(),
                        mean(runs, |(_, p, secs)| {
                            p.flow_delivered as f64 / secs.max(1e-9)
                        }),
                    ),
                    ("p50_ms".into(), mean(runs, |(_, p, _)| p.p50_ms)),
                    ("p99_ms".into(), mean(runs, |(_, p, _)| p.p99_ms)),
                    ("p999_ms".into(), mean(runs, |(_, p, _)| p.p999_ms)),
                    (
                        "jitter_mean_ms".into(),
                        mean(runs, |(_, p, _)| p.jitter_mean_ms),
                    ),
                    (
                        "jitter_p99_ms".into(),
                        mean(runs, |(_, p, _)| p.jitter_p99_ms),
                    ),
                    ("hops_mean".into(), mean(runs, |(_, p, _)| p.hops_mean)),
                    (
                        "drops_queue_full".into(),
                        mean(runs, |(_, p, _)| p.drops_queue_full as f64),
                    ),
                ],
            )
        })
        .collect();
    rows.into()
}

/// C1b's fault plan: `count` distinct victims drawn from `w`'s seed on
/// their own stream, failing in ascending id order at mid-traffic-window.
fn fail_stop_plan(w: &Workload, count: usize) -> FaultPlan {
    let at = SimTime(w.warmup.0 + w.traffic_window.0 / 2);
    let mut victims = SimRng::new(w.seed ^ 0xFA11_FA11).sample_indices(w.nodes, count.min(w.nodes));
    victims.sort_unstable();
    victims
        .into_iter()
        .fold(FaultPlan::new(), |plan, v| plan.fail(at, NodeId(v as u32)))
}

/// C1: high availability via disjoint logical routes.
fn custom_c1(opts: &RunOpts) -> CustomOut {
    let mut rows = Vec::new();
    // C1a — disjoint-path count between surviving pairs as the cube
    // degrades (pure structure).
    let dims: Vec<u8> = if opts.smoke {
        vec![4]
    } else {
        vec![3, 4, 5, 6]
    };
    let failure_levels: Vec<usize> = if opts.smoke {
        vec![0, 4]
    } else {
        vec![0, 2, 4, 6, 8]
    };
    let trials = if opts.smoke { 3 } else { 20 };
    let mut rng = SimRng::new(5);
    for &dim in &dims {
        for &failures in &failure_levels {
            let mut total = 0usize;
            let mut samples = 0usize;
            for _ in 0..trials {
                let mut cube = IncompleteHypercube::complete(dim);
                let n = 1usize << dim;
                for idx in rng.sample_indices(n, failures.min(n.saturating_sub(2))) {
                    cube.remove_node(idx as u32);
                }
                let alive: Vec<u32> = cube.iter_nodes().collect();
                if alive.len() < 2 {
                    continue;
                }
                for _ in 0..4 {
                    let a = alive[rng.index(alive.len())];
                    let b = alive[rng.index(alive.len())];
                    if a == b {
                        continue;
                    }
                    total += pair_connectivity(&cube, a, b);
                    samples += 1;
                }
            }
            rows.push(Row::new(
                "disjoint-paths-under-damage",
                format!("dim={dim},failed={failures}"),
                "-",
                vec![(
                    "mean_disjoint_paths".into(),
                    total as f64 / samples.max(1) as f64,
                )],
            ));
        }
    }
    // C1b — full protocol delivery under fail-stop; `route_failovers`
    // counts the instant switches onto a retained alternative route.
    let failure_counts: Vec<usize> = if opts.smoke {
        vec![0, 2]
    } else {
        vec![0, 5, 10, 20]
    };
    for failures in failure_counts {
        let base = Workload {
            seed: 21,
            ..Workload::default()
        };
        let (mut w, count) = if opts.smoke {
            (base.smoke(), failures.min(2))
        } else {
            (base, failures)
        };
        w.faults = fail_stop_plan(&w, count);
        let (m, detail) = run_one_instrumented(Proto::Hvdb, &w.build());
        let c = detail.hvdb_counters;
        let mut metrics = m.metric_pairs();
        metrics.push(("neighbors_expired".into(), c.neighbors_expired as f64));
        metrics.push(("route_failovers".into(), c.route_failovers as f64));
        rows.push(Row::new(
            "delivery-under-fail-stop",
            format!("failures={failures}"),
            Proto::Hvdb.name(),
            metrics,
        ));
    }
    rows.into()
}

fn mean_distance(cube: &IncompleteHypercube) -> f64 {
    let nodes: Vec<u32> = cube.iter_nodes().collect();
    let mut total = 0u64;
    let mut pairs = 0u64;
    for &src in &nodes {
        for r in local_routes(cube, src, u32::MAX) {
            total += r.hops as u64;
            pairs += 1;
        }
    }
    total as f64 / pairs.max(1) as f64
}

/// C2: small diameter.
fn custom_c2(opts: &RunOpts) -> CustomOut {
    let mut rows = Vec::new();
    let dims: Vec<u8> = if opts.smoke {
        vec![3, 4]
    } else {
        vec![3, 4, 5, 6]
    };
    // C2a — diameter and mean logical distance, with and without the
    // Fig. 3 grid links.
    for &dim in &dims {
        let pure = IncompleteHypercube::complete(dim);
        let rows_g = 1u16 << dim.div_ceil(2);
        let cols_g = 1u16 << (dim / 2);
        let cfg = HvdbConfig::new(Aabb::from_size(1600.0, 1600.0), rows_g, cols_g, dim);
        let with_grid = build_region_cube(&cfg, Hid::new(0, 0), (0..1u32 << dim).map(Hnid));
        rows.push(Row::new(
            "diameter-vs-dimension",
            format!("dim={dim}"),
            "-",
            vec![
                ("diameter".into(), diameter(&pure).unwrap() as f64),
                ("mean_distance".into(), mean_distance(&pure)),
                (
                    "diameter_with_grid".into(),
                    diameter(&with_grid).unwrap() as f64,
                ),
                ("mean_distance_with_grid".into(), mean_distance(&with_grid)),
            ],
        ));
    }
    // C2b — incomplete 4-cubes with grid links across occupancy.
    let trials = if opts.smoke { 5 } else { 30 };
    let cfg = HvdbConfig::fig2(Aabb::from_size(800.0, 800.0));
    let mut rng = SimRng::new(17);
    for occupancy in [0.4, 0.6, 0.8, 1.0] {
        let mut connected = 0usize;
        let mut diam_sum = 0u64;
        let mut dist_sum = 0.0;
        let mut samples = 0usize;
        for _ in 0..trials {
            let present: Vec<Hnid> = (0..16u32)
                .filter(|_| rng.chance(occupancy))
                .map(Hnid)
                .collect();
            if present.len() < 2 {
                continue;
            }
            let cube = build_region_cube(&cfg, Hid::new(0, 0), present);
            if cube.is_connected() {
                connected += 1;
                diam_sum += diameter(&cube).unwrap() as u64;
                dist_sum += mean_distance(&cube);
                samples += 1;
            }
        }
        rows.push(Row::new(
            "incomplete-cubes-vs-occupancy",
            format!("occupancy={occupancy}"),
            "-",
            vec![
                (
                    "connected_fraction".into(),
                    connected as f64 / trials as f64,
                ),
                (
                    "mean_diameter".into(),
                    diam_sum as f64 / samples.max(1) as f64,
                ),
                ("mean_distance".into(), dist_sum / samples.max(1) as f64),
            ],
        ));
    }
    // C2c — fraction of the cube reachable within k hops.
    for &dim in &dims {
        let rows_g = 1u16 << dim.div_ceil(2);
        let cols_g = 1u16 << (dim / 2);
        let cfg = HvdbConfig::new(Aabb::from_size(1600.0, 1600.0), rows_g, cols_g, dim);
        let cube = build_region_cube(&cfg, Hid::new(0, 0), (0..1u32 << dim).map(Hnid));
        let total = (1usize << dim) - 1;
        for k in 1u32..=4 {
            let covered = local_routes(&cube, 0, k).len();
            rows.push(Row::new(
                "horizon-coverage",
                format!("dim={dim},k={k}"),
                "-",
                vec![("covered_fraction".into(), covered as f64 / total as f64)],
            ));
        }
    }
    rows.into()
}

/// C3: load balancing vs the shared tree's core bottleneck.
fn custom_c3(opts: &RunOpts) -> CustomOut {
    let base = Workload {
        packets_per_group: 40, // heavy traffic to expose hot spots
        groups: 2,
        members_per_group: 15,
        seed: 71,
        ..Workload::default()
    };
    let w = if opts.smoke { base.smoke() } else { base };
    let scenario = w.build();
    let mut rows = Vec::new();
    let dist_metrics = |tx: &[u64]| {
        let mut sorted: Vec<u64> = tx.to_vec();
        sorted.sort_unstable();
        let hottest = *sorted.last().unwrap_or(&0);
        let median = sorted.get(sorted.len() / 2).copied().unwrap_or(0);
        vec![
            ("jain".into(), jain_fairness(tx)),
            ("max_mean".into(), max_mean_ratio(tx)),
            ("gini".into(), gini(tx)),
            ("hottest_bytes".into(), hottest as f64),
            ("median_bytes".into(), median as f64),
        ]
    };
    // HVDB, including the CH-plane view the claim is about.
    let (mut sim, hvdb) = hvdb_run(&scenario);
    sim.run(&hvdb, scenario.until);
    let mut m = dist_metrics(&sim.stats().node_tx_bytes);
    m.push(("delivery".into(), metrics_of(sim.stats()).delivery));
    rows.push(Row::new("tx-bytes-distribution", "all-nodes", "hvdb", m));
    let heads = cluster_heads(&sim);
    let head_tx: Vec<u64> = heads
        .iter()
        .map(|h| sim.stats().node_tx_bytes[h.idx()])
        .collect();
    rows.push(Row::new(
        "tx-bytes-distribution",
        "cluster-heads",
        "hvdb",
        dist_metrics(&head_tx),
    ));
    // Shared tree, including the core's load multiple.
    let mut sim = new_sim(&scenario, SHARDS);
    let tree = hvdb_baselines::SharedTreeProtocol::new(
        &scenario.members,
        scenario.traffic.clone(),
        vec![],
    );
    sim.run(&tree, scenario.until);
    let mut m = dist_metrics(&sim.stats().node_tx_bytes);
    m.push(("delivery".into(), metrics_of(sim.stats()).delivery));
    if let Some(core) = tree.core() {
        let core_bytes = sim.stats().node_tx_bytes[core.idx()];
        let mean =
            sim.stats().node_tx_bytes.iter().sum::<u64>() as f64 / scenario.sim.num_nodes as f64;
        m.push(("core_bytes".into(), core_bytes as f64));
        m.push(("core_over_mean".into(), core_bytes as f64 / mean.max(1.0)));
    }
    rows.push(Row::new(
        "tx-bytes-distribution",
        "all-nodes",
        "shared-tree",
        m,
    ));
    // Flooding as the perfectly-uniform reference.
    let flood = run_one(Proto::Flooding, &scenario);
    rows.push(Row::new(
        "tx-bytes-distribution",
        "all-nodes",
        "flooding",
        flood.metric_pairs(),
    ));
    rows.into()
}

/// F1: model construction statistics.
fn custom_f1(opts: &RunOpts) -> CustomOut {
    use hvdb_cluster::{diff, form_clusters, Candidate};
    let area = Aabb::from_size(1600.0, 1600.0);
    let cfg = HvdbConfig::new(area, 8, 8, 4);
    let snapshot = |n: usize, enhanced: f64, rng: &mut SimRng| -> Vec<Candidate> {
        (0..n)
            .map(|i| Candidate {
                node: i as u32,
                pos: rng.point_in(&cfg.grid.area()),
                vel: rng.velocity(0.5, 3.0),
                eligible: rng.chance(enhanced),
            })
            .collect()
    };
    let mut rows = Vec::new();
    let node_counts: Vec<usize> = if opts.smoke {
        vec![50, 100]
    } else {
        vec![50, 100, 200, 400, 800, 1600]
    };
    for n in node_counts {
        let mut rng = SimRng::new(42);
        let snap = snapshot(n, 0.8, &mut rng);
        let model = build_model(&cfg, &snap);
        let s = model.stats(&cfg.map, n);
        rows.push(Row::new(
            "backbone-vs-node-count",
            format!("nodes={n}"),
            "-",
            vec![
                ("cluster_heads".into(), s.cluster_heads as f64),
                ("border_chs".into(), s.border_chs as f64),
                ("inner_chs".into(), s.inner_chs as f64),
                ("hypercubes".into(), s.hypercubes as f64),
                ("mean_occupancy".into(), s.mean_occupancy),
                ("connected_fraction".into(), s.connected_fraction),
            ],
        ));
    }
    let fractions: Vec<f64> = if opts.smoke {
        vec![0.25, 0.75]
    } else {
        vec![0.1, 0.25, 0.5, 0.75, 1.0]
    };
    let n = if opts.smoke { 100 } else { 400 };
    for e in fractions {
        let mut rng = SimRng::new(43);
        let snap = snapshot(n, e, &mut rng);
        let model = build_model(&cfg, &snap);
        let s = model.stats(&cfg.map, n);
        rows.push(Row::new(
            "backbone-vs-enhanced-fraction",
            format!("enhanced={e}"),
            "-",
            vec![
                ("cluster_heads".into(), s.cluster_heads as f64),
                ("hypercubes".into(), s.hypercubes as f64),
                ("mean_occupancy".into(), s.mean_occupancy),
                ("connected_fraction".into(), s.connected_fraction),
            ],
        ));
    }
    let speeds: Vec<(f64, f64)> = if opts.smoke {
        vec![(0.5, 2.0)]
    } else {
        vec![(0.1, 0.5), (0.5, 2.0), (2.0, 8.0), (8.0, 20.0)]
    };
    for (lo, hi) in speeds {
        let mut rng = SimRng::new(44);
        let mut snap = snapshot(n, 0.8, &mut rng);
        for c in snap.iter_mut() {
            c.vel = rng.velocity(lo, hi);
        }
        let before = form_clusters(&cfg.grid, &snap);
        for c in snap.iter_mut() {
            c.pos = cfg.grid.area().clamp(c.pos.advanced(c.vel, 10.0));
        }
        let after = form_clusters(&cfg.grid, &snap);
        let (events, report) = diff(&before, &after);
        rows.push(Row::new(
            "cluster-stability-vs-speed",
            format!("speed={lo}-{hi}"),
            "-",
            vec![
                ("retention".into(), report.retention()),
                ("handovers".into(), events.len() as f64),
            ],
        ));
    }
    rows.into()
}

/// F2: the Fig. 2 worked example.
fn custom_f2(opts: &RunOpts) -> CustomOut {
    use hvdb_cluster::Candidate;
    let area = Aabb::from_size(800.0, 800.0);
    let cfg = HvdbConfig::fig2(area);
    let full: Vec<Candidate> = cfg
        .grid
        .iter_ids()
        .enumerate()
        .map(|(i, vc)| Candidate {
            node: i as u32,
            pos: cfg.grid.vcc(vc),
            vel: Vec2::ZERO,
            eligible: true,
        })
        .collect();
    let mut rows = Vec::new();
    // The figure audit is milliseconds of pure structure; smoke keeps just
    // the exact-figure variant.
    let variants: &[(&str, f64)] = if opts.smoke {
        &[("full", 1.0)]
    } else {
        &[("full", 1.0), ("sparse-60pct", 0.6)]
    };
    for &(label, occupancy) in variants {
        let mut rng = SimRng::new(7);
        let snap: Vec<Candidate> = full
            .iter()
            .filter(|_| occupancy >= 1.0 || rng.chance(occupancy))
            .cloned()
            .collect();
        let model = build_model(&cfg, &snap);
        let s = model.stats(&cfg.map, snap.len());
        let mut connected_cubes = 0usize;
        let mut complete_cubes = 0usize;
        for hid in &model.mesh_present {
            let cube = model.cube(*hid).expect("present cube");
            if cube.is_connected() {
                connected_cubes += 1;
            }
            if cube.is_complete() {
                complete_cubes += 1;
            }
        }
        rows.push(Row::new(
            "fig2-structure",
            label,
            "-",
            vec![
                ("cluster_heads".into(), s.cluster_heads as f64),
                ("border_chs".into(), s.border_chs as f64),
                ("inner_chs".into(), s.inner_chs as f64),
                ("hypercubes".into(), s.hypercubes as f64),
                ("mean_occupancy".into(), s.mean_occupancy),
                ("connected_cubes".into(), connected_cubes as f64),
                ("complete_cubes".into(), complete_cubes as f64),
            ],
        ));
        if occupancy >= 1.0 {
            // The exact figure: every VC occupied, four complete 4-cubes.
            assert!(model.mesh_present.contains(&Hid::new(0, 0)));
        }
    }
    rows.into()
}

/// F3: the Fig. 3 hypercube with grid links.
fn custom_f3(opts: &RunOpts) -> CustomOut {
    let cfg = HvdbConfig::fig2(Aabb::from_size(800.0, 800.0));
    let cube = build_region_cube(&cfg, Hid::new(0, 0), (0..16u32).map(Hnid));
    let mut rows = Vec::new();
    // Node 1000's local routes — the paper's worked example.
    let table = local_routes(&cube, 0b1000, 2);
    let one_hop = table.iter().filter(|r| r.hops == 1).count();
    let two_hop = table.iter().filter(|r| r.hops == 2).count();
    // The paper's published 2-hop chains are valid logical-link sequences.
    let mut chains_valid = 0usize;
    for chain in [
        [0b1000u32, 0b1001, 0b1100],
        [0b1000, 0b1100, 0b1101],
        [0b1000, 0b0010, 0b0011],
        [0b1000, 0b0010, 0b0110],
    ] {
        let valid = chain.windows(2).all(|hop| cube.has_link(hop[0], hop[1]))
            && table
                .iter()
                .find(|r| r.dst == chain[2])
                .is_some_and(|r| r.hops <= 2);
        if valid {
            chains_valid += 1;
        }
    }
    rows.push(Row::new(
        "node-1000-routes",
        label::to_bits(0b1000, 4),
        "-",
        vec![
            ("one_hop_routes".into(), one_hop as f64),
            ("two_hop_routes".into(), two_hop as f64),
            ("paper_chains_valid".into(), chains_valid as f64),
        ],
    ));
    // Structural properties vs dimension.
    let dims: Vec<u8> = if opts.smoke {
        vec![4]
    } else {
        vec![3, 4, 5, 6]
    };
    for dim in dims {
        let c = IncompleteHypercube::complete(dim);
        let far = (1u32 << dim) - 1;
        rows.push(Row::new(
            "structure-vs-dimension",
            format!("dim={dim}"),
            "-",
            vec![
                ("nodes".into(), c.node_count() as f64),
                ("diameter".into(), diameter(&c).unwrap() as f64),
                (
                    "disjoint_opposite".into(),
                    pair_connectivity(&c, 0, far) as f64,
                ),
                (
                    "disjoint_adjacent".into(),
                    pair_connectivity(&c, 0, 1) as f64,
                ),
            ],
        ));
    }
    // Grid links shrink logical distances (dim 4, full region).
    let plain = IncompleteHypercube::complete(4);
    rows.push(Row::new(
        "grid-links-effect",
        "dim=4",
        "-",
        vec![
            ("diameter_pure".into(), diameter(&plain).unwrap() as f64),
            ("diameter_with_grid".into(), diameter(&cube).unwrap() as f64),
            (
                "connectivity_pure".into(),
                pair_connectivity(&plain, 0b0000, 0b1111) as f64,
            ),
            (
                "connectivity_with_grid".into(),
                pair_connectivity(&cube, 0b0000, 0b1111) as f64,
            ),
        ],
    ));
    rows.into()
}

/// F4: proactive route maintenance on a pinned-grid deployment.
fn custom_f4(opts: &RunOpts) -> CustomOut {
    // One node pinned near every VC centre.
    let (grid_side, run_secs) = if opts.smoke { (4u16, 20u64) } else { (8, 60) };
    let build_sim = |seed: u64| -> (HvdbSim, HvdbConfig) {
        let area = Aabb::from_size(200.0 * grid_side as f64, 200.0 * grid_side as f64);
        let cfg = HvdbConfig::new(area, grid_side, grid_side, 4);
        let n = (grid_side * grid_side) as usize;
        let sim_cfg = SimConfig {
            area,
            num_nodes: n,
            radio: RadioConfig {
                range: 500.0,
                ..Default::default()
            },
            mobility_tick: SimDuration::ZERO,
            enhanced_fraction: 1.0,
            seed,
            compact_delivery: false,
        };
        let mut sim: HvdbSim = ParSimulator::new(sim_cfg, Box::new(Stationary), SHARDS, 1);
        let ids: Vec<_> = cfg.grid.iter_ids().collect();
        for (i, vc) in ids.iter().enumerate() {
            let c = cfg.grid.vcc(*vc);
            sim.world_mut().set_motion(
                NodeId(i as u32),
                Point::new(c.x + (i % 5) as f64, c.y),
                Vec2::ZERO,
            );
        }
        sim.world_mut().rebuild_index();
        (sim, cfg)
    };
    let mut rows = Vec::new();
    // F4a — route-table completeness and beacon cost vs horizon k.
    let ks: Vec<u32> = if opts.smoke {
        vec![2]
    } else {
        vec![1, 2, 3, 4, 5, 6]
    };
    for k in ks {
        let (mut sim, mut cfg) = build_sim(10 + k as u64);
        cfg.k = k;
        let core = HvdbCore::new(cfg, &[], vec![], vec![]);
        sim.run(&core, SimTime::from_secs(run_secs));
        let heads = cluster_heads(&sim);
        let dests: usize = heads
            .iter()
            .filter_map(|h| sim.node_state(*h).and_then(HvdbNode::route_table))
            .map(|t| t.destination_count())
            .sum();
        let msgs = sim.stats().msgs("beacon");
        rows.push(Row::new(
            "route-tables-vs-horizon",
            format!("k={k}"),
            Proto::Hvdb.name(),
            vec![
                (
                    "avg_destinations".into(),
                    dests as f64 / heads.len().max(1) as f64,
                ),
                ("beacon_msgs".into(), msgs as f64),
                ("beacon_bytes".into(), sim.stats().bytes("beacon") as f64),
                (
                    "beacons_per_ch_per_sec".into(),
                    msgs as f64 / heads.len().max(1) as f64 / run_secs as f64,
                ),
            ],
        ));
    }
    // F4b — recovery after CH failures (k = 4).
    let failure_counts: Vec<usize> = if opts.smoke {
        vec![0, 2]
    } else {
        vec![0, 4, 8, 16]
    };
    for failures in failure_counts {
        let (mut sim, cfg) = build_sim(99);
        let core = HvdbCore::new(cfg, &[], vec![], vec![]);
        // Let the backbone converge, then fail CHs, then let it recover.
        let mut plan = FaultPlan::new();
        for f in 0..failures {
            plan = plan.fail(SimTime::from_secs(run_secs), NodeId((f * 4) as u32));
        }
        sim.inject_plan(&plan);
        sim.run(&core, SimTime::from_secs(2 * run_secs));
        let heads = cluster_heads(&sim);
        let dests: usize = heads
            .iter()
            .filter_map(|h| sim.node_state(*h).and_then(HvdbNode::route_table))
            .map(|t| t.destination_count())
            .sum();
        rows.push(Row::new(
            "recovery-after-failures",
            format!("failed={failures}"),
            Proto::Hvdb.name(),
            vec![
                (
                    "neighbors_expired".into(),
                    total_counters(&sim).neighbors_expired as f64,
                ),
                (
                    "route_failovers".into(),
                    total_counters(&sim).route_failovers as f64,
                ),
                (
                    "avg_destinations".into(),
                    dests as f64 / heads.len().max(1) as f64,
                ),
            ],
        ));
    }
    rows.into()
}

/// A1: ablations over the design choices.
fn custom_a1(opts: &RunOpts) -> CustomOut {
    let base = Workload {
        seed: 4,
        ..Workload::default()
    };
    let base = if opts.smoke { base.smoke() } else { base };
    let run_with = |w: &Workload, tweak: &dyn Fn(&mut HvdbConfig)| {
        let mut scenario = w.build();
        tweak(&mut scenario.hvdb);
        let (mut sim, core) = hvdb_run(&scenario);
        sim.run(&core, scenario.until);
        // HT traffic spans both the content cycle and the refresh plane
        // (reclassified to "ht-refresh" for overhead accounting).
        let ht_bytes = sim.stats().bytes("ht-bcast") + sim.stats().bytes("ht-refresh");
        (metrics_of(sim.stats()), total_counters(&sim), ht_bytes)
    };
    let mut rows = Vec::new();
    // A1a — horizon k: route-table reach vs beacon cost.
    let ks: Vec<u32> = if opts.smoke {
        vec![2]
    } else {
        vec![1, 2, 4, 6]
    };
    for k in ks {
        let (m, c, _) = run_with(&base, &|cfg| cfg.k = k);
        let mut metrics = m.metric_pairs();
        metrics.push(("no_route".into(), c.no_route as f64));
        rows.push(Row::new(
            "horizon-k",
            format!("k={k}"),
            Proto::Hvdb.name(),
            metrics,
        ));
    }
    // A1b — hypercube dimension (paper suggests 3..6).
    let dims: Vec<u8> = if opts.smoke {
        vec![4]
    } else {
        vec![3, 4, 5, 6]
    };
    for dim in dims {
        let w = Workload {
            dim,
            vc_side: 8,
            ..base.clone()
        };
        let (m, _, _) = run_with(&w, &|_| {});
        rows.push(Row::new(
            "dimension",
            format!("dim={dim}"),
            Proto::Hvdb.name(),
            m.metric_pairs(),
        ));
    }
    // A1c — multicast-tree caching (§4.3).
    let heavy = Workload {
        packets_per_group: if opts.smoke { 2 } else { 30 },
        ..base.clone()
    };
    for cache in [true, false] {
        let (m, c, _) = run_with(&heavy, &|cfg| cfg.cache_trees = cache);
        let mut metrics = m.metric_pairs();
        metrics.push(("trees_built".into(), c.trees_built as f64));
        metrics.push(("tree_cache_hits".into(), c.tree_cache_hits as f64));
        rows.push(Row::new(
            "tree-caching",
            format!("cache={cache}"),
            Proto::Hvdb.name(),
            metrics,
        ));
    }
    // A1d — designated-broadcaster criterion (§4.2).
    for (name, crit) in [
        ("most-groups", DesignationCriterion::MostGroups),
        (
            "neighborhood-groups",
            DesignationCriterion::NeighborhoodGroups,
        ),
    ] {
        let (m, c, ht_bytes) = run_with(&base, &move |cfg| cfg.designation = crit);
        let mut metrics = m.metric_pairs();
        metrics.push(("ht_broadcasts".into(), c.ht_broadcasts as f64));
        metrics.push(("ht_bytes".into(), ht_bytes as f64));
        rows.push(Row::new(
            "designation-criterion",
            name,
            Proto::Hvdb.name(),
            metrics,
        ));
    }
    rows.into()
}

#[cfg(test)]
mod tests {
    use super::{fail_stop_plan, scaled_vc_side};
    use crate::workload::Workload;
    use hvdb_sim::{FaultKind, SimTime};

    /// Beyond the historical trajectory points, the derived grid must
    /// keep every VC's diagonal inside the 450 m radio range (a member
    /// in one corner must hear a head in the opposite corner) and stay
    /// a multiple of 4 for the 2x2-region hypercube map.
    #[test]
    fn derived_grids_keep_vc_diagonal_in_radio_range() {
        for nodes in [2001usize, 5000, 10000, 20000, 50000, 100000] {
            let side = (nodes as f64 * 8533.0).sqrt();
            let vc = scaled_vc_side(nodes);
            assert_eq!(vc % 4, 0, "{nodes} nodes: vc_side {vc} not 4-aligned");
            let cell = side / vc as f64;
            assert!(
                cell * std::f64::consts::SQRT_2 <= 450.0,
                "{nodes} nodes: cell {cell:.1} m diagonal exceeds radio range"
            );
        }
        assert_eq!(scaled_vc_side(500), 8);
        assert_eq!(scaled_vc_side(2000), 12);
        assert_eq!(scaled_vc_side(20000), 44);
        assert_eq!(scaled_vc_side(100000), 92);
    }

    /// C1b's victims fail together at mid-traffic-window, in ascending id
    /// order, drawn deterministically from the seed.
    #[test]
    fn fail_stop_plan_strikes_mid_window_in_ascending_order() {
        let w = Workload::default();
        let plan = fail_stop_plan(&w, 3);
        assert_eq!(plan.len(), 3);
        let at = SimTime(w.warmup.0 + w.traffic_window.0 / 2);
        let mut prev = None;
        for ev in plan.events() {
            assert_eq!(ev.at, at, "victims strike mid-window");
            let FaultKind::Fail(n) = ev.kind else {
                panic!("a fail-stop plan only fails nodes, got {:?}", ev.kind);
            };
            assert!(prev < Some(n), "victims keep ascending-id order");
            prev = Some(n);
        }
        assert_eq!(fail_stop_plan(&w, 3), plan, "plan is seed-deterministic");
        assert!(fail_stop_plan(&w, 0).is_empty());
    }
}
