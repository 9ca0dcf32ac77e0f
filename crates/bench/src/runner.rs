//! Protocol runners: execute one scenario under each protocol and collect
//! uniform metrics. Sweeps parallelise across (scenario, seed) with rayon —
//! each simulation stays single-threaded and deterministic.

use crate::report::Json;
use crate::workload::{is_refresh_class, metrics_of, RunMetrics, Scenario, Workload};
use hvdb_baselines::{
    DsmProtocol, FloodingProtocol, ParFlood, ParFloodMsg, ParFloodNode, SharedTreeProtocol,
    SpbmProtocol,
};
use hvdb_core::{HvdbConfig, HvdbProtocol};
use hvdb_sim::{EngineProfile, ParSimulator, SimDuration, Simulator, Stats, Trace, TraceConfig};
use rayon::prelude::*;

/// The protocols under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proto {
    /// The paper's contribution.
    Hvdb,
    /// Network-wide flooding.
    Flooding,
    /// Core-rooted shared tree.
    SharedTree,
    /// DSM-style global snapshots.
    Dsm,
    /// SPBM-style quad-tree aggregation.
    Spbm,
}

impl Proto {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Proto::Hvdb => "hvdb",
            Proto::Flooding => "flooding",
            Proto::SharedTree => "shared-tree",
            Proto::Dsm => "dsm",
            Proto::Spbm => "spbm",
        }
    }

    /// All protocols.
    pub const ALL: [Proto; 5] = [
        Proto::Hvdb,
        Proto::Flooding,
        Proto::SharedTree,
        Proto::Dsm,
        Proto::Spbm,
    ];
}

/// Runs one scenario under one protocol and returns the metrics.
pub fn run_one(proto: Proto, scenario: &Scenario) -> RunMetrics {
    let (metrics, _) = run_one_instrumented(proto, scenario);
    metrics
}

/// Per-run instrumentation beyond the uniform [`RunMetrics`], available
/// when the protocol exposes it (currently HVDB's internal counters).
#[derive(Debug, Clone, Default)]
pub struct RunDetail {
    /// HVDB protocol counters (`None` for baselines).
    pub hvdb_counters: Option<hvdb_core::Counters>,
    /// Refresh-plane frames transmitted (refresh-originated floods
    /// including their relays; 0 for baselines) — the traffic the
    /// adaptive refresh controller suppresses in quiet phases.
    pub refresh_frames: u64,
    /// Protocol callbacks dispatched by the engine
    /// ([`hvdb_sim::Stats::events_processed`]): identical at every
    /// thread count on the same workload, making events/s a pure
    /// wall-clock measure.
    pub events_processed: u64,
    /// Wall-clock seconds spent inside the engine's `run` calls.
    pub wall_secs: f64,
    /// Simulated seconds actually advanced across those `run` calls
    /// (resume-safe, unlike reading the scenario horizon: a resumed run
    /// advances the clock once per segment, not once per call).
    pub sim_secs: f64,
    /// Traffic-plane delivery profile (histogram quantiles, per-flow
    /// goodput, pacing drops). Meaningful whenever data was delivered;
    /// flow/jitter/hop figures need flow-tagged traffic.
    pub traffic: TrafficProfile,
    /// End-of-run content bytes of world + protocol state divided by the
    /// node count: the `scale` scenario's footprint column. Deterministic
    /// (entry counts × entry sizes, not allocator capacity), so CI can
    /// gate it against a committed baseline. 0.0 where the protocol does
    /// not expose a state estimate (baselines).
    pub memory_per_node_bytes: f64,
    /// Frames refused because sender and receiver sat in different
    /// islands of an active partition ([`hvdb_sim::Stats::drops_partitioned`]).
    pub drops_partitioned: u64,
    /// Frames a Byzantine node silently dropped at its own interface
    /// ([`hvdb_sim::Stats::byzantine_dropped`]).
    pub byzantine_dropped: u64,
    /// Stale duplicates Byzantine replay nodes put on the air
    /// ([`hvdb_sim::Stats::byzantine_replayed`]).
    pub byzantine_replayed: u64,
    /// Max/mean per-lane busy-time ratio from the parallel engine's
    /// profiler (1.0 = perfectly balanced lanes; 0.0 for serial-engine
    /// runs, which have no lanes). Wall-clock derived: report it, never
    /// gate on it.
    pub lane_imbalance: f64,
    /// The parallel engine's wall-clock phase profile (`None` for
    /// serial-engine runs). Non-deterministic; serialized via
    /// [`profile_json`] into the report's excluded `profile` block.
    pub engine_profile: Option<EngineProfile>,
}

/// Histogram-derived delivery profile of one run: the traffic scenario's
/// row material. Latency/jitter quantiles are bucket-resolution
/// (±~3%, extremes exact); 0.0 where nothing was recorded.
#[derive(Debug, Clone, Default)]
pub struct TrafficProfile {
    /// Median end-to-end latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// 99.9th-percentile latency, ms.
    pub p999_ms: f64,
    /// Mean receiver-observed delay variation, ms.
    pub jitter_mean_ms: f64,
    /// 99th-percentile delay variation, ms.
    pub jitter_p99_ms: f64,
    /// Mean physical hops per delivery (flow-tagged traffic only).
    pub hops_mean: f64,
    /// 99th-percentile hops.
    pub hops_p99: f64,
    /// Packets originated by traffic-plane flows.
    pub flow_sent: u64,
    /// Distinct (packet, receiver) deliveries across flows.
    pub flow_delivered: u64,
    /// Sends refused by the interface-queue cap.
    pub drops_queue_full: u64,
}

/// Extracts the delivery profile from a finished simulation's stats.
pub fn traffic_profile_of(stats: &hvdb_sim::Stats) -> TrafficProfile {
    let lat_ms = |q: f64| stats.latency_quantile(q).map_or(0.0, |s| s * 1e3);
    let jitter = stats.flows().merged_jitter();
    let hops = stats.flows().merged_hops();
    TrafficProfile {
        p50_ms: lat_ms(0.50),
        p99_ms: lat_ms(0.99),
        p999_ms: lat_ms(0.999),
        jitter_mean_ms: jitter.mean().unwrap_or(0.0) / 1e3,
        jitter_p99_ms: jitter.quantile(0.99).unwrap_or(0) as f64 / 1e3,
        hops_mean: hops.mean().unwrap_or(0.0),
        hops_p99: hops.quantile(0.99).unwrap_or(0) as f64,
        flow_sent: stats.flows().total_sent(),
        flow_delivered: stats.flows().total_delivered(),
        drops_queue_full: stats.drops_queue_full,
    }
}

/// Collects the engine-side instrumentation common to every protocol and
/// both engines; `profile` is the parallel engine's (`None` for serial
/// runs). Protocol counters and the state footprint start empty.
fn detail_of(
    stats: &Stats,
    wall_secs: f64,
    sim_secs: f64,
    profile: Option<&EngineProfile>,
) -> RunDetail {
    RunDetail {
        hvdb_counters: None,
        refresh_frames: stats.msgs_where(is_refresh_class),
        events_processed: stats.events_processed,
        wall_secs,
        sim_secs,
        traffic: traffic_profile_of(stats),
        memory_per_node_bytes: 0.0,
        drops_partitioned: stats.drops_partitioned,
        byzantine_dropped: stats.byzantine_dropped,
        byzantine_replayed: stats.byzantine_replayed,
        lane_imbalance: profile.map_or(0.0, EngineProfile::lane_imbalance),
        engine_profile: profile.cloned(),
    }
}

/// [`detail_of`] for a finished serial simulation.
fn engine_detail<M: Clone>(sim: &Simulator<M>) -> RunDetail {
    detail_of(sim.stats(), sim.wall_secs(), sim.sim_secs(), None)
}

/// Runs one scenario under one protocol, returning metrics plus
/// protocol-specific instrumentation. The scripted fault plan in
/// [`Scenario::faults`] is injected for every protocol, so fault
/// comparisons stay apples-to-apples.
pub fn run_one_instrumented(proto: Proto, scenario: &Scenario) -> (RunMetrics, RunDetail) {
    match proto {
        Proto::Hvdb => run_hvdb(scenario),
        Proto::Flooding => {
            let mut sim = new_sim(scenario);
            let mut p = FloodingProtocol::new(
                &scenario.members,
                scenario.traffic.clone(),
                scenario.group_events.clone(),
            );
            sim.run(&mut p, scenario.until);
            (metrics_of(sim.stats()), engine_detail(&sim))
        }
        Proto::SharedTree => {
            let mut sim = new_sim(scenario);
            let mut p = SharedTreeProtocol::new(
                &scenario.members,
                scenario.traffic.clone(),
                scenario.group_events.clone(),
            );
            sim.run(&mut p, scenario.until);
            (metrics_of(sim.stats()), engine_detail(&sim))
        }
        Proto::Dsm => {
            let mut sim = new_sim(scenario);
            let mut p = DsmProtocol::new(
                &scenario.members,
                scenario.traffic.clone(),
                scenario.group_events.clone(),
            );
            sim.run(&mut p, scenario.until);
            (metrics_of(sim.stats()), engine_detail(&sim))
        }
        Proto::Spbm => {
            let mut sim = new_sim(scenario);
            let mut p = SpbmProtocol::new(
                &scenario.members,
                scenario.traffic.clone(),
                scenario.group_events.clone(),
            );
            sim.run(&mut p, scenario.until);
            (metrics_of(sim.stats()), engine_detail(&sim))
        }
    }
}

/// The one canonical HVDB run recipe (every scenario that measures HVDB
/// goes through here, so the CI-gated trajectory numbers and the
/// registry sweeps measure the same simulation).
fn run_hvdb(scenario: &Scenario) -> (RunMetrics, RunDetail) {
    let mut sim = new_sim(scenario);
    let mut p = HvdbProtocol::new(
        scenario.hvdb.clone(),
        &scenario.members,
        scenario.traffic.clone(),
        scenario.group_events.clone(),
    );
    sim.run(&mut p, scenario.until);
    let n = sim.world().len().max(1);
    let detail = RunDetail {
        hvdb_counters: Some(p.counters()),
        memory_per_node_bytes: (sim.world().memory_bytes() + p.memory_bytes()) as f64 / n as f64,
        ..engine_detail(&sim)
    };
    (metrics_of(sim.stats()), detail)
}

/// Runs HVDB with `tweak` applied to the scenario's derived config first
/// (e.g. disabling the adaptive refresh controller for a fixed-rate
/// comparison arm), through the same recipe as [`run_one_instrumented`].
pub fn run_hvdb_tweaked(
    scenario: &Scenario,
    tweak: &dyn Fn(&mut HvdbConfig),
) -> (RunMetrics, RunDetail) {
    let mut scenario = scenario.clone();
    tweak(&mut scenario.hvdb);
    run_hvdb(&scenario)
}

/// Runs the scenario's traffic script under flooding on the **sharded
/// parallel engine** ([`ParSimulator`] + [`ParFlood`]) with `shards`
/// shards and the scenario's [`Scenario::threads`] worker threads. The
/// `perf` scenario's `engine-threads` arm: deterministic metrics are
/// byte-identical at every thread count (the engine's contract), so only
/// wall-clock moves with `threads`. The scenario's fault plan is
/// injected exactly as [`run_one_instrumented`] does.
pub fn run_par_flood(scenario: &Scenario, shards: usize) -> (RunMetrics, RunDetail) {
    let mut sim: ParSimulator<ParFloodNode, ParFloodMsg> = ParSimulator::new(
        scenario.sim.clone(),
        scenario.hvdb_mobility(),
        shards,
        scenario.threads,
    );
    sim.inject_plan(&scenario.faults);
    let p = ParFlood::new(
        &scenario.members,
        scenario.traffic.clone(),
        scenario.group_events.clone(),
    );
    sim.run(&p, scenario.until);
    let detail = detail_of(
        sim.stats(),
        sim.wall_secs(),
        sim.sim_secs(),
        Some(sim.profile()),
    );
    (metrics_of(sim.stats()), detail)
}

/// Runs **HVDB itself** on the sharded parallel engine: the same
/// [`HvdbCore`](hvdb_core::HvdbCore) recipe the serial runner wraps,
/// driven as a [`hvdb_sim::ParProtocol`] with `shards` shards and the
/// scenario's [`Scenario::threads`] worker threads. Metrics are
/// byte-identical at every thread count (the engine's determinism
/// contract, exercised by `crates/core/tests/par_protocol.rs`), so
/// thread count moves only wall-clock. This is the recipe behind the
/// `scale` scenario's large-N rows and its `engine-threads` sweep.
pub fn run_par_hvdb(scenario: &Scenario, shards: usize) -> (RunMetrics, RunDetail) {
    let mut sim = par_hvdb_sim(scenario, shards);
    let core = par_hvdb_core(scenario);
    sim.run(&core, scenario.until);
    (metrics_of(sim.stats()), par_hvdb_detail(&sim))
}

/// The parallel-HVDB simulator type every par-engine runner drives.
pub type ParHvdbSim = ParSimulator<hvdb_core::HvdbNode, hvdb_core::FrameBytes>;

fn par_hvdb_sim(scenario: &Scenario, shards: usize) -> ParHvdbSim {
    let mut sim: ParHvdbSim = ParSimulator::new(
        scenario.sim.clone(),
        scenario.hvdb_mobility(),
        shards,
        scenario.threads,
    );
    sim.inject_plan(&scenario.faults);
    sim
}

fn par_hvdb_core(scenario: &Scenario) -> hvdb_core::HvdbCore {
    hvdb_core::HvdbCore::new(
        scenario.hvdb.clone(),
        &scenario.members,
        scenario.traffic.clone(),
        scenario.group_events.clone(),
    )
}

fn par_hvdb_detail(sim: &ParHvdbSim) -> RunDetail {
    let n = sim.world().len().max(1);
    let mut counters = hvdb_core::Counters::default();
    let mut state_bytes = 0usize;
    for id in sim.world().ids().collect::<Vec<_>>() {
        if let Some(node) = sim.node_state(id) {
            counters += node.counters();
            state_bytes += node.memory_bytes();
        }
    }
    RunDetail {
        hvdb_counters: Some(counters),
        memory_per_node_bytes: (sim.world().memory_bytes() + state_bytes) as f64 / n as f64,
        ..detail_of(
            sim.stats(),
            sim.wall_secs(),
            sim.sim_secs(),
            Some(sim.profile()),
        )
    }
}

/// One sim-time metrics snapshot of a running simulation: the timeline
/// sampler's row material. All fields are cumulative-to-`t_secs` (or an
/// instantaneous census, for `heads`), so transients like a partition's
/// head-count spike and re-merge are derivable from consecutive samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimelineSample {
    /// Simulation time of the snapshot, seconds.
    pub t_secs: f64,
    /// Instantaneous cluster-head census.
    pub heads: u64,
    /// Cumulative delivery ratio so far.
    pub delivery: f64,
    /// Cumulative control frames transmitted.
    pub control_frames: u64,
    /// Cumulative refresh-plane frames transmitted.
    pub refresh_frames: u64,
    /// Cumulative sends refused by the interface-queue cap (backlog
    /// pressure indicator).
    pub drops_queue_full: u64,
    /// Cumulative protocol callbacks dispatched.
    pub events_processed: u64,
    /// Current content bytes of world + protocol state per node.
    pub memory_per_node_bytes: f64,
}

/// Builds a snapshot from a serial simulation mid-run. `heads` and
/// `memory_per_node_bytes` depend on the protocol's state shape, so the
/// caller supplies them (e.g. `proto.cluster_heads().len()`).
pub fn sample_serial<M: Clone>(
    sim: &Simulator<M>,
    heads: u64,
    memory_per_node_bytes: f64,
) -> TimelineSample {
    let m = metrics_of(sim.stats());
    TimelineSample {
        t_secs: sim.now().0 as f64 / 1e6,
        heads,
        delivery: m.delivery,
        control_frames: m.control_msgs,
        refresh_frames: sim.stats().msgs_where(is_refresh_class),
        drops_queue_full: sim.stats().drops_queue_full,
        events_processed: sim.stats().events_processed,
        memory_per_node_bytes,
    }
}

/// Builds a snapshot from a parallel HVDB simulation mid-run.
pub fn sample_par_hvdb(sim: &ParHvdbSim) -> TimelineSample {
    let n = sim.world().len().max(1);
    let mut heads = 0u64;
    let mut state_bytes = 0usize;
    for id in sim.world().ids().collect::<Vec<_>>() {
        if let Some(node) = sim.node_state(id) {
            if node.is_head() {
                heads += 1;
            }
            state_bytes += node.memory_bytes();
        }
    }
    let m = metrics_of(sim.stats());
    TimelineSample {
        t_secs: sim.now().0 as f64 / 1e6,
        heads,
        delivery: m.delivery,
        control_frames: m.control_msgs,
        refresh_frames: sim.stats().msgs_where(is_refresh_class),
        drops_queue_full: sim.stats().drops_queue_full,
        events_processed: sim.stats().events_processed,
        memory_per_node_bytes: (sim.world().memory_bytes() + state_bytes) as f64 / n as f64,
    }
}

/// Runs HVDB on the parallel engine exactly as [`run_par_hvdb`], but
/// stepped at `interval` so a [`TimelineSample`] is taken at each step.
/// Stepping a deterministic engine at fixed horizons does not change its
/// event schedule, so metrics are byte-identical to the unstepped run.
pub fn run_par_hvdb_timeline(
    scenario: &Scenario,
    shards: usize,
    interval: SimDuration,
) -> (RunMetrics, RunDetail, Vec<TimelineSample>) {
    let mut sim = par_hvdb_sim(scenario, shards);
    let core = par_hvdb_core(scenario);
    let mut samples = Vec::new();
    let mut t = hvdb_sim::SimTime::ZERO;
    while t < scenario.until {
        t = std::cmp::min(t + interval, scenario.until);
        sim.run(&core, t);
        samples.push(sample_par_hvdb(&sim));
    }
    (metrics_of(sim.stats()), par_hvdb_detail(&sim), samples)
}

/// Runs HVDB on the parallel engine with the structured trace enabled at
/// `mask` and detailed profiling on, returning the usual outputs plus the
/// Chrome trace-event document ([`chrome_trace_json`]) for `--trace-out`.
pub fn run_par_hvdb_traced(
    scenario: &Scenario,
    shards: usize,
    mask: u32,
) -> (RunMetrics, RunDetail, Json) {
    let mut sim = par_hvdb_sim(scenario, shards);
    sim.set_trace(TraceConfig::with_mask(mask));
    sim.set_profile_detail(true);
    let core = par_hvdb_core(scenario);
    sim.run(&core, scenario.until);
    let doc = chrome_trace_json(sim.profile(), sim.trace());
    (metrics_of(sim.stats()), par_hvdb_detail(&sim), doc)
}

/// Serializes a timeline as the report's `timeline` block: the sampling
/// cadence, scenario-specific annotations (e.g. split/heal instants),
/// and the sample series.
pub fn timeline_json(
    interval_secs: f64,
    annotations: Vec<(String, Json)>,
    samples: &[TimelineSample],
) -> Json {
    let mut fields = vec![("interval_secs".to_string(), Json::Num(interval_secs))];
    fields.extend(annotations);
    fields.push((
        "samples".into(),
        Json::Arr(
            samples
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("t_secs".into(), Json::Num(s.t_secs)),
                        ("heads".into(), Json::Num(s.heads as f64)),
                        ("delivery".into(), Json::Num(s.delivery)),
                        ("control_frames".into(), Json::Num(s.control_frames as f64)),
                        ("refresh_frames".into(), Json::Num(s.refresh_frames as f64)),
                        (
                            "drops_queue_full".into(),
                            Json::Num(s.drops_queue_full as f64),
                        ),
                        (
                            "events_processed".into(),
                            Json::Num(s.events_processed as f64),
                        ),
                        (
                            "memory_per_node_bytes".into(),
                            Json::Num(s.memory_per_node_bytes),
                        ),
                    ])
                })
                .collect(),
        ),
    ));
    Json::Obj(fields)
}

/// Serializes an [`EngineProfile`] as the report's `profile` block —
/// phase aggregates and lane busy times only (per-occurrence slices stay
/// in the Chrome trace export). Wall-clock derived and therefore
/// non-deterministic: `validate` accepts it structurally, golden and
/// trajectory comparisons never read it.
pub fn profile_json(profile: &EngineProfile) -> Json {
    Json::Obj(vec![
        ("windows".into(), Json::Num(profile.windows as f64)),
        ("barriers".into(), Json::Num(profile.barriers as f64)),
        ("drain_secs".into(), Json::Num(profile.drain_secs)),
        ("commit_secs".into(), Json::Num(profile.commit_secs)),
        ("barrier_secs".into(), Json::Num(profile.barrier_secs)),
        (
            "lane_busy_secs".into(),
            Json::Arr(
                profile
                    .lane_busy_secs
                    .iter()
                    .map(|s| Json::Num(*s))
                    .collect(),
            ),
        ),
        ("lane_imbalance".into(), Json::Num(profile.lane_imbalance())),
        (
            "slices_dropped".into(),
            Json::Num(profile.slices_dropped as f64),
        ),
    ])
}

/// Builds a Chrome trace-event (Perfetto-loadable) document from a run's
/// profiler slices and structured trace. Profiler phases render as
/// complete (`"X"`) slices under pid 1 (tid 0 = engine phases, tid ≥ 1 =
/// lane index + 1, wall-clock µs); protocol trace events render as
/// instants (`"i"`) under pid 2 with **sim-time** µs timestamps and
/// tid = node id.
pub fn chrome_trace_json(profile: &EngineProfile, trace: &Trace) -> Json {
    let mut events: Vec<Json> = Vec::new();
    for s in &profile.slices {
        let tid = if s.lane == u32::MAX {
            0.0
        } else {
            s.lane as f64 + 1.0
        };
        events.push(Json::Obj(vec![
            ("name".into(), Json::Str(s.phase.into())),
            ("ph".into(), Json::Str("X".into())),
            ("ts".into(), Json::Num(s.start_us as f64)),
            ("dur".into(), Json::Num(s.dur_us as f64)),
            ("pid".into(), Json::Num(1.0)),
            ("tid".into(), Json::Num(tid)),
        ]));
    }
    for ev in trace.events() {
        events.push(Json::Obj(vec![
            ("name".into(), Json::Str(ev.kind.name().into())),
            ("ph".into(), Json::Str("i".into())),
            ("s".into(), Json::Str("g".into())),
            ("ts".into(), Json::Num(ev.at.0 as f64)),
            ("pid".into(), Json::Num(2.0)),
            ("tid".into(), Json::Num(ev.node.0 as f64)),
        ]));
    }
    Json::Obj(vec![("traceEvents".into(), Json::Arr(events))])
}

/// Builds the simulator for a run: fresh mobility instance plus the
/// scenario's scripted fault plan.
fn new_sim<M: Clone>(scenario: &Scenario) -> Simulator<M> {
    let mut sim = Simulator::new(scenario.sim.clone(), scenario.hvdb_mobility());
    sim.inject_plan(&scenario.faults);
    sim
}

impl Scenario {
    /// Builds the mobility model for a run (each run needs its own boxed
    /// instance).
    pub fn hvdb_mobility(&self) -> Box<dyn hvdb_sim::Mobility> {
        self.mobility_kind.build()
    }
}

/// Averages metrics over `seeds` independent runs of `workload` under
/// `proto`, in parallel.
pub fn run_seeds(proto: Proto, workload: &Workload, seeds: &[u64]) -> RunMetrics {
    let results: Vec<RunMetrics> = seeds
        .par_iter()
        .map(|seed| {
            let w = Workload {
                seed: *seed,
                ..workload.clone()
            };
            run_one(proto, &w.build())
        })
        .collect();
    average(&results)
}

/// Component-wise mean of run metrics.
pub fn average(runs: &[RunMetrics]) -> RunMetrics {
    let n = runs.len().max(1) as f64;
    RunMetrics {
        delivery: runs.iter().map(|r| r.delivery).sum::<f64>() / n,
        latency: runs.iter().map(|r| r.latency).sum::<f64>() / n,
        control_msgs: (runs.iter().map(|r| r.control_msgs).sum::<u64>() as f64 / n) as u64,
        control_bytes: (runs.iter().map(|r| r.control_bytes).sum::<u64>() as f64 / n) as u64,
        data_msgs: (runs.iter().map(|r| r.data_msgs).sum::<u64>() as f64 / n) as u64,
        data_bytes: (runs.iter().map(|r| r.data_bytes).sum::<u64>() as f64 / n) as u64,
        jain: runs.iter().map(|r| r.jain).sum::<f64>() / n,
        max_mean: runs.iter().map(|r| r.max_mean).sum::<f64>() / n,
        gini: runs.iter().map(|r| r.gini).sum::<f64>() / n,
    }
}
