//! Protocol runners: execute one scenario under each protocol and collect
//! uniform metrics. Every run — HVDB and each baseline — is built by one
//! recipe: the scenario's [`ParSimulator`] on [`SHARDS`] shards at the
//! scenario's thread count, with its fault plan injected. Seeded
//! scenarios fan their `(cell, seed)` runs out over rayon through
//! `per_cell` and reduce each cell's seeds in seed order with `mean`,
//! `min_of` or [`average`].

use crate::report::Json;
use crate::workload::{is_refresh_class, metrics_of, RunMetrics, Scenario};
use hvdb_baselines::{DsmProtocol, ParFlood, SharedTreeProtocol, SpbmProtocol};
use hvdb_core::{GroupEvent, GroupId, HvdbConfig, HvdbCore, HvdbSim, TrafficItem};
use hvdb_sim::{EngineProfile, NodeId, ParProtocol, ParSimulator, SimDuration, Trace, TraceConfig};
use rayon::prelude::*;

/// Spatial shards of every harness run: the `scale` sweep's layout. A
/// run's outputs depend on the shard count, never on the thread count.
pub const SHARDS: usize = 64;

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
    /// HVDB protocol counters (all zero for baselines): the events only
    /// the protocol sees. Soft-state counts are the engine's, below.
    pub hvdb_counters: hvdb_core::Counters,
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
    /// Frames a Byzantine node silently dropped at its own interface
    /// ([`hvdb_sim::Stats::byzantine_dropped`]).
    pub byzantine_dropped: u64,
    /// Stale duplicates Byzantine replay nodes put on the air
    /// ([`hvdb_sim::Stats::byzantine_replayed`]).
    pub byzantine_replayed: u64,
    /// Soft-state advertisements originated by refresh timers
    /// ([`hvdb_sim::Stats::soft_refresh_msgs`]).
    pub soft_refresh_msgs: u64,
    /// Refreshes the adaptive controller withheld
    /// ([`hvdb_sim::Stats::soft_refresh_suppressed`]).
    pub soft_refresh_suppressed: u64,
    /// Received soft-state updates suppressed as stale
    /// ([`hvdb_sim::Stats::soft_stale_suppressed`]).
    pub soft_stale_suppressed: u64,
    /// Soft-state entries expired after K missed refreshes
    /// ([`hvdb_sim::Stats::soft_expired`]).
    pub soft_expired: u64,
    /// The engine's wall-clock phase profile, lane imbalance included
    /// ([`EngineProfile::lane_imbalance`]). Non-deterministic: serialized
    /// via [`profile_json`] into the report's excluded `profile` block,
    /// never gated.
    pub engine_profile: EngineProfile,
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
        flow_delivered: stats.flows().total_delivered(),
        drops_queue_full: stats.drops_queue_full,
    }
}

/// Collects the engine-side instrumentation common to every protocol.
/// Protocol counters and the state footprint start empty.
fn detail_of<N: Send, M: Clone + Send>(sim: &ParSimulator<N, M>) -> RunDetail {
    let stats = sim.stats();
    RunDetail {
        hvdb_counters: hvdb_core::Counters::default(),
        refresh_frames: stats.msgs_where(is_refresh_class),
        events_processed: stats.events_processed,
        wall_secs: sim.wall_secs(),
        sim_secs: sim.sim_secs(),
        traffic: traffic_profile_of(stats),
        memory_per_node_bytes: 0.0,
        byzantine_dropped: stats.byzantine_dropped,
        byzantine_replayed: stats.byzantine_replayed,
        soft_refresh_msgs: stats.soft_refresh_msgs,
        soft_refresh_suppressed: stats.soft_refresh_suppressed,
        soft_stale_suppressed: stats.soft_stale_suppressed,
        soft_expired: stats.soft_expired,
        engine_profile: sim.profile().clone(),
    }
}

/// Runs one scenario under one protocol, returning metrics plus
/// protocol-specific instrumentation. The scripted fault plan in
/// [`Scenario::faults`] is injected for every protocol, so fault
/// comparisons stay apples-to-apples.
pub fn run_one_instrumented(proto: Proto, scenario: &Scenario) -> (RunMetrics, RunDetail) {
    match proto {
        Proto::Hvdb => run_hvdb(scenario),
        Proto::Flooding => run_baseline(scenario, SHARDS, ParFlood::new),
        Proto::SharedTree => run_baseline(scenario, SHARDS, SharedTreeProtocol::new),
        Proto::Dsm => run_baseline(scenario, SHARDS, DsmProtocol::new),
        Proto::Spbm => run_baseline(scenario, SHARDS, SpbmProtocol::new),
    }
}

/// A baseline protocol's constructor over a scenario's membership,
/// traffic and group events.
type NewBaseline<P> = fn(&[(NodeId, GroupId)], Vec<TrafficItem>, Vec<GroupEvent>) -> P;

/// Runs the baseline protocol `new` builds on the scenario's engine at
/// `shards` shards.
fn run_baseline<P: ParProtocol>(
    scenario: &Scenario,
    shards: usize,
    new: NewBaseline<P>,
) -> (RunMetrics, RunDetail)
where
    P::Node: Send,
{
    let mut sim: ParSimulator<P::Node, P::Msg> = new_sim(scenario, shards);
    let p = new(
        &scenario.members,
        scenario.traffic.clone(),
        scenario.group_events.clone(),
    );
    sim.run(&p, scenario.until);
    (metrics_of(sim.stats()), detail_of(&sim))
}

/// Builds an HVDB run from `scenario`: its engine, with the scenario's
/// fault plan injected, and the protocol over the scenario's config,
/// membership, traffic and group events. Every HVDB run in the harness
/// starts here, except `f4-routes`' hand-pinned grid.
pub(crate) fn hvdb_run(scenario: &Scenario) -> (HvdbSim, HvdbCore) {
    let core = HvdbCore::new(
        scenario.hvdb.clone(),
        &scenario.members,
        scenario.traffic.clone(),
        scenario.group_events.clone(),
    );
    (new_sim(scenario, SHARDS), core)
}

/// The one canonical HVDB run recipe (every scenario that measures HVDB
/// goes through here, so the CI-gated trajectory numbers and the
/// registry sweeps measure the same simulation).
fn run_hvdb(scenario: &Scenario) -> (RunMetrics, RunDetail) {
    let (mut sim, core) = hvdb_run(scenario);
    sim.run(&core, scenario.until);
    (metrics_of(sim.stats()), hvdb_detail(&sim))
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

/// Runs the scenario's traffic script under flooding ([`ParFlood`]) with
/// `shards` shards and the scenario's [`Scenario::threads`] worker
/// threads: the `perf` scenario's `engine-threads` arm, which keeps its
/// own shard count. Deterministic metrics are byte-identical at every
/// thread count (the engine's contract), so only wall-clock moves with
/// `threads`.
pub fn run_par_flood(scenario: &Scenario, shards: usize) -> (RunMetrics, RunDetail) {
    run_baseline(scenario, shards, ParFlood::new)
}

/// [`detail_of`] plus HVDB's protocol counters and state footprint.
fn hvdb_detail(sim: &HvdbSim) -> RunDetail {
    RunDetail {
        hvdb_counters: hvdb_core::total_counters(sim),
        memory_per_node_bytes: memory_per_node(sim),
        ..detail_of(sim)
    }
}

/// Content bytes of world + protocol state per node.
fn memory_per_node(sim: &HvdbSim) -> f64 {
    let state: usize = sim.nodes().map(|(_, n)| n.memory_bytes()).sum();
    (sim.world().memory_bytes() + state) as f64 / sim.world().len().max(1) as f64
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

/// Builds a snapshot from an HVDB simulation mid-run.
pub fn sample_par_hvdb(sim: &HvdbSim) -> TimelineSample {
    let m = metrics_of(sim.stats());
    TimelineSample {
        t_secs: sim.now().0 as f64 / 1e6,
        heads: hvdb_core::cluster_heads(sim).len() as u64,
        delivery: m.delivery,
        control_frames: m.control_msgs,
        refresh_frames: sim.stats().msgs_where(is_refresh_class),
        drops_queue_full: sim.stats().drops_queue_full,
        events_processed: sim.stats().events_processed,
        memory_per_node_bytes: memory_per_node(sim),
    }
}

/// Runs HVDB exactly as [`run_one_instrumented`], but stepped at
/// `interval` so a [`TimelineSample`] is taken at each step. Stepping a
/// deterministic engine at fixed horizons does not change its event
/// schedule, so metrics are byte-identical to the unstepped run.
pub fn run_par_hvdb_timeline(
    scenario: &Scenario,
    interval: SimDuration,
) -> (RunMetrics, RunDetail, Vec<TimelineSample>) {
    let (mut sim, core) = hvdb_run(scenario);
    let mut samples = Vec::new();
    let mut t = hvdb_sim::SimTime::ZERO;
    while t < scenario.until {
        t = std::cmp::min(t + interval, scenario.until);
        sim.run(&core, t);
        samples.push(sample_par_hvdb(&sim));
    }
    (metrics_of(sim.stats()), hvdb_detail(&sim), samples)
}

/// Runs HVDB with the structured trace enabled at `mask` and detailed
/// profiling on, returning the usual outputs plus the Chrome trace-event
/// document ([`chrome_trace_json`]) for `--trace-out`.
pub fn run_par_hvdb_traced(scenario: &Scenario, mask: u32) -> (RunMetrics, RunDetail, Json) {
    let (mut sim, core) = hvdb_run(scenario);
    sim.set_trace(TraceConfig::with_mask(mask));
    sim.set_profile_detail(true);
    sim.run(&core, scenario.until);
    let doc = chrome_trace_json(sim.profile(), sim.trace());
    (metrics_of(sim.stats()), hvdb_detail(&sim), doc)
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

/// Builds the engine for a run on `shards` shards at the scenario's
/// thread count: fresh mobility instance plus the scenario's scripted
/// fault plan.
pub(crate) fn new_sim<N: Send, M: Clone + Send>(
    scenario: &Scenario,
    shards: usize,
) -> ParSimulator<N, M> {
    let mut sim = ParSimulator::new(
        scenario.sim.clone(),
        scenario.hvdb_mobility(),
        shards,
        scenario.threads,
    );
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

/// Runs `run(cell, seed)` for every `(cell, seed)` pair as one job on the
/// rayon pool, cell-major with seeds inner, and returns one result list
/// per cell, in seed order. Each simulation stays single-threaded and
/// deterministic, so the results do not depend on the pool.
pub(crate) fn per_cell<C: Sync, T: Send>(
    cells: &[C],
    seeds: &[u64],
    run: impl Fn(&C, u64) -> T + Sync,
) -> Vec<Vec<T>> {
    let jobs: Vec<(&C, u64)> = cells
        .iter()
        .flat_map(|cell| seeds.iter().map(move |&seed| (cell, seed)))
        .collect();
    let results: Vec<T> = jobs.par_iter().map(|&(c, seed)| run(c, seed)).collect();
    let mut results = results.into_iter();
    cells
        .iter()
        .map(|_| results.by_ref().take(seeds.len()).collect())
        .collect()
}

/// Mean of `f` over `runs`, summed in run order: a cell's seeds reduce in
/// seed order, so the mean is the same bits on every run.
pub(crate) fn mean<T>(runs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    runs.iter().map(f).sum::<f64>() / runs.len() as f64
}

/// Smallest `f` over `runs`: the worst seed of a higher-is-better metric.
pub(crate) fn min_of<T>(runs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    runs.iter().map(f).fold(f64::INFINITY, f64::min)
}

/// Component-wise mean of run metrics. Count fields are truncated to
/// integers, as the committed reports carry them.
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

#[cfg(test)]
mod tests {
    use super::per_cell;

    #[test]
    fn per_cell_returns_one_list_per_cell_in_seed_order() {
        let cells = [10u32, 20, 30, 40];
        let seeds = [7u64, 8, 9];
        let got = per_cell(&cells, &seeds, |&cell, seed| (cell, seed));
        let want: Vec<Vec<(u32, u64)>> = cells
            .iter()
            .map(|&cell| seeds.iter().map(|&seed| (cell, seed)).collect())
            .collect();
        assert_eq!(got, want);
    }
}
