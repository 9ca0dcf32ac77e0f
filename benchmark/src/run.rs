//! One benchmark run: set up, boot, run the timed horizon, then read every
//! output the metrics need. Timing wraps the public calls from outside.

use crate::alloc;
use crate::host;
use crate::timed::{HandlerClock, Timed, CLASSES, TRACK_PHASES};
use crate::workloads::WorkloadDef;
use hvdb_bench::{is_data_class, is_refresh_class};
use hvdb_core::{Counters, FrameBytes, HvdbCore, HvdbNode};
use hvdb_sim::{EngineProfile, ParProtocol, ParSimulator, PhaseSlice, SimTime, Stats, TraceConfig};
use hvdb_traffic::LogHist;
use std::time::Instant;

/// Spatial shards of the parallel engine, as the `scale` sweep uses.
pub const SHARDS: usize = 64;

type Sim = ParSimulator<HvdbNode, FrameBytes>;

/// How a run is driven.
#[derive(Clone, Copy)]
pub struct RunSpec<'a> {
    /// Instance seed.
    pub seed: u64,
    /// Shrunk inputs ([`hvdb_bench::Workload::smoke`]).
    pub smoke: bool,
    /// Worker threads; `None` keeps the workload's own count.
    pub threads: Option<usize>,
    /// Time every handler through this clock, with the engine trace and
    /// profile detail on (the traced run).
    pub clock: Option<&'a HandlerClock>,
    /// Make the boot call `run(ZERO)` before the timed run.
    pub boot: bool,
    /// Stop after set-up and boot (a set-up sample).
    pub setup_only: bool,
}

/// Wall seconds of each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Workload::build` plus the workload's derived-setting adjustment.
    pub build_s: f64,
    /// `HvdbCore::new`.
    pub core_s: f64,
    /// `ParSimulator::new` plus `inject_plan`.
    pub sim_new_s: f64,
    /// The boot call `run(ZERO)`: node construction and `on_start`.
    pub boot_s: f64,
}

impl SetupTimes {
    /// All set-up phases together.
    pub fn total(&self) -> f64 {
        self.build_s + self.core_s + self.sim_new_s + self.boot_s
    }
}

/// Engine profile accumulated over the timed run only.
#[derive(Debug, Clone, Default)]
pub struct EngineDelta {
    /// Lookahead windows.
    pub windows: u64,
    /// Serial barrier events.
    pub barriers: u64,
    /// Parallel drain seconds.
    pub drain_s: f64,
    /// Ordered commit seconds.
    pub commit_s: f64,
    /// Max/mean lane busy time.
    pub lane_imbalance: f64,
}

impl EngineDelta {
    fn between(before: &EngineProfile, after: &EngineProfile) -> Self {
        let busy: Vec<f64> = after
            .lane_busy_secs
            .iter()
            .enumerate()
            .map(|(i, s)| s - before.lane_busy_secs.get(i).copied().unwrap_or(0.0))
            .collect();
        let lanes = EngineProfile {
            lane_busy_secs: busy,
            ..EngineProfile::default()
        };
        EngineDelta {
            windows: after.windows - before.windows,
            barriers: after.barriers - before.barriers,
            drain_s: after.drain_secs - before.drain_secs,
            commit_s: after.commit_secs - before.commit_secs,
            lane_imbalance: lanes.lane_imbalance(),
        }
    }
}

/// The deterministic outputs of a run.
#[derive(Debug, Clone, Default)]
pub struct ModelOut {
    /// Expected (packet, receiver) slots.
    pub expected_slots: u64,
    /// Delivered slots (at most the expected count per packet).
    pub delivered_slots: u64,
    /// End-to-end latency of every delivery, µs of simulated time.
    pub latency: LogHist,
    /// Bytes of every non-data class.
    pub control_bytes: u64,
    /// Nodes simulated.
    pub nodes: u64,
    /// Callbacks the engine dispatched.
    pub events: u64,
    /// Frames transmitted.
    pub tx_frames: u64,
    /// Receptions lost to the radio loss process.
    pub drops_loss: u64,
    /// Reliable unicasts abandoned after the MAC retry budget.
    pub drops_retry_exhausted: u64,
    /// Sends refused by the interface-queue cap.
    pub drops_queue_full: u64,
    /// Frames to or from dead nodes.
    pub drops_dead: u64,
    /// Unicasts whose destination was out of range.
    pub drops_out_of_range: u64,
    /// Refresh-plane frames transmitted (with relays).
    pub refresh_frames: u64,
    /// Refresh ticks withheld by the adaptive controller.
    pub refresh_suppressed: u64,
    /// Refresh broadcasts the stores fired.
    pub refresh_fired: u64,
    /// Received updates suppressed as stale.
    pub stale_suppressed: u64,
    /// Soft-state entries expired.
    pub expired: u64,
    /// HVDB protocol counters summed over nodes.
    pub counters: Counters,
    /// Digest of everything above that the run determines.
    pub digest: u64,
}

impl ModelOut {
    /// Delivered share of expected slots.
    pub fn delivery(&self) -> f64 {
        if self.expected_slots == 0 {
            1.0
        } else {
            self.delivered_slots as f64 / self.expected_slots as f64
        }
    }

    /// 99th-percentile end-to-end latency in ms, interpolated linearly
    /// within its histogram bucket (bucket midpoints alone would move in
    /// 3–6% steps).
    pub fn latency_p99_ms(&self) -> f64 {
        quantile(&self.latency, 0.99) / 1e3
    }

    /// Control (non-data) bytes per node.
    pub fn control_bytes_per_node(&self) -> f64 {
        self.control_bytes as f64 / self.nodes.max(1) as f64
    }

    fn add(&mut self, o: &ModelOut) {
        self.expected_slots += o.expected_slots;
        self.delivered_slots += o.delivered_slots;
        self.latency.merge(&o.latency);
        self.control_bytes += o.control_bytes;
        self.nodes += o.nodes;
        self.events += o.events;
        self.tx_frames += o.tx_frames;
        self.drops_loss += o.drops_loss;
        self.drops_retry_exhausted += o.drops_retry_exhausted;
        self.drops_queue_full += o.drops_queue_full;
        self.drops_dead += o.drops_dead;
        self.drops_out_of_range += o.drops_out_of_range;
        self.refresh_frames += o.refresh_frames;
        self.refresh_suppressed += o.refresh_suppressed;
        self.refresh_fired += o.refresh_fired;
        self.stale_suppressed += o.stale_suppressed;
        self.expired += o.expired;
        self.counters += &o.counters;
        self.digest = fnv(self.digest, o.digest);
    }
}

/// The `q`-quantile of `hist` by nearest rank, interpolated linearly across
/// the value range of the bucket holding that rank and clamped to the
/// exact minimum and maximum. 0 when empty.
pub fn quantile(hist: &LogHist, q: f64) -> f64 {
    let (Some(min), Some(max)) = (hist.min(), hist.max()) else {
        return 0.0;
    };
    let rank = (hist.count() - 1) as f64 * q.clamp(0.0, 1.0);
    let mut below = 0u64;
    for (lo, hi, count) in hist.buckets() {
        if (below + count) as f64 > rank {
            let within = (rank - below as f64 + 0.5) / count as f64;
            let v = lo as f64 + within * (hi - lo) as f64;
            return v.clamp(min as f64, max as f64);
        }
        below += count;
    }
    max as f64
}

/// Several instances as one: counts and times summed, per-instance sizes
/// (heap, estimate, neighbour query) averaged, latency histograms merged,
/// digests chained in instance order, the first instance's engine slices.
pub fn pool(instances: &[RunOut]) -> RunOut {
    let mut p = RunOut::default();
    let k = instances.len().max(1) as f64;
    let mean = |f: &dyn Fn(&RunOut) -> f64| instances.iter().map(f).sum::<f64>() / k;
    for r in instances {
        p.run_wall_s += r.run_wall_s;
        p.sim_s += r.sim_s;
        p.instance_speeds.extend_from_slice(&r.instance_speeds);
        p.engine.windows += r.engine.windows;
        p.engine.barriers += r.engine.barriers;
        p.engine.drain_s += r.engine.drain_s;
        p.engine.commit_s += r.engine.commit_s;
        p.host.cpu_s += r.host.cpu_s;
        p.host.runq_wait_s += r.host.runq_wait_s;
        p.trace_records += r.trace_records;
        p.trace_dropped += r.trace_dropped;
        if p.slices.is_empty() {
            // The export keeps one instance's engine slices.
            p.slices = r.slices.clone();
        }
        p.model.add(&r.model);
        p.check_failures.extend(r.check_failures.iter().cloned());
    }
    p.peak_heap = mean(&|r| r.peak_heap as f64) as usize;
    p.heap_at_end = mean(&|r| r.heap_at_end as f64) as usize;
    p.estimate = mean(&|r| r.estimate as f64) as usize;
    p.engine.lane_imbalance = mean(&|r| r.engine.lane_imbalance);
    p.neighbor_query_ns = mean(&|r| r.neighbor_query_ns);
    p.neighbors_mean = mean(&|r| r.neighbors_mean);
    p
}

/// Everything one run measured.
#[derive(Debug, Clone, Default)]
pub struct RunOut {
    /// Set-up phase times.
    pub setup: SetupTimes,
    /// Wall seconds of the timed `run` call.
    pub run_wall_s: f64,
    /// Simulated seconds the timed call advanced.
    pub sim_s: f64,
    /// Simulated seconds per wall second of each instance (one entry for
    /// a single run, one per instance after [`pool`]).
    pub instance_speeds: Vec<f64>,
    /// Peak live heap above the pre-set-up baseline, bytes.
    pub peak_heap: usize,
    /// Live heap above the baseline at the end of the run, bytes.
    pub heap_at_end: usize,
    /// `World::memory_bytes` plus every node's `memory_bytes`.
    pub estimate: usize,
    /// Engine profile over the timed run.
    pub engine: EngineDelta,
    /// Host CPU and run-queue wait over the timed run.
    pub host: host::Sched,
    /// Mean wall nanoseconds of `World::neighbors_into` over every node of
    /// the end-of-run world.
    pub neighbor_query_ns: f64,
    /// Mean neighbour count from the same sweep.
    pub neighbors_mean: f64,
    /// Trace records kept plus evicted (traced run).
    pub trace_records: u64,
    /// Trace records evicted by the ring bound (traced run).
    pub trace_dropped: u64,
    /// Engine phase slices (traced run), timed from the handler clock's
    /// origin, for the Chrome-trace export.
    pub slices: Vec<PhaseSlice>,
    /// Deterministic outputs.
    pub model: ModelOut,
    /// Failed output checks.
    pub check_failures: Vec<String>,
}

/// Runs `def` once as `spec` says.
pub fn run(def: &WorkloadDef, spec: RunSpec<'_>) -> RunOut {
    let baseline = alloc::reset_peak();
    let mut out = RunOut::default();
    let phase = |name: &'static str, t: Instant| {
        let dur = t.elapsed();
        if let Some(c) = spec.clock {
            c.span(name, TRACK_PHASES, t, dur.as_nanos() as u64);
        }
        dur.as_secs_f64()
    };

    let t = Instant::now();
    let w = def.workload(spec.seed, spec.smoke);
    let mut scenario = def.build(&w);
    out.setup.build_s = phase("build", t);

    let t = Instant::now();
    let traffic_items = scenario.traffic.len();
    let core = HvdbCore::new(
        scenario.hvdb.clone(),
        &scenario.members,
        std::mem::take(&mut scenario.traffic),
        std::mem::take(&mut scenario.group_events),
    );
    out.setup.core_s = phase("core", t);

    let t = Instant::now();
    let threads = spec.threads.unwrap_or(scenario.threads);
    let mut sim: Sim = ParSimulator::new(
        scenario.sim.clone(),
        scenario.mobility_kind.build(),
        SHARDS,
        threads,
    );
    sim.inject_plan(&scenario.faults);
    if spec.clock.is_some() {
        sim.set_trace(TraceConfig::all());
        sim.set_profile_detail(true);
    }
    out.setup.sim_new_s = phase("sim_new", t);

    // The engine times its slices from its first `run` call, the boot.
    let mut engine_origin_us = 0;
    match spec.clock {
        Some(clock) => {
            let timed = Timed { core: &core, clock };
            engine_origin_us = clock.since_origin(Instant::now()) / 1000;
            drive(&mut sim, &timed, scenario.until, spec, &mut out, phase);
        }
        None => drive(&mut sim, &core, scenario.until, spec, &mut out, phase),
    }
    if spec.setup_only {
        return out;
    }

    out.heap_at_end = alloc::live_bytes().saturating_sub(baseline);
    out.peak_heap = alloc::peak_bytes().saturating_sub(baseline);
    out.estimate = sim.world().memory_bytes()
        + sim
            .world()
            .ids()
            .filter_map(|id| sim.node_state(id))
            .map(|n| n.memory_bytes())
            .sum::<usize>();
    (out.neighbor_query_ns, out.neighbors_mean) = neighbor_sweep(&sim);
    out.trace_records = sim.trace().len() as u64 + sim.trace().dropped();
    out.trace_dropped = sim.trace().dropped();
    out.slices = sim
        .profile()
        .slices
        .iter()
        .map(|s| PhaseSlice {
            start_us: s.start_us + engine_origin_us,
            ..*s
        })
        .collect();
    out.model = model_out(&sim);
    out.check_failures = checks(&sim, &out.model, traffic_items)
        .into_iter()
        .map(|f| format!("instance seed {}: {f}", spec.seed))
        .collect();
    out
}

/// Boot, then the timed run. The boot call covers `make_node` and
/// `on_start`; the timed call resumes from t = 0.
fn drive<P: ParProtocol<Msg = FrameBytes, Node = HvdbNode>>(
    sim: &mut Sim,
    proto: &P,
    until: SimTime,
    spec: RunSpec<'_>,
    out: &mut RunOut,
    phase: impl Fn(&'static str, Instant) -> f64,
) {
    if spec.boot {
        let t = Instant::now();
        sim.run(proto, SimTime::ZERO);
        out.setup.boot_s = phase("boot", t);
    }
    if spec.setup_only {
        return;
    }
    let before = sim.profile().clone();
    let sched = host::sched_now();
    let t = Instant::now();
    sim.run(proto, until);
    out.run_wall_s = phase("run", t);
    out.host = host::sched_now().since(&sched);
    out.sim_s = until.0 as f64 * 1e-6;
    out.instance_speeds = vec![out.sim_s / out.run_wall_s];
    out.engine = EngineDelta::between(&before, sim.profile());
}

/// Times `World::neighbors_into` over every node of the current world.
fn neighbor_sweep(sim: &Sim) -> (f64, f64) {
    let world = sim.world();
    let (mut nbrs, mut raw) = (Vec::new(), Vec::new());
    let mut found = 0usize;
    let t = Instant::now();
    for id in world.ids() {
        world.neighbors_into(id, &mut nbrs, &mut raw);
        found += std::hint::black_box(&nbrs).len();
    }
    let n = world.len().max(1) as f64;
    (t.elapsed().as_nanos() as f64 / n, found as f64 / n)
}

fn model_out(sim: &Sim) -> ModelOut {
    let stats = sim.stats();
    let rows = stats.origin_rows();
    let mut counters = Counters::default();
    for id in sim.world().ids() {
        if let Some(n) = sim.node_state(id) {
            counters += n.counters();
        }
    }
    ModelOut {
        expected_slots: rows.iter().map(|r| r.2).sum(),
        delivered_slots: rows.iter().map(|r| (r.3 as u64).min(r.2)).sum(),
        latency: stats.latency_hist().clone(),
        control_bytes: stats.bytes_where(|c| !is_data_class(c)),
        nodes: sim.world().len() as u64,
        events: stats.events_processed,
        tx_frames: stats.node_tx_msgs.iter().sum(),
        drops_loss: stats.drops_loss,
        drops_retry_exhausted: stats.drops_retry_exhausted,
        drops_queue_full: stats.drops_queue_full,
        drops_dead: stats.drops_dead,
        drops_out_of_range: stats.drops_out_of_range,
        refresh_frames: stats.msgs_where(is_refresh_class),
        refresh_suppressed: stats.soft_refresh_suppressed,
        refresh_fired: stats.soft_refresh_msgs,
        stale_suppressed: stats.soft_stale_suppressed,
        expired: stats.soft_expired,
        counters,
        digest: digest(stats),
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step over the bytes of `v`.
fn fnv(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a over the run's deterministic outputs: dispatched events, per-node
/// transmissions, drop counters, per-packet delivery and latency quantiles,
/// per-class traffic and the soft-state counters.
pub fn digest(stats: &Stats) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |v: u64| h = fnv(h, v);
    eat(stats.events_processed);
    stats.node_tx_msgs.iter().for_each(|&v| eat(v));
    stats.node_tx_bytes.iter().for_each(|&v| eat(v));
    for v in [
        stats.drops_out_of_range,
        stats.drops_loss,
        stats.drops_dead,
        stats.drops_retry_exhausted,
        stats.drops_queue_full,
        stats.drops_partitioned,
        stats.soft_refresh_msgs,
        stats.soft_refresh_suppressed,
        stats.soft_stale_suppressed,
        stats.soft_expired,
        stats.frames_shared,
    ] {
        eat(v);
    }
    for (id, at, expected, delivered) in stats.origin_rows() {
        eat(id);
        eat(at.0);
        eat(expected);
        eat(delivered as u64);
    }
    let hist = stats.latency_hist();
    eat(hist.count());
    eat(hist.min().unwrap_or(0));
    eat(hist.max().unwrap_or(0));
    for q in [0.5, 0.9, 0.99, 0.999] {
        eat(hist.quantile(q).unwrap_or(0));
    }
    for class in CLASSES {
        eat(stats.msgs(class));
        eat(stats.bytes(class));
    }
    h
}

/// Output checks every run must pass.
fn checks(sim: &Sim, m: &ModelOut, traffic_items: usize) -> Vec<String> {
    let stats = sim.stats();
    let mut bad = Vec::new();
    if stats.origin_count() != traffic_items {
        bad.push(format!(
            "{} of {traffic_items} scripted packets were sent",
            stats.origin_count()
        ));
    }
    let by_class = stats.msgs_where(|_| true);
    if by_class != m.tx_frames {
        bad.push(format!(
            "per-class frames {by_class} != per-node frames {}",
            m.tx_frames
        ));
    }
    let unknown = stats.msgs_where(|c| !CLASSES.contains(&c));
    if unknown != 0 {
        bad.push(format!(
            "{unknown} frames of classes outside the class list"
        ));
    }
    let recorded: u64 = stats.origin_rows().iter().map(|r| r.3 as u64).sum();
    if stats.latency_hist().count() != recorded {
        bad.push(format!(
            "{} latency samples for {recorded} deliveries",
            stats.latency_hist().count()
        ));
    }
    if m.events == 0 || m.expected_slots == 0 {
        bad.push("the run dispatched nothing or expected no deliveries".into());
    }
    bad
}
