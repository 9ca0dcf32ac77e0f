//! Metric definitions and their values. End-to-end metrics come from the
//! pooled untraced passes; per-layer metrics combine those passes (counts,
//! engine phases, host) with the pooled traced pass (handler times, trace
//! figures).

use crate::run::{RunOut, SetupTimes};
use crate::timed::{HandlerTimes, CLASSES};
use hvdb_bench::is_data_class;

/// One reported metric: every sample taken, summarised by its median.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// One value per pass, or per instance run for speed and set-up
    /// (deterministic metrics repeat exactly).
    pub samples: Vec<f64>,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Self {
        Metric {
            name: name.into(),
            unit,
            samples,
        }
    }

    /// Median of the samples (mean of the middle two for an even count).
    pub fn median(&self) -> f64 {
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

const MB: f64 = 1e6;

/// Classes only head drift and succession produce: never sent on a static
/// workload, so their handler time would read exactly 0 there. Their calls
/// are reported; their time is inside `proto.control_self_s`.
const MOBILE_ONLY_CLASSES: [&str; 3] = ["ch-retire", "handover", "stamp-hint"];

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The end-to-end metrics of one workload from its pooled passes. Speed is
/// sampled per instance run, so one disturbed run moves the median little.
pub fn end_to_end(passes: &[RunOut], setups: &[SetupTimes]) -> Vec<Metric> {
    let each = |f: &dyn Fn(&RunOut) -> f64| passes.iter().map(f).collect::<Vec<_>>();
    let speeds = passes
        .iter()
        .flat_map(|r| r.instance_speeds.iter().copied());
    vec![
        Metric::new("sim_s_per_wall_s", "s/s", speeds.collect()),
        Metric::new(
            "setup_s",
            "s",
            setups.iter().map(SetupTimes::total).collect(),
        ),
        Metric::new("peak_heap_mb", "MB", each(&|r| r.peak_heap as f64 / MB)),
        Metric::new("delivery", "share", each(&|r| r.model.delivery())),
        Metric::new("latency_p99_ms", "ms", each(&|r| r.model.latency_p99_ms())),
        Metric::new(
            "control_bytes_per_node",
            "B/node",
            each(&|r| r.model.control_bytes_per_node()),
        ),
    ]
}

/// The per-layer metrics of one workload: pooled untraced passes, the
/// set-up samples, and the pooled traced pass with its handler times.
pub fn per_layer(
    passes: &[RunOut],
    setups: &[SetupTimes],
    traced: &RunOut,
    handlers: &HandlerTimes,
) -> Vec<Metric> {
    let each = |f: &dyn Fn(&RunOut) -> f64| passes.iter().map(f).collect::<Vec<_>>();
    let once = |v: f64| vec![v];
    // Engine (sim::par, sim::event).
    let mut m = vec![
        Metric::new("engine.events", "count", each(&|r| r.model.events as f64)),
        Metric::new(
            "engine.windows",
            "count",
            each(&|r| r.engine.windows as f64),
        ),
        Metric::new(
            "engine.events_per_window",
            "count",
            each(&|r| ratio(r.model.events as f64, r.engine.windows as f64)),
        ),
        Metric::new(
            "engine.barriers",
            "count",
            each(&|r| r.engine.barriers as f64),
        ),
        Metric::new(
            "engine.events_per_s",
            "1/s",
            each(&|r| r.model.events as f64 / r.run_wall_s),
        ),
        Metric::new("engine.drain_s", "s", each(&|r| r.engine.drain_s)),
        Metric::new("engine.commit_s", "s", each(&|r| r.engine.commit_s)),
        // Serial queue pop and shard routing, plus barrier processing: barrier
        // time alone is exactly 0 on static workloads (under 0.5% of the run
        // on the mobile one), so it is not reported on its own.
        Metric::new(
            "engine.route_s",
            "s",
            each(&|r| r.run_wall_s - r.engine.drain_s - r.engine.commit_s),
        ),
        Metric::new(
            "engine.serial_share",
            "share",
            each(&|r| 1.0 - r.engine.drain_s / r.run_wall_s),
        ),
        Metric::new(
            "engine.lane_imbalance",
            "ratio",
            each(&|r| r.engine.lane_imbalance),
        ),
        Metric::new(
            "engine.drain_self_s",
            "s",
            once(traced.engine.drain_s - handlers.dispatch_secs()),
        ),
    ];

    // Protocol handlers (core::protocol, softstate, tree, hypercube).
    for (class, t) in CLASSES.iter().zip(&handlers.msg) {
        m.push(Metric::new(
            format!("proto.{class}.calls"),
            "count",
            once(t.calls as f64),
        ));
        if !MOBILE_ONLY_CLASSES.contains(class) {
            m.push(Metric::new(
                format!("proto.{class}.self_s"),
                "s",
                once(t.secs),
            ));
        }
    }
    m.push(Metric::new(
        "proto.timer.calls",
        "count",
        once(handlers.timer.calls as f64),
    ));
    m.push(Metric::new(
        "proto.timer.self_s",
        "s",
        once(handlers.timer.secs),
    ));
    m.push(Metric::new("proto.start_s", "s", once(handlers.start.secs)));
    m.push(Metric::new(
        "proto.make_node_s",
        "s",
        once(handlers.make_node.secs),
    ));
    let plane_secs = |data: bool| {
        CLASSES
            .iter()
            .zip(&handlers.msg)
            .filter(|(c, _)| is_data_class(c) == data)
            .map(|(_, t)| t.secs)
            .sum::<f64>()
    };
    m.push(Metric::new(
        "proto.control_self_s",
        "s",
        once(plane_secs(false)),
    ));
    m.push(Metric::new(
        "proto.data_self_s",
        "s",
        once(plane_secs(true)),
    ));

    // Radio (sim::radio, sim::world, geo::spatial).
    let rx = handlers.msg.iter().map(|t| t.calls).sum::<u64>() as f64;
    let model = &traced.model;
    let lost = (model.drops_loss + model.drops_dead + model.drops_out_of_range) as f64;
    m.push(Metric::new(
        "radio.tx_frames",
        "count",
        each(&|r| r.model.tx_frames as f64),
    ));
    m.push(Metric::new("radio.rx_frames", "count", once(rx)));
    m.push(Metric::new(
        "radio.fanout",
        "ratio",
        once(ratio(rx, model.tx_frames as f64)),
    ));
    m.push(Metric::new(
        "radio.drops_loss",
        "count",
        each(&|r| r.model.drops_loss as f64),
    ));
    m.push(Metric::new(
        "radio.drops_queue_full",
        "count",
        each(&|r| r.model.drops_queue_full as f64),
    ));
    m.push(Metric::new(
        "radio.drops_retry_exhausted",
        "count",
        each(&|r| r.model.drops_retry_exhausted as f64),
    ));
    m.push(Metric::new(
        "radio.drops_dead",
        "count",
        each(&|r| r.model.drops_dead as f64),
    ));
    m.push(Metric::new(
        "radio.delivered_share",
        "share",
        once(ratio(rx, rx + lost)),
    ));
    m.push(Metric::new(
        "radio.neighbor_query_ns",
        "ns",
        each(&|r| r.neighbor_query_ns),
    ));
    m.push(Metric::new(
        "radio.neighbors_mean",
        "count",
        each(&|r| r.neighbors_mean),
    ));

    // Soft state and trees (core::softstate, core::tree, hypercube).
    m.push(Metric::new(
        "softstate.refresh_frames",
        "count",
        each(&|r| r.model.refresh_frames as f64),
    ));
    m.push(Metric::new(
        "softstate.refresh_suppressed",
        "count",
        each(&|r| r.model.refresh_suppressed as f64),
    ));
    m.push(Metric::new(
        "softstate.stale_suppressed",
        "count",
        each(&|r| r.model.stale_suppressed as f64),
    ));
    m.push(Metric::new(
        "softstate.expired",
        "count",
        each(&|r| r.model.expired as f64),
    ));
    m.push(Metric::new(
        "softstate.suppressed_share",
        "share",
        each(&|r| {
            let s = r.model.refresh_suppressed as f64;
            ratio(s, s + r.model.refresh_fired as f64)
        }),
    ));
    let c = |f: &dyn Fn(&hvdb_core::Counters) -> u64| each(&|r| f(&r.model.counters) as f64);
    m.push(Metric::new(
        "hvdb.trees_built",
        "count",
        c(&|c| c.trees_built),
    ));
    m.push(Metric::new(
        "hvdb.tree_cache_hit_rate",
        "share",
        each(&|r| {
            let c = &r.model.counters;
            ratio(
                c.tree_cache_hits as f64,
                (c.tree_cache_hits + c.trees_built) as f64,
            )
        }),
    ));
    m.push(Metric::new(
        "hvdb.cube_rebuilds",
        "count",
        c(&|c| c.cube_rebuilds),
    ));
    m.push(Metric::new(
        "hvdb.cube_cache_hit_rate",
        "share",
        each(&|r| {
            let c = &r.model.counters;
            ratio(
                c.cube_cache_hits as f64,
                (c.cube_cache_hits + c.cube_rebuilds) as f64,
            )
        }),
    ));
    m.push(Metric::new("hvdb.geo_stuck", "count", c(&|c| c.geo_stuck)));
    m.push(Metric::new("hvdb.no_route", "count", c(&|c| c.no_route)));
    m.push(Metric::new(
        "hvdb.route_failovers",
        "count",
        c(&|c| c.route_failovers),
    ));

    // Memory, set-up, trace, host.
    m.push(Metric::new(
        "mem.estimate_mb",
        "MB",
        each(&|r| r.estimate as f64 / MB),
    ));
    m.push(Metric::new(
        "mem.heap_at_end_mb",
        "MB",
        each(&|r| r.heap_at_end as f64 / MB),
    ));
    m.push(Metric::new(
        "mem.estimate_gap",
        "ratio",
        each(&|r| ratio(r.heap_at_end as f64, r.estimate as f64)),
    ));
    let s = |f: fn(&SetupTimes) -> f64| setups.iter().map(f).collect::<Vec<_>>();
    m.push(Metric::new("setup.build_s", "s", s(|t| t.build_s)));
    m.push(Metric::new("setup.core_s", "s", s(|t| t.core_s)));
    m.push(Metric::new("setup.sim_new_s", "s", s(|t| t.sim_new_s)));
    m.push(Metric::new("setup.boot_s", "s", s(|t| t.boot_s)));
    m.push(Metric::new(
        "trace.records",
        "count",
        once(traced.trace_records as f64),
    ));
    m.push(Metric::new(
        "trace.dropped",
        "count",
        once(traced.trace_dropped as f64),
    ));
    let untraced_wall = Metric::new("", "", each(&|r| r.run_wall_s)).median();
    m.push(Metric::new(
        "trace.overhead_share",
        "share",
        once(traced.run_wall_s / untraced_wall - 1.0),
    ));
    m.push(Metric::new("host.cpu_s", "s", each(&|r| r.host.cpu_s)));
    m.push(Metric::new(
        "host.runq_wait_s",
        "s",
        each(&|r| r.host.runq_wait_s),
    ));
    m.push(Metric::new(
        "host.hardware_threads",
        "count",
        once(crate::host::hardware_threads() as f64),
    ));
    m
}
