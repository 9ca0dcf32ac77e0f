//! # hvdb-bench — experiment harness for the HVDB reproduction
//!
//! Regenerates every figure of the paper and quantifies every claim of
//! its conclusions through one CLI (`hvdb-bench`, see `src/bin/main.rs`).
//!
//! * [`workload`] builds scenario inputs shared byte-for-byte across
//!   protocols;
//! * [`runner`] executes one `(scenario, protocol)` run through one engine
//!   recipe (`ParSimulator` on [`runner::SHARDS`] shards), builds every
//!   HVDB run (`hvdb_run`), and fans `(cell, seed)` runs out over rayon
//!   (`per_cell`) while each individual simulation stays deterministic;
//! * [`scenario`] is the registry: every experiment (c1–c4, f1–f6, a1,
//!   seed, loss, scale, perf, overhead, traffic, partition, byzantine) as
//!   a named entry with a smoke mode;
//! * [`report`] is the uniform row model and the `BENCH_<scenario>.json`
//!   serialization the perf trajectory is built from;
//! * [`validate`] is the strict report validator (`run`'s post-write
//!   check) and the interpreter for the regression gates each scenario
//!   declares (`hvdb-bench validate`, `explain`, `list --json`).

#![warn(missing_docs)]

pub mod report;
pub mod runner;
pub mod scenario;
pub mod validate;
pub mod workload;

pub use report::{Json, Row, ScenarioReport};
pub use runner::{
    average, chrome_trace_json, profile_json, run_hvdb_tweaked, run_one, run_one_instrumented,
    run_par_flood, run_par_hvdb_timeline, run_par_hvdb_traced, sample_par_hvdb, timeline_json,
    traffic_profile_of, Proto, RunDetail, TimelineSample, TrafficProfile, SHARDS,
};
pub use scenario::{registry, run_scenario, CustomOut, RunOpts, ScenarioDef};
pub use validate::{
    check_gates, check_trajectory, parse_strict, validate_report_str, Check, Gate, Label, Rows,
    Smoke, OVERHEAD_GATED_METRICS, TRAJECTORY_DELIVERY_TOLERANCE, TRAJECTORY_OVERHEAD_TOLERANCE,
};
pub use workload::{
    is_data_class, is_refresh_class, metrics_of, MobilityKind, RunMetrics, Scenario, Workload,
};
