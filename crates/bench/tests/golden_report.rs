//! Golden-report determinism gates.
//!
//! `tests/golden/par_report.json` pins the engine's absolute outputs on a
//! small fixed-seed workload at 64 shards — HVDB static, mobile-lossy and
//! fail/recover, plus every baseline — **byte for byte**: same RNG draw
//! order, same event total order, same wire sizes, same metrics, same
//! JSON rendering. It must come out identical at threads 1 and 2. Any
//! divergence — a reordered delivery, a changed wire size, an extra RNG
//! draw — fails this test before it can silently skew every committed
//! benchmark. The HVDB rows also carry `memory_per_node_bytes`: their
//! 50 s runs elect heads, so a change to the per-head state shows here.
//!
//! `tests/golden/smoke_registry.json` pins every registered scenario's
//! smoke report at two seeds (so every mean and worst-seed reduction has
//! two inputs), each reduced to its [`deterministic_view`], the content
//! `validate --baseline-dir` compares: a harness refactor must leave
//! every row as it was.
//!
//! Regenerate (only when a change is *supposed* to alter results) with:
//! `UPDATE_GOLDEN=1 cargo test -p hvdb-bench --test golden_report`

use hvdb_bench::runner::{run_one, run_one_instrumented, Proto};
use hvdb_bench::scenario::{registry, run_scenario, RunOpts};
use hvdb_bench::validate::deterministic_view;
use hvdb_bench::workload::{MobilityKind, Workload};
use hvdb_bench::{Json, Row, ScenarioReport};
use hvdb_sim::{FaultPlan, NodeId, SimDuration, SimTime};

/// Small but representative fixed-seed workload: real clustering warmup,
/// multicast traffic, a lossy mobile row (exercising the RNG loss path
/// and the mobility-tick index updates) and baseline-protocol rows
/// (exercising the engine with non-frame message types).
fn golden_workload() -> Workload {
    Workload {
        side: 800.0,
        nodes: 60,
        vc_side: 8,
        dim: 4,
        range: 250.0,
        groups: 2,
        members_per_group: 5,
        packets_per_group: 4,
        warmup: SimDuration::from_secs(30),
        traffic_window: SimDuration::from_secs(10),
        cooldown: SimDuration::from_secs(10),
        enhanced_fraction: 1.0,
        seed: 42,
        ..Workload::default()
    }
}

/// The golden workload on [`run_one`] (64 shards) at `threads` lanes:
/// HVDB static, mobile-lossy, and static with one node failing
/// mid-traffic and recovering (the serial barriers whose callbacks commit
/// between windows), each with its end-of-run memory estimate, then every
/// baseline on the static workload. The rendered `threads` field stays 1
/// because the rows must not depend on the lane count.
fn par_golden_report(threads: usize) -> String {
    let fault = FaultPlan::new()
        .fail(SimTime::from_secs(33), NodeId(12))
        .recover(SimTime::from_secs(37), NodeId(12));
    let cases: [(&str, MobilityKind, f64, FaultPlan); 3] = [
        (
            "hvdb-par-static",
            MobilityKind::Static,
            0.0,
            FaultPlan::new(),
        ),
        (
            "hvdb-par-mobile-lossy",
            MobilityKind::Waypoint(1.0, 5.0),
            0.10,
            FaultPlan::new(),
        ),
        ("hvdb-par-fail-recover", MobilityKind::Static, 0.0, fault),
    ];
    let hvdb = cases.into_iter().map(|(label, mobility, loss, faults)| {
        let w = Workload {
            mobility,
            loss_prob: loss,
            faults,
            threads,
            ..golden_workload()
        };
        let (m, detail) = run_one_instrumented(Proto::Hvdb, &w.build());
        let mut metrics = m.metric_pairs();
        metrics.push(("memory_per_node_bytes".into(), detail.memory_per_node_bytes));
        Row::new("golden", label, Proto::Hvdb.name(), metrics)
    });
    let baselines = Proto::ALL[1..].iter().map(|&proto| {
        let w = Workload {
            threads,
            ..golden_workload()
        };
        let m = run_one(proto, &w.build());
        let label = format!("{}-static", proto.name());
        Row::new("golden", label, proto.name(), m.metric_pairs())
    });
    let report = ScenarioReport {
        scenario: "golden".into(),
        figure: "determinism".into(),
        summary:
            "fixed-seed parallel-engine golden report (64 shards, identical at threads 1 and 2)"
                .into(),
        smoke: false,
        threads: 1,
        workload: None,
        timeline: None,
        profile: None,
        rows: hvdb.chain(baselines).collect(),
    };
    format!("{}\n", report.to_json())
}

/// Every registered scenario's smoke report at seeds 1 and 2, each
/// reduced to its [`deterministic_view`], as one JSON array.
fn smoke_registry_report() -> String {
    let opts = RunOpts {
        smoke: true,
        seeds: Some(vec![1, 2]),
        threads: 1,
    };
    let reports = registry()
        .iter()
        .map(|def| deterministic_view(&run_scenario(def, &opts).to_json()))
        .collect();
    format!("{}\n", Json::Arr(reports))
}

/// Compares `got` with the committed golden file `name`, or rewrites it
/// when `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, got: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("write golden report");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing tests/golden/{name} — run with UPDATE_GOLDEN=1 to (re)generate")
    });
    assert_eq!(
        got, want,
        "fixed-seed report diverged from the committed golden {name}: the \
         engine's event order, RNG stream or wire sizes changed, or a \
         scenario's inputs or reductions did"
    );
}

#[test]
fn par_engine_report_is_byte_identical_to_committed_golden_at_threads_1_and_2() {
    let one = par_golden_report(1);
    check_golden("par_report.json", &one);
    assert_eq!(
        par_golden_report(2),
        one,
        "threads=2 diverged from threads=1"
    );
}

#[test]
fn registry_smoke_reports_are_byte_identical_to_committed_golden() {
    check_golden("smoke_registry.json", &smoke_registry_report());
}
