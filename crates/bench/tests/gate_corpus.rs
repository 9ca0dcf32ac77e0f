//! The declared gates against the committed reports they read.
//!
//! * every committed `BENCH_*.json` passes its scenario's gates;
//! * every declared gate selects rows in its committed report, and every
//!   metric it names exists in those rows;
//! * `hvdb-bench list --json` names exactly the declared metrics;
//! * a table-driven mutation corpus, built from the committed files,
//!   trips exactly the gates each mutation targets, and each committed
//!   file, written back unedited, replays itself exactly.
//!
//! The corpus is also written to `$CARGO_TARGET_TMPDIR/gate-corpus/`:
//! one report per case plus `manifest.tsv` (case, scenario, smoke,
//! trajectory, expected exit code of `hvdb-bench validate`), so another
//! build of the validator can be compared against it case by case.

use hvdb_bench::scenario::{find, registry};
use hvdb_bench::validate::{
    check_gates, check_trajectory, parse_strict, report_rows, validate_report_str,
};
use hvdb_bench::{Gate, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Scenarios with a committed `BENCH_<scenario>.json` at the repo root;
/// CI compares each one with a fresh run.
const COMMITTED: [&str; 8] = [
    "seed",
    "loss",
    "overhead",
    "perf",
    "scale",
    "traffic",
    "partition",
    "byzantine",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn committed(scenario: &str) -> Json {
    let path = repo_root().join(format!("BENCH_{scenario}.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    validate_report_str(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

fn gates(scenario: &str) -> &'static [Gate] {
    find(scenario).expect("registered scenario").gates
}

#[test]
fn committed_reports_pass_their_declared_gates() {
    for scenario in COMMITTED {
        let doc = committed(scenario);
        for result in check_gates(&doc, gates(scenario)) {
            result.unwrap_or_else(|e| panic!("{scenario}: {e}"));
        }
    }
}

#[test]
fn declared_gates_match_committed_reports() {
    for def in registry().iter().filter(|d| !d.gates.is_empty()) {
        assert!(
            COMMITTED.contains(&def.name),
            "{} declares gates but has no committed report",
            def.name
        );
    }
    for scenario in COMMITTED {
        let rows = report_rows(&committed(scenario)).unwrap();
        for gate in gates(scenario) {
            let selected = gate
                .rows
                .select(&rows)
                .unwrap_or_else(|e| panic!("{scenario}: {gate} selects nothing: {e}"));
            for metric in gate.metrics() {
                for (_, row) in &selected {
                    assert!(
                        row.metrics.iter().any(|(k, _)| k == metric),
                        "{scenario}: {gate}: row {}/{} has no {metric}",
                        row.label,
                        row.proto
                    );
                }
            }
        }
    }
}

fn hvdb_bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hvdb-bench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("hvdb-bench runs")
}

fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
    let Json::Obj(fields) = obj else {
        panic!("not an object: {obj:?}")
    };
    &fields.iter().find(|(k, _)| k == key).expect(key).1
}

#[test]
fn list_json_names_exactly_the_declared_metrics() {
    let out = hvdb_bench(&["list", "--json"]);
    assert!(out.status.success());
    let doc = parse_strict(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let Json::Arr(entries) = doc else {
        panic!("list --json is not an array")
    };
    assert_eq!(entries.len(), registry().len());
    let strings = |v: &Json| -> Vec<String> {
        let Json::Arr(items) = v else { panic!() };
        items
            .iter()
            .map(|s| match s {
                Json::Str(s) => s.clone(),
                other => panic!("{other:?}"),
            })
            .collect()
    };
    for entry in &entries {
        let Json::Str(name) = field(entry, "name") else {
            panic!()
        };
        let mut declared: Vec<String> = Vec::new();
        for m in gates(name).iter().flat_map(Gate::metrics) {
            if !declared.iter().any(|d| d == m) {
                declared.push(m.to_string());
            }
        }
        assert_eq!(strings(field(entry, "gated_metrics")), declared, "{name}");
        assert_eq!(strings(field(entry, "gates")).len(), gates(name).len());
        match name.as_str() {
            "partition" => assert!(!declared.contains(&"drops_partitioned".into())),
            "perf" => assert!(declared.contains(&"hardware_threads".into())),
            _ => {}
        }
    }
}

#[test]
fn cli_validates_committed_reports_and_rejects_unknown_flags() {
    let files: Vec<String> = COMMITTED
        .iter()
        .map(|s| format!("BENCH_{s}.json"))
        .collect();
    let mut args = vec!["validate"];
    args.extend(files.iter().map(String::as_str));
    args.extend(["--baseline-dir", "."]);
    let out = hvdb_bench(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = hvdb_bench(&["validate", "BENCH_perf.json", "--speedup-floor", "1.5"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown validate flag"));
}

/// One edit of a committed report. Rows are addressed as
/// `sweep/label/proto`, and every edit must hit exactly one row.
#[derive(Debug)]
enum Edit {
    /// Set a row's metric.
    Set(&'static str, &'static str, f64),
    /// Multiply a row's metric.
    Scale(&'static str, &'static str, f64),
    /// Raise a row's metric to the next larger `f64`.
    Ulp(&'static str, &'static str),
    /// Set a row's metric to a multiple of the same metric in another
    /// row, read from the committed report: `Times(row, metric, base,
    /// factor)`.
    Times(&'static str, &'static str, &'static str, f64),
    /// Remove a row.
    Remove(&'static str),
    /// Rename a row's label.
    Relabel(&'static str, &'static str),
    /// Append a copy of a row under another label.
    Duplicate(&'static str, &'static str),
    /// Mark the report a smoke run.
    Smoke,
}

use Edit::{Duplicate, Relabel, Remove, Scale, Set, Smoke, Times, Ulp};

struct Case {
    name: &'static str,
    scenario: &'static str,
    edits: &'static [Edit],
    /// The gates expected to fail, each named by a fragment of its
    /// display (`sweep/label/protos metric check`).
    fails: &'static [&'static str],
    /// `Some(pass)`: also compared against the committed baseline, with
    /// the trajectory comparison expected to pass or not.
    trajectory: Option<bool>,
}

const fn case(
    name: &'static str,
    scenario: &'static str,
    edits: &'static [Edit],
    fails: &'static [&'static str],
) -> Case {
    Case {
        name,
        scenario,
        edits,
        fails,
        trajectory: None,
    }
}

const fn trajectory(
    name: &'static str,
    scenario: &'static str,
    edits: &'static [Edit],
    pass: bool,
) -> Case {
    Case {
        name,
        scenario,
        edits,
        fails: &[],
        trajectory: Some(pass),
    }
}

/// `perf`'s engine-threads rows; the speedup cases scale the threads=4
/// row's events/s off the committed threads=1 row.
const PAR_FLOOD_1: &str = "engine-threads/threads=1/par-flood";
const PAR_FLOOD_4: &str = "engine-threads/threads=4/par-flood";

const PERF_THREADS: &str = "engine-threads/threads=1../par-flood events_per_s";
const PERF_THREADS_EVENTS: &str = "engine-threads/threads=1../par-flood events_processed";
const KNEE: &str = "offered-load/pps>=0/";

const CASES: &[Case] = &[
    // loss: three floors, smoke refused.
    case(
        "loss-15-below-floor",
        "loss",
        &[Set("frame-loss/loss=0.15/hvdb", "delivery_worst", 0.89)],
        &["loss=0.15/"],
    ),
    case(
        "loss-15-on-floor",
        "loss",
        &[Set("frame-loss/loss=0.15/hvdb", "delivery_worst", 0.90)],
        &[],
    ),
    case(
        "loss-25-below-band",
        "loss",
        &[Set("frame-loss/loss=0.25/hvdb", "delivery_worst", 0.92)],
        &["loss=0.25/"],
    ),
    case(
        "loss-30-row-missing",
        "loss",
        &[Remove("frame-loss/loss=0.3/hvdb")],
        &["loss=0.3/"],
    ),
    case(
        "loss-smoke",
        "loss",
        &[Smoke],
        &["loss=0.15/", "loss=0.25/", "loss=0.3/"],
    ),
    // overhead: quiet-phase ratio (zero denominator fails) and ceiling.
    case(
        "overhead-ratio-below-floor",
        "overhead",
        &[Scale(
            "churn/churn=0/hvdb-adaptive",
            "refresh_frames_per_s",
            1.7,
        )],
        &["refresh_frames_per_s"],
    ),
    case(
        "overhead-zero-denominator",
        "overhead",
        &[Set(
            "churn/churn=0/hvdb-adaptive",
            "refresh_frames_per_s",
            0.0,
        )],
        &["refresh_frames_per_s"],
    ),
    case(
        "overhead-over-ceiling",
        "overhead",
        &[Set(
            "churn/churn=0/hvdb-adaptive",
            "control_frames_per_s",
            901.0,
        )],
        &["control_frames_per_s"],
    ),
    case(
        "overhead-smoke",
        "overhead",
        &[Smoke],
        &["refresh_frames_per_s", "control_frames_per_s"],
    ),
    // perf, engine threads: determinism always; speedup only on >= 4
    // threads and >= 4 hardware threads (1.2x on smoke reports).
    case("perf-threads-smoke", "perf", &[Smoke], &[]),
    case(
        "perf-threads-diverge",
        "perf",
        &[Set(PAR_FLOOD_4, "events_processed", 5312017.0)],
        &[PERF_THREADS_EVENTS],
    ),
    case(
        "perf-threads-waived-on-one-core",
        "perf",
        &[Set(PAR_FLOOD_4, "events_per_s", 1e6)],
        &[],
    ),
    case(
        "perf-threads-capable-1.9x",
        "perf",
        &[
            Set(PAR_FLOOD_4, "hardware_threads", 4.0),
            Times(PAR_FLOOD_4, "events_per_s", PAR_FLOOD_1, 1.9),
        ],
        &[PERF_THREADS],
    ),
    case(
        "perf-threads-capable-2.1x",
        "perf",
        &[
            Set(PAR_FLOOD_4, "hardware_threads", 4.0),
            Times(PAR_FLOOD_4, "events_per_s", PAR_FLOOD_1, 2.1),
        ],
        &[],
    ),
    case(
        "perf-threads-baseline-missing",
        "perf",
        &[Remove(PAR_FLOOD_1)],
        &[PERF_THREADS_EVENTS, PERF_THREADS],
    ),
    case(
        "perf-threads-smoke-1.3x",
        "perf",
        &[
            Smoke,
            Set(PAR_FLOOD_4, "hardware_threads", 4.0),
            Times(PAR_FLOOD_4, "events_per_s", PAR_FLOOD_1, 1.3),
        ],
        &[],
    ),
    case(
        "perf-threads-smoke-1.1x",
        "perf",
        &[
            Smoke,
            Set(PAR_FLOOD_4, "hardware_threads", 4.0),
            Times(PAR_FLOOD_4, "events_per_s", PAR_FLOOD_1, 1.1),
        ],
        &[PERF_THREADS],
    ),
    // scale: thread invariance always, campaign delivery on full runs.
    case(
        "scale-threads-diverge",
        "scale",
        &[Set(
            "engine-threads/threads=4/hvdb",
            "events_processed",
            12923388.5,
        )],
        &["engine-threads/"],
    ),
    case(
        "scale-threads-baseline-missing",
        "scale",
        &[Remove("engine-threads/threads=1/hvdb")],
        &["engine-threads/"],
    ),
    case(
        "scale-campaign-below-floor",
        "scale",
        &[Set("network-size/nodes=20000/hvdb", "delivery", 0.98)],
        &["network-size/"],
    ),
    case(
        "scale-campaign-missing",
        "scale",
        &[
            Remove("network-size/nodes=20000/hvdb"),
            Remove("network-size/nodes=50000/hvdb"),
            Remove("network-size/nodes=100000/hvdb"),
        ],
        &["network-size/"],
    ),
    case("scale-smoke", "scale", &[Smoke], &[]),
    case(
        "scale-smoke-campaign-skipped",
        "scale",
        &[Smoke, Set("network-size/nodes=20000/hvdb", "delivery", 0.5)],
        &[],
    ),
    case(
        "scale-smoke-threads-diverge",
        "scale",
        &[
            Smoke,
            Set(
                "engine-threads/threads=4/hvdb",
                "events_processed",
                12923388.5,
            ),
        ],
        &["engine-threads/"],
    ),
    // traffic: strict knee ordering (prefix semantics) and the p99 band.
    case(
        "traffic-hvdb-knee-ties-flooding",
        "traffic",
        &[Set("offered-load/pps=640/hvdb", "delivery", 0.85)],
        &[KNEE],
    ),
    case(
        "traffic-prefix-break",
        "traffic",
        &[Set("offered-load/pps=320/hvdb", "p99_ms", 600.0)],
        &[KNEE],
    ),
    case(
        "traffic-hvdb-fails-lowest-point",
        "traffic",
        &[Set("offered-load/pps=20/hvdb", "delivery", 0.5)],
        &[KNEE],
    ),
    case(
        "traffic-flooding-sustains-640",
        "traffic",
        &[Set("offered-load/pps=640/flooding", "p99_ms", 400.0)],
        &[KNEE],
    ),
    case(
        "traffic-nan-label-hvdb",
        "traffic",
        &[Relabel("offered-load/pps=640/hvdb", "pps=nan")],
        &[KNEE],
    ),
    case(
        "traffic-nan-label-shared-tree",
        "traffic",
        &[Relabel("offered-load/pps=640/shared-tree", "pps=nan")],
        &[],
    ),
    case(
        "traffic-p99-above-band",
        "traffic",
        &[Set("offered-load/pps=160/hvdb", "p99_ms", 61.0)],
        &["pps=160/hvdb p99_ms"],
    ),
    case(
        "traffic-p99-below-band",
        "traffic",
        &[Set("offered-load/pps=160/hvdb", "p99_ms", 9.9)],
        &["pps=160/hvdb p99_ms"],
    ),
    case(
        "traffic-smoke",
        "traffic",
        &[Smoke],
        &[KNEE, "pps=160/hvdb p99_ms"],
    ),
    // partition: reachable-delivery floor and re-merge budget.
    case(
        "partition-reachable-below-floor",
        "partition",
        &[Set(
            "partition/phase=partition/hvdb",
            "delivery_reachable_steady_worst",
            0.94,
        )],
        &["phase=partition/"],
    ),
    case(
        "partition-remerge-over-budget",
        "partition",
        &[Set(
            "partition/phase=healed/hvdb",
            "remerge_secs_worst",
            16.0,
        )],
        &["phase=healed/"],
    ),
    case(
        "partition-healed-missing",
        "partition",
        &[Remove("partition/phase=healed/hvdb")],
        &["phase=healed/"],
    ),
    case(
        "partition-smoke",
        "partition",
        &[Smoke],
        &["phase=partition/", "phase=healed/"],
    ),
    // byzantine: damage ceiling at every k > 0 against the k=0 reference.
    case(
        "byzantine-damage-over-ceiling",
        "byzantine",
        &[Set("byzantine/byz=4/hvdb", "damage_per_node", 0.06)],
        &["damage_per_node"],
    ),
    case(
        "byzantine-reference-missing",
        "byzantine",
        &[Remove("byzantine/byz=0/hvdb")],
        &["damage_per_node"],
    ),
    case(
        "byzantine-only-reference",
        "byzantine",
        &[
            Remove("byzantine/byz=1/hvdb"),
            Remove("byzantine/byz=2/hvdb"),
            Remove("byzantine/byz=4/hvdb"),
        ],
        &["damage_per_node"],
    ),
    case(
        "byzantine-smoke",
        "byzantine",
        &[Smoke],
        &["damage_per_node"],
    ),
    case("seed-smoke", "seed", &[Smoke], &[]),
    // Trajectory: every deterministic number must replay exactly, so the
    // old bands' inside edges (-9% delivery, +14% control) now fail.
    trajectory(
        "trajectory-delivery-minus-9",
        "scale",
        &[Scale("network-size/nodes=200/hvdb", "delivery", 0.91)],
        false,
    ),
    trajectory(
        "trajectory-memory-one-ulp",
        "scale",
        &[Ulp("network-size/nodes=200/hvdb", "memory_per_node_bytes")],
        false,
    ),
    trajectory(
        "trajectory-control-plus-14",
        "overhead",
        &[Scale(
            "churn/churn=12/hvdb-adaptive",
            "control_frames_per_s",
            1.14,
        )],
        false,
    ),
    trajectory(
        "trajectory-row-missing",
        "partition",
        &[Remove("partition/phase=pre/hvdb")],
        false,
    ),
    trajectory(
        "trajectory-row-added",
        "scale",
        &[Duplicate("network-size/nodes=200/hvdb", "nodes=300")],
        false,
    ),
    // Wall-clock metrics are not content: doubling them passes.
    trajectory(
        "trajectory-perf-wall-clock-doubled",
        "perf",
        &[
            Scale(PAR_FLOOD_4, "events_per_s", 2.0),
            Scale(PAR_FLOOD_4, "wall_ms", 2.0),
        ],
        true,
    ),
];

fn rows_mut(doc: &mut Json) -> &mut Vec<Json> {
    let Json::Obj(fields) = doc else { panic!() };
    match fields.iter_mut().find(|(k, _)| k == "rows") {
        Some((_, Json::Arr(rows))) => rows,
        _ => panic!("report has no rows"),
    }
}

fn addressed(row: &Json, addr: &str) -> bool {
    let want: Vec<&str> = addr.splitn(3, '/').collect();
    ["sweep", "label", "proto"]
        .iter()
        .zip(want)
        .all(|(key, want)| *field(row, key) == Json::Str(want.into()))
}

/// A row's metric value.
fn metric_of(rows: &[Json], addr: &str, metric: &str) -> f64 {
    let row = rows
        .iter()
        .find(|r| addressed(r, addr))
        .unwrap_or_else(|| panic!("{addr}: no such row"));
    match field(field(row, "metrics"), metric) {
        Json::Num(v) => *v,
        other => panic!("{addr} {metric}: {other:?}"),
    }
}

fn apply(doc: &mut Json, edit: &Edit) {
    if let Times(addr, metric, base, factor) = *edit {
        let value = factor * metric_of(rows_mut(doc), base, metric);
        return apply(doc, &Set(addr, metric, value));
    }
    if let Smoke = edit {
        let Json::Obj(fields) = doc else { panic!() };
        fields.iter_mut().find(|(k, _)| k == "smoke").unwrap().1 = Json::Bool(true);
        return;
    }
    let rows = rows_mut(doc);
    if let Remove(addr) = edit {
        let before = rows.len();
        rows.retain(|r| !addressed(r, addr));
        assert_eq!(before - 1, rows.len(), "{edit:?} must hit one row");
        return;
    }
    if let Duplicate(addr, label) = *edit {
        let row = rows.iter().find(|r| addressed(r, addr));
        let mut copy = row.expect("copied row").clone();
        if let Json::Obj(fields) = &mut copy {
            fields.iter_mut().find(|(k, _)| k == "label").unwrap().1 = Json::Str(label.into());
        }
        rows.push(copy);
        return;
    }
    let (Set(addr, ..) | Scale(addr, ..) | Ulp(addr, _) | Relabel(addr, _)) = edit else {
        unreachable!()
    };
    let mut hits = rows.iter_mut().filter(|r| addressed(r, addr));
    let row = hits
        .next()
        .unwrap_or_else(|| panic!("{edit:?} hits no row"));
    assert!(hits.next().is_none(), "{edit:?} hits several rows");
    let Json::Obj(fields) = row else { panic!() };
    if let Relabel(_, label) = edit {
        fields.iter_mut().find(|(k, _)| k == "label").unwrap().1 = Json::Str(label.to_string());
        return;
    }
    let Some((_, Json::Obj(metrics))) = fields.iter_mut().find(|(k, _)| k == "metrics") else {
        panic!()
    };
    let (Set(_, metric, _) | Scale(_, metric, _) | Ulp(_, metric)) = edit else {
        unreachable!()
    };
    let Some((_, Json::Num(v))) = metrics.iter_mut().find(|(k, _)| k == metric) else {
        panic!("{edit:?}: no such metric")
    };
    match edit {
        Set(.., x) => *v = *x,
        Scale(.., f) => *v *= f,
        Ulp(..) => *v = f64::from_bits(v.to_bits() + 1),
        _ => unreachable!(),
    }
}

#[test]
fn mutation_corpus_trips_exactly_the_targeted_gates() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("gate-corpus");
    std::fs::create_dir_all(&dir).unwrap();
    let mut manifest = String::from("case\tscenario\tsmoke\ttrajectory\texpected_exit\n");
    let identity = COMMITTED.map(|s| (s, trajectory(s, s, &[], true)));
    let mut cases: Vec<(String, &Case)> = Vec::new();
    for (s, c) in &identity {
        cases.push((format!("committed-{s}"), c));
    }
    cases.extend(CASES.iter().map(|c| (c.name.to_string(), c)));
    for (name, case) in cases {
        let base = committed(case.scenario);
        let mut doc = base.clone();
        for edit in case.edits {
            apply(&mut doc, edit);
        }
        // The mutation must survive the writer and the strict schema.
        let text = format!("{doc}\n");
        let doc = validate_report_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));

        let declared = gates(case.scenario);
        let failed: Vec<String> = declared
            .iter()
            .zip(check_gates(&doc, declared))
            .filter(|(_, r)| r.is_err())
            .map(|(g, _)| g.to_string())
            .collect();
        assert_eq!(
            failed.len(),
            case.fails.len(),
            "{name}: failed {failed:?}, expected {:?}",
            case.fails
        );
        for want in case.fails {
            assert_eq!(
                failed.iter().filter(|g| g.contains(want)).count(),
                1,
                "{name}: {want:?} must name exactly one failed gate of {failed:?}"
            );
        }
        if let Some(pass) = case.trajectory {
            let verdict = check_trajectory(&doc, &base);
            assert_eq!(verdict.is_ok(), pass, "{name}: {verdict:?}");
        }

        let fails = !case.fails.is_empty() || case.trajectory == Some(false);
        let smoke = case.edits.iter().any(|e| matches!(e, Smoke));
        std::fs::write(dir.join(format!("{name}.json")), &text).unwrap();
        manifest.push_str(&format!(
            "{name}\t{}\t{}\t{}\t{}\n",
            case.scenario,
            u8::from(smoke),
            u8::from(case.trajectory.is_some()),
            u8::from(fails)
        ));
    }
    std::fs::write(dir.join("manifest.tsv"), manifest).unwrap();
}
