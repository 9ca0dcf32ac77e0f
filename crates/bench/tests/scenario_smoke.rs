//! Registry smoke coverage: every registered scenario constructs, runs a
//! ~1-second shrunk simulation, produces non-empty uniform rows and
//! serializes to a report that passes the strict schema validator — the
//! same validator `hvdb-bench validate` and the CI bench-regression job
//! apply to full runs, so the contract is enforced end to end.

use hvdb_bench::scenario::{registry, run_scenario, RunOpts};
use hvdb_bench::validate::{report_rows, validate_report_str};
use hvdb_bench::Row;

#[test]
fn every_scenario_smokes_and_validates() {
    let opts = RunOpts {
        smoke: true,
        ..RunOpts::default()
    };
    let defs = registry();
    assert!(defs.len() >= 15, "registry lost scenarios: {}", defs.len());
    for def in &defs {
        let report = run_scenario(def, &opts);
        assert_eq!(report.scenario, def.name);
        assert!(report.smoke);
        assert!(
            !report.rows.is_empty(),
            "scenario {} produced no rows",
            def.name
        );
        for row in &report.rows {
            assert!(!row.sweep.is_empty(), "{}: empty sweep name", def.name);
            assert!(!row.label.is_empty(), "{}: empty label", def.name);
            assert!(
                !row.metrics.is_empty(),
                "{}: row {}/{} has no metrics",
                def.name,
                row.sweep,
                row.label
            );
        }
        let json = report.to_json().to_string();
        validate_report_str(&json)
            .unwrap_or_else(|e| panic!("{}: report failed strict validation: {e}", def.name));
    }
}

/// `name`'s smoke report rows, read back through the strict validator.
fn smoke_rows(name: &str) -> Vec<Row> {
    let def = hvdb_bench::scenario::find(name).expect("registered scenario");
    let opts = RunOpts {
        smoke: true,
        ..RunOpts::default()
    };
    let json = run_scenario(&def, &opts).to_json().to_string();
    report_rows(&validate_report_str(&json).expect("valid report")).expect("rows")
}

/// Whether the `sweep/label/proto` row of `rows` carries `metric`.
fn emits(rows: &[Row], coord: &str, metric: &str) -> bool {
    rows.iter().any(|r| {
        format!("{}/{}/{}", r.sweep, r.label, r.proto) == coord
            && r.metrics.iter().any(|(k, _)| k == metric)
    })
}

#[test]
fn loss_scenario_emits_the_gated_metrics() {
    // The CI gate reads frame-loss/loss=0.15/hvdb/delivery_worst; make
    // sure the scenario emits that exact coordinate even in smoke shape.
    let rows = smoke_rows("loss");
    assert!(
        emits(&rows, "frame-loss/loss=0.15/hvdb", "delivery_worst"),
        "loss report lost its gate coordinate"
    );
    assert!(emits(&rows, "frame-loss/loss=0.15/hvdb", "delivery"));
}

#[test]
fn overhead_scenario_emits_the_gated_coordinates() {
    // The CI quiet-phase gate reads churn/churn=0/{hvdb-fixed,
    // hvdb-adaptive}/refresh_frames_per_s (plus the adaptive side's
    // control_frames_per_s ceiling); the scenario must emit those exact
    // coordinates even in smoke shape.
    let rows = smoke_rows("overhead");
    for proto in ["hvdb-fixed", "hvdb-adaptive"] {
        assert!(
            emits(
                &rows,
                &format!("churn/churn=0/{proto}"),
                "refresh_frames_per_s"
            ),
            "overhead report lost its {proto} gate coordinate"
        );
    }
    assert!(emits(
        &rows,
        "churn/churn=0/hvdb-adaptive",
        "control_frames_per_s"
    ));
}

#[test]
fn scale_scenario_emits_trajectory_metrics() {
    let rows = smoke_rows("scale");
    // Every row must carry the metrics the scalability claim reads.
    for label in ["nodes=30", "nodes=40"] {
        for metric in ["delivery", "control_bytes_per_node", "control_frames_per_s"] {
            assert!(
                emits(&rows, &format!("network-size/{label}/hvdb"), metric),
                "scale report lost {label}/{metric}"
            );
        }
    }
}

#[test]
fn scenario_names_are_unique_and_cli_safe() {
    let defs = registry();
    let mut names: Vec<&str> = defs.iter().map(|d| d.name).collect();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(before, names.len(), "duplicate scenario names");
    for name in names {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'),
            "scenario name {name:?} is not filename-safe"
        );
    }
}
