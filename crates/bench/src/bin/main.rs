//! The `hvdb-bench` CLI: one entry point for every experiment.
//!
//! ```text
//! hvdb-bench list [--json]
//! hvdb-bench run <scenario>... [--smoke] [--seeds 1,2,3] [--threads N] [--out-dir DIR]
//! hvdb-bench run --all [--smoke] [--seeds 1,2,3] [--threads N] [--out-dir DIR]
//! hvdb-bench run ... [--trace-out PATH] [--trace-filter CATS]
//! hvdb-bench validate <file>... [--baseline-dir DIR]
//! hvdb-bench explain <report.json>
//! ```
//!
//! Each run prints a human-readable table and writes
//! `BENCH_<scenario>.json` (uniform rows: sweep axis, point label,
//! protocol, named metrics) into the output directory (default: the
//! current directory), building the perf trajectory PR over PR. Every
//! written report is immediately re-validated against the strict schema;
//! `run` exits nonzero if any scenario's report fails (after finishing
//! the remaining scenarios). `validate` checks committed/artifact
//! reports and enforces the gates the report's scenario declares
//! ([`ScenarioDef::gates`]); with `--baseline-dir` it also requires each
//! report to replay its committed baseline exactly ([`check_trajectory`]).
//! `--trace-out` additionally records a structured-trace + profiler run
//! of the paper geometry on the parallel engine and writes it as a Chrome
//! trace-event (Perfetto-loadable) document. `explain` prints a human
//! post-mortem of one report: the same gates, fault counters, timeline
//! inflections and the profiler's phase split.

use hvdb_bench::scenario::{find, paper_workload, registry, run_scenario, RunOpts, ScenarioDef};
use hvdb_bench::validate::report_rows;
use hvdb_bench::{
    check_gates, check_trajectory, run_par_hvdb_traced, validate_report_str, Gate, Json, Row,
    ScenarioReport, Workload,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => list(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("validate") => validate(&args[1..]),
        Some("explain") => explain(&args[1..]),
        Some("--help") | Some("-h") | None => {
            usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command: {other}\n");
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!("hvdb-bench — experiment harness for the HVDB reproduction");
    eprintln!();
    eprintln!("USAGE:");
    eprintln!("  hvdb-bench list [--json]");
    eprintln!(
        "  hvdb-bench run <scenario>... [--smoke] [--seeds 1,2,3] [--threads N] [--out-dir DIR]"
    );
    eprintln!(
        "  hvdb-bench run --all        [--smoke] [--seeds 1,2,3] [--threads N] [--out-dir DIR]"
    );
    eprintln!("  hvdb-bench run ...          [--trace-out PATH] [--trace-filter CATS]");
    eprintln!("  hvdb-bench validate <file>... [--baseline-dir DIR]");
    eprintln!("  hvdb-bench explain <report.json>");
    eprintln!();
    eprintln!("Writes BENCH_<scenario>.json per scenario; see `list` for names.");
    eprintln!("`run --threads N` sets the worker-thread count of parallel-engine");
    eprintln!("arms (default 1); it is recorded in every report and cannot change");
    eprintln!("deterministic metrics. `run --trace-out PATH` additionally runs the");
    eprintln!("paper geometry on the parallel engine with the structured trace and");
    eprintln!("profiler enabled and writes a Chrome trace-event document (open in");
    eprintln!("Perfetto / about:tracing); --trace-filter narrows categories");
    eprintln!("(comma-separated election,soft-state,fault,flow; default all).");
    eprintln!();
    eprintln!("`validate` schema-checks report files and enforces the gates each");
    eprintln!("scenario declares. A gate names a metric, the rows it reads, one");
    eprintln!("check, and what a smoke report does: refuse, skip, or use a lower");
    eprintln!("floor; `list --json` prints every scenario's gates. With");
    eprintln!("--baseline-dir, every report is also compared against the committed");
    eprintln!("BENCH_<scenario>.json in DIR: every number but the wall-clock metrics,");
    eprintln!("`threads` and the `profile` block must be identical, and each one that");
    eprintln!("differs is listed.");
    eprintln!("`explain` prints a post-mortem of one report: how it fares against");
    eprintln!("its gates, fault counters, timeline inflections, profiler phase split.");
}

fn validate(args: &[String]) -> ExitCode {
    let mut files: Vec<String> = Vec::new();
    let mut baseline_dir: Option<String> = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline-dir" => match args.next() {
                Some(dir) => baseline_dir = Some(dir.clone()),
                None => {
                    eprintln!("--baseline-dir needs a path");
                    return ExitCode::FAILURE;
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown validate flag: {flag}");
                eprintln!("(gate thresholds are declared per scenario; see `list --json`)");
                return ExitCode::FAILURE;
            }
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        eprintln!("validate needs at least one report file");
        return ExitCode::FAILURE;
    }
    let mut failures = 0u32;
    for file in &files {
        let doc = match read_report(file) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("{file}: FAIL: {e}");
                failures += 1;
                continue;
            }
        };
        let mut results = check_gates(&doc, gates_of(&doc));
        if let Some(dir) = &baseline_dir {
            results.push((|| {
                let scenario =
                    scenario_name(&doc).ok_or_else(|| "report has no scenario name".to_string())?;
                let base_path = format!("{dir}/BENCH_{scenario}.json");
                // A gate that cannot find its baseline must fail, not
                // silently wave the candidate through.
                let baseline =
                    read_report(&base_path).map_err(|e| format!("baseline {base_path}: {e}"))?;
                let same = check_trajectory(&doc, &baseline)?;
                Ok(format!("trajectory ok vs {base_path}: {same}"))
            })());
        }
        let fails: Vec<&String> = results.iter().filter_map(|r| r.as_ref().err()).collect();
        let notes: Vec<&str> = results.iter().filter_map(|r| r.as_deref().ok()).collect();
        if !fails.is_empty() {
            eprintln!("{file}: FAIL ({} gate(s)):", fails.len());
            for f in fails {
                eprintln!("  - {f}");
            }
            failures += 1;
        } else if notes.is_empty() {
            println!("{file}: ok");
        } else {
            println!("{file}: ok ({})", notes.join("; "));
        }
    }
    if failures > 0 {
        eprintln!("{failures} of {} report(s) failed validation", files.len());
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Reads the report file at `path` and schema-checks it.
fn read_report(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    validate_report_str(&text)
}

fn scenario_name(doc: &Json) -> Option<&str> {
    match doc.get("scenario")? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

/// The gates declared by `doc`'s scenario; none for unknown scenarios,
/// which are schema-checked only.
fn gates_of(doc: &Json) -> &'static [Gate] {
    scenario_name(doc)
        .and_then(find)
        .map_or(&[], |def| def.gates)
}

fn list(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("--json") => {
            let doc = Json::Arr(
                registry()
                    .iter()
                    .map(|def| {
                        let mut metrics: Vec<Json> = Vec::new();
                        for m in def.gates.iter().flat_map(Gate::metrics) {
                            let m = Json::Str(m.into());
                            if !metrics.contains(&m) {
                                metrics.push(m);
                            }
                        }
                        let gates = def
                            .gates
                            .iter()
                            .map(|g| Json::Str(format!("{g}; smoke: {:?}", g.smoke)))
                            .collect();
                        Json::Obj(vec![
                            ("name".into(), Json::Str(def.name.into())),
                            ("figure".into(), Json::Str(def.figure.into())),
                            ("summary".into(), Json::Str(def.summary.into())),
                            ("gated_metrics".into(), Json::Arr(metrics)),
                            ("gates".into(), Json::Arr(gates)),
                        ])
                    })
                    .collect(),
            );
            println!("{doc}");
            ExitCode::SUCCESS
        }
        None => {
            println!("{:<16} {:<16} summary", "scenario", "figure");
            for def in registry() {
                println!("{:<16} {:<16} {}", def.name, def.figure, def.summary);
            }
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown list flag: {other} (only --json)");
            ExitCode::FAILURE
        }
    }
}

/// `hvdb-bench explain <report.json>`: a human post-mortem of one
/// report. Narrates what `validate` enforces on it (the same declared
/// gates, smoke thresholds picked by the report's own `smoke` field)
/// plus everything the observability plane recorded: fault counters,
/// timeline inflection points, and the profiler's phase split. Exits
/// nonzero only if the file is unreadable or fails the schema — gate
/// failures are findings to narrate, not errors.
fn explain(args: &[String]) -> ExitCode {
    let [file] = args else {
        eprintln!("explain needs exactly one report file");
        return ExitCode::FAILURE;
    };
    let doc = match read_report(file) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("{file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scenario = scenario_name(&doc).unwrap_or_default();
    let smoke = matches!(doc.get("smoke"), Some(Json::Bool(true)));
    println!(
        "# {scenario}{} — {}",
        if smoke { " [smoke]" } else { "" },
        match doc.get("summary") {
            Some(Json::Str(s)) => s.as_str(),
            _ => "",
        }
    );

    println!("## gates (as `validate` enforces them on this report)");
    let results = check_gates(&doc, gates_of(&doc));
    for r in &results {
        match r {
            Ok(note) => println!("  PASS {note}"),
            Err(e) => println!("  FAIL {e}"),
        }
    }
    if results.is_empty() {
        println!("  (no declared gates; schema check only)");
    }

    let counters = fault_totals(&report_rows(&doc).unwrap_or_default());
    if !counters.is_empty() {
        println!("## fault counters (summed over rows)");
        for (k, v) in &counters {
            println!("  {k}={v:.0}");
        }
    }

    if let Some(timeline) = doc.get("timeline") {
        println!("## timeline");
        if let (Some(interval), Some(Json::Arr(samples))) =
            (timeline.num("interval_secs"), timeline.get("samples"))
        {
            println!("  {} samples every {interval}s", samples.len());
            let series: Vec<(f64, f64)> = samples
                .iter()
                .filter_map(|s| Some((s.num("t_secs")?, s.num("heads")?)))
                .collect();
            // Inflection points: every sample where the head census moved
            // — the election/merge story of the run in a few lines.
            let mut prev: Option<f64> = None;
            let mut shown = 0;
            for &(t, heads) in &series {
                if prev != Some(heads) {
                    if shown < 12 {
                        println!("  t={t}s heads={heads:.0}");
                    }
                    shown += 1;
                }
                prev = Some(heads);
            }
            if shown > 12 {
                println!("  ... {} more head-census changes", shown - 12);
            }
        }
        for key in [
            "split_at_secs",
            "heal_at_secs",
            "heads_target",
            "remerge_secs_probe",
        ] {
            if let Some(v) = timeline.num(key) {
                println!("  {key}={v}");
            }
        }
        if timeline.num("remerge_secs_probe").is_some() {
            // The schema check already re-derived it from the series.
            println!("  re-merge re-derived from the series matches the probe measurement");
        }
    }

    if let Some(profile) = doc.get("profile") {
        println!("## engine profile (wall-clock, non-deterministic)");
        if let (Some(drain), Some(commit), Some(barrier)) = (
            profile.num("drain_secs"),
            profile.num("commit_secs"),
            profile.num("barrier_secs"),
        ) {
            let total = (drain + commit + barrier).max(1e-12);
            println!(
                "  parallel drain {:.0}% / serial commit {:.0}% / barrier {:.0}% of {total:.3}s",
                100.0 * drain / total,
                100.0 * commit / total,
                100.0 * barrier / total,
            );
        }
        for key in ["windows", "barriers", "lane_imbalance", "slices_dropped"] {
            if let Some(v) = profile.num(key) {
                println!("  {key}={v}");
            }
        }
        if let Some(Json::Arr(lanes)) = profile.get("lane_busy_secs") {
            println!("  lanes={}", lanes.len());
        }
    }
    ExitCode::SUCCESS
}

/// The fault-plane counters surfaced on the console and in `explain` —
/// recorded as row metrics by the scenarios that exercise them.
const FAULT_COUNTER_METRICS: [&str; 4] = [
    "drops_partitioned",
    "byzantine_dropped",
    "byzantine_replayed",
    "drops_queue_full",
];

/// Each [`FAULT_COUNTER_METRICS`] entry some row records, summed over
/// `rows`, in order of first appearance.
fn fault_totals(rows: &[Row]) -> Vec<(&'static str, f64)> {
    let mut totals: Vec<(&str, f64)> = Vec::new();
    for (k, v) in rows.iter().flat_map(|r| &r.metrics) {
        if let Some(&name) = FAULT_COUNTER_METRICS.iter().find(|m| *m == k) {
            match totals.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += v,
                None => totals.push((name, *v)),
            }
        }
    }
    totals
}

/// Parsed form of `hvdb-bench run`'s arguments, separated from the
/// side-effecting run loop so flag handling is unit-testable.
struct RunArgs {
    names: Vec<String>,
    all: bool,
    opts: RunOpts,
    out_dir: String,
    /// `--trace-out PATH`: write a Chrome trace-event document of a
    /// trace+profile-enabled paper-geometry run after the scenarios.
    trace_out: Option<String>,
    /// `--trace-filter` category mask (default: all categories).
    trace_mask: u32,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        names: Vec::new(),
        all: false,
        opts: RunOpts::default(),
        out_dir: String::from("."),
        trace_out: None,
        trace_mask: hvdb_sim::trace::ALL,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => parsed.all = true,
            "--smoke" => parsed.opts.smoke = true,
            "--trace-out" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    return Err("--trace-out needs a path".to_string());
                };
                parsed.trace_out = Some(path.clone());
            }
            "--trace-filter" => {
                i += 1;
                let Some(spec) = args.get(i) else {
                    return Err(
                        "--trace-filter needs categories (election,soft-state,fault,flow|all)"
                            .to_string(),
                    );
                };
                parsed.trace_mask = hvdb_sim::trace::parse_mask(spec)?;
            }
            "--threads" => {
                i += 1;
                match args.get(i).and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => parsed.opts.threads = n,
                    _ => return Err("--threads needs a positive integer".to_string()),
                }
            }
            "--seeds" => {
                i += 1;
                let Some(list) = args.get(i) else {
                    return Err("--seeds needs a comma-separated list".to_string());
                };
                match list
                    .split(',')
                    .map(str::parse::<u64>)
                    .collect::<Result<Vec<_>, _>>()
                {
                    Ok(seeds) if !seeds.is_empty() => parsed.opts.seeds = Some(seeds),
                    _ => return Err("--seeds needs a comma-separated list of integers".to_string()),
                }
            }
            "--out-dir" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    return Err("--out-dir needs a path".to_string());
                };
                parsed.out_dir = dir.clone();
            }
            name => parsed.names.push(name.to_string()),
        }
        i += 1;
    }
    Ok(parsed)
}

fn run(args: &[String]) -> ExitCode {
    let RunArgs {
        names,
        all,
        opts,
        out_dir,
        trace_out,
        trace_mask,
    } = match parse_run_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let defs: Vec<ScenarioDef> = if all {
        registry()
    } else if names.is_empty() {
        eprintln!("no scenario named; use `run --all` or `list`");
        return ExitCode::FAILURE;
    } else {
        let mut defs = Vec::new();
        for name in &names {
            match find(name) {
                Some(def) => defs.push(def),
                None => {
                    eprintln!("unknown scenario: {name} (see `hvdb-bench list`)");
                    return ExitCode::FAILURE;
                }
            }
        }
        defs
    };
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create --out-dir {out_dir}: {e}");
        return ExitCode::FAILURE;
    }
    // Run every requested scenario even if one fails — a panic inside one
    // scenario (bad assertion, index bug) must not starve the rest of the
    // registry of coverage — and never exit 0 with a missing or invalid
    // report on disk: CI and the committed trajectory both trust the
    // files this loop leaves behind.
    struct Outcome {
        name: &'static str,
        rows: usize,
        secs: f64,
        error: Option<String>,
    }
    let mut outcomes: Vec<Outcome> = Vec::new();
    for def in &defs {
        let started = std::time::Instant::now();
        let report =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_scenario(def, &opts)));
        let secs = started.elapsed().as_secs_f64();
        let mut outcome = Outcome {
            name: def.name,
            rows: 0,
            secs,
            error: None,
        };
        match report {
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("panic with non-string payload");
                eprintln!("scenario {}: PANICKED: {msg}", def.name);
                outcome.error = Some(format!("panicked: {msg}"));
            }
            Ok(report) => {
                print_report(&report);
                outcome.rows = report.rows.len();
                let path = format!("{out_dir}/BENCH_{}.json", def.name);
                let json = format!("{}\n", report.to_json());
                if let Err(e) = validate_report_str(&json) {
                    eprintln!("scenario {}: invalid report: {e}", def.name);
                    outcome.error = Some(format!("invalid report: {e}"));
                } else if let Err(e) = std::fs::write(&path, &json) {
                    eprintln!("cannot write {path}: {e}");
                    outcome.error = Some(format!("cannot write {path}: {e}"));
                } else {
                    println!("wrote {path} ({} rows, {secs:.1}s)\n", report.rows.len());
                }
            }
        }
        outcomes.push(outcome);
    }
    // End-of-run summary: one line per scenario, failures last-but-loud.
    if defs.len() > 1 {
        println!("{:<18} {:>6} {:>8}  status", "scenario", "rows", "secs");
        for o in &outcomes {
            println!(
                "{:<18} {:>6} {:>8.1}  {}",
                o.name,
                o.rows,
                o.secs,
                o.error.as_deref().unwrap_or("ok")
            );
        }
    }
    let mut trace_failed = false;
    if let Some(path) = &trace_out {
        match write_chrome_trace(path, &opts, trace_mask) {
            Ok(events) => println!("wrote {path} ({events} trace events)"),
            Err(e) => {
                eprintln!("--trace-out: {e}");
                trace_failed = true;
            }
        }
    }
    let failures: Vec<&Outcome> = outcomes.iter().filter(|o| o.error.is_some()).collect();
    if failures.is_empty() && !trace_failed {
        ExitCode::SUCCESS
    } else if failures.is_empty() {
        ExitCode::FAILURE
    } else {
        eprintln!(
            "{} of {} scenario(s) failed: {}",
            failures.len(),
            outcomes.len(),
            failures
                .iter()
                .map(|o| o.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        ExitCode::FAILURE
    }
}

/// Runs the paper geometry (200 nodes, 800x800, the `seed` scenario's
/// HVDB recipe on its 64 shards) with the structured trace at
/// `mask` and detailed profiling enabled, and writes the combined Chrome
/// trace-event document to `path`. Smoke mode shrinks the run the same
/// way the scenarios do. Returns the number of trace events written.
fn write_chrome_trace(path: &str, opts: &RunOpts, mask: u32) -> Result<usize, String> {
    let w = Workload {
        packets_per_group: 8,
        threads: opts.threads,
        ..paper_workload()
    };
    let w = if opts.smoke { w.smoke() } else { w };
    let scenario = w.build();
    let (_, _, doc) = run_par_hvdb_traced(&scenario, mask);
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events.len(),
        _ => 0,
    };
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(events)
}

fn print_report(report: &ScenarioReport) {
    println!(
        "# {} ({}): {}{}",
        report.scenario,
        report.figure,
        report.summary,
        if report.smoke { " [smoke]" } else { "" }
    );
    let mut current_sweep = String::new();
    for row in &report.rows {
        if row.sweep != current_sweep {
            current_sweep = row.sweep.clone();
            println!("## {current_sweep}");
        }
        let metrics: Vec<String> = row
            .metrics
            .iter()
            .map(|(k, v)| {
                if v.fract() == 0.0 && v.abs() < 9e15 {
                    format!("{k}={v:.0}")
                } else {
                    format!("{k}={v:.3}")
                }
            })
            .collect();
        println!(
            "  {:<22} {:<12} {}",
            row.label,
            row.proto,
            metrics.join(" ")
        );
    }
    // Fault-plane counters, totalled across rows: visible on the console
    // at a glance instead of only inside the JSON metric maps.
    let totals = fault_totals(&report.rows);
    if !totals.is_empty() {
        let joined: Vec<String> = totals.iter().map(|(k, v)| format!("{k}={v:.0}")).collect();
        println!("## fault counters: {}", joined.join(" "));
    }
}

#[cfg(test)]
mod tests {
    use super::parse_run_args;

    fn argv(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn all_with_threads_parses_both_flags() {
        let parsed = parse_run_args(&argv(&["--all", "--threads", "4"])).unwrap();
        assert!(parsed.all);
        assert_eq!(parsed.opts.threads, 4);
        assert!(parsed.names.is_empty());
        assert!(!parsed.opts.smoke);
        assert_eq!(parsed.out_dir, ".");
    }

    #[test]
    fn scenario_names_and_options_coexist() {
        let parsed = parse_run_args(&argv(&[
            "scale",
            "--smoke",
            "--threads",
            "2",
            "--seeds",
            "7,8",
            "--out-dir",
            "/tmp/x",
        ]))
        .unwrap();
        assert_eq!(parsed.names, vec!["scale"]);
        assert!(!parsed.all);
        assert!(parsed.opts.smoke);
        assert_eq!(parsed.opts.threads, 2);
        assert_eq!(parsed.opts.seeds.as_deref(), Some(&[7, 8][..]));
        assert_eq!(parsed.out_dir, "/tmp/x");
    }

    #[test]
    fn bad_flag_values_are_rejected() {
        assert!(parse_run_args(&argv(&["--threads", "0"])).is_err());
        assert!(parse_run_args(&argv(&["--threads"])).is_err());
        assert!(parse_run_args(&argv(&["--seeds", ""])).is_err());
        assert!(parse_run_args(&argv(&["--out-dir"])).is_err());
    }

    #[test]
    fn trace_flags_parse() {
        let parsed = parse_run_args(&argv(&["seed", "--trace-out", "/tmp/t.json"])).unwrap();
        assert_eq!(parsed.trace_out.as_deref(), Some("/tmp/t.json"));
        assert_eq!(
            parsed.trace_mask,
            hvdb_sim::trace::ALL,
            "default: all categories"
        );
        let parsed = parse_run_args(&argv(&[
            "seed",
            "--trace-out",
            "t.json",
            "--trace-filter",
            "fault,election",
        ]))
        .unwrap();
        assert_eq!(
            parsed.trace_mask,
            hvdb_sim::trace::FAULT | hvdb_sim::trace::ELECTION
        );
        assert!(parse_run_args(&argv(&["--trace-out"])).is_err());
        assert!(parse_run_args(&argv(&["--trace-filter", "bogus"])).is_err());
        assert!(parse_run_args(&argv(&["--trace-filter"])).is_err());
    }
}
