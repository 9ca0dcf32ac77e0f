//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- [options]
//!   --workload NAME   run one workload (default: all four, round-robin)
//!   --seed N          input seed (default 1); picks each workload's
//!                     block of instance seeds
//!   --reps N          minimum untraced passes per workload (default 3,
//!                     or 1 with --seconds); a pass runs every instance
//!   --seconds S       keep repeating each workload until its untraced
//!                     passes took S seconds
//!   --trace 0|1       0: end-to-end metrics only; 1: per-layer metrics
//!                     only (adds the traced pass); default: both
//!   --smoke           shrunk inputs, one pass (also in debug builds)
//! ```
//!
//! Human-readable lines start with `#`; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! several workloads each gets its own such line and the last line merges
//! them under `workload/metric` keys. The exit code is 0 only when every
//! run passed its checks.

use hvdb_benchmark::host;
use hvdb_benchmark::metrics::Metric;
use hvdb_benchmark::suite::{self, Emit, Outcome, Plan};
use hvdb_benchmark::workloads::{self, WORKLOADS};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: hvdb-benchmark [--workload NAME] [--seed N] [--reps N] [--seconds S] [--trace 0|1] [--smoke]"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Plan, String> {
    let mut plan = Plan {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        reps: 0,
        seconds: None,
        emit: Emit::Both,
        smoke: false,
    };
    let mut reps = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            plan.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let def = workloads::find(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?;
                plan.workloads = vec![def];
            }
            "--seed" => plan.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--reps" => {
                let n: usize = value.parse().map_err(|_| bad("expected an integer"))?;
                if n == 0 {
                    return Err(bad("expected at least 1"));
                }
                reps = Some(n);
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < S <= 3600"));
                }
                plan.seconds = Some(s);
            }
            "--trace" => {
                plan.emit = match value.as_str() {
                    "0" => Emit::EndToEnd,
                    "1" => Emit::PerLayer,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    plan.reps = reps.unwrap_or(if plan.smoke || plan.seconds.is_some() {
        1
    } else {
        3
    });
    Ok(plan)
}

fn num(v: f64) -> String {
    format!("{v}")
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` over `(key, metric)`.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &Metric)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, m)| {
            format!(
                "\"{k}\":{{\"value\":{},\"unit\":\"{}\"}}",
                num(m.median()),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn env_line(plan: &Plan, outcomes: &[Outcome], order: &[String]) -> String {
    let reps: Vec<String> = outcomes
        .iter()
        .map(|o| format!("\"{}\":{}", o.def.name, o.passes.len()))
        .collect();
    let quoted = |v: &[String]| {
        v.iter()
            .map(|s| format!("\"{}\"", escape(s)))
            .collect::<Vec<_>>()
            .join(",")
    };
    let flagged: Vec<String> = outcomes.iter().flat_map(|o| o.flagged.clone()).collect();
    format!(
        "{{\"hardware_threads\":{},\"pool_threads\":{},\"peak_rss_mb\":{},\"rustc\":\"{}\",\"commit\":\"{}\",\"debug_assertions\":{},\"seed\":{},\"smoke\":{},\"passes\":{{{}}},\"run_order\":[{}],\"flagged_runs\":[{}]}}",
        host::hardware_threads(),
        rayon::pool_threads(),
        host::peak_rss_mb(),
        escape(env!("HVDB_BENCH_RUSTC")),
        escape(env!("HVDB_BENCH_COMMIT")),
        cfg!(debug_assertions),
        plan.seed,
        plan.smoke,
        reps.join(","),
        quoted(order),
        quoted(&flagged),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = match parse(&args) {
        Ok(p) => p,
        Err(e) => return usage(&e),
    };
    if cfg!(debug_assertions) && !plan.smoke {
        eprintln!("error: refusing to report timings from a build with debug assertions; build with --release");
        return ExitCode::from(2);
    }

    let mut order = Vec::new();
    let outcomes = suite::execute(&plan, &mut order);
    println!("# env {}", env_line(&plan, &outcomes, &order));
    for f in outcomes.iter().flat_map(|o| &o.flagged) {
        eprintln!("warning: {f}");
    }

    let mut merged: Vec<(String, Metric)> = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    for o in &outcomes {
        let mut ms = o.metrics(plan.emit);
        let mut failures = o.failures.clone();
        for m in &mut ms {
            if m.samples.iter().any(|v| !v.is_finite()) {
                failures.push(format!("metric {} is not finite", m.name));
                m.samples.retain(|v| v.is_finite());
            }
        }
        if ms.is_empty() {
            failures.push("no run completed".into());
        }
        let ok = failures.is_empty();
        println!(
            "# workload {} passes={} traced={} digest={} correct={ok}",
            o.def.name,
            o.passes.len(),
            o.traced.is_some(),
            o.digest.map_or("none".into(), |d| format!("{d:#018x}")),
        );
        for f in &failures {
            println!("#   FAIL {f}");
            eprintln!("error: {}: {f}", o.def.name);
        }
        for m in &ms {
            println!(
                "#   {:<32} median={:<14} min={:<14} max={:<14} n={} {}",
                m.name,
                num(m.median()),
                num(m.min()),
                num(m.max()),
                m.samples.len(),
                m.unit
            );
        }
        let keyed: Vec<(String, &Metric)> = ms.iter().map(|m| (m.name.clone(), m)).collect();
        let failed_here = if ok { o.failed } else { o.failed.max(1) };
        let attempted_here = o.attempted.max(failed_here).max(1);
        if outcomes.len() > 1 {
            println!("{}", result_line(ok, attempted_here, failed_here, &keyed));
        }
        attempted += attempted_here;
        failed += failed_here;
        correct &= ok;
        merged.extend(
            ms.into_iter()
                .map(|m| (format!("{}/{}", o.def.name, m.name), m)),
        );
    }
    let keyed: Vec<(String, &Metric)> = if outcomes.len() > 1 {
        merged.iter().map(|(k, m)| (k.clone(), m)).collect()
    } else {
        merged.iter().map(|(_, m)| (m.name.clone(), m)).collect()
    };
    println!("{}", result_line(correct, attempted, failed, &keyed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
