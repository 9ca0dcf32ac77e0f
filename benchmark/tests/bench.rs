//! Benchmark self-tests: the metric names match `BENCHMARK.json`, and the
//! digest the correctness gate compares is invariant under boot stepping
//! and the timing wrapper but sensitive to the seed.

use hvdb_benchmark::run::{self, RunSpec};
use hvdb_benchmark::timed::HandlerClock;
use hvdb_benchmark::workloads::{find, WORKLOADS};
use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

/// Just enough JSON for `BENCHMARK.json` and the benchmark's result lines.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut at = 0;
        let v = value(bytes, &mut at);
        skip_ws(bytes, &mut at);
        assert_eq!(at, bytes.len(), "trailing input after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }
}

fn skip_ws(b: &[u8], at: &mut usize) {
    while *at < b.len() && b[*at].is_ascii_whitespace() {
        *at += 1;
    }
}

fn value(b: &[u8], at: &mut usize) -> Json {
    skip_ws(b, at);
    match b[*at] {
        b'{' => {
            *at += 1;
            let mut fields = Vec::new();
            loop {
                skip_ws(b, at);
                if b[*at] == b'}' {
                    *at += 1;
                    return Json::Obj(fields);
                }
                let Json::Str(k) = value(b, at) else {
                    panic!("object key is not a string")
                };
                skip_ws(b, at);
                assert_eq!(b[*at], b':');
                *at += 1;
                fields.push((k, value(b, at)));
                skip_ws(b, at);
                if b[*at] == b',' {
                    *at += 1;
                }
            }
        }
        b'[' => {
            *at += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(b, at);
                if b[*at] == b']' {
                    *at += 1;
                    return Json::Arr(items);
                }
                items.push(value(b, at));
                skip_ws(b, at);
                if b[*at] == b',' {
                    *at += 1;
                }
            }
        }
        b'"' => {
            *at += 1;
            let start = *at;
            while b[*at] != b'"' {
                *at += if b[*at] == b'\\' { 2 } else { 1 };
            }
            *at += 1;
            Json::Str(String::from_utf8(b[start..*at - 1].to_vec()).expect("utf-8"))
        }
        b't' | b'f' | b'n' => {
            let word = [&b"true"[..], b"false", b"null"]
                .into_iter()
                .find(|w| b[*at..].starts_with(w))
                .expect("literal");
            *at += word.len();
            match word {
                b"true" => Json::Bool(true),
                b"false" => Json::Bool(false),
                _ => Json::Null,
            }
        }
        _ => {
            let start = *at;
            while *at < b.len() && b"+-.eE0123456789".contains(&b[*at]) {
                *at += 1;
            }
            let s = std::str::from_utf8(&b[start..*at]).expect("utf-8");
            Json::Num(s.parse().unwrap_or_else(|_| panic!("bad number {s:?}")))
        }
    }
}

/// `name -> unit` of one metric list in `BENCHMARK.json`.
fn declared(key: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"));
    let Json::Arr(items) = doc.get(key) else {
        panic!("{key} is not an array")
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// Runs the benchmark binary and returns its result lines (every JSON line
/// of standard output).
fn results(args: &[&str]) -> Vec<Json> {
    let out = Command::new(env!("CARGO_BIN_EXE_hvdb-benchmark"))
        .args(args)
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "benchmark failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    assert!(last.starts_with('{'), "last line is not the result: {last}");
    stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(Json::parse)
        .collect()
}

/// `name -> unit` of a result line's metrics.
fn emitted(result: &Json) -> BTreeMap<String, String> {
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                matches!(m.get("value"), Json::Num(_)),
                "{name} has no value"
            );
            (name.clone(), m.get("unit").str().to_string())
        })
        .collect()
}

#[test]
fn smoke_emits_exactly_the_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end
        .values()
        .chain(per_layer.values())
        .all(|u| !u.is_empty()));

    // All workloads, both sets: one result line per workload, then the
    // merged line.
    let lines = results(&["--smoke"]);
    assert_eq!(lines.len(), WORKLOADS.len() + 1);
    let mut both = end_to_end.clone();
    both.extend(per_layer.clone());
    for line in &lines[..WORKLOADS.len()] {
        assert_eq!(line.get("correct"), &Json::Bool(true));
        assert_eq!(emitted(line), both);
    }

    // The driver's form: one workload, one set per `--trace` value.
    let w = WORKLOADS[0].name;
    for (trace, want) in [("0", &end_to_end), ("1", &per_layer)] {
        let lines = results(&["--smoke", "--workload", w, "--trace", trace, "--seed", "3"]);
        assert_eq!(lines.len(), 1);
        assert_eq!(&emitted(&lines[0]), want, "--trace {trace}");
    }

    let doc = Json::parse(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("read BENCHMARK.json"),
    );
    let Json::Arr(ws) = doc.get("workloads") else {
        panic!("workloads is not an array")
    };
    let names: Vec<&str> = ws.iter().map(|w| w.get("name").str()).collect();
    assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
}

fn smoke_spec<'a>(seed: u64) -> RunSpec<'a> {
    RunSpec {
        seed,
        smoke: true,
        threads: None,
        clock: None,
        boot: true,
        setup_only: false,
    }
}

#[test]
fn boot_stepping_leaves_the_digest_unchanged() {
    for def in &WORKLOADS {
        let stepped = run::run(def, smoke_spec(1));
        let straight = run::run(
            def,
            RunSpec {
                boot: false,
                ..smoke_spec(1)
            },
        );
        assert!(
            stepped.check_failures.is_empty(),
            "{:?}",
            stepped.check_failures
        );
        assert_eq!(stepped.model.digest, straight.model.digest, "{}", def.name);
    }
}

#[test]
fn timing_wrapper_and_thread_count_leave_the_digest_unchanged() {
    let def = find("scale-20000-t2").expect("workload");
    let plain = run::run(def, smoke_spec(1));
    let clock = HandlerClock::new(Instant::now());
    let timed = run::run(
        def,
        RunSpec {
            threads: Some(1),
            clock: Some(&clock),
            ..smoke_spec(1)
        },
    );
    assert_eq!(plain.model.digest, timed.model.digest);
    let handlers = clock.snapshot();
    assert!(handlers.msg.iter().map(|t| t.calls).sum::<u64>() > 0);
    assert!(handlers.timer.calls > 0);
}

#[test]
fn a_different_seed_changes_the_digest() {
    for def in &WORKLOADS {
        let a = run::run(def, smoke_spec(1));
        let b = run::run(def, smoke_spec(2));
        assert_ne!(a.model.digest, b.model.digest, "{}", def.name);
    }
}
