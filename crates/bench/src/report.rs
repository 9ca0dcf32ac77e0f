//! Uniform experiment reports and their JSON serialization.
//!
//! Every scenario — declarative sweep or bespoke structural audit —
//! produces the same shape: a [`ScenarioReport`] holding [`Row`]s, each a
//! `(sweep, label, proto)` coordinate with a flat map of named metrics.
//! Reports serialize to `BENCH_<scenario>.json` through the small
//! [`Json`] value type below (hand-rolled because the workspace builds
//! offline; the emitted documents are plain standard JSON).

use std::fmt;

/// One measured point: a sweep coordinate, the protocol (or `"-"` for
/// structural rows), and named metric values.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Which sweep axis of the scenario this row belongs to (e.g.
    /// `"network-size"`).
    pub sweep: String,
    /// The coordinate on that axis (e.g. `"nodes=500"`).
    pub label: String,
    /// Protocol name, or `"-"` for protocol-independent rows.
    pub proto: String,
    /// Named metric values, in stable order.
    pub metrics: Vec<(String, f64)>,
}

impl Row {
    /// Builds a row.
    pub fn new(
        sweep: impl Into<String>,
        label: impl Into<String>,
        proto: impl Into<String>,
        metrics: Vec<(String, f64)>,
    ) -> Self {
        Row {
            sweep: sweep.into(),
            label: label.into(),
            proto: proto.into(),
            metrics,
        }
    }
}

/// A finished scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Registry name (`BENCH_<scenario>.json` stem).
    pub scenario: String,
    /// Paper figure / claim the scenario reproduces.
    pub figure: String,
    /// One-line description.
    pub summary: String,
    /// Whether this was a shrunk smoke run (numbers not meaningful).
    pub smoke: bool,
    /// Worker-thread count the run was invoked with (`--threads`, default
    /// 1). Recorded in every report so a wall-clock number can always be
    /// traced back to its parallelism; deterministic metrics are identical
    /// at every value.
    pub threads: usize,
    /// The scenario's declarative workload block — currently the
    /// serialized fault plan for scenarios that inject one
    /// ([`crate::scenario::fault_plan_json`]). `None` (and absent from
    /// the JSON document) for scenarios without scripted faults, keeping
    /// historical reports byte-stable.
    pub workload: Option<Json>,
    /// Optional sim-time metrics timeline: periodic snapshots (head
    /// census, cumulative delivery, backlog, memory) that make transient
    /// claims — e.g. "re-merge within 5 s of heal" — derivable from the
    /// report itself. Deterministic; absent from the JSON when `None`.
    pub timeline: Option<Json>,
    /// Optional wall-clock engine profile (parallel drain / serial
    /// commit / barrier phase times, per-lane busy time).
    /// **Non-deterministic**: excluded from golden and trajectory
    /// comparisons, which read only `rows`. Absent when `None`.
    pub profile: Option<Json>,
    /// The measurements.
    pub rows: Vec<Row>,
}

impl ScenarioReport {
    /// The report as a JSON document.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("scenario".into(), Json::Str(self.scenario.clone())),
            ("figure".into(), Json::Str(self.figure.clone())),
            ("summary".into(), Json::Str(self.summary.clone())),
            ("smoke".into(), Json::Bool(self.smoke)),
            ("threads".into(), Json::Num(self.threads as f64)),
        ];
        if let Some(w) = &self.workload {
            fields.push(("workload".into(), w.clone()));
        }
        if let Some(t) = &self.timeline {
            fields.push(("timeline".into(), t.clone()));
        }
        if let Some(p) = &self.profile {
            fields.push(("profile".into(), p.clone()));
        }
        fields.push((
            "rows".into(),
            Json::Arr(
                self.rows
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("sweep".into(), Json::Str(r.sweep.clone())),
                            ("label".into(), Json::Str(r.label.clone())),
                            ("proto".into(), Json::Str(r.proto.clone())),
                            (
                                "metrics".into(),
                                Json::Obj(
                                    r.metrics
                                        .iter()
                                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ));
        Json::Obj(fields)
    }
}

/// A JSON value (serialization only).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with stable key order.
    Obj(Vec<(String, Json)>),
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_indented(f, 0)
    }
}

impl Json {
    /// The value under `key`, if `self` is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number under `key`, if `self` is an object that has one.
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn write_indented(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    write!(f, "null")
                } else if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    return write!(f, "[]");
                }
                writeln!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    indent(f, depth + 1)?;
                    item.write_indented(f, depth + 1)?;
                    if i + 1 < items.len() {
                        write!(f, ",")?;
                    }
                    writeln!(f)?;
                }
                indent(f, depth)?;
                write!(f, "]")
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    return write!(f, "{{}}");
                }
                writeln!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    indent(f, depth + 1)?;
                    write_escaped(f, k)?;
                    write!(f, ": ")?;
                    v.write_indented(f, depth + 1)?;
                    if i + 1 < fields.len() {
                        write!(f, ",")?;
                    }
                    writeln!(f)?;
                }
                indent(f, depth)?;
                write!(f, "}}")
            }
        }
    }
}

fn indent(f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
    for _ in 0..depth {
        write!(f, "  ")?;
    }
    Ok(())
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(
            Json::Str("a\"b\\c\nd".into()).to_string(),
            "\"a\\\"b\\\\c\\nd\""
        );
    }

    #[test]
    fn report_shape() {
        let rep = ScenarioReport {
            scenario: "x".into(),
            figure: "Fig. 0".into(),
            summary: "s".into(),
            smoke: false,
            threads: 1,
            workload: None,
            timeline: None,
            profile: None,
            rows: vec![Row::new(
                "axis",
                "n=1",
                "hvdb",
                vec![("delivery".into(), 1.0)],
            )],
        };
        let s = rep.to_json().to_string();
        assert!(s.contains("\"scenario\": \"x\""));
        assert!(s.contains("\"threads\": 1"));
        assert!(s.contains("\"delivery\": 1"));
        assert!(
            !s.contains("\"workload\""),
            "absent workload keeps legacy reports byte-stable"
        );
        assert!(
            !s.contains("\"timeline\"") && !s.contains("\"profile\""),
            "absent observability blocks keep legacy reports byte-stable"
        );
        let with = ScenarioReport {
            workload: Some(Json::Obj(vec![("fault_plan".into(), Json::Arr(vec![]))])),
            timeline: Some(Json::Obj(vec![("interval_secs".into(), Json::Num(5.0))])),
            profile: Some(Json::Obj(vec![("windows".into(), Json::Num(10.0))])),
            ..rep
        };
        let s = with.to_json().to_string();
        assert!(s.contains("\"workload\""));
        assert!(s.contains("\"fault_plan\""));
        let w = s.find("\"workload\"").unwrap();
        let t = s.find("\"timeline\"").unwrap();
        let p = s.find("\"profile\"").unwrap();
        let r = s.find("\"rows\"").unwrap();
        assert!(w < t && t < p && p < r, "stable block order");
    }
}
