//! Strict validation of `BENCH_<scenario>.json` reports, plus the
//! interpreter for the regression gates CI enforces on them.
//!
//! The report writer is hand-rolled (offline workspace), so nothing may
//! trust it blindly: [`parse_strict`] is a strict recursive-descent JSON
//! parser (no trailing garbage, no bad escapes, no bare control chars, no
//! repeated keys, bounded nesting), and [`validate_report_str`] layers the
//! exact report schema on top — the six top-level fields with their
//! types, every row fully typed at its own coordinate, finite metrics
//! only, no unknown keys, and a timeline's re-merge annotation re-derived
//! from its own sample series. The CLI (`hvdb-bench validate`, and
//! `run`'s post-write check) and the test suite share this code, so a
//! malformed report can neither land in CI artifacts nor be committed
//! unnoticed.
//!
//! The gates are data: every scenario declares its [`Gate`]s on
//! [`ScenarioDef::gates`](crate::ScenarioDef::gates), and [`check_gates`]
//! is the one interpreter behind `validate`, `explain` and `list --json`.
//! [`check_trajectory`] is the one cross-report comparison: a report's
//! [`deterministic_view`] must replay exactly.

use crate::report::{Json, Row};
use std::fmt;

/// Row metrics read from the wall clock or the host, which no two runs
/// share. Only `perf` rows carry them.
pub const WALL_CLOCK_METRICS: [&str; 5] = [
    "events_per_s",
    "sim_sec_per_wall_sec",
    "wall_ms",
    "lane_imbalance",
    "hardware_threads",
];

/// Deepest array/object nesting [`parse_strict`] accepts. Committed
/// reports nest at most 6 levels; the cap keeps a hostile file from
/// overflowing the parser's stack.
const MAX_DEPTH: usize = 64;

/// Parses `input` as one strict JSON document (the whole string, no
/// trailing garbage) into a [`Json`] value.
pub fn parse_strict(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p
        .value()
        .map_err(|e| format!("invalid JSON at byte {}: {e}", p.pos))?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!(
            "trailing garbage after JSON document at byte {}",
            p.pos
        ));
    }
    Ok(v)
}

/// Validates `input` as a complete scenario report: strict JSON plus the
/// exact report schema. Returns the parsed document for further checks.
pub fn validate_report_str(input: &str) -> Result<Json, String> {
    let doc = parse_strict(input)?;
    validate_report(&doc)?;
    Ok(doc)
}

/// A schema error's echo of the offending value, cut short: a hostile
/// report must not turn one error line into kilobytes.
fn brief(v: &Json) -> String {
    let s = format!("{v:?}");
    match s.char_indices().nth(60) {
        Some((cut, _)) => format!("{}...", &s[..cut]),
        None => s,
    }
}

fn obj_fields(v: &Json) -> Result<&[(String, Json)], String> {
    match v {
        Json::Obj(fields) => Ok(fields),
        other => Err(format!("expected object, got {}", brief(other))),
    }
}

fn field<'a>(fields: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {key:?}"))
}

fn as_str<'a>(v: &'a Json, what: &str) -> Result<&'a str, String> {
    match v {
        Json::Str(s) => Ok(s),
        other => Err(format!("{what}: expected string, got {}", brief(other))),
    }
}

/// Reads `key` as a number accepted by `ok`; the error names `want`.
fn num(
    fields: &[(String, Json)],
    key: &str,
    want: &str,
    ok: fn(f64) -> bool,
) -> Result<f64, String> {
    match field(fields, key)? {
        Json::Num(n) if ok(*n) => Ok(*n),
        other => Err(format!("{key}: expected {want}, got {}", brief(other))),
    }
}

/// Schema check of a parsed report document. Strict: every field typed,
/// no unknown top-level or row keys, rows non-empty with distinct
/// `(sweep, label, proto)` coordinates, metrics finite.
pub fn validate_report(doc: &Json) -> Result<(), String> {
    let fields = obj_fields(doc)?;
    // "workload", "timeline" and "profile" are the optional keys:
    // scenarios with a scripted fault plan serialize the first, the
    // observability scenarios add the latter two; everything else omits
    // them, keeping historical reports byte-stable.
    const TOP: [&str; 9] = [
        "scenario", "figure", "summary", "smoke", "threads", "workload", "timeline", "profile",
        "rows",
    ];
    for (k, _) in fields {
        if !TOP.contains(&k.as_str()) {
            return Err(format!("unknown top-level field {k:?}"));
        }
    }
    if let Some(v) = doc.get("workload") {
        if !matches!(v, Json::Obj(_)) {
            return Err(format!("workload: expected object, got {}", brief(v)));
        }
    }
    if let Some(v) = doc.get("timeline") {
        validate_timeline(v).map_err(|e| format!("timeline: {e}"))?;
    }
    if let Some(v) = doc.get("profile") {
        validate_profile(v).map_err(|e| format!("profile: {e}"))?;
    }
    let scenario = as_str(field(fields, "scenario")?, "scenario")?;
    if scenario.is_empty() {
        return Err("empty scenario name".into());
    }
    as_str(field(fields, "figure")?, "figure")?;
    as_str(field(fields, "summary")?, "summary")?;
    is_smoke(doc)?;
    num(fields, "threads", "a positive integer", |n| {
        n >= 1.0 && n.fract() == 0.0
    })?;
    let rows = match field(fields, "rows")? {
        Json::Arr(rows) => rows,
        other => return Err(format!("rows: expected array, got {}", brief(other))),
    };
    if rows.is_empty() {
        return Err(format!("scenario {scenario:?} has no rows"));
    }
    for (i, row) in rows.iter().enumerate() {
        validate_row(row).map_err(|e| format!("row {i}: {e}"))?;
        // Gates and the trajectory comparison read the first row at a
        // coordinate; a second one would go unchecked.
        let same = |r: &Json| {
            ["sweep", "label", "proto"]
                .iter()
                .all(|k| r.get(k) == row.get(k))
        };
        if let Some(j) = rows[..i].iter().position(same) {
            return Err(format!("row {i}: same sweep, label and proto as row {j}"));
        }
    }
    Ok(())
}

fn validate_row(row: &Json) -> Result<(), String> {
    let fields = obj_fields(row)?;
    const KEYS: [&str; 4] = ["sweep", "label", "proto", "metrics"];
    for (k, _) in fields {
        if !KEYS.contains(&k.as_str()) {
            return Err(format!("unknown row field {k:?}"));
        }
    }
    for key in ["sweep", "label", "proto"] {
        let s = as_str(field(fields, key)?, key)?;
        if s.is_empty() {
            return Err(format!("empty {key}"));
        }
    }
    let metrics = obj_fields(field(fields, "metrics")?).map_err(|e| format!("metrics: {e}"))?;
    if metrics.is_empty() {
        return Err("row has no metrics".into());
    }
    for (name, v) in metrics {
        if !matches!(v, Json::Num(n) if n.is_finite()) {
            return Err(format!(
                "metric {name:?}: expected finite number, got {}",
                brief(v)
            ));
        }
    }
    Ok(())
}

/// Structural check of a report's optional `timeline` block: a positive
/// sampling cadence and a non-empty sample series with strictly
/// increasing `t_secs`. Annotation keys between `interval_secs` and
/// `samples` are scenario-specific and pass through unchecked — except
/// `remerge_secs_probe`, which must agree with the series ([`check_remerge`]).
fn validate_timeline(v: &Json) -> Result<(), String> {
    let fields = obj_fields(v)?;
    num(fields, "interval_secs", "positive number", |n| {
        n > 0.0 && n.is_finite()
    })?;
    let samples = match field(fields, "samples")? {
        Json::Arr(s) => s,
        other => return Err(format!("samples: expected array, got {}", brief(other))),
    };
    if samples.is_empty() {
        return Err("empty sample series".into());
    }
    let mut series = Vec::with_capacity(samples.len()); // (t_secs, heads)
    let mut prev = f64::NEG_INFINITY;
    for (i, s) in samples.iter().enumerate() {
        let at = |e: String| format!("sample {i}: {e}");
        let sf = obj_fields(s).map_err(at)?;
        let t = num(sf, "t_secs", "number", f64::is_finite).map_err(at)?;
        if t <= prev {
            return Err(format!(
                "sample {i}: t_secs {t} not increasing (prev {prev})"
            ));
        }
        prev = t;
        for key in ["delivery", "control_frames", "memory_per_node_bytes"] {
            num(sf, key, "finite number", f64::is_finite).map_err(at)?;
        }
        series.push((
            t,
            num(sf, "heads", "finite number", f64::is_finite).map_err(at)?,
        ));
    }
    if v.get("remerge_secs_probe").is_some() {
        check_remerge(fields, &series)?;
    }
    Ok(())
}

/// Cross-checks a partition timeline against its probe-loop measurement:
/// the re-merge instant *derived from the sample series* (first sample
/// after `heal_at_secs` whose head census is at or below `heads_target`)
/// must equal the `remerge_secs_probe` annotation the run measured
/// directly.
///
/// This is the point of the timeline plane: a transient claim like
/// "re-merge in 5 s" stops being a number the harness asserts and starts
/// being a curve anyone can re-derive from the committed report.
fn check_remerge(fields: &[(String, Json)], series: &[(f64, f64)]) -> Result<(), String> {
    let any = |_: f64| true;
    let heal_at = num(fields, "heal_at_secs", "number", any)?;
    let target = num(fields, "heads_target", "number", any)?;
    let measured = num(fields, "remerge_secs_probe", "number", any)?;
    let Some(&(t, _)) = series
        .iter()
        .find(|&&(t, heads)| t > heal_at && heads <= target)
    else {
        return Err(format!(
            "timeline never returns to heads_target {target} after heal_at {heal_at}s \
             (probe measured {measured}s)"
        ));
    };
    let derived = t - heal_at;
    // The probe loop and the sampler observe the same stepped run at the
    // same cadence, so the two numbers must agree exactly (both are
    // probe-multiples; compare with a float hair of slack).
    if (derived - measured).abs() > 1e-9 {
        return Err(format!(
            "re-merge derived from timeline ({derived}s) disagrees with probe measurement \
             ({measured}s)"
        ));
    }
    Ok(())
}

/// Structural check of a report's optional `profile` block. Values are
/// wall-clock derived and machine-dependent, so only shape and
/// non-negativity are checked — never magnitudes.
fn validate_profile(v: &Json) -> Result<(), String> {
    let fields = obj_fields(v)?;
    let non_negative = |n: f64| n >= 0.0 && n.is_finite();
    for key in ["windows", "drain_secs", "commit_secs", "barrier_secs"] {
        num(fields, key, "non-negative number", non_negative)?;
    }
    match field(fields, "lane_busy_secs")? {
        Json::Arr(lanes) => {
            for lane in lanes {
                match lane {
                    Json::Num(n) if non_negative(*n) => {}
                    other => {
                        return Err(format!(
                            "lane_busy_secs: expected non-negative number, got {}",
                            brief(other)
                        ))
                    }
                }
            }
        }
        other => {
            return Err(format!(
                "lane_busy_secs: expected array, got {}",
                brief(other)
            ))
        }
    }
    Ok(())
}

fn metric_in(row: &Row, metric: &str) -> Option<f64> {
    row.metrics
        .iter()
        .find(|(k, _)| k == metric)
        .map(|(_, v)| *v)
}

/// Whether a report document is a smoke run.
fn is_smoke(doc: &Json) -> Result<bool, String> {
    match field(obj_fields(doc)?, "smoke")? {
        Json::Bool(b) => Ok(*b),
        other => Err(format!("smoke: expected bool, got {}", brief(other))),
    }
}

/// The rows of a report document.
pub fn report_rows(doc: &Json) -> Result<Vec<Row>, String> {
    let Json::Arr(rows) = field(obj_fields(doc)?, "rows")? else {
        return Err("rows: expected array".into());
    };
    let mut out = Vec::new();
    for row in rows {
        let rf = obj_fields(row)?;
        let get = |key: &str| as_str(field(rf, key)?, key);
        let metrics = obj_fields(field(rf, "metrics")?)?
            .iter()
            .filter_map(|(k, v)| match v {
                Json::Num(n) => Some((k.clone(), *n)),
                _ => None,
            })
            .collect();
        out.push(Row::new(
            get("sweep")?,
            get("label")?,
            get("proto")?,
            metrics,
        ));
    }
    Ok(out)
}

/// One declared CI gate: the rows it reads, the metric, one [`Check`],
/// and what a smoke report does with it ([`Smoke`]). Declared as
/// `Rows::new(sweep, protos, label).check(metric, check, smoke)`.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Which rows.
    pub rows: Rows,
    /// The metric checked in every selected row.
    pub metric: &'static str,
    /// What must hold.
    pub check: Check,
    /// What a smoke report does.
    pub smoke: Smoke,
}

/// A gate's row selector: one sweep, its protocols and a [`Label`] rule.
#[derive(Debug, Clone, Copy)]
pub struct Rows {
    /// The sweep axis ([`Row::sweep`]).
    pub sweep: &'static str,
    /// Protocols, reference first (see [`Check::Ratio`] and
    /// [`Check::Knee`]); every one must have a selected row. Empty means
    /// any protocol.
    pub protos: &'static [&'static str],
    /// Which labels of the sweep.
    pub label: Label,
}

/// Which labels a [`Rows`] selector reads. The numbered rules read
/// labels of the form `key=<n>` and skip labels whose `n` is not a
/// finite number.
#[derive(Debug, Clone, Copy)]
pub enum Label {
    /// Exactly this label.
    Is(&'static str),
    /// Every `key=<n>` with `n` at least the given value.
    AtLeast(&'static str, f64),
    /// The `key=<base>` baseline and every larger `key=<n>`; the baseline
    /// and at least one larger label must be present.
    Baseline(&'static str, f64),
    /// Every label except this reference, which must be present.
    Except(&'static str),
}

/// What a [`Gate`] asserts over its selected rows, which are ordered by
/// protocol as listed, then by label number.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// Every row's metric is at least this.
    Floor(f64),
    /// Every row's metric is at most this.
    Ceiling(f64),
    /// Every row's metric lies in `[lo, hi]`.
    Band(f64, f64),
    /// `Ratio(floor, parallel)`: the last row's metric over the first's
    /// is at least `floor`; a first row at or below zero fails. With
    /// `parallel = Some(n)` the floor binds only when the last row's label
    /// number and its `hardware_threads` metric both reach `n` — threads
    /// timesliced onto fewer cores measure scheduler noise, not speedup.
    Ratio(f64, Option<f64>),
    /// Every row's metric is exactly equal.
    Equal,
    /// `Knee(floor, ceiling_metric, ceiling)`: a protocol's knee is the
    /// largest label number up to which *every* row keeps the metric at
    /// or above `floor` and `ceiling_metric` at or below `ceiling` (prefix
    /// semantics: a fluke recovery past saturation cannot move it). The
    /// last listed protocol's knee must be positive and strictly above
    /// every other's. A selected row missing either metric fails the gate.
    Knee(f64, &'static str, f64),
}

/// What a [`Gate`] does with a smoke report (shrunk inputs).
#[derive(Debug, Clone, Copy)]
pub enum Smoke {
    /// Fail: smoke numbers are meaningless for this check.
    Refuse,
    /// Pass without checking.
    Skip,
    /// Check as declared.
    Apply,
    /// Check against this lower floor instead.
    Lower(f64),
}

impl Rows {
    /// A row selector.
    pub const fn new(sweep: &'static str, protos: &'static [&'static str], label: Label) -> Self {
        Rows {
            sweep,
            protos,
            label,
        }
    }

    /// The gate checking `metric` in these rows.
    pub const fn check(self, metric: &'static str, check: Check, smoke: Smoke) -> Gate {
        Gate {
            rows: self,
            metric,
            check,
            smoke,
        }
    }

    /// The selected rows with their label numbers (0 for the exact-label
    /// rules), in check order. Fails when the rule's rows are missing — a
    /// gate that cannot find its points must not wave the report through.
    pub fn select<'r>(&self, rows: &'r [Row]) -> Result<Vec<(f64, &'r Row)>, String> {
        let order = |r: &Row| self.protos.iter().position(|p| *p == r.proto);
        let number = |r: &Row| match self.label {
            Label::Is(_) | Label::Except(_) => Some(0.0),
            Label::AtLeast(key, _) | Label::Baseline(key, _) => r
                .label
                .strip_prefix(key)?
                .strip_prefix('=')?
                .parse::<f64>()
                .ok()
                .filter(|n| n.is_finite()),
        };
        let mut sel: Vec<(f64, &Row)> = rows
            .iter()
            .filter(|r| r.sweep == self.sweep && (self.protos.is_empty() || order(r).is_some()))
            .filter_map(|r| Some((number(r)?, r)))
            .collect();
        match self.label {
            Label::Is(label) => sel.retain(|(_, r)| r.label == label),
            Label::AtLeast(_, min) => sel.retain(|&(n, _)| n >= min),
            Label::Baseline(key, base) => {
                sel.retain(|&(n, _)| n >= base);
                if !sel.iter().any(|&(n, _)| n == base) || sel.len() < 2 {
                    return Err(format!(
                        "needs the {key}={base} baseline row and a larger one, found {}",
                        sel.len()
                    ));
                }
            }
            Label::Except(reference) => {
                if !sel.iter().any(|(_, r)| r.label == reference) {
                    return Err(format!("no {reference} reference row"));
                }
                sel.retain(|(_, r)| r.label != reference);
            }
        }
        sel.sort_by(|a, b| order(a.1).cmp(&order(b.1)).then(a.0.total_cmp(&b.0)));
        if let Some(p) = self
            .protos
            .iter()
            .find(|p| !sel.iter().any(|(_, r)| r.proto == **p))
        {
            return Err(format!("no {p} row"));
        }
        if sel.is_empty() {
            return Err("no row".into());
        }
        Ok(sel)
    }
}

impl Gate {
    /// Every metric the gate reads.
    pub fn metrics(&self) -> Vec<&'static str> {
        match self.check {
            Check::Ratio(_, Some(_)) => vec![self.metric, "hardware_threads"],
            Check::Knee(_, other, _) => vec![self.metric, other],
            _ => vec![self.metric],
        }
    }

    /// Evaluates the gate over a report's rows: `Ok` with what was
    /// measured, or `Err` with why it fails.
    fn eval(&self, rows: &[Row], smoke: bool) -> Result<String, String> {
        let mut check = self.check;
        if smoke {
            match self.smoke {
                Smoke::Refuse => {
                    return Err(
                        "needs a full run, not --smoke (smoke numbers are meaningless)".into(),
                    )
                }
                Smoke::Skip => return Ok("skipped on a smoke report".into()),
                Smoke::Apply => {}
                Smoke::Lower(floor) => {
                    if let Check::Floor(f) | Check::Ratio(f, _) = &mut check {
                        *f = floor;
                    }
                }
            }
        }
        let sel = self.rows.select(rows)?;
        let at = |r: &Row| format!("{}/{}", r.label, r.proto);
        let value = |r: &Row, metric: &str| {
            metric_in(r, metric).ok_or_else(|| format!("{} has no {metric} metric", at(r)))
        };
        let (lo, hi) = match check {
            Check::Floor(lo) => (lo, f64::INFINITY),
            Check::Ceiling(hi) => (f64::NEG_INFINITY, hi),
            Check::Band(lo, hi) => (lo, hi),
            Check::Ratio(floor, parallel) => {
                if sel.len() < 2 {
                    return Err("needs two rows for a ratio".into());
                }
                let (&(_, first), &(last_n, last)) = (&sel[0], &sel[sel.len() - 1]);
                let (den, num) = (value(first, self.metric)?, value(last, self.metric)?);
                if den <= 0.0 {
                    return Err(format!("{} is zero: measurement broken", at(first)));
                }
                let ratio = num / den;
                let measured = format!("{} over {} is {ratio:.2}x", at(last), at(first));
                if let Some(n) = parallel {
                    if last_n < n || value(last, "hardware_threads")? < n {
                        let hw = metric_in(last, "hardware_threads")
                            .map_or("unrecorded".into(), |hw| hw.to_string());
                        return Ok(format!(
                            "{measured}; the {floor}x floor is waived: threads={last_n} ran on \
                             {hw} hardware threads (the floor needs {n} of each)"
                        ));
                    }
                }
                return if ratio < floor {
                    Err(format!("{measured}, below the {floor}x floor"))
                } else {
                    Ok(format!("{measured} >= {floor}x"))
                };
            }
            Check::Equal => {
                let want = value(sel[0].1, self.metric)?;
                let mut diverged = Vec::new();
                for &(_, r) in &sel[1..] {
                    let v = value(r, self.metric)?;
                    if v != want {
                        diverged.push(format!("{} has {v}", at(r)));
                    }
                }
                return if diverged.is_empty() {
                    Ok(format!("{want} at all {} rows", sel.len()))
                } else {
                    Err(format!(
                        "diverged from {} ({want}): {}",
                        at(sel[0].1),
                        diverged.join(", ")
                    ))
                };
            }
            Check::Knee(floor, other, ceiling) => {
                let mut knees = Vec::new();
                for &proto in self.rows.protos {
                    let pts = sel
                        .iter()
                        .filter(|(_, r)| r.proto == proto)
                        .map(|&(n, r)| Ok((n, value(r, self.metric)?, value(r, other)?)))
                        .collect::<Result<Vec<(f64, f64, f64)>, String>>()?;
                    let knee = pts
                        .iter()
                        .take_while(|&&(_, m, o)| m >= floor && o <= ceiling)
                        .last()
                        .map_or(0.0, |p| p.0);
                    knees.push((proto, knee));
                }
                let Some((top, knee)) = knees.pop() else {
                    return Err("a knee needs protocols".into());
                };
                if knee <= 0.0 {
                    return Err(format!("{top} fails the knee rule at its lowest point"));
                }
                if let Some((p, k)) = knees.iter().find(|&&(_, k)| knee <= k) {
                    return Err(format!(
                        "{top} sustains {knee} but {p} sustains {k}: it must out-sustain every baseline strictly"
                    ));
                }
                let others: Vec<String> = knees.iter().map(|(p, k)| format!("{p} {k}")).collect();
                return Ok(format!("{top} knee {knee} above {}", others.join(", ")));
            }
        };
        let mut seen = Vec::new();
        let mut outside = Vec::new();
        for &(_, r) in &sel {
            let v = value(r, self.metric)?;
            let note = format!("{v:.3} at {}", at(r));
            if (lo..=hi).contains(&v) {
                seen.push(note);
            } else {
                outside.push(note);
            }
        }
        if outside.is_empty() {
            Ok(seen.join(", "))
        } else {
            Err(format!("got {}", outside.join(", ")))
        }
    }
}

/// Evaluates `gates` against a schema-valid report: one entry per gate,
/// `Ok` with what was measured or `Err` with why it fails, each prefixed
/// by the gate. Every gate runs, so a failing report lists all of its
/// broken gates.
pub fn check_gates(doc: &Json, gates: &[Gate]) -> Vec<Result<String, String>> {
    let report = is_smoke(doc).and_then(|smoke| Ok((smoke, report_rows(doc)?)));
    gates
        .iter()
        .map(|gate| {
            let (smoke, rows) = report.as_ref().map_err(|e| format!("{gate}: {e}"))?;
            gate.eval(rows, *smoke)
                .map(|ok| format!("{gate}: {ok}"))
                .map_err(|e| format!("{gate}: {e}"))
        })
        .collect()
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} ", self.rows, self.metric)?;
        match self.check {
            Check::Floor(lo) => write!(f, ">= {lo}"),
            Check::Ceiling(hi) => write!(f, "<= {hi}"),
            Check::Band(lo, hi) => write!(f, "in [{lo}, {hi}]"),
            Check::Ratio(floor, None) => write!(f, "last/first >= {floor}"),
            Check::Ratio(floor, Some(n)) => {
                write!(f, "last/first >= {floor} on >= {n} hardware threads")
            }
            Check::Equal => write!(f, "equal"),
            Check::Knee(lo, other, hi) => {
                write!(f, ">= {lo} and {other} <= {hi}: last knee highest")
            }
        }
    }
}

impl fmt::Display for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/", self.sweep)?;
        match self.label {
            Label::Is(label) => write!(f, "{label}"),
            Label::AtLeast(key, n) => write!(f, "{key}>={n}"),
            Label::Baseline(key, n) => write!(f, "{key}={n}.."),
            Label::Except(label) => write!(f, "all-but-{label}"),
        }?;
        match self.protos {
            [] => write!(f, "/*"),
            protos => write!(f, "/{}", protos.join(",")),
        }
    }
}

/// A report's deterministic content: `doc` without its `profile` block,
/// its top-level `threads` and every row's [`WALL_CLOCK_METRICS`].
/// `threads` is the lane count the run was invoked with; rows are
/// identical at every value. Everything kept replays exactly from
/// `(config, seed)`: the header strings, `smoke`, every other row metric,
/// `workload` and `timeline`. [`check_trajectory`] and the smoke golden
/// compare this view.
pub fn deterministic_view(doc: &Json) -> Json {
    let mut view = doc.clone();
    if let Json::Obj(fields) = &mut view {
        fields.retain(|(k, _)| k != "profile" && k != "threads");
        for (_, rows) in fields.iter_mut().filter(|(k, _)| k == "rows") {
            let Json::Arr(rows) = rows else { continue };
            for row in rows {
                let Json::Obj(row) = row else { continue };
                for (_, metrics) in row.iter_mut().filter(|(k, _)| k == "metrics") {
                    let Json::Obj(metrics) = metrics else {
                        continue;
                    };
                    metrics.retain(|(k, _)| !WALL_CLOCK_METRICS.contains(&k.as_str()));
                }
            }
        }
    }
    view
}

/// The bench-trajectory gate: the [`deterministic_view`] of a fresh
/// `candidate` report must equal the committed `baseline`'s exactly,
/// every number compared by its bits. Refuses smoke candidates. Returns
/// one line counting the numbers compared, or an error listing every
/// difference by path: rows and values present in only one report, and
/// each value that moved, with both numbers printed so they round-trip.
pub fn check_trajectory(candidate: &Json, baseline: &Json) -> Result<String, String> {
    if is_smoke(candidate)? {
        return Err("trajectory gate needs a full run, not --smoke".into());
    }
    let (cand, base) = (deterministic_view(candidate), deterministic_view(baseline));
    let (mut c, mut b) = (Vec::new(), Vec::new());
    leaves(String::new(), &cand, &mut c);
    leaves(String::new(), &base, &mut b);
    let find = |list: &[(String, &Json)], path: &str| list.iter().position(|(p, _)| p == path);
    let same = |x: &Json, y: &Json| match (x, y) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        _ => x == y,
    };
    let mut diffs = Vec::new();
    for (side, these, other) in [("baseline", &b, &c), ("candidate", &c, &b)] {
        for (path, v) in these.iter() {
            match find(other, path).map(|i| other[i].1) {
                Some(o) if side == "baseline" && !same(o, v) => {
                    diffs.push(format!("{path}: {o} vs baseline {v}"));
                }
                Some(_) => {}
                // A row in one report only is one difference, not one per metric.
                None => match path.split_once("] ") {
                    Some((row, _)) if find(other, &format!("{row}]")).is_none() => {}
                    _ => diffs.push(format!("{path}: only in {side}")),
                },
            }
        }
    }
    if diffs.is_empty() && cand != base {
        diffs.push("the same values in another order".into());
    }
    if diffs.is_empty() {
        let numbers = b.iter().filter(|(_, v)| matches!(v, Json::Num(_))).count();
        return Ok(format!("{numbers} numbers identical"));
    }
    let list = diffs.join("\n    ");
    Err(format!(
        "{} difference(s) from the baseline:\n    {list}",
        diffs.len()
    ))
}

/// Appends `v`'s leaves to `out`, each with its path: `.key` below an
/// object and `[i]` below an array, except that a report's rows are keyed
/// by coordinate, `rows[sweep/label/proto]` (a `null` marker) with a
/// `rows[..] metric` entry per metric. An empty object or array is a leaf.
fn leaves<'a>(path: String, v: &'a Json, out: &mut Vec<(String, &'a Json)>) {
    match v {
        Json::Arr(rows) if path == "rows" => {
            for row in rows {
                let coord = ["sweep", "label", "proto"].map(|k| match row.get(k) {
                    Some(Json::Str(s)) => s.as_str(),
                    _ => "",
                });
                let row_path = format!("rows[{}]", coord.join("/"));
                if let Some(Json::Obj(metrics)) = row.get("metrics") {
                    for (name, v) in metrics {
                        out.push((format!("{row_path} {name}"), v));
                    }
                }
                out.push((row_path, &Json::Null));
            }
        }
        Json::Arr(items) if !items.is_empty() => {
            for (i, item) in items.iter().enumerate() {
                leaves(format!("{path}[{i}]"), item, out);
            }
        }
        Json::Obj(fields) if !fields.is_empty() => {
            let dot = if path.is_empty() { "" } else { "." };
            for (k, v) in fields {
                leaves(format!("{path}{dot}{k}"), v, out);
            }
        }
        leaf => out.push((path, leaf)),
    }
}

/// The strict JSON parser behind [`parse_strict`].
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open, capped at [`MAX_DEPTH`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            got => Err(format!(
                "expected {:?}, got {:?}",
                b as char,
                got.map(|g| g as char)
            )),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} levels"))
            }
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?}")),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        for &b in lit.as_bytes() {
            self.expect(b)?;
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                // A second value would go unchecked: every reader takes
                // the first.
                return Err(format!("repeated key {key:?}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(fields)),
                got => return Err(format!("in object: got {got:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                got => return Err(format!("in array: got {got:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            match self.bump() {
                                Some(h) if h.is_ascii_hexdigit() => {
                                    code = code * 16 + (h as char).to_digit(16).expect("hexdigit");
                                }
                                got => return Err(format!("bad \\u escape: {got:?}")),
                            }
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    got => return Err(format!("bad escape: {got:?}")),
                },
                Some(c) if c < 0x20 => return Err("raw control char in string".into()),
                Some(c) if c < 0x80 => out.push(c as char),
                Some(c) => {
                    // Re-assemble UTF-8 (input came from &str, so it is
                    // valid by construction; walk the continuation bytes).
                    let len = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump();
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(s);
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut digits = 0;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err("number with no digits".into());
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let mut frac = 0;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err("fraction with no digits".into());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err("exponent with no digits".into());
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("unparseable number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Row, ScenarioReport};
    use crate::scenario::find;

    fn report(scenario: &str, rows: Vec<Row>) -> String {
        report_with_blocks(scenario, rows, None, None)
    }

    fn smoke(json: String) -> String {
        json.replace("\"smoke\": false", "\"smoke\": true")
    }

    fn sample(t: f64, heads: f64) -> Json {
        Json::Obj(vec![
            ("t_secs".into(), Json::Num(t)),
            ("heads".into(), Json::Num(heads)),
            ("delivery".into(), Json::Num(1.0)),
            ("control_frames".into(), Json::Num(10.0)),
            ("memory_per_node_bytes".into(), Json::Num(100.0)),
        ])
    }

    fn timeline_block(annotations: &[(&str, f64)], samples: Vec<Json>) -> Json {
        let mut fields = vec![("interval_secs".to_string(), Json::Num(1.0))];
        for (k, v) in annotations {
            fields.push((k.to_string(), Json::Num(*v)));
        }
        fields.push(("samples".into(), Json::Arr(samples)));
        Json::Obj(fields)
    }

    fn report_with_blocks(
        scenario: &str,
        rows: Vec<Row>,
        timeline: Option<Json>,
        profile: Option<Json>,
    ) -> String {
        ScenarioReport {
            scenario: scenario.into(),
            figure: "Fig. X".into(),
            summary: "s".into(),
            smoke: false,
            threads: 1,
            workload: None,
            timeline,
            profile,
            rows,
        }
        .to_json()
        .to_string()
    }

    /// Runs `scenario`'s declared gates on `sweep` over a report: `Ok`
    /// with every gate's note, or `Err` with the failing gates.
    fn gates(scenario: &str, sweep: &str, json: &str) -> Result<Vec<String>, Vec<String>> {
        let doc = validate_report_str(json).expect("schema-valid report");
        let declared: Vec<Gate> = find(scenario)
            .expect("registered scenario")
            .gates
            .iter()
            .filter(|g| g.rows.sweep == sweep)
            .copied()
            .collect();
        assert!(!declared.is_empty(), "{scenario} declares no {sweep} gate");
        let (ok, failed): (Vec<_>, Vec<_>) = check_gates(&doc, &declared)
            .into_iter()
            .partition(Result::is_ok);
        if failed.is_empty() {
            Ok(ok.into_iter().map(Result::unwrap).collect())
        } else {
            Err(failed.into_iter().map(Result::unwrap_err).collect())
        }
    }

    #[test]
    fn writer_output_round_trips_the_validator() {
        let s = report(
            "loss",
            vec![Row::new(
                "frame-loss",
                "loss=0.15",
                "hvdb",
                vec![("delivery_worst".into(), 0.93), ("delivery".into(), 0.97)],
            )],
        );
        let rows = report_rows(&validate_report_str(&s).expect("valid report")).unwrap();
        assert_eq!(metric_in(&rows[0], "delivery_worst"), Some(0.93));
    }

    fn any_rows() -> Vec<Row> {
        vec![Row::new(
            "axis",
            "n=1",
            "hvdb",
            vec![("delivery".into(), 1.0)],
        )]
    }

    #[test]
    fn timeline_block_is_schema_checked() {
        let good = timeline_block(&[], vec![sample(1.0, 5.0), sample(2.0, 4.0)]);
        let s = report_with_blocks("x", any_rows(), Some(good), None);
        validate_report_str(&s).expect("valid timeline accepted");

        // Non-increasing t_secs.
        let bad = timeline_block(&[], vec![sample(2.0, 5.0), sample(2.0, 4.0)]);
        let s = report_with_blocks("x", any_rows(), Some(bad), None);
        assert!(validate_report_str(&s).unwrap_err().contains("t_secs"));

        // Empty series.
        let bad = timeline_block(&[], vec![]);
        let s = report_with_blocks("x", any_rows(), Some(bad), None);
        assert!(validate_report_str(&s)
            .unwrap_err()
            .contains("empty sample"));

        // Sample missing a required field.
        let bad = timeline_block(
            &[],
            vec![Json::Obj(vec![("t_secs".into(), Json::Num(1.0))])],
        );
        let s = report_with_blocks("x", any_rows(), Some(bad), None);
        assert!(validate_report_str(&s).is_err());
    }

    #[test]
    fn profile_block_is_schema_checked() {
        let good = Json::Obj(vec![
            ("windows".into(), Json::Num(8.0)),
            ("drain_secs".into(), Json::Num(0.5)),
            ("commit_secs".into(), Json::Num(0.2)),
            ("barrier_secs".into(), Json::Num(0.0)),
            (
                "lane_busy_secs".into(),
                Json::Arr(vec![Json::Num(0.2), Json::Num(0.3)]),
            ),
        ]);
        let s = report_with_blocks("x", any_rows(), None, Some(good));
        validate_report_str(&s).expect("valid profile accepted");

        let bad = Json::Obj(vec![
            ("windows".into(), Json::Num(8.0)),
            ("drain_secs".into(), Json::Num(-1.0)),
            ("commit_secs".into(), Json::Num(0.2)),
            ("barrier_secs".into(), Json::Num(0.0)),
            ("lane_busy_secs".into(), Json::Arr(vec![])),
        ]);
        let s = report_with_blocks("x", any_rows(), None, Some(bad));
        assert!(validate_report_str(&s).unwrap_err().contains("drain_secs"));
    }

    #[test]
    fn partition_timeline_cross_check_derives_the_same_remerge() {
        // Heal at t=3; census returns to the target (5) at t=5 → derived
        // re-merge 2 s, matching the probe annotation.
        let tl = timeline_block(
            &[
                ("split_at_secs", 1.0),
                ("heal_at_secs", 3.0),
                ("heads_target", 5.0),
                ("remerge_secs_probe", 2.0),
            ],
            vec![
                sample(1.0, 5.0),
                sample(2.0, 9.0),
                sample(3.0, 9.0),
                sample(4.0, 8.0),
                sample(5.0, 5.0),
                sample(6.0, 5.0),
            ],
        );
        let s = report_with_blocks("partition", any_rows(), Some(tl), None);
        validate_report_str(&s).expect("agreeing timeline accepted");

        // A timeline without the probe annotation has nothing to
        // cross-check (the scale scenario's timeline is one).
        let tl = timeline_block(&[("heal_at_secs", 3.0)], vec![sample(4.0, 9.0)]);
        let s = report_with_blocks("partition", any_rows(), Some(tl), None);
        validate_report_str(&s).expect("unannotated timeline accepted");

        // The annotation needs the heal instant and census target.
        let tl = timeline_block(&[("remerge_secs_probe", 2.0)], vec![sample(4.0, 9.0)]);
        let s = report_with_blocks("partition", any_rows(), Some(tl), None);
        assert!(validate_report_str(&s)
            .unwrap_err()
            .contains("heal_at_secs"));
    }

    #[test]
    fn partition_timeline_cross_check_rejects_disagreement() {
        // Derived re-merge is 2 s but the probe annotation claims 4 s:
        // the schema check itself fails, so `run`'s re-validation of the
        // report it wrote enforces the cross-check.
        let tl = timeline_block(
            &[
                ("heal_at_secs", 3.0),
                ("heads_target", 5.0),
                ("remerge_secs_probe", 4.0),
            ],
            vec![sample(3.0, 9.0), sample(5.0, 5.0)],
        );
        let s = report_with_blocks("partition", any_rows(), Some(tl), None);
        assert!(validate_report_str(&s).unwrap_err().contains("disagrees"));

        // Census never returns to the target.
        let tl = timeline_block(
            &[
                ("heal_at_secs", 3.0),
                ("heads_target", 5.0),
                ("remerge_secs_probe", 2.0),
            ],
            vec![sample(3.0, 9.0), sample(5.0, 9.0)],
        );
        let s = report_with_blocks("partition", any_rows(), Some(tl), None);
        assert!(validate_report_str(&s)
            .unwrap_err()
            .contains("never returns"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_strict("{\"a\": 1,}").is_err());
        assert!(parse_strict("{\"a\": 1} extra").is_err());
        assert!(parse_strict("{\"a\": 01e}").is_err());
        assert!(parse_strict("\"unterminated").is_err());
        assert!(parse_strict("{\"a\": nul}").is_err());
        assert!(parse_strict("[1, 2,]").is_err());
    }

    #[test]
    fn parser_rejects_repeated_keys() {
        let err = parse_strict("[{\"k\": {\"a\": 1, \"b\": 2, \"a\": 3}}]").unwrap_err();
        assert!(err.contains("repeated key \"a\""), "{err}");
        parse_strict("[{\"a\": 1}, {\"a\": 2}]").expect("sibling objects may share keys");
    }

    #[test]
    fn schema_rejects_repeated_row_coordinates() {
        let rows = ["nodes=200", "nodes=400", "nodes=200"].map(|l| scale_row(l, 1.0, 500.0));
        let err = validate_report_str(&report("scale", rows.to_vec())).unwrap_err();
        assert!(
            err.contains("row 2: same sweep, label and proto as row 0"),
            "{err}"
        );
    }

    #[test]
    fn parser_caps_nesting_depth() {
        // Unbounded recursion used to overflow the stack on this input.
        let deep = "[".repeat(100_000);
        let err = parse_strict(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let deep_obj = "{\"a\": ".repeat(100_000);
        assert!(parse_strict(&deep_obj).is_err());
        // The cap itself is accepted, one more level is not.
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_strict(&at_cap).is_ok());
        let over = format!("[{at_cap}]");
        assert!(parse_strict(&over).is_err());
    }

    #[test]
    fn schema_errors_echo_a_bounded_prefix() {
        let nested = format!("{}{}", "[".repeat(60), "]".repeat(60));
        let s = format!(
            "{{\"scenario\": \"x\", \"figure\": \"f\", \"summary\": \"s\", \"smoke\": false, \
             \"threads\": 1, \"workload\": {nested}, \"rows\": []}}"
        );
        let err = validate_report_str(&s).unwrap_err();
        assert!(err.starts_with("workload: expected object"), "{err}");
        assert!(err.len() < 120, "{} bytes: {err}", err.len());
    }

    #[test]
    fn schema_rejects_wrong_shapes() {
        // Not an object.
        assert!(validate_report_str("[1]").is_err());
        // Missing fields.
        assert!(validate_report_str("{\"scenario\": \"x\"}").is_err());
        // Unknown top-level key.
        let s = "{\"scenario\": \"x\", \"figure\": \"f\", \"summary\": \"s\", \"smoke\": false, \"threads\": 1, \"rows\": [], \"extra\": 1}";
        assert!(validate_report_str(s).is_err());
        // Missing threads field.
        let s = "{\"scenario\": \"x\", \"figure\": \"f\", \"summary\": \"s\", \"smoke\": false, \"rows\": [{\"sweep\": \"a\", \"label\": \"b\", \"proto\": \"c\", \"metrics\": {\"m\": 1}}]}";
        assert!(validate_report_str(s).unwrap_err().contains("threads"));
        // Zero and fractional thread counts are nonsense.
        for bad in ["0", "1.5", "-2", "true"] {
            let s = format!(
                "{{\"scenario\": \"x\", \"figure\": \"f\", \"summary\": \"s\", \"smoke\": false, \"threads\": {bad}, \"rows\": [{{\"sweep\": \"a\", \"label\": \"b\", \"proto\": \"c\", \"metrics\": {{\"m\": 1}}}}]}}"
            );
            assert!(validate_report_str(&s).unwrap_err().contains("threads"));
        }
        // Empty rows.
        let s = "{\"scenario\": \"x\", \"figure\": \"f\", \"summary\": \"s\", \"smoke\": false, \"threads\": 1, \"rows\": []}";
        assert!(validate_report_str(s).is_err());
        // Non-finite metric serializes as null and must be rejected.
        let s = report(
            "x",
            vec![Row::new("a", "b", "c", vec![("m".into(), f64::NAN)])],
        );
        assert!(validate_report_str(&s).is_err());
    }

    fn loss_row(point: &str, worst: f64) -> Row {
        Row::new(
            "frame-loss",
            point,
            "hvdb",
            vec![("delivery_worst".into(), worst)],
        )
    }

    fn loss_report(worst_15: f64, worst_25: f64, worst_30: f64) -> String {
        report(
            "loss",
            vec![
                loss_row("loss=0", 1.0),
                loss_row("loss=0.15", worst_15),
                loss_row("loss=0.25", worst_25),
                loss_row("loss=0.3", worst_30),
            ],
        )
    }

    #[test]
    fn loss_gate_passes_and_fails_on_the_floor() {
        // Exactly on the 0.90 floor passes.
        let notes = gates("loss", "frame-loss", &loss_report(0.90, 0.95, 0.94)).unwrap();
        assert_eq!(notes.len(), 3);
        let failed = gates("loss", "frame-loss", &loss_report(0.85, 0.95, 0.94)).unwrap_err();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].contains("loss=0.15"), "{failed:?}");

        // A missing gate row fails loudly.
        let none = report(
            "loss",
            vec![loss_row("loss=0.25", 0.95), loss_row("loss=0.3", 0.94)],
        );
        let failed = gates("loss", "frame-loss", &none).unwrap_err();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].contains("no hvdb row"), "{failed:?}");
    }

    #[test]
    fn loss_gate_refuses_smoke_reports() {
        let failed = gates("loss", "frame-loss", &smoke(loss_report(1.0, 1.0, 1.0))).unwrap_err();
        assert_eq!(failed.len(), 3);
        assert!(failed.iter().all(|f| f.contains("smoke")), "{failed:?}");
        assert!(gates("loss", "frame-loss", &loss_report(1.0, 1.0, 1.0)).is_ok());
    }

    #[test]
    fn loss_high_band_gates_both_points() {
        // One point under the 0.93 band fails.
        let failed = gates("loss", "frame-loss", &loss_report(1.0, 0.95, 0.92)).unwrap_err();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].contains("loss=0.3"), "{failed:?}");
        let failed = gates("loss", "frame-loss", &loss_report(1.0, 0.92, 0.95)).unwrap_err();
        assert!(failed[0].contains("loss=0.25"), "{failed:?}");
        // A missing point fails loudly instead of silently passing.
        let partial = report(
            "loss",
            vec![loss_row("loss=0.15", 0.99), loss_row("loss=0.25", 0.99)],
        );
        let failed = gates("loss", "frame-loss", &partial).unwrap_err();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].contains("loss=0.3"), "{failed:?}");
    }

    fn overhead_report(fixed_refresh: f64, adaptive_refresh: f64, adaptive_total: f64) -> String {
        report(
            "overhead",
            vec![
                Row::new(
                    "churn",
                    "churn=0",
                    "hvdb-fixed",
                    vec![
                        ("refresh_frames_per_s".into(), fixed_refresh),
                        ("control_frames_per_s".into(), adaptive_total * 1.5),
                    ],
                ),
                Row::new(
                    "churn",
                    "churn=0",
                    "hvdb-adaptive",
                    vec![
                        ("refresh_frames_per_s".into(), adaptive_refresh),
                        ("control_frames_per_s".into(), adaptive_total),
                    ],
                ),
            ],
        )
    }

    #[test]
    fn overhead_gate_enforces_ratio_and_ceiling() {
        // 3x improvement, total under the ceiling: passes.
        let notes = gates("overhead", "churn", &overhead_report(600.0, 200.0, 700.0)).unwrap();
        assert!(notes[0].contains("3.00x"), "{notes:?}");
        // Only 1.5x improvement: fails.
        let failed = gates("overhead", "churn", &overhead_report(300.0, 200.0, 700.0)).unwrap_err();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].contains("below"), "{failed:?}");
        // Ratio fine but total control traffic blew through the ceiling.
        let failed =
            gates("overhead", "churn", &overhead_report(9000.0, 200.0, 901.0)).unwrap_err();
        assert_eq!(failed.len(), 1);
        assert!(
            failed[0].contains("control_frames_per_s <= 900"),
            "{failed:?}"
        );
        // A zero denominator fails rather than dividing to infinity.
        let failed = gates("overhead", "churn", &overhead_report(600.0, 0.0, 700.0)).unwrap_err();
        assert!(failed[0].contains("zero"), "{failed:?}");
        // Missing quiet rows: both gates fail loudly.
        let other = report(
            "overhead",
            vec![Row::new(
                "churn",
                "churn=12",
                "hvdb-adaptive",
                vec![("refresh_frames_per_s".into(), 1.0)],
            )],
        );
        assert_eq!(gates("overhead", "churn", &other).unwrap_err().len(), 2);
    }

    #[test]
    fn overhead_gate_refuses_smoke() {
        let failed = gates(
            "overhead",
            "churn",
            &smoke(overhead_report(600.0, 200.0, 700.0)),
        )
        .unwrap_err();
        assert_eq!(failed.len(), 2);
        assert!(failed.iter().all(|f| f.contains("smoke")), "{failed:?}");
    }

    fn scale_row(label: &str, delivery: f64, frames: f64) -> Row {
        Row::new(
            "network-size",
            label,
            "hvdb",
            vec![
                ("delivery".into(), delivery),
                ("control_frames_per_s".into(), frames),
                ("latency_ms".into(), 17.0),
            ],
        )
    }

    /// A one-row `scale` report with a workload and a timeline, after
    /// `edit`.
    fn traj_doc(edit: impl FnOnce(&mut ScenarioReport)) -> Json {
        let plan = Json::Arr(vec![Json::Num(1.0)]);
        let samples = vec![sample(1.0, 5.0), sample(2.0, 4.0)];
        let mut report = ScenarioReport {
            scenario: "scale".into(),
            figure: "Fig. X".into(),
            summary: "s".into(),
            smoke: false,
            threads: 1,
            workload: Some(Json::Obj(vec![("plan".into(), plan)])),
            timeline: Some(timeline_block(&[], samples)),
            profile: None,
            rows: vec![scale_row("nodes=200", 1.0, 500.0)],
        };
        edit(&mut report);
        report.to_json()
    }

    /// [`check_trajectory`] of an edited [`traj_doc`] against the plain one.
    fn traj(edit: impl FnOnce(&mut ScenarioReport)) -> Result<String, String> {
        check_trajectory(&traj_doc(edit), &traj_doc(|_| {}))
    }

    #[test]
    fn trajectory_gate_compares_deterministic_content_exactly() {
        // 3 row metrics, 1 + 2 x 5 timeline numbers and 1 workload number.
        assert_eq!(traj(|_| {}).unwrap(), "15 numbers identical");
        // The lane count, the profile and wall-clock metrics are not content.
        traj(|r| {
            r.threads = 4;
            r.profile = Some(Json::Null);
            r.rows[0].metrics.push(("wall_ms".into(), 10.0));
        })
        .unwrap();
        // One ULP on a row metric fails; both values print in full.
        let up = f64::from_bits(500f64.to_bits() + 1);
        let err = traj(|r| r.rows[0].metrics[1].1 = up).unwrap_err();
        let want = format!("nodes=200/hvdb] control_frames_per_s: {up} vs baseline 500");
        assert!(err.contains(&want), "{err}");
        // So does a timeline sample or a workload value, named by path.
        let samples = vec![sample(1.0, 5.0), sample(2.0, 3.0)];
        let err = traj(|r| r.timeline = Some(timeline_block(&[], samples))).unwrap_err();
        let want = "timeline.samples[1].heads: 3 vs baseline 4";
        assert!(err.contains(want), "{err}");
        let plan = Json::Obj(vec![("plan".into(), Json::Arr(vec![Json::Num(2.0)]))]);
        let err = traj(|r| r.workload = Some(plan)).unwrap_err();
        assert!(err.contains("workload.plan[0]: 2 vs baseline 1"), "{err}");
        assert!(traj(|r| r.smoke = true).unwrap_err().contains("smoke"));
    }

    #[test]
    fn trajectory_gate_collects_every_violation() {
        let base = traj_doc(|r| r.rows.push(scale_row("nodes=400", 1.0, 500.0)));
        let cand = traj_doc(|r| {
            r.summary = "t".into();
            r.rows[0] = scale_row("nodes=200", 0.5, 900.0);
            r.rows[0].metrics.pop();
            r.rows.push(scale_row("nodes=800", 1.0, 1.0));
        });
        let err = check_trajectory(&cand, &base).unwrap_err();
        assert!(err.starts_with("6 difference(s)"), "{err}");
        for want in [
            "summary: \"t\" vs baseline \"s\"",
            "nodes=200/hvdb] delivery: 0.5 vs baseline 1",
            "nodes=200/hvdb] control_frames_per_s: 900 vs baseline 500",
            "nodes=200/hvdb] latency_ms: only in baseline",
            "rows[network-size/nodes=400/hvdb]: only in baseline",
            "rows[network-size/nodes=800/hvdb]: only in candidate",
        ] {
            assert!(err.contains(want), "{want}: {err}");
        }
    }

    fn traffic_row(pps: &str, proto: &str, delivery: f64, p99_ms: f64) -> Row {
        Row::new(
            "offered-load",
            format!("pps={pps}"),
            proto,
            vec![("delivery".into(), delivery), ("p99_ms".into(), p99_ms)],
        )
    }

    /// Traffic rows where hvdb knees at `hvdb_knee` pps and both
    /// baselines knee at `base_knee` pps, over the standard sweep.
    fn traffic_rows(hvdb_knee: f64, base_knee: f64) -> Vec<Row> {
        let mut rows = Vec::new();
        for pps in [20.0, 80.0, 160.0, 320.0, 640.0] {
            for proto in ["hvdb", "flooding", "shared-tree"] {
                let knee = if proto == "hvdb" {
                    hvdb_knee
                } else {
                    base_knee
                };
                let (d, p99) = if pps <= knee {
                    (0.99, 40.0)
                } else {
                    (0.4, 2_000.0)
                };
                rows.push(traffic_row(&pps.to_string(), proto, d, p99));
            }
        }
        rows
    }

    fn traffic(rows: Vec<Row>) -> Result<Vec<String>, Vec<String>> {
        gates("traffic", "offered-load", &report("traffic", rows))
    }

    #[test]
    fn traffic_gate_enforces_knee_ordering() {
        // hvdb knees at 320, baselines at 80: passes, knee reported.
        let notes = traffic(traffic_rows(320.0, 80.0)).unwrap();
        assert!(notes[0].contains("hvdb knee 320"), "{notes:?}");
        // Baselines sustain as much as hvdb: fails (strict ordering).
        let failed = traffic(traffic_rows(320.0, 320.0)).unwrap_err();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].contains("out-sustain"), "{failed:?}");
        // hvdb knees below a baseline: fails.
        let failed = traffic(traffic_rows(160.0, 320.0)).unwrap_err();
        assert!(failed[0].contains("out-sustain"), "{failed:?}");
        // hvdb fails at its lowest point: knee 0 fails outright.
        let failed = traffic(traffic_rows(0.0, 0.0)).unwrap_err();
        assert!(failed[0].contains("lowest point"), "{failed:?}");
    }

    #[test]
    fn traffic_knee_uses_prefix_semantics() {
        // hvdb "recovers" at 640 after failing at 320: the knee must
        // still be 160, and with baselines at 160 the gate fails.
        let mut rows = Vec::new();
        for (pps, d, p99) in [
            ("20", 0.99, 30.0),
            ("160", 0.97, 50.0),
            ("320", 0.50, 900.0),
            ("640", 0.95, 60.0), // past-saturation fluke
        ] {
            rows.push(traffic_row(pps, "hvdb", d, p99));
            let (bd, bp) = if pps == "20" || pps == "160" {
                (0.95, 45.0)
            } else {
                (0.3, 3_000.0)
            };
            rows.push(traffic_row(pps, "flooding", bd, bp));
            rows.push(traffic_row(pps, "shared-tree", bd, bp));
        }
        let failed = traffic(rows.clone()).unwrap_err();
        assert!(failed[0].contains("hvdb sustains 160"), "{failed:?}");
        // Without its p99_ms the failing pps=320 row fails the gate: it
        // must not drop out of the series and let the fluke set the knee.
        let at_320 = rows
            .iter_mut()
            .find(|r| r.label == "pps=320" && r.proto == "hvdb")
            .unwrap();
        at_320.metrics.retain(|(k, _)| k != "p99_ms");
        let failed = traffic(rows).unwrap_err();
        assert_eq!(failed.len(), 1);
        assert!(
            failed[0].contains("pps=320/hvdb has no p99_ms metric"),
            "{failed:?}"
        );
    }

    #[test]
    fn traffic_gate_checks_p99_band_and_refuses_smoke() {
        // Reference-point p99 outside the band: fails even with the knee
        // ordering intact.
        let mut rows = traffic_rows(640.0, 80.0);
        let at_160 = rows
            .iter_mut()
            .find(|r| r.label == "pps=160" && r.proto == "hvdb")
            .unwrap();
        at_160.metrics[1].1 = 61.0;
        let failed = traffic(rows).unwrap_err();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].contains("p99_ms in [10, 60]"), "{failed:?}");
        // Smoke reports are refused outright, by both gates.
        let smoke_json = smoke(report("traffic", traffic_rows(320.0, 80.0)));
        let failed = gates("traffic", "offered-load", &smoke_json).unwrap_err();
        assert_eq!(failed.len(), 2);
        assert!(failed.iter().all(|f| f.contains("smoke")), "{failed:?}");
        // Missing baseline rows fail loudly.
        let hvdb_only = vec![traffic_row("20", "hvdb", 0.99, 30.0)];
        let failed = traffic(hvdb_only).unwrap_err();
        assert!(failed[0].contains("no flooding row"), "{failed:?}");
        // A corrupt `pps=nan` label is skipped, not sorted into the
        // series (where it would end hvdb's knee at its first point).
        let mut rows = traffic_rows(320.0, 80.0);
        rows.push(traffic_row("nan", "hvdb", 0.0, 9_000.0));
        let notes = traffic(rows).unwrap();
        assert!(notes[0].contains("hvdb knee 320"), "{notes:?}");
    }

    fn threads_row(threads: u64, eps: f64, events: f64, hw: f64) -> Row {
        Row::new(
            "engine-threads",
            format!("threads={threads}"),
            "par-flood",
            vec![
                ("events_per_s".into(), eps),
                ("events_processed".into(), events),
                ("hardware_threads".into(), hw),
            ],
        )
    }

    fn threads(rows: Vec<Row>) -> Result<Vec<String>, Vec<String>> {
        gates("perf", "engine-threads", &report("perf", rows))
    }

    #[test]
    fn threads_gate_enforces_speedup_on_capable_machines() {
        // 4 threads on a 4-core box at 2.5x: enforced and passing.
        let notes = threads(vec![
            threads_row(1, 1e6, 5e6, 4.0),
            threads_row(4, 2.5e6, 5e6, 4.0),
        ])
        .unwrap();
        assert!(notes[1].contains("threads=4/par-flood over"), "{notes:?}");
        assert!(notes[1].contains("2.50x") && !notes[1].contains("waived"));
        // Below the floor on a capable machine: fails.
        let rows = || {
            vec![
                threads_row(1, 1e6, 5e6, 4.0),
                threads_row(4, 1.5e6, 5e6, 4.0),
            ]
        };
        let failed = threads(rows()).unwrap_err();
        assert!(failed[0].contains("below"), "{failed:?}");
        // A smoke report is checked against its lower 1.2x floor.
        let smoke_json = smoke(report("perf", rows()));
        assert!(gates("perf", "engine-threads", &smoke_json).is_ok());
    }

    #[test]
    fn threads_gate_skips_speedup_without_hardware_parallelism() {
        // Same sub-floor ratio, but only 1 hardware thread — or only 2
        // worker threads: the speedup half is waived (timesliced threads
        // measure nothing)...
        for (t, hw) in [(4, 1.0), (2, 8.0)] {
            let notes = threads(vec![
                threads_row(1, 1e6, 5e6, hw),
                threads_row(t, 0.9e6, 5e6, hw),
            ])
            .unwrap();
            assert!(notes[1].contains("waived"), "{notes:?}");
            // The note names the measured thread and hardware-thread counts.
            let measured = format!("threads={t} ran on {hw} hardware threads");
            assert!(notes[1].contains(&measured), "{notes:?}");
        }
        // ...but the determinism half never is.
        let failed = threads(vec![
            threads_row(1, 1e6, 5e6, 1.0),
            threads_row(4, 0.9e6, 5e6 + 1.0, 1.0),
        ])
        .unwrap_err();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].contains("diverged"), "{failed:?}");
    }

    #[test]
    fn threads_gate_requires_both_rows() {
        let failed = threads(vec![threads_row(4, 2.5e6, 5e6, 4.0)]).unwrap_err();
        assert_eq!(failed.len(), 2);
        // Two rows but no threads=1 baseline.
        let failed = threads(vec![
            threads_row(2, 1e6, 5e6, 4.0),
            threads_row(4, 2e6, 5e6, 4.0),
        ])
        .unwrap_err();
        assert!(failed[0].contains("threads=1 baseline"), "{failed:?}");
    }

    #[test]
    fn scale_gates_check_thread_invariance_and_the_campaign_point() {
        let par = |t: u64, events: f64| {
            Row::new(
                "engine-threads",
                format!("threads={t}"),
                "hvdb",
                vec![("events_processed".into(), events)],
            )
        };
        let rows = |delivery: f64, events_4: f64| {
            vec![
                scale_row("nodes=2000", 0.5, 1.0),
                scale_row("nodes=20000", delivery, 1.0),
                par(1, 7.0),
                par(4, events_4),
            ]
        };
        let full = |delivery, events_4| report("scale", rows(delivery, events_4));
        assert!(gates("scale", "network-size", &full(0.99, 7.0)).is_ok());
        assert!(gates("scale", "engine-threads", &full(0.99, 7.0)).is_ok());
        assert!(gates("scale", "network-size", &full(0.98, 7.0)).is_err());
        assert!(gates("scale", "engine-threads", &full(0.99, 8.0)).is_err());
        // Smoke reports skip the campaign point but keep determinism.
        let notes = gates("scale", "network-size", &smoke(full(0.5, 7.0))).unwrap();
        assert!(notes[0].contains("skipped"), "{notes:?}");
        assert!(gates("scale", "engine-threads", &smoke(full(0.99, 8.0))).is_err());
        // A full report without a campaign point fails loudly.
        let small = report("scale", vec![scale_row("nodes=2000", 1.0, 1.0)]);
        assert!(gates("scale", "network-size", &small).is_err());
    }

    #[test]
    fn schema_accepts_optional_workload_block() {
        // A workload object between threads and rows validates...
        let s = "{\"scenario\": \"partition\", \"figure\": \"f\", \"summary\": \"s\", \
                  \"smoke\": false, \"threads\": 1, \
                  \"workload\": {\"fault_plan\": [{\"at_us\": 1, \"kind\": \"heal\"}]}, \
                  \"rows\": [{\"sweep\": \"a\", \"label\": \"b\", \"proto\": \"c\", \
                  \"metrics\": {\"m\": 1}}]}";
        validate_report_str(s).expect("workload block accepted");
        // ...but only as an object.
        let s = s.replace(
            "{\"fault_plan\": [{\"at_us\": 1, \"kind\": \"heal\"}]}",
            "\"oops\"",
        );
        assert!(validate_report_str(&s).unwrap_err().contains("workload"));
    }

    fn partition_rows(reachable_worst: f64, remerge_worst: f64) -> Vec<Row> {
        vec![
            Row::new(
                "partition",
                "phase=partition",
                "hvdb",
                vec![("delivery_reachable_steady_worst".into(), reachable_worst)],
            ),
            Row::new(
                "partition",
                "phase=healed",
                "hvdb",
                vec![("remerge_secs_worst".into(), remerge_worst)],
            ),
        ]
    }

    fn partition(rows: Vec<Row>) -> Result<Vec<String>, Vec<String>> {
        gates("partition", "partition", &report("partition", rows))
    }

    #[test]
    fn partition_gate_enforces_floor_and_remerge_budget() {
        assert_eq!(partition(partition_rows(0.99, 10.0)).unwrap().len(), 2);
        // Reachable delivery under the floor.
        let failed = partition(partition_rows(0.94, 10.0)).unwrap_err();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].contains("delivery_reachable"), "{failed:?}");
        // Re-merge over budget.
        let failed = partition(partition_rows(0.99, 16.0)).unwrap_err();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].contains("remerge_secs_worst"), "{failed:?}");
        // Missing rows fail loudly; smoke is refused.
        let failed = partition(partition_rows(0.99, 10.0)[..1].to_vec()).unwrap_err();
        assert!(failed[0].contains("remerge_secs_worst"), "{failed:?}");
        let smoke_json = smoke(report("partition", partition_rows(0.99, 10.0)));
        let failed = gates("partition", "partition", &smoke_json).unwrap_err();
        assert!(failed.iter().all(|f| f.contains("smoke")), "{failed:?}");
    }

    fn byz_row(k: u64, damage: f64) -> Row {
        Row::new(
            "byzantine",
            format!("byz={k}"),
            "hvdb",
            vec![
                ("delivery".into(), 0.99 - damage * k as f64),
                ("damage_per_node".into(), damage),
            ],
        )
    }

    fn byzantine(rows: Vec<Row>) -> Result<Vec<String>, Vec<String>> {
        gates("byzantine", "byzantine", &report("byzantine", rows))
    }

    #[test]
    fn byzantine_gate_bounds_damage_per_node() {
        let notes = byzantine(vec![byz_row(0, 0.0), byz_row(2, 0.01)]).unwrap();
        assert!(notes[0].contains("byz=2"), "{notes:?}");
        // One row over the ceiling fails.
        let failed = byzantine(vec![byz_row(0, 0.0), byz_row(1, 0.01), byz_row(4, 0.06)]);
        let failed = failed.unwrap_err();
        assert!(failed[0].contains("0.060 at byz=4"), "{failed:?}");
        // Missing k=0 control fails loudly.
        let failed = byzantine(vec![byz_row(2, 0.01)]).unwrap_err();
        assert!(failed[0].contains("byz=0"), "{failed:?}");
        // No gated rows at all fails (k=0 alone proves nothing).
        assert!(byzantine(vec![byz_row(0, 0.0)]).is_err());
        // Smoke refused.
        let smoke_json = smoke(report("byzantine", vec![byz_row(0, 0.0), byz_row(2, 0.01)]));
        let failed = gates("byzantine", "byzantine", &smoke_json).unwrap_err();
        assert!(failed[0].contains("smoke"), "{failed:?}");
    }

    #[test]
    fn unicode_and_escapes_round_trip() {
        let s = report(
            "üñí-ödé \"x\"\n",
            vec![Row::new("a", "b", "c", vec![("m".into(), 1.5)])],
        );
        let doc = validate_report_str(&s).expect("valid");
        let Json::Obj(fields) = &doc else { panic!() };
        let (_, Json::Str(name)) = &fields[0] else {
            panic!()
        };
        assert_eq!(name, "üñí-ödé \"x\"\n");
    }
}
