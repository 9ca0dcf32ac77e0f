//! Orchestration: untraced passes interleaved round-robin across the
//! selected workloads, each followed by set-up-only samples, then one
//! traced pass per workload. A pass runs every instance of the workload once and pools
//! them ([`run::pool`]). Every pass must reproduce the first pass's digest;
//! a mismatch, a failed output check or a panic fails the pass.

use crate::metrics::{self, Metric};
use crate::run::{self, RunOut, RunSpec, SetupTimes};
use crate::timed::{HandlerClock, HandlerTimes};
use crate::workloads::WorkloadDef;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-up-only runs after every untraced pass. Set-up is cheap next to a
/// pass; sampling it between passes, not in one burst, keeps a noisy
/// moment from moving its median.
pub const SETUPS_PER_PASS: usize = 8;

/// Which metric set to report (and whether the traced pass happens).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    /// End-to-end metrics only; no traced pass.
    EndToEnd,
    /// Per-layer metrics only.
    PerLayer,
    /// Both sets.
    Both,
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workloads, in round-robin order.
    pub workloads: Vec<&'static WorkloadDef>,
    /// The `--seed`; each workload derives its instance seeds from it.
    pub seed: u64,
    /// Minimum untraced passes per workload.
    pub reps: usize,
    /// Keep repeating each workload until its passes took this long.
    pub seconds: Option<f64>,
    /// Metric sets to report.
    pub emit: Emit,
    /// Shrunk inputs.
    pub smoke: bool,
}

/// One workload's measurements.
pub struct Outcome {
    /// The workload.
    pub def: &'static WorkloadDef,
    /// Pooled untraced passes that completed.
    pub passes: Vec<RunOut>,
    /// Set-up samples: every instance run's plus the set-up-only runs.
    pub setups: Vec<SetupTimes>,
    /// The pooled traced pass and its handler times.
    pub traced: Option<(RunOut, HandlerTimes)>,
    /// The digest every pass must reproduce.
    pub digest: Option<u64>,
    /// Why runs failed.
    pub failures: Vec<String>,
    /// Expected receiver slots over every instance run.
    pub attempted: u64,
    /// Slots of failed runs.
    pub failed: u64,
    /// Runs whose run-queue wait exceeded 5% of their wall time.
    pub flagged: Vec<String>,
}

impl Outcome {
    fn new(def: &'static WorkloadDef) -> Self {
        Outcome {
            def,
            passes: Vec::new(),
            setups: Vec::new(),
            traced: None,
            digest: None,
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
            flagged: Vec::new(),
        }
    }

    /// The metrics `emit` selects; empty when no pass completed or the
    /// traced pass a per-layer report needs is missing.
    pub fn metrics(&self, emit: Emit) -> Vec<Metric> {
        let mut out = Vec::new();
        if self.passes.is_empty() {
            return out;
        }
        if emit != Emit::PerLayer {
            out.extend(metrics::end_to_end(&self.passes, &self.setups));
        }
        if emit != Emit::EndToEnd {
            if let Some((traced, handlers)) = &self.traced {
                out.extend(metrics::per_layer(
                    &self.passes,
                    &self.setups,
                    traced,
                    handlers,
                ));
            }
        }
        out
    }

    /// Adds [`SETUPS_PER_PASS`] set-up-only samples, cycling through the
    /// instance seeds.
    fn setup_samples(&mut self, seed: u64, spec: RunSpec<'_>) {
        let seeds: Vec<u64> = self.def.instance_seeds(seed).collect();
        for k in 0..SETUPS_PER_PASS {
            let only = RunSpec {
                seed: seeds[k % seeds.len()],
                setup_only: true,
                ..spec
            };
            match catch_unwind(AssertUnwindSafe(|| run::run(self.def, only))) {
                Ok(out) => self.setups.push(out.setup),
                Err(_) => {
                    let name = self.def.name;
                    self.failures
                        .push(format!("{name}: set-up-only run panicked"));
                    return;
                }
            }
        }
    }

    /// Runs every instance once as `spec` says (its seed replaced by each
    /// instance seed) and accounts the pass: output checks, digest, slots.
    fn pass(&mut self, label: &str, seed: u64, spec: RunSpec<'_>) -> Option<RunOut> {
        let mut runs = Vec::new();
        let mut panicked = 0;
        for s in self.def.instance_seeds(seed) {
            let spec = RunSpec { seed: s, ..spec };
            match catch_unwind(AssertUnwindSafe(|| run::run(self.def, spec))) {
                Ok(out) => runs.push(out),
                Err(_) => {
                    self.failures
                        .push(format!("{label}: instance seed {s} panicked"));
                    panicked += 1;
                }
            }
        }
        let pooled = run::pool(&runs);
        // A panicked instance's slots are unknown; charge it the mean of
        // its siblings' (at least one slot).
        let per_instance = pooled.model.expected_slots / runs.len().max(1) as u64;
        let lost = panicked * per_instance.max(1);
        self.attempted += pooled.model.expected_slots + lost;
        self.failed += lost;
        if panicked > 0 {
            return None;
        }
        let mut ok = true;
        for f in &pooled.check_failures {
            self.failures.push(format!("{label}: {f}"));
            ok = false;
        }
        let d = pooled.model.digest;
        match self.digest {
            None => self.digest = Some(d),
            Some(first) if first != d => {
                self.failures.push(format!(
                    "{label}: digest {d:#018x} differs from {first:#018x}"
                ));
                ok = false;
            }
            Some(_) => {}
        }
        if pooled.host.runq_wait_s > 0.05 * pooled.run_wall_s {
            self.flagged.push(format!(
                "{label}: run-queue wait {:.3} s over {:.3} s of wall time",
                pooled.host.runq_wait_s, pooled.run_wall_s
            ));
        }
        if !ok {
            self.failed += pooled.model.expected_slots;
        }
        if spec.clock.is_none() {
            self.setups.extend(runs.iter().map(|r| r.setup));
        }
        Some(pooled)
    }
}

/// Runs the plan. `order` receives one label per pass, in execution order.
pub fn execute(plan: &Plan, order: &mut Vec<String>) -> Vec<Outcome> {
    // Spawn the engine's worker pool before the first timed run, so no
    // run pays for thread creation.
    rayon::pool_threads();
    let mut outcomes: Vec<Outcome> = plan.workloads.iter().map(|d| Outcome::new(d)).collect();
    let n = outcomes.len();
    let (mut busy, mut attempts) = (vec![0.0f64; n], vec![0usize; n]);
    let spec = RunSpec {
        seed: plan.seed,
        smoke: plan.smoke,
        threads: None,
        clock: None,
        boot: true,
        setup_only: false,
    };
    loop {
        let mut ran = false;
        for (i, o) in outcomes.iter_mut().enumerate() {
            let more_time = plan.seconds.is_some_and(|s| busy[i] < s);
            if attempts[i] >= plan.reps && !more_time {
                continue;
            }
            ran = true;
            attempts[i] += 1;
            let label = format!("{}:pass{}", o.def.name, attempts[i]);
            order.push(label.clone());
            let t = Instant::now();
            let pooled = o.pass(&label, plan.seed, spec);
            busy[i] += t.elapsed().as_secs_f64();
            if pooled.is_some() {
                o.setup_samples(plan.seed, spec);
                order.push(format!("{}:setup-only x{SETUPS_PER_PASS}", o.def.name));
            }
            o.passes.extend(pooled);
        }
        if !ran {
            break;
        }
    }

    if plan.emit != Emit::EndToEnd {
        for o in &mut outcomes {
            let label = format!("{}:traced", o.def.name);
            order.push(label.clone());
            let clock = HandlerClock::new(Instant::now());
            // One thread: handler times then add up to the drain, and on
            // a multi-thread workload this pass doubles as the
            // thread-invariance check (its digest must match).
            let traced = RunSpec {
                threads: Some(1),
                clock: Some(&clock),
                ..spec
            };
            if let Some(pooled) = o.pass(&label, plan.seed, traced) {
                let path = trace_path(o.def.name, plan.smoke);
                if let Err(e) = crate::chrome::write(&path, &clock.take_spans(), &pooled.slices) {
                    eprintln!("warning: could not write {}: {e}", path.display());
                }
                o.traced = Some((pooled, clock.snapshot()));
            }
        }
    }
    outcomes
}

/// Where a workload's Chrome trace goes: `out/` beside this package.
fn trace_path(workload: &str, smoke: bool) -> std::path::PathBuf {
    let suffix = if smoke { ".smoke" } else { "" };
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}{suffix}.trace.json"))
}
