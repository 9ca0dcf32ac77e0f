//! Host-side readings: per-thread CPU and run-queue wait from
//! `/proc/self/task/*/schedstat` (Linux; zeros elsewhere).

/// CPU time and run-queue wait summed over the process's threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    /// Seconds on a CPU.
    pub cpu_s: f64,
    /// Seconds runnable but waiting for a CPU.
    pub runq_wait_s: f64,
}

impl Sched {
    /// The readings accumulated since `earlier`.
    pub fn since(&self, earlier: &Sched) -> Sched {
        Sched {
            cpu_s: self.cpu_s - earlier.cpu_s,
            runq_wait_s: self.runq_wait_s - earlier.runq_wait_s,
        }
    }
}

/// Reads the current totals. Threads are only ever added (the engine's
/// worker pool lives for the whole process), so a later reading minus an
/// earlier one is the time spent in between.
pub fn sched_now() -> Sched {
    let mut total = Sched::default();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return total;
    };
    for task in tasks.flatten() {
        let Ok(line) = std::fs::read_to_string(task.path().join("schedstat")) else {
            continue;
        };
        let mut fields = line
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        total.cpu_s += fields.next().unwrap_or(0) as f64 * 1e-9;
        total.runq_wait_s += fields.next().unwrap_or(0) as f64 * 1e-9;
    }
    total
}

/// The process's peak resident set (`VmHWM`) in MB, 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Hardware threads the OS offers this process.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
