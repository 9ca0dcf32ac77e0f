//! The parallel engine's lane workers are real OS threads. A
//! `ParSimulator::run` call at `threads = N` starts at most
//! `min(N, shards) - 1` of them (none at `threads = 1`) and joins every
//! one before it returns, so no thread outlives a `run` call or the
//! simulator. Linux only: the test counts the entries of
//! `/proc/self/task`, and it is the only test in this binary so that no
//! other test's threads move the count.
#![cfg(target_os = "linux")]

use hvdb_sim::{
    NodeId, ParCtx, ParProtocol, ParSimulator, SimConfig, SimDuration, SimTime, Stationary, World,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn threads_now() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

/// The thread count once it has fallen back to `expected`, or the last
/// reading after a second. A joined thread leaves `/proc/self/task` a
/// moment after its join returns (the kernel wakes the joiner before it
/// reaps the thread), so the count is polled briefly.
fn settled_threads(expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let now = threads_now();
        if now == expected || Instant::now() >= deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Every node broadcasts on a 10 ms timer; node 0's timer records the
/// most threads it saw alive while windows were draining.
#[derive(Default)]
struct Probe {
    peak: AtomicUsize,
}

impl ParProtocol for Probe {
    type Msg = u8;
    type Node = ();

    fn make_node(&self, _id: NodeId, _world: &World) {}

    fn on_start(&self, id: NodeId, _node: &mut (), ctx: &mut ParCtx<'_, u8>) {
        ctx.set_timer(id, SimDuration::from_millis(10), 0);
    }

    fn on_message(
        &self,
        _id: NodeId,
        _node: &mut (),
        _from: NodeId,
        _msg: u8,
        _ctx: &mut ParCtx<'_, u8>,
    ) {
    }

    fn on_timer(&self, id: NodeId, _node: &mut (), _tag: u64, ctx: &mut ParCtx<'_, u8>) {
        if id == NodeId(0) {
            self.peak.fetch_max(threads_now(), Ordering::Relaxed);
        }
        ctx.broadcast(id, "probe", 32, 0);
        ctx.set_timer(id, SimDuration::from_millis(10), 0);
    }
}

const SHARDS: usize = 16;

fn probe_sim(threads: usize) -> ParSimulator<(), u8> {
    let cfg = SimConfig {
        mobility_tick: SimDuration::ZERO,
        seed: 5,
        ..SimConfig::default()
    };
    ParSimulator::new(cfg, Box::new(Stationary), SHARDS, threads)
}

#[test]
fn par_lane_threads_end_with_each_run() {
    const THREADS: usize = 4;
    let before = threads_now();

    // threads=1 drains inline on the caller and starts no thread.
    let inline = Probe::default();
    let mut sim = probe_sim(1);
    sim.run(&inline, SimTime::from_secs(1));
    assert_eq!(
        inline.peak.load(Ordering::Relaxed),
        before,
        "threads=1 started a thread"
    );
    drop(sim);

    let probe = Probe::default();
    let mut sim = probe_sim(THREADS);
    for secs in 1..=3 {
        sim.run(&probe, SimTime::from_secs(secs));
        assert_eq!(
            settled_threads(before),
            before,
            "a lane thread outlived run call {secs}"
        );
    }
    let started = probe.peak.load(Ordering::Relaxed) - before;
    assert!(started >= 1, "no lane worker ran at threads={THREADS}");
    assert!(
        started < THREADS.min(SHARDS),
        "threads={THREADS} over {SHARDS} shards started {started} lane threads"
    );
    assert!(sim.stats().events_processed > 0, "the probe never ran");
    drop(sim);
    assert_eq!(
        settled_threads(before),
        before,
        "a thread outlived the simulator"
    );
}
