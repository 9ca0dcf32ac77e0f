//! The parallel engine's live heap stays flat on a quiet network.
//!
//! A counting global allocator measures the whole process, so this file
//! holds exactly one test: cargo runs the tests of one binary on parallel
//! threads, and a second test would allocate into the same counter.
//!
//! The run is the paper geometry with nothing changing after start-up:
//! 200 static nodes, no data traffic, no faults. Once clustering settles,
//! every buffer the engine recycles (broadcast receiver lists, task and
//! outbox buffers, the event heap) has reached its working size, so live
//! heap at 2T must stay close to live heap at T, and at 8T closer still
//! to it: a pool that keeps what it is handed without giving it back grows
//! linearly, and so does any per-window structure that is kept but never
//! reused.

use hvdb_core::{FrameBytes, HvdbConfig, HvdbCore, HvdbNode};
use hvdb_geo::Aabb;
use hvdb_sim::{ParSimulator, RadioConfig, SimConfig, SimDuration, SimTime, Stationary};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// [`System`] plus a live-bytes counter.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter never
// influences what is allocated.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s
        // contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, which
        // is `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; `ptr` came from `System` with
        // `layout`, and the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn par_engine_heap_stays_flat_on_a_quiet_network() {
    let area = Aabb::from_size(800.0, 800.0);
    let cfg = SimConfig {
        area,
        num_nodes: 200,
        radio: RadioConfig {
            range: 250.0,
            ..Default::default()
        },
        mobility_tick: SimDuration::ZERO,
        enhanced_fraction: 1.0,
        seed: 1,
        compact_delivery: false,
    };
    let mut sim: ParSimulator<HvdbNode, FrameBytes> =
        ParSimulator::new(cfg, Box::new(Stationary), 64, 1);
    let core = HvdbCore::new(HvdbConfig::fig2(area), &[], Vec::new(), Vec::new());

    const T: u64 = 40;
    sim.run(&core, SimTime::from_secs(T));
    let at_t = LIVE.load(Ordering::Relaxed);
    sim.run(&core, SimTime::from_secs(2 * T));
    let at_2t = LIVE.load(Ordering::Relaxed);
    sim.run(&core, SimTime::from_secs(8 * T));
    let at_8t = LIVE.load(Ordering::Relaxed);

    let mb = |b: usize| b as f64 / 1e6;
    assert!(
        at_2t as f64 <= 1.25 * at_t as f64,
        "live heap grew from {:.2} MB at {T} s to {:.2} MB at {} s",
        mb(at_t),
        mb(at_2t),
        2 * T
    );
    assert!(
        at_8t as f64 <= 1.05 * at_t as f64,
        "live heap grew from {:.2} MB at {T} s to {:.2} MB at {} s",
        mb(at_t),
        mb(at_8t),
        8 * T
    );
}
