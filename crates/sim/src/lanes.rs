//! Persistent lane workers for [`crate::ParSimulator`]'s parallel drain.
//!
//! A lane team lives for one `ParSimulator::run` call. Lane 0 is the
//! calling thread; every other lane is one dedicated OS thread, spawned in
//! a [`std::thread::scope`] when the call starts and joined when it ends.
//! For each window the caller hands every worker its job (one closure over
//! that lane's shard chunk) with an epoch bump and an `unpark`, runs lane
//! 0's job itself, and parks until the workers have counted a shared
//! countdown down to zero. Nothing is boxed or queued, and a worker wakes
//! only for its own lane's work.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::{self, Thread};

/// One lane's job for one window.
type Job<'a> = &'a mut (dyn FnMut() + Send + 'a);

/// What one worker lane shares with the caller.
struct Slot {
    /// Bumped once per handed-over window, and once more to stop.
    epoch: AtomicU64,
    /// The job for the latest epoch; null means stop. It points into the
    /// job slice of the [`Lanes::run`] call that bumped the epoch.
    job: AtomicPtr<Job<'static>>,
}

struct Shared {
    slots: Vec<Slot>,
    /// Worker lanes still running the current window's jobs.
    pending: AtomicUsize,
    /// The first panic a worker caught in the current window.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The thread that calls [`Lanes::run`]; the last worker to finish a
    /// window unparks it.
    caller: Thread,
}

/// A team of lanes: the calling thread plus one parked worker per other
/// lane. Dropping it stops the workers.
pub(crate) struct Lanes<'t> {
    shared: &'t Shared,
    /// Worker threads, lane 1 first.
    workers: Vec<Thread>,
}

/// Runs `f` with a team of `lanes` lanes whose `lanes - 1` workers live
/// until `f` returns or unwinds. Every worker is joined before this
/// returns, so no thread outlives the call.
///
/// # Panics
/// Panics if a worker thread cannot be spawned, and raises again a panic
/// of `f` (a lane's included) once every worker has stopped.
pub(crate) fn with_lanes(lanes: usize, f: impl FnOnce(&Lanes<'_>)) {
    let shared = Shared {
        slots: (1..lanes)
            .map(|_| Slot {
                epoch: AtomicU64::new(0),
                job: AtomicPtr::new(ptr::null_mut()),
            })
            .collect(),
        pending: AtomicUsize::new(0),
        panic: Mutex::new(None),
        caller: thread::current(),
    };
    thread::scope(|scope| {
        // Built before the first spawn, so a failed spawn still stops the
        // workers already running and the scope's join returns.
        let mut team = Lanes {
            shared: &shared,
            workers: Vec::with_capacity(shared.slots.len()),
        };
        let mut handles = Vec::with_capacity(shared.slots.len());
        for (i, slot) in shared.slots.iter().enumerate() {
            let shared = &shared;
            let handle = thread::Builder::new()
                .name(format!("hvdb-lane-{}", i + 1))
                .spawn_scoped(scope, move || serve(slot, shared))
                .expect("spawn lane worker");
            team.workers.push(handle.thread().clone());
            handles.push(handle);
        }
        f(&team);
        drop(team);
        // An explicit join waits for each OS thread to end; the scope's
        // own wait only sees the closures return.
        for handle in handles {
            handle
                .join()
                .expect("a lane worker panicked outside its jobs");
        }
    });
}

impl Lanes<'_> {
    /// Lanes in the team, the caller's included.
    pub(crate) fn count(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `jobs[i]` on lane `i` (`jobs[0]` on the calling thread) and
    /// returns once every job has finished. A panic in any job is raised
    /// again here, after all lanes have finished.
    ///
    /// # Panics
    /// Panics unless there is exactly one job per lane.
    pub(crate) fn run<F: FnMut() + Send>(&self, jobs: &mut [F]) {
        assert_eq!(jobs.len(), self.count(), "one job per lane");
        let mut jobs: Vec<Job<'_>> = jobs.iter_mut().map(|j| j as Job<'_>).collect();
        let shared = self.shared;
        debug_assert_eq!(
            thread::current().id(),
            shared.caller.id(),
            "only the thread that built the team parks on its countdown"
        );
        let (own, rest) = jobs.split_first_mut().expect("lane 0's job");
        // Every worker finished the previous window, so none reads
        // `pending` until the epoch bumps below publish the new count.
        shared.pending.store(rest.len(), Ordering::Relaxed);
        for ((slot, worker), job) in shared.slots.iter().zip(&self.workers).zip(rest) {
            slot.job
                .store((job as *mut Job<'_>).cast(), Ordering::Relaxed);
            // Release: the worker's Acquire load of the epoch sees the job
            // pointer and the count stored above.
            slot.epoch.fetch_add(1, Ordering::Release);
            worker.unpark();
        }
        // The workers borrow the caller's shards and this frame's jobs, so
        // a panic on lane 0 must wait for them before it unwinds.
        let own = panic::catch_unwind(AssertUnwindSafe(own));
        // Acquire pairs with every worker's AcqRel decrement: once the
        // count reads zero, all lanes' writes are visible here.
        while shared.pending.load(Ordering::Acquire) != 0 {
            thread::park();
        }
        if let Err(payload) = own {
            panic::resume_unwind(payload);
        }
        let caught = shared
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(payload) = caught {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Lanes<'_> {
    /// Stops every worker, so the scope's join returns, also while `f`
    /// unwinds. No job is outstanding here: [`Lanes::run`] returns only
    /// after all of them finished.
    fn drop(&mut self) {
        for (slot, worker) in self.shared.slots.iter().zip(&self.workers) {
            slot.job.store(ptr::null_mut(), Ordering::Relaxed);
            slot.epoch.fetch_add(1, Ordering::Release);
            worker.unpark();
        }
    }
}

/// A worker's life: park until the epoch moves, run the job it points at,
/// count down, repeat until a null job. Nothing here may panic outside
/// `catch_unwind`, or the caller would wait on the countdown forever.
fn serve(slot: &Slot, shared: &Shared) {
    let mut seen = 0;
    loop {
        let epoch = slot.epoch.load(Ordering::Acquire);
        if epoch == seen {
            // `unpark` before `park` leaves a token, so no bump is missed;
            // a spurious return just re-reads the epoch.
            thread::park();
            continue;
        }
        seen = epoch;
        let job = slot.job.load(Ordering::Relaxed);
        if job.is_null() {
            return;
        }
        // SAFETY: `job` points at this lane's own element of the job slice
        // passed to the `Lanes::run` call that bumped the epoch (each slot
        // gets a distinct element). That call neither returns nor unwinds
        // before `pending` reaches zero, and this worker decrements it
        // only after its last use of the job below, so the element and
        // everything it borrows stay alive and unaliased meanwhile.
        let job = unsafe { &mut *job };
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(job)) {
            shared
                .panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
        }
        if shared.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            shared.caller.unpark();
        }
    }
}
