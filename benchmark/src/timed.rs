//! Outside-in handler timing for the traced run: a [`ParProtocol`] wrapper
//! that delegates every callback to [`HvdbCore`] and times it, per frame
//! class for `on_message`. Times include the `ParCtx` sends made inside
//! the handler. Accumulators are `Relaxed` atomics (statistics that publish
//! nothing); every 64th call of each kind is also kept as a span for the
//! Chrome-trace export.

use hvdb_core::{FrameBytes, HvdbCore, HvdbNode};
use hvdb_sim::{NodeId, ParCtx, ParProtocol, World};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The HVDB frame classes, in report order. `FrameBytes::class()` of every
/// frame HVDB sends is one of these.
pub const CLASSES: [&str; 16] = [
    "beacon",
    "candidacy",
    "ch-announce",
    "ch-refresh",
    "ch-retire",
    "join-report",
    "handover",
    "mnt-share",
    "mnt-refresh",
    "ht-bcast",
    "ht-refresh",
    "stamp-hint",
    "data-to-ch",
    "mesh-data",
    "hc-data",
    "local-deliver",
];

/// Every `SPAN_EVERY`-th call of a kind is kept as a span.
const SPAN_EVERY: u64 = 64;
/// At most this many spans are kept (the Chrome-trace export stays in the
/// tens of MB).
pub const SPAN_CAP: usize = 100_000;

/// Call count and summed wall time of one handler kind.
#[derive(Default)]
struct Acc {
    calls: AtomicU64,
    ns: AtomicU64,
}

/// A read-out of one [`Acc`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Wall seconds inside the handler.
    pub secs: f64,
}

/// One recorded wall-clock span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What ran (a phase, or a handler kind).
    pub name: &'static str,
    /// Chrome-trace track.
    pub track: u32,
    /// Start, nanoseconds since the clock's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Chrome-trace track of the benchmark's own phases (setup, run).
pub const TRACK_PHASES: u32 = 0;
/// Track of the engine's drain/commit/barrier slices; lanes follow it.
pub const TRACK_ENGINE: u32 = 1;
/// First handler track: timers, start-up, node construction, then one
/// track per class, then unknown classes.
const TRACK_HANDLERS: u32 = 16;

/// Handler accumulators plus the span store, shared by the wrapper.
pub struct HandlerClock {
    origin: Instant,
    /// One per [`CLASSES`] entry, then one for any other class.
    msg: [Acc; CLASSES.len() + 1],
    timer: Acc,
    start: Acc,
    make_node: Acc,
    spans: Mutex<Vec<Span>>,
}

/// A snapshot of every accumulator of a [`HandlerClock`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HandlerTimes {
    /// Per class, in [`CLASSES`] order, then other classes.
    pub msg: Vec<Tally>,
    /// `on_timer`.
    pub timer: Tally,
    /// `on_start`.
    pub start: Tally,
    /// `make_node`.
    pub make_node: Tally,
}

impl HandlerTimes {
    /// Summed `on_message` plus `on_timer` time: the handler share of the
    /// drain phase.
    pub fn dispatch_secs(&self) -> f64 {
        self.msg.iter().map(|t| t.secs).sum::<f64>() + self.timer.secs
    }
}

fn class_slot(class: &str) -> usize {
    CLASSES
        .iter()
        .position(|c| *c == class)
        .unwrap_or(CLASSES.len())
}

impl HandlerClock {
    /// A fresh clock whose span timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        HandlerClock {
            origin,
            msg: Default::default(),
            timer: Acc::default(),
            start: Acc::default(),
            make_node: Acc::default(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds from the origin to `t`.
    pub fn since_origin(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span directly (benchmark phases).
    pub fn span(&self, name: &'static str, track: u32, start: Instant, dur_ns: u64) {
        let s = Span {
            name,
            track,
            start_ns: self.since_origin(start),
            dur_ns,
        };
        let mut spans = self.spans.lock().expect("span store poisoned");
        if spans.len() < SPAN_CAP {
            spans.push(s);
        }
    }

    fn time<R>(&self, acc: &Acc, name: &'static str, track: u32, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        let n = acc.calls.fetch_add(1, Ordering::Relaxed);
        acc.ns.fetch_add(ns, Ordering::Relaxed);
        if n % SPAN_EVERY == 0 {
            self.span(name, track, t0, ns);
        }
        r
    }

    /// Reads every accumulator.
    pub fn snapshot(&self) -> HandlerTimes {
        let tally = |a: &Acc| Tally {
            calls: a.calls.load(Ordering::Relaxed),
            secs: a.ns.load(Ordering::Relaxed) as f64 * 1e-9,
        };
        HandlerTimes {
            msg: self.msg.iter().map(tally).collect(),
            timer: tally(&self.timer),
            start: tally(&self.start),
            make_node: tally(&self.make_node),
        }
    }

    /// Takes the recorded spans.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Chrome-trace track names, by track id.
pub fn track_name(track: u32) -> String {
    match track {
        TRACK_PHASES => "benchmark".into(),
        TRACK_ENGINE => "engine".into(),
        t if t < TRACK_HANDLERS => format!("lane {}", t - TRACK_ENGINE - 1),
        t => match t - TRACK_HANDLERS {
            0 => "timer".into(),
            1 => "start".into(),
            2 => "make_node".into(),
            i => CLASSES.get(i as usize - 3).unwrap_or(&"other").to_string(),
        },
    }
}

/// The wrapper: HVDB with every callback timed into `clock`.
pub struct Timed<'a> {
    /// The protocol being measured.
    pub core: &'a HvdbCore,
    /// Where times go.
    pub clock: &'a HandlerClock,
}

impl ParProtocol for Timed<'_> {
    type Msg = FrameBytes;
    type Node = HvdbNode;

    fn make_node(&self, id: NodeId, world: &World) -> HvdbNode {
        let c = self.clock;
        c.time(&c.make_node, "make_node", TRACK_HANDLERS + 2, || {
            self.core.make_node(id, world)
        })
    }

    fn on_start(&self, id: NodeId, node: &mut HvdbNode, ctx: &mut ParCtx<'_, FrameBytes>) {
        let c = self.clock;
        c.time(&c.start, "start", TRACK_HANDLERS + 1, || {
            self.core.on_start(id, node, ctx)
        })
    }

    fn on_message(
        &self,
        id: NodeId,
        node: &mut HvdbNode,
        from: NodeId,
        msg: FrameBytes,
        ctx: &mut ParCtx<'_, FrameBytes>,
    ) {
        let c = self.clock;
        let class = msg.class();
        let slot = class_slot(class);
        c.time(
            &c.msg[slot],
            class,
            TRACK_HANDLERS + 3 + slot as u32,
            || self.core.on_message(id, node, from, msg, ctx),
        )
    }

    fn on_timer(
        &self,
        id: NodeId,
        node: &mut HvdbNode,
        tag: u64,
        ctx: &mut ParCtx<'_, FrameBytes>,
    ) {
        let c = self.clock;
        c.time(&c.timer, "timer", TRACK_HANDLERS, || {
            self.core.on_timer(id, node, tag, ctx)
        })
    }

    fn on_fail(&self, id: NodeId, node: &mut HvdbNode, ctx: &mut ParCtx<'_, FrameBytes>) {
        self.core.on_fail(id, node, ctx)
    }

    fn on_recover(&self, id: NodeId, node: &mut HvdbNode, ctx: &mut ParCtx<'_, FrameBytes>) {
        self.core.on_recover(id, node, ctx)
    }
}
