//! The sharded parallel deterministic engine.
//!
//! [`ParSimulator`] partitions nodes into `K` shards by spatial-index cell
//! ([`World::cell_of`]) and dispatches same-window events shard-parallel on
//! persistent lane workers, while keeping every statistic a pure function
//! of `(SimConfig, shards, protocol)` — **independent of the thread
//! count**. The construction:
//!
//! * **Lookahead windows.** The radio's propagation latency is a strict
//!   lower bound on send→arrival (`arrival = tx_end + latency + jitter`,
//!   `tx_end ≥ now`), so all events inside one window `[t0, t0+latency)`
//!   are causally independent across shards: nothing dispatched in the
//!   window can schedule a message *into* the window. [`ParSimulator::new`]
//!   asserts `radio.latency > 0`.
//! * **Shard-local state.** During the parallel phase each shard owns its
//!   nodes' protocol state, radio busy-until and RNG stream, and only
//!   *reads* the frozen [`World`]. Sends and stat records append to
//!   shard-local buffers.
//! * **Deterministic commit.** After a window drains, each touched
//!   shard's buffers are committed in **shard-index order**: outbound
//!   events are pushed onto the global event queue in that fixed
//!   schedule, so they get their tie-breaking `seq` from it, and origin
//!   and delivery records replay into [`Stats`] in the same order
//!   (per-flow accounting depends on it). Counters — transmissions per
//!   class and per node, drops, dispatched events, soft-state counts —
//!   stay in the shard for the whole `run` call and are folded into
//!   [`Stats`] once, when `run` returns: plain sums, with classes merged
//!   by name, so no order shows in them. Thread lanes only decide *which
//!   OS thread* drains a shard, never the commit order, so `threads = N`
//!   is byte-identical to `threads = 1` by construction.
//! * **Lane workers.** Shards split into at most `threads` contiguous
//!   chunks, one per lane. The thread calling [`ParSimulator::run`]
//!   drains lane 0; every other lane is one OS thread that lives for that
//!   call and is handed each window with an epoch bump and an `unpark`,
//!   and the caller parks until the lanes have counted a countdown to
//!   zero. A panic on any lane surfaces from `run`. At `threads = 1` the
//!   caller drains every active shard itself and no thread starts.
//! * **Touched shards only.** Every place that hands a shard work or
//!   output (routing, start-up, a barrier's callback) marks it active for
//!   the window; drain and commit visit only active shards. An untouched
//!   shard has nothing to drain and nothing to commit, so skipping it is
//!   invisible, and a window costs what its events cost, not what the
//!   shard count costs.
//! * **Broadcast fan-out.** A broadcast's receiver list comes from the
//!   sending shard's pool. When a window routes it, every receiver is
//!   copied into its own shard's window buffer; each receiving shard gets
//!   one task over its range of that buffer, in ascending id order, and
//!   the list goes back to the sender's pool. Routing is O(receivers) and
//!   allocates nothing in steady state.
//! * **Adjacency.** Before each window's drain (never in the start-up
//!   window) the caller refreshes the world's adjacency table
//!   ([`World::refresh_adjacency`]), so every neighbour query in the
//!   drain decodes a precomputed run instead of querying the spatial
//!   index. The table is rebuilt only after a position write: a static
//!   run builds it once, a mobility tick costs one rebuild at the next
//!   window. Liveness is read at query time, so fail, recover and
//!   regional-outage barriers leave it fresh; partition gating stays in
//!   [`ParCtx::broadcast`].
//! * **Per-node RNG.** Every node draws from its own SplitMix64 stream
//!   ([`hvdb_traffic::Rng64`]) derived from the master seed — the pattern
//!   the traffic plane already uses per flow — so event outcomes never
//!   depend on cross-shard interleaving.
//! * **Serial barriers.** `Fault`/`MobilityTick` events mutate the
//!   shared world, so each runs alone between windows with `&mut World`;
//!   window collection stops at the first barrier in `(time, seq)` order,
//!   so simultaneous fault/deliver events keep their exact `(time, seq)`
//!   order. Every kind of the fault plane
//!   ([`crate::FaultPlan`]) — partitions, heals, regional outages,
//!   Byzantine onsets, clock/position error — applies atomically this
//!   way, which is what keeps the thread count invisible under fault
//!   injection.
//!
//! Two consequences of the windowing are part of the engine's contract,
//! both deterministic: a timer with a delay shorter than the radio
//! latency is dispatched at window granularity (it may run after
//! temporally-later same-window events; see [`ParCtx::set_timer`]), and a
//! node that migrates to another cell keeps its original shard (mild load
//! drift, never an ordering change).

use crate::engine::SimConfig;
use crate::event::{EventKind, EventQueue, Scheduled};
use crate::fault::{ByzantineMode, FaultEvent, FaultKind, FaultPlan};
use crate::lanes::{self, Lanes};
use crate::mobility::Mobility;
use crate::node::{Capability, NodeId};
use crate::radio::RadioConfig;
use crate::rng::SimRng;
use crate::stats::{ShardCounters, Stats};
use crate::time::{SimDuration, SimTime};
use crate::trace::{self, Trace, TraceConfig, TraceEvent, TraceKind};
use crate::world::World;
use hvdb_geo::{Point, Vec2};
use hvdb_traffic::{flow_seed, Rng64};
use rustc_hash::FxHashMap;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Salt mixed into the master seed for per-node streams, so node streams
/// never collide with the traffic plane's per-flow streams (which use the
/// unsalted seed through the same [`flow_seed`] mix).
const NODE_STREAM_SALT: u64 = 0x4E4F_4445_5253;

/// Cap on retained [`PhaseSlice`] records when detailed profiling is on;
/// slices past the cap are counted in [`EngineProfile::slices_dropped`].
const SLICE_CAP: usize = 262_144;

/// One timed phase occurrence, recorded only when detailed profiling is
/// enabled ([`ParSimulator::set_profile_detail`]). Timestamps are
/// wall-clock microseconds since the first `run` call, sized for direct
/// export as Chrome trace-event (Perfetto) complete events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSlice {
    /// Phase name: `"drain"`, `"commit"`, `"barrier"` or `"lane"`.
    pub phase: &'static str,
    /// Lane index for `"lane"` slices; `u32::MAX` for engine-wide phases.
    pub lane: u32,
    /// Wall-clock start, microseconds since the profile origin.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
}

/// Wall-clock engine profile of a [`ParSimulator`]: per-window phase
/// aggregates (parallel drain / serial commit / serial barrier) and
/// per-lane busy time. **Non-deterministic by nature** — wall-clock
/// readings vary run to run — so it must never feed golden or trajectory
/// comparisons; it ships in reports as an explicitly excluded block.
#[derive(Debug, Clone, Default)]
pub struct EngineProfile {
    /// Lookahead windows committed (parallel drain + ordered commit).
    pub windows: u64,
    /// Serial barrier events processed (faults, mobility ticks).
    pub barriers: u64,
    /// Total wall-clock seconds in the parallel drain phase.
    pub drain_secs: f64,
    /// Total wall-clock seconds in the serial ordered commit.
    pub commit_secs: f64,
    /// Total wall-clock seconds in serial barrier processing.
    pub barrier_secs: f64,
    /// Per-lane busy seconds inside drain (index = lane).
    pub lane_busy_secs: Vec<f64>,
    /// Detailed slices (empty unless detail is enabled; capped).
    pub slices: Vec<PhaseSlice>,
    /// Slices discarded past the retention cap.
    pub slices_dropped: u64,
}

impl EngineProfile {
    /// Max/mean ratio of per-lane busy time — 1.0 means perfectly
    /// balanced lanes, higher means stragglers. Returns 1.0 when fewer
    /// than two lanes recorded work.
    pub fn lane_imbalance(&self) -> f64 {
        let busy: Vec<f64> = self
            .lane_busy_secs
            .iter()
            .copied()
            .filter(|s| *s > 0.0)
            .collect();
        if busy.len() < 2 {
            return 1.0;
        }
        let max = busy.iter().fold(0.0_f64, |a, &b| a.max(b));
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    fn push_slice(&mut self, phase: &'static str, lane: u32, start_us: u64, dur_us: u64) {
        if self.slices.len() >= SLICE_CAP {
            self.slices_dropped += 1;
            return;
        }
        self.slices.push(PhaseSlice {
            phase,
            lane,
            start_us,
            dur_us,
        });
    }
}

/// A protocol runnable on the engine.
///
/// A `ParProtocol` is a shared read-only recipe (`&self`, hence the `Sync`
/// bound) over per-node state values ([`ParProtocol::Node`]) that the
/// engine owns inside shards. Callbacks receive the dispatched node's id,
/// its mutable state, and a [`ParCtx`] restricted to actions originating
/// at that node.
pub trait ParProtocol: Sync {
    /// The over-the-air message type.
    type Msg: Clone + Send;
    /// Per-node protocol state, owned by the node's shard.
    type Node: Send;

    /// Builds node `id`'s initial state (called once, ascending id order,
    /// before the first event dispatch).
    fn make_node(&self, id: NodeId, world: &World) -> Self::Node;

    /// Called once per node at t = 0.
    fn on_start(&self, id: NodeId, node: &mut Self::Node, ctx: &mut ParCtx<'_, Self::Msg>);

    /// Called when `id` receives `msg` transmitted by `from`.
    fn on_message(
        &self,
        id: NodeId,
        node: &mut Self::Node,
        from: NodeId,
        msg: Self::Msg,
        ctx: &mut ParCtx<'_, Self::Msg>,
    );

    /// Called when a timer set by `id` with `tag` fires.
    fn on_timer(
        &self,
        id: NodeId,
        node: &mut Self::Node,
        tag: u64,
        ctx: &mut ParCtx<'_, Self::Msg>,
    );

    /// Fault injection: `id` just went down. Default: nothing.
    fn on_fail(&self, _id: NodeId, _node: &mut Self::Node, _ctx: &mut ParCtx<'_, Self::Msg>) {}

    /// Fault injection: `id` just came back up. Default: nothing.
    fn on_recover(&self, _id: NodeId, _node: &mut Self::Node, _ctx: &mut ParCtx<'_, Self::Msg>) {}
}

/// Order-sensitive statistics records, buffered shard-locally during the
/// parallel phase and replayed against the global [`Stats`] in
/// shard-index order at each window's commit (origin registration and
/// flow accounting depend on replay order).
#[derive(Debug, Clone)]
enum StatOp {
    OriginFlow {
        data_id: u64,
        at: SimTime,
        expected: u64,
        flow: u32,
        seq: u32,
    },
    DeliveryHops {
        data_id: u64,
        node: NodeId,
        at: SimTime,
        hops: u32,
    },
}

/// One window's work item, routed to the target node's shard.
#[derive(Debug)]
enum Task<M> {
    Start {
        node: NodeId,
    },
    Deliver {
        at: SimTime,
        to: NodeId,
        from: NodeId,
        msg: M,
    },
    /// The slice of a shared-payload broadcast whose receivers live in
    /// this shard: a range of the shard's `window_receivers`, in the
    /// sender's ascending id order.
    DeliverSlice {
        at: SimTime,
        from: NodeId,
        receivers: Range<u32>,
        msg: M,
    },
    Timer {
        at: SimTime,
        node: NodeId,
        tag: u64,
    },
}

/// Per-node state owned by a shard.
struct ParSlot<N> {
    id: NodeId,
    busy_until: SimTime,
    rng: Rng64,
    node: N,
}

struct Shard<N, M> {
    /// Slots in ascending node-id order.
    slots: Vec<ParSlot<N>>,
    tasks: Vec<Task<M>>,
    /// Whether this shard received work or output since the last commit
    /// (its index is then in [`ParSimulator::active`]).
    active: bool,
    /// Whether `route` has opened a span in `window_receivers` for the
    /// broadcast it is routing; cleared once that broadcast's tasks are
    /// pushed.
    in_span: bool,
    /// Outbound events in dispatch order. The commit pushes them onto the
    /// queue in this order, which gives same-instant events their
    /// dispatch order as the tie-break.
    outbox: Vec<(SimTime, EventKind<M>)>,
    /// This window's origin and delivery records, in dispatch order.
    ops: Vec<StatOp>,
    /// This `run` call's counters, folded into [`Stats`] when it returns.
    counters: ShardCounters,
    scratch: Vec<NodeId>,
    raw_scratch: Vec<u32>,
    /// Receiver lists for broadcasts sent from this shard; `route` hands
    /// each list back here once it has copied the receivers out.
    recv_pool: Vec<Vec<NodeId>>,
    /// This window's broadcast receivers living in this shard, appended
    /// by `route` and read through each `DeliverSlice`'s range; cleared
    /// after the drain.
    window_receivers: Vec<NodeId>,
    /// Active trace-category mask, mirrored from the engine's [`Trace`]
    /// at the start of every `run` call (0 = tracing off).
    trace_mask: u32,
    /// Shard-local trace records for the current window, merged into the
    /// engine's ring at commit in deterministic `(time, node)` order.
    trace_buf: Vec<TraceEvent>,
}

impl<N, M> Shard<N, M> {
    fn new() -> Self {
        Shard {
            slots: Vec::new(),
            tasks: Vec::new(),
            active: false,
            in_span: false,
            outbox: Vec::new(),
            ops: Vec::new(),
            counters: ShardCounters::default(),
            scratch: Vec::new(),
            raw_scratch: Vec::new(),
            recv_pool: Vec::new(),
            window_receivers: Vec::new(),
            trace_mask: 0,
            trace_buf: Vec::new(),
        }
    }

    /// Marks this shard (index `s`) as holding work or output for the
    /// current window, recording it in `active` on first touch.
    #[inline]
    fn mark_active(&mut self, s: usize, active: &mut Vec<u32>) {
        if !self.active {
            self.active = true;
            active.push(s as u32);
        }
    }
}

impl<N: Send, M: Clone + Send> Shard<N, M> {
    /// Runs `f` on slot `idx` with a [`ParCtx`] over this shard's buffers.
    fn with_slot<R>(
        &mut self,
        idx: usize,
        at: SimTime,
        world: &World,
        radio: &RadioConfig,
        f: impl FnOnce(NodeId, &mut N, &mut ParCtx<'_, M>) -> R,
    ) -> R {
        let ParSlot {
            id,
            busy_until,
            rng,
            node,
        } = &mut self.slots[idx];
        let mut ctx = ParCtx {
            now: at,
            current: *id,
            world,
            radio,
            busy_until,
            rng,
            slot: idx,
            outbox: &mut self.outbox,
            ops: &mut self.ops,
            counters: &mut self.counters,
            scratch: &mut self.scratch,
            raw_scratch: &mut self.raw_scratch,
            recv_pool: &mut self.recv_pool,
            trace_mask: self.trace_mask,
            trace_buf: &mut self.trace_buf,
        };
        f(*id, node, &mut ctx)
    }

    fn run_task<P: ParProtocol<Msg = M, Node = N>>(
        &mut self,
        proto: &P,
        task: Task<M>,
        world: &World,
        radio: &RadioConfig,
        map: &[(u32, u32)],
    ) {
        match task {
            Task::Start { node } => {
                let i = map[node.idx()].1 as usize;
                self.with_slot(i, SimTime::ZERO, world, radio, |id, n, ctx| {
                    proto.on_start(id, n, ctx)
                });
            }
            Task::Deliver { at, to, from, msg } => {
                self.counters.events_processed += 1;
                if world.alive(to) {
                    let i = map[to.idx()].1 as usize;
                    self.with_slot(i, at, world, radio, |id, n, ctx| {
                        proto.on_message(id, n, from, msg, ctx)
                    });
                } else {
                    self.counters.drops_dead += 1;
                }
            }
            Task::DeliverSlice {
                at,
                from,
                receivers,
                msg,
            } => {
                // One shared payload, dispatched to each receiver in list
                // (= ascending id) order: all but the last receiver get a
                // clone (a refcount bump for shared frame types), the last
                // takes the payload itself.
                let mut payload = Some(msg);
                let last = receivers.end - 1;
                for i in receivers {
                    let node = self.window_receivers[i as usize];
                    self.counters.events_processed += 1;
                    if !world.alive(node) {
                        self.counters.drops_dead += 1;
                        continue;
                    }
                    self.counters.frames_shared += 1;
                    let m = if i == last {
                        payload.take().expect("payload taken before last receiver")
                    } else {
                        payload
                            .as_ref()
                            .expect("payload taken before last receiver")
                            .clone()
                    };
                    let si = map[node.idx()].1 as usize;
                    self.with_slot(si, at, world, radio, |id, n, ctx| {
                        proto.on_message(id, n, from, m, ctx)
                    });
                }
            }
            Task::Timer { at, node, tag } => {
                self.counters.events_processed += 1;
                if world.alive(node) {
                    let i = map[node.idx()].1 as usize;
                    self.with_slot(i, at, world, radio, |id, n, ctx| {
                        proto.on_timer(id, n, tag, ctx)
                    });
                }
            }
        }
    }

    fn drain<P: ParProtocol<Msg = M, Node = N>>(
        &mut self,
        proto: &P,
        world: &World,
        radio: &RadioConfig,
        map: &[(u32, u32)],
    ) {
        let mut tasks = std::mem::take(&mut self.tasks);
        for task in tasks.drain(..) {
            self.run_task(proto, task, world, radio, map);
        }
        // Hand the (now empty) buffers back for the next window.
        self.tasks = tasks;
        self.window_receivers.clear();
    }
}

/// The protocol's window onto the engine during a parallel-phase callback:
/// the frozen world, the dispatched node's own radio/RNG state, and
/// shard-local send/record buffers. All actions must originate at the
/// dispatched node (enforced by debug assertions) — that restriction is
/// what makes shard execution order invisible.
pub struct ParCtx<'a, M> {
    now: SimTime,
    current: NodeId,
    world: &'a World,
    radio: &'a RadioConfig,
    busy_until: &'a mut SimTime,
    rng: &'a mut Rng64,
    /// The dispatched node's slot in its shard.
    slot: usize,
    outbox: &'a mut Vec<(SimTime, EventKind<M>)>,
    ops: &'a mut Vec<StatOp>,
    counters: &'a mut ShardCounters,
    scratch: &'a mut Vec<NodeId>,
    raw_scratch: &'a mut Vec<u32>,
    recv_pool: &'a mut Vec<Vec<NodeId>>,
    trace_mask: u32,
    trace_buf: &'a mut Vec<TraceEvent>,
}

impl<'a, M: Clone> ParCtx<'a, M> {
    /// Appends an outbound event to the shard's window buffer.
    #[inline]
    fn emit(&mut self, time: SimTime, kind: EventKind<M>) {
        self.outbox.push((time, kind));
    }

    /// Current simulation time (the dispatched event's timestamp) *as
    /// observed by the dispatched node*: exact unless a
    /// [`FaultKind::ClockSkew`] fault skewed this node's clock. Timers,
    /// radio occupancy, and statistics keep true engine time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.world.local_time(self.current, self.now)
    }

    /// Number of nodes in the world.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.world.len()
    }

    /// A node's position as the protocol observes it: exact unless a
    /// [`FaultKind::PositionError`] fault displaced the node's GPS
    /// (radio reachability keeps using truth).
    #[inline]
    pub fn position(&self, id: NodeId) -> Point {
        self.world.reported_position(id)
    }

    /// A node's velocity.
    #[inline]
    pub fn velocity(&self, id: NodeId) -> Vec2 {
        self.world.velocity(id)
    }

    /// Whether a node is up (frozen for the duration of the window —
    /// fail/recover events are serial barriers between windows).
    #[inline]
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.world.alive(id)
    }

    /// A node's hardware class.
    #[inline]
    pub fn capability(&self, id: NodeId) -> Capability {
        self.world.capability(id)
    }

    /// The radio range.
    #[inline]
    pub fn radio_range(&self) -> f64 {
        self.radio.range
    }

    /// The dispatched node's private RNG stream. Draws here never affect
    /// any other node's outcomes, whatever the shard/thread layout.
    #[inline]
    pub fn rng(&mut self) -> &mut Rng64 {
        self.rng
    }

    /// Calls `f` with the node's current alive radio neighbours (ascending
    /// id order), reusing shard-local scratch buffers.
    pub fn with_neighbors<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut Self, &[NodeId]) -> R,
    ) -> R {
        let mut buf = std::mem::take(self.scratch);
        self.world.neighbors_into(id, &mut buf, self.raw_scratch);
        let r = f(self, &buf);
        buf.clear();
        *self.scratch = buf;
        r
    }

    /// Sets a timer for the dispatched node firing after `delay` with
    /// discriminator `tag`.
    ///
    /// Timers shorter than the radio latency fire at window granularity:
    /// such a delay lands inside the current lookahead window and is
    /// dispatched *after* the window commits — deterministically, but
    /// possibly after temporally-later same-window events. A delay of at
    /// least one latency fires exactly at `now + delay`.
    pub fn set_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) {
        debug_assert_eq!(
            node, self.current,
            "parallel timers must target the dispatched node"
        );
        self.emit(self.now + delay, EventKind::Timer { node, tag });
    }

    /// [`ParCtx::set_timer`] plus a uniform random extra delay in
    /// `[0, jitter)` drawn from the node's stream. Soft-state refresh
    /// timers use this so periodic re-advertisements desynchronise across
    /// nodes instead of colliding every period.
    pub fn set_timer_jittered(
        &mut self,
        node: NodeId,
        base: SimDuration,
        jitter: SimDuration,
        tag: u64,
    ) {
        let extra = SimDuration(self.rng.range_u64(0, jitter.0.max(1)));
        self.set_timer(node, base + extra, tag);
    }

    /// The dispatched node's transmit backlog: queued airtime between now
    /// and its radio going idle, which the interface-queue cap reads.
    fn tx_backlog(&self) -> SimDuration {
        if *self.busy_until > self.now {
            self.busy_until.since(self.now)
        } else {
            SimDuration::ZERO
        }
    }

    /// Byzantine sender intercept: whether the dispatched node silently
    /// discards the frame it is about to transmit (selective-forwarding
    /// and bogus-candidacy modes). Honest nodes draw no RNG here, so
    /// fault-free runs are unchanged.
    fn byzantine_drops(&mut self) -> bool {
        if let Some(mode) = self.world.byzantine(self.current) {
            let p = mode.drop_prob();
            if p > 0.0 && self.rng.chance(p) {
                self.counters.byzantine_dropped += 1;
                return true;
            }
        }
        false
    }

    /// The replay lag of the dispatched node's Byzantine mode, if any.
    #[inline]
    fn replay_delay(&self) -> Option<SimDuration> {
        self.world
            .byzantine(self.current)
            .and_then(|m| m.replay_delay())
    }

    fn queue_full(&mut self) -> bool {
        if self.radio.max_queue > SimDuration::ZERO && self.tx_backlog() > self.radio.max_queue {
            self.counters.drops_queue_full += 1;
            true
        } else {
            false
        }
    }

    fn occupy_radio(&mut self, bytes: usize) -> SimTime {
        let tx = self.radio.tx_time(bytes);
        let start = (*self.busy_until).max(self.now);
        let end = start + tx;
        *self.busy_until = end;
        let jitter = SimDuration(self.rng.range_u64(0, self.radio.jitter.0.max(1)));
        // `end >= now`, so arrival is at least one latency past `now` —
        // always outside the current lookahead window.
        end + self.radio.latency + jitter
    }

    /// Unicast transmission with MAC-level retransmissions: the
    /// dispatched node `from` sends `msg` (`bytes` bytes on air,
    /// class-labelled for overhead accounting) to `to`, with loss and
    /// jitter drawn from the node's stream. A frame lost to the radio loss
    /// process is re-attempted up to [`RadioConfig::mac_retries`] more
    /// times, mirroring the IEEE 802.11 unicast ACK/retry loop; with
    /// `mac_retries = 0` it makes a single attempt. Every attempt occupies
    /// the sender's radio and is counted in the statistics, so retries
    /// surface as overhead and added latency. Returns `false` if the
    /// destination is out of range, across a partition or down, the
    /// sender is down, or every attempt was lost; out-of-range,
    /// partitioned and dead-endpoint failures are not retried.
    pub fn send_reliable(
        &mut self,
        from: NodeId,
        to: NodeId,
        class: &'static str,
        bytes: usize,
        msg: M,
    ) -> bool {
        debug_assert_eq!(
            from, self.current,
            "parallel sends must originate at the dispatched node"
        );
        if !self.world.alive(from) {
            self.counters.drops_dead += 1;
            return false;
        }
        if self.byzantine_drops() {
            return false;
        }
        if self.queue_full() {
            return false;
        }
        let attempts = 1 + self.radio.mac_retries;
        for _ in 0..attempts {
            let arrival = self.occupy_radio(bytes);
            self.counters.add_tx(self.slot, class, bytes);
            if !self.world.alive(to) {
                self.counters.drops_dead += 1;
                return false;
            }
            let dist_sq = self
                .world
                .position(from)
                .distance_sq(self.world.position(to));
            if dist_sq > self.radio.range * self.radio.range {
                self.counters.drops_out_of_range += 1;
                return false;
            }
            if !self.world.same_island(from, to) {
                // Like out-of-range: retries never cross a partition.
                self.counters.drops_partitioned += 1;
                return false;
            }
            if self.rng.chance(self.radio.loss_prob) {
                self.counters.drops_loss += 1;
                continue;
            }
            if let Some(delay) = self.replay_delay() {
                self.counters.byzantine_replayed += 1;
                self.emit(
                    arrival + delay,
                    EventKind::Deliver {
                        to,
                        from,
                        msg: msg.clone(),
                    },
                );
            }
            self.emit(arrival, EventKind::Deliver { to, from, msg });
            return true;
        }
        self.counters.drops_retry_exhausted += 1;
        false
    }

    /// Broadcast transmission: one frame, received by every alive node in
    /// range (subject to partitions and independent loss); returns the
    /// number of receivers scheduled. This is the MANET broadcast
    /// advantage the paper notes (§1). The frame is queued once as a
    /// shared-payload `DeliverMany` whose receiver list comes from the
    /// shard's pool, so a steady-state broadcast allocates nothing.
    pub fn broadcast(&mut self, from: NodeId, class: &'static str, bytes: usize, msg: M) -> usize {
        debug_assert_eq!(
            from, self.current,
            "parallel sends must originate at the dispatched node"
        );
        if !self.world.alive(from) {
            self.counters.drops_dead += 1;
            return 0;
        }
        if self.byzantine_drops() {
            return 0;
        }
        if self.queue_full() {
            return 0;
        }
        let arrival = self.occupy_radio(bytes);
        self.counters.add_tx(self.slot, class, bytes);
        let mut receivers = self.recv_pool.pop().unwrap_or_default();
        self.world
            .neighbors_into(from, &mut receivers, self.raw_scratch);
        // Partition gating before the loss draws: cross-island receivers
        // vanish without consuming RNG.
        if self.world.partitioned() {
            let before = receivers.len();
            let world = self.world;
            receivers.retain(|&to| world.same_island(from, to));
            self.counters.drops_partitioned += (before - receivers.len()) as u64;
        }
        // Loss per receiver in ascending id order, from the sender's
        // stream.
        receivers.retain(|_| {
            if self.rng.chance(self.radio.loss_prob) {
                self.counters.drops_loss += 1;
                false
            } else {
                true
            }
        });
        let n = receivers.len();
        if n > 0 {
            if let Some(delay) = self.replay_delay() {
                self.counters.byzantine_replayed += n as u64;
                let mut copy = self.recv_pool.pop().unwrap_or_default();
                copy.extend_from_slice(&receivers);
                self.emit(
                    arrival + delay,
                    EventKind::DeliverMany {
                        to: copy,
                        from,
                        msg: msg.clone(),
                    },
                );
            }
            self.emit(
                arrival,
                EventKind::DeliverMany {
                    to: receivers,
                    from,
                    msg,
                },
            );
            return n;
        }
        receivers.clear();
        self.recv_pool.push(receivers);
        n
    }

    /// Registers an originated data packet for delivery-ratio accounting,
    /// carrying sequence number `seq` of traffic-plane flow `flow`
    /// ([`hvdb_traffic::FLOW_NONE`] and 0 for untracked traffic).
    pub fn record_origin_flow(&mut self, data_id: u64, expected: u64, flow: u32, seq: u32) {
        self.ops.push(StatOp::OriginFlow {
            data_id,
            at: self.now,
            expected,
            flow,
            seq,
        });
        self.trace(TraceKind::FlowOrigin { flow, seq });
    }

    /// Records a data-packet delivery at `node` after `hops` physical
    /// transmissions.
    pub fn record_delivery_hops(&mut self, data_id: u64, node: NodeId, hops: u32) {
        self.ops.push(StatOp::DeliveryHops {
            data_id,
            node,
            at: self.now,
            hops,
        });
        self.trace_for(node, TraceKind::Delivered { hops });
    }

    /// Counts one transmitted soft-state refresh advertisement.
    pub fn record_refresh_tx(&mut self) {
        self.counters.soft_refresh_msgs += 1;
        self.trace(TraceKind::RefreshSent);
    }

    /// Counts one stale (out-of-date generation) message suppressed by a
    /// receiver instead of being applied.
    pub fn record_stale_suppressed(&mut self) {
        self.counters.soft_stale_suppressed += 1;
        self.trace(TraceKind::StaleSuppressed);
    }

    /// Counts `n` periodic refreshes suppressed at the sender because the
    /// advertised state was unchanged.
    pub fn record_refresh_suppressed(&mut self, n: u64) {
        self.counters.soft_refresh_suppressed += n;
        self.trace(TraceKind::RefreshSuppressed { n });
    }

    /// Records the adaptive refresh controller's current interval (in
    /// base-tick multiples) for the refresh-rate histogram.
    pub fn record_refresh_rate(&mut self, interval_ticks: u32) {
        self.counters.add_refresh_rate(interval_ticks);
    }

    /// Counts `n` soft-state entries dropped by timeout expiry.
    pub fn record_soft_expired(&mut self, n: u64) {
        self.counters.soft_expired += n;
        if n > 0 {
            self.trace(TraceKind::SoftExpired { n });
        }
    }

    /// The active trace-category mask (see [`crate::trace`]); 0 when
    /// tracing is off. Protocols may branch on this to skip building
    /// trace-only arguments.
    #[inline]
    pub fn trace_mask(&self) -> u32 {
        self.trace_mask
    }

    /// Records a structured trace event attributed to the dispatched
    /// node. Buffered shard-locally; the commit merges buffers in
    /// deterministic `(time, node)` order, so the rendered trace is
    /// byte-identical at every thread count.
    #[inline]
    pub fn trace(&mut self, kind: TraceKind) {
        let node = self.current;
        self.trace_for(node, kind);
    }

    /// Records a structured trace event attributed to `node` (delivery
    /// milestones land at the receiver, not the dispatching node).
    #[inline]
    pub fn trace_for(&mut self, node: NodeId, kind: TraceKind) {
        if self.trace_mask & kind.category() != 0 {
            self.trace_buf.push(TraceEvent {
                at: self.now,
                node,
                kind,
            });
        }
    }
}

fn is_barrier<M>(kind: &EventKind<M>) -> bool {
    matches!(kind, EventKind::Fault(_) | EventKind::MobilityTick)
}

/// The sharded deterministic discrete-event simulator. See the [module
/// docs](self) for the determinism construction. `N` is the protocol's
/// per-node state, `M` its message type.
pub struct ParSimulator<N, M> {
    cfg: SimConfig,
    world: World,
    queue: EventQueue<M>,
    stats: Stats,
    /// Serial-phase RNG: draws the world's construction (mobility init,
    /// capability sampling) and forks mobility-tick streams. Never
    /// touched during the parallel phase.
    ctrl_rng: SimRng,
    mobility: Box<dyn Mobility>,
    now: SimTime,
    started: bool,
    threads: usize,
    num_shards: usize,
    shards: Vec<Shard<N, M>>,
    /// Node index -> (shard index, slot index within shard). Fixed at
    /// first run; migrating nodes keep their shard.
    node_map: Vec<(u32, u32)>,
    /// Indices of the shards marked active since the last commit, in
    /// first-touch order; drain and commit visit only these.
    active: Vec<u32>,
    /// `(shard, start)` of every shard the broadcast being routed
    /// reaches, where `start` is its first receiver's index in that
    /// shard's `window_receivers` (reused across broadcasts).
    route_spans: Vec<(u32, u32)>,
    wall_secs: f64,
    sim_secs: f64,
    /// Deterministic structured protocol trace (off by default).
    trace: Trace,
    /// Reusable merge buffer for shard trace buffers at commit.
    trace_scratch: Vec<TraceEvent>,
    /// Wall-clock phase/lane profile (aggregates always collected; two
    /// `Instant` reads per window when off — noise next to a drain).
    profile: EngineProfile,
    /// Whether to additionally retain per-occurrence [`PhaseSlice`]s.
    profile_detail: bool,
    /// Wall-clock origin of slice timestamps (first `run` call).
    profile_origin: Option<Instant>,
}

impl<N: Send, M: Clone + Send> ParSimulator<N, M> {
    /// Builds a parallel simulator over `shards` spatial shards, draining
    /// windows on up to `min(threads, shards)` lanes: the calling thread
    /// plus one worker thread per further lane, started by each
    /// [`ParSimulator::run`] call and joined before it returns (1 = fully
    /// inline, no thread). Any positive `threads` is accepted. World setup
    /// scatters nodes with the mobility model and assigns the
    /// `enhanced_fraction` of nodes the CH-capable hardware class, both
    /// drawn from the seed, so a given config yields the identical initial
    /// world at every shard and thread count.
    ///
    /// # Panics
    /// Panics if `shards == 0`, or if `cfg.radio.latency` is zero — the
    /// latency is the lookahead bound that makes same-window events
    /// causally independent.
    pub fn new(
        cfg: SimConfig,
        mut mobility: Box<dyn Mobility>,
        shards: usize,
        threads: usize,
    ) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            cfg.radio.latency > SimDuration::ZERO,
            "parallel engine needs radio.latency > 0 as its lookahead window"
        );
        let mut rng = SimRng::new(cfg.seed);
        let mut world = World::new(cfg.area, cfg.num_nodes, cfg.radio.range);
        let mut mobility_rng = rng.fork(0x4D4F42);
        mobility.init(&mut world, &mut mobility_rng);
        let n_enhanced =
            ((cfg.num_nodes as f64) * cfg.enhanced_fraction.clamp(0.0, 1.0)).round() as usize;
        let chosen = rng.sample_indices(cfg.num_nodes, n_enhanced.min(cfg.num_nodes));
        for i in chosen {
            world.set_capability(NodeId(i as u32), Capability::Enhanced);
        }
        let mut stats = Stats::new(cfg.num_nodes);
        stats.set_compact_delivery(cfg.compact_delivery);
        ParSimulator {
            cfg,
            world,
            queue: EventQueue::new(),
            stats,
            ctrl_rng: rng,
            mobility,
            now: SimTime::ZERO,
            started: false,
            threads: threads.max(1),
            num_shards: shards,
            shards: Vec::new(),
            node_map: Vec::new(),
            active: Vec::new(),
            route_spans: Vec::new(),
            wall_secs: 0.0,
            sim_secs: 0.0,
            trace: Trace::default(),
            trace_scratch: Vec::new(),
            profile: EngineProfile::default(),
            profile_detail: false,
            profile_origin: None,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The physical world (read-only).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable world access for scenario setup before the first `run`
    /// call (shards are partitioned from node positions at that point).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// The collected statistics, complete after each
    /// [`ParSimulator::run`] call — a pure function of
    /// `(config, shards, protocol)`, independent of `threads`.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Wall-clock seconds spent inside [`ParSimulator::run`] so far.
    pub fn wall_secs(&self) -> f64 {
        self.wall_secs
    }

    /// Simulated seconds covered by [`ParSimulator::run`] calls so far —
    /// the numerator that pairs with [`ParSimulator::wall_secs`] in
    /// [`crate::stats::sim_sec_per_wall_sec`]. Accumulated from the clock
    /// at each `run` entry, so resumed runs count every simulated second
    /// exactly once.
    pub fn sim_secs(&self) -> f64 {
        self.sim_secs
    }

    /// Enables (or reconfigures) the structured protocol trace. Call
    /// before `run`; reconfiguring resets the buffer. Tracing draws no
    /// randomness and never alters scheduling, so a run's statistics are
    /// bit-identical with tracing on or off, and the merged trace itself
    /// is byte-identical at every thread count.
    pub fn set_trace(&mut self, cfg: TraceConfig) {
        self.trace.configure(cfg);
        let mask = self.trace.mask();
        for shard in &mut self.shards {
            shard.trace_mask = mask;
        }
    }

    /// Read access to the recorded structured trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Enables per-occurrence [`PhaseSlice`] retention (for Chrome
    /// trace-event export) on top of the always-on phase aggregates.
    pub fn set_profile_detail(&mut self, on: bool) {
        self.profile_detail = on;
    }

    /// The wall-clock engine profile collected so far. Non-deterministic
    /// (wall-clock readings): never feed it into golden comparisons.
    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    /// Every node's id and protocol state, in ascending id order (empty
    /// before the first `run` call).
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &N)> + '_ {
        let n = if self.started { self.node_map.len() } else { 0 };
        (0..n as u32).map(|i| {
            let (s, j) = self.node_map[i as usize];
            (NodeId(i), &self.shards[s as usize].slots[j as usize].node)
        })
    }

    /// Read access to node `id`'s protocol state, or `None` before the
    /// first `run` call.
    pub fn node_state(&self, id: NodeId) -> Option<&N> {
        if !self.started {
            return None;
        }
        let (s, i) = self.node_map[id.idx()];
        Some(&self.shards[s as usize].slots[i as usize].node)
    }

    /// Injects one fault into the schedule — the single entry point of
    /// the fault plane ([`crate::fault`]). Every fault kind runs as a
    /// serial barrier between lookahead windows, so outcomes stay
    /// independent of the thread count.
    pub fn inject(&mut self, ev: FaultEvent) {
        self.queue.push(ev.at, EventKind::Fault(ev.kind));
    }

    /// Injects every event of a declarative [`FaultPlan`], in plan
    /// order (ties at the same instant keep plan order).
    pub fn inject_plan(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            self.inject(ev.clone());
        }
    }

    /// Partitions nodes into shards by spatial cell: distinct cell keys
    /// are sorted and round-robined over the shard count, so spatially
    /// coherent nodes share a shard and the assignment is a pure function
    /// of node positions.
    fn build_shards<P: ParProtocol<Msg = M, Node = N>>(&mut self, proto: &P) {
        let mut cells: Vec<(i32, i32)> =
            self.world.ids().map(|id| self.world.cell_of(id)).collect();
        cells.sort_unstable();
        cells.dedup();
        let k = self.num_shards;
        let cell_shard: FxHashMap<(i32, i32), u32> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| (*c, (i % k) as u32))
            .collect();
        self.shards = (0..k).map(|_| Shard::new()).collect();
        self.node_map = vec![(0, 0); self.world.len()];
        for id in self.world.ids() {
            let s = cell_shard[&self.world.cell_of(id)];
            let shard = &mut self.shards[s as usize];
            self.node_map[id.idx()] = (s, shard.slots.len() as u32);
            shard.slots.push(ParSlot {
                id,
                busy_until: SimTime::ZERO,
                rng: Rng64::new(flow_seed(self.cfg.seed ^ NODE_STREAM_SALT, id.0)),
                node: proto.make_node(id, &self.world),
            });
        }
        for shard in &mut self.shards {
            shard.counters = ShardCounters::new(shard.slots.len());
        }
    }

    /// Routes one popped window event to its target shard's task list.
    fn route(&mut self, ev: Scheduled<M>) {
        let at = ev.time;
        match ev.kind {
            EventKind::Deliver { to, from, msg } => {
                let s = self.node_map[to.idx()].0 as usize;
                let shard = &mut self.shards[s];
                shard.mark_active(s, &mut self.active);
                shard.tasks.push(Task::Deliver { at, to, from, msg });
            }
            EventKind::DeliverMany { mut to, from, msg } => {
                // Copy each receiver into its shard's window buffer, in
                // list (= ascending id) order, noting where each touched
                // shard's run starts.
                let spans = &mut self.route_spans;
                for &n in &to {
                    let s = self.node_map[n.idx()].0;
                    let shard = &mut self.shards[s as usize];
                    if !shard.in_span {
                        shard.in_span = true;
                        spans.push((s, shard.window_receivers.len() as u32));
                    }
                    shard.window_receivers.push(n);
                }
                // One task per touched shard: clones of the payload for
                // all but the last, which takes it.
                let mut payload = Some(msg);
                let last = spans.len() - 1;
                for (i, (s, start)) in spans.drain(..).enumerate() {
                    let shard = &mut self.shards[s as usize];
                    shard.in_span = false;
                    shard.mark_active(s as usize, &mut self.active);
                    let msg = if i == last {
                        payload.take().expect("payload taken before last shard")
                    } else {
                        payload
                            .as_ref()
                            .expect("payload taken before last shard")
                            .clone()
                    };
                    shard.tasks.push(Task::DeliverSlice {
                        at,
                        from,
                        receivers: start..shard.window_receivers.len() as u32,
                        msg,
                    });
                }
                // The list goes back to the pool it was popped from.
                to.clear();
                let sender = self.node_map[from.idx()].0 as usize;
                self.shards[sender].recv_pool.push(to);
            }
            EventKind::Timer { node, tag } => {
                let s = self.node_map[node.idx()].0 as usize;
                let shard = &mut self.shards[s];
                shard.mark_active(s, &mut self.active);
                shard.tasks.push(Task::Timer { at, node, tag });
            }
            EventKind::Fault(_) | EventKind::MobilityTick => {
                unreachable!("barrier events are handled serially")
            }
        }
    }

    /// Drains the active shards' task lists: inline on the calling thread
    /// without a lane team, else each lane drains the active shards of its
    /// contiguous chunk, lane 0 on the calling thread and the others on
    /// their workers ([`Lanes::run`]). Which lane runs which shard is
    /// invisible: shards touch only shard-local state plus the frozen
    /// world.
    fn drain_shards<P: ParProtocol<Msg = M, Node = N>>(
        &mut self,
        proto: &P,
        team: Option<&Lanes<'_>>,
    ) {
        let world = &self.world;
        let radio = &self.cfg.radio;
        let map = self.node_map.as_slice();
        let origin = self.profile_origin.unwrap_or_else(Instant::now);
        let Some(team) = team else {
            let t0 = Instant::now();
            for &s in &self.active {
                self.shards[s as usize].drain(proto, world, radio, map);
            }
            let lane_times = [(t0.saturating_duration_since(origin), t0.elapsed())];
            self.fold_lane_times(&lane_times);
            return;
        };
        let chunk = lane_chunk(self.threads, self.shards.len());
        // One (start, busy) slot per lane, written by exactly one job
        // each — profiling only observes the lanes, it never feeds back
        // into shard execution.
        let mut lane_times = vec![(Duration::ZERO, Duration::ZERO); team.count()];
        let mut drains: Vec<_> = self
            .shards
            .chunks_mut(chunk)
            .zip(lane_times.iter_mut())
            .map(|(group, slot)| {
                move || {
                    let t0 = Instant::now();
                    for shard in group.iter_mut().filter(|s| s.active) {
                        shard.drain(proto, world, radio, map);
                    }
                    *slot = (t0.saturating_duration_since(origin), t0.elapsed());
                }
            })
            .collect();
        team.run(&mut drains);
        self.fold_lane_times(&lane_times);
    }

    /// Folds per-lane `(start-since-origin, busy)` readings into the
    /// profile's lane aggregates (and slices when detail is on).
    fn fold_lane_times(&mut self, lane_times: &[(Duration, Duration)]) {
        if self.profile.lane_busy_secs.len() < lane_times.len() {
            self.profile.lane_busy_secs.resize(lane_times.len(), 0.0);
        }
        for (lane, &(start, busy)) in lane_times.iter().enumerate() {
            self.profile.lane_busy_secs[lane] += busy.as_secs_f64();
            if self.profile_detail && !busy.is_zero() {
                self.profile.push_slice(
                    "lane",
                    lane as u32,
                    start.as_micros() as u64,
                    busy.as_micros() as u64,
                );
            }
        }
    }

    /// Adds one timed phase occurrence to the profile aggregates (and the
    /// slice list when detail is on).
    fn note_phase(&mut self, phase: &'static str, t0: Instant) {
        let dur = t0.elapsed();
        match phase {
            "drain" => self.profile.drain_secs += dur.as_secs_f64(),
            "commit" => self.profile.commit_secs += dur.as_secs_f64(),
            "barrier" => self.profile.barrier_secs += dur.as_secs_f64(),
            _ => {}
        }
        if self.profile_detail {
            let origin = self.profile_origin.unwrap_or(t0);
            self.profile.push_slice(
                phase,
                u32::MAX,
                t0.saturating_duration_since(origin).as_micros() as u64,
                dur.as_micros() as u64,
            );
        }
    }

    /// The deterministic ordered commit: in shard-index order, pushes
    /// every active shard's outbox onto the queue in dispatch order (so
    /// the queue's `seq` breaks same-instant ties by shard index, then
    /// dispatch order) and replays its origin and delivery records, then
    /// merges the trace and clears the active set. Counters stay in the
    /// shards until [`ParSimulator::run`] returns. Inactive shards hold
    /// no output and are never visited.
    fn commit(&mut self) {
        let shards = &mut self.shards;
        let queue = &mut self.queue;
        let stats = &mut self.stats;
        self.active.sort_unstable();
        for &s in &self.active {
            let shard = &mut shards[s as usize];
            shard.active = false;
            for (time, kind) in shard.outbox.drain(..) {
                queue.push(time, kind);
            }
            for op in shard.ops.drain(..) {
                match op {
                    StatOp::OriginFlow {
                        data_id,
                        at,
                        expected,
                        flow,
                        seq,
                    } => stats.record_origin_flow(data_id, at, expected, flow, seq),
                    StatOp::DeliveryHops {
                        data_id,
                        node,
                        at,
                        hops,
                    } => stats.record_delivery_hops(data_id, node, at, hops),
                }
            }
        }
        if self.trace.mask() != 0 {
            // Merge shard trace buffers deterministically: stable sort by
            // (time, node) — a node lives in exactly one shard, so ties
            // keep each node's own emission order and the merged trace is
            // independent of shard drain interleaving.
            let mut merged = std::mem::take(&mut self.trace_scratch);
            for &s in &self.active {
                merged.append(&mut self.shards[s as usize].trace_buf);
            }
            merged.sort_by_key(|e| (e.at, e.node.0));
            for ev in merged.drain(..) {
                self.trace.push(ev);
            }
            self.trace_scratch = merged;
        }
        self.active.clear();
    }

    /// Runs a barrier's callback `f` on `node` at the barrier's instant and
    /// marks the node's shard active, so the barrier's commit pushes what
    /// the callback sent.
    fn node_callback(&mut self, node: NodeId, f: impl FnOnce(NodeId, &mut N, &mut ParCtx<'_, M>)) {
        let (s, i) = self.node_map[node.idx()];
        let shard = &mut self.shards[s as usize];
        shard.mark_active(s as usize, &mut self.active);
        shard.with_slot(i as usize, self.now, &self.world, &self.cfg.radio, f);
    }

    /// Processes one barrier event serially with full `&mut World`
    /// access, then commits any callback output immediately.
    fn barrier<P: ParProtocol<Msg = M, Node = N>>(&mut self, proto: &P, ev: Scheduled<M>) {
        self.now = ev.time;
        match ev.kind {
            EventKind::Fault(kind) => {
                // One fault event = one processed event, however many
                // nodes it touches — keeps the events/s denominator
                // comparable across fault plans.
                self.stats.events_processed += 1;
                // The engine records every injection in the trace itself,
                // before any callback it triggers: scripted and RNG-free,
                // so the FAULT category is one line per plan event.
                match kind {
                    FaultKind::Fail(node) => {
                        self.trace.record(self.now, node, TraceKind::NodeFailed);
                        self.world.set_alive(node, false);
                        self.node_callback(node, |id, n, ctx| proto.on_fail(id, n, ctx));
                        self.commit();
                    }
                    FaultKind::Recover(node) => {
                        self.trace.record(self.now, node, TraceKind::NodeRecovered);
                        self.world.set_alive(node, true);
                        self.node_callback(node, |id, n, ctx| {
                            // The recovered radio starts idle.
                            *ctx.busy_until = ctx.now;
                            proto.on_recover(id, n, ctx)
                        });
                        self.commit();
                    }
                    FaultKind::Partition(groups) => {
                        self.trace.record(
                            self.now,
                            trace::GLOBAL_NODE,
                            TraceKind::PartitionApplied {
                                islands: groups.len() as u32,
                            },
                        );
                        self.world.apply_partition(&groups);
                    }
                    FaultKind::Heal => {
                        self.trace
                            .record(self.now, trace::GLOBAL_NODE, TraceKind::PartitionHealed);
                        self.world.heal_partition();
                    }
                    FaultKind::FailRegion { center, radius } => {
                        // Victims fail together in ascending id order;
                        // one commit seals all their callbacks' output.
                        let mut victims = Vec::new();
                        let mut raw = Vec::new();
                        self.world
                            .nodes_near_into(center, radius, &mut victims, &mut raw);
                        self.trace.record(
                            self.now,
                            trace::GLOBAL_NODE,
                            TraceKind::RegionFailed {
                                victims: victims.len() as u32,
                            },
                        );
                        for node in victims {
                            self.world.set_alive(node, false);
                            self.node_callback(node, |id, n, ctx| proto.on_fail(id, n, ctx));
                        }
                        self.commit();
                    }
                    FaultKind::Byzantine { node, mode } => {
                        self.trace.record(
                            self.now,
                            node,
                            TraceKind::ByzantineSet { mode: mode.code() },
                        );
                        if matches!(mode, ByzantineMode::BogusCandidacy { .. }) {
                            self.world.set_capability(node, Capability::Enhanced);
                        }
                        self.world.set_byzantine(node, Some(mode));
                    }
                    FaultKind::ClockSkew { node, skew_us } => {
                        self.trace
                            .record(self.now, node, TraceKind::ClockSkewSet { skew_us });
                        self.world.set_clock_skew_us(node, skew_us);
                    }
                    FaultKind::PositionError { node, error } => {
                        self.trace
                            .record(self.now, node, TraceKind::PositionErrorSet);
                        self.world.set_position_error(node, error);
                    }
                }
            }
            EventKind::MobilityTick => {
                self.stats.events_processed += 1;
                let dt = self.cfg.mobility_tick.as_secs_f64();
                let mut mrng = self.ctrl_rng.fork(0x7160);
                self.mobility.step(dt, &mut self.world, &mut mrng);
                self.queue
                    .push(self.now + self.cfg.mobility_tick, EventKind::MobilityTick);
            }
            _ => unreachable!("non-barrier event routed to barrier"),
        }
    }

    /// Runs the simulation until `until` (inclusive), dispatching windows
    /// of causally independent events shard-parallel and committing each
    /// window deterministically. May be called repeatedly with increasing
    /// horizons; shard construction and node start-up happen on the first
    /// call. Before it returns, every shard's counters are folded into
    /// [`ParSimulator::stats`]. With more than one lane the call starts the
    /// lane workers and joins them before it returns; a panic on any lane
    /// is raised again here once every lane has stopped.
    pub fn run<P: ParProtocol<Msg = M, Node = N>>(&mut self, proto: &P, until: SimTime) {
        let wall_start = Instant::now();
        if self.profile_origin.is_none() {
            self.profile_origin = Some(wall_start);
        }
        let entry = self.now;
        match lane_count(self.threads, self.num_shards) {
            1 => self.run_windows(proto, until, None),
            n => lanes::with_lanes(n, |team| self.run_windows(proto, until, Some(team))),
        }
        for shard in &mut self.shards {
            self.stats
                .fold(&mut shard.counters, shard.slots.iter().map(|slot| slot.id));
        }
        self.now = until.max(self.now);
        self.sim_secs += self.now.since(entry).as_secs_f64();
        self.wall_secs += wall_start.elapsed().as_secs_f64();
    }

    /// The body of [`ParSimulator::run`]: start-up on the first call, then
    /// barriers and windows up to `until`, drained on `team`'s lanes.
    fn run_windows<P: ParProtocol<Msg = M, Node = N>>(
        &mut self,
        proto: &P,
        until: SimTime,
        team: Option<&Lanes<'_>>,
    ) {
        if !self.started {
            self.started = true;
            self.build_shards(proto);
            let mask = self.trace.mask();
            for shard in &mut self.shards {
                shard.trace_mask = mask;
            }
            if self.cfg.mobility_tick > SimDuration::ZERO {
                self.queue.push(
                    SimTime::ZERO + self.cfg.mobility_tick,
                    EventKind::MobilityTick,
                );
            }
            for id in self.world.ids() {
                let s = self.node_map[id.idx()].0 as usize;
                let shard = &mut self.shards[s];
                shard.mark_active(s, &mut self.active);
                shard.tasks.push(Task::Start { node: id });
            }
            let t0 = Instant::now();
            self.drain_shards(proto, team);
            self.note_phase("drain", t0);
            let t1 = Instant::now();
            self.commit();
            self.note_phase("commit", t1);
            self.profile.windows += 1;
            // The boot outboxes held every node's start-up timers, which
            // now sit in the queue; kept, their capacity would lie idle
            // beside the heap for the whole run.
            for shard in &mut self.shards {
                shard.outbox = Vec::new();
            }
        }
        let delta = self.cfg.radio.latency;
        loop {
            let (head_time, head_is_barrier) = match self.queue.peek() {
                Some(s) if s.time <= until => (s.time, is_barrier(&s.kind)),
                _ => break,
            };
            if head_is_barrier {
                let ev = self.queue.pop().expect("peeked event vanished");
                let t0 = Instant::now();
                self.barrier(proto, ev);
                self.note_phase("barrier", t0);
                self.profile.barriers += 1;
                continue;
            }
            // Collect the lookahead window [head_time, head_time + delta),
            // stopping early at the horizon or the first barrier.
            let window_end = head_time + delta;
            loop {
                let take = match self.queue.peek() {
                    Some(s) => s.time <= until && s.time < window_end && !is_barrier(&s.kind),
                    None => false,
                };
                if !take {
                    break;
                }
                let ev = self.queue.pop().expect("peeked event vanished");
                self.now = ev.time;
                self.route(ev);
            }
            // Serial, and a no-op unless a position moved since the last
            // build. The start-up drain above stays on the index path, so
            // set-up never pays for a build.
            self.world.refresh_adjacency();
            let t0 = Instant::now();
            self.drain_shards(proto, team);
            self.note_phase("drain", t0);
            let t1 = Instant::now();
            self.commit();
            self.note_phase("commit", t1);
            self.profile.windows += 1;
        }
    }
}

/// Shards per lane when `threads` lanes drain `shards` shards: contiguous
/// chunks of `⌈shards / min(threads, shards)⌉`.
fn lane_chunk(threads: usize, shards: usize) -> usize {
    shards.div_ceil(threads.clamp(1, shards))
}

/// Lanes that drain `shards` shards at `threads` threads: one per chunk of
/// [`lane_chunk`], so never more than `min(threads, shards)`. A `run` call
/// starts one OS thread for every lane but the first.
fn lane_count(threads: usize, shards: usize) -> usize {
    shards.div_ceil(lane_chunk(threads, shards))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::{RandomWaypoint, Stationary};
    use hvdb_geo::Aabb;
    use hvdb_traffic::FLOW_NONE;
    use rustc_hash::FxHashSet;
    use std::collections::BTreeMap;

    fn grid_cfg(n_side: u32, seed: u64) -> SimConfig {
        let spacing = 150.0;
        let side = n_side as f64 * spacing;
        SimConfig {
            area: Aabb::from_size(side, side),
            num_nodes: (n_side * n_side) as usize,
            radio: RadioConfig {
                range: 250.0,
                ..Default::default()
            },
            mobility_tick: SimDuration::ZERO,
            enhanced_fraction: 1.0,
            seed,
            compact_delivery: false,
        }
    }

    fn place_grid<N, M: Clone + Send>(sim: &mut ParSimulator<N, M>, n_side: u32)
    where
        N: Send,
    {
        let spacing = 150.0;
        for r in 0..n_side {
            for c in 0..n_side {
                let id = NodeId(r * n_side + c);
                let p = Point::new(c as f64 * spacing + 10.0, r as f64 * spacing + 10.0);
                sim.world_mut().set_motion(id, p, Vec2::ZERO);
            }
        }
        sim.world_mut().rebuild_index();
    }

    /// A chatty gossip protocol exercising broadcast, per-node RNG,
    /// jittered timers and origin/delivery records.
    #[derive(Clone)]
    struct GossipMsg {
        origin: NodeId,
        ttl: u32,
    }

    struct Gossip {
        ttl: u32,
    }

    #[derive(Default)]
    struct GossipNode {
        heard: u32,
        relayed: FxHashSet<(u32, u32)>,
    }

    impl ParProtocol for Gossip {
        type Msg = GossipMsg;
        type Node = GossipNode;

        fn make_node(&self, _id: NodeId, _world: &World) -> GossipNode {
            GossipNode::default()
        }

        fn on_start(&self, id: NodeId, _node: &mut GossipNode, ctx: &mut ParCtx<'_, GossipMsg>) {
            ctx.broadcast(
                id,
                "gossip",
                64,
                GossipMsg {
                    origin: id,
                    ttl: self.ttl,
                },
            );
            ctx.set_timer_jittered(
                id,
                SimDuration::from_millis(400),
                SimDuration::from_millis(200),
                1,
            );
        }

        fn on_message(
            &self,
            id: NodeId,
            node: &mut GossipNode,
            _from: NodeId,
            msg: GossipMsg,
            ctx: &mut ParCtx<'_, GossipMsg>,
        ) {
            node.heard += 1;
            // Trace-only milestone: exercises the shard-buffer merge path
            // without touching statistics.
            ctx.trace(TraceKind::Delivered { hops: msg.ttl });
            if msg.ttl > 0 && node.relayed.insert((msg.origin.0, msg.ttl)) {
                ctx.broadcast(
                    id,
                    "gossip",
                    64,
                    GossipMsg {
                        origin: msg.origin,
                        ttl: msg.ttl - 1,
                    },
                );
            }
        }

        fn on_timer(
            &self,
            id: NodeId,
            _node: &mut GossipNode,
            _tag: u64,
            ctx: &mut ParCtx<'_, GossipMsg>,
        ) {
            if ctx.rng().chance(0.5) {
                ctx.broadcast(id, "probe", 32, GossipMsg { origin: id, ttl: 0 });
            }
            ctx.set_timer_jittered(
                id,
                SimDuration::from_millis(400),
                SimDuration::from_millis(200),
                1,
            );
        }
    }

    /// Whether a lane other than the calling thread's drained windows.
    /// Output comparisons alone would also pass an engine that quietly
    /// drained every window inline.
    fn worker_lanes_drained(p: &EngineProfile) -> bool {
        p.lane_busy_secs.iter().skip(1).any(|s| *s > 0.0)
    }

    /// The gossip grid's stats rendering and messages heard, plus whether
    /// worker lanes drained windows.
    fn run_gossip_grid(threads: usize, shards: usize) -> (String, u64, bool) {
        let mut sim: ParSimulator<GossipNode, GossipMsg> =
            ParSimulator::new(grid_cfg(6, 7), Box::new(Stationary), shards, threads);
        place_grid(&mut sim, 6);
        sim.run(&Gossip { ttl: 3 }, SimTime::from_secs(3));
        let heard: u64 = sim
            .world()
            .ids()
            .map(|id| sim.node_state(id).unwrap().heard as u64)
            .sum();
        (
            format!("{:?}", sim.stats()),
            heard,
            worker_lanes_drained(sim.profile()),
        )
    }

    #[test]
    fn thread_count_is_invisible() {
        // The tentpole proof obligation: threads=8 output is byte-identical
        // to threads=1 (same shard count), and so is every lane count in
        // between.
        let (s1, h1, _) = run_gossip_grid(1, 16);
        let (s2, h2, l2) = run_gossip_grid(2, 16);
        let (s4, h4, l4) = run_gossip_grid(4, 16);
        let (s8, h8, l8) = run_gossip_grid(8, 16);
        assert!(h1 > 0, "gossip must actually flow");
        assert_eq!(h1, h2);
        assert_eq!(h1, h4);
        assert_eq!(h1, h8);
        assert_eq!(s1, s2, "threads=2 diverged from threads=1");
        assert_eq!(s1, s4, "threads=4 diverged from threads=1");
        assert_eq!(s1, s8, "threads=8 diverged from threads=1");
        assert!(l2 && l4 && l8, "a worker lane never drained a window");
    }

    #[test]
    fn lane_count_is_capped_by_threads_and_shards() {
        // `hvdb-bench run --threads N` takes any positive `usize`, and
        // every lane but the first is an OS thread: the cap is the shard
        // count, checked here without starting a thread.
        assert_eq!(lane_count(usize::MAX, 64), 64);
        assert_eq!(lane_count(65, 64), 64);
        assert_eq!(lane_count(1, 64), 1);
        assert_eq!(lane_count(2, 64), 2);
        assert_eq!(lane_count(8, 1), 1);
        // Contiguous chunks of ⌈9 / 4⌉ = 3 shards make 3 lanes, not 4.
        assert_eq!(lane_count(4, 9), 3);
    }

    /// Sets a 5 ms timer per node and panics in the timer of node `.0`.
    struct PanicAt(Option<NodeId>);

    impl ParProtocol for PanicAt {
        type Msg = u8;
        type Node = ();

        fn make_node(&self, _id: NodeId, _world: &World) {}

        fn on_start(&self, id: NodeId, _node: &mut (), ctx: &mut ParCtx<'_, u8>) {
            ctx.set_timer(id, SimDuration::from_millis(5), 0);
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

        fn on_timer(&self, id: NodeId, _node: &mut (), _tag: u64, _ctx: &mut ParCtx<'_, u8>) {
            if self.0 == Some(id) {
                panic!("injected lane panic");
            }
        }
    }

    #[test]
    fn lane_panic_reaches_the_caller() {
        let expected = run_gossip_grid(2, 16);
        let chunk = lane_chunk(2, 16);
        // A victim on the worker lane (shards chunk..16), then one on the
        // caller's own lane (shards 0..chunk): either way `run` must raise
        // the handler's panic instead of waiting on the countdown.
        for worker_lane in [true, false] {
            let mut sim: ParSimulator<(), u8> =
                ParSimulator::new(grid_cfg(6, 7), Box::new(Stationary), 16, 2);
            place_grid(&mut sim, 6);
            sim.run(&PanicAt(None), SimTime::ZERO);
            let victim = sim
                .world()
                .ids()
                .find(|&id| (sim.node_map[id.idx()].0 as usize >= chunk) == worker_lane)
                .expect("both lanes hold nodes");
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.run(&PanicAt(Some(victim)), SimTime::from_millis(10));
            }));
            let payload = caught.expect_err("the lane's panic must surface from run");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"injected lane panic"),
                "run raised something other than the handler's panic"
            );
        }
        assert_eq!(
            run_gossip_grid(2, 16),
            expected,
            "a fresh simulator after a lane panic diverged"
        );
    }

    /// The full fault-plane schedule: every [`FaultKind`] fires mid-run,
    /// with the partition+heal pair straddling many lookahead windows
    /// (odd microsecond timestamps, nowhere near window boundaries).
    fn run_faulted_gossip(threads: usize) -> (String, String, bool) {
        let mut sim: ParSimulator<GossipNode, GossipMsg> =
            ParSimulator::new(grid_cfg(6, 13), Box::new(Stationary), 16, threads);
        sim.set_trace(TraceConfig::all());
        place_grid(&mut sim, 6);
        let left: Vec<NodeId> = (0..18).map(NodeId).collect();
        let right: Vec<NodeId> = (18..36).map(NodeId).collect();
        let plan = FaultPlan::new()
            .byzantine(
                SimTime::from_millis(200),
                NodeId(5),
                ByzantineMode::SelectiveForward { drop_prob: 1.0 },
            )
            .byzantine(
                SimTime::from_millis(200),
                NodeId(7),
                ByzantineMode::ReplayStale {
                    delay: SimDuration::from_millis(700),
                },
            )
            .byzantine(
                SimTime::from_millis(200),
                NodeId(9),
                ByzantineMode::BogusCandidacy { drop_prob: 0.5 },
            )
            .clock_skew(SimTime::from_millis(300), NodeId(3), -40_000)
            .position_error(SimTime::from_millis(300), NodeId(4), Vec2::new(20.0, -15.0))
            .partition(SimTime(512_345), vec![left, right])
            .fail(SimTime::from_secs(1), NodeId(20))
            .heal(SimTime(1_499_777))
            .recover(SimTime::from_secs(2), NodeId(20))
            .fail_region(SimTime(2_250_101), Point::new(450.0, 450.0), 200.0);
        sim.inject_plan(&plan);
        sim.run(&Gossip { ttl: 3 }, SimTime::from_secs(3));
        assert!(
            sim.stats().drops_partitioned > 0,
            "the partition never bit: no cross-island traffic was cut"
        );
        assert!(
            sim.stats().byzantine_dropped > 0,
            "selective forwarding never dropped a frame"
        );
        assert!(
            sim.stats().byzantine_replayed > 0,
            "replay-stale never duplicated a frame"
        );
        assert_eq!(sim.world().capability(NodeId(9)), Capability::Enhanced);
        (
            format!("{:?}", sim.stats()),
            sim.trace().render(),
            worker_lanes_drained(sim.profile()),
        )
    }

    #[test]
    fn every_fault_kind_is_thread_invisible() {
        // The tentpole acceptance bar: the whole fault family — partition
        // + heal straddling lookahead windows, regional outage, all three
        // Byzantine modes, clock and position error, fail/recover — with
        // stats AND the rendered structured trace byte-identical at
        // threads 1, 2, 4 and 8.
        let (s1, t1, _) = run_faulted_gossip(1);
        let (s2, t2, l2) = run_faulted_gossip(2);
        let (s4, t4, l4) = run_faulted_gossip(4);
        let (s8, t8, l8) = run_faulted_gossip(8);
        assert!(l2 && l4 && l8, "a worker lane never drained a window");
        assert_eq!(s1, s2, "threads=2 diverged under fault injection");
        assert_eq!(s1, s4, "threads=4 diverged under fault injection");
        assert_eq!(s1, s8, "threads=8 diverged under fault injection");
        assert!(!t1.is_empty(), "trace must have recorded fault events");
        assert_eq!(t1, t2, "threads=2 trace diverged under fault injection");
        assert_eq!(t1, t4, "threads=4 trace diverged under fault injection");
        assert_eq!(t1, t8, "threads=8 trace diverged under fault injection");
    }

    #[test]
    fn tracing_is_observation_only() {
        // Tracing draws no randomness and never alters scheduling: a
        // traced run's statistics are byte-identical to an untraced one,
        // and an untraced run records nothing.
        let mut traced: ParSimulator<GossipNode, GossipMsg> =
            ParSimulator::new(grid_cfg(6, 7), Box::new(Stationary), 16, 2);
        traced.set_trace(TraceConfig::all());
        place_grid(&mut traced, 6);
        traced.run(&Gossip { ttl: 3 }, SimTime::from_secs(3));
        assert!(!traced.trace().is_empty(), "traced run must record events");
        let (untraced_stats, _, _) = run_gossip_grid(2, 16);
        assert_eq!(
            format!("{:?}", traced.stats()),
            untraced_stats,
            "tracing changed simulation outcomes"
        );
        let mut off: ParSimulator<GossipNode, GossipMsg> =
            ParSimulator::new(grid_cfg(6, 7), Box::new(Stationary), 16, 2);
        place_grid(&mut off, 6);
        off.run(&Gossip { ttl: 3 }, SimTime::from_secs(3));
        assert!(off.trace().is_empty(), "untraced run must record nothing");
    }

    #[test]
    fn profiler_counts_windows_and_lanes() {
        let mut sim: ParSimulator<GossipNode, GossipMsg> =
            ParSimulator::new(grid_cfg(6, 7), Box::new(Stationary), 16, 4);
        sim.set_profile_detail(true);
        place_grid(&mut sim, 6);
        sim.run(&Gossip { ttl: 3 }, SimTime::from_secs(3));
        let p = sim.profile();
        assert!(p.windows > 0, "windows must have been committed");
        assert!(p.drain_secs >= 0.0 && p.commit_secs >= 0.0);
        assert!(
            !p.lane_busy_secs.is_empty(),
            "lane busy time must be recorded"
        );
        assert!(p.lane_imbalance() >= 1.0);
        assert!(
            p.slices.iter().any(|s| s.phase == "drain")
                && p.slices.iter().any(|s| s.phase == "commit")
                && p.slices.iter().any(|s| s.phase == "lane"),
            "detailed slices must cover drain/commit/lane phases"
        );
    }

    #[test]
    fn mobility_migration_keeps_determinism() {
        // Nodes cross cells mid-run under random waypoint; migrating
        // nodes keep their shard, and thread count stays invisible.
        let run = |threads: usize| {
            let mut cfg = grid_cfg(6, 11);
            cfg.mobility_tick = SimDuration::from_secs(1);
            let mut sim: ParSimulator<GossipNode, GossipMsg> = ParSimulator::new(
                cfg,
                Box::new(RandomWaypoint::new(20.0, 60.0, 0.2)),
                8,
                threads,
            );
            let before: Vec<(i32, i32)> = sim
                .world()
                .ids()
                .map(|id| sim.world().cell_of(id))
                .collect();
            sim.run(&Gossip { ttl: 2 }, SimTime::from_secs(8));
            let after: Vec<(i32, i32)> = sim
                .world()
                .ids()
                .map(|id| sim.world().cell_of(id))
                .collect();
            (format!("{:?}", sim.stats()), before != after)
        };
        let (s1, moved1) = run(1);
        let (s4, moved4) = run(4);
        assert!(moved1, "waypoint mobility must move nodes across cells");
        assert!(moved4);
        assert_eq!(s1, s4, "mid-run cell migration broke thread invariance");
    }

    /// On every timer, checks that `with_neighbors` returns the unit disk
    /// a brute-force scan over the handler's own view of the world finds;
    /// the node state counts the checks.
    struct DiskCheck;

    impl DiskCheck {
        fn arm(id: NodeId, ctx: &mut ParCtx<'_, u8>) {
            ctx.set_timer_jittered(
                id,
                SimDuration::from_millis(60),
                SimDuration::from_millis(80),
                0,
            );
        }
    }

    impl ParProtocol for DiskCheck {
        type Msg = u8;
        type Node = u32;

        fn make_node(&self, _id: NodeId, _world: &World) -> u32 {
            0
        }

        fn on_start(&self, id: NodeId, _checks: &mut u32, ctx: &mut ParCtx<'_, u8>) {
            Self::arm(id, ctx);
        }

        fn on_message(
            &self,
            _id: NodeId,
            _checks: &mut u32,
            _from: NodeId,
            _msg: u8,
            _ctx: &mut ParCtx<'_, u8>,
        ) {
        }

        fn on_timer(&self, id: NodeId, checks: &mut u32, _tag: u64, ctx: &mut ParCtx<'_, u8>) {
            let range_sq = ctx.radio_range() * ctx.radio_range();
            let here = ctx.position(id);
            let want: Vec<NodeId> = (0..ctx.node_count() as u32)
                .map(NodeId)
                .filter(|&j| {
                    j != id && ctx.is_alive(j) && here.distance_sq(ctx.position(j)) <= range_sq
                })
                .collect();
            let now = ctx.now();
            ctx.with_neighbors(id, |_, got| {
                assert_eq!(got, want, "{id:?}'s neighbours at {now:?}");
            });
            *checks += 1;
            Self::arm(id, ctx);
        }

        fn on_recover(&self, id: NodeId, _checks: &mut u32, ctx: &mut ParCtx<'_, u8>) {
            Self::arm(id, ctx);
        }
    }

    /// Runs [`DiskCheck`] for 5 s on the 36-node grid under `mobility`
    /// with a mobility tick each second, a fail/recover pair and a
    /// regional outage; returns the checks made and whether the world
    /// ended with a fresh adjacency table.
    fn run_disk_check(mobility: Box<dyn Mobility>, threads: usize) -> (u64, bool) {
        let mut cfg = grid_cfg(6, 17);
        cfg.mobility_tick = SimDuration::from_secs(1);
        let mut sim: ParSimulator<u32, u8> = ParSimulator::new(cfg, mobility, 8, threads);
        let plan = FaultPlan::new()
            .fail(SimTime(1_300_017), NodeId(14))
            .fail(SimTime(1_300_017), NodeId(21))
            .recover(SimTime(2_600_003), NodeId(14))
            .fail_region(SimTime(3_100_041), Point::new(450.0, 450.0), 200.0);
        sim.inject_plan(&plan);
        sim.run(&DiskCheck, SimTime::from_secs(5));
        let checks = sim
            .world()
            .ids()
            .map(|id| *sim.node_state(id).unwrap() as u64);
        (checks.sum(), sim.world().adjacency_fresh())
    }

    #[test]
    fn neighbour_table_is_refreshed_before_every_drain() {
        // Under random waypoint, every tick moves nodes between windows
        // and the fault plan flips liveness: a table read while stale, or
        // a liveness baked into it, shows up as a mismatch in a handler.
        let mobile =
            |threads| run_disk_check(Box::new(RandomWaypoint::new(20.0, 60.0, 0.2)), threads);
        let (checks1, _) = mobile(1);
        let (checks2, _) = mobile(2);
        assert!(checks1 > 1_000, "only {checks1} neighbour checks ran");
        assert_eq!(checks1, checks2, "thread count changed the checks made");
        // A static run builds the table once after start-up and never
        // stales it, so its drains read the table, not the index.
        for threads in [1, 2] {
            let (checks, fresh) = run_disk_check(Box::new(Stationary), threads);
            assert!(checks > 1_000);
            assert!(fresh, "a static run must end on a fresh table");
        }
    }

    /// One unicast from node 0 to node 1 at start; jitter and loss
    /// disabled so the arrival instant is exact.
    struct OneShot;

    #[derive(Default)]
    struct OneShotNode {
        got: u32,
    }

    impl ParProtocol for OneShot {
        type Msg = u8;
        type Node = OneShotNode;

        fn make_node(&self, _id: NodeId, _world: &World) -> OneShotNode {
            OneShotNode::default()
        }

        fn on_start(&self, id: NodeId, _node: &mut OneShotNode, ctx: &mut ParCtx<'_, u8>) {
            if id == NodeId(0) {
                ctx.send_reliable(id, NodeId(1), "one-shot", 100, 1);
            }
        }

        fn on_message(
            &self,
            _id: NodeId,
            node: &mut OneShotNode,
            _from: NodeId,
            _msg: u8,
            _ctx: &mut ParCtx<'_, u8>,
        ) {
            node.got += 1;
        }

        fn on_timer(
            &self,
            _id: NodeId,
            _node: &mut OneShotNode,
            _tag: u64,
            _ctx: &mut ParCtx<'_, u8>,
        ) {
        }
    }

    fn exact_pair_sim(threads: usize) -> ParSimulator<OneShotNode, u8> {
        let cfg = SimConfig {
            num_nodes: 2,
            mobility_tick: SimDuration::ZERO,
            radio: RadioConfig {
                jitter: SimDuration::ZERO,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut sim = ParSimulator::new(cfg, Box::new(Stationary), 2, threads);
        sim.world_mut()
            .set_motion(NodeId(0), Point::new(0.0, 0.0), Vec2::ZERO);
        sim.world_mut()
            .set_motion(NodeId(1), Point::new(100.0, 0.0), Vec2::ZERO);
        sim.world_mut().rebuild_index();
        sim
    }

    // 100 bytes at 2 Mb/s = 400 us tx + 500 us latency, zero jitter.
    const ARRIVAL: SimTime = SimTime(900);

    #[test]
    fn fail_scheduled_first_beats_simultaneous_deliver() {
        // Fail enqueued before the send: lower seq at the same instant,
        // so the barrier commits first and the delivery hits a dead node.
        let mut sim = exact_pair_sim(2);
        sim.inject_plan(&FaultPlan::new().fail(ARRIVAL, NodeId(1)));
        sim.run(&OneShot, SimTime::from_secs(1));
        assert_eq!(sim.node_state(NodeId(1)).unwrap().got, 0);
        assert_eq!(sim.stats().drops_dead, 1);
    }

    #[test]
    fn deliver_scheduled_first_beats_simultaneous_fail() {
        // Start-up (and its send) commits before the fail is scheduled:
        // the delivery's seq is lower, so it lands before the node dies.
        let mut sim = exact_pair_sim(2);
        sim.run(&OneShot, SimTime::from_millis(0));
        sim.inject_plan(&FaultPlan::new().fail(ARRIVAL, NodeId(1)));
        sim.run(&OneShot, SimTime::from_secs(1));
        assert_eq!(sim.node_state(NodeId(1)).unwrap().got, 1);
        assert_eq!(sim.stats().drops_dead, 0);
        assert!(!sim.world().alive(NodeId(1)));
    }

    /// Silent except for recovery: `on_recover` sets a 3 ms timer, and the
    /// node records every instant a timer fires.
    struct RecoverTimer;

    impl ParProtocol for RecoverTimer {
        type Msg = u8;
        type Node = Vec<SimTime>;

        fn make_node(&self, _id: NodeId, _world: &World) -> Vec<SimTime> {
            Vec::new()
        }

        fn on_start(&self, _id: NodeId, _node: &mut Vec<SimTime>, _ctx: &mut ParCtx<'_, u8>) {}

        fn on_message(
            &self,
            _id: NodeId,
            _node: &mut Vec<SimTime>,
            _from: NodeId,
            _msg: u8,
            _ctx: &mut ParCtx<'_, u8>,
        ) {
        }

        fn on_timer(
            &self,
            _id: NodeId,
            fired: &mut Vec<SimTime>,
            _tag: u64,
            ctx: &mut ParCtx<'_, u8>,
        ) {
            fired.push(ctx.now());
        }

        fn on_recover(&self, id: NodeId, _node: &mut Vec<SimTime>, ctx: &mut ParCtx<'_, u8>) {
            ctx.set_timer(id, SimDuration::from_millis(3), 0);
        }
    }

    #[test]
    fn barrier_callback_output_commits_with_the_barrier() {
        // On a quiet network the recovery timer is the only event after
        // start-up, so the barrier's own commit must push it: no later
        // window would touch the node's shard.
        for threads in [1, 2] {
            let mut sim: ParSimulator<Vec<SimTime>, u8> =
                ParSimulator::new(grid_cfg(4, 3), Box::new(Stationary), 8, threads);
            place_grid(&mut sim, 4);
            sim.inject_plan(
                &FaultPlan::new()
                    .fail(SimTime::from_secs(1), NodeId(5))
                    .recover(SimTime::from_secs(2), NodeId(5)),
            );
            sim.run(&RecoverTimer, SimTime::from_secs(5));
            assert_eq!(
                sim.node_state(NodeId(5)).unwrap(),
                &vec![SimTime(2_003_000)],
                "threads={threads}"
            );
        }
    }

    /// Node 0 broadcasts once at start; everyone else just counts.
    struct SpanBcast;

    impl ParProtocol for SpanBcast {
        type Msg = u8;
        type Node = OneShotNode;

        fn make_node(&self, _id: NodeId, _world: &World) -> OneShotNode {
            OneShotNode::default()
        }

        fn on_start(&self, id: NodeId, _node: &mut OneShotNode, ctx: &mut ParCtx<'_, u8>) {
            if id == NodeId(0) {
                ctx.broadcast(id, "span", 50, 7);
            }
        }

        fn on_message(
            &self,
            _id: NodeId,
            node: &mut OneShotNode,
            _from: NodeId,
            _msg: u8,
            _ctx: &mut ParCtx<'_, u8>,
        ) {
            node.got += 1;
        }

        fn on_timer(
            &self,
            _id: NodeId,
            _node: &mut OneShotNode,
            _tag: u64,
            _ctx: &mut ParCtx<'_, u8>,
        ) {
        }
    }

    #[test]
    fn broadcast_receiver_set_spans_three_shards() {
        // Five nodes around the (250, 250) cell corner: the sender sits
        // in cell (0,0) and its receivers straddle four distinct cells,
        // hence (with shards >= cells) at least three distinct shards.
        let cfg = SimConfig {
            area: Aabb::from_size(600.0, 600.0),
            num_nodes: 5,
            mobility_tick: SimDuration::ZERO,
            ..Default::default()
        };
        let run = |threads: usize| {
            let mut sim: ParSimulator<OneShotNode, u8> =
                ParSimulator::new(cfg.clone(), Box::new(Stationary), 4, threads);
            let pos = [
                Point::new(245.0, 245.0), // sender, cell (0,0)
                Point::new(255.0, 245.0), // cell (1,0)
                Point::new(245.0, 255.0), // cell (0,1)
                Point::new(255.0, 255.0), // cell (1,1)
                Point::new(100.0, 100.0), // cell (0,0)
            ];
            for (i, p) in pos.iter().enumerate() {
                sim.world_mut().set_motion(NodeId(i as u32), *p, Vec2::ZERO);
            }
            sim.world_mut().rebuild_index();
            sim.run(&SpanBcast, SimTime::from_secs(1));
            let receiver_shards: FxHashSet<usize> =
                (1..5).map(|i| sim.node_map[i].0 as usize).collect();
            assert!(
                receiver_shards.len() >= 3,
                "receivers span only {} shards",
                receiver_shards.len()
            );
            let got: Vec<u32> = (0..5)
                .map(|i| sim.node_state(NodeId(i)).unwrap().got)
                .collect();
            assert_eq!(got, vec![0, 1, 1, 1, 1]);
            format!("{:?}", sim.stats())
        };
        assert_eq!(run(1), run(4));
    }

    /// What a [`Ledger`] node did, by its own count.
    #[derive(Default)]
    struct LedgerNode {
        /// Per class `(msgs, bytes)` that the engine counts: frames sent
        /// while the sender was up (a down sender's frames drop
        /// uncounted).
        tx: BTreeMap<&'static str, (u64, u64)>,
        /// Refreshes sent, stale suppressed, refreshes suppressed and
        /// entries expired, as recorded.
        soft: [u64; 4],
        rates: Vec<u32>,
        /// `(data id, sent at, expected receivers, flow)` per origin.
        origins: Vec<(u64, SimTime, u64, u32)>,
        /// Data ids this node recorded a delivery for, once each.
        delivered: Vec<u64>,
        seq: u32,
    }

    impl LedgerNode {
        fn tally_tx(&mut self, up: bool, class: &'static str, bytes: u64) {
            if up {
                let c = self.tx.entry(class).or_default();
                c.0 += 1;
                c.1 += bytes;
            }
        }
    }

    /// Transmits on both send paths (two unicast classes and a broadcast)
    /// and makes every `record_*` call, with and without a flow and a hop
    /// count, at start-up, on each timer and in its fail and recover
    /// callbacks; each node tallies in its own state what it did. A
    /// message carries a data id, 0 for none.
    struct Ledger;

    impl Ledger {
        fn act(id: NodeId, node: &mut LedgerNode, ctx: &mut ParCtx<'_, u64>) {
            node.seq += 1;
            let data_id = (u64::from(id.0) << 32) | u64::from(node.seq);
            let flow = if node.seq % 2 == 0 {
                ctx.record_origin_flow(data_id, 2, FLOW_NONE, 0);
                FLOW_NONE
            } else {
                ctx.record_origin_flow(data_id, 2, id.0 % 3, node.seq);
                id.0 % 3
            };
            node.origins.push((data_id, ctx.now(), 2, flow));
            let up = ctx.is_alive(id);
            ctx.broadcast(id, "ledger-bcast", 64, data_id);
            node.tally_tx(up, "ledger-bcast", 64);
            // The right-hand neighbour, out of range at a row's end.
            let to = NodeId((id.0 + 1) % ctx.node_count() as u32);
            ctx.send_reliable(id, to, "ledger-uni", 40, 0);
            node.tally_tx(up, "ledger-uni", 40);
            ctx.send_reliable(id, to, "ledger-rel", 48, 0);
            node.tally_tx(up, "ledger-rel", 48);
            ctx.record_refresh_tx();
            let ticks = 1 + ctx.rng().range_u64(0, 4) as u32;
            ctx.record_refresh_rate(ticks);
            node.rates.push(ticks);
            let suppressed = ctx.rng().range_u64(0, 3);
            ctx.record_refresh_suppressed(suppressed);
            let expired = ctx.rng().range_u64(0, 3);
            ctx.record_soft_expired(expired);
            for (sum, n) in node.soft.iter_mut().zip([1, 0, suppressed, expired]) {
                *sum += n;
            }
        }

        fn arm(id: NodeId, ctx: &mut ParCtx<'_, u64>) {
            ctx.set_timer_jittered(
                id,
                SimDuration::from_millis(150),
                SimDuration::from_millis(100),
                0,
            );
        }
    }

    impl ParProtocol for Ledger {
        type Msg = u64;
        type Node = LedgerNode;

        fn make_node(&self, _id: NodeId, _world: &World) -> LedgerNode {
            LedgerNode::default()
        }

        fn on_start(&self, id: NodeId, node: &mut LedgerNode, ctx: &mut ParCtx<'_, u64>) {
            Self::act(id, node, ctx);
            Self::arm(id, ctx);
        }

        fn on_message(
            &self,
            id: NodeId,
            node: &mut LedgerNode,
            _from: NodeId,
            data_id: u64,
            ctx: &mut ParCtx<'_, u64>,
        ) {
            if data_id == 0 || node.delivered.contains(&data_id) {
                ctx.record_stale_suppressed();
                node.soft[1] += 1;
            } else {
                if data_id % 2 == 0 {
                    ctx.record_delivery_hops(data_id, id, 0);
                } else {
                    ctx.record_delivery_hops(data_id, id, 1);
                }
                node.delivered.push(data_id);
            }
        }

        fn on_timer(
            &self,
            id: NodeId,
            node: &mut LedgerNode,
            _tag: u64,
            ctx: &mut ParCtx<'_, u64>,
        ) {
            Self::act(id, node, ctx);
            Self::arm(id, ctx);
        }

        fn on_fail(&self, id: NodeId, node: &mut LedgerNode, ctx: &mut ParCtx<'_, u64>) {
            Self::act(id, node, ctx);
        }

        fn on_recover(&self, id: NodeId, node: &mut LedgerNode, ctx: &mut ParCtx<'_, u64>) {
            Self::act(id, node, ctx);
            Self::arm(id, ctx);
        }
    }

    /// Holds `sim`'s statistics to the sum of its nodes' own tallies.
    fn assert_stats_match_ledgers(sim: &ParSimulator<LedgerNode, u64>, at: &str) {
        let stats = sim.stats();
        let n = sim.world().len();
        let mut classes: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        let (mut node_msgs, mut node_bytes) = (vec![0; n], vec![0; n]);
        let mut soft = [0u64; 4];
        let mut rates: FxHashMap<u32, u64> = FxHashMap::default();
        let mut origins = Vec::new();
        let mut delivered: FxHashMap<u64, usize> = FxHashMap::default();
        for (id, node) in sim.nodes() {
            for (&class, &(m, b)) in &node.tx {
                let c = classes.entry(class).or_default();
                c.0 += m;
                c.1 += b;
                node_msgs[id.idx()] += m;
                node_bytes[id.idx()] += b;
            }
            for (sum, n) in soft.iter_mut().zip(node.soft) {
                *sum += n;
            }
            for &ticks in &node.rates {
                *rates.entry(ticks).or_default() += 1;
            }
            origins.extend_from_slice(&node.origins);
            for &data_id in &node.delivered {
                *delivered.entry(data_id).or_default() += 1;
            }
        }
        for (class, &(m, b)) in &classes {
            assert_eq!(
                (stats.msgs(class), stats.bytes(class)),
                (m, b),
                "{class} {at}"
            );
        }
        let frames: u64 = classes.values().map(|c| c.0).sum();
        assert_eq!(stats.msgs_where(|_| true), frames, "frames {at}");
        assert_eq!(stats.node_tx_msgs, node_msgs, "per-node frames {at}");
        assert_eq!(stats.node_tx_bytes, node_bytes, "per-node bytes {at}");
        let got = [
            stats.soft_refresh_msgs,
            stats.soft_stale_suppressed,
            stats.soft_refresh_suppressed,
            stats.soft_expired,
        ];
        assert_eq!(got, soft, "soft-state counters {at}");
        assert_eq!(stats.refresh_rate_hist, rates, "refresh rates {at}");
        origins.sort_unstable_by_key(|o| o.0);
        let rows: Vec<_> = origins
            .iter()
            .map(|&(data_id, sent, expected, _)| {
                let got = delivered.get(&data_id).copied().unwrap_or(0);
                (data_id, sent, expected, got)
            })
            .collect();
        assert_eq!(stats.origin_rows(), rows, "origins {at}");
        let deliveries = delivered.values().sum::<usize>() as u64;
        assert_eq!(stats.latency_hist().count(), deliveries, "deliveries {at}");
        for flow in 0..3 {
            let sent = origins.iter().filter(|o| o.3 == flow).count() as u64;
            let got = stats.flows().get(flow).map_or(0, |f| f.sent);
            assert_eq!(got, sent, "flow {flow} {at}");
        }
    }

    #[test]
    fn stats_equal_the_protocols_own_tally_after_every_run() {
        // Counters stay in the shards during a run and are folded into
        // `Stats` when `run` returns: each call must fold everything it
        // counted, boot window and barrier callbacks included, exactly
        // once.
        let mut rendered = Vec::new();
        for threads in [1, 2] {
            let mut cfg = grid_cfg(6, 19);
            cfg.radio.loss_prob = 0.1;
            // One attempt per reliable send, so every counted frame is
            // one the protocol sees itself make.
            cfg.radio.mac_retries = 0;
            let mut sim: ParSimulator<LedgerNode, u64> =
                ParSimulator::new(cfg, Box::new(Stationary), 8, threads);
            place_grid(&mut sim, 6);
            sim.inject_plan(
                &FaultPlan::new()
                    .fail(SimTime(1_300_017), NodeId(14))
                    .recover(SimTime(2_600_003), NodeId(14)),
            );
            for until_ms in [0, 1_000, 2_000, 3_000, 4_000] {
                sim.run(&Ledger, SimTime::from_millis(until_ms));
                assert_stats_match_ledgers(&sim, &format!("at {until_ms} ms, threads={threads}"));
            }
            let stats = sim.stats();
            assert!(stats.msgs("ledger-rel") > 0 && stats.latency_hist().count() > 0);
            assert!(
                stats.drops_dead > 0,
                "the failed node's own frames were not dropped"
            );
            assert!(stats.refresh_rate_hist.len() > 1);
            rendered.push(format!("{stats:?}"));
        }
        assert_eq!(
            rendered[0], rendered[1],
            "threads=2 diverged from threads=1"
        );
    }

    #[test]
    fn resumed_runs_accumulate_sim_secs_once() {
        let mut sim = exact_pair_sim(1);
        sim.run(&OneShot, SimTime::from_secs(10));
        sim.run(&OneShot, SimTime::from_secs(20));
        assert!((sim.sim_secs() - 20.0).abs() < 1e-9, "{}", sim.sim_secs());
    }

    #[test]
    fn zero_latency_is_rejected() {
        let cfg = SimConfig {
            radio: RadioConfig {
                latency: SimDuration::ZERO,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = std::panic::catch_unwind(|| {
            ParSimulator::<OneShotNode, u8>::new(cfg, Box::new(Stationary), 4, 2)
        });
        assert!(r.is_err());
    }
}
