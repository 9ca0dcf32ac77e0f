//! The simulation engine: protocol trait, dispatch context, and event loop.
//!
//! A [`Protocol`] implementation owns all per-node protocol state for the
//! network (indexed by [`NodeId`]) and reacts to three stimuli: start,
//! message arrival, and timer expiry. The engine owns the physical world,
//! the event queue, the RNG and the statistics; a [`Ctx`] hands the protocol
//! a controlled view of them during each callback.
//!
//! Determinism: a `(SimConfig, seed, protocol)` triple replays
//! bit-identically — events are totally ordered, node iteration is by id,
//! and all randomness flows through the seeded [`SimRng`].

use crate::event::{EventKind, EventQueue};
use crate::fault::{ByzantineMode, FaultEvent, FaultKind, FaultPlan};
use crate::mobility::Mobility;
use crate::node::{Capability, NodeId};
use crate::radio::RadioConfig;
use crate::rng::SimRng;
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};
use crate::trace::{self, Trace, TraceConfig, TraceKind};
use crate::world::World;
use hvdb_geo::{Aabb, Point, Vec2};
use serde::{Deserialize, Serialize};

/// Scenario parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Deployment area.
    pub area: Aabb,
    /// Number of mobile nodes.
    pub num_nodes: usize,
    /// Radio model.
    pub radio: RadioConfig,
    /// Interval between mobility updates (0 disables mobility ticks).
    pub mobility_tick: SimDuration,
    /// Fraction of nodes with [`Capability::Enhanced`] hardware (CH-capable;
    /// paper §3 assumption 2). 1.0 makes every node eligible.
    pub enhanced_fraction: f64,
    /// Master random seed.
    pub seed: u64,
    /// Compact delivery accounting ([`Stats::set_compact_delivery`]):
    /// origins keep counters only — no per-receiver record lists — so
    /// heavy traffic-plane runs stay O(packets) in memory. Requires the
    /// protocol to dedup deliveries by data id (all registered ones do).
    pub compact_delivery: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            area: Aabb::from_size(1000.0, 1000.0),
            num_nodes: 100,
            radio: RadioConfig::default(),
            mobility_tick: SimDuration::from_secs(1),
            enhanced_fraction: 1.0,
            seed: 1,
            compact_delivery: false,
        }
    }
}

/// A network protocol under simulation. One instance serves the whole
/// network; per-node state lives inside the implementation, indexed by
/// [`NodeId`].
pub trait Protocol {
    /// The over-the-air message type.
    type Msg: Clone;

    /// Called once per node at t = 0 (ascending id order).
    fn on_start(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self::Msg>);

    /// Called when `node` receives `msg` transmitted by `from`.
    fn on_message(
        &mut self,
        node: NodeId,
        from: NodeId,
        msg: Self::Msg,
        ctx: &mut Ctx<'_, Self::Msg>,
    );

    /// Called when a timer set by `node` with `tag` fires.
    fn on_timer(&mut self, node: NodeId, tag: u64, ctx: &mut Ctx<'_, Self::Msg>);

    /// Fault injection: `node` just went down. Default: nothing.
    fn on_fail(&mut self, _node: NodeId, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Fault injection: `node` just came back up. Default: nothing.
    fn on_recover(&mut self, _node: NodeId, _ctx: &mut Ctx<'_, Self::Msg>) {}
}

/// The protocol's window onto the engine during a callback.
pub struct Ctx<'a, M> {
    now: SimTime,
    /// The node this callback runs at: its clock skew colours
    /// [`Ctx::now`]. Engine-internal scheduling keeps true time.
    current: NodeId,
    world: &'a mut World,
    queue: &'a mut EventQueue<M>,
    stats: &'a mut Stats,
    radio: &'a RadioConfig,
    rng: &'a mut SimRng,
    scratch: &'a mut Vec<NodeId>,
    raw_scratch: &'a mut Vec<u32>,
    recv_pool: &'a mut Vec<Vec<NodeId>>,
    trace: &'a mut Trace,
}

impl<'a, M: Clone> Ctx<'a, M> {
    /// Current simulation time *as observed by the node this callback
    /// runs at*: exact unless a [`FaultKind::ClockSkew`] fault skewed
    /// this node's clock. Timer scheduling, radio occupancy, and
    /// statistics timestamps all use true engine time regardless.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.world.local_time(self.current, self.now)
    }

    /// Number of nodes in the world.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.world.len()
    }

    /// A node's position (the GPS reading the paper assumes, §3):
    /// exact unless a [`FaultKind::PositionError`] fault displaced the
    /// node's GPS, in which case the protocol observes the displaced
    /// reading while radio reachability keeps using truth.
    #[inline]
    pub fn position(&self, id: NodeId) -> Point {
        self.world.reported_position(id)
    }

    /// A node's velocity (GPS-derived, §3).
    #[inline]
    pub fn velocity(&self, id: NodeId) -> Vec2 {
        self.world.velocity(id)
    }

    /// Whether a node is up.
    #[inline]
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.world.alive(id)
    }

    /// A node's hardware class.
    #[inline]
    pub fn capability(&self, id: NodeId) -> Capability {
        self.world.capability(id)
    }

    /// The deployment area (its centre and extent are the identifier-mapping
    /// system parameters of §4.1).
    #[inline]
    pub fn area(&self) -> Aabb {
        self.world.area()
    }

    /// The radio range.
    #[inline]
    pub fn radio_range(&self) -> f64 {
        self.radio.range
    }

    /// Calls `f` with the node's current alive radio neighbours (ascending
    /// id order), reusing the engine's scratch buffers — both the result
    /// list and the spatial-index candidate list — so a neighbour query on
    /// the hot path performs zero allocations. The closure receives the
    /// context back, so it can read positions or send while inspecting
    /// the list.
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

    /// The seeded RNG (all protocol randomness must come from here for
    /// replays to be exact).
    #[inline]
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Sets a timer for `node` firing after `delay` with discriminator
    /// `tag`.
    pub fn set_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) {
        self.queue
            .push(self.now + delay, EventKind::Timer { node, tag });
    }

    /// Sets a timer firing after `base` plus a uniform random extra delay
    /// in `[0, jitter)` drawn from the seeded RNG. Soft-state refresh
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

    /// The sender's current transmit backlog: how much queued airtime sits
    /// between now and the radio going idle. The traffic plane's pacing
    /// signal — sources (and the queue cap below) read it to decide
    /// whether another frame still fits.
    pub fn tx_backlog(&self, node: NodeId) -> SimDuration {
        let busy = self.world.busy_until(node);
        if busy > self.now {
            busy.since(self.now)
        } else {
            SimDuration::ZERO
        }
    }

    /// Byzantine sender intercept: whether `from` silently discards the
    /// frame it is about to transmit (selective-forwarding and
    /// bogus-candidacy modes). Honest nodes draw **no** RNG here, so
    /// fault-free runs replay bit-identically to the pre-fault-plane
    /// engine.
    fn byzantine_drops(&mut self, from: NodeId) -> bool {
        if let Some(mode) = self.world.byzantine(from) {
            let p = mode.drop_prob();
            if p > 0.0 && self.rng.chance(p) {
                self.stats.byzantine_dropped += 1;
                return true;
            }
        }
        false
    }

    /// The replay lag of `from`'s Byzantine mode, if it replays.
    #[inline]
    fn replay_delay_of(&self, from: NodeId) -> Option<SimDuration> {
        self.world.byzantine(from).and_then(|m| m.replay_delay())
    }

    /// Send-queue pacing: whether a send from `from` must be refused
    /// because the interface queue already exceeds the configured cap.
    /// Counts the drop. With `max_queue == 0` the cap is disabled and
    /// this never fires (the pre-traffic-plane behaviour, bit-identical).
    fn queue_full(&mut self, from: NodeId) -> bool {
        if self.radio.max_queue > SimDuration::ZERO && self.tx_backlog(from) > self.radio.max_queue
        {
            self.stats.drops_queue_full += 1;
            true
        } else {
            false
        }
    }

    fn occupy_radio(&mut self, from: NodeId, bytes: usize) -> SimTime {
        let tx = self.radio.tx_time(bytes);
        let start = self.world.busy_until(from).max(self.now);
        let end = start + tx;
        self.world.set_busy_until(from, end);
        let jitter = SimDuration(self.rng.range_u64(0, self.radio.jitter.0.max(1)));
        end + self.radio.latency + jitter
    }

    /// Unicast transmission: `from` sends `msg` (`bytes` bytes on air,
    /// class-labelled for overhead accounting) to `to`. Returns `false` if
    /// the destination is out of range or either endpoint is down — the
    /// frame still occupies the sender's radio when the sender is up
    /// (transmissions are attempted blind; the unit-disk decides reception).
    pub fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        class: &'static str,
        bytes: usize,
        msg: M,
    ) -> bool {
        if !self.world.alive(from) {
            self.stats.drops_dead += 1;
            return false;
        }
        if self.byzantine_drops(from) {
            return false;
        }
        if self.queue_full(from) {
            return false;
        }
        let arrival = self.occupy_radio(from, bytes);
        self.stats.count_tx(from, class, bytes);
        if !self.world.alive(to) {
            self.stats.drops_dead += 1;
            return false;
        }
        let dist_sq = self
            .world
            .position(from)
            .distance_sq(self.world.position(to));
        if dist_sq > self.radio.range * self.radio.range {
            self.stats.drops_out_of_range += 1;
            return false;
        }
        if !self.world.same_island(from, to) {
            self.stats.drops_partitioned += 1;
            return false;
        }
        if self.rng.chance(self.radio.loss_prob) {
            self.stats.drops_loss += 1;
            return false;
        }
        if let Some(delay) = self.replay_delay_of(from) {
            self.stats.byzantine_replayed += 1;
            self.queue.push(
                arrival + delay,
                EventKind::Deliver {
                    to,
                    from,
                    msg: msg.clone(),
                },
            );
        }
        self.queue
            .push(arrival, EventKind::Deliver { to, from, msg });
        true
    }

    /// Unicast with MAC-level retransmissions: like [`Ctx::send`], but a
    /// frame lost to the radio loss process is re-attempted up to
    /// [`RadioConfig::mac_retries`] more times, mirroring the IEEE 802.11
    /// unicast ACK/retry loop. Every attempt occupies the sender's radio
    /// and is counted in the statistics, so retries surface as overhead
    /// and added latency. Out-of-range and dead-endpoint failures are not
    /// retried (no number of MAC attempts fixes those).
    pub fn send_reliable(
        &mut self,
        from: NodeId,
        to: NodeId,
        class: &'static str,
        bytes: usize,
        msg: M,
    ) -> bool {
        if !self.world.alive(from) {
            self.stats.drops_dead += 1;
            return false;
        }
        if self.byzantine_drops(from) {
            return false;
        }
        if self.queue_full(from) {
            return false;
        }
        let attempts = 1 + self.radio.mac_retries;
        for _ in 0..attempts {
            let arrival = self.occupy_radio(from, bytes);
            self.stats.count_tx(from, class, bytes);
            if !self.world.alive(to) {
                self.stats.drops_dead += 1;
                return false;
            }
            let dist_sq = self
                .world
                .position(from)
                .distance_sq(self.world.position(to));
            if dist_sq > self.radio.range * self.radio.range {
                self.stats.drops_out_of_range += 1;
                return false;
            }
            if !self.world.same_island(from, to) {
                // Like out-of-range: no number of MAC retries crosses a
                // partition cut.
                self.stats.drops_partitioned += 1;
                return false;
            }
            if self.rng.chance(self.radio.loss_prob) {
                self.stats.drops_loss += 1;
                continue;
            }
            if let Some(delay) = self.replay_delay_of(from) {
                self.stats.byzantine_replayed += 1;
                self.queue.push(
                    arrival + delay,
                    EventKind::Deliver {
                        to,
                        from,
                        msg: msg.clone(),
                    },
                );
            }
            self.queue
                .push(arrival, EventKind::Deliver { to, from, msg });
            return true;
        }
        // Retry budget exhausted: the frame is permanently lost. The loop
        // above is bounded by `attempts`, so exhaustion terminates here —
        // it never re-enters the MAC.
        self.stats.drops_retry_exhausted += 1;
        false
    }

    /// Broadcast transmission: one frame, received by every alive node in
    /// range (subject to independent loss). Returns the number of receivers
    /// scheduled. This is the MANET broadcast advantage the paper notes:
    /// "MANETs are inherently ready for multicast communications due to
    /// their broadcast nature" (§1).
    ///
    /// The frame is queued **once** as an [`EventKind::DeliverMany`]
    /// sharing one payload across all receivers; the receiver list comes
    /// from a pooled buffer, so a steady-state broadcast performs no
    /// allocation at all.
    pub fn broadcast(&mut self, from: NodeId, class: &'static str, bytes: usize, msg: M) -> usize {
        if !self.world.alive(from) {
            self.stats.drops_dead += 1;
            return 0;
        }
        if self.byzantine_drops(from) {
            return 0;
        }
        if self.queue_full(from) {
            return 0;
        }
        let arrival = self.occupy_radio(from, bytes);
        self.stats.count_tx(from, class, bytes);
        let mut receivers = self.recv_pool.pop().unwrap_or_default();
        self.world
            .neighbors_into(from, &mut receivers, self.raw_scratch);
        // Partition gating before the loss draws: receivers across the
        // cut vanish without consuming RNG, so runs without partitions
        // (the entire committed baseline trajectory) draw identically.
        if self.world.partitioned() {
            let before = receivers.len();
            let world = &self.world;
            receivers.retain(|&to| world.same_island(from, to));
            self.stats.drops_partitioned += (before - receivers.len()) as u64;
        }
        // Loss is decided per receiver at send time, in ascending id
        // order.
        receivers.retain(|_| {
            if self.rng.chance(self.radio.loss_prob) {
                self.stats.drops_loss += 1;
                false
            } else {
                true
            }
        });
        let n = receivers.len();
        if n > 0 {
            if let Some(delay) = self.replay_delay_of(from) {
                self.stats.byzantine_replayed += n as u64;
                let mut copy = self.recv_pool.pop().unwrap_or_default();
                copy.extend_from_slice(&receivers);
                self.queue.push(
                    arrival + delay,
                    EventKind::DeliverMany {
                        to: copy,
                        from,
                        msg: msg.clone(),
                    },
                );
            }
            self.queue.push(
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

    /// Registers an originated data packet for delivery-ratio accounting.
    pub fn record_origin(&mut self, data_id: u64, expected: u64) {
        self.stats.record_origin(data_id, self.now, expected);
    }

    /// Registers an originated data packet carrying sequence number
    /// `seq` of traffic-plane flow `flow` ([`hvdb_traffic::FLOW_NONE`] =
    /// untracked): deliveries additionally feed the flow's
    /// latency/jitter/hop/reorder accounting.
    pub fn record_origin_flow(&mut self, data_id: u64, expected: u64, flow: u32, seq: u32) {
        self.stats
            .record_origin_flow(data_id, self.now, expected, flow, seq);
        self.trace(TraceKind::FlowOrigin { flow, seq });
    }

    /// Records a data-packet delivery at `node`.
    pub fn record_delivery(&mut self, data_id: u64, node: NodeId) {
        self.stats.record_delivery(data_id, node, self.now);
    }

    /// Records a data-packet delivery at `node` after `hops` physical
    /// transmissions (feeds the flow hop-count histogram when the origin
    /// was flow-tagged).
    pub fn record_delivery_hops(&mut self, data_id: u64, node: NodeId, hops: u32) {
        self.stats
            .record_delivery_hops(data_id, node, self.now, hops);
        self.trace_for(node, TraceKind::Delivered { hops });
    }

    /// Counts one control transmission originated by a soft-state refresh
    /// timer (periodic re-advertisement rather than a state change).
    pub fn record_refresh_tx(&mut self) {
        self.stats.soft_refresh_msgs += 1;
        self.trace(TraceKind::RefreshSent);
    }

    /// Counts one received soft-state update suppressed as stale.
    pub fn record_stale_suppressed(&mut self) {
        self.stats.soft_stale_suppressed += 1;
        self.trace(TraceKind::StaleSuppressed);
    }

    /// Counts `n` refresh broadcasts withheld by the adaptive refresh
    /// controller (backed-off store on a fired tick).
    pub fn record_refresh_suppressed(&mut self, n: u64) {
        self.stats.soft_refresh_suppressed += n;
        self.trace(TraceKind::RefreshSuppressed { n });
    }

    /// Records one fired refresh at the store's current interval (in
    /// fast-timer ticks) into the refresh-rate histogram.
    pub fn record_refresh_rate(&mut self, interval_ticks: u32) {
        *self
            .stats
            .refresh_rate_hist
            .entry(interval_ticks)
            .or_insert(0) += 1;
    }

    /// Counts `n` soft-state entries expired after K missed refreshes.
    pub fn record_soft_expired(&mut self, n: u64) {
        self.stats.soft_expired += n;
        if n > 0 {
            self.trace(TraceKind::SoftExpired { n });
        }
    }

    /// Read access to the running statistics.
    pub fn stats(&self) -> &Stats {
        self.stats
    }

    /// The active trace-category mask (0 = tracing off). Protocols may
    /// test this before assembling an expensive event payload.
    #[inline]
    pub fn trace_mask(&self) -> u32 {
        self.trace.mask()
    }

    /// Records a structured trace event at the current node with *true*
    /// engine time (a single mask test when the category is off).
    #[inline]
    pub fn trace(&mut self, kind: TraceKind) {
        self.trace.record(self.now, self.current, kind);
    }

    /// Records a structured trace event attributed to `node` (delivery
    /// milestones land at the receiver, not the dispatching node).
    #[inline]
    pub fn trace_for(&mut self, node: NodeId, kind: TraceKind) {
        self.trace.record(self.now, node, kind);
    }
}

/// The discrete-event simulator.
pub struct Simulator<M> {
    cfg: SimConfig,
    world: World,
    queue: EventQueue<M>,
    stats: Stats,
    rng: SimRng,
    mobility: Box<dyn Mobility>,
    now: SimTime,
    started: bool,
    scratch: Vec<NodeId>,
    raw_scratch: Vec<u32>,
    recv_pool: Vec<Vec<NodeId>>,
    wall_secs: f64,
    sim_secs: f64,
    trace: Trace,
}

impl<M: Clone> Simulator<M> {
    /// Builds a simulator: creates the world, scatters nodes with the
    /// mobility model, and assigns `enhanced_fraction` of nodes the
    /// CH-capable hardware class (deterministically from the seed).
    pub fn new(cfg: SimConfig, mut mobility: Box<dyn Mobility>) -> Self {
        let mut rng = SimRng::new(cfg.seed);
        let mut world = World::new(cfg.area, cfg.num_nodes, cfg.radio.range);
        let mut mobility_rng = rng.fork(0x4D4F42);
        mobility.init(&mut world, &mut mobility_rng);
        // Capability assignment.
        let n_enhanced =
            ((cfg.num_nodes as f64) * cfg.enhanced_fraction.clamp(0.0, 1.0)).round() as usize;
        let chosen = rng.sample_indices(cfg.num_nodes, n_enhanced.min(cfg.num_nodes));
        for i in chosen {
            world.set_capability(NodeId(i as u32), Capability::Enhanced);
        }
        let mut stats = Stats::new(cfg.num_nodes);
        stats.set_compact_delivery(cfg.compact_delivery);
        Simulator {
            cfg,
            world,
            queue: EventQueue::new(),
            stats,
            rng,
            mobility,
            now: SimTime::ZERO,
            started: false,
            scratch: Vec::new(),
            raw_scratch: Vec::new(),
            recv_pool: Vec::new(),
            wall_secs: 0.0,
            sim_secs: 0.0,
            trace: Trace::default(),
        }
    }

    /// Wall-clock seconds spent inside [`Simulator::run`] so far. Kept on
    /// the simulator rather than in [`Stats`] so that statistics stay a
    /// pure function of `(config, seed, protocol)` — two identical runs
    /// compare bit-equal while still exposing engine throughput
    /// ([`crate::stats::sim_sec_per_wall_sec`]).
    pub fn wall_secs(&self) -> f64 {
        self.wall_secs
    }

    /// Simulated seconds covered by [`Simulator::run`] calls so far —
    /// the numerator that pairs with [`Simulator::wall_secs`] in
    /// [`crate::stats::sim_sec_per_wall_sec`]. Accumulated from a
    /// snapshot of the clock at each `run()` entry, so resumed runs
    /// (repeated `run` calls with increasing horizons) count every
    /// simulated second exactly once; summing the final horizon per call
    /// instead would double-count the already-simulated prefix.
    pub fn sim_secs(&self) -> f64 {
        self.sim_secs
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The scenario configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The physical world (read-only).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable world access for scenario setup (placing nodes, toggling
    /// capabilities) before or between `run` calls. [`World::set_motion`]
    /// maintains the spatial index incrementally, so no rebuild step is
    /// needed after moving nodes.
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// The collected statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Enables (or reconfigures) the structured protocol trace. Call
    /// before `run`; reconfiguring clears previously recorded events.
    /// Tracing is off by default and adds no RNG draws and no events —
    /// runs replay bit-identically with it on or off.
    pub fn set_trace(&mut self, cfg: TraceConfig) {
        self.trace.configure(cfg);
    }

    /// The recorded structured trace (empty unless enabled via
    /// [`Simulator::set_trace`]).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Injects one fault into the schedule — the single entry point of
    /// the fault plane ([`crate::fault`]). The fault applies atomically
    /// at `ev.at` with [`Protocol::on_fail`]/[`Protocol::on_recover`]
    /// callbacks where the kind defines them.
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

    /// Runs the simulation until `until` (inclusive), dispatching events to
    /// `proto`. May be called repeatedly with increasing horizons; node
    /// start-up happens on the first call.
    pub fn run<P: Protocol<Msg = M>>(&mut self, proto: &mut P, until: SimTime) {
        let wall_start = std::time::Instant::now();
        let entry = self.now;
        // Split-borrow context construction, shared by every dispatch arm.
        macro_rules! ctx {
            ($now:expr, $current:expr) => {
                Ctx {
                    now: $now,
                    current: $current,
                    world: &mut self.world,
                    queue: &mut self.queue,
                    stats: &mut self.stats,
                    radio: &self.cfg.radio,
                    rng: &mut self.rng,
                    scratch: &mut self.scratch,
                    raw_scratch: &mut self.raw_scratch,
                    recv_pool: &mut self.recv_pool,
                    trace: &mut self.trace,
                }
            };
        }
        if !self.started {
            self.started = true;
            if self.cfg.mobility_tick > SimDuration::ZERO {
                self.queue.push(
                    SimTime::ZERO + self.cfg.mobility_tick,
                    EventKind::MobilityTick,
                );
            }
            for id in 0..self.world.len() as u32 {
                let mut ctx = ctx!(SimTime::ZERO, NodeId(id));
                proto.on_start(NodeId(id), &mut ctx);
            }
        }
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            let ev = self.queue.pop().expect("peeked event vanished");
            self.now = ev.time;
            match ev.kind {
                EventKind::Deliver { to, from, msg } => {
                    self.stats.events_processed += 1;
                    if self.world.alive(to) {
                        let mut ctx = ctx!(self.now, to);
                        proto.on_message(to, from, msg, &mut ctx);
                    } else {
                        self.stats.drops_dead += 1;
                    }
                }
                EventKind::DeliverMany { to, from, msg } => {
                    // One shared payload, dispatched to each receiver in
                    // list (= ascending id) order: all but the last
                    // receiver get a clone (a refcount bump for shared
                    // frame types), the last takes the payload itself.
                    let mut payload = Some(msg);
                    let last = to.len().saturating_sub(1);
                    for (i, &node) in to.iter().enumerate() {
                        self.stats.events_processed += 1;
                        if !self.world.alive(node) {
                            self.stats.drops_dead += 1;
                            continue;
                        }
                        self.stats.frames_shared += 1;
                        let m = if i == last {
                            payload.take().expect("payload taken before last receiver")
                        } else {
                            payload
                                .as_ref()
                                .expect("payload taken before last receiver")
                                .clone()
                        };
                        let mut ctx = ctx!(self.now, node);
                        proto.on_message(node, from, m, &mut ctx);
                    }
                    // Recycle the receiver list for the next broadcast.
                    let mut to = to;
                    to.clear();
                    self.recv_pool.push(to);
                }
                EventKind::Timer { node, tag } => {
                    self.stats.events_processed += 1;
                    if self.world.alive(node) {
                        let mut ctx = ctx!(self.now, node);
                        proto.on_timer(node, tag, &mut ctx);
                    }
                }
                EventKind::Fault(kind) => {
                    // One fault event = one processed event, regardless
                    // of how many nodes it touches — keeps the events/s
                    // denominator comparable across fault plans.
                    self.stats.events_processed += 1;
                    // Fault injections are recorded into the structured
                    // trace by the engine itself (before any protocol
                    // callback they trigger): scripted and RNG-free, so
                    // the `FAULT` category is byte-comparable between
                    // the serial and parallel engines.
                    match kind {
                        FaultKind::Fail(node) => {
                            self.trace.record(self.now, node, TraceKind::NodeFailed);
                            self.world.set_alive(node, false);
                            let mut ctx = ctx!(self.now, node);
                            proto.on_fail(node, &mut ctx);
                        }
                        FaultKind::Recover(node) => {
                            self.trace.record(self.now, node, TraceKind::NodeRecovered);
                            self.world.set_alive(node, true);
                            self.world.set_busy_until(node, self.now);
                            let mut ctx = ctx!(self.now, node);
                            proto.on_recover(node, &mut ctx);
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
                            self.trace.record(
                                self.now,
                                trace::GLOBAL_NODE,
                                TraceKind::PartitionHealed,
                            );
                            self.world.heal_partition();
                        }
                        FaultKind::FailRegion { center, radius } => {
                            // Victims go into local buffers: the engine
                            // scratch is reserved for the neighbour
                            // queries the on_fail callbacks may run.
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
                                let mut ctx = ctx!(self.now, node);
                                proto.on_fail(node, &mut ctx);
                            }
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
                    let mut mrng = self.rng.fork(0x7160);
                    self.mobility.step(dt, &mut self.world, &mut mrng);
                    self.queue
                        .push(self.now + self.cfg.mobility_tick, EventKind::MobilityTick);
                }
            }
        }
        self.now = until.max(self.now);
        self.sim_secs += self.now.since(entry).as_secs_f64();
        self.wall_secs += wall_start.elapsed().as_secs_f64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::Stationary;

    /// A ping-pong protocol: node 0 sends "ping" to node 1 at start; node 1
    /// replies; node 0 counts replies and re-pings on a timer.
    #[derive(Default)]
    struct PingPong {
        pings_rx: u32,
        pongs_rx: u32,
        timer_fired: u32,
    }

    impl Protocol for PingPong {
        type Msg = &'static str;

        fn on_start(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self::Msg>) {
            if node == NodeId(0) {
                ctx.send(node, NodeId(1), "ping", 100, "ping");
                ctx.set_timer(node, SimDuration::from_secs(5), 7);
            }
        }

        fn on_message(
            &mut self,
            node: NodeId,
            from: NodeId,
            msg: Self::Msg,
            ctx: &mut Ctx<'_, Self::Msg>,
        ) {
            match msg {
                "ping" => {
                    self.pings_rx += 1;
                    ctx.send(node, from, "pong", 100, "pong");
                }
                "pong" => self.pongs_rx += 1,
                _ => unreachable!(),
            }
        }

        fn on_timer(&mut self, node: NodeId, tag: u64, ctx: &mut Ctx<'_, Self::Msg>) {
            assert_eq!(tag, 7);
            self.timer_fired += 1;
            ctx.send(node, NodeId(1), "ping", 100, "ping");
        }
    }

    fn two_node_cfg() -> SimConfig {
        SimConfig {
            num_nodes: 2,
            mobility_tick: SimDuration::ZERO,
            ..Default::default()
        }
    }

    fn place_two(sim: &mut Simulator<&'static str>, dist: f64) {
        sim.world
            .set_motion(NodeId(0), Point::new(0.0, 0.0), Vec2::ZERO);
        sim.world
            .set_motion(NodeId(1), Point::new(dist, 0.0), Vec2::ZERO);
        sim.world.rebuild_index();
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim: Simulator<&'static str> = Simulator::new(two_node_cfg(), Box::new(Stationary));
        place_two(&mut sim, 100.0);
        let mut p = PingPong::default();
        sim.run(&mut p, SimTime::from_secs(10));
        assert_eq!(p.pings_rx, 2); // initial + timer re-ping
        assert_eq!(p.pongs_rx, 2);
        assert_eq!(p.timer_fired, 1);
        assert_eq!(sim.stats().msgs("ping"), 2);
        assert_eq!(sim.stats().msgs("pong"), 2);
        assert_eq!(sim.stats().bytes("ping"), 200);
    }

    #[test]
    fn out_of_range_send_fails() {
        let mut sim: Simulator<&'static str> = Simulator::new(two_node_cfg(), Box::new(Stationary));
        place_two(&mut sim, 500.0); // beyond 250 m range
        let mut p = PingPong::default();
        sim.run(&mut p, SimTime::from_secs(10));
        assert_eq!(p.pings_rx, 0);
        assert_eq!(sim.stats().drops_out_of_range, 2);
    }

    #[test]
    fn messages_take_time_to_arrive() {
        struct Recorder {
            arrival: Option<SimTime>,
        }
        impl Protocol for Recorder {
            type Msg = &'static str;
            fn on_start(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self::Msg>) {
                if node == NodeId(0) {
                    ctx.send(node, NodeId(1), "data", 250, "hello");
                }
            }
            fn on_message(
                &mut self,
                _n: NodeId,
                _f: NodeId,
                _m: Self::Msg,
                ctx: &mut Ctx<'_, Self::Msg>,
            ) {
                self.arrival = Some(ctx.now());
            }
            fn on_timer(&mut self, _n: NodeId, _t: u64, _c: &mut Ctx<'_, Self::Msg>) {}
        }
        let mut sim: Simulator<&'static str> = Simulator::new(two_node_cfg(), Box::new(Stationary));
        place_two(&mut sim, 100.0);
        let mut p = Recorder { arrival: None };
        sim.run(&mut p, SimTime::from_secs(1));
        // 250 bytes at 2 Mb/s = 1 ms + 0.5 ms latency + jitter < 0.2 ms.
        let t = p.arrival.expect("message must arrive");
        assert!(t >= SimTime(1_500), "{t}");
        assert!(t <= SimTime(1_700), "{t}");
    }

    #[test]
    fn broadcast_reaches_all_in_range() {
        struct Bcast {
            got: Vec<NodeId>,
        }
        impl Protocol for Bcast {
            type Msg = u8;
            fn on_start(&mut self, node: NodeId, ctx: &mut Ctx<'_, Self::Msg>) {
                if node == NodeId(0) {
                    let n = ctx.broadcast(node, "hello", 50, 1);
                    assert_eq!(n, 2);
                }
            }
            fn on_message(
                &mut self,
                node: NodeId,
                from: NodeId,
                _m: u8,
                _c: &mut Ctx<'_, Self::Msg>,
            ) {
                assert_eq!(from, NodeId(0));
                self.got.push(node);
            }
            fn on_timer(&mut self, _n: NodeId, _t: u64, _c: &mut Ctx<'_, Self::Msg>) {}
        }
        let cfg = SimConfig {
            num_nodes: 4,
            mobility_tick: SimDuration::ZERO,
            ..Default::default()
        };
        let mut sim: Simulator<u8> = Simulator::new(cfg, Box::new(Stationary));
        // 0 at origin; 1 and 2 in range; 3 far away.
        sim.world
            .set_motion(NodeId(0), Point::new(0.0, 0.0), Vec2::ZERO);
        sim.world
            .set_motion(NodeId(1), Point::new(100.0, 0.0), Vec2::ZERO);
        sim.world
            .set_motion(NodeId(2), Point::new(0.0, 200.0), Vec2::ZERO);
        sim.world
            .set_motion(NodeId(3), Point::new(900.0, 900.0), Vec2::ZERO);
        sim.world.rebuild_index();
        let mut p = Bcast { got: Vec::new() };
        sim.run(&mut p, SimTime::from_secs(1));
        p.got.sort_unstable();
        assert_eq!(p.got, vec![NodeId(1), NodeId(2)]);
        // One transmission counted, not one per receiver.
        assert_eq!(sim.stats().msgs("hello"), 1);
    }

    #[test]
    fn dead_nodes_receive_nothing_and_timers_skip() {
        let mut sim: Simulator<&'static str> = Simulator::new(two_node_cfg(), Box::new(Stationary));
        place_two(&mut sim, 100.0);
        sim.inject_plan(&FaultPlan::new().fail(SimTime::ZERO, NodeId(1)));
        let mut p = PingPong::default();
        sim.run(&mut p, SimTime::from_secs(10));
        // Node 1 failed at t=0 before any delivery: nothing received.
        assert_eq!(p.pings_rx, 0);
        assert!(sim.stats().drops_dead >= 1);
    }

    #[test]
    fn fail_and_recover_callbacks() {
        #[derive(Default)]
        struct FR {
            fails: Vec<NodeId>,
            recovers: Vec<NodeId>,
        }
        impl Protocol for FR {
            type Msg = ();
            fn on_start(&mut self, _n: NodeId, _c: &mut Ctx<'_, ()>) {}
            fn on_message(&mut self, _n: NodeId, _f: NodeId, _m: (), _c: &mut Ctx<'_, ()>) {}
            fn on_timer(&mut self, _n: NodeId, _t: u64, _c: &mut Ctx<'_, ()>) {}
            fn on_fail(&mut self, node: NodeId, _c: &mut Ctx<'_, ()>) {
                self.fails.push(node);
            }
            fn on_recover(&mut self, node: NodeId, _c: &mut Ctx<'_, ()>) {
                self.recovers.push(node);
            }
        }
        let cfg = SimConfig {
            num_nodes: 3,
            mobility_tick: SimDuration::ZERO,
            ..Default::default()
        };
        let mut sim: Simulator<()> = Simulator::new(cfg, Box::new(Stationary));
        sim.inject_plan(
            &FaultPlan::new()
                .fail(SimTime::from_secs(1), NodeId(2))
                .recover(SimTime::from_secs(5), NodeId(2)),
        );
        let mut p = FR::default();
        sim.run(&mut p, SimTime::from_secs(3));
        assert_eq!(p.fails, vec![NodeId(2)]);
        assert!(p.recovers.is_empty());
        assert!(!sim.world().alive(NodeId(2)));
        sim.run(&mut p, SimTime::from_secs(10));
        assert_eq!(p.recovers, vec![NodeId(2)]);
        assert!(sim.world().alive(NodeId(2)));
    }

    #[test]
    fn bandwidth_serialises_transmissions() {
        // Sending two 250-byte frames back-to-back: second arrives ~1 ms
        // after the first (radio busy).
        struct Two {
            arrivals: Vec<SimTime>,
        }
        impl Protocol for Two {
            type Msg = u8;
            fn on_start(&mut self, node: NodeId, ctx: &mut Ctx<'_, u8>) {
                if node == NodeId(0) {
                    ctx.send(node, NodeId(1), "d", 250, 1);
                    ctx.send(node, NodeId(1), "d", 250, 2);
                }
            }
            fn on_message(&mut self, _n: NodeId, _f: NodeId, _m: u8, ctx: &mut Ctx<'_, u8>) {
                self.arrivals.push(ctx.now());
            }
            fn on_timer(&mut self, _n: NodeId, _t: u64, _c: &mut Ctx<'_, u8>) {}
        }
        let mut sim: Simulator<u8> = Simulator::new(
            SimConfig {
                num_nodes: 2,
                mobility_tick: SimDuration::ZERO,
                ..Default::default()
            },
            Box::new(Stationary),
        );
        sim.world
            .set_motion(NodeId(0), Point::new(0.0, 0.0), Vec2::ZERO);
        sim.world
            .set_motion(NodeId(1), Point::new(50.0, 0.0), Vec2::ZERO);
        sim.world.rebuild_index();
        let mut p = Two {
            arrivals: Vec::new(),
        };
        sim.run(&mut p, SimTime::from_secs(1));
        assert_eq!(p.arrivals.len(), 2);
        let gap = p.arrivals[1].since(p.arrivals[0]);
        assert!(
            gap >= SimDuration::from_micros(800) && gap <= SimDuration::from_micros(1400),
            "gap {gap}"
        );
    }

    #[test]
    fn deterministic_replay_same_seed() {
        let run = |seed| {
            let cfg = SimConfig {
                num_nodes: 30,
                seed,
                ..Default::default()
            };
            let mut sim: Simulator<&'static str> = Simulator::new(
                cfg,
                Box::new(crate::mobility::RandomWaypoint::new(1.0, 10.0, 2.0)),
            );
            let mut p = PingPong::default();
            sim.run(&mut p, SimTime::from_secs(60));
            (
                p.pings_rx,
                p.pongs_rx,
                sim.stats().node_tx_bytes.clone(),
                sim.world().position(NodeId(17)),
            )
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn enhanced_fraction_assignment() {
        let cfg = SimConfig {
            num_nodes: 100,
            enhanced_fraction: 0.3,
            ..Default::default()
        };
        let sim: Simulator<()> = Simulator::new(cfg, Box::new(Stationary));
        let n = sim
            .world()
            .ids()
            .filter(|id| sim.world().capability(*id) == Capability::Enhanced)
            .count();
        assert_eq!(n, 30);
    }

    #[test]
    fn run_is_resumable() {
        let mut sim: Simulator<&'static str> = Simulator::new(two_node_cfg(), Box::new(Stationary));
        place_two(&mut sim, 100.0);
        let mut p = PingPong::default();
        sim.run(&mut p, SimTime::from_secs(2));
        assert_eq!(p.timer_fired, 0);
        sim.run(&mut p, SimTime::from_secs(20));
        assert_eq!(p.timer_fired, 1);
        assert_eq!(sim.now(), SimTime::from_secs(20));
    }

    #[test]
    fn resumed_run_does_not_double_count_sim_time() {
        // sim_secs must accumulate the *advance* of each run() call, not
        // the absolute horizon: run(10) + run(20) is 20 simulated seconds,
        // not 30. (Regression: the wall-clock-rate helper used to be fed
        // `until` directly by callers, double-counting resumed runs.)
        let mut sim: Simulator<&'static str> = Simulator::new(two_node_cfg(), Box::new(Stationary));
        place_two(&mut sim, 100.0);
        let mut p = PingPong::default();
        sim.run(&mut p, SimTime::from_secs(10));
        assert!((sim.sim_secs() - 10.0).abs() < 1e-9, "{}", sim.sim_secs());
        sim.run(&mut p, SimTime::from_secs(20));
        assert!((sim.sim_secs() - 20.0).abs() < 1e-9, "{}", sim.sim_secs());
        // Re-running at an earlier horizon advances nothing.
        sim.run(&mut p, SimTime::from_secs(5));
        assert!((sim.sim_secs() - 20.0).abs() < 1e-9, "{}", sim.sim_secs());
    }

    #[test]
    fn partition_blocks_unicast_until_heal() {
        let mut sim: Simulator<&'static str> = Simulator::new(two_node_cfg(), Box::new(Stationary));
        place_two(&mut sim, 100.0);
        // Cut 0 from 1 for the first 4 s. The initial ping leaves during
        // on_start, *before* the t = 0 partition event fires, so it is
        // already in flight and arrives — but node 1's pong reply is
        // sent under the cut and dies. The 5 s timer re-ping round-trips
        // freely after the heal.
        sim.inject_plan(
            &FaultPlan::new()
                .partition(SimTime::ZERO, vec![vec![NodeId(0)], vec![NodeId(1)]])
                .heal(SimTime::from_secs(4)),
        );
        let mut p = PingPong::default();
        sim.run(&mut p, SimTime::from_secs(10));
        assert_eq!(p.pings_rx, 2);
        assert_eq!(p.pongs_rx, 1);
        assert_eq!(sim.stats().drops_partitioned, 1);
        assert_eq!(sim.stats().drops_loss, 0);
    }

    #[test]
    fn partition_filters_broadcast_receivers() {
        struct B;
        impl Protocol for B {
            type Msg = u8;
            fn on_start(&mut self, node: NodeId, ctx: &mut Ctx<'_, u8>) {
                if node == NodeId(0) {
                    let n = ctx.broadcast(node, "b", 50, 1);
                    // Only same-island node 1 remains of 3 in-range peers.
                    assert_eq!(n, 1);
                }
            }
            fn on_message(&mut self, node: NodeId, _f: NodeId, _m: u8, _c: &mut Ctx<'_, u8>) {
                assert_eq!(node, NodeId(1));
            }
            fn on_timer(&mut self, _n: NodeId, _t: u64, _c: &mut Ctx<'_, u8>) {}
        }
        let cfg = SimConfig {
            num_nodes: 4,
            mobility_tick: SimDuration::ZERO,
            ..Default::default()
        };
        let mut sim: Simulator<u8> = Simulator::new(cfg, Box::new(Stationary));
        for i in 0..4u32 {
            sim.world
                .set_motion(NodeId(i), Point::new(i as f64 * 60.0, 0.0), Vec2::ZERO);
        }
        sim.world.rebuild_index();
        sim.world
            .apply_partition(&[vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]]);
        sim.run(&mut B, SimTime::from_secs(1));
        assert_eq!(sim.stats().drops_partitioned, 2);
    }

    #[test]
    fn fail_region_kills_the_disc() {
        #[derive(Default)]
        struct FR {
            fails: Vec<NodeId>,
        }
        impl Protocol for FR {
            type Msg = ();
            fn on_start(&mut self, _n: NodeId, _c: &mut Ctx<'_, ()>) {}
            fn on_message(&mut self, _n: NodeId, _f: NodeId, _m: (), _c: &mut Ctx<'_, ()>) {}
            fn on_timer(&mut self, _n: NodeId, _t: u64, _c: &mut Ctx<'_, ()>) {}
            fn on_fail(&mut self, node: NodeId, _c: &mut Ctx<'_, ()>) {
                self.fails.push(node);
            }
        }
        let cfg = SimConfig {
            num_nodes: 5,
            mobility_tick: SimDuration::ZERO,
            ..Default::default()
        };
        let mut sim: Simulator<()> = Simulator::new(cfg, Box::new(Stationary));
        for i in 0..5u32 {
            sim.world
                .set_motion(NodeId(i), Point::new(i as f64 * 100.0, 0.0), Vec2::ZERO);
        }
        sim.world.rebuild_index();
        sim.inject(FaultEvent {
            at: SimTime::from_secs(1),
            kind: FaultKind::FailRegion {
                center: Point::new(100.0, 0.0),
                radius: 120.0,
            },
        });
        let mut p = FR::default();
        sim.run(&mut p, SimTime::from_secs(2));
        // Nodes at x = 0, 100, 200 sit within 120 m of (100, 0).
        assert_eq!(p.fails, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert!(!sim.world().alive(NodeId(1)));
        assert!(sim.world().alive(NodeId(3)));
        // One barrier event, not one per victim.
        assert_eq!(sim.stats().events_processed, 1);
    }

    #[test]
    fn selective_forward_drops_at_the_sender() {
        let mut sim: Simulator<&'static str> = Simulator::new(
            SimConfig {
                num_nodes: 2,
                mobility_tick: SimDuration::ZERO,
                seed: 3,
                ..Default::default()
            },
            Box::new(Stationary),
        );
        place_two(&mut sim, 100.0);
        sim.inject(FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::Byzantine {
                node: NodeId(1),
                mode: ByzantineMode::SelectiveForward { drop_prob: 1.0 },
            },
        });
        let mut p = PingPong::default();
        sim.run(&mut p, SimTime::from_secs(10));
        // Node 1 hears both pings but silently swallows every pong.
        assert_eq!(p.pings_rx, 2);
        assert_eq!(p.pongs_rx, 0);
        assert_eq!(sim.stats().byzantine_dropped, 2);
        // The dropped frames never hit the air: no tx counted for them.
        assert_eq!(sim.stats().msgs("pong"), 0);
    }

    #[test]
    fn replay_stale_duplicates_deliveries() {
        let mut sim: Simulator<&'static str> = Simulator::new(two_node_cfg(), Box::new(Stationary));
        place_two(&mut sim, 100.0);
        sim.inject(FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::Byzantine {
                node: NodeId(0),
                mode: ByzantineMode::ReplayStale {
                    delay: SimDuration::from_secs(1),
                },
            },
        });
        let mut p = PingPong::default();
        sim.run(&mut p, SimTime::from_secs(10));
        // The initial ping leaves during on_start, before the t = 0
        // Byzantine onset applies; the 5 s timer re-ping is replayed, so
        // node 1 hears three pings off two genuine sends plus one stale
        // duplicate.
        assert_eq!(p.pings_rx, 3);
        assert_eq!(sim.stats().byzantine_replayed, 1);
        // Replays are queue copies, not transmissions.
        assert_eq!(sim.stats().msgs("ping"), 2);
    }

    #[test]
    fn bogus_candidacy_flips_capability() {
        let cfg = SimConfig {
            num_nodes: 2,
            enhanced_fraction: 0.0,
            mobility_tick: SimDuration::ZERO,
            ..Default::default()
        };
        let mut sim: Simulator<()> = Simulator::new(cfg, Box::new(Stationary));
        assert_eq!(sim.world().capability(NodeId(1)), Capability::Regular);
        sim.inject(FaultEvent {
            at: SimTime::from_secs(1),
            kind: FaultKind::Byzantine {
                node: NodeId(1),
                mode: ByzantineMode::BogusCandidacy { drop_prob: 0.5 },
            },
        });
        struct Noop;
        impl Protocol for Noop {
            type Msg = ();
            fn on_start(&mut self, _n: NodeId, _c: &mut Ctx<'_, ()>) {}
            fn on_message(&mut self, _n: NodeId, _f: NodeId, _m: (), _c: &mut Ctx<'_, ()>) {}
            fn on_timer(&mut self, _n: NodeId, _t: u64, _c: &mut Ctx<'_, ()>) {}
        }
        sim.run(&mut Noop, SimTime::from_secs(2));
        assert_eq!(sim.world().capability(NodeId(1)), Capability::Enhanced);
    }

    #[test]
    fn clock_skew_and_position_error_colour_observations() {
        struct Obs {
            seen: Option<(SimTime, Point)>,
        }
        impl Protocol for Obs {
            type Msg = u8;
            fn on_start(&mut self, node: NodeId, ctx: &mut Ctx<'_, u8>) {
                if node == NodeId(0) {
                    ctx.set_timer(node, SimDuration::from_secs(5), 1);
                }
            }
            fn on_message(&mut self, _n: NodeId, _f: NodeId, _m: u8, _c: &mut Ctx<'_, u8>) {}
            fn on_timer(&mut self, node: NodeId, _t: u64, ctx: &mut Ctx<'_, u8>) {
                self.seen = Some((ctx.now(), ctx.position(node)));
            }
        }
        let mut sim: Simulator<u8> = Simulator::new(two_node_cfg(), Box::new(Stationary));
        sim.world
            .set_motion(NodeId(0), Point::new(0.0, 0.0), Vec2::ZERO);
        sim.world
            .set_motion(NodeId(1), Point::new(100.0, 0.0), Vec2::ZERO);
        sim.world.rebuild_index();
        sim.inject_plan(
            &FaultPlan::new()
                .clock_skew(SimTime::from_secs(1), NodeId(0), -2_000_000)
                .position_error(SimTime::from_secs(1), NodeId(0), Vec2::new(30.0, 0.0)),
        );
        let mut p = Obs { seen: None };
        sim.run(&mut p, SimTime::from_secs(6));
        let (t, pos) = p.seen.expect("timer fired");
        // The timer fires at true t = 5 s but node 0's clock reads 3 s,
        // and its GPS reads 30 m east of truth.
        assert_eq!(t, SimTime::from_secs(3));
        assert_eq!(pos, Point::new(30.0, 0.0));
        // Engine scheduling itself stayed exact.
        assert_eq!(sim.now(), SimTime::from_secs(6));
    }

    #[test]
    fn fault_free_runs_unchanged_by_fault_plane() {
        // The committed baseline trajectory depends on this: a run with
        // no faults injected must replay bit-identically to the
        // pre-fault-plane engine (no extra RNG draws, no counter noise).
        let run = |with_noop_faults: bool| {
            let cfg = SimConfig {
                num_nodes: 30,
                seed: 42,
                ..Default::default()
            };
            let mut sim: Simulator<&'static str> = Simulator::new(
                cfg,
                Box::new(crate::mobility::RandomWaypoint::new(1.0, 10.0, 2.0)),
            );
            if with_noop_faults {
                // Heal with no partition active: a no-op world mutation.
                sim.inject_plan(&FaultPlan::new().heal(SimTime::from_secs(30)));
            }
            let mut p = PingPong::default();
            sim.run(&mut p, SimTime::from_secs(60));
            (
                p.pings_rx,
                p.pongs_rx,
                sim.stats().drops_loss,
                sim.stats().node_tx_bytes.clone(),
            )
        };
        let (a_pings, a_pongs, a_loss, a_bytes) = run(false);
        let (b_pings, b_pongs, b_loss, b_bytes) = run(true);
        assert_eq!((a_pings, a_pongs, a_loss), (b_pings, b_pongs, b_loss));
        assert_eq!(a_bytes, b_bytes);
    }
}
