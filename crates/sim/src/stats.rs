//! Measurement: control overhead, forwarding load, delivery and latency.
//!
//! Every quantity the experiments report is collected here:
//!
//! * per-class message/byte counters (control overhead, experiment F5/C4)
//!   in one table keyed and ordered by class name, so labels with equal
//!   text share a row,
//! * per-node transmission counters (load balancing, experiment C3),
//! * delivery accounting for data packets (delivery ratio and latency,
//!   experiments F6/C1), with latency held in a fixed-bucket log-scale
//!   histogram ([`hvdb_traffic::LogHist`]) — the mean stays exact (running
//!   sum), quantiles are bucket-resolution — plus optional **per-flow**
//!   latency/jitter/hop tracking ([`hvdb_traffic::FlowSet`]) for traffic-
//!   plane scenarios,
//! * a *compact* delivery mode ([`Stats::set_compact_delivery`]) that
//!   drops the per-origin receiver lists entirely, so heavy traffic runs
//!   cost O(flows + packets) counters instead of O(deliveries) records.
//!
//! During a run the engine keeps every counter where the handlers run,
//! in one `ShardCounters` per shard (defined here, beside the fields it
//! feeds), and [`crate::ParSimulator::run`] folds each shard's counts
//! into [`Stats`] once, when it returns. A transmission costs one class
//! lookup in a short list and one slot add on the lane that made it.
//!
//! Fairness indices (Jain, max/mean, Gini) are free functions over plain
//! slices so the harness can compute them for arbitrary node subsets (e.g.
//! cluster heads only).

use crate::node::NodeId;
use crate::time::SimTime;
use hvdb_traffic::{FlowSet, LogHist};
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;

/// One originated data packet's bookkeeping. In compact mode the
/// per-receiver list stays empty and dedup is delegated to the protocol
/// layer (every registered protocol dedups deliveries by data id before
/// recording — see [`Stats::set_compact_delivery`]).
#[derive(Debug, Clone, PartialEq)]
struct Origin {
    at: SimTime,
    expected: u64,
    /// Traffic-plane flow id, [`FLOW_NONE`](hvdb_traffic::FLOW_NONE) for
    /// untracked traffic.
    flow: u32,
    /// Per-flow sequence number (reorder accounting; 0 when untracked).
    seq: u32,
    /// Distinct receivers (detail mode only; empty in compact mode).
    delivered: Vec<NodeId>,
    /// Distinct delivery count (kept in both modes).
    delivered_count: u64,
}

/// Simulation-wide measurement state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Per-class `(msgs, bytes)` transmitted, keyed by class name.
    classes: BTreeMap<&'static str, (u64, u64)>,
    /// Per-node transmitted message count (senders and forwarders).
    pub node_tx_msgs: Vec<u64>,
    /// Per-node transmitted bytes.
    pub node_tx_bytes: Vec<u64>,
    /// Unicast sends whose destination was out of range.
    pub drops_out_of_range: u64,
    /// Frames lost to the radio loss process.
    pub drops_loss: u64,
    /// Frames addressed to dead nodes (or sent by dead nodes).
    pub drops_dead: u64,
    /// Reliable unicasts abandoned after the MAC retry budget: every
    /// attempt was lost, the frame is permanently gone (distinct from
    /// `drops_loss`, which counts individual lost attempts).
    pub drops_retry_exhausted: u64,
    /// Frames refused at the sender because its transmit queue already
    /// held more than [`crate::RadioConfig::max_queue`] of backlog — the
    /// send-queue pacing drop of the traffic plane (0 when the cap is
    /// disabled).
    pub drops_queue_full: u64,
    /// Frames dropped by the radio model because sender and receiver sat
    /// in different partition islands ([`crate::FaultKind::Partition`]).
    /// 0 outside partition intervals.
    pub drops_partitioned: u64,
    /// Frames a Byzantine sender silently discarded (selective
    /// forwarding / bogus-candidacy modes of
    /// [`crate::ByzantineMode`]). 0 without Byzantine faults.
    pub byzantine_dropped: u64,
    /// Stale duplicate deliveries scheduled by Byzantine replay
    /// ([`crate::ByzantineMode::ReplayStale`]), one per receiver slot. 0
    /// without Byzantine faults.
    pub byzantine_replayed: u64,
    /// Soft-state control transmissions originated by refresh timers
    /// (periodic re-advertisement, not triggered by state change).
    pub soft_refresh_msgs: u64,
    /// Refresh broadcasts *withheld* by the adaptive controller (a tick
    /// fired but the store was backed off): the quiet-phase overhead
    /// saving, counted so it can be audited rather than inferred.
    pub soft_refresh_suppressed: u64,
    /// Refresh-rate histogram: for every refresh actually fired, the
    /// store's current interval in fast-timer ticks (1 = floor rate) →
    /// count. Shows where the adaptive controller spent its time.
    pub refresh_rate_hist: FxHashMap<u32, u64>,
    /// Received soft-state updates suppressed as stale (generation not
    /// newer than the stored entry's).
    pub soft_stale_suppressed: u64,
    /// Soft-state entries expired after K missed refreshes.
    pub soft_expired: u64,
    /// Protocol callbacks dispatched by the event loop: every `Deliver`,
    /// each receiver of a `DeliverMany`, every timer/fail/recover, and
    /// every mobility tick. The workload-normalised denominator of every
    /// events/s throughput metric.
    pub events_processed: u64,
    /// Deliveries served from a shared broadcast payload
    /// ([`crate::EventKind::DeliverMany`]): alive receivers that got the
    /// frame by reference count instead of a copy.
    pub frames_shared: u64,
    /// End-to-end delivery latency over all data deliveries,
    /// microseconds, in fixed log-scale buckets.
    latency_hist: LogHist,
    /// Per-flow goodput/latency/jitter/hop accounting for traffic-plane
    /// scenarios (empty unless origins carry flow ids).
    flows: FlowSet,
    /// Compact delivery accounting: drop per-origin receiver lists.
    compact_delivery: bool,
    origins: FxHashMap<u64, Origin>,
}

impl Stats {
    /// Creates statistics for an `n`-node world.
    pub fn new(n: usize) -> Self {
        Stats {
            node_tx_msgs: vec![0; n],
            node_tx_bytes: vec![0; n],
            ..Default::default()
        }
    }

    /// Switches delivery accounting to compact mode: origins keep only
    /// counters — no per-receiver list — so memory stays O(packets)
    /// under heavy multi-receiver load. Dedup of repeated deliveries to
    /// one receiver is delegated to the protocol layer (every registered
    /// protocol already dedups by data id per node before recording);
    /// [`Stats::receivers_of`] returns nothing in this mode. Flip it
    /// before the run starts.
    pub fn set_compact_delivery(&mut self, compact: bool) {
        self.compact_delivery = compact;
    }

    /// Registers an originated data packet `id` expecting delivery to
    /// `expected` distinct receivers, carrying sequence number `seq` of
    /// traffic-plane flow `flow`: deliveries feed the flow's
    /// latency/jitter/hop/reorder accounting in addition to the global
    /// histograms. Untracked traffic passes [`hvdb_traffic::FLOW_NONE`]
    /// and touches no flow.
    pub fn record_origin_flow(&mut self, id: u64, at: SimTime, expected: u64, flow: u32, seq: u32) {
        self.flows.record_send(flow);
        self.origins.insert(
            id,
            Origin {
                at,
                expected,
                flow,
                seq,
                delivered: Vec::new(),
                delivered_count: 0,
            },
        );
    }

    /// Records a delivery of packet `id` at `node` after `hops` physical
    /// hops, which feed the flow's hop histogram. In detail mode,
    /// duplicate deliveries to the same node are ignored (multicast may
    /// reach a node twice; the ratio counts distinct receivers); in
    /// compact mode dedup is the protocol's job. Unknown ids are ignored.
    pub fn record_delivery_hops(&mut self, id: u64, node: NodeId, at: SimTime, hops: u32) {
        let Some(o) = self.origins.get_mut(&id) else {
            return;
        };
        if !self.compact_delivery {
            if o.delivered.contains(&node) {
                return;
            }
            o.delivered.push(node);
        }
        o.delivered_count += 1;
        let latency_us = at.since(o.at).0;
        self.latency_hist.record(latency_us);
        self.flows
            .record_delivery(o.flow, node.0, o.seq, latency_us, hops);
    }

    /// Number of originated data packets.
    pub fn origin_count(&self) -> usize {
        self.origins.len()
    }

    /// Per-origin accounting rows `(data id, sent at, expected, distinct
    /// deliveries)`, ascending by id — the raw material behind
    /// [`Stats::delivery_ratio`], exposed for loss diagnostics.
    pub fn origin_rows(&self) -> Vec<(u64, SimTime, u64, usize)> {
        let mut rows: Vec<_> = self
            .origins
            .iter()
            .map(|(id, o)| (*id, o.at, o.expected, o.delivered_count as usize))
            .collect();
        rows.sort_unstable_by_key(|r| r.0);
        rows
    }

    /// The distinct receivers recorded for packet `id`, ascending. Empty
    /// in compact mode (receiver lists are not kept).
    pub fn receivers_of(&self, id: u64) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .origins
            .get(&id)
            .map(|o| o.delivered.clone())
            .unwrap_or_default();
        out.sort_unstable();
        out
    }

    /// Overall delivery ratio: delivered receiver-slots / expected
    /// receiver-slots, over all originated packets. 1.0 when nothing was
    /// expected.
    pub fn delivery_ratio(&self) -> f64 {
        let mut expected = 0u64;
        let mut delivered = 0u64;
        for o in self.origins.values() {
            expected += o.expected;
            delivered += o.delivered_count.min(o.expected);
        }
        if expected == 0 {
            1.0
        } else {
            delivered as f64 / expected as f64
        }
    }

    /// The end-to-end latency histogram (microseconds) over all data
    /// deliveries.
    pub fn latency_hist(&self) -> &LogHist {
        &self.latency_hist
    }

    /// Per-flow traffic-plane measurements (empty unless origins were
    /// registered with flow ids via [`Stats::record_origin_flow`]).
    pub fn flows(&self) -> &FlowSet {
        &self.flows
    }

    /// Mean delivery latency in seconds, or `None` if nothing delivered.
    /// Exact: computed from the histogram's running sum, not its buckets.
    pub fn mean_latency(&self) -> Option<f64> {
        self.latency_hist.mean().map(|us| us / 1e6)
    }

    /// The `q`-quantile (0..=1) of delivery latency in seconds, at
    /// histogram bucket resolution (±[`LogHist::RELATIVE_ERROR`];
    /// extremes exact).
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        self.latency_hist.quantile(q).map(|us| us as f64 / 1e6)
    }

    /// Total bytes across message classes matching `pred`.
    pub fn bytes_where(&self, pred: impl Fn(&str) -> bool) -> u64 {
        self.classes
            .iter()
            .filter(|(name, _)| pred(name))
            .map(|(_, c)| c.1)
            .sum()
    }

    /// Total messages across classes matching `pred`.
    pub fn msgs_where(&self, pred: impl Fn(&str) -> bool) -> u64 {
        self.classes
            .iter()
            .filter(|(name, _)| pred(name))
            .map(|(_, c)| c.0)
            .sum()
    }

    /// Message count for one class.
    pub fn msgs(&self, class: &str) -> u64 {
        self.classes.get(class).map_or(0, |c| c.0)
    }

    /// Byte count for one class.
    pub fn bytes(&self, class: &str) -> u64 {
        self.classes.get(class).map_or(0, |c| c.1)
    }

    /// Adds one shard's counts into these statistics and zeroes them, so
    /// a later fold adds only what was counted after this one. `slots`
    /// names the shard's nodes in slot order. Every counter is a plain
    /// sum and classes merge by name, so the order shards fold in is
    /// invisible.
    pub(crate) fn fold(
        &mut self,
        shard: &mut ShardCounters,
        slots: impl IntoIterator<Item = NodeId>,
    ) {
        let ShardCounters {
            classes,
            node_tx,
            events_processed,
            frames_shared,
            drops_out_of_range,
            drops_loss,
            drops_dead,
            drops_retry_exhausted,
            drops_queue_full,
            drops_partitioned,
            byzantine_dropped,
            byzantine_replayed,
            soft_refresh_msgs,
            soft_refresh_suppressed,
            soft_stale_suppressed,
            soft_expired,
            refresh_rate,
        } = shard;
        for (class, msgs, bytes) in classes.drain(..) {
            let c = self.classes.entry(class).or_default();
            c.0 += msgs;
            c.1 += bytes;
        }
        for (id, (msgs, bytes)) in slots.into_iter().zip(node_tx.iter_mut()) {
            self.node_tx_msgs[id.idx()] += std::mem::take(msgs);
            self.node_tx_bytes[id.idx()] += std::mem::take(bytes);
        }
        for (sum, part) in [
            (&mut self.events_processed, events_processed),
            (&mut self.frames_shared, frames_shared),
            (&mut self.drops_out_of_range, drops_out_of_range),
            (&mut self.drops_loss, drops_loss),
            (&mut self.drops_dead, drops_dead),
            (&mut self.drops_retry_exhausted, drops_retry_exhausted),
            (&mut self.drops_queue_full, drops_queue_full),
            (&mut self.drops_partitioned, drops_partitioned),
            (&mut self.byzantine_dropped, byzantine_dropped),
            (&mut self.byzantine_replayed, byzantine_replayed),
            (&mut self.soft_refresh_msgs, soft_refresh_msgs),
            (&mut self.soft_refresh_suppressed, soft_refresh_suppressed),
            (&mut self.soft_stale_suppressed, soft_stale_suppressed),
            (&mut self.soft_expired, soft_expired),
        ] {
            *sum += std::mem::take(part);
        }
        for (ticks, n) in refresh_rate.drain(..) {
            *self.refresh_rate_hist.entry(ticks).or_insert(0) += n;
        }
    }
}

/// One engine shard's counts for the current `run` call: what its
/// handlers transmitted, dropped, dispatched and reported about soft
/// state. A lane writes only its own shards' counts, so counting takes
/// no lock. [`Stats::fold`] adds them into the run's statistics when
/// `run` returns. The scalar fields mirror the [`Stats`] fields of the
/// same name.
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    /// Per-class `(label, msgs, bytes)` in first-use order, found by
    /// label identity (address and length): a handful of classes exist,
    /// so a linear scan beats hashing the text.
    classes: Vec<(&'static str, u64, u64)>,
    /// Per-slot `(msgs, bytes)` transmitted, indexed like the shard's
    /// slots.
    node_tx: Vec<(u64, u64)>,
    pub(crate) events_processed: u64,
    pub(crate) frames_shared: u64,
    pub(crate) drops_out_of_range: u64,
    pub(crate) drops_loss: u64,
    pub(crate) drops_dead: u64,
    pub(crate) drops_retry_exhausted: u64,
    pub(crate) drops_queue_full: u64,
    pub(crate) drops_partitioned: u64,
    pub(crate) byzantine_dropped: u64,
    pub(crate) byzantine_replayed: u64,
    pub(crate) soft_refresh_msgs: u64,
    pub(crate) soft_refresh_suppressed: u64,
    pub(crate) soft_stale_suppressed: u64,
    pub(crate) soft_expired: u64,
    /// `(interval ticks, fired refreshes)`, one entry per interval seen.
    refresh_rate: Vec<(u32, u64)>,
}

impl ShardCounters {
    /// Zeroed counts for a shard of `slots` nodes.
    pub(crate) fn new(slots: usize) -> Self {
        ShardCounters {
            node_tx: vec![(0, 0); slots],
            ..Default::default()
        }
    }

    /// Counts one transmission of `bytes` bytes in `class` by the node in
    /// slot `slot`.
    #[inline]
    pub(crate) fn add_tx(&mut self, slot: usize, class: &'static str, bytes: usize) {
        let bytes = bytes as u64;
        // On `&str`, `ptr::eq` compares both address and length.
        match self
            .classes
            .iter_mut()
            .find(|(c, _, _)| std::ptr::eq(*c, class))
        {
            Some((_, msgs, b)) => {
                *msgs += 1;
                *b += bytes;
            }
            None => self.classes.push((class, 1, bytes)),
        }
        let tx = &mut self.node_tx[slot];
        tx.0 += 1;
        tx.1 += bytes;
    }

    /// Counts one fired refresh whose store ran at an interval of `ticks`
    /// base ticks.
    pub(crate) fn add_refresh_rate(&mut self, ticks: u32) {
        match self.refresh_rate.iter_mut().find(|(t, _)| *t == ticks) {
            Some((_, n)) => *n += 1,
            None => self.refresh_rate.push((ticks, 1)),
        }
    }
}

/// Simulated seconds advanced per wall-clock second: the engine's own
/// throughput, the `perf` scenario's headline metric. Wall time lives on
/// [`crate::ParSimulator::wall_secs`] (not in [`Stats`], which must stay a
/// deterministic pure function of the run); this helper just guards the
/// division. Returns 0.0 when no wall time was measured.
pub fn sim_sec_per_wall_sec(sim_secs: f64, wall_secs: f64) -> f64 {
    if wall_secs > 0.0 {
        sim_secs / wall_secs
    } else {
        0.0
    }
}

/// Jain's fairness index of a load vector: `(Σx)² / (n·Σx²)`. 1.0 = perfect
/// balance, 1/n = a single hot spot. Returns 1.0 for empty or all-zero
/// input (a vacuously balanced system).
pub fn jain_fairness(load: &[u64]) -> f64 {
    if load.is_empty() {
        return 1.0;
    }
    let sum: f64 = load.iter().map(|&x| x as f64).sum();
    if sum == 0.0 {
        return 1.0;
    }
    let sum_sq: f64 = load.iter().map(|&x| (x as f64) * (x as f64)).sum();
    (sum * sum) / (load.len() as f64 * sum_sq)
}

/// Peak-to-mean ratio of a load vector: how much hotter the hottest node is
/// than the average. 1.0 = perfectly balanced. Returns 1.0 for empty or
/// all-zero input.
pub fn max_mean_ratio(load: &[u64]) -> f64 {
    if load.is_empty() {
        return 1.0;
    }
    let sum: f64 = load.iter().map(|&x| x as f64).sum();
    if sum == 0.0 {
        return 1.0;
    }
    let mean = sum / load.len() as f64;
    let max = *load.iter().max().unwrap() as f64;
    max / mean
}

/// Gini coefficient of a load vector (0 = perfect equality, →1 = one node
/// carries everything). Returns 0.0 for empty or all-zero input.
pub fn gini(load: &[u64]) -> f64 {
    if load.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = load.iter().map(|&x| x as f64).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len() as f64;
    let sum: f64 = sorted.iter().sum();
    if sum == 0.0 {
        return 0.0;
    }
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / (n * sum) - (n + 1.0) / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use hvdb_traffic::FLOW_NONE;

    #[test]
    fn tx_counting_accumulates_per_class_and_node() {
        let mut s = Stats::new(3);
        let mut shard = ShardCounters::new(3);
        shard.add_tx(0, "beacon", 100);
        shard.add_tx(0, "beacon", 100);
        shard.add_tx(2, "data", 1000);
        s.fold(&mut shard, (0..3).map(NodeId));
        assert_eq!(s.msgs("beacon"), 2);
        assert_eq!(s.bytes("beacon"), 200);
        assert_eq!(s.msgs("data"), 1);
        assert_eq!(s.node_tx_msgs, vec![2, 0, 1]);
        assert_eq!(s.node_tx_bytes, vec![200, 0, 1000]);
        assert_eq!(s.msgs_where(|c| c != "data"), 2);
        assert_eq!(s.bytes_where(|c| c == "data"), 1000);
        assert_eq!(s.msgs("nothing"), 0);
    }

    #[test]
    fn duplicate_literals_from_distinct_addresses_merge_by_name() {
        // Force two distinct 'static strings with equal text: the shard
        // counts them apart, the fold merges them by name.
        let a: &'static str = Box::leak("dup-class".to_string().into_boxed_str());
        let b: &'static str = Box::leak("dup-class".to_string().into_boxed_str());
        assert_ne!(a.as_ptr(), b.as_ptr());
        let mut s = Stats::new(1);
        let mut shard = ShardCounters::new(1);
        shard.add_tx(0, a, 10);
        shard.add_tx(0, b, 20);
        s.fold(&mut shard, [NodeId(0)]);
        assert_eq!(s.msgs("dup-class"), 2);
        assert_eq!(s.bytes("dup-class"), 30);
    }

    #[test]
    fn delivery_ratio_counts_distinct_receivers() {
        let mut s = Stats::new(4);
        s.record_origin_flow(1, SimTime::ZERO, 2, FLOW_NONE, 0);
        s.record_delivery_hops(1, NodeId(1), SimTime::from_millis(10), 0);
        s.record_delivery_hops(1, NodeId(1), SimTime::from_millis(12), 0); // dup
        assert_eq!(s.delivery_ratio(), 0.5);
        s.record_delivery_hops(1, NodeId(2), SimTime::from_millis(15), 0);
        assert_eq!(s.delivery_ratio(), 1.0);
        // Unknown packet id: ignored.
        s.record_delivery_hops(99, NodeId(3), SimTime::from_millis(1), 0);
        assert_eq!(s.delivery_ratio(), 1.0);
        assert_eq!(s.receivers_of(1), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn over_delivery_does_not_exceed_one() {
        let mut s = Stats::new(4);
        s.record_origin_flow(1, SimTime::ZERO, 1, FLOW_NONE, 0);
        s.record_delivery_hops(1, NodeId(1), SimTime::from_millis(1), 0);
        s.record_delivery_hops(1, NodeId(2), SimTime::from_millis(2), 0);
        assert_eq!(s.delivery_ratio(), 1.0);
    }

    #[test]
    fn empty_stats_ratio_is_one() {
        let s = Stats::new(1);
        assert_eq!(s.delivery_ratio(), 1.0);
        assert_eq!(s.mean_latency(), None);
        assert_eq!(s.latency_quantile(0.5), None);
    }

    #[test]
    fn latency_statistics() {
        let mut s = Stats::new(4);
        s.record_origin_flow(1, SimTime::from_secs(1), 3, FLOW_NONE, 0);
        s.record_delivery_hops(
            1,
            NodeId(1),
            SimTime::from_secs(1) + SimDuration::from_millis(10),
            0,
        );
        s.record_delivery_hops(
            1,
            NodeId(2),
            SimTime::from_secs(1) + SimDuration::from_millis(20),
            0,
        );
        s.record_delivery_hops(
            1,
            NodeId(3),
            SimTime::from_secs(1) + SimDuration::from_millis(60),
            0,
        );
        // The mean is exact (running sum, not bucketised).
        let mean = s.mean_latency().unwrap();
        assert!((mean - 0.03).abs() < 1e-9);
        // Quantiles are bucket-resolution: within the histogram's
        // relative error of the exact value; the max is exact.
        let p50 = s.latency_quantile(0.5).unwrap();
        assert!(
            (p50 - 0.02).abs() <= 0.02 * LogHist::RELATIVE_ERROR + 1e-6,
            "{p50}"
        );
        assert!((s.latency_quantile(1.0).unwrap() - 0.06).abs() < 1e-9);
        assert_eq!(s.origin_count(), 1);
        assert_eq!(s.latency_hist().count(), 3);
    }

    #[test]
    fn compact_mode_keeps_counts_but_not_receivers() {
        let mut s = Stats::new(4);
        s.set_compact_delivery(true);
        s.record_origin_flow(1, SimTime::ZERO, 2, FLOW_NONE, 0);
        s.record_delivery_hops(1, NodeId(1), SimTime::from_millis(5), 0);
        s.record_delivery_hops(1, NodeId(2), SimTime::from_millis(9), 0);
        assert_eq!(s.delivery_ratio(), 1.0);
        assert_eq!(s.origin_rows(), vec![(1, SimTime::ZERO, 2, 2)]);
        assert!(s.receivers_of(1).is_empty());
        assert_eq!(s.latency_hist().count(), 2);
    }

    #[test]
    fn flow_tagged_origins_feed_flow_stats() {
        let mut s = Stats::new(4);
        s.record_origin_flow(1, SimTime::ZERO, 2, 0, 0);
        s.record_origin_flow(2, SimTime::from_millis(10), 2, 0, 1);
        s.record_origin_flow(3, SimTime::ZERO, 1, 1, 0);
        s.record_delivery_hops(1, NodeId(1), SimTime::from_millis(4), 3);
        s.record_delivery_hops(2, NodeId(1), SimTime::from_millis(16), 3);
        s.record_delivery_hops(3, NodeId(2), SimTime::from_millis(2), 1);
        let f0 = s.flows().get(0).unwrap();
        assert_eq!(f0.sent, 2);
        assert_eq!(f0.delivered, 2);
        assert_eq!(f0.latency.count(), 2);
        // Jitter: |6ms - 4ms| = 2ms for receiver 1's consecutive deliveries.
        assert_eq!(f0.jitter.count(), 1);
        assert_eq!(f0.jitter.max(), Some(2_000));
        assert_eq!(f0.hops.quantile(1.0), Some(3));
        assert_eq!(s.flows().get(1).unwrap().sent, 1);
        // Untracked origins touch no flow.
        s.record_origin_flow(9, SimTime::ZERO, 1, FLOW_NONE, 0);
        s.record_delivery_hops(9, NodeId(3), SimTime::from_millis(1), 0);
        assert_eq!(s.flows().len(), 2);
        assert_eq!(s.flows().total_delivered(), 3);
    }

    #[test]
    fn jain_extremes() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0, 0, 0]), 1.0);
        assert_eq!(jain_fairness(&[5, 5, 5, 5]), 1.0);
        // One hot node among n: index = 1/n.
        let idx = jain_fairness(&[10, 0, 0, 0]);
        assert!((idx - 0.25).abs() < 1e-12);
    }

    #[test]
    fn max_mean_extremes() {
        assert_eq!(max_mean_ratio(&[3, 3, 3]), 1.0);
        assert_eq!(max_mean_ratio(&[12, 0, 0, 0]), 4.0);
        assert_eq!(max_mean_ratio(&[]), 1.0);
        assert_eq!(max_mean_ratio(&[0, 0]), 1.0);
    }

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0]), 0.0);
        assert!(gini(&[7, 7, 7, 7]).abs() < 1e-12);
        // Perfect inequality approaches (n-1)/n.
        let g = gini(&[0, 0, 0, 100]);
        assert!((g - 0.75).abs() < 1e-12);
        // Monotone: more skew, higher Gini.
        assert!(gini(&[1, 1, 1, 97]) > gini(&[20, 25, 25, 30]));
    }
}
