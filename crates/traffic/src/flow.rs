//! Per-flow measurement: sequence/goodput tracking and
//! latency/jitter/hop-count histograms.
//!
//! A [`FlowSet`] is the measurement side of the traffic plane: the
//! simulator registers each sent packet under its flow id and feeds
//! every delivery back with its end-to-end latency and hop count. All
//! accounting is histogram-backed ([`crate::LogHist`]) plus a handful
//! of counters — memory is proportional to the *flow* count, never the
//! packet count, which is what lets heavy runs drop per-packet delivery
//! records.
//!
//! Jitter follows the RFC 3550 idea: for each `(flow, receiver)` pair
//! the sample is the absolute difference between consecutive
//! deliveries' latencies — the receiver-observed delay variation a
//! playout buffer must absorb.

use crate::hist::LogHist;
use rustc_hash::FxHashMap;

/// Flow id meaning "not tracked" (legacy scripted traffic).
pub const FLOW_NONE: u32 = u32::MAX;

/// One flow's accumulated measurements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowStats {
    /// Packets originated by the flow's source.
    pub sent: u64,
    /// Distinct `(packet, receiver)` deliveries recorded.
    pub delivered: u64,
    /// Deliveries that arrived behind a higher sequence number the same
    /// receiver had already seen — per-receiver reordering, the playout
    /// disruption jitter alone cannot show.
    pub reordered: u64,
    /// End-to-end delivery latency, microseconds.
    pub latency: LogHist,
    /// Receiver-observed delay variation (|Δ latency| between a
    /// receiver's consecutive deliveries of this flow), microseconds.
    pub jitter: LogHist,
    /// Physical hops traversed per delivery.
    pub hops: LogHist,
    /// Per receiver: last observed latency (jitter state) and highest
    /// delivered sequence number (reorder state).
    last: FxHashMap<u32, (u64, u32)>,
}

/// Per-flow measurement over a dense flow-id space.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowSet {
    flows: Vec<FlowStats>,
}

impl FlowSet {
    /// Creates an empty set (flows materialise on first use).
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, flow: u32) -> &mut FlowStats {
        let idx = flow as usize;
        if idx >= self.flows.len() {
            self.flows.resize_with(idx + 1, FlowStats::default);
        }
        &mut self.flows[idx]
    }

    /// Records one packet originated by `flow`. [`FLOW_NONE`] is a
    /// no-op, so untracked legacy traffic costs nothing.
    pub fn record_send(&mut self, flow: u32) {
        if flow != FLOW_NONE {
            self.ensure(flow).sent += 1;
        }
    }

    /// Records one delivery of the `seq`-th packet of `flow` at
    /// `receiver` after `latency_us`, having crossed `hops` physical
    /// hops. No-op for [`FLOW_NONE`].
    pub fn record_delivery(
        &mut self,
        flow: u32,
        receiver: u32,
        seq: u32,
        latency_us: u64,
        hops: u32,
    ) {
        if flow == FLOW_NONE {
            return;
        }
        let f = self.ensure(flow);
        f.delivered += 1;
        f.latency.record(latency_us);
        f.hops.record(hops as u64);
        if let Some((prev_lat, prev_seq)) = f.last.insert(receiver, (latency_us, seq)) {
            f.jitter.record(prev_lat.abs_diff(latency_us));
            if seq < prev_seq {
                f.reordered += 1;
                // Keep the high-water mark: one straggler must not
                // mark every following in-order packet reordered.
                f.last.insert(receiver, (latency_us, prev_seq));
            }
        }
    }

    /// Number of materialised flows (highest seen id + 1).
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether no flow was ever touched.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// One flow's stats, if materialised.
    pub fn get(&self, flow: u32) -> Option<&FlowStats> {
        self.flows.get(flow as usize)
    }

    /// Iterates `(flow id, stats)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &FlowStats)> {
        self.flows.iter().enumerate().map(|(i, f)| (i as u32, f))
    }

    /// Total deliveries across flows.
    pub fn total_delivered(&self) -> u64 {
        self.flows.iter().map(|f| f.delivered).sum()
    }

    /// All flows' jitter samples merged into one histogram.
    pub fn merged_jitter(&self) -> LogHist {
        let mut h = LogHist::new();
        for f in &self.flows {
            h.merge(&f.jitter);
        }
        h
    }

    /// All flows' hop-count samples merged into one histogram.
    pub fn merged_hops(&self) -> LogHist {
        let mut h = LogHist::new();
        for f in &self.flows {
            h.merge(&f.hops);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_flow_is_free() {
        let mut s = FlowSet::new();
        s.record_send(FLOW_NONE);
        s.record_delivery(FLOW_NONE, 1, 0, 100, 2);
        assert!(s.is_empty());
    }

    #[test]
    fn sends_and_deliveries_accumulate_per_flow() {
        let mut s = FlowSet::new();
        s.record_send(0);
        s.record_send(0);
        s.record_send(2);
        s.record_delivery(0, 7, 0, 1000, 3);
        s.record_delivery(2, 7, 0, 2000, 5);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(0).unwrap().sent, 2);
        assert_eq!(s.get(1).unwrap().sent, 0); // hole materialised empty
        assert_eq!(s.get(2).unwrap().delivered, 1);
        assert_eq!(s.iter().map(|(_, f)| f.sent).sum::<u64>(), 3);
        assert_eq!(s.total_delivered(), 2);
        assert_eq!(s.merged_hops().quantile(1.0), Some(5));
    }

    #[test]
    fn jitter_is_per_receiver_latency_variation() {
        let mut s = FlowSet::new();
        // Receiver 1: latencies 1000, 1300, 1100 → jitter samples 300, 200.
        s.record_delivery(0, 1, 0, 1000, 1);
        s.record_delivery(0, 1, 1, 1300, 1);
        s.record_delivery(0, 1, 2, 1100, 1);
        // Receiver 2's first delivery contributes no jitter sample.
        s.record_delivery(0, 2, 0, 9000, 1);
        let f = s.get(0).unwrap();
        assert_eq!(f.jitter.count(), 2);
        assert_eq!(f.jitter.min(), Some(200));
        assert_eq!(f.jitter.max(), Some(300));
        assert_eq!(s.merged_jitter().count(), 2);
        assert_eq!(f.reordered, 0);
    }

    #[test]
    fn reordering_is_counted_per_receiver_against_the_high_water_mark() {
        let mut s = FlowSet::new();
        // Receiver 1 sees seqs 0, 2, 1, 3: exactly one reorder (the
        // straggling 1); the in-order 3 after it is not penalised.
        s.record_delivery(0, 1, 0, 100, 1);
        s.record_delivery(0, 1, 2, 100, 1);
        s.record_delivery(0, 1, 1, 100, 1);
        s.record_delivery(0, 1, 3, 100, 1);
        // Receiver 2 sees everything in order: no reorders.
        for seq in 0..4 {
            s.record_delivery(0, 2, seq, 100, 1);
        }
        assert_eq!(s.get(0).unwrap().reordered, 1);
    }
}
