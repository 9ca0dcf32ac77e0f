//! Multi-group session scripting: a [`TrafficSpec`] describes *shaped*
//! offered load — how many concurrent flows per group, each flow's
//! arrival process and rate, payload size, and how group sessions
//! stagger their starts — and [`TrafficSpec::schedule`] expands it into
//! a deterministic per-packet schedule.
//!
//! A **flow** is one source streaming to one group for the whole
//! window: flow ids are dense (`group * flows_per_group + f`), and each
//! flow's packets carry consecutive sequence numbers in send order, so
//! the measurement side ([`crate::FlowSet`]) can track goodput and
//! per-flow latency/jitter without per-packet records. Every flow draws
//! its arrivals from its own seeded stream ([`crate::flow_seed`]):
//! schedules are bit-identical across runs and insensitive to flow
//! reordering.

use crate::rng::{flow_seed, Rng64};
use crate::source::SourceModel;

/// One scheduled packet of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowPacket {
    /// Dense flow id (`group * flows_per_group + f`).
    pub flow: u32,
    /// Per-flow sequence number, consecutive from 0 in send order.
    pub seq: u32,
    /// Destination group index, `0..groups`.
    pub group: u32,
    /// Send offset from the window start, microseconds.
    pub at_us: u64,
    /// Payload bytes.
    pub size: usize,
}

/// A declarative description of shaped multi-group offered load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSpec {
    /// Concurrent flows per group.
    pub flows_per_group: u32,
    /// Per-flow mean rate, packets per second.
    pub rate_pps: f64,
    /// Payload bytes per packet.
    pub payload: usize,
    /// Arrival process of every flow.
    pub model: SourceModel,
    /// Session stagger: group `g`'s flows start `g * stagger` after the
    /// window opens (staggered joins; 0 = all groups start together).
    pub group_stagger_us: u64,
}

impl TrafficSpec {
    /// Total flow count over `groups` groups.
    pub fn flow_count(&self, groups: usize) -> u32 {
        groups as u32 * self.flows_per_group
    }

    /// Expands the spec into the deterministic packet schedule for
    /// `groups` groups over a `window_us` window under `seed`. Packets
    /// are ordered by `(at_us, flow)`; each flow's sequence numbers are
    /// consecutive in time order.
    pub fn schedule(&self, groups: usize, window_us: u64, seed: u64) -> Vec<FlowPacket> {
        let mut out = Vec::new();
        for g in 0..groups as u32 {
            let start = (g as u64).saturating_mul(self.group_stagger_us);
            if start >= window_us {
                continue; // this session never opens inside the window
            }
            for f in 0..self.flows_per_group {
                let flow = g * self.flows_per_group + f;
                let mut rng = Rng64::new(flow_seed(seed, flow));
                let arrivals = self
                    .model
                    .arrivals_us(self.rate_pps, window_us - start, &mut rng);
                for (seq, at) in arrivals.into_iter().enumerate() {
                    out.push(FlowPacket {
                        flow,
                        seq: seq as u32,
                        group: g,
                        at_us: start + at,
                        size: self.payload,
                    });
                }
            }
        }
        out.sort_unstable_by_key(|p| (p.at_us, p.flow));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TrafficSpec {
        TrafficSpec {
            flows_per_group: 2,
            rate_pps: 50.0,
            payload: 256,
            model: SourceModel::Poisson,
            group_stagger_us: 100_000,
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        let a = spec().schedule(3, 2_000_000, 42);
        let b = spec().schedule(3, 2_000_000, 42);
        assert_eq!(a, b);
        assert_ne!(a, spec().schedule(3, 2_000_000, 43));
    }

    #[test]
    fn flows_are_dense_and_sequenced() {
        let s = spec();
        let sched = s.schedule(3, 2_000_000, 7);
        assert_eq!(s.flow_count(3), 6);
        for flow in 0..6u32 {
            let pkts: Vec<&FlowPacket> = sched.iter().filter(|p| p.flow == flow).collect();
            assert!(!pkts.is_empty(), "flow {flow} scheduled nothing");
            // Consecutive seqs in time order.
            let mut sorted = pkts.clone();
            sorted.sort_by_key(|p| p.at_us);
            for (i, p) in sorted.iter().enumerate() {
                assert_eq!(p.seq, i as u32);
                assert_eq!(p.group, flow / 2);
                assert_eq!(p.size, 256);
            }
        }
    }

    #[test]
    fn sessions_stagger_by_group() {
        let sched = spec().schedule(3, 2_000_000, 9);
        for p in &sched {
            assert!(p.at_us >= p.group as u64 * 100_000, "{p:?}");
            assert!(p.at_us < 2_000_000);
        }
        // A stagger beyond the window drops the late groups entirely.
        let mut s = spec();
        s.group_stagger_us = 3_000_000;
        let sched = s.schedule(3, 2_000_000, 9);
        assert!(sched.iter().all(|p| p.group == 0));
    }

    #[test]
    fn reordering_flow_generation_does_not_change_a_flow() {
        // Flow 3's packets are identical whether 2 or 5 groups exist,
        // because each flow draws from its own seeded stream.
        let two = spec().schedule(2, 1_000_000, 5);
        let five = spec().schedule(5, 1_000_000, 5);
        let pick = |sched: &[FlowPacket]| -> Vec<FlowPacket> {
            sched.iter().filter(|p| p.flow == 3).copied().collect()
        };
        assert_eq!(pick(&two), pick(&five));
    }
}
