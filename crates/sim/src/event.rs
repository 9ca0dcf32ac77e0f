//! The discrete-event queue.
//!
//! Events are totally ordered by (time, insertion sequence): ties at the
//! same instant dispatch in insertion order, which makes every run replay
//! identically — the foundation of the reproducible experiments.

use crate::fault::FaultKind;
use crate::node::NodeId;
use crate::time::SimTime;
use std::collections::BinaryHeap;

/// What happens when an event fires. Generic over the protocol message
/// type `M` so the simulator core stays protocol-agnostic.
#[derive(Debug, Clone)]
pub enum EventKind<M> {
    /// A message arrives at a node's radio.
    Deliver {
        /// Receiving node.
        to: NodeId,
        /// Transmitting node.
        from: NodeId,
        /// Protocol payload.
        msg: M,
    },
    /// One broadcast frame arriving at every listed receiver at the same
    /// instant. The payload is stored **once**; the engine hands each
    /// receiver a clone at dispatch (for shared-payload message types —
    /// `hvdb_core::FrameBytes` — that clone is a refcount bump, so a
    /// 30-neighbour broadcast costs one allocation total instead of 30
    /// deep copies in the queue). Receivers are dispatched in list order,
    /// which the sender builds in ascending id order.
    DeliverMany {
        /// Receiving nodes, ascending id order, loss-filtered at send.
        to: Vec<NodeId>,
        /// Transmitting node.
        from: NodeId,
        /// Protocol payload, shared by every receiver.
        msg: M,
    },
    /// A protocol timer set by `node` with an opaque `tag` fires.
    Timer {
        /// The node whose timer fires.
        node: NodeId,
        /// Protocol-chosen discriminator.
        tag: u64,
    },
    /// Fault injection: one event of the declarative fault plane
    /// ([`crate::FaultPlan`]) fires — fail-stop, recovery, partition,
    /// heal, regional outage, Byzantine onset, clock or position error.
    /// Every kind mutates the shared world, so the parallel engine runs
    /// it as a serial barrier between lookahead windows.
    Fault(FaultKind),
    /// Engine-internal: advance mobility and rebuild the spatial index.
    MobilityTick,
}

/// An event with its dispatch time and tie-breaking sequence number.
#[derive(Debug, Clone)]
pub struct Scheduled<M> {
    /// Dispatch instant.
    pub time: SimTime,
    /// Insertion sequence (total order among same-instant events).
    pub seq: u64,
    /// The event itself.
    pub kind: EventKind<M>,
}

// Order by (time, seq) only; M needs no Ord. BinaryHeap is a max-heap, so
// reverse the comparison to pop the earliest event first.
impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic discrete-event queue: one binary heap ordered by
/// `(time, seq)`, where `seq` counts insertions. Both engines push events
/// one at a time — the parallel engine commits each window's shard outboxes
/// event by event in shard-index order — so same-instant events pop in
/// push order.
#[derive(Debug, Clone)]
pub struct EventQueue<M> {
    heap: BinaryHeap<Scheduled<M>>,
    next_seq: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<M> EventQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, kind });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Scheduled<M>> {
        self.heap.pop()
    }

    /// The earliest scheduled event without removing it. The parallel
    /// engine inspects the head to decide whether the next event is a
    /// serial barrier (fault/mobility) or joins a parallel window.
    pub fn peek(&self) -> Option<&Scheduled<M>> {
        self.heap.peek()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(SimTime::from_secs(3), EventKind::MobilityTick);
        q.push(SimTime::from_secs(1), EventKind::MobilityTick);
        q.push(SimTime::from_secs(2), EventKind::MobilityTick);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|s| s.time.0).collect();
        assert_eq!(times, vec![1_000_000, 2_000_000, 3_000_000]);
    }

    #[test]
    fn ties_dispatch_in_insertion_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10u32 {
            q.push(
                t,
                EventKind::Deliver {
                    to: NodeId(i),
                    from: NodeId(0),
                    msg: i,
                },
            );
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|s| match s.kind {
                EventKind::Deliver { msg, .. } => msg,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.peek().is_none());
        q.push(SimTime::from_millis(5), EventKind::MobilityTick);
        assert_eq!(q.peek().map(|s| s.time), Some(SimTime::from_millis(5)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(SimTime(10), EventKind::MobilityTick);
        q.push(SimTime(5), EventKind::MobilityTick);
        assert_eq!(q.pop().unwrap().time, SimTime(5));
        q.push(SimTime(1), EventKind::MobilityTick);
        q.push(SimTime(20), EventKind::MobilityTick);
        assert_eq!(q.pop().unwrap().time, SimTime(1));
        assert_eq!(q.pop().unwrap().time, SimTime(10));
        assert_eq!(q.pop().unwrap().time, SimTime(20));
        assert!(q.pop().is_none());
    }
}
