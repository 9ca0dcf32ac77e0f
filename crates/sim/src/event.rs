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

/// The head event of one spliced run, keyed for the run-merge heap.
/// Ordered like [`Scheduled`]: reversed on `(time, seq)` so the
/// max-heap pops the earliest head first.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RunHead {
    time: SimTime,
    seq: u64,
    run: u32,
}

impl PartialOrd for RunHead {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RunHead {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// Two ingestion paths share one total `(time, seq)` order:
///
/// * [`EventQueue::push`] — one event into the binary heap (`O(log n)`);
/// * [`EventQueue::push_run`] — a whole time-sorted batch spliced as a
///   *run*: consecutive `seq` numbers are stamped in one pass and the
///   buffer is kept intact, so a window of `k` events costs `O(k)` plus
///   one entry in a small run-head merge heap instead of `k` heap
///   pushes. This is the parallel engine's commit fast path: each
///   shard's pre-sorted outbox becomes one run.
///
/// Popping merges the heap head with the run heads; exhausted run
/// buffers are recycled through [`EventQueue::take_spare`] so the
/// steady-state window loop allocates nothing.
#[derive(Debug, Clone)]
pub struct EventQueue<M> {
    heap: BinaryHeap<Scheduled<M>>,
    /// Spliced runs, each stored *reversed* (pop from the tail = earliest
    /// first). Indexed by [`RunHead::run`]; empty slots are on `free`.
    runs: Vec<Vec<Scheduled<M>>>,
    free: Vec<u32>,
    run_heads: BinaryHeap<RunHead>,
    /// Events pending inside `runs`.
    run_len: usize,
    /// Exhausted run buffers, capacity retained, handed back to callers.
    spare: Vec<Vec<Scheduled<M>>>,
    next_seq: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            runs: Vec::new(),
            free: Vec::new(),
            run_heads: BinaryHeap::new(),
            run_len: 0,
            spare: Vec::new(),
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

    /// Splices a batch of events already sorted ascending by `time`
    /// (ties in intended dispatch order) as one run: each event gets the
    /// next consecutive `seq` in order — exactly the numbers a
    /// [`EventQueue::push`] loop would have assigned — without any heap
    /// traffic. `seq` values on input are ignored. The buffer is taken
    /// wholesale; its allocation comes back via
    /// [`EventQueue::take_spare`] once the run drains.
    pub fn push_run(&mut self, mut events: Vec<Scheduled<M>>) {
        debug_assert!(
            events.windows(2).all(|w| w[0].time <= w[1].time),
            "push_run requires time-sorted input"
        );
        if events.is_empty() {
            self.spare.push(events);
            return;
        }
        for ev in events.iter_mut() {
            ev.seq = self.next_seq;
            self.next_seq += 1;
        }
        // Stored reversed: Vec::pop yields earliest-first.
        events.reverse();
        let (head_time, head_seq) = {
            let head = events.last().expect("non-empty run");
            (head.time, head.seq)
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.runs[i as usize] = events;
                i
            }
            None => {
                self.runs.push(events);
                (self.runs.len() - 1) as u32
            }
        };
        self.run_len += self.runs[idx as usize].len();
        self.run_heads.push(RunHead {
            time: head_time,
            seq: head_seq,
            run: idx,
        });
    }

    /// Hands back a drained run buffer (empty, capacity retained) for
    /// reuse, or a fresh one — the window loop's allocation-free arena.
    pub fn take_spare(&mut self) -> Vec<Scheduled<M>> {
        self.spare.pop().unwrap_or_default()
    }

    /// Removes and returns the event at the head of a run.
    fn pop_run(&mut self) -> Scheduled<M> {
        let head = self.run_heads.pop().expect("pop_run on empty run set");
        let run = &mut self.runs[head.run as usize];
        let ev = run.pop().expect("run head vanished");
        self.run_len -= 1;
        match run.last() {
            Some(next) => self.run_heads.push(RunHead {
                time: next.time,
                seq: next.seq,
                run: head.run,
            }),
            None => {
                self.spare.push(std::mem::take(run));
                self.free.push(head.run);
            }
        }
        ev
    }

    #[inline]
    fn run_head_key(&self) -> Option<(SimTime, u64)> {
        self.run_heads.peek().map(|h| (h.time, h.seq))
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Scheduled<M>> {
        let heap_key = self.heap.peek().map(|s| (s.time, s.seq));
        match (heap_key, self.run_head_key()) {
            (None, None) => None,
            (Some(_), None) => self.heap.pop(),
            (None, Some(_)) => Some(self.pop_run()),
            (Some(h), Some(r)) => {
                if h <= r {
                    self.heap.pop()
                } else {
                    Some(self.pop_run())
                }
            }
        }
    }

    /// The dispatch time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek().map(|s| s.time)
    }

    /// The earliest scheduled event without removing it. The parallel
    /// engine inspects the head to decide whether the next event is a
    /// serial barrier (fault/mobility) or joins a parallel window.
    pub fn peek(&self) -> Option<&Scheduled<M>> {
        let heap_key = self.heap.peek().map(|s| (s.time, s.seq));
        match (heap_key, self.run_head_key()) {
            (None, None) => None,
            (Some(_), None) => self.heap.peek(),
            (None, Some(_)) => self.peek_run(),
            (Some(h), Some(r)) => {
                if h <= r {
                    self.heap.peek()
                } else {
                    self.peek_run()
                }
            }
        }
    }

    fn peek_run(&self) -> Option<&Scheduled<M>> {
        self.run_heads
            .peek()
            .and_then(|h| self.runs[h.run as usize].last())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.run_len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_millis(5), EventKind::MobilityTick);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    /// Drains `q` into `(time, marker)` pairs.
    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop())
            .map(|s| match s.kind {
                EventKind::Timer { tag, .. } => (s.time.0, tag as u32),
                _ => unreachable!(),
            })
            .collect()
    }

    fn timer(tag: u32) -> EventKind<u32> {
        EventKind::Timer {
            node: NodeId(0),
            tag: tag as u64,
        }
    }

    #[test]
    fn push_run_matches_push_loop_order() {
        // The commit fast path's proof obligation: splicing sorted runs
        // yields the exact pop sequence of pushing the same events one
        // by one in the same order.
        let batches: Vec<Vec<(u64, u32)>> = vec![
            vec![(5, 0), (5, 1), (9, 2)],
            vec![(3, 3), (5, 4), (12, 5)],
            vec![(5, 6)],
        ];
        let mut by_loop: EventQueue<u32> = EventQueue::new();
        let mut by_run: EventQueue<u32> = EventQueue::new();
        // A pre-existing heap event participates in the merge.
        by_loop.push(SimTime(5), timer(99));
        by_run.push(SimTime(5), timer(99));
        for batch in &batches {
            for &(t, tag) in batch {
                by_loop.push(SimTime(t), timer(tag));
            }
            by_run.push_run(
                batch
                    .iter()
                    .map(|&(t, tag)| Scheduled {
                        time: SimTime(t),
                        seq: 0,
                        kind: timer(tag),
                    })
                    .collect(),
            );
        }
        assert_eq!(by_loop.len(), by_run.len());
        assert_eq!(drain(&mut by_loop), drain(&mut by_run));
    }

    #[test]
    fn push_run_recycles_drained_buffers() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push_run(Vec::new());
        assert!(q.is_empty());
        let spare = q.take_spare();
        assert!(spare.is_empty());
        q.push_run(vec![Scheduled {
            time: SimTime(1),
            seq: 0,
            kind: timer(0),
        }]);
        assert_eq!(q.len(), 1);
        q.pop().unwrap();
        // The drained run's buffer (capacity 1) came back to the pool.
        assert_eq!(q.take_spare().capacity(), 1);
    }

    #[test]
    fn interleaved_runs_and_pushes_merge_by_time_then_seq() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(SimTime(7), timer(0)); // seq 0
        q.push_run(vec![
            Scheduled {
                time: SimTime(2),
                seq: 0,
                kind: timer(1),
            },
            Scheduled {
                time: SimTime(7),
                seq: 0,
                kind: timer(2),
            },
        ]); // seqs 1, 2
        q.push(SimTime(2), timer(3)); // seq 3
        let order = drain(&mut q);
        assert_eq!(order, vec![(2, 1), (2, 3), (7, 0), (7, 2)]);
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
