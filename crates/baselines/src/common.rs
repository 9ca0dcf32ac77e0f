//! Shared scenario scaffolding for baseline protocols.
//!
//! Every baseline reads the *same* [`Script`] as the HVDB protocol
//! (initial group membership, scripted traffic, scripted joins/leaves,
//! expected receivers per packet), so comparative experiments differ only
//! in the protocol under test. Each node keeps its own [`Member`] view of
//! the script, mutated only by that node's own scripted timers.

use hvdb_core::{GroupId, Script};
use hvdb_sim::{NodeId, ParCtx};
use rustc_hash::FxHashSet;

pub use hvdb_core::{TAG_GROUP_BASE, TAG_TRAFFIC_BASE};

/// One node's scenario state: its current groups and the data ids it has
/// already counted as delivered.
#[derive(Debug, Default)]
pub struct Member {
    /// Groups this node currently belongs to.
    pub member_of: FxHashSet<GroupId>,
    /// Data ids already counted as delivered here.
    pub delivered: FxHashSet<u64>,
}

impl Member {
    /// Node `id`'s state at t = 0: its scripted initial groups.
    pub fn new(script: &Script, id: NodeId) -> Self {
        Member {
            member_of: script.initial_groups(id).collect(),
            delivered: FxHashSet::default(),
        }
    }

    /// Applies scripted group event `idx`, whose timer fired at this node.
    pub fn apply(&mut self, script: &Script, idx: usize) {
        let ev = script.group_event(idx);
        if ev.join {
            self.member_of.insert(ev.group);
        } else {
            self.member_of.remove(&ev.group);
        }
    }

    /// Whether this node currently belongs to `group`.
    pub fn is_member(&self, group: GroupId) -> bool {
        self.member_of.contains(&group)
    }

    /// This node's groups, ascending (the order they go on the wire).
    pub fn groups(&self) -> Vec<GroupId> {
        let mut groups: Vec<GroupId> = self.member_of.iter().copied().collect();
        groups.sort_unstable();
        groups
    }

    /// Records a delivery at the dispatched node `id` after `hops`
    /// transmissions if it is a member of `group` and has not seen
    /// `data_id`. Returns whether this was a fresh delivery.
    pub fn deliver<M: Clone>(
        &mut self,
        id: NodeId,
        ctx: &mut ParCtx<'_, M>,
        data_id: u64,
        group: GroupId,
        hops: u32,
    ) -> bool {
        if self.is_member(group) && self.delivered.insert(data_id) {
            ctx.record_delivery_hops(data_id, id, hops);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvdb_core::GroupEvent;
    use hvdb_sim::SimTime;

    #[test]
    fn truth_tracks_events() {
        let g = GroupId(1);
        let script = Script::new(
            &[(NodeId(0), g)],
            vec![],
            vec![
                GroupEvent {
                    at: SimTime::from_secs(1),
                    node: NodeId(1),
                    group: g,
                    join: true,
                },
                GroupEvent {
                    at: SimTime::from_secs(2),
                    node: NodeId(0),
                    group: g,
                    join: false,
                },
            ],
        );
        let mut nodes = [
            Member::new(&script, NodeId(0)),
            Member::new(&script, NodeId(1)),
        ];
        assert!(nodes[0].is_member(g));
        assert!(!nodes[1].is_member(g));
        nodes[1].apply(&script, 0);
        assert!(nodes[1].is_member(g));
        nodes[0].apply(&script, 1);
        assert!(!nodes[0].is_member(g));
        assert_eq!(nodes.iter().filter(|n| n.is_member(g)).count(), 1);
    }
}
