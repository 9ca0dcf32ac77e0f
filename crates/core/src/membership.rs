//! A cluster head's membership database and the designated-broadcaster
//! decision (paper §4.2).
//!
//! Each CH stores (a) the Local-Membership reports of its cluster members,
//! (b) the MNT-Summaries received from the CHs of its hypercube, and (c)
//! the HT-Summaries broadcast network-wide, from which it derives its
//! MT-Summary. Because "each CH in a logical hypercube has the same
//! HT-Summary information", any one CH can broadcast it; §4.2 proposes two
//! self-designation criteria so that "only one CH satisfying the same
//! criterion" does — without any coordination traffic.
//!
//! All three stores are **soft state** ([`crate::softstate`]): every entry
//! carries its origin's `(holder, generation)` stamp, stale offers are
//! suppressed, and entries are discarded only after K missed refreshes —
//! so a lost control broadcast degrades freshness for one refresh period
//! instead of corrupting or wedging the view.

use crate::model::DesignationCriterion;
use crate::softstate::{Freshness, SoftStore};
use crate::summary::{GroupId, HtSummary, LocalMembership, MntSummary, MtSummary};
use hvdb_geo::{Hid, Hnid, VcId};
use hvdb_hypercube::IncompleteHypercube;
use hvdb_sim::{SimDuration, SimTime};

/// Sentinel holder id for entries adopted from a handover snapshot rather
/// than received from their origin: any real origin's stamp (different
/// holder) immediately supersedes them.
pub const SNAPSHOT_HOLDER: u32 = u32::MAX;

/// Per-CH membership state across the three tiers.
#[derive(Debug, Clone, Default)]
pub struct MembershipDb {
    /// Local-Membership reports from this CH's cluster members, stamped
    /// with each member's report generation; members that moved away
    /// silently are pruned by [`MembershipDb::prune_locals`] after K
    /// missed reports.
    pub locals: SoftStore<u32, LocalMembership>,
    /// MNT-Summaries of the CHs in this CH's hypercube (own included),
    /// keyed by hypercube node label.
    pub mnt_of: SoftStore<Hnid, MntSummary>,
    /// Latest HT-Summary per hypercube (network-wide view).
    pub ht_of: SoftStore<Hid, HtSummary>,
    /// The derived mesh-tier summary.
    pub mt: MtSummary,
}

impl MembershipDb {
    /// Stores/updates a member's Local-Membership report (Fig. 5 step 2).
    /// Stale reports (generation not newer than the stored one) are
    /// suppressed; an accepted empty report removes the entry (the member
    /// left every group). Returns `(freshness, view_changed)`.
    pub fn store_local(
        &mut self,
        node: u32,
        lm: &LocalMembership,
        gen: u64,
        now: SimTime,
    ) -> (Freshness, bool) {
        if lm.groups.is_empty() {
            // An explicit leave-all; honour it only if not stale.
            match self.locals.entry(&node) {
                Some(e) if e.holder == node && gen <= e.gen => (Freshness::Stale, false),
                Some(_) => {
                    self.locals.remove(&node);
                    (Freshness::Fresh, true)
                }
                None => (Freshness::Fresh, false),
            }
        } else {
            // Lazy everywhere: duplicate reports (the common case) cost
            // a stamp comparison — no value compare, no clone.
            let changed =
                self.locals.accepts(&node, node, gen) && self.locals.get(&node) != Some(lm);
            let fresh = self.locals.offer_with(node, node, gen, now, || lm.clone());
            (fresh, fresh.is_fresh() && changed)
        }
    }

    /// Drops reports not refreshed within `deadline` (members that left
    /// the cluster without an explicit leave — K missed report periods).
    /// Returns how many were pruned.
    pub fn prune_locals(&mut self, now: SimTime, deadline: SimDuration) -> usize {
        self.locals.expire(now, deadline).len()
    }

    /// Summarises the stored reports into this CH's MNT-Summary
    /// (Fig. 5 step 3).
    pub fn my_mnt(&self, vc: VcId) -> MntSummary {
        MntSummary::from_locals(vc, self.locals.values())
    }

    /// Offers an MNT-Summary stamped `(holder, gen)` for the CH with
    /// label `from` in this hypercube. Returns `(freshness, changed)`:
    /// stale offers leave the store untouched; `changed` reports whether
    /// an accepted offer altered the stored value (hypercube-tree cache
    /// invalidation).
    pub fn store_mnt(
        &mut self,
        from: Hnid,
        holder: u32,
        gen: u64,
        now: SimTime,
        mnt: &MntSummary,
    ) -> (Freshness, bool) {
        // Lazy everywhere: a stale flood duplicate (every re-reception
        // of a wave already stored — the dominant reception on the
        // delivery hot path) costs a stamp comparison, never a value
        // compare or a clone.
        let changed =
            self.mnt_of.accepts(&from, holder, gen) && self.mnt_of.get(&from) != Some(mnt);
        let fresh = self
            .mnt_of
            .offer_with(from, holder, gen, now, || mnt.clone());
        (fresh, fresh.is_fresh() && changed)
    }

    /// Expires MNT entries not refreshed within `deadline` (K missed
    /// refreshes), skipping `own` (this CH refreshes its own entry
    /// locally). Returns the expired labels, sorted.
    pub fn expire_mnts(&mut self, now: SimTime, deadline: SimDuration, own: Hnid) -> Vec<Hnid> {
        self.mnt_of.touch(own, now);
        let mut expired = self.mnt_of.expire(now, deadline);
        expired.sort_unstable();
        expired
    }

    /// Summarises the collected MNT-Summaries into this hypercube's
    /// HT-Summary (Fig. 5 step 4).
    pub fn my_ht(&self, hid: Hid) -> HtSummary {
        HtSummary::from_mnt(hid, self.mnt_of.iter().map(|(l, m)| (*l, m)))
    }

    /// Offers a received (or locally derived) HT-Summary stamped
    /// `(holder, gen)` into the mesh-tier view (Fig. 5 step 5). Only a
    /// fresh offer touches the MT-Summary (whose own version counter
    /// drives mesh-tree cache invalidation).
    pub fn integrate_ht(
        &mut self,
        ht: &HtSummary,
        holder: u32,
        gen: u64,
        now: SimTime,
    ) -> Freshness {
        let hid = ht.hid;
        // Lazy value: stale flood duplicates never clone the summary.
        let fresh = self.ht_of.offer_with(hid, holder, gen, now, || ht.clone());
        if fresh.is_fresh() {
            // `offer` stored the summary; fold it into the MT view.
            let ht = self.ht_of.get(&hid).expect("just stored");
            self.mt.integrate(ht);
        }
        fresh
    }

    /// Adopts HT-Summaries from a predecessor's handover snapshot: only
    /// hypercubes this CH knows nothing about are filled in, stamped with
    /// [`SNAPSHOT_HOLDER`] so the first real origin refresh supersedes
    /// them. Returns how many were adopted.
    pub fn adopt_snapshot(&mut self, hts: Vec<HtSummary>, now: SimTime) -> usize {
        let mut adopted = 0;
        for ht in hts {
            if self.ht_of.contains_key(&ht.hid) {
                continue;
            }
            if self.integrate_ht(&ht, SNAPSHOT_HOLDER, 0, now).is_fresh() {
                adopted += 1;
            }
        }
        adopted
    }

    /// Expires HT entries not refreshed within `deadline`, retracting the
    /// vanished hypercubes from the MT view. Skips `own` (this CH derives
    /// its own region's summary locally). Returns the expired hids,
    /// sorted.
    pub fn expire_hts(&mut self, now: SimTime, deadline: SimDuration, own: Hid) -> Vec<Hid> {
        self.ht_of.touch(own, now);
        let mut expired = self.ht_of.expire(now, deadline);
        expired.sort_unstable();
        for hid in &expired {
            // An empty summary for the hid retracts it from every group.
            self.mt.integrate(&HtSummary {
                hid: *hid,
                ..Default::default()
            });
        }
        expired
    }

    /// Whether this CH's own cluster has members of `g` — the final local
    /// delivery test of Fig. 6 step 6 ("MNT-Summary shows group members
    /// exist").
    pub fn has_local_members(&self, g: GroupId) -> bool {
        self.locals.values().any(|lm| lm.contains(g))
    }

    /// Evaluates the §4.2 self-designation decision for the CH labelled
    /// `me`: should *this* CH broadcast the HT-Summary? `cube` supplies the
    /// 1-logical-hop neighbourhoods criterion B needs. Deterministic: over
    /// identical `mnt_of` state, exactly one label answers `true`.
    pub fn should_broadcast(
        &self,
        me: Hnid,
        criterion: DesignationCriterion,
        cube: &IncompleteHypercube,
    ) -> bool {
        if !self.mnt_of.contains_key(&me) {
            return false;
        }
        let score = |label: Hnid| -> (usize, u64, i64) {
            match criterion {
                DesignationCriterion::MostGroups => {
                    let m = self.mnt_of.get(&label).expect("scored labels are stored");
                    (m.group_count(), m.member_count() as u64, -(label.0 as i64))
                }
                DesignationCriterion::NeighborhoodGroups => {
                    // Distinct groups over self + 1-logical-hop neighbours.
                    let mut groups: Vec<GroupId> = Vec::new();
                    let mut members = 0u64;
                    let mut tally = |l: Hnid| {
                        if let Some(m) = self.mnt_of.get(&l) {
                            members += m.member_count() as u64;
                            for g in m.counts.keys() {
                                if !groups.contains(g) {
                                    groups.push(*g);
                                }
                            }
                        }
                    };
                    tally(label);
                    for n in cube.neighbors(label.0) {
                        tally(Hnid(n));
                    }
                    (groups.len(), members, -(label.0 as i64))
                }
            }
        };
        let my_score = score(me);
        self.mnt_of.keys().all(|l| *l == me || score(*l) < my_score)
    }

    /// Deterministic content-byte estimate of all three tiers (entries ×
    /// entry size plus per-value container lengths, not allocator
    /// capacity) — feeds the `scale` scenario's `memory_per_node_bytes`
    /// column.
    pub fn memory_bytes(&self) -> usize {
        use crate::softstate::SoftEntry;
        use crate::summary::GroupPresence;
        use std::mem::size_of;
        let locals: usize = self
            .locals
            .iter()
            .map(|(_, lm)| {
                size_of::<u32>()
                    + size_of::<SoftEntry<LocalMembership>>()
                    + lm.groups.len() * size_of::<GroupId>()
            })
            .sum();
        let mnts: usize = self
            .mnt_of
            .iter()
            .map(|(_, m)| {
                size_of::<Hnid>()
                    + size_of::<SoftEntry<MntSummary>>()
                    + m.counts.len() * size_of::<(GroupId, u32)>()
            })
            .sum();
        let hts: usize = self
            .ht_of
            .iter()
            .map(|(_, ht)| {
                size_of::<Hid>()
                    + size_of::<SoftEntry<HtSummary>>()
                    + ht.presence
                        .values()
                        .map(|p| {
                            size_of::<(GroupId, GroupPresence)>()
                                + p.nodes.len() * size_of::<Hnid>()
                        })
                        .sum::<usize>()
            })
            .sum();
        let mt: usize = self
            .mt
            .hypercubes
            .values()
            .map(|v| size_of::<GroupId>() + v.len() * size_of::<Hid>())
            .sum();
        locals + mnts + hts + mt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lm(groups: &[u32]) -> LocalMembership {
        let mut l = LocalMembership::default();
        for g in groups {
            l.join(GroupId(*g));
        }
        l
    }

    #[test]
    fn local_report_lifecycle() {
        let mut db = MembershipDb::default();
        db.store_local(1, &lm(&[10, 11]), 1, SimTime::ZERO);
        db.store_local(2, &lm(&[10]), 1, SimTime::ZERO);
        assert!(db.has_local_members(GroupId(10)));
        assert!(db.has_local_members(GroupId(11)));
        assert_eq!(db.locals.get(&1), Some(&lm(&[10, 11])));
        assert_eq!(db.locals.get(&2), Some(&lm(&[10])));
        // A fresh empty report removes the entry.
        db.store_local(1, &lm(&[]), 2, SimTime::ZERO);
        assert!(!db.locals.contains_key(&1));
        assert!(!db.has_local_members(GroupId(11)));
        assert!(db.has_local_members(GroupId(10)));
    }

    #[test]
    fn stale_local_reports_are_suppressed() {
        let mut db = MembershipDb::default();
        let (f, changed) = db.store_local(1, &lm(&[5, 6]), 3, SimTime::ZERO);
        assert!(f.is_fresh());
        assert!(changed);
        // A reordered older report must not roll the view back.
        let (f, changed) = db.store_local(1, &lm(&[5]), 2, SimTime::from_secs(1));
        assert_eq!(f, Freshness::Stale);
        assert!(!changed);
        assert_eq!(db.locals.get(&1), Some(&lm(&[5, 6])));
        // Neither may a stale leave-all.
        let (f, _) = db.store_local(1, &lm(&[]), 3, SimTime::from_secs(1));
        assert_eq!(f, Freshness::Stale);
        assert!(db.has_local_members(GroupId(5)));
        // Same content re-reported: fresh but unchanged.
        let (f, changed) = db.store_local(1, &lm(&[5, 6]), 4, SimTime::from_secs(2));
        assert!(f.is_fresh());
        assert!(!changed);
    }

    #[test]
    fn locals_prune_after_k_missed_reports() {
        let mut db = MembershipDb::default();
        db.store_local(1, &lm(&[10]), 1, SimTime::ZERO);
        db.store_local(2, &lm(&[10]), 1, SimTime::from_secs(10));
        let deadline = crate::softstate::miss_deadline(SimDuration::from_secs(5), 2);
        assert_eq!(db.prune_locals(SimTime::from_secs(12), deadline), 0);
        assert_eq!(db.prune_locals(SimTime::from_secs(13), deadline), 1);
        assert_eq!(db.locals.keys().collect::<Vec<_>>(), vec![&2]);
        assert!(db.has_local_members(GroupId(10)));
    }

    #[test]
    fn mnt_reflects_current_locals() {
        let mut db = MembershipDb::default();
        db.store_local(1, &lm(&[5]), 1, SimTime::ZERO);
        db.store_local(2, &lm(&[5, 6]), 1, SimTime::ZERO);
        let mnt = db.my_mnt(VcId::new(0, 0));
        assert_eq!(mnt.counts[&GroupId(5)], 2);
        assert_eq!(mnt.counts[&GroupId(6)], 1);
    }

    fn store(db: &mut MembershipDb, label: u32, gen: u64, mnt: MntSummary) -> (Freshness, bool) {
        db.store_mnt(Hnid(label), label, gen, SimTime::ZERO, &mnt)
    }

    #[test]
    fn ht_aggregates_stored_mnts() {
        let mut db = MembershipDb::default();
        let mut m1 = MntSummary::default();
        m1.counts.insert(GroupId(1), 2);
        let mut m2 = MntSummary::default();
        m2.counts.insert(GroupId(1), 1);
        m2.counts.insert(GroupId(2), 1);
        store(&mut db, 0, 1, m1);
        store(&mut db, 3, 1, m2);
        let ht = db.my_ht(Hid::new(0, 0));
        assert_eq!(ht.presence[&GroupId(1)].members, 3);
        assert_eq!(ht.nodes_with(GroupId(1)), &[Hnid(0), Hnid(3)]);
        assert_eq!(ht.nodes_with(GroupId(2)), &[Hnid(3)]);
        // Label 3 goes silent past the deadline while label 0 (our own)
        // is kept alive: the HT view loses what only 3 carried.
        let expired = db.expire_mnts(SimTime::from_secs(10), SimDuration::from_secs(1), Hnid(0));
        assert_eq!(expired, vec![Hnid(3)]);
        let ht = db.my_ht(Hid::new(0, 0));
        assert!(!ht.presence.contains_key(&GroupId(2)));
    }

    #[test]
    fn stale_mnt_offers_are_suppressed_and_changes_tracked() {
        let mut db = MembershipDb::default();
        let mut m = MntSummary::default();
        m.counts.insert(GroupId(1), 1);
        let (f, changed) = store(&mut db, 2, 5, m.clone());
        assert!(f.is_fresh() && changed);
        // Older generation from the same holder: suppressed.
        let mut newer = MntSummary::default();
        newer.counts.insert(GroupId(9), 9);
        let (f, changed) = store(&mut db, 2, 4, newer.clone());
        assert_eq!(f, Freshness::Stale);
        assert!(!changed);
        assert!(db.mnt_of.get(&Hnid(2)).unwrap().has_group(GroupId(1)));
        // A refresh with identical content: fresh (keeps the entry alive)
        // but not a change (tree caches stay valid).
        let (f, changed) = store(&mut db, 2, 6, m);
        assert!(f.is_fresh());
        assert!(!changed);
        // A re-elected CH with a restarted clock is suppressed until it
        // advances past the stored stamp (or the entry expires).
        let (f, _) = db.store_mnt(Hnid(2), 77, 1, SimTime::ZERO, &newer.clone());
        assert_eq!(f, Freshness::Stale);
        let (f, changed) = db.store_mnt(Hnid(2), 77, 7, SimTime::ZERO, &newer);
        assert!(f.is_fresh() && changed);
    }

    #[test]
    fn mnt_expiry_spares_own_label() {
        let mut db = MembershipDb::default();
        store(&mut db, 0, 1, MntSummary::default());
        store(&mut db, 5, 1, MntSummary::default());
        let deadline = SimDuration::from_secs(6);
        let expired = db.expire_mnts(SimTime::from_secs(10), deadline, Hnid(0));
        assert_eq!(expired, vec![Hnid(5)]);
        assert!(db.mnt_of.contains_key(&Hnid(0)));
    }

    #[test]
    fn integrate_ht_updates_mt_view() {
        let mut db = MembershipDb::default();
        let mut mnt = MntSummary::default();
        mnt.counts.insert(GroupId(9), 1);
        let ht = HtSummary::from_mnt(Hid::new(1, 0), [(Hnid(2), &mnt)].into_iter());
        assert!(db.integrate_ht(&ht.clone(), 1, 1, SimTime::ZERO).is_fresh());
        assert_eq!(db.mt.hypercubes_with(GroupId(9)), &[Hid::new(1, 0)]);
        let v = db.mt.version();
        // A duplicate of the same broadcast: stale, MT untouched.
        assert_eq!(
            db.integrate_ht(&ht.clone(), 1, 1, SimTime::ZERO),
            Freshness::Stale
        );
        assert_eq!(db.mt.version(), v);
        // A refresh with identical content: fresh, MT content unchanged.
        assert!(db.integrate_ht(&ht, 1, 2, SimTime::from_secs(1)).is_fresh());
        assert_eq!(db.mt.version(), v);
        assert!(db.ht_of.contains_key(&Hid::new(1, 0)));
    }

    #[test]
    fn ht_expiry_retracts_from_mt() {
        let mut db = MembershipDb::default();
        let mut mnt = MntSummary::default();
        mnt.counts.insert(GroupId(4), 1);
        let far = HtSummary::from_mnt(Hid::new(1, 1), [(Hnid(0), &mnt)].into_iter());
        let own = HtSummary::from_mnt(Hid::new(0, 0), [(Hnid(0), &mnt)].into_iter());
        db.integrate_ht(&far, 9, 1, SimTime::ZERO);
        db.integrate_ht(&own, 1, 1, SimTime::ZERO);
        let expired = db.expire_hts(
            SimTime::from_secs(30),
            SimDuration::from_secs(10),
            Hid::new(0, 0),
        );
        assert_eq!(expired, vec![Hid::new(1, 1)]);
        // The vanished hypercube no longer appears in the mesh view; the
        // own region (touched) survives.
        assert_eq!(db.mt.hypercubes_with(GroupId(4)), &[Hid::new(0, 0)]);
    }

    #[test]
    fn handover_snapshot_fills_gaps_only() {
        let mut db = MembershipDb::default();
        let mut mnt = MntSummary::default();
        mnt.counts.insert(GroupId(1), 1);
        let known = HtSummary::from_mnt(Hid::new(0, 1), [(Hnid(0), &mnt)].into_iter());
        db.integrate_ht(&known, 3, 7, SimTime::ZERO);
        let novel = HtSummary::from_mnt(Hid::new(1, 0), [(Hnid(1), &mnt)].into_iter());
        let adopted = db.adopt_snapshot(vec![known, novel], SimTime::ZERO);
        assert_eq!(adopted, 1);
        assert_eq!(db.ht_of.entry(&Hid::new(0, 1)).unwrap().holder, 3);
        assert_eq!(
            db.ht_of.entry(&Hid::new(1, 0)).unwrap().holder,
            SNAPSHOT_HOLDER
        );
        // The first real origin broadcast supersedes the snapshot stamp.
        let refreshed = HtSummary::from_mnt(Hid::new(1, 0), [(Hnid(2), &mnt)].into_iter());
        assert!(db
            .integrate_ht(&refreshed, 12, 1, SimTime::from_secs(1))
            .is_fresh());
        assert_eq!(db.ht_of.entry(&Hid::new(1, 0)).unwrap().holder, 12);
    }

    fn db_with_mnts(entries: &[(u32, &[u32], u32)]) -> MembershipDb {
        // entries: (label, groups, members_per_group)
        let mut db = MembershipDb::default();
        for (label, groups, members) in entries {
            let mut m = MntSummary::default();
            for g in *groups {
                m.counts.insert(GroupId(*g), *members);
            }
            store(&mut db, *label, 1, m);
        }
        db
    }

    #[test]
    fn criterion_a_most_groups_unique_winner() {
        let db = db_with_mnts(&[(0b00, &[1, 2, 3], 1), (0b01, &[1], 5), (0b10, &[1, 2], 1)]);
        let cube = IncompleteHypercube::complete(2);
        let c = DesignationCriterion::MostGroups;
        let winners: Vec<u32> = [0b00u32, 0b01, 0b10]
            .into_iter()
            .filter(|l| db.should_broadcast(Hnid(*l), c, &cube))
            .collect();
        assert_eq!(winners, vec![0b00]);
    }

    #[test]
    fn criterion_a_ties_break_by_members_then_label() {
        let db = db_with_mnts(&[(0b00, &[1], 2), (0b01, &[2], 2), (0b10, &[3], 5)]);
        let cube = IncompleteHypercube::complete(2);
        let c = DesignationCriterion::MostGroups;
        // All have 1 group; label 0b10 has most members.
        assert!(db.should_broadcast(Hnid(0b10), c, &cube));
        assert!(!db.should_broadcast(Hnid(0b00), c, &cube));
    }

    #[test]
    fn criterion_b_counts_neighborhood() {
        // 2-cube: 00-01, 00-10, 01-11, 10-11. Groups: 00:{1}, 01:{2},
        // 11:{3,4}. Neighbourhood group counts: 00 -> {1,2} plus 10(empty)
        // = 2; 01 -> {2,1,3,4} = 4; 11 -> {3,4,2} = 3 (10 empty).
        let db = db_with_mnts(&[(0b00, &[1], 1), (0b01, &[2], 1), (0b11, &[3, 4], 1)]);
        let cube = IncompleteHypercube::complete(2);
        let c = DesignationCriterion::NeighborhoodGroups;
        assert!(db.should_broadcast(Hnid(0b01), c, &cube));
        assert!(!db.should_broadcast(Hnid(0b00), c, &cube));
        assert!(!db.should_broadcast(Hnid(0b11), c, &cube));
    }

    #[test]
    fn exactly_one_designee_over_shared_state() {
        // Determinism audit: for any mnt_of state, exactly one label says yes.
        for crit in [
            DesignationCriterion::MostGroups,
            DesignationCriterion::NeighborhoodGroups,
        ] {
            let db = db_with_mnts(&[(0, &[1], 1), (1, &[1], 1), (2, &[1], 1), (3, &[1], 1)]);
            let cube = IncompleteHypercube::complete(2);
            let winners: Vec<u32> = (0..4u32)
                .filter(|l| db.should_broadcast(Hnid(*l), crit, &cube))
                .collect();
            assert_eq!(winners.len(), 1, "{crit:?} winners {winners:?}");
        }
    }

    #[test]
    fn non_participant_never_designates() {
        let db = db_with_mnts(&[(0, &[1], 1)]);
        let cube = IncompleteHypercube::complete(2);
        assert!(!db.should_broadcast(Hnid(3), DesignationCriterion::MostGroups, &cube));
    }
}
