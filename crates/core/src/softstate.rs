//! Soft-state primitives for the control plane.
//!
//! PR 1's loss experiments showed intra-hypercube delivery flapping when
//! control broadcasts (designation, MNT/HT summaries) are lost: a single
//! dropped flood leaves receivers stale until the next 8–20 s cycle.
//! Classic soft-state protocol design (SPBM-style periodic refresh with
//! monotonically stamped state) fixes exactly this failure mode, and this
//! module provides its two building blocks:
//!
//! * [`GenClock`] — a per-origin monotone generation counter. Every
//!   advertisement an origin emits (fresh content *or* periodic refresh)
//!   carries the next generation, so receivers can order updates without
//!   synchronised clocks.
//! * [`SoftStore`] — a keyed store of generation-stamped entries.
//!   [`SoftStore::offer`] accepts an update only when its stamp is
//!   strictly newer under a total order (generation first, holder id as
//!   the tie-break); stale offers are rejected and counted by the
//!   caller. [`SoftStore::expire`] removes entries only after **K missed
//!   refreshes** ([`miss_deadline`]) rather than on a single TTL, so one
//!   lost refresh never tears down converged state. A re-elected origin
//!   whose restarted clock is outranked by its predecessor's stamps
//!   recovers via [`GenClock::advance_to`] or waits out the expiry.

use hvdb_sim::{SimDuration, SimTime};

pub mod refresh;

/// A per-origin monotone generation counter.
///
/// `tick()` is called for every advertisement the origin emits; receivers
/// compare stamps with [`SoftStore::offer`]. The clock never repeats or
/// decreases within one holder's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenClock {
    gen: u64,
}

impl GenClock {
    /// The stamp for the next advertisement (strictly increasing).
    pub fn tick(&mut self) -> u64 {
        self.gen += 1;
        self.gen
    }

    /// The most recently issued stamp (0 before the first `tick`).
    pub fn current(&self) -> u64 {
        self.gen
    }

    /// Usurpation recovery: after observing `seen` stamped on this
    /// clock's own key by *someone else* (a predecessor's surviving
    /// state, or a concurrent origin that currently outranks us), jump
    /// the clock so the next advertisement supersedes it. OSPF applies
    /// the same trick to its LSA sequence numbers.
    pub fn advance_to(&mut self, seen: u64) {
        self.gen = self.gen.max(seen);
    }
}

/// Verdict of [`SoftStore::offer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// The update's stamp outranked the stored entry's (or the key was
    /// new) and has been stored.
    Fresh,
    /// The update's stamp did not outrank the stored entry's: suppressed,
    /// nothing stored.
    Stale,
}

impl Freshness {
    /// Convenience: `true` for [`Freshness::Fresh`].
    pub fn is_fresh(&self) -> bool {
        matches!(self, Freshness::Fresh)
    }
}

/// One generation-stamped entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftEntry<V> {
    /// Generation stamped by the origin.
    pub gen: u64,
    /// The node currently holding/originating this key (disambiguates
    /// restarted generation clocks across re-elections).
    pub holder: u32,
    /// When the entry was last refreshed (accepted offer).
    pub refreshed_at: SimTime,
    /// The stored state.
    pub value: V,
}

/// A keyed store of generation-stamped soft state with K-miss expiry.
///
/// Flat layout: one contiguous `Vec` of `(key, entry)` pairs kept sorted
/// by key and binary-searched on lookup — no per-store hash table, no
/// boxed buckets, and every iterator walks ascending key order (which
/// makes derived artifacts like summaries and expiry lists
/// deterministic without a caller-side sort).
#[derive(Debug, Clone)]
pub struct SoftStore<K, V> {
    entries: Vec<(K, SoftEntry<V>)>,
    /// Monotone counter bumped whenever the *key set* changes (insert of
    /// a new key, expiry, removal) — never on value refreshes. Caches
    /// derived purely from the key set (e.g. the region hypercube built
    /// from `mnt_of`'s labels) key their validity on this.
    key_rev: u64,
}

impl<K, V> Default for SoftStore<K, V> {
    fn default() -> Self {
        SoftStore {
            entries: Vec::new(),
            key_rev: 0,
        }
    }
}

impl<K: Ord + Copy, V> SoftStore<K, V> {
    #[inline]
    fn find(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }
    /// Offers an update for `key` stamped `(holder, gen)` at `now`.
    ///
    /// Stamps are **totally ordered**: a higher generation wins, an equal
    /// generation goes to the lower holder id, anything else is stale.
    /// Total order matters — "a new holder is always fresh" would let two
    /// concurrent origins of the same key (e.g. two CHs of one region
    /// that both believe they are the designated broadcaster while their
    /// views diverge) re-accept and re-flood each other's entries
    /// forever. Under this order every store moves monotonically up the
    /// lattice, so concurrent flood waves converge and terminate. An
    /// outranked origin recovers by advancing its clock past the winning
    /// stamp ([`GenClock::advance_to`]); a dead origin's entry falls to
    /// K-miss expiry, after which its successor's restarted clock is
    /// fresh again.
    ///
    /// Exception: the *same* holder refreshing at its *current* stamp
    /// (a duplicate of a flood wave already stored) is stale for
    /// propagation but still proves the origin alive, so it touches the
    /// refresh clock.
    pub fn offer(&mut self, key: K, holder: u32, gen: u64, now: SimTime, value: V) -> Freshness {
        self.offer_with(key, holder, gen, now, || value)
    }

    /// [`SoftStore::offer`] with a **lazily built** value: `value` is
    /// invoked only when the stamp actually wins. Callers holding a
    /// borrowed payload (a shared frame's summary) pass `|| v.clone()`
    /// so the dominant stale path — every duplicate of an already-stored
    /// flood wave — costs a stamp comparison and nothing else.
    pub fn offer_with(
        &mut self,
        key: K,
        holder: u32,
        gen: u64,
        now: SimTime,
        value: impl FnOnce() -> V,
    ) -> Freshness {
        match self.find(&key) {
            Ok(i) => {
                let e = &mut self.entries[i].1;
                if gen > e.gen || (gen == e.gen && holder < e.holder) {
                    e.gen = gen;
                    e.holder = holder;
                    e.refreshed_at = now;
                    e.value = value();
                    Freshness::Fresh
                } else {
                    if holder == e.holder && gen == e.gen {
                        e.refreshed_at = now;
                    }
                    Freshness::Stale
                }
            }
            Err(i) => {
                self.key_rev += 1;
                self.entries.insert(
                    i,
                    (
                        key,
                        SoftEntry {
                            gen,
                            holder,
                            refreshed_at: now,
                            value: value(),
                        },
                    ),
                );
                Freshness::Fresh
            }
        }
    }

    /// Whether an offer stamped `(holder, gen)` for `key` would be
    /// accepted as fresh — the pure predicate behind
    /// [`SoftStore::offer`], exposed so callers can skip work (value
    /// comparisons, clones) that only matters on the accept path before
    /// making the offer itself.
    pub fn accepts(&self, key: &K, holder: u32, gen: u64) -> bool {
        match self.find(key) {
            Ok(i) => {
                let e = &self.entries[i].1;
                gen > e.gen || (gen == e.gen && holder < e.holder)
            }
            Err(_) => true,
        }
    }

    /// Touches `key`'s refresh time without a generation check (the caller
    /// re-derived the value locally, e.g. its own entry). No-op when the
    /// key is absent.
    pub fn touch(&mut self, key: K, now: SimTime) {
        if let Ok(i) = self.find(&key) {
            self.entries[i].1.refreshed_at = now;
        }
    }

    /// Removes every entry not refreshed within `deadline`, returning the
    /// expired keys in ascending order. Use [`miss_deadline`] to derive
    /// the deadline from the refresh period and the configured miss
    /// budget.
    pub fn expire(&mut self, now: SimTime, deadline: SimDuration) -> Vec<K> {
        let mut expired = Vec::new();
        self.entries.retain(|(k, e)| {
            let keep = now.since(e.refreshed_at) <= deadline;
            if !keep {
                expired.push(*k);
            }
            keep
        });
        if !expired.is_empty() {
            self.key_rev += 1;
        }
        expired
    }

    /// Removes `key` outright (explicit teardown, e.g. a neighbour
    /// declared failed by the routing tier).
    pub fn remove(&mut self, key: &K) -> Option<SoftEntry<V>> {
        match self.find(key) {
            Ok(i) => {
                self.key_rev += 1;
                Some(self.entries.remove(i).1)
            }
            Err(_) => None,
        }
    }

    /// The current key-set revision: changes iff a key was inserted or
    /// removed since the store was created. See the field docs.
    pub fn key_revision(&self) -> u64 {
        self.key_rev
    }

    /// Counts entries whose refresh age exceeds `threshold` at `now` —
    /// the adaptive refresh controller's K-miss pressure signal: entries
    /// drifting toward expiry mean refreshes are being lost, so backing
    /// off further would be exactly wrong.
    pub fn aged(&self, now: SimTime, threshold: SimDuration) -> usize {
        self.entries
            .iter()
            .filter(|(_, e)| now.since(e.refreshed_at) > threshold)
            .count()
    }

    /// The stored value for `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|i| &self.entries[i].1.value)
    }

    /// The full stamped entry for `key`.
    pub fn entry(&self, key: &K) -> Option<&SoftEntry<V>> {
        self.find(key).ok().map(|i| &self.entries[i].1)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// Iterates stored keys (ascending).
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Iterates stored values (ascending key order).
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, e)| &e.value)
    }

    /// Iterates `(key, value)` pairs (ascending key order).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, e)| (k, &e.value))
    }

    /// Iterates full stamped entries (ascending key order) — state
    /// transfer needs the stamps, not just the values.
    pub fn entries(&self) -> impl Iterator<Item = (&K, &SoftEntry<V>)> {
        self.entries.iter().map(|(k, e)| (k, e))
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The expiry deadline for soft state refreshed every `refresh_interval`:
/// an entry survives `k_miss` whole missed refreshes plus half a period of
/// slack (refresh timers are jittered, so the last refresh may land up to
/// half a period late without any loss at all).
pub const fn miss_deadline(refresh_interval: SimDuration, k_miss: u32) -> SimDuration {
    let k_miss = if k_miss == 0 { 1 } else { k_miss };
    SimDuration(
        refresh_interval
            .0
            .saturating_mul(k_miss as u64)
            .saturating_add(refresh_interval.0 / 2),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn gen_clock_is_strictly_increasing() {
        let mut c = GenClock::default();
        assert_eq!(c.current(), 0);
        assert_eq!(c.tick(), 1);
        assert_eq!(c.tick(), 2);
        assert_eq!(c.current(), 2);
    }

    #[test]
    fn offer_accepts_newer_suppresses_stale() {
        let mut s: SoftStore<u32, &str> = SoftStore::default();
        assert!(s.offer(7, 1, 1, T0, "a").is_fresh());
        // Same holder, same gen: a duplicate of a flood already seen.
        assert_eq!(s.offer(7, 1, 1, T0, "dup"), Freshness::Stale);
        // Same holder, older gen: reordered in flight.
        assert_eq!(s.offer(7, 1, 0, T0, "old"), Freshness::Stale);
        assert_eq!(s.get(&7), Some(&"a"));
        // Newer gen replaces.
        assert!(s.offer(7, 1, 2, t(1), "b").is_fresh());
        assert_eq!(s.get(&7), Some(&"b"));
        assert_eq!(s.entry(&7).unwrap().gen, 2);
    }

    #[test]
    fn stamps_are_totally_ordered_across_holders() {
        let mut s: SoftStore<u32, &str> = SoftStore::default();
        assert!(s.offer(7, 5, 3, T0, "a").is_fresh());
        // Equal generation: the lower holder id wins, deterministically,
        // and the loser stays stale — concurrent origins converge instead
        // of ping-ponging.
        assert!(s.offer(7, 2, 3, t(1), "b").is_fresh());
        assert_eq!(s.offer(7, 5, 3, t(2), "a-again"), Freshness::Stale);
        assert_eq!(s.get(&7), Some(&"b"));
        // A lower generation from a new holder is stale too (a restarted
        // clock recovers via expiry or GenClock::advance_to, never by
        // outranking the stored stamp).
        assert_eq!(s.offer(7, 1, 2, t(3), "late"), Freshness::Stale);
        // The outranked origin advances its clock and wins cleanly.
        let mut clock = GenClock::default();
        clock.advance_to(3);
        assert!(s.offer(7, 5, clock.tick(), t(4), "recovered").is_fresh());
        assert_eq!(s.get(&7), Some(&"recovered"));
    }

    #[test]
    fn same_stamp_duplicate_touches_refresh_clock() {
        // An origin re-advertising at its current stamp is stale for
        // propagation but still proof of life: expiry must restart.
        let deadline = miss_deadline(SimDuration::from_secs(1), 2);
        let mut s: SoftStore<u32, ()> = SoftStore::default();
        s.offer(1, 4, 9, T0, ());
        assert_eq!(s.offer(1, 4, 9, t(2), ()), Freshness::Stale);
        assert!(s.expire(t(4), deadline).is_empty());
        // A *different* holder's stale offer is no proof of life.
        assert_eq!(s.offer(1, 9, 9, t(4), ()), Freshness::Stale);
        assert_eq!(s.expire(t(5), deadline), vec![1]);
    }

    #[test]
    fn expiry_waits_for_k_missed_refreshes() {
        let period = SimDuration::from_secs(2);
        let deadline = miss_deadline(period, 3); // 7 s
        assert_eq!(deadline, SimDuration::from_secs(7));
        let mut s: SoftStore<u32, ()> = SoftStore::default();
        s.offer(1, 9, 1, T0, ());
        s.offer(2, 9, 1, t(4), ());
        // 6 s after entry 1's refresh: under the deadline, nothing expires
        // (a single missed TTL-worth of silence is tolerated).
        assert!(s.expire(t(6), deadline).is_empty());
        assert_eq!(s.len(), 2);
        // 8 s: entry 1 has missed 3 refreshes + slack, entry 2 is fine.
        assert_eq!(s.expire(t(8), deadline), vec![1]);
        assert!(s.contains_key(&2));
        // A refresh (fresh offer) resets the clock.
        s.offer(2, 9, 2, t(10), ());
        assert!(s.expire(t(14), deadline).is_empty());
    }

    #[test]
    fn touch_postpones_expiry_without_gen() {
        let deadline = miss_deadline(SimDuration::from_secs(1), 2);
        let mut s: SoftStore<u32, ()> = SoftStore::default();
        s.offer(1, 3, 5, T0, ());
        s.touch(1, t(2));
        assert!(s.expire(t(3), deadline).is_empty());
        assert_eq!(s.entry(&1).unwrap().gen, 5, "touch must not alter gen");
        s.touch(99, t(2)); // absent key: no-op
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove_and_accessors() {
        let mut s: SoftStore<u32, &str> = SoftStore::default();
        assert!(s.is_empty());
        s.offer(1, 1, 1, T0, "x");
        s.offer(2, 1, 1, T0, "y");
        assert_eq!(s.len(), 2);
        let mut keys: Vec<u32> = s.keys().copied().collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2]);
        assert_eq!(s.values().count(), 2);
        assert_eq!(s.iter().count(), 2);
        let removed = s.remove(&1).unwrap();
        assert_eq!(removed.value, "x");
        assert!(s.remove(&1).is_none());
        assert!(!s.contains_key(&1));
    }

    #[test]
    fn key_revision_tracks_key_set_changes_only() {
        let mut s: SoftStore<u32, &str> = SoftStore::default();
        let r0 = s.key_revision();
        // New key: revision moves.
        s.offer(1, 1, 1, T0, "a");
        let r1 = s.key_revision();
        assert_ne!(r1, r0);
        // Value refresh / stale offers on an existing key: unchanged.
        s.offer(1, 1, 2, t(1), "b");
        s.offer(1, 1, 2, t(2), "dup");
        s.touch(1, t(3));
        assert_eq!(s.key_revision(), r1);
        // Expiry sweep that removes nothing: unchanged.
        assert!(s.expire(t(3), SimDuration::from_secs(60)).is_empty());
        assert_eq!(s.key_revision(), r1);
        // Removal: moves. Removing an absent key: unchanged.
        s.remove(&1);
        let r2 = s.key_revision();
        assert_ne!(r2, r1);
        s.remove(&1);
        assert_eq!(s.key_revision(), r2);
        // Expiry that removes entries: moves.
        s.offer(2, 1, 1, t(4), "x");
        let r3 = s.key_revision();
        assert_eq!(s.expire(t(100), SimDuration::from_secs(1)), vec![2]);
        assert_ne!(s.key_revision(), r3);
    }

    #[test]
    fn miss_deadline_never_underflows() {
        // k_miss = 0 is clamped to 1: expiry always tolerates at least one
        // missed refresh.
        let d = miss_deadline(SimDuration::from_secs(4), 0);
        assert_eq!(d, SimDuration::from_secs(6));
    }
}
