//! Proactive local logical route maintenance (paper §4.1, Fig. 4).
//!
//! "Each CH periodically exchanges its local logical route information with
//! those CHs that are at most k ≥ 1 logical hops away. … In particular, the
//! information such as delay and bandwidth is maintained in each specific
//! local logical route, which is used for QoS routing."
//!
//! [`RouteTable`] is the per-CH state: a bounded distance-vector over the
//! *logical* topology. Each beacon a CH sends carries its own advertised
//! routes (up to `k − 1` hops); a receiving CH composes them with the
//! measured QoS of the incoming logical link. Up to [`MAX_ALTERNATIVES`]
//! routes per destination with *distinct first hops* are retained, ranked
//! by `(hops, delay)` — the disjoint candidates the paper's availability
//! argument needs ("multiple candidate logical routes become available
//! immediately", §5).
//!
//! That instant failover is [`RouteTable::remove_via`]: when a logical
//! neighbour's beacons stop, its routes go and each destination's next
//! alternative becomes its best route with no re-discovery. The protocol
//! counts each such switch in
//! [`Counters::route_failovers`](crate::Counters::route_failovers).

use hvdb_geo::Hnid;
use hvdb_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// QoS metrics of a (concatenation of) logical link(s).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QosMetrics {
    /// Accumulated delay.
    pub delay: SimDuration,
    /// Bottleneck bandwidth (bits/second). Recorded only: delay alone
    /// ranks the alternatives.
    pub bandwidth_bps: f64,
}

impl QosMetrics {
    /// A perfect zero-cost metric (identity for [`QosMetrics::concat`]).
    pub const IDENTITY: QosMetrics = QosMetrics {
        delay: SimDuration::ZERO,
        bandwidth_bps: f64::INFINITY,
    };

    /// Series composition: delays add, bandwidth is the bottleneck minimum.
    #[inline]
    pub fn concat(&self, then: &QosMetrics) -> QosMetrics {
        QosMetrics {
            delay: self.delay + then.delay,
            bandwidth_bps: self.bandwidth_bps.min(then.bandwidth_bps),
        }
    }
}

/// One route advertised inside a beacon.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdvertisedRoute {
    /// Destination label.
    pub dst: Hnid,
    /// Logical hops from the advertiser.
    pub hops: u32,
    /// QoS from the advertiser to the destination.
    pub qos: QosMetrics,
}

/// Wire size of one advertised route (bytes), for overhead accounting.
pub const ADVERTISED_ROUTE_BYTES: usize = 16;

/// One retained route.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteEntry {
    /// Destination label.
    pub dst: Hnid,
    /// Total logical hops.
    pub hops: u32,
    /// First logical hop (a 1-logical-hop neighbour CH).
    pub next_hop: Hnid,
    /// End-to-end QoS estimate.
    pub qos: QosMetrics,
    /// When this entry was last refreshed.
    pub updated: SimTime,
}

/// Alternatives retained per destination (distinct first hops).
pub const MAX_ALTERNATIVES: usize = 3;

/// One destination's retained alternatives, stored inline — no boxed
/// `Vec` per destination. `entries[..len]` is kept sorted by
/// `(hops, delay, next_hop)`; the unused tail is padding.
#[derive(Debug, Clone, Copy)]
struct RouteSlot {
    dst: Hnid,
    len: u8,
    entries: [RouteEntry; MAX_ALTERNATIVES],
}

/// A CH's proactively maintained local logical route table.
///
/// Flat layout: one contiguous `Vec` of per-destination slots sorted by
/// destination label (binary-searched on lookup), each holding its up to
/// [`MAX_ALTERNATIVES`] routes inline. One allocation for the whole
/// table, cache-linear iteration, and naturally sorted traversal for
/// `advertisement`/`neighbors`.
#[derive(Debug, Clone)]
pub struct RouteTable {
    me: Hnid,
    k: u32,
    slots: Vec<RouteSlot>,
}

impl RouteTable {
    /// An empty table for the CH labelled `me`, maintaining routes of at
    /// most `k` logical hops (the system parameter of §4.1, "e.g., k = 4").
    pub fn new(me: Hnid, k: u32) -> Self {
        assert!(k >= 1, "k must be at least 1 (paper: k >= 1)");
        RouteTable {
            me,
            k,
            slots: Vec::new(),
        }
    }

    /// The owning label.
    pub fn me(&self) -> Hnid {
        self.me
    }

    /// The horizon `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of destinations with at least one route.
    pub fn destination_count(&self) -> usize {
        self.slots.len()
    }

    /// Deterministic content-byte estimate of the table (entries × entry
    /// size, not allocator capacity) — feeds the `scale` scenario's
    /// `memory_per_node_bytes` column.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slots
            .iter()
            .map(|s| size_of::<Hnid>() + s.len as usize * size_of::<RouteEntry>())
            .sum()
    }

    #[inline]
    fn slot(&self, dst: Hnid) -> Option<&RouteSlot> {
        self.slots
            .binary_search_by_key(&dst, |s| s.dst)
            .ok()
            .map(|i| &self.slots[i])
    }

    /// Integrates a beacon received from 1-logical-hop neighbour `from`
    /// over a link with measured QoS `link`, advertising `advertised`.
    /// Implements step 2 of Fig. 4 ("Each CH updates its local logical
    /// routes when receiving a beacon message").
    pub fn integrate_beacon(
        &mut self,
        from: Hnid,
        link: QosMetrics,
        advertised: &[AdvertisedRoute],
        now: SimTime,
    ) {
        if from == self.me {
            return;
        }
        // The beacon itself proves a 1-hop route to the sender.
        self.offer(RouteEntry {
            dst: from,
            hops: 1,
            next_hop: from,
            qos: link,
            updated: now,
        });
        for adv in advertised {
            if adv.dst == self.me || adv.dst == from {
                continue;
            }
            let hops = adv.hops + 1;
            if hops > self.k {
                continue;
            }
            self.offer(RouteEntry {
                dst: adv.dst,
                hops,
                next_hop: from,
                qos: link.concat(&adv.qos),
                updated: now,
            });
        }
    }

    fn offer(&mut self, entry: RouteEntry) {
        let idx = match self.slots.binary_search_by_key(&entry.dst, |s| s.dst) {
            Ok(i) => i,
            Err(i) => {
                // `entry` doubles as padding for the unused inline tail.
                self.slots.insert(
                    i,
                    RouteSlot {
                        dst: entry.dst,
                        len: 0,
                        entries: [entry; MAX_ALTERNATIVES],
                    },
                );
                i
            }
        };
        let slot = &mut self.slots[idx];
        let n = slot.len as usize;
        // Work in a MAX_ALTERNATIVES + 1 scratch so a worse-than-all offer
        // still competes and loses by sort order, exactly as before.
        let mut buf = [entry; MAX_ALTERNATIVES + 1];
        buf[..n].copy_from_slice(&slot.entries[..n]);
        let total = match buf[..n].iter_mut().find(|r| r.next_hop == entry.next_hop) {
            // Same first hop: the beacon is fresher truth for that path.
            Some(existing) => {
                *existing = entry;
                n
            }
            None => {
                buf[n] = entry;
                n + 1
            }
        };
        // Keep the best MAX_ALTERNATIVES by (hops, delay, next_hop); the
        // key is unique per entry (distinct first hops), so the unstable
        // sort is deterministic.
        buf[..total].sort_unstable_by(|a, b| {
            (a.hops, a.qos.delay, a.next_hop).cmp(&(b.hops, b.qos.delay, b.next_hop))
        });
        let kept = total.min(MAX_ALTERNATIVES);
        slot.entries[..kept].copy_from_slice(&buf[..kept]);
        slot.len = kept as u8;
    }

    /// The best route to `dst`: fewest hops, then least delay.
    pub fn best_route(&self, dst: Hnid) -> Option<&RouteEntry> {
        self.routes_to(dst).first()
    }

    /// All retained routes to `dst`, best first.
    pub fn routes_to(&self, dst: Hnid) -> &[RouteEntry] {
        self.slot(dst).map_or(&[], |s| &s.entries[..s.len as usize])
    }

    /// The table's advertisement for outgoing beacons: the best route per
    /// destination, limited to `k − 1` hops (so composed routes stay within
    /// `k` at the receiver). Ascending by destination (the slot array's
    /// natural order).
    pub fn advertisement(&self) -> Vec<AdvertisedRoute> {
        self.slots
            .iter()
            .filter(|s| s.len > 0)
            .map(|s| (s.dst, &s.entries[0]))
            .filter(|(_, r)| r.hops <= self.k.saturating_sub(1))
            .map(|(dst, r)| AdvertisedRoute {
                dst,
                hops: r.hops,
                qos: r.qos,
            })
            .collect()
    }

    /// Drops every route whose first hop is `neighbor` (it failed or moved
    /// away). Returns the destinations that lost their *best* route but
    /// still have an alternative — the immediate-failover set, ascending.
    pub fn remove_via(&mut self, neighbor: Hnid) -> Vec<Hnid> {
        let mut failovers = Vec::new();
        self.slots.retain_mut(|slot| {
            let n = slot.len as usize;
            let was_best = n > 0 && slot.entries[0].next_hop == neighbor;
            let mut kept = 0;
            for i in 0..n {
                if slot.entries[i].next_hop != neighbor {
                    slot.entries[kept] = slot.entries[i];
                    kept += 1;
                }
            }
            slot.len = kept as u8;
            if kept == 0 {
                return false;
            }
            if was_best {
                failovers.push(slot.dst);
            }
            true
        });
        // Slot order is ascending by dst already.
        failovers
    }

    /// Drops entries not refreshed within `ttl` of `now`. Returns how many
    /// entries expired.
    pub fn expire(&mut self, now: SimTime, ttl: SimDuration) -> usize {
        let mut expired = 0;
        self.slots.retain_mut(|slot| {
            let n = slot.len as usize;
            let mut kept = 0;
            for i in 0..n {
                if now.since(slot.entries[i].updated) <= ttl {
                    slot.entries[kept] = slot.entries[i];
                    kept += 1;
                }
            }
            expired += n - kept;
            slot.len = kept as u8;
            kept > 0
        });
        expired
    }

    /// The 1-logical-hop neighbours currently in the table, ascending.
    pub fn neighbors(&self) -> Vec<Hnid> {
        self.slots
            .iter()
            .filter(|s| s.entries[..s.len as usize].iter().any(|r| r.hops == 1))
            .map(|s| s.dst)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(ms: u64, mbps: f64) -> QosMetrics {
        QosMetrics {
            delay: SimDuration::from_millis(ms),
            bandwidth_bps: mbps * 1e6,
        }
    }

    #[test]
    fn qos_concat_adds_delay_and_bottlenecks_bandwidth() {
        let a = link(10, 2.0);
        let b = link(5, 1.0);
        let c = a.concat(&b);
        assert_eq!(c.delay, SimDuration::from_millis(15));
        assert_eq!(c.bandwidth_bps, 1e6);
        assert_eq!(QosMetrics::IDENTITY.concat(&a), a);
    }

    #[test]
    fn beacon_installs_one_hop_route() {
        let mut t = RouteTable::new(Hnid(0b1000), 4);
        t.integrate_beacon(Hnid(0b1001), link(2, 2.0), &[], SimTime::ZERO);
        let r = t.best_route(Hnid(0b1001)).unwrap();
        assert_eq!(r.hops, 1);
        assert_eq!(r.next_hop, Hnid(0b1001));
        assert_eq!(t.neighbors(), vec![Hnid(0b1001)]);
    }

    #[test]
    fn advertised_routes_compose_with_link_qos() {
        let mut t = RouteTable::new(Hnid(0b1000), 4);
        let adv = [AdvertisedRoute {
            dst: Hnid(0b1100),
            hops: 1,
            qos: link(5, 1.0),
        }];
        t.integrate_beacon(Hnid(0b1001), link(2, 2.0), &adv, SimTime::ZERO);
        let r = t.best_route(Hnid(0b1100)).unwrap();
        assert_eq!(r.hops, 2);
        assert_eq!(r.next_hop, Hnid(0b1001));
        assert_eq!(r.qos.delay, SimDuration::from_millis(7));
        assert_eq!(r.qos.bandwidth_bps, 1e6);
    }

    #[test]
    fn horizon_k_caps_route_length() {
        let mut t = RouteTable::new(Hnid(0), 2);
        let adv = [AdvertisedRoute {
            dst: Hnid(7),
            hops: 2, // would become 3 > k
            qos: link(1, 1.0),
        }];
        t.integrate_beacon(Hnid(1), link(1, 1.0), &adv, SimTime::ZERO);
        assert!(t.best_route(Hnid(7)).is_none());
        assert_eq!(t.destination_count(), 1); // only the neighbour itself
    }

    #[test]
    fn paper_example_node_1000_routes() {
        // §4.1's worked example: 1-hop routes of 1000 include 1001, 1010,
        // 0010, 1100, 0000; 2-hop routes include 1000->1001->1100 etc.
        let mut t = RouteTable::new(Hnid(0b1000), 4);
        let one_hop = [
            Hnid(0b1001),
            Hnid(0b1010),
            Hnid(0b0010),
            Hnid(0b1100),
            Hnid(0b0000),
        ];
        for n in one_hop {
            t.integrate_beacon(n, link(1, 2.0), &[], SimTime::ZERO);
        }
        // 1001 advertises its neighbour 1101 (not directly reachable).
        t.integrate_beacon(
            Hnid(0b1001),
            link(1, 2.0),
            &[AdvertisedRoute {
                dst: Hnid(0b1101),
                hops: 1,
                qos: link(1, 2.0),
            }],
            SimTime::ZERO,
        );
        assert_eq!(t.neighbors().len(), 5);
        let r = t.best_route(Hnid(0b1101)).unwrap();
        assert_eq!(r.hops, 2);
        assert_eq!(r.next_hop, Hnid(0b1001));
    }

    #[test]
    fn alternatives_have_distinct_first_hops_and_backup_works() {
        let mut t = RouteTable::new(Hnid(0b0000), 4);
        // Two routes to 0011: via 0001 (faster) and via 0010 (slower).
        t.integrate_beacon(
            Hnid(0b0001),
            link(1, 2.0),
            &[AdvertisedRoute {
                dst: Hnid(0b0011),
                hops: 1,
                qos: link(1, 2.0),
            }],
            SimTime::ZERO,
        );
        t.integrate_beacon(
            Hnid(0b0010),
            link(3, 2.0),
            &[AdvertisedRoute {
                dst: Hnid(0b0011),
                hops: 1,
                qos: link(3, 2.0),
            }],
            SimTime::ZERO,
        );
        let best = t.best_route(Hnid(0b0011)).unwrap();
        assert_eq!(best.next_hop, Hnid(0b0001));
        let routes = t.routes_to(Hnid(0b0011));
        assert_eq!(routes.len(), 2);
        assert_eq!(routes[1].next_hop, Hnid(0b0010));
    }

    #[test]
    fn refresh_replaces_same_first_hop_entry() {
        let mut t = RouteTable::new(Hnid(0), 4);
        t.integrate_beacon(Hnid(1), link(5, 1.0), &[], SimTime::ZERO);
        t.integrate_beacon(Hnid(1), link(2, 2.0), &[], SimTime::from_secs(1));
        let routes = t.routes_to(Hnid(1));
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].qos.delay, SimDuration::from_millis(2));
        assert_eq!(routes[0].updated, SimTime::from_secs(1));
    }

    #[test]
    fn remove_via_reports_failovers() {
        let mut t = RouteTable::new(Hnid(0), 4);
        // dst 3: best via 1, backup via 2. dst 5: only via 1.
        t.integrate_beacon(
            Hnid(1),
            link(1, 2.0),
            &[
                AdvertisedRoute {
                    dst: Hnid(3),
                    hops: 1,
                    qos: link(1, 2.0),
                },
                AdvertisedRoute {
                    dst: Hnid(5),
                    hops: 1,
                    qos: link(1, 2.0),
                },
            ],
            SimTime::ZERO,
        );
        t.integrate_beacon(
            Hnid(2),
            link(2, 2.0),
            &[AdvertisedRoute {
                dst: Hnid(3),
                hops: 1,
                qos: link(2, 2.0),
            }],
            SimTime::ZERO,
        );
        let failovers = t.remove_via(Hnid(1));
        // dst 3 failed over to its alternative; dst 5 (and neighbour 1) gone.
        assert_eq!(failovers, vec![Hnid(3)]);
        assert!(t.best_route(Hnid(5)).is_none());
        assert!(t.best_route(Hnid(1)).is_none());
        let r3 = t.best_route(Hnid(3)).unwrap();
        assert_eq!(r3.next_hop, Hnid(2));
    }

    #[test]
    fn expiry_drops_stale_routes() {
        let mut t = RouteTable::new(Hnid(0), 4);
        t.integrate_beacon(Hnid(1), link(1, 2.0), &[], SimTime::ZERO);
        t.integrate_beacon(Hnid(2), link(1, 2.0), &[], SimTime::from_secs(10));
        let expired = t.expire(SimTime::from_secs(12), SimDuration::from_secs(5));
        assert_eq!(expired, 1);
        assert!(t.routes_to(Hnid(1)).is_empty());
        assert_eq!(t.routes_to(Hnid(2)).len(), 1);
    }

    #[test]
    fn advertisement_respects_k_minus_one() {
        let mut t = RouteTable::new(Hnid(0), 2);
        t.integrate_beacon(
            Hnid(1),
            link(1, 2.0),
            &[AdvertisedRoute {
                dst: Hnid(3),
                hops: 1,
                qos: link(1, 2.0),
            }],
            SimTime::ZERO,
        );
        // Table has 1-hop (to 1) and 2-hop (to 3) routes; with k = 2 only
        // the 1-hop route may be advertised.
        let adv = t.advertisement();
        assert_eq!(adv.len(), 1);
        assert_eq!(adv[0].dst, Hnid(1));
    }
}
