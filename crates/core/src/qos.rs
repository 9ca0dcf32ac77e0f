//! QoS sessions with pre-computed backup routes.
//!
//! The paper positions the HVDB's fault tolerance as the QoS mechanism:
//! "if the current logical route is broken, multiple candidate logical
//! routes become available immediately to sustain the service without QoS
//! being degraded" (§5), citing the pre-computation idea of Shah &
//! Nahrstedt \[22\]. [`SessionManager`] realises that: a session admits a
//! primary route *and* a backup with a distinct first hop at establishment
//! time; when the primary's first hop fails, the session switches to the
//! backup instantly (no re-discovery), and the failover is counted — the
//! quantity experiment C1 reports.

use crate::routes::{QosRequirement, RouteTable};
use hvdb_geo::Hnid;
use rustc_hash::FxHashMap;

/// An admitted QoS session toward one destination CH.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosSession {
    /// Destination label.
    pub dst: Hnid,
    /// The requirement admitted against.
    pub req: QosRequirement,
    /// Current first hop.
    pub primary: Hnid,
    /// Pre-computed alternative first hop, if one existed at establishment
    /// or after the last repair.
    pub backup: Option<Hnid>,
}

/// Outcome of a neighbour failure for one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairOutcome {
    /// The session did not use the failed neighbour.
    Unaffected,
    /// Switched to the pre-computed backup immediately.
    FailedOver,
    /// No backup existed; the session is broken until routes reappear.
    Broken,
}

/// Per-CH session table.
#[derive(Debug, Clone, Default)]
pub struct SessionManager {
    sessions: FxHashMap<Hnid, QosSession>,
    /// Cumulative count of instant failovers (C1's headline number).
    pub failovers: u64,
    /// Cumulative count of sessions broken with no backup.
    pub breaks: u64,
}

impl SessionManager {
    /// An empty session table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits a session to `dst` under `req` using the route table: the
    /// best satisfying route becomes primary, the best distinct-first-hop
    /// satisfying route becomes backup. Returns the session, or `None` if
    /// no qualifying route exists (admission control).
    pub fn establish(
        &mut self,
        table: &RouteTable,
        dst: Hnid,
        req: QosRequirement,
    ) -> Option<QosSession> {
        let primary = table.best_route(dst, &req)?;
        let backup = table
            .backup_route(dst, primary.next_hop, &req)
            .map(|r| r.next_hop);
        let s = QosSession {
            dst,
            req,
            primary: primary.next_hop,
            backup,
        };
        self.sessions.insert(dst, s);
        Some(s)
    }

    /// The active session toward `dst`, if any.
    pub fn session(&self, dst: Hnid) -> Option<&QosSession> {
        self.sessions.get(&dst)
    }

    /// Reacts to the failure of 1-logical-hop neighbour `failed`: every
    /// session whose primary went through it switches to its backup
    /// (re-provisioning the next backup from `table`, which must already
    /// have had `remove_via(failed)` applied). Returns per-session
    /// outcomes, sorted by destination.
    pub fn on_neighbor_failed(
        &mut self,
        table: &RouteTable,
        failed: Hnid,
    ) -> Vec<(Hnid, RepairOutcome)> {
        let mut results = Vec::new();
        let mut broken = Vec::new();
        let mut dsts: Vec<Hnid> = self.sessions.keys().copied().collect();
        dsts.sort_unstable();
        for dst in dsts {
            let s = self.sessions.get_mut(&dst).expect("key just listed");
            if s.primary != failed {
                // An unused backup through the failed neighbour must be
                // re-provisioned, but the session itself is unaffected.
                if s.backup == Some(failed) {
                    s.backup = table
                        .backup_route(dst, s.primary, &s.req)
                        .map(|r| r.next_hop);
                }
                results.push((dst, RepairOutcome::Unaffected));
                continue;
            }
            match s.backup {
                Some(b) => {
                    s.primary = b;
                    s.backup = table.backup_route(dst, b, &s.req).map(|r| r.next_hop);
                    self.failovers += 1;
                    results.push((dst, RepairOutcome::FailedOver));
                }
                None => {
                    self.breaks += 1;
                    broken.push(dst);
                    results.push((dst, RepairOutcome::Broken));
                }
            }
        }
        for dst in broken {
            self.sessions.remove(&dst);
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routes::{AdvertisedRoute, QosMetrics};
    use hvdb_sim::{SimDuration, SimTime};

    fn link(ms: u64) -> QosMetrics {
        QosMetrics {
            delay: SimDuration::from_millis(ms),
            bandwidth_bps: 2e6,
        }
    }

    /// Table at node 0 with routes to dst 3 via 1 (1 ms) and via 2 (3 ms).
    fn table_two_ways() -> RouteTable {
        let mut t = RouteTable::new(Hnid(0), 4);
        t.integrate_beacon(
            Hnid(1),
            link(1),
            &[AdvertisedRoute {
                dst: Hnid(3),
                hops: 1,
                qos: link(1),
            }],
            SimTime::ZERO,
        );
        t.integrate_beacon(
            Hnid(2),
            link(3),
            &[AdvertisedRoute {
                dst: Hnid(3),
                hops: 1,
                qos: link(3),
            }],
            SimTime::ZERO,
        );
        t
    }

    #[test]
    fn establish_picks_primary_and_disjoint_backup() {
        let t = table_two_ways();
        let mut sm = SessionManager::new();
        let s = sm
            .establish(&t, Hnid(3), QosRequirement::BEST_EFFORT)
            .unwrap();
        assert_eq!(s.primary, Hnid(1));
        assert_eq!(s.backup, Some(Hnid(2)));
        assert!(sm.session(Hnid(3)).is_some());
    }

    #[test]
    fn admission_control_rejects_unsatisfiable() {
        let t = table_two_ways();
        let mut sm = SessionManager::new();
        let req = QosRequirement {
            max_delay: SimDuration::from_millis(1),
            min_bandwidth_bps: 10e6, // more than any link offers
        };
        assert!(sm.establish(&t, Hnid(3), req).is_none());
        assert!(sm.session(Hnid(3)).is_none());
    }

    #[test]
    fn failover_is_instant_and_counted() {
        let mut t = table_two_ways();
        let mut sm = SessionManager::new();
        sm.establish(&t, Hnid(3), QosRequirement::BEST_EFFORT);
        t.remove_via(Hnid(1));
        let outcomes = sm.on_neighbor_failed(&t, Hnid(1));
        assert_eq!(outcomes, vec![(Hnid(3), RepairOutcome::FailedOver)]);
        assert_eq!(sm.failovers, 1);
        assert_eq!(sm.breaks, 0);
        let s = sm.session(Hnid(3)).unwrap();
        assert_eq!(s.primary, Hnid(2));
        assert_eq!(s.backup, None); // only one way remains
    }

    #[test]
    fn no_backup_breaks_session() {
        let mut t = RouteTable::new(Hnid(0), 4);
        t.integrate_beacon(
            Hnid(1),
            link(1),
            &[AdvertisedRoute {
                dst: Hnid(3),
                hops: 1,
                qos: link(1),
            }],
            SimTime::ZERO,
        );
        let mut sm = SessionManager::new();
        let s = sm
            .establish(&t, Hnid(3), QosRequirement::BEST_EFFORT)
            .unwrap();
        assert_eq!(s.backup, None);
        t.remove_via(Hnid(1));
        let outcomes = sm.on_neighbor_failed(&t, Hnid(1));
        assert_eq!(outcomes, vec![(Hnid(3), RepairOutcome::Broken)]);
        assert_eq!(sm.breaks, 1);
        assert!(sm.session(Hnid(3)).is_none());
    }

    #[test]
    fn unaffected_sessions_reprovision_lost_backups() {
        let mut t = table_two_ways();
        let mut sm = SessionManager::new();
        sm.establish(&t, Hnid(3), QosRequirement::BEST_EFFORT);
        // Neighbour 2 fails: session primary (via 1) unaffected, but its
        // backup (via 2) must be cleared.
        t.remove_via(Hnid(2));
        let outcomes = sm.on_neighbor_failed(&t, Hnid(2));
        assert_eq!(outcomes, vec![(Hnid(3), RepairOutcome::Unaffected)]);
        let s = sm.session(Hnid(3)).unwrap();
        assert_eq!(s.primary, Hnid(1));
        assert_eq!(s.backup, None);
        assert_eq!(sm.failovers, 0);
    }

    #[test]
    fn qos_preserved_across_failover_when_backup_qualifies() {
        // Paper §5: failover "without QoS being degraded" — the backup was
        // admitted against the same requirement.
        let mut t = table_two_ways();
        let req = QosRequirement {
            max_delay: SimDuration::from_millis(10),
            min_bandwidth_bps: 1e6,
        };
        let mut sm = SessionManager::new();
        let s = sm.establish(&t, Hnid(3), req).unwrap();
        assert!(s.backup.is_some());
        t.remove_via(Hnid(1));
        sm.on_neighbor_failed(&t, Hnid(1));
        let s = sm.session(Hnid(3)).unwrap();
        // The backup route still satisfies the requirement by construction.
        let r = t.best_route(Hnid(3), &req).unwrap();
        assert_eq!(r.next_hop, s.primary);
    }
}
