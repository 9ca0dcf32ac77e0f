//! Property-based tests for the HVDB core data structures: summary
//! pipeline invariants, route-table invariants, mesh-tree invariants, the
//! designated-broadcaster uniqueness guarantee, and the live election's
//! agreement with the static one.

use hvdb_cluster::{elect, Candidate};
use hvdb_core::packet::CandScore;
use hvdb_core::routes::{AdvertisedRoute, QosMetrics, MAX_ALTERNATIVES};
use hvdb_core::{
    DesignationCriterion, GroupId, HtSummary, LocalMembership, MembershipDb, MeshTree, MntSummary,
    MtSummary, RouteTable,
};
use hvdb_geo::{Aabb, Hid, Hnid, Point, VcGrid, VcId, Vec2};
use hvdb_hypercube::IncompleteHypercube;
use hvdb_sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn arb_local() -> impl Strategy<Value = LocalMembership> {
    proptest::collection::vec(0u32..20, 0..6).prop_map(|gs| {
        let mut lm = LocalMembership::default();
        for g in gs {
            lm.join(GroupId(g));
        }
        lm
    })
}

proptest! {
    /// MNT counts equal the sum of member flags, and the wire size scales
    /// only with distinct groups.
    #[test]
    fn mnt_summary_counts_are_exact(locals in proptest::collection::vec(arb_local(), 0..30)) {
        let mnt = MntSummary::from_locals(VcId::new(0, 0), locals.iter());
        for (g, count) in &mnt.counts {
            let expect = locals.iter().filter(|l| l.contains(*g)).count() as u32;
            prop_assert_eq!(*count, expect);
            prop_assert!(expect > 0);
        }
        // No zero-count entries exist.
        let total: u32 = mnt.counts.values().sum();
        let expect_total: u32 = locals.iter().map(|l| l.groups.len() as u32).sum();
        prop_assert_eq!(total, expect_total);
    }

    /// HT presence lists exactly the labels whose MNT contains the group,
    /// and member counts add up.
    #[test]
    fn ht_summary_is_exact_union(
        entries in proptest::collection::vec((0u32..16, arb_local()), 0..16),
    ) {
        let mnts: Vec<(Hnid, MntSummary)> = entries
            .iter()
            .enumerate()
            .map(|(i, (_, lm))| {
                (Hnid(i as u32), MntSummary::from_locals(VcId::new(0, 0), std::iter::once(lm)))
            })
            .collect();
        let ht = HtSummary::from_mnt(Hid::new(0, 0), mnts.iter().map(|(l, m)| (*l, m)));
        for (g, p) in &ht.presence {
            let expect_labels: Vec<Hnid> = mnts
                .iter()
                .filter(|(_, m)| m.has_group(*g))
                .map(|(l, _)| *l)
                .collect();
            prop_assert_eq!(p.nodes.clone(), expect_labels);
            let expect_members: u32 = mnts
                .iter()
                .filter_map(|(_, m)| m.counts.get(g))
                .sum();
            prop_assert_eq!(p.members, expect_members);
        }
    }

    /// MT integration is idempotent and converges to the same state
    /// regardless of the order HT summaries arrive in.
    #[test]
    fn mt_integration_order_independent(
        hts in proptest::collection::vec((0u16..4, 0u16..4, proptest::collection::vec(0u32..8, 0..5)), 1..10),
    ) {
        let summaries: Vec<HtSummary> = hts
            .iter()
            .map(|(r, c, groups)| {
                let mut lm = LocalMembership::default();
                for g in groups {
                    lm.join(GroupId(*g));
                }
                let mnt = MntSummary::from_locals(VcId::new(0, 0), std::iter::once(&lm));
                HtSummary::from_mnt(Hid::new(*r, *c), [(Hnid(0), &mnt)].into_iter())
            })
            .collect();
        // Keep only the LAST summary per hid (later ones overwrite).
        let mut last: std::collections::BTreeMap<Hid, HtSummary> = Default::default();
        for ht in &summaries {
            last.insert(ht.hid, ht.clone());
        }
        let mut forward = MtSummary::default();
        for ht in last.values() {
            forward.integrate(ht);
        }
        let mut backward = MtSummary::default();
        for ht in last.values().rev() {
            backward.integrate(ht);
        }
        for g in 0u32..8 {
            prop_assert_eq!(
                forward.hypercubes_with(GroupId(g)),
                backward.hypercubes_with(GroupId(g))
            );
        }
        // Idempotent: re-integrating the same summaries changes nothing.
        for ht in last.values() {
            prop_assert!(!forward.integrate(ht));
        }
    }

    /// Route table invariants under arbitrary beacon sequences: alternatives
    /// per destination are bounded, have distinct first hops, are sorted by
    /// (hops, delay), and never exceed the horizon.
    #[test]
    fn route_table_invariants(
        beacons in proptest::collection::vec(
            (0u32..8, 1u64..20, proptest::collection::vec((0u32..16, 0u32..5, 1u64..30), 0..8)),
            0..30,
        ),
        k in 1u32..6,
    ) {
        let me = Hnid(31);
        let mut t = RouteTable::new(me, k);
        for (i, (from, link_ms, advs)) in beacons.iter().enumerate() {
            let link = QosMetrics {
                delay: SimDuration::from_millis(*link_ms),
                bandwidth_bps: 2e6,
            };
            let advertised: Vec<AdvertisedRoute> = advs
                .iter()
                .map(|(dst, hops, ms)| AdvertisedRoute {
                    dst: Hnid(*dst),
                    hops: *hops,
                    qos: QosMetrics {
                        delay: SimDuration::from_millis(*ms),
                        bandwidth_bps: 2e6,
                    },
                })
                .collect();
            t.integrate_beacon(Hnid(*from), link, &advertised, SimTime(i as u64));
        }
        for dst in (0u32..32).map(Hnid) {
            let routes = t.routes_to(dst);
            prop_assert!(routes.len() <= MAX_ALTERNATIVES);
            let mut firsts: Vec<Hnid> = routes.iter().map(|r| r.next_hop).collect();
            firsts.sort_unstable();
            firsts.dedup();
            prop_assert_eq!(firsts.len(), routes.len(), "duplicate first hops");
            for w in routes.windows(2) {
                prop_assert!((w[0].hops, w[0].qos.delay) <= (w[1].hops, w[1].qos.delay));
            }
            for r in routes {
                prop_assert!(r.hops <= t.k());
                prop_assert_ne!(r.dst, me);
            }
            if let Some(best) = t.best_route(dst) {
                prop_assert_eq!(best, &routes[0]);
            }
        }
    }

    /// remove_via leaves no route through the removed neighbour.
    #[test]
    fn remove_via_is_complete(
        neighbors in proptest::collection::vec(0u32..6, 1..6),
        victim in 0u32..6,
    ) {
        let mut t = RouteTable::new(Hnid(31), 4);
        let link = QosMetrics {
            delay: SimDuration::from_millis(1),
            bandwidth_bps: 2e6,
        };
        for n in &neighbors {
            let adv = [AdvertisedRoute {
                dst: Hnid(20),
                hops: 1,
                qos: link,
            }];
            t.integrate_beacon(Hnid(*n), link, &adv, SimTime::ZERO);
        }
        t.remove_via(Hnid(victim));
        for dst in (0u32..32).map(Hnid) {
            for r in t.routes_to(dst) {
                prop_assert_ne!(r.next_hop, Hnid(victim));
            }
        }
    }

    /// Mesh trees cover all destinations, decode losslessly, and their edge
    /// count never exceeds the sum of individual path lengths.
    #[test]
    fn mesh_tree_invariants(
        root in (0u16..6, 0u16..6),
        dests in proptest::collection::vec((0u16..6, 0u16..6), 0..12),
    ) {
        let root = Hid::new(root.0, root.1);
        let hids: Vec<Hid> = dests.iter().map(|(r, c)| Hid::new(*r, *c)).collect();
        let t = MeshTree::build(root, &hids);
        let mut path_sum = 0;
        for d in &hids {
            prop_assert!(t.contains(*d));
            path_sum += root.mesh_distance(*d) as usize;
        }
        prop_assert!(t.edge_count() <= path_sum);
        let back = MeshTree::decode_edges(root, &t.encode_edges()).unwrap();
        prop_assert_eq!(back, t);
    }

    /// Over any shared MNT state and any criterion, exactly one CH
    /// self-designates as the HT broadcaster.
    #[test]
    fn designation_unique(
        labels in proptest::collection::vec((0u32..16, proptest::collection::vec(0u32..6, 0..4)), 1..12),
        criterion in prop_oneof![
            Just(DesignationCriterion::MostGroups),
            Just(DesignationCriterion::NeighborhoodGroups),
        ],
    ) {
        let mut db = MembershipDb::default();
        let mut present = Vec::new();
        for (label, groups) in &labels {
            let mut lm = LocalMembership::default();
            for g in groups {
                lm.join(GroupId(*g));
            }
            let mnt = MntSummary::from_locals(VcId::new(0, 0), std::iter::once(&lm));
            db.store_mnt(Hnid(*label), *label, 1, SimTime::ZERO, &mnt);
            present.push(*label);
        }
        let cube = IncompleteHypercube::with_nodes(4, present.clone());
        let mut distinct = present.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let winners: Vec<u32> = distinct
            .iter()
            .filter(|l| db.should_broadcast(Hnid(**l), criterion, &cube))
            .copied()
            .collect();
        prop_assert_eq!(winners.len(), 1, "criterion {:?}", criterion);
    }

    /// The live election and the static model order candidates alike:
    /// folding candidacy broadcasts with `CandScore::beats` (as
    /// `on_candidacy_timer` merges them) picks `hvdb_cluster::elect`'s
    /// winner. Candidates sit in one VC's cell, stationary, slow (residence
    /// around the 300 s cap) or fast (a few 10 s buckets); their VCC
    /// distances differ pairwise by at least 1 µm, the resolution a
    /// candidacy carries.
    #[test]
    fn candidacy_scores_pick_the_static_winner(
        raw in proptest::collection::vec(
            (-0.5..0.5f64, -0.5..0.5f64, -1.0..1.0f64, -1.0..1.0f64, 0u8..3),
            1..12,
        ),
    ) {
        let grid = VcGrid::with_dimensions(Aabb::from_size(800.0, 800.0), 8, 8);
        let vc = VcId::new(3, 4);
        let centre = grid.vcc(vc);
        let cands: Vec<Candidate> = raw
            .iter()
            .enumerate()
            .map(|(i, &(dx, dy, vx, vy, speed))| Candidate {
                node: i as u32,
                pos: Point::new(centre.x + dx * grid.spacing(), centre.y + dy * grid.spacing()),
                vel: Vec2::new(vx, vy) * [0.0, 0.3, 3.0][speed as usize],
                eligible: true,
            })
            .collect();
        let dists: Vec<f64> = cands.iter().map(|c| centre.distance(c.pos)).collect();
        prop_assume!(dists
            .iter()
            .enumerate()
            .all(|(i, a)| dists[..i].iter().all(|b| (a - b).abs() >= 1e-6)));
        let live = cands
            .iter()
            .map(|c| {
                prop_assert_eq!(grid.vc_of(c.pos), vc);
                CandScore::new(&grid, vc, c.node, c.pos, c.vel).expect("inside the VC")
            })
            .reduce(|best, s| if s.beats(&best) { s } else { best })
            .map(|s| s.node);
        prop_assert_eq!(live, elect(&grid, vc, &cands));
    }
}

proptest! {
    /// `MembershipDb::memory_bytes` tracks the live entry population
    /// exactly across arbitrary join / leave-all / drop / expiry churn:
    /// removed entries must stop counting (no leaked accumulation) and
    /// surviving entries must count their real per-entry payload lengths.
    /// The test replays every report against an independent shadow model
    /// of the Local-Membership store's staleness semantics and re-derives
    /// the byte estimate from shadow entry counts after every operation.
    #[test]
    fn membership_memory_estimate_tracks_churn(
        ops in proptest::collection::vec(
            (0u8..5, 0u32..12, 0u64..16, proptest::collection::vec(0u32..10, 0..6)),
            1..60,
        ),
    ) {
        use hvdb_core::SoftEntry;
        use std::collections::BTreeMap;
        use std::mem::size_of;

        let deadline = SimDuration::from_millis(10_000);
        let mut db = MembershipDb::default();
        let mut now = SimTime::ZERO;
        // Shadow: node -> (gen, distinct group count, refreshed_at).
        let mut shadow: BTreeMap<u32, (u64, usize, SimTime)> = BTreeMap::new();

        for (kind, node, gen, groups) in ops {
            match kind {
                // A Local-Membership report: join/refresh when it names
                // groups, an explicit leave-all when it is empty.
                0 | 1 => {
                    let mut lm = LocalMembership::default();
                    for g in &groups {
                        lm.join(GroupId(*g));
                    }
                    let distinct = lm.groups.len();
                    db.store_local(node, &lm, gen, now);
                    if distinct == 0 {
                        // Leave-all is honoured only when not stale.
                        if shadow.get(&node).is_some_and(|&(g0, _, _)| gen > g0) {
                            shadow.remove(&node);
                        }
                    } else {
                        match shadow.get_mut(&node) {
                            None => {
                                shadow.insert(node, (gen, distinct, now));
                            }
                            Some(e) if gen > e.0 => *e = (gen, distinct, now),
                            // A duplicate at the current stamp is stale
                            // for propagation but proves the member
                            // alive: only the refresh clock moves.
                            Some(e) if gen == e.0 => e.2 = now,
                            Some(_) => {}
                        }
                    }
                }
                2 => {
                    db.locals.remove(&node);
                    shadow.remove(&node);
                }
                3 => now += SimDuration::from_millis(1000 * (1 + gen % 4)),
                _ => {
                    db.prune_locals(now, deadline);
                    shadow.retain(|_, &mut (_, _, refreshed)| now.since(refreshed) <= deadline);
                }
            }
            let expected: usize = shadow
                .values()
                .map(|&(_, distinct, _)| {
                    size_of::<u32>()
                        + size_of::<SoftEntry<LocalMembership>>()
                        + distinct * size_of::<GroupId>()
                })
                .sum();
            prop_assert_eq!(db.memory_bytes(), expected);
        }
    }

    /// `RouteTable::memory_bytes` stays consistent with the publicly
    /// observable route population across beacon / neighbour-failure /
    /// TTL-expiry churn: every destination slot counts exactly its live
    /// alternatives and no slot survives losing its last route.
    #[test]
    fn route_table_memory_estimate_tracks_churn(
        ops in proptest::collection::vec(
            (0u8..4, 1u32..8, proptest::collection::vec((0u32..16, 0u32..4), 0..5)),
            1..40,
        ),
    ) {
        use std::mem::size_of;

        let me = Hnid(31);
        let ttl = SimDuration::from_millis(5_000);
        let mut t = RouteTable::new(me, 4);
        let mut now = SimTime::ZERO;
        let link = QosMetrics {
            delay: SimDuration::from_millis(2),
            bandwidth_bps: 2e6,
        };

        for (kind, from, advs) in ops {
            match kind {
                0 | 1 => {
                    let advertised: Vec<AdvertisedRoute> = advs
                        .iter()
                        .map(|(dst, hops)| AdvertisedRoute {
                            dst: Hnid(*dst),
                            hops: *hops,
                            qos: link,
                        })
                        .collect();
                    t.integrate_beacon(Hnid(from), link, &advertised, now);
                }
                2 => {
                    t.remove_via(Hnid(from));
                }
                _ => {
                    now += SimDuration::from_millis(2_000);
                    t.expire(now, ttl);
                }
            }
            let mut expected = 0usize;
            let mut live_dsts = 0usize;
            for dst in (0u32..32).map(Hnid) {
                let routes = t.routes_to(dst);
                if !routes.is_empty() {
                    live_dsts += 1;
                    expected += size_of::<Hnid>() + std::mem::size_of_val(routes);
                }
            }
            prop_assert_eq!(t.destination_count(), live_dsts, "empty slot leaked");
            prop_assert_eq!(t.memory_bytes(), expected);
        }
    }
}
