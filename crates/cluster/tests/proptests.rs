//! Property-based tests for the clustering tier.

use hvdb_cluster::{diff, elect, form_clusters, Candidate};
use hvdb_geo::{Aabb, Point, VcGrid, Vec2};
use proptest::prelude::*;

fn grid() -> VcGrid {
    VcGrid::with_dimensions(Aabb::from_size(800.0, 800.0), 8, 8)
}

fn arb_candidates(n: usize) -> impl Strategy<Value = Vec<Candidate>> {
    proptest::collection::vec(
        (
            0.0..800.0f64,
            0.0..800.0f64,
            -5.0..5.0f64,
            -5.0..5.0f64,
            any::<bool>(),
        ),
        1..n,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (x, y, vx, vy, eligible))| Candidate {
                node: i as u32,
                pos: Point::new(x, y),
                vel: Vec2::new(vx, vy),
                eligible,
            })
            .collect()
    })
}

proptest! {
    /// The elected head is always an eligible candidate inside the VC's
    /// circle, and the election is order-independent.
    #[test]
    fn election_sound_and_order_independent(cands in arb_candidates(40)) {
        let g = grid();
        for vc in g.iter_ids() {
            let winner = elect(&g, vc, &cands);
            let mut shuffled = cands.clone();
            shuffled.reverse();
            prop_assert_eq!(winner, elect(&g, vc, &shuffled));
            if let Some(w) = winner {
                let c = cands.iter().find(|c| c.node == w).unwrap();
                prop_assert!(c.eligible);
                prop_assert!(g.vcc(vc).distance(c.pos) <= g.vc_radius() + 1e-9);
            }
        }
    }

    /// Cluster formation invariants: every head resides in a VC it covers;
    /// every node has a primary membership; heads are eligible.
    #[test]
    fn formation_invariants(cands in arb_candidates(60)) {
        let g = grid();
        let clustering = form_clusters(&g, &cands);
        for (vc, head) in &clustering.head_of_vc {
            let c = cands.iter().find(|c| c.node == *head).unwrap();
            prop_assert!(c.eligible, "ineligible head {head}");
            prop_assert!(
                g.vcc(*vc).distance(c.pos) <= g.vc_radius() + 1e-9,
                "head {head} outside its circle"
            );
        }
        for c in &cands {
            let primary = clustering.primary_of_node[&c.node];
            prop_assert_eq!(primary, g.vc_of(c.pos));
            let memberships = &clustering.memberships_of_node[&c.node];
            prop_assert_eq!(memberships[0], primary);
            // All memberships cover the position.
            for vc in memberships {
                prop_assert!(g.vcc(*vc).distance(c.pos) <= g.vc_radius() + 1e-9);
            }
        }
        // A VC containing an eligible resident is headed, unless every such
        // resident already heads a different cluster (a node heads at most
        // one VC; overlap residents may be claimed by their primary VC).
        for vc in g.iter_ids() {
            let eligible_residents: Vec<u32> = cands
                .iter()
                .filter(|c| {
                    c.eligible && g.vcc(vc).distance(c.pos) <= g.vc_radius() - 1e-9
                })
                .map(|c| c.node)
                .collect();
            if !eligible_residents.is_empty() && !clustering.head_of_vc.contains_key(&vc) {
                for node in &eligible_residents {
                    let heads_elsewhere = clustering
                        .vc_of_head
                        .get(node)
                        .map(|v| *v != vc)
                        .unwrap_or(false);
                    prop_assert!(
                        heads_elsewhere,
                        "VC {vc} headless but resident {node} heads nothing"
                    );
                }
            }
        }
    }

    /// Stability diff invariants: categories partition the VC set, and
    /// retention is in [0, 1].
    #[test]
    fn diff_partitions(before in arb_candidates(40), after in arb_candidates(40)) {
        let g = grid();
        let a = form_clusters(&g, &before);
        let b = form_clusters(&g, &after);
        let (events, report) = diff(&a, &b);
        prop_assert_eq!(
            report.replaced + report.formed + report.dissolved,
            events.len()
        );
        let retention = report.retention();
        prop_assert!((0.0..=1.0).contains(&retention));
        prop_assert_eq!(
            report.unchanged + report.replaced + report.dissolved,
            a.head_of_vc.len()
        );
        prop_assert_eq!(
            report.unchanged + report.replaced + report.formed,
            b.head_of_vc.len()
        );
    }
}
