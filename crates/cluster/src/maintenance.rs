//! Cluster maintenance: handover, re-election, and stability measurement.
//!
//! The HVDB's "non-dynamic" property (§3) rests on clusters staying stable:
//! the clustering technique of \[23\] "has been shown to be able to form
//! clusters much more stably than other schemes". This module diffs two
//! consecutive [`Clustering`] snapshots to (a) enumerate the handover events
//! the backbone must absorb and (b) quantify stability — the metric the
//! model-construction experiment (F1) reports across mobility levels.

use crate::cluster::Clustering;
use hvdb_geo::VcId;
use serde::{Deserialize, Serialize};

/// One cluster-head change between consecutive snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Handover {
    /// A VC that had no head gained one.
    Formed {
        /// The VC gaining a head.
        vc: VcId,
        /// The new head.
        new: u32,
    },
    /// A VC's head changed.
    Replaced {
        /// The VC whose head changed.
        vc: VcId,
        /// Previous head.
        old: u32,
        /// New head.
        new: u32,
    },
    /// A VC lost its head without replacement (hypercube node vanishes —
    /// the cube becomes more incomplete).
    Dissolved {
        /// The VC losing its head.
        vc: VcId,
        /// The departed head.
        old: u32,
    },
}

/// Stability summary between two snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StabilityReport {
    /// VCs headed in both snapshots by the same node.
    pub unchanged: usize,
    /// VCs headed in both snapshots by different nodes.
    pub replaced: usize,
    /// VCs newly headed.
    pub formed: usize,
    /// VCs that lost their head.
    pub dissolved: usize,
}

impl StabilityReport {
    /// Fraction of previously-headed VCs whose head survived: the paper's
    /// operational notion of cluster stability. 1.0 if nothing was headed.
    pub fn retention(&self) -> f64 {
        let prev = self.unchanged + self.replaced + self.dissolved;
        if prev == 0 {
            1.0
        } else {
            self.unchanged as f64 / prev as f64
        }
    }
}

/// Diffs two clusterings, returning the handover events (sorted by VC for
/// determinism) and the stability summary.
pub fn diff(prev: &Clustering, next: &Clustering) -> (Vec<Handover>, StabilityReport) {
    let mut events = Vec::new();
    let mut report = StabilityReport {
        unchanged: 0,
        replaced: 0,
        formed: 0,
        dissolved: 0,
    };
    let mut vcs: Vec<VcId> = prev
        .head_of_vc
        .keys()
        .chain(next.head_of_vc.keys())
        .copied()
        .collect();
    vcs.sort_unstable();
    vcs.dedup();
    for vc in vcs {
        match (prev.head_of_vc.get(&vc), next.head_of_vc.get(&vc)) {
            (Some(&old), Some(&new)) if old == new => report.unchanged += 1,
            (Some(&old), Some(&new)) => {
                report.replaced += 1;
                events.push(Handover::Replaced { vc, old, new });
            }
            (None, Some(&new)) => {
                report.formed += 1;
                events.push(Handover::Formed { vc, new });
            }
            (Some(&old), None) => {
                report.dissolved += 1;
                events.push(Handover::Dissolved { vc, old });
            }
            (None, None) => unreachable!("vc came from one of the maps"),
        }
    }
    (events, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::form_clusters;
    use crate::election::Candidate;
    use hvdb_geo::{Aabb, Point, VcGrid, Vec2};

    fn grid() -> VcGrid {
        VcGrid::with_dimensions(Aabb::from_size(800.0, 800.0), 8, 8)
    }

    fn snapshot(nodes: &[(u32, Point)]) -> Clustering {
        let cands: Vec<Candidate> = nodes
            .iter()
            .map(|(id, pos)| Candidate {
                node: *id,
                pos: *pos,
                vel: Vec2::ZERO,
                eligible: true,
            })
            .collect();
        form_clusters(&grid(), &cands)
    }

    #[test]
    fn identical_snapshots_are_fully_stable() {
        let g = grid();
        let nodes = vec![(0, g.vcc(VcId::new(1, 1))), (1, g.vcc(VcId::new(5, 5)))];
        let a = snapshot(&nodes);
        let (events, report) = diff(&a, &a);
        assert!(events.is_empty());
        assert_eq!(report.unchanged, 2);
        assert_eq!(report.retention(), 1.0);
    }

    #[test]
    fn head_departure_dissolves_or_replaces() {
        let g = grid();
        let vc = VcId::new(3, 3);
        let a = snapshot(&[(0, g.vcc(vc))]);
        // Head moved across the map; its old VC is empty now.
        let b = snapshot(&[(0, g.vcc(VcId::new(0, 0)))]);
        let (events, report) = diff(&a, &b);
        assert!(events.contains(&Handover::Dissolved { vc, old: 0 }));
        assert!(events.contains(&Handover::Formed {
            vc: VcId::new(0, 0),
            new: 0
        }));
        assert_eq!(report.dissolved, 1);
        assert_eq!(report.formed, 1);
        assert_eq!(report.retention(), 0.0);
    }

    #[test]
    fn replacement_detected() {
        let g = grid();
        let vc = VcId::new(4, 4);
        let c = g.vcc(vc);
        // Node 0 heads; then node 1 (closer) appears and takes over while 0
        // drifts to the edge.
        let a = snapshot(&[(0, c)]);
        let b = snapshot(&[(0, Point::new(c.x + 45.0, c.y)), (1, c)]);
        let (events, report) = diff(&a, &b);
        // Node 0 may additionally be elected head of the overlap VC it
        // drifted into; the replacement in (4,4) is what matters here.
        assert!(events.contains(&Handover::Replaced { vc, old: 0, new: 1 }));
        assert_eq!(report.replaced, 1);
        assert_eq!(report.retention(), 0.0);
    }

    #[test]
    fn retention_counts_only_previously_headed() {
        let g = grid();
        let a = snapshot(&[(0, g.vcc(VcId::new(0, 0))), (1, g.vcc(VcId::new(1, 1)))]);
        let b = snapshot(&[
            (0, g.vcc(VcId::new(0, 0))),
            (1, g.vcc(VcId::new(1, 1))),
            (2, g.vcc(VcId::new(2, 2))),
        ]);
        let (_, report) = diff(&a, &b);
        assert_eq!(report.unchanged, 2);
        assert_eq!(report.formed, 1);
        assert_eq!(report.retention(), 1.0); // new formations don't hurt retention
    }

    #[test]
    fn empty_to_empty() {
        let a = snapshot(&[]);
        let (events, report) = diff(&a, &a);
        assert!(events.is_empty());
        assert_eq!(report.retention(), 1.0);
    }
}
