//! Cluster-head election.
//!
//! The paper adopts the "mobility prediction and location-based clustering
//! technique" of Sivavakeesar et al. \[23\], "which elects an MN as a CH when
//! it satisfies the following criteria: (1) it has the highest probability,
//! in comparison to other MNs within the same cluster, to stay for longer
//! time within the cluster; (2) it has the minimum distance from the center
//! of the cluster" (§1). Additionally, §3 assumes CHs have stronger
//! hardware, so only `Capability::Enhanced`-class candidates are eligible.
//!
//! [`elect`] scores candidates by predicted residence time (criterion 1),
//! breaking ties by distance to the VCC (criterion 2) and finally by node id
//! so the election is deterministic. Residence times are bucketed before
//! comparison so that near-equal predictions fall through to the distance
//! criterion, as the two-criteria formulation intends.

use hvdb_geo::{Point, VcGrid, VcId, Vec2};

/// One node's candidacy for cluster head of a VC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Opaque node identifier (the simulator's `NodeId.0`).
    pub node: u32,
    /// Current position.
    pub pos: Point,
    /// Current velocity.
    pub vel: Vec2,
    /// Whether the node has CH-class hardware (paper §3).
    pub eligible: bool,
}

/// Residence-time bucket width (seconds): predictions within one bucket
/// are considered equal and fall through to the distance criterion.
pub const RESIDENCE_BUCKET_SECS: f64 = 10.0;

/// Residence predictions are capped here (seconds); a node predicted to
/// stay 10 min is no better than one staying 5 min for cluster-lifetime
/// purposes.
pub const RESIDENCE_CAP_SECS: f64 = 300.0;

/// The capped, bucketed predicted residence of a node at `pos` moving at
/// `vel` inside `vc`'s circle (criterion 1), or `None` if `pos` lies
/// outside it. The static [`elect`] and the distributed protocol's
/// candidacy scores both rank residence through this one function.
pub fn residence_bucket(grid: &VcGrid, vc: VcId, pos: Point, vel: Vec2) -> Option<u64> {
    let residence = grid.residence_time(vc, pos, vel)?;
    let capped = residence.min(RESIDENCE_CAP_SECS);
    Some((capped / RESIDENCE_BUCKET_SECS).floor() as u64)
}

/// The score an election assigns a candidate; orderable, higher wins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    bucketed_residence: u64,
    neg_distance: f64,
    neg_id: i64,
}

impl Score {
    fn key(&self) -> (u64, f64, i64) {
        (self.bucketed_residence, self.neg_distance, self.neg_id)
    }
}

/// Scores one candidate for heading `vc`. Returns `None` if the candidate
/// is ineligible (wrong hardware class) or outside the VC's circle.
pub fn score(grid: &VcGrid, vc: VcId, c: &Candidate) -> Option<Score> {
    if !c.eligible {
        return None;
    }
    Some(Score {
        bucketed_residence: residence_bucket(grid, vc, c.pos, c.vel)?,
        neg_distance: -grid.vcc(vc).distance(c.pos),
        neg_id: -(c.node as i64),
    })
}

/// Elects a cluster head for `vc` among `candidates`. Returns the winner's
/// node id, or `None` if no candidate is eligible and inside the circle.
pub fn elect(grid: &VcGrid, vc: VcId, candidates: &[Candidate]) -> Option<u32> {
    candidates
        .iter()
        .filter_map(|c| score(grid, vc, c).map(|s| (s, c.node)))
        .max_by(|(a, _), (b, _)| a.key().partial_cmp(&b.key()).expect("scores are finite"))
        .map(|(_, node)| node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvdb_geo::Aabb;

    fn grid() -> VcGrid {
        VcGrid::with_dimensions(Aabb::from_size(800.0, 800.0), 8, 8)
    }

    fn cand(node: u32, pos: Point, vel: Vec2) -> Candidate {
        Candidate {
            node,
            pos,
            vel,
            eligible: true,
        }
    }

    #[test]
    fn longer_residence_wins() {
        let g = grid();
        let vc = VcId::new(4, 4);
        let c = g.vcc(vc);
        // Node 1 races out of the circle; node 2 dawdles.
        let fast = cand(1, c, Vec2::new(30.0, 0.0));
        let slow = cand(2, c, Vec2::new(0.5, 0.0));
        assert_eq!(elect(&g, vc, &[fast, slow]), Some(2));
    }

    #[test]
    fn distance_breaks_residence_ties() {
        let g = grid();
        let vc = VcId::new(4, 4);
        let c = g.vcc(vc);
        // Both stationary (infinite residence, same bucket): closer wins.
        let near = cand(7, Point::new(c.x + 5.0, c.y), Vec2::ZERO);
        let far = cand(3, Point::new(c.x + 40.0, c.y), Vec2::ZERO);
        assert_eq!(elect(&g, vc, &[far, near]), Some(7));
    }

    #[test]
    fn id_breaks_full_ties_deterministically() {
        let g = grid();
        let vc = VcId::new(2, 2);
        let c = g.vcc(vc);
        let a = cand(9, c, Vec2::ZERO);
        let b = cand(4, c, Vec2::ZERO);
        // Same residence bucket, same distance: lowest id wins.
        assert_eq!(elect(&g, vc, &[a, b]), Some(4));
        assert_eq!(elect(&g, vc, &[b, a]), Some(4));
    }

    #[test]
    fn ineligible_candidates_never_elected() {
        let g = grid();
        let vc = VcId::new(1, 1);
        let c = g.vcc(vc);
        let mut weak = cand(1, c, Vec2::ZERO);
        weak.eligible = false;
        assert_eq!(elect(&g, vc, &[weak]), None);
        let strong = cand(2, Point::new(c.x + 60.0, c.y), Vec2::ZERO);
        assert_eq!(elect(&g, vc, &[weak, strong]), Some(2));
    }

    #[test]
    fn candidates_outside_circle_are_skipped() {
        let g = grid();
        let vc = VcId::new(0, 0);
        let outside = cand(5, g.vcc(VcId::new(7, 7)), Vec2::ZERO);
        assert_eq!(elect(&g, vc, &[outside]), None);
    }

    #[test]
    fn empty_candidate_set() {
        let g = grid();
        assert_eq!(elect(&g, VcId::new(0, 0), &[]), None);
    }

    #[test]
    fn residence_cap_equalises_long_stays() {
        let g = grid();
        let vc = VcId::new(4, 4);
        let c = g.vcc(vc);
        // Both stay longer than the 300 s cap (slow speeds: ~407 s and
        // ~344 s): residence capped equal, so the closer candidate wins
        // even though its raw residence is smaller.
        let slower_far = cand(1, Point::new(c.x + 30.0, c.y), Vec2::new(0.1, 0.0));
        let faster_near = cand(2, Point::new(c.x + 2.0, c.y), Vec2::new(0.2, 0.0));
        assert_eq!(
            residence_bucket(&g, vc, slower_far.pos, slower_far.vel),
            Some(30)
        );
        assert_eq!(
            residence_bucket(&g, vc, faster_near.pos, faster_near.vel),
            Some(30)
        );
        assert_eq!(elect(&g, vc, &[slower_far, faster_near]), Some(2));
    }

    #[test]
    fn score_none_for_outside_or_ineligible() {
        let g = grid();
        let vc = VcId::new(3, 3);
        let mut c = cand(1, g.vcc(vc), Vec2::ZERO);
        assert!(score(&g, vc, &c).is_some());
        c.eligible = false;
        assert!(score(&g, vc, &c).is_none());
    }
}
