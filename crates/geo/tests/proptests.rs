//! Property-based tests for the geometric substrate.

use hvdb_geo::{Aabb, Hid, LogicalAddress, Point, RegionMap, SpatialIndex, VcGrid, VcId, Vec2};
use proptest::prelude::*;

proptest! {
    /// Primary-VC lookup and VCC are mutually consistent: the VCC of the
    /// primary VC of any in-area point is within the VC radius of it.
    #[test]
    fn primary_vc_covers_point(x in 0.0..1000.0f64, y in 0.0..1000.0f64) {
        let g = VcGrid::new(Aabb::from_size(1000.0, 1000.0), 150.0);
        let p = Point::new(x, y);
        let id = g.vc_of(p);
        prop_assert!(g.vcc(id).distance(p) <= g.vc_radius() + 1e-9);
    }

    /// covering_vcs always contains the primary VC and every returned VC's
    /// circle really contains the point.
    #[test]
    fn covering_vcs_sound_and_complete(x in 0.0..800.0f64, y in 0.0..800.0f64) {
        let g = VcGrid::with_dimensions(Aabb::from_size(800.0, 800.0), 8, 8);
        let p = Point::new(x, y);
        let covering = g.covering_vcs(p);
        prop_assert!(covering.contains(&g.vc_of(p)));
        for id in &covering {
            prop_assert!(g.vcc(*id).distance(p) <= g.vc_radius() + 1e-9);
        }
        // Completeness over the full grid (small enough to scan).
        for id in g.iter_ids() {
            if g.vcc(id).distance(p) <= g.vc_radius() - 1e-9 {
                prop_assert!(covering.contains(&id), "{id} covers {p:?} but missing");
            }
        }
    }

    /// Residence time is the true circle-exit time: advancing the point by
    /// the predicted time lands on the circle boundary.
    #[test]
    fn residence_time_exits_on_boundary(
        dx in -0.6..0.6f64,
        dy in -0.6..0.6f64,
        vx in -20.0..20.0f64,
        vy in -20.0..20.0f64,
    ) {
        prop_assume!(vx.abs() + vy.abs() > 1e-6);
        let g = VcGrid::with_dimensions(Aabb::from_size(800.0, 800.0), 8, 8);
        let id = VcId::new(4, 4);
        let c = g.vcc(id);
        let r = g.vc_radius();
        let p = Point::new(c.x + dx * r, c.y + dy * r);
        prop_assume!(c.distance(p) < r);
        let v = Vec2::new(vx, vy);
        let t = g.residence_time(id, p, v).unwrap();
        let exit = p.advanced(v, t);
        prop_assert!((c.distance(exit) - r).abs() < 1e-6);
    }

    /// Logical address round-trip over random grids and dimensions.
    #[test]
    fn address_round_trip(
        rows in 1u16..40,
        cols in 1u16..40,
        dim in 1u8..8,
        r in 0u16..40,
        c in 0u16..40,
    ) {
        prop_assume!(r < rows && c < cols);
        let m = RegionMap::new(rows, cols, dim);
        let vc = VcId::new(r, c);
        let addr = m.address_of(vc);
        prop_assert_eq!(m.vc_of(addr), Some(vc));
        prop_assert_eq!(m.hid_of(vc), addr.hid);
    }

    /// interleave/deinterleave are mutually inverse bijections on a region.
    #[test]
    fn interleave_bijective(dim in 1u8..10) {
        let m = RegionMap::new(1u16 << dim.div_ceil(2), 1u16 << (dim / 2), dim);
        let mut seen = std::collections::HashSet::new();
        for r in 0..m.region_rows() {
            for c in 0..m.region_cols() {
                let h = m.interleave(r, c);
                prop_assert!(h.0 < (1u32 << dim));
                prop_assert!(seen.insert(h.0), "duplicate label {}", h.0);
                prop_assert_eq!(m.deinterleave(h), (r, c));
            }
        }
        prop_assert_eq!(seen.len(), 1usize << dim);
    }

    /// The logical-neighbour relation is symmetric.
    #[test]
    fn logical_neighbors_symmetric(
        dim in 1u8..7,
        r in 0u16..24,
        c in 0u16..24,
    ) {
        let m = RegionMap::new(24, 24, dim);
        let vc = VcId::new(r, c);
        for n in m.logical_neighbors(vc) {
            prop_assert!(
                m.logical_neighbors(n).contains(&vc),
                "asymmetric: {vc} -> {n}"
            );
        }
    }

    /// Spatial index returns exactly the brute-force in-range set.
    #[test]
    fn spatial_index_matches_brute_force(
        pts in proptest::collection::vec((0.0..500.0f64, 0.0..500.0f64), 1..60),
        qx in 0.0..500.0f64,
        qy in 0.0..500.0f64,
        radius in 1.0..200.0f64,
    ) {
        let mut idx = SpatialIndex::new(80.0);
        let points: Vec<Point> = pts.iter().map(|(x, y)| Point::new(*x, *y)).collect();
        idx.rebuild(points.iter().enumerate().map(|(i, p)| (i as u32, *p)));
        let center = Point::new(qx, qy);
        let mut got = Vec::new();
        idx.query_range_into(center, radius, &mut got);
        got.sort_unstable();
        let mut want: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance_sq(center) <= radius * radius)
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Border CHs and only border CHs have inter-region links, and every
    /// inter-region link crosses to a mesh-adjacent hypercube.
    #[test]
    fn border_links_go_to_mesh_neighbors(
        dim in 2u8..7,
        r in 0u16..32,
        c in 0u16..32,
    ) {
        let m = RegionMap::new(32, 32, dim);
        let vc = VcId::new(r, c);
        let hid = m.hid_of(vc);
        for n in m.inter_region_neighbors(vc) {
            let nh = m.hid_of(n);
            prop_assert_ne!(nh, hid);
            prop_assert!(
                m.mesh_neighbors(hid).contains(&nh),
                "inter-region link {vc}->{n} crosses to non-adjacent {nh}"
            );
        }
    }
}

/// Deterministic (non-proptest) integration check: every absent logical
/// address of a truncated edge region maps to None and every present one
/// round-trips.
#[test]
fn incomplete_edge_regions_partition_labels() {
    let m = RegionMap::new(10, 10, 4); // 4x4 regions over 10x10 grid
    for hid in [Hid::new(0, 2), Hid::new(2, 2), Hid::new(2, 0)] {
        let present = m.region_cells(hid);
        let mut seen = 0;
        for label in 0u32..16 {
            let addr = LogicalAddress {
                hid,
                hnid: hvdb_geo::Hnid(label),
            };
            if let Some(vc) = m.vc_of(addr) {
                assert!(present.contains(&vc));
                seen += 1;
            }
        }
        assert_eq!(seen, present.len());
    }
}
