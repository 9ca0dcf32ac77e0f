//! The Virtual Circle (VC) grid.
//!
//! The paper divides "a geographical area (or even the whole earth) into
//! equal regions of circular shape" (§3). Each circle is a *Virtual Circle*
//! (VC) and its centre a *Virtual Circle Center* (VCC). A mobile node that
//! knows its position can determine the VC where it resides, and because the
//! circles overlap, a node can simultaneously reside in several VCs ("an MN
//! within the overlapped regions can be a cluster member of two or multiple
//! clusters at the same time for more reliable communications", §3).
//!
//! Concretely we centre one circle of diameter `D` on every cell of a square
//! grid with spacing `s = D / sqrt(2)`, so each circle circumscribes its
//! cell: every point of the area lies inside the circle of the cell that
//! contains it (its *primary* VC) and points near cell borders lie inside
//! the circles of neighbouring cells as well — exactly the overlap structure
//! the paper draws in its Fig. 2.

use crate::point::{Aabb, Point};
use serde::{Deserialize, Serialize};

/// Identifier of a virtual circle: its (row, column) cell in the grid.
/// Row 0 is the *top* row, matching the paper's Fig. 2/Fig. 3 drawings
/// (labels grow left-to-right, top-to-bottom).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct VcId {
    /// Row index from the top, `0..rows`.
    pub row: u16,
    /// Column index from the left, `0..cols`.
    pub col: u16,
}

impl VcId {
    /// Creates a VC identifier.
    pub const fn new(row: u16, col: u16) -> Self {
        VcId { row, col }
    }
}

impl std::fmt::Display for VcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.row, self.col)
    }
}

/// The VC grid over a rectangular deployment area.
///
/// System parameters of the paper's identifier mapping (§4.1): "central
/// coordinate, length and width of the whole network, diameter of VCs".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VcGrid {
    area: Aabb,
    /// Diameter of each virtual circle (metres).
    vc_diameter: f64,
    /// Grid spacing: `vc_diameter / sqrt(2)`.
    spacing: f64,
    rows: u16,
    cols: u16,
}

impl VcGrid {
    /// Builds the grid covering `area` with virtual circles of diameter
    /// `vc_diameter`.
    ///
    /// # Panics
    /// Panics if the diameter is non-positive, the area is degenerate, or
    /// the grid would exceed `u16` rows/columns.
    pub fn new(area: Aabb, vc_diameter: f64) -> Self {
        assert!(vc_diameter > 0.0, "VC diameter must be positive");
        assert!(
            area.width() > 0.0 && area.height() > 0.0,
            "deployment area must have positive extent"
        );
        let spacing = vc_diameter / std::f64::consts::SQRT_2;
        let rows = (area.height() / spacing).ceil() as u64;
        let cols = (area.width() / spacing).ceil() as u64;
        assert!(
            rows <= u16::MAX as u64 && cols <= u16::MAX as u64,
            "VC grid too large: {rows}x{cols}"
        );
        VcGrid {
            area,
            vc_diameter,
            spacing,
            rows: rows.max(1) as u16,
            cols: cols.max(1) as u16,
        }
    }

    /// Builds a grid with an exact number of rows and columns over `area`,
    /// choosing the VC diameter so the circles circumscribe the cells. This
    /// is how the paper's worked examples ("an example MANET with 8*8 VCs",
    /// Fig. 2) are specified.
    pub fn with_dimensions(area: Aabb, rows: u16, cols: u16) -> Self {
        assert!(rows > 0 && cols > 0, "grid must be at least 1x1");
        let spacing_r = area.height() / rows as f64;
        let spacing_c = area.width() / cols as f64;
        // For non-square cells the circumscribing circle has the cell's
        // diagonal as diameter; we use the larger spacing so every cell is
        // fully covered.
        let spacing = spacing_r.max(spacing_c);
        VcGrid {
            area,
            vc_diameter: spacing * std::f64::consts::SQRT_2,
            spacing,
            rows,
            cols,
        }
    }

    /// The deployment area this grid covers.
    #[inline]
    pub fn area(&self) -> Aabb {
        self.area
    }

    /// The VC diameter (metres).
    #[inline]
    pub fn vc_diameter(&self) -> f64 {
        self.vc_diameter
    }

    /// The VC radius (metres).
    #[inline]
    pub fn vc_radius(&self) -> f64 {
        self.vc_diameter / 2.0
    }

    /// Grid spacing between adjacent VCCs (metres).
    #[inline]
    pub fn spacing(&self) -> f64 {
        self.spacing
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> u16 {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> u16 {
        self.cols
    }

    /// Total number of virtual circles.
    #[inline]
    pub fn vc_count(&self) -> usize {
        self.rows as usize * self.cols as usize
    }

    /// Whether `id` addresses a cell of this grid.
    #[inline]
    pub fn contains_id(&self, id: VcId) -> bool {
        id.row < self.rows && id.col < self.cols
    }

    /// The *primary* VC of a point: the cell that contains it. Points
    /// outside the area are clamped to the border cells, so every position
    /// maps to some VC (mobile nodes never leave the modelled world).
    pub fn vc_of(&self, p: Point) -> VcId {
        let col = ((p.x - self.area.min.x) / self.spacing).floor();
        // Row 0 is the top row.
        let row_from_bottom = ((p.y - self.area.min.y) / self.spacing).floor();
        let col = (col.max(0.0) as u32).min(self.cols as u32 - 1) as u16;
        let row_from_bottom = (row_from_bottom.max(0.0) as u32).min(self.rows as u32 - 1) as u16;
        VcId {
            row: self.rows - 1 - row_from_bottom,
            col,
        }
    }

    /// The Virtual Circle Center of `id`.
    ///
    /// # Panics
    /// Panics if `id` is outside the grid.
    pub fn vcc(&self, id: VcId) -> Point {
        assert!(
            self.contains_id(id),
            "VC id {id} outside {}x{} grid",
            self.rows,
            self.cols
        );
        let x = self.area.min.x + (id.col as f64 + 0.5) * self.spacing;
        let row_from_bottom = (self.rows - 1 - id.row) as f64;
        let y = self.area.min.y + (row_from_bottom + 0.5) * self.spacing;
        Point::new(x, y)
    }

    /// All VCs whose circle contains `p` — the primary VC plus the VCs whose
    /// overlap region `p` falls into. The paper uses this multi-residency
    /// for "more reliable communications" (§3).
    pub fn covering_vcs(&self, p: Point) -> Vec<VcId> {
        let primary = self.vc_of(p);
        let r_sq = self.vc_radius() * self.vc_radius();
        let mut out = Vec::with_capacity(4);
        // A circle of radius D/2 = s/sqrt(2) * ... reaches at most one cell
        // away from the cell containing the point, so scanning the 3x3
        // neighbourhood suffices.
        for dr in -1i32..=1 {
            for dc in -1i32..=1 {
                let row = primary.row as i32 + dr;
                let col = primary.col as i32 + dc;
                if row < 0 || col < 0 || row >= self.rows as i32 || col >= self.cols as i32 {
                    continue;
                }
                let id = VcId::new(row as u16, col as u16);
                if self.vcc(id).distance_sq(p) <= r_sq {
                    out.push(id);
                }
            }
        }
        debug_assert!(out.contains(&primary), "primary VC must cover its own cell");
        out
    }

    /// Iterates over all VC ids in row-major order (top-left first).
    pub fn iter_ids(&self) -> impl Iterator<Item = VcId> + '_ {
        (0..self.rows).flat_map(move |row| (0..self.cols).map(move |col| VcId { row, col }))
    }

    /// Time (seconds) until a point moving from `p` with constant velocity
    /// `v` exits the circle of VC `id`, or `None` if it is outside already or
    /// never exits (zero velocity inside the circle).
    ///
    /// This is the geometric core of the mobility-prediction clustering the
    /// paper adopts from Sivavakeesar et al. \[23\]: the CH candidate with the
    /// longest predicted residence time wins.
    pub fn residence_time(&self, id: VcId, p: Point, v: crate::point::Vec2) -> Option<f64> {
        let c = self.vcc(id);
        let r = self.vc_radius();
        let rel = c.vector_to(p); // position relative to centre
        let dist_sq = rel.magnitude_sq();
        if dist_sq > r * r + 1e-9 {
            return None; // already outside
        }
        let speed_sq = v.magnitude_sq();
        if speed_sq == 0.0 {
            return Some(f64::INFINITY);
        }
        // Solve |rel + v t|^2 = r^2 for the positive root.
        let b = rel.dot(v);
        let c0 = dist_sq - r * r;
        let disc = b * b - speed_sq * c0;
        debug_assert!(disc >= 0.0, "point inside circle must have an exit");
        let t = (-b + disc.sqrt()) / speed_sq;
        Some(t.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Vec2;

    fn grid8() -> VcGrid {
        VcGrid::with_dimensions(Aabb::from_size(800.0, 800.0), 8, 8)
    }

    #[test]
    fn eight_by_eight_example_dimensions() {
        // Paper Fig. 2: "An Example MANET with 8*8 VCs".
        let g = grid8();
        assert_eq!(g.rows(), 8);
        assert_eq!(g.cols(), 8);
        assert_eq!(g.vc_count(), 64);
        assert_eq!(g.spacing(), 100.0);
        assert!((g.vc_diameter() - 100.0 * std::f64::consts::SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn primary_vc_and_vcc_are_inverse() {
        let g = grid8();
        for id in g.iter_ids().collect::<Vec<_>>() {
            assert_eq!(g.vc_of(g.vcc(id)), id);
        }
    }

    #[test]
    fn every_point_is_covered_by_its_primary_circle() {
        // Circles circumscribe cells, so the farthest cell point (a corner)
        // is exactly at distance r from the VCC.
        let g = grid8();
        let r = g.vc_radius();
        for i in 0..40 {
            for j in 0..40 {
                let p = Point::new(i as f64 * 20.0 + 1.0, j as f64 * 20.0 + 1.0);
                let id = g.vc_of(p);
                assert!(
                    g.vcc(id).distance(p) <= r + 1e-9,
                    "{p:?} not covered by {id}"
                );
            }
        }
    }

    #[test]
    fn corner_points_are_in_overlap_of_multiple_vcs() {
        let g = grid8();
        // Circles circumscribe cells, so the four circles around a shared
        // cell corner all pass through it: the corner itself lies in all
        // four, and points slightly inside a cell edge lie in two.
        let corner = Point::new(200.0, 200.0);
        assert!(g.covering_vcs(corner).len() >= 4);
        let edge = Point::new(200.0, 150.0); // mid-edge between two cells
        assert!(g.covering_vcs(edge).len() >= 2);
    }

    #[test]
    fn cell_centers_are_covered_only_by_their_own_circle_neighbours() {
        let g = grid8();
        let p = g.vcc(VcId::new(3, 3));
        let covering = g.covering_vcs(p);
        assert!(covering.contains(&VcId::new(3, 3)));
        // Adjacent VCCs are at distance s = 100 > r ~ 70.7, so the centre of
        // a cell belongs to exactly one circle.
        assert_eq!(covering.len(), 1);
    }

    #[test]
    fn points_outside_area_clamp_to_border_cells() {
        let g = grid8();
        assert_eq!(g.vc_of(Point::new(-10.0, -10.0)), VcId::new(7, 0));
        assert_eq!(g.vc_of(Point::new(900.0, 900.0)), VcId::new(0, 7));
    }

    #[test]
    fn row_zero_is_top() {
        let g = grid8();
        // Highest y => top row => row 0.
        assert_eq!(g.vc_of(Point::new(50.0, 799.0)).row, 0);
        assert_eq!(g.vc_of(Point::new(50.0, 1.0)).row, 7);
    }

    #[test]
    fn residence_time_straight_through_center() {
        let g = grid8();
        let id = VcId::new(4, 4);
        let c = g.vcc(id);
        let r = g.vc_radius();
        // Moving at 10 m/s from the centre: exit after r / 10 seconds.
        let t = g.residence_time(id, c, Vec2::new(10.0, 0.0)).unwrap();
        assert!((t - r / 10.0).abs() < 1e-9);
    }

    #[test]
    fn residence_time_stationary_is_infinite() {
        let g = grid8();
        let id = VcId::new(2, 5);
        let t = g.residence_time(id, g.vcc(id), Vec2::ZERO).unwrap();
        assert!(t.is_infinite());
    }

    #[test]
    fn residence_time_outside_is_none() {
        let g = grid8();
        let far = Point::new(0.0, 0.0);
        assert!(g
            .residence_time(VcId::new(0, 7), far, Vec2::new(1.0, 0.0))
            .is_none());
    }

    #[test]
    fn residence_time_decreases_with_offset_toward_exit() {
        let g = grid8();
        let id = VcId::new(4, 4);
        let c = g.vcc(id);
        let v = Vec2::new(5.0, 0.0);
        let t_center = g.residence_time(id, c, v).unwrap();
        let t_ahead = g
            .residence_time(id, Point::new(c.x + 20.0, c.y), v)
            .unwrap();
        assert!(t_ahead < t_center);
    }

    #[test]
    fn new_by_diameter_covers_area() {
        let g = VcGrid::new(Aabb::from_size(1000.0, 500.0), 141.42);
        assert!(g.rows() >= 5 && g.cols() >= 10);
        // Spot-check coverage at the far corner.
        let p = Point::new(999.0, 499.0);
        let id = g.vc_of(p);
        assert!(g.vcc(id).distance(p) <= g.vc_radius() + 1e-6);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn vcc_panics_outside_grid() {
        grid8().vcc(VcId::new(8, 0));
    }
}
