//! A spatial hash index for radio-range neighbour queries.
//!
//! The simulator needs "who is within transmission range of `p`" queries
//! for every packet broadcast; a uniform hash grid with cell size equal to
//! the query radius answers these in expected O(k) for k results, which is
//! the standard choice for roughly uniform node distributions (dense MANET
//! deployments). Keys are small integers, so we use `FxHashMap` per the
//! performance guidance for integer-keyed hot maps.
//!
//! The index is **two-level**: above the fine cell grid sits a coarse
//! occupancy grid of 8×8-cell super-cells (an item count per super-cell,
//! maintained on every insert/remove). Radio-range queries scan a 3×3
//! cell window and never consult it, but *wide* queries — a region-scoped
//! scan, a large `nodes_near_into` radius over a 100k-node area — skip whole
//! empty super-cells (64 hash probes at a time) instead of probing every
//! cell in the rectangle. Cell visit order is identical on both paths, so
//! results are byte-for-byte the same whichever level answers.

use crate::point::Point;
use rustc_hash::FxHashMap;

/// Cells per super-cell edge is `1 << SUPER_SHIFT` (8): coarse enough to
/// skip in useful strides, fine enough that occupancy stays informative.
const SUPER_SHIFT: i32 = 3;

/// Scan half-widths at or above this use the coarse level: below it the
/// rectangle is at most 7×7 cells and the occupancy probes cost more than
/// they save.
const COARSE_MIN_REACH: i32 = 4;

/// A spatial hash over items identified by `u32` ids.
///
/// Build it once per topology-update round with [`SpatialIndex::rebuild`]
/// (cheap: one pass, reusing allocations), then issue any number of
/// [`SpatialIndex::query_range_into`] calls.
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    cell_size: f64,
    cells: FxHashMap<(i32, i32), Vec<(u32, Point)>>,
    /// Coarse level: items per super-cell (absent key = empty).
    coarse: FxHashMap<(i32, i32), u32>,
    len: usize,
}

impl SpatialIndex {
    /// Creates an empty index with the given cell size. For best
    /// performance the cell size should match the typical query radius.
    ///
    /// # Panics
    /// Panics if `cell_size` is not positive and finite.
    pub fn new(cell_size: f64) -> Self {
        assert!(
            cell_size > 0.0 && cell_size.is_finite(),
            "cell size must be positive and finite"
        );
        SpatialIndex {
            cell_size,
            cells: FxHashMap::default(),
            coarse: FxHashMap::default(),
            len: 0,
        }
    }

    /// Number of indexed items.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn cell_of(&self, p: Point) -> (i32, i32) {
        (
            (p.x / self.cell_size).floor() as i32,
            (p.y / self.cell_size).floor() as i32,
        )
    }

    /// The grid-cell key a point falls in. Exposed so callers can
    /// partition items *by cell* (the sharded simulation engine groups
    /// nodes into spatially coherent shards this way) without re-deriving
    /// the index's bucketing arithmetic.
    #[inline]
    pub fn cell_key(&self, p: Point) -> (i32, i32) {
        self.cell_of(p)
    }

    #[inline]
    fn super_of(cell: (i32, i32)) -> (i32, i32) {
        (cell.0 >> SUPER_SHIFT, cell.1 >> SUPER_SHIFT)
    }

    /// Inserts one item. Duplicate ids are allowed but queries will return
    /// each inserted copy; callers maintaining a mutable population should
    /// prefer [`SpatialIndex::rebuild`].
    pub fn insert(&mut self, id: u32, p: Point) {
        let cell = self.cell_of(p);
        self.cells.entry(cell).or_default().push((id, p));
        *self.coarse.entry(Self::super_of(cell)).or_insert(0) += 1;
        self.len += 1;
    }

    /// Clears and refills the index from an iterator of (id, position)
    /// pairs, reusing bucket allocations where possible.
    pub fn rebuild(&mut self, items: impl IntoIterator<Item = (u32, Point)>) {
        for bucket in self.cells.values_mut() {
            bucket.clear();
        }
        self.coarse.clear();
        self.len = 0;
        for (id, p) in items {
            self.insert(id, p);
        }
    }

    /// Removes one occurrence of `id` at position `p` (the position must be
    /// the one it was inserted with). Returns whether something was removed.
    pub fn remove(&mut self, id: u32, p: Point) -> bool {
        let key = self.cell_of(p);
        if let Some(bucket) = self.cells.get_mut(&key) {
            if let Some(pos) = bucket.iter().position(|(i, _)| *i == id) {
                bucket.swap_remove(pos);
                let sk = Self::super_of(key);
                if let Some(c) = self.coarse.get_mut(&sk) {
                    *c -= 1;
                    if *c == 0 {
                        self.coarse.remove(&sk);
                    }
                }
                self.len -= 1;
                return true;
            }
        }
        false
    }

    /// Moves an item from `old` to `new` position.
    pub fn relocate(&mut self, id: u32, old: Point, new: Point) {
        let removed = self.remove(id, old);
        debug_assert!(removed, "relocate of unindexed item {id}");
        self.insert(id, new);
    }

    /// Incremental position update: when `old` and `new` map to the same
    /// cell (the common case under per-tick mobility steps, where a node
    /// moves a few metres inside a radio-range-sized cell) the stored
    /// position is rewritten in place; only cell crossings pay the
    /// remove+insert of [`SpatialIndex::relocate`]. This is what lets the
    /// simulator maintain the index under mobility instead of rebuilding
    /// it from scratch every tick.
    pub fn update(&mut self, id: u32, old: Point, new: Point) {
        let oc = self.cell_of(old);
        if oc == self.cell_of(new) {
            if let Some(bucket) = self.cells.get_mut(&oc) {
                if let Some(slot) = bucket.iter_mut().find(|(i, _)| *i == id) {
                    slot.1 = new;
                    return;
                }
            }
            debug_assert!(false, "update of unindexed item {id}");
            self.insert(id, new);
        } else {
            self.relocate(id, old, new);
        }
    }

    /// Visits every non-empty cell bucket in the `(2·reach+1)²` rectangle
    /// around `(cx, cy)`, in ascending `(gx, gy)` order. Wide rectangles
    /// consult the coarse level first and leap over empty super-cells;
    /// the visit order (and therefore every query's output order) is
    /// unchanged either way.
    fn for_cells_in_reach(&self, cx: i32, cy: i32, reach: i32, mut f: impl FnMut(&[(u32, Point)])) {
        let use_coarse = reach >= COARSE_MIN_REACH;
        for gx in (cx - reach)..=(cx + reach) {
            let mut gy = cy - reach;
            while gy <= cy + reach {
                if use_coarse {
                    let sk = Self::super_of((gx, gy));
                    if !self.coarse.contains_key(&sk) {
                        // Skip to the first cell row of the next
                        // super-cell down this column.
                        gy = ((sk.1 + 1) << SUPER_SHIFT).max(gy + 1);
                        continue;
                    }
                }
                if let Some(bucket) = self.cells.get(&(gx, gy)) {
                    f(bucket);
                }
                gy += 1;
            }
        }
    }

    /// Collects the ids of all items within `radius` of `center`
    /// (inclusive), appending to `out`. `out` is cleared first; passing a
    /// reused buffer avoids per-query allocation (hot path).
    pub fn query_range_into(&self, center: Point, radius: f64, out: &mut Vec<u32>) {
        out.clear();
        let r_sq = radius * radius;
        let reach = (radius / self.cell_size).ceil() as i32;
        let (cx, cy) = self.cell_of(center);
        self.for_cells_in_reach(cx, cy, reach, |bucket| {
            for (id, p) in bucket {
                if p.distance_sq(center) <= r_sq {
                    out.push(*id);
                }
            }
        });
    }

    /// Deterministic content-byte estimate of both index levels (live
    /// entries × entry size, not allocator capacity).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.cells
            .values()
            .map(|b| size_of::<(i32, i32)>() + b.len() * size_of::<(u32, Point)>())
            .sum::<usize>()
            + self.coarse.len() * size_of::<((i32, i32), u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ids within `radius` of `center`, through
    /// [`SpatialIndex::query_range_into`].
    fn query(idx: &SpatialIndex, center: Point, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        idx.query_range_into(center, radius, &mut out);
        out
    }

    fn sample_index() -> SpatialIndex {
        let mut idx = SpatialIndex::new(50.0);
        idx.insert(1, Point::new(0.0, 0.0));
        idx.insert(2, Point::new(30.0, 40.0)); // 50 m from origin
        idx.insert(3, Point::new(100.0, 0.0));
        idx.insert(4, Point::new(500.0, 500.0));
        idx
    }

    #[test]
    fn query_returns_items_within_radius_inclusive() {
        let idx = sample_index();
        let mut got = query(&idx, Point::ORIGIN, 50.0);
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn query_radius_larger_than_cell() {
        let idx = sample_index();
        let mut got = query(&idx, Point::ORIGIN, 120.0);
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn query_empty_region() {
        let idx = sample_index();
        assert!(query(&idx, Point::new(-400.0, -400.0), 60.0).is_empty());
    }

    #[test]
    fn remove_and_relocate() {
        let mut idx = sample_index();
        assert_eq!(idx.len(), 4);
        assert!(idx.remove(3, Point::new(100.0, 0.0)));
        assert!(!idx.remove(3, Point::new(100.0, 0.0)));
        assert_eq!(idx.len(), 3);
        idx.relocate(4, Point::new(500.0, 500.0), Point::new(10.0, 10.0));
        let mut got = query(&idx, Point::ORIGIN, 50.0);
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 4]);
    }

    #[test]
    fn rebuild_replaces_population() {
        let mut idx = sample_index();
        idx.rebuild((10..20).map(|i| (i, Point::new(i as f64, 0.0))));
        assert_eq!(idx.len(), 10);
        assert!(query(&idx, Point::ORIGIN, 5.0).len() < 10);
        assert_eq!(query(&idx, Point::ORIGIN, 100.0).len(), 10);
    }

    #[test]
    fn update_same_cell_rewrites_position_in_place() {
        let mut idx = sample_index();
        // 30,40 -> 35,45 stays in the 50 m cell (0,0).
        idx.update(2, Point::new(30.0, 40.0), Point::new(35.0, 45.0));
        assert_eq!(idx.len(), 4);
        // Query that only matches the new position.
        let got = query(&idx, Point::new(35.0, 45.0), 1.0);
        assert_eq!(got, vec![2]);
        // The old position no longer matches a tight query.
        assert!(query(&idx, Point::new(30.0, 40.0), 1.0).is_empty());
    }

    #[test]
    fn update_across_cells_relocates() {
        let mut idx = sample_index();
        idx.update(4, Point::new(500.0, 500.0), Point::new(10.0, 10.0));
        assert_eq!(idx.len(), 4);
        let mut got = query(&idx, Point::ORIGIN, 50.0);
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 4]);
        assert!(query(&idx, Point::new(500.0, 500.0), 10.0).is_empty());
    }

    #[test]
    fn wide_query_agrees_with_narrow_scan() {
        // A population sparse enough that the coarse level actually skips
        // super-cells, with a query radius wide enough (reach >= 4) to
        // take the coarse path. Results must match a brute-force filter.
        let mut idx = SpatialIndex::new(50.0);
        let pts: Vec<(u32, Point)> = (0..40)
            .map(|i| {
                (
                    i,
                    Point::new((i as f64 * 397.0) % 2000.0, (i as f64 * 211.0) % 2000.0),
                )
            })
            .collect();
        idx.rebuild(pts.iter().copied());
        for &(_, c) in &[
            (0, Point::new(500.0, 500.0)),
            (0, Point::new(1900.0, 100.0)),
        ] {
            let mut got = query(&idx, c, 450.0); // reach = 9
            got.sort_unstable();
            let mut want: Vec<u32> = pts
                .iter()
                .filter(|(_, p)| p.distance_sq(c) <= 450.0 * 450.0)
                .map(|(i, _)| *i)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn coarse_level_tracks_removals() {
        let mut idx = SpatialIndex::new(50.0);
        idx.insert(1, Point::new(10.0, 10.0));
        idx.insert(2, Point::new(1500.0, 1500.0));
        assert!(idx.remove(2, Point::new(1500.0, 1500.0)));
        // Wide query from near the removed item: the coarse skip must not
        // hide the survivor, and the emptied super-cell stays empty.
        let got = query(&idx, Point::new(700.0, 700.0), 1200.0); // reach = 24
        assert_eq!(got, vec![1]);
        assert!(query(&idx, Point::new(1500.0, 1500.0), 300.0).is_empty());
        // Reinsertion revives the super-cell.
        idx.insert(3, Point::new(1510.0, 1490.0));
        assert_eq!(query(&idx, Point::new(1500.0, 1500.0), 300.0), vec![3]);
    }

    #[test]
    fn memory_bytes_counts_entries() {
        let mut idx = SpatialIndex::new(50.0);
        assert_eq!(idx.memory_bytes(), 0);
        idx.insert(1, Point::new(0.0, 0.0));
        let one = idx.memory_bytes();
        idx.insert(2, Point::new(1000.0, 1000.0));
        assert!(idx.memory_bytes() > one);
    }

    #[test]
    fn negative_coordinates_hash_correctly() {
        let mut idx = SpatialIndex::new(25.0);
        idx.insert(7, Point::new(-10.0, -10.0));
        idx.insert(8, Point::new(-60.0, -60.0));
        let got = query(&idx, Point::new(-12.0, -12.0), 5.0);
        assert_eq!(got, vec![7]);
        let mut both = query(&idx, Point::new(-35.0, -35.0), 40.0);
        both.sort_unstable();
        assert_eq!(both, vec![7, 8]);
    }
}
