//! The physical world: node population, positions, and range queries.

use crate::fault::ByzantineMode;
use crate::node::{Capability, NodeId};
use crate::time::SimTime;
use hvdb_geo::{Aabb, Point, SpatialIndex, Vec2};

/// The physical state of the simulated MANET: every node's position,
/// velocity, liveness, and a spatial index for radio-range queries.
///
/// Node state is stored **struct-of-arrays**: one dense vector per field
/// (position, velocity, capability, liveness, radio backlog) indexed by
/// [`NodeId`]. The hot paths — mobility ticks, neighbour queries, the
/// parallel engine's shard partitioning — each touch only one or two of
/// these fields across many nodes, so splitting the arrays keeps cache
/// lines full of the field being scanned instead of dragging the whole
/// node record through the cache. At the 100k-node scale this layout is
/// what keeps a mobility tick memory-bound on positions alone.
///
/// The index is maintained *incrementally*: [`World::set_motion`] updates
/// the moved node's index slot in place (same-cell fast path, relocate on
/// cell crossings), so index queries are always fresh, and mobility ticks
/// never pay a full index rebuild.
///
/// On top of the index sits a derived **adjacency table**: every node's
/// in-range ids, built by [`World::refresh_adjacency`] and marked stale
/// by every position write ([`World::set_motion`], [`World::place_all`],
/// [`World::rebuild_index`]). While it is fresh,
/// [`World::neighbors_into`] decodes the node's run instead of querying
/// the index and sorting; a stale world answers from the index exactly as
/// before, so the table changes speed, never an answer. Liveness is not
/// part of it: [`World::set_alive`] leaves it fresh, and the decode skips
/// dead ids. The parallel engine refreshes it between windows
/// ([`crate::par`]); a world nobody refreshes always takes the index path.
#[derive(Debug, Clone)]
pub struct World {
    area: Aabb,
    radio_range: f64,
    pos: Vec<Point>,
    vel: Vec<Vec2>,
    capability: Vec<Capability>,
    alive: Vec<bool>,
    index: SpatialIndex,
    /// Partition islands (`None` = fully connected). Allocated lazily on
    /// the first [`World::apply_partition`], so fault-free runs pay no
    /// memory or cache cost for the fault plane.
    island: Option<Vec<u32>>,
    /// Per-node Byzantine mode (`None` entry = honest). Lazily allocated.
    byz: Option<Vec<Option<ByzantineMode>>>,
    /// Per-node observed-clock skew in microseconds. Lazily allocated.
    clock_skew: Option<Vec<i64>>,
    /// Per-node reported-minus-true GPS displacement. Lazily allocated.
    pos_err: Option<Vec<Vec2>>,
    /// Derived in-range table; see [`World::refresh_adjacency`].
    adj: Adjacency,
}

/// Every node's in-range ids (ascending, self excluded, alive or not) as
/// one CSR of 16-bit id gaps: node `i`'s run is
/// `gaps[start[i]..start[i + 1]]`, written by [`encode_run`].
#[derive(Debug, Clone, Default)]
struct Adjacency {
    start: Vec<u32>,
    gaps: Vec<u16>,
    /// Whether the runs match the current positions.
    fresh: bool,
}

impl Adjacency {
    /// Node `i`'s in-range ids, ascending.
    #[inline]
    fn run(&self, i: usize) -> Run<'_> {
        let (lo, hi) = (self.start[i] as usize, self.start[i + 1] as usize);
        Run::new(&self.gaps[lo..hi])
    }
}

/// The gaps of an ascending id run, the first taken from −1, in wrapping
/// `u32` arithmetic: every gap of a strictly ascending run is at least 1,
/// except a first id of `u32::MAX`, whose gap of 2³² wraps to 0.
fn run_gaps(ids: &[u32]) -> impl Iterator<Item = u32> + '_ {
    let mut prev = u32::MAX;
    ids.iter().map(move |&id| {
        let gap = id.wrapping_sub(prev);
        prev = id;
        gap
    })
}

/// Whether a gap fits one code unit: 0 is the escape marker.
#[inline]
fn short_gap(gap: u32) -> bool {
    (1..=u32::from(u16::MAX)).contains(&gap)
}

/// Code units [`encode_run`] writes for `ids`.
fn encoded_len(ids: &[u32]) -> usize {
    run_gaps(ids)
        .map(|g| if short_gap(g) { 1 } else { 3 })
        .sum()
}

/// Appends the strictly ascending run `ids` to `out`: each gap in
/// `1..=65535` as one unit, any other as a 0 followed by the gap's low and
/// high halves. Below 65 536 nodes the escape never fires.
fn encode_run(ids: &[u32], out: &mut Vec<u16>) {
    for gap in run_gaps(ids) {
        if short_gap(gap) {
            out.push(gap as u16);
        } else {
            out.extend([0, gap as u16, (gap >> 16) as u16]);
        }
    }
}

/// Decodes one [`encode_run`] run back into its ids.
struct Run<'a> {
    units: &'a [u16],
    prev: u32,
}

impl<'a> Run<'a> {
    fn new(units: &'a [u16]) -> Self {
        Run {
            units,
            prev: u32::MAX,
        }
    }
}

impl Iterator for Run<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        let (&unit, rest) = self.units.split_first()?;
        let gap = if unit != 0 {
            self.units = rest;
            u32::from(unit)
        } else {
            self.units = &rest[2..];
            u32::from(rest[0]) | u32::from(rest[1]) << 16
        };
        self.prev = self.prev.wrapping_add(gap);
        Some(self.prev)
    }
}

impl World {
    /// Creates a world of `n` nodes, all initially at the area centre and
    /// stationary; a mobility model's `init` scatters them.
    pub fn new(area: Aabb, n: usize, radio_range: f64) -> Self {
        assert!(radio_range > 0.0, "radio range must be positive");
        let center = area.center();
        let mut w = World {
            area,
            radio_range,
            pos: vec![center; n],
            vel: vec![Vec2::ZERO; n],
            capability: vec![Capability::Regular; n],
            alive: vec![true; n],
            index: SpatialIndex::new(radio_range.max(1.0)),
            island: None,
            byz: None,
            clock_skew: None,
            pos_err: None,
            adj: Adjacency::default(),
        };
        w.rebuild_index();
        w
    }

    /// Deployment area.
    #[inline]
    pub fn area(&self) -> Aabb {
        self.area
    }

    /// Radio transmission range (unit-disk model).
    #[inline]
    pub fn radio_range(&self) -> f64 {
        self.radio_range
    }

    /// Number of nodes (alive or not).
    #[inline]
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Whether the world has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Iterates over all node ids.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.pos.len() as u32).map(NodeId)
    }

    /// Position shorthand.
    #[inline]
    pub fn position(&self, id: NodeId) -> Point {
        self.pos[id.idx()]
    }

    /// Velocity shorthand.
    #[inline]
    pub fn velocity(&self, id: NodeId) -> Vec2 {
        self.vel[id.idx()]
    }

    /// Liveness shorthand.
    #[inline]
    pub fn alive(&self, id: NodeId) -> bool {
        self.alive[id.idx()]
    }

    /// Capability shorthand.
    #[inline]
    pub fn capability(&self, id: NodeId) -> Capability {
        self.capability[id.idx()]
    }

    /// Marks a node up or down. The adjacency table stays fresh: it holds
    /// dead nodes too, and [`World::neighbors_into`] reads liveness at
    /// query time.
    pub fn set_alive(&mut self, id: NodeId, alive: bool) {
        self.alive[id.idx()] = alive;
    }

    /// Sets a node's hardware class.
    pub fn set_capability(&mut self, id: NodeId, c: Capability) {
        self.capability[id.idx()] = c;
    }

    /// Splits the network into partition islands: each `groups[i]` lists
    /// the members of island `i`, and nodes absent from every group stay
    /// in island 0 (with the first group). Replaces any previous
    /// partition. The engines consult [`World::same_island`] in their
    /// send paths, so the cut is enforced by the radio model — protocol
    /// code never sees it except as undeliverable frames.
    pub fn apply_partition(&mut self, groups: &[Vec<NodeId>]) {
        let mut island = vec![0u32; self.pos.len()];
        for (i, group) in groups.iter().enumerate() {
            for &id in group {
                island[id.idx()] = i as u32;
            }
        }
        self.island = Some(island);
    }

    /// Removes the active partition: full connectivity returns.
    pub fn heal_partition(&mut self) {
        self.island = None;
    }

    /// Whether a partition is currently active.
    #[inline]
    pub fn partitioned(&self) -> bool {
        self.island.is_some()
    }

    /// Whether `a` and `b` can exchange frames under the active
    /// partition (always true when none is active).
    #[inline]
    pub fn same_island(&self, a: NodeId, b: NodeId) -> bool {
        match &self.island {
            Some(island) => island[a.idx()] == island[b.idx()],
            None => true,
        }
    }

    /// The node's Byzantine mode, or `None` for honest nodes.
    #[inline]
    pub fn byzantine(&self, id: NodeId) -> Option<ByzantineMode> {
        self.byz.as_ref().and_then(|b| b[id.idx()])
    }

    /// Marks a node Byzantine (or honest again with `None`).
    pub fn set_byzantine(&mut self, id: NodeId, mode: Option<ByzantineMode>) {
        let n = self.pos.len();
        self.byz.get_or_insert_with(|| vec![None; n])[id.idx()] = mode;
    }

    /// The node's observed-clock skew in microseconds (0 = exact).
    #[inline]
    pub fn clock_skew_us(&self, id: NodeId) -> i64 {
        self.clock_skew.as_ref().map_or(0, |s| s[id.idx()])
    }

    /// Sets the node's observed-clock skew in microseconds.
    pub fn set_clock_skew_us(&mut self, id: NodeId, skew_us: i64) {
        let n = self.pos.len();
        self.clock_skew.get_or_insert_with(|| vec![0; n])[id.idx()] = skew_us;
    }

    /// The instant node `id`'s skewed clock reads when true simulation
    /// time is `t` (clamped at zero). Identity for unskewed nodes.
    #[inline]
    pub fn local_time(&self, id: NodeId, t: SimTime) -> SimTime {
        let skew = self.clock_skew_us(id);
        if skew == 0 {
            t
        } else {
            SimTime((t.0 as i64).saturating_add(skew).max(0) as u64)
        }
    }

    /// The node's reported-minus-true GPS displacement (zero = exact).
    #[inline]
    pub fn position_error(&self, id: NodeId) -> Vec2 {
        self.pos_err.as_ref().map_or(Vec2::ZERO, |e| e[id.idx()])
    }

    /// Sets the node's GPS displacement.
    pub fn set_position_error(&mut self, id: NodeId, error: Vec2) {
        let n = self.pos.len();
        self.pos_err.get_or_insert_with(|| vec![Vec2::ZERO; n])[id.idx()] = error;
    }

    /// The position node `id` *reports* (GPS reading): true position
    /// plus any injected [`World::position_error`]. Protocol-visible
    /// observations use this; radio reachability and the spatial index
    /// keep using true positions.
    #[inline]
    pub fn reported_position(&self, id: NodeId) -> Point {
        let p = self.pos[id.idx()];
        match &self.pos_err {
            Some(err) => {
                let e = err[id.idx()];
                Point::new(p.x + e.x, p.y + e.y)
            }
            None => p,
        }
    }

    /// Updates a node's position and velocity, clamping to the area. The
    /// spatial index is updated in place (same-cell fast path), so range
    /// queries stay fresh without any index rebuild; the adjacency table
    /// goes stale until the next [`World::refresh_adjacency`].
    pub fn set_motion(&mut self, id: NodeId, pos: Point, vel: Vec2) {
        let clamped = self.area.clamp(pos);
        let old = self.pos[id.idx()];
        self.pos[id.idx()] = clamped;
        self.vel[id.idx()] = vel;
        self.index.update(id.0, old, clamped);
        self.adj.fresh = false;
    }

    /// Sets every node's position (clamped to the area) and velocity from
    /// `motion`, called once per node in ascending id order, then
    /// rebuilds the spatial index in one pass. Mobility models place
    /// their initial population this way: moving nodes one at a time out
    /// of the shared starting cell costs a linear bucket scan per node.
    pub fn place_all(&mut self, mut motion: impl FnMut(NodeId) -> (Point, Vec2)) {
        for i in 0..self.pos.len() {
            let (pos, vel) = motion(NodeId(i as u32));
            self.pos[i] = self.area.clamp(pos);
            self.vel[i] = vel;
        }
        self.rebuild_index();
    }

    /// Rebuilds the spatial index from current positions in one pass
    /// ([`World::place_all`] ends with it). Since [`World::set_motion`]
    /// maintains the index incrementally, callers never *need* it; it
    /// remains as an idempotent full resync for bulk scenario setup. It
    /// marks the adjacency table stale.
    pub fn rebuild_index(&mut self) {
        let pos = &self.pos;
        self.index
            .rebuild(pos.iter().enumerate().map(|(i, p)| (i as u32, *p)));
        self.adj.fresh = false;
    }

    /// Builds the adjacency table from current positions unless it is
    /// already fresh. Two passes over the nodes, each with the query the
    /// stale path makes: one counts every run's code units, the other
    /// fills a table of exactly that size. It costs about two neighbour
    /// queries per node, so callers refresh at serial points where many
    /// queries follow: the parallel engine before each window's drain.
    pub fn refresh_adjacency(&mut self) {
        if self.adj.fresh {
            return;
        }
        // The old runs go before the new ones are allocated, so a rebuild
        // never holds two tables.
        self.adj = Adjacency::default();
        let n = self.pos.len();
        let mut start = Vec::with_capacity(n + 1);
        start.push(0);
        let mut raw = Vec::new();
        let mut total = 0usize;
        for i in 0..n {
            self.disk_into(i, &mut raw);
            total += encoded_len(&raw);
            start.push(u32::try_from(total).expect("adjacency table past u32 offsets"));
        }
        let mut gaps = Vec::with_capacity(total);
        for i in 0..n {
            self.disk_into(i, &mut raw);
            encode_run(&raw, &mut gaps);
        }
        debug_assert_eq!(gaps.len(), total);
        self.adj = Adjacency {
            start,
            gaps,
            fresh: true,
        };
    }

    /// Whether [`World::neighbors_into`] currently reads the adjacency
    /// table (built since the last position write).
    pub fn adjacency_fresh(&self) -> bool {
        self.adj.fresh
    }

    /// Node `i`'s unit disk, alive or not: every other id within radio
    /// range of its true position, ascending, into `raw`. The one
    /// definition of "in range" that both the table build and the stale
    /// query path use.
    fn disk_into(&self, i: usize, raw: &mut Vec<u32>) {
        self.index
            .query_range_into(self.pos[i], self.radio_range, raw);
        raw.retain(|&j| j as usize != i);
        raw.sort_unstable();
    }

    /// The spatial-index cell a node currently occupies. Cell keys are
    /// the partitioning unit of the sharded parallel engine
    /// ([`crate::par`]): nodes sharing a cell always share a shard.
    #[inline]
    pub fn cell_of(&self, id: NodeId) -> (i32, i32) {
        self.index.cell_key(self.pos[id.idx()])
    }

    /// Deterministic content-byte estimate of the world's per-node state
    /// and spatial index: live entries × entry size, independent of
    /// allocator capacity, so the figure reproduces across machines.
    /// Fault-plane arrays count only once allocated (fault-free runs
    /// report the same figure as before the fault plane existed).
    ///
    /// The adjacency table is left out. It is a derived cache whose size
    /// depends on whether an engine ever refreshed it, not on the
    /// scenario's state, and at the `scale` density (about 67 neighbours
    /// per node) it would add about 140 B/node to a figure the committed
    /// trajectories gate. Measured heap counts it.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let n = self.pos.len();
        let fault = self
            .island
            .as_ref()
            .map_or(0, |v| v.len() * size_of::<u32>())
            + self
                .byz
                .as_ref()
                .map_or(0, |v| v.len() * size_of::<Option<ByzantineMode>>())
            + self
                .clock_skew
                .as_ref()
                .map_or(0, |v| v.len() * size_of::<i64>())
            + self
                .pos_err
                .as_ref()
                .map_or(0, |v| v.len() * size_of::<Vec2>());
        n * (size_of::<Point>() + size_of::<Vec2>() + size_of::<Capability>() + size_of::<bool>())
            + fault
            + self.index.memory_bytes()
    }

    /// Whether two nodes are within radio range of each other (and both
    /// alive). Unit-disk connectivity: "Two MNs communicate directly if
    /// they are within the radio transmission range of each other" (§1).
    pub fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        self.alive[a.idx()]
            && self.alive[b.idx()]
            && self.pos[a.idx()].distance_sq(self.pos[b.idx()])
                <= self.radio_range * self.radio_range
    }

    /// Collects the alive radio neighbours of `id` (excluding itself) into
    /// `out` (cleared first), in ascending id order for determinism; a
    /// dead `id` gets an empty list. While the adjacency table is fresh
    /// this decodes `id`'s run and drops dead ids; otherwise it queries
    /// the spatial index, using `raw` as reusable scratch (threading it
    /// from the caller keeps the hot path free of per-query allocations).
    /// Both paths return the same list.
    pub fn neighbors_into(&self, id: NodeId, out: &mut Vec<NodeId>, raw: &mut Vec<u32>) {
        out.clear();
        if !self.alive[id.idx()] {
            return;
        }
        let alive = |j: &u32| self.alive[*j as usize];
        if self.adj.fresh {
            out.extend(self.adj.run(id.idx()).filter(alive).map(NodeId));
        } else {
            self.disk_into(id.idx(), raw);
            out.extend(raw.iter().copied().filter(alive).map(NodeId));
        }
    }

    /// Collects all alive nodes within `radius` of a point into `out`
    /// (cleared first), ascending id order. Like
    /// [`World::neighbors_into`], `raw` is caller-threaded query scratch —
    /// no sorted temporary is allocated per call.
    pub fn nodes_near_into(
        &self,
        p: Point,
        radius: f64,
        out: &mut Vec<NodeId>,
        raw: &mut Vec<u32>,
    ) {
        out.clear();
        self.index.query_range_into(p, radius, raw);
        for &other in raw.iter() {
            let oid = NodeId(other);
            if self.alive[oid.idx()] {
                out.push(oid);
            }
        }
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_world() -> World {
        // 5 nodes on a line, 100 m apart, range 150 m.
        let mut w = World::new(Aabb::from_size(1000.0, 100.0), 5, 150.0);
        for i in 0..5u32 {
            w.set_motion(NodeId(i), Point::new(i as f64 * 100.0, 50.0), Vec2::ZERO);
        }
        w.rebuild_index();
        w
    }

    /// `id`'s neighbours through [`World::neighbors_into`].
    fn nbrs(w: &World, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        w.neighbors_into(id, &mut out, &mut Vec::new());
        out
    }

    #[test]
    fn neighbors_respect_range() {
        let w = line_world();
        assert_eq!(nbrs(&w, NodeId(0)), vec![NodeId(1)]);
        assert_eq!(nbrs(&w, NodeId(2)), vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn in_range_symmetric() {
        let w = line_world();
        assert!(w.in_range(NodeId(0), NodeId(1)));
        assert!(w.in_range(NodeId(1), NodeId(0)));
        assert!(!w.in_range(NodeId(0), NodeId(2)));
    }

    #[test]
    fn dead_nodes_vanish_from_queries() {
        let mut w = line_world();
        w.set_alive(NodeId(1), false);
        assert!(nbrs(&w, NodeId(0)).is_empty());
        assert!(!w.in_range(NodeId(0), NodeId(1)));
        assert!(nbrs(&w, NodeId(1)).is_empty());
        w.set_alive(NodeId(1), true);
        assert_eq!(nbrs(&w, NodeId(0)), vec![NodeId(1)]);
    }

    #[test]
    fn set_motion_clamps_to_area() {
        let mut w = line_world();
        w.set_motion(NodeId(0), Point::new(-50.0, 500.0), Vec2::ZERO);
        let p = w.position(NodeId(0));
        assert_eq!(p, Point::new(0.0, 100.0));
    }

    #[test]
    fn motion_updates_neighborhoods_immediately() {
        let mut w = line_world();
        // No rebuild_index call: set_motion maintains the index in place.
        w.set_motion(NodeId(4), Point::new(80.0, 50.0), Vec2::ZERO);
        let n0 = nbrs(&w, NodeId(0));
        assert_eq!(n0, vec![NodeId(1), NodeId(4)]);
        // Same-cell drift (80 -> 10, both in the first 150 m cell) is
        // reflected immediately: node 2 at x=200 loses 4 as a neighbour
        // only if the stored position really moved.
        w.set_motion(NodeId(4), Point::new(10.0, 50.0), Vec2::ZERO);
        assert_eq!(nbrs(&w, NodeId(2)), vec![NodeId(1), NodeId(3)]);
        // A cell-crossing move relocates.
        w.set_motion(NodeId(4), Point::new(260.0, 50.0), Vec2::ZERO);
        assert_eq!(nbrs(&w, NodeId(0)), vec![NodeId(1)]);
        // An explicit rebuild stays idempotent.
        w.rebuild_index();
        assert_eq!(nbrs(&w, NodeId(0)), vec![NodeId(1)]);
    }

    #[test]
    fn gap_codec_round_trips_through_the_escape() {
        let runs: [&[u32]; 9] = [
            &[],
            &[0, 1, 2],
            // First gaps of 65 535 (one unit) and 65 536 (escaped).
            &[65_534],
            &[65_535, 65_536],
            // A gap of 65 536 mid-run, then one far past 16 bits.
            &[0, 1, 65_537, 65_538, 4_000_000],
            &[7, 70_000, 70_001, 200_000],
            // Ids near `u32::MAX`: a first gap of 2³² wraps to 0 and
            // still escapes.
            &[u32::MAX - 2, u32::MAX - 1, u32::MAX],
            &[u32::MAX],
            &[0, u32::MAX],
        ];
        for ids in runs {
            // Runs append: a unit already in the buffer stays in front.
            let mut units = vec![9u16];
            encode_run(ids, &mut units);
            assert_eq!(units.len() - 1, encoded_len(ids), "{ids:?}");
            let back: Vec<u32> = Run::new(&units[1..]).collect();
            assert_eq!(back, ids, "round trip of {ids:?} via {units:?}");
        }
        let mut units = Vec::new();
        encode_run(&[65_534, 131_069], &mut units);
        assert_eq!(units, [65_535, 65_535], "gaps up to 65 535 take one unit");
        units.clear();
        encode_run(&[65_535, 65_536], &mut units);
        assert_eq!(units, [0, 0, 1, 1], "a gap of 65 536 escapes");
        units.clear();
        encode_run(&[u32::MAX], &mut units);
        assert_eq!(units, [0, 0, 0]);
    }

    #[test]
    fn adjacency_table_answers_like_the_index() {
        let mut w = line_world();
        assert!(!w.adjacency_fresh(), "a world starts on the index path");
        let stale: Vec<_> = w.ids().map(|id| nbrs(&w, id)).collect();
        w.refresh_adjacency();
        assert!(w.adjacency_fresh());
        let fresh: Vec<_> = w.ids().map(|id| nbrs(&w, id)).collect();
        assert_eq!(fresh, stale);
        // Liveness is read at query time: the table stays fresh.
        w.set_alive(NodeId(1), false);
        assert!(w.adjacency_fresh());
        assert!(nbrs(&w, NodeId(0)).is_empty());
        assert!(nbrs(&w, NodeId(1)).is_empty(), "a dead node hears no one");
        assert_eq!(nbrs(&w, NodeId(2)), vec![NodeId(3)]);
        w.set_alive(NodeId(1), true);
        assert_eq!(nbrs(&w, NodeId(0)), vec![NodeId(1)]);
        // Every position write marks it stale; the index answers.
        w.set_motion(NodeId(4), Point::new(80.0, 50.0), Vec2::ZERO);
        assert!(!w.adjacency_fresh());
        assert_eq!(nbrs(&w, NodeId(0)), vec![NodeId(1), NodeId(4)]);
        w.refresh_adjacency();
        assert_eq!(nbrs(&w, NodeId(0)), vec![NodeId(1), NodeId(4)]);
        w.rebuild_index();
        assert!(!w.adjacency_fresh());
        w.refresh_adjacency();
        w.place_all(|id| (Point::new(id.0 as f64 * 200.0, 50.0), Vec2::ZERO));
        assert!(!w.adjacency_fresh());
        w.refresh_adjacency();
        assert!(nbrs(&w, NodeId(2)).is_empty());
    }

    #[test]
    fn memory_bytes_leaves_the_adjacency_table_out() {
        let mut w = line_world();
        let before = w.memory_bytes();
        w.refresh_adjacency();
        assert_eq!(w.memory_bytes(), before);
    }

    #[test]
    fn into_variants_reuse_buffers() {
        let w = line_world();
        let mut out = Vec::new();
        let mut raw = Vec::new();
        w.neighbors_into(NodeId(2), &mut out, &mut raw);
        assert_eq!(out, vec![NodeId(1), NodeId(3)]);
        w.nodes_near_into(Point::new(100.0, 50.0), 120.0, &mut out, &mut raw);
        assert_eq!(out, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn nodes_near_point() {
        let mut w = line_world();
        let (mut near, mut raw) = (Vec::new(), Vec::new());
        w.nodes_near_into(Point::new(100.0, 50.0), 120.0, &mut near, &mut raw);
        assert_eq!(near, vec![NodeId(0), NodeId(1), NodeId(2)]);
        // Failed nodes are skipped.
        w.set_alive(NodeId(1), false);
        w.nodes_near_into(Point::new(100.0, 50.0), 120.0, &mut near, &mut raw);
        assert_eq!(near, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn capability_assignment() {
        let mut w = line_world();
        assert_eq!(w.capability(NodeId(3)), Capability::Regular);
        w.set_capability(NodeId(3), Capability::Enhanced);
        assert_eq!(w.capability(NodeId(3)), Capability::Enhanced);
    }

    #[test]
    fn partition_gates_island_membership() {
        let mut w = line_world();
        assert!(!w.partitioned());
        assert!(w.same_island(NodeId(0), NodeId(4)));
        w.apply_partition(&[vec![NodeId(0), NodeId(1)], vec![NodeId(3), NodeId(4)]]);
        assert!(w.partitioned());
        assert!(w.same_island(NodeId(0), NodeId(1)));
        assert!(!w.same_island(NodeId(1), NodeId(3)));
        // Node 2 is listed nowhere: it stays in island 0.
        assert!(w.same_island(NodeId(2), NodeId(0)));
        assert!(!w.same_island(NodeId(2), NodeId(4)));
        // A new partition replaces the old one.
        w.apply_partition(&[vec![], vec![NodeId(0)]]);
        assert!(!w.same_island(NodeId(0), NodeId(1)));
        assert!(w.same_island(NodeId(1), NodeId(4)));
        w.heal_partition();
        assert!(!w.partitioned());
        assert!(w.same_island(NodeId(0), NodeId(4)));
    }

    #[test]
    fn byzantine_marking_round_trips() {
        let mut w = line_world();
        assert_eq!(w.byzantine(NodeId(2)), None);
        let mode = ByzantineMode::SelectiveForward { drop_prob: 0.5 };
        w.set_byzantine(NodeId(2), Some(mode));
        assert_eq!(w.byzantine(NodeId(2)), Some(mode));
        assert_eq!(w.byzantine(NodeId(1)), None);
        w.set_byzantine(NodeId(2), None);
        assert_eq!(w.byzantine(NodeId(2)), None);
    }

    #[test]
    fn clock_skew_shifts_local_time_only() {
        let mut w = line_world();
        let t = SimTime::from_secs(10);
        assert_eq!(w.local_time(NodeId(0), t), t);
        w.set_clock_skew_us(NodeId(0), -2_000_000);
        assert_eq!(w.local_time(NodeId(0), t), SimTime::from_secs(8));
        assert_eq!(w.local_time(NodeId(1), t), t);
        // Clamped at zero: a clock running far behind never underflows.
        w.set_clock_skew_us(NodeId(0), -20_000_000);
        assert_eq!(w.local_time(NodeId(0), t), SimTime::ZERO);
        w.set_clock_skew_us(NodeId(0), 500);
        assert_eq!(w.local_time(NodeId(0), t), SimTime(t.0 + 500));
    }

    #[test]
    fn position_error_displaces_reported_only() {
        let mut w = line_world();
        let true_pos = w.position(NodeId(3));
        assert_eq!(w.reported_position(NodeId(3)), true_pos);
        w.set_position_error(NodeId(3), Vec2::new(25.0, -10.0));
        let reported = w.reported_position(NodeId(3));
        assert_eq!(reported, Point::new(true_pos.x + 25.0, true_pos.y - 10.0));
        // True position (and hence radio connectivity) is untouched.
        assert_eq!(w.position(NodeId(3)), true_pos);
        assert_eq!(w.position_error(NodeId(2)), Vec2::ZERO);
    }

    #[test]
    fn fault_arrays_count_in_memory_bytes_only_when_allocated() {
        let mut w = line_world();
        let base = w.memory_bytes();
        w.apply_partition(&[vec![NodeId(0)], vec![NodeId(1)]]);
        w.set_byzantine(
            NodeId(0),
            Some(ByzantineMode::BogusCandidacy { drop_prob: 0.1 }),
        );
        assert!(w.memory_bytes() > base);
        w.heal_partition();
        // byz stays allocated; island is freed again.
        assert!(w.memory_bytes() > base);
    }

    #[test]
    fn memory_bytes_scales_with_population() {
        let small = World::new(Aabb::from_size(1000.0, 1000.0), 10, 150.0);
        let large = World::new(Aabb::from_size(1000.0, 1000.0), 1000, 150.0);
        assert!(small.memory_bytes() > 0);
        assert!(large.memory_bytes() > 50 * small.memory_bytes() / 10);
    }
}
