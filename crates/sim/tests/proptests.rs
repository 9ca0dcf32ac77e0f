//! Property-based tests for the simulator substrate.

use hvdb_geo::{Aabb, Point, Vec2};
use hvdb_sim::{
    gini, jain_fairness, max_mean_ratio, EventKind, EventQueue, Mobility, NodeId, RadioConfig,
    RandomWaypoint, ReferencePointGroup, SimDuration, SimRng, SimTime, Stationary, World,
};
use proptest::prelude::*;

/// `id`'s alive unit-disk neighbours computed by brute force over every
/// node, ascending (none when `id` itself is dead).
fn brute_force_neighbors(w: &World, id: NodeId, range: f64) -> Vec<NodeId> {
    if !w.alive(id) {
        return Vec::new();
    }
    w.ids()
        .filter(|&j| {
            j != id && w.alive(j) && w.position(id).distance_sq(w.position(j)) <= range * range
        })
        .collect()
}

proptest! {
    /// The event queue is a stable priority queue: pops are sorted by time,
    /// and equal-time events preserve insertion order.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q: EventQueue<usize> = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime(*t), EventKind::Deliver {
                to: NodeId(0),
                from: NodeId(0),
                msg: i,
            });
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some(ev) = q.pop() {
            let idx = match ev.kind {
                EventKind::Deliver { msg, .. } => msg,
                _ => unreachable!(),
            };
            if let Some((lt, li)) = last {
                prop_assert!(ev.time >= lt);
                if ev.time == lt {
                    prop_assert!(idx > li, "insertion order violated at equal times");
                }
            }
            last = Some((ev.time, idx));
        }
    }

    /// Fairness indices: bounds and invariance under scaling.
    #[test]
    fn fairness_indices_bounds(load in proptest::collection::vec(0u64..10_000, 1..100)) {
        let j = jain_fairness(&load);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&j), "jain {j}");
        let mm = max_mean_ratio(&load);
        prop_assert!(mm >= 1.0 - 1e-12, "max/mean {mm}");
        let g = gini(&load);
        prop_assert!((0.0 - 1e-12..=1.0).contains(&g), "gini {g}");
        // Scaling the load vector leaves all three unchanged.
        let scaled: Vec<u64> = load.iter().map(|x| x * 3).collect();
        prop_assert!((jain_fairness(&scaled) - j).abs() < 1e-9);
        prop_assert!((max_mean_ratio(&scaled) - mm).abs() < 1e-9);
        prop_assert!((gini(&scaled) - g).abs() < 1e-9);
    }

    /// Uniform load is perfectly fair under every index.
    #[test]
    fn uniform_load_is_fair(x in 1u64..1000, n in 1usize..50) {
        let load = vec![x; n];
        prop_assert!((jain_fairness(&load) - 1.0).abs() < 1e-12);
        prop_assert!((max_mean_ratio(&load) - 1.0).abs() < 1e-12);
        prop_assert!(gini(&load).abs() < 1e-9);
    }

    /// World neighbourhoods agree with brute-force unit-disk computation,
    /// also right after a mobility model placed the population (no
    /// explicit index rebuild).
    #[test]
    fn world_neighbors_match_brute_force(
        pts in proptest::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 2..50),
        range in 50.0..400.0f64,
        seed in 0u64..10_000,
    ) {
        let area = Aabb::from_size(1000.0, 1000.0);
        let mut w = World::new(area, pts.len(), range);
        for (i, (x, y)) in pts.iter().enumerate() {
            w.set_motion(NodeId(i as u32), Point::new(*x, *y), Vec2::ZERO);
        }
        w.rebuild_index();
        for i in 0..pts.len() {
            let id = NodeId(i as u32);
            let mut got = Vec::new();
            w.neighbors_into(id, &mut got, &mut Vec::new());
            let want: Vec<NodeId> = (0..pts.len())
                .filter(|j| *j != i)
                .filter(|j| {
                    let a = Point::new(pts[i].0, pts[i].1);
                    let b = Point::new(pts[*j].0, pts[*j].1);
                    a.distance_sq(b) <= range * range
                })
                .map(|j| NodeId(j as u32))
                .collect();
            prop_assert_eq!(got, want);
        }
        let models: [Box<dyn Mobility>; 3] = [
            Box::new(Stationary),
            Box::new(RandomWaypoint::new(1.0, 5.0, 0.0)),
            Box::new(ReferencePointGroup::new(5, 1.0, 5.0, 60.0)),
        ];
        for mut model in models {
            let mut placed = World::new(area, pts.len(), range);
            model.init(&mut placed, &mut SimRng::new(seed));
            let mut got = Vec::new();
            for id in placed.ids() {
                placed.neighbors_into(id, &mut got, &mut Vec::new());
                prop_assert_eq!(&got, &brute_force_neighbors(&placed, id, range));
            }
        }
    }

    /// The adjacency table answers exactly like the spatial index: with
    /// refreshes, moves without a refresh and liveness flips interleaved,
    /// every node's `neighbors_into` equals the brute-force disk after
    /// every step, on the fresh path and the stale one alike.
    #[test]
    fn adjacency_table_matches_brute_force(
        pts in proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64), 1..60),
        side in 50.0..2000.0f64,
        range in 5.0..700.0f64,
        steps in proptest::collection::vec(
            (0u8..3, 0usize..1000, (0.0..1.0f64, 0.0..1.0f64)),
            1..40,
        ),
    ) {
        let n = pts.len();
        let at = |(x, y): (f64, f64)| Point::new(x * side, y * side);
        let mut w = World::new(Aabb::from_size(side, side), n, range);
        w.place_all(|id| (at(pts[id.idx()]), Vec2::ZERO));
        let (mut out, mut raw) = (Vec::new(), Vec::new());
        for (op, k, p) in steps {
            let id = NodeId((k % n) as u32);
            let was_fresh = w.adjacency_fresh();
            match op {
                0 => {
                    w.refresh_adjacency();
                    prop_assert!(w.adjacency_fresh());
                }
                1 => {
                    w.set_motion(id, at(p), Vec2::ZERO);
                    prop_assert!(!w.adjacency_fresh(), "a move must stale the table");
                }
                _ => {
                    w.set_alive(id, !w.alive(id));
                    prop_assert_eq!(w.adjacency_fresh(), was_fresh);
                }
            }
            for id in w.ids() {
                w.neighbors_into(id, &mut out, &mut raw);
                prop_assert_eq!(&out, &brute_force_neighbors(&w, id, range));
            }
        }
    }

    /// Random-waypoint never exceeds the configured speed and never leaves
    /// the area, for any seed.
    #[test]
    fn waypoint_speed_and_bounds(seed in 0u64..10_000) {
        let area = Aabb::from_size(500.0, 500.0);
        let mut w = World::new(area, 10, 100.0);
        let mut rng = SimRng::new(seed);
        let mut m = RandomWaypoint::new(1.0, 7.0, 2.0);
        m.init(&mut w, &mut rng);
        for _ in 0..50 {
            let before: Vec<Point> = w.ids().map(|id| w.position(id)).collect();
            m.step(1.0, &mut w, &mut rng);
            for id in w.ids() {
                let p = w.position(id);
                prop_assert!(area.contains(p));
                prop_assert!(before[id.idx()].distance(p) <= 7.0 + 1e-6);
            }
        }
    }

    /// Radio tx_time is additive in bytes and inversely proportional to
    /// bitrate.
    #[test]
    fn tx_time_linear(bytes in 1usize..100_000, bitrate in 1.0e5..1.0e8f64) {
        let r = RadioConfig { bitrate_bps: bitrate, ..Default::default() };
        let t1 = r.tx_time(bytes);
        let t2 = r.tx_time(bytes * 2);
        // Within integer-microsecond truncation error.
        prop_assert!((t2.0 as i64 - 2 * t1.0 as i64).abs() <= 2);
        let expect = (bytes as f64 * 8.0 / bitrate) * 1e6;
        prop_assert!((t1.0 as f64 - expect).abs() <= 1.0);
    }

    /// SimTime arithmetic is consistent: (t + d).since(t) == d.
    #[test]
    fn time_roundtrip(t in 0u64..1 << 40, d in 0u64..1 << 30) {
        let t0 = SimTime(t);
        let dur = SimDuration(d);
        prop_assert_eq!((t0 + dur).since(t0), dur);
        prop_assert_eq!(t0.since(t0 + dur), SimDuration::ZERO);
    }
}
