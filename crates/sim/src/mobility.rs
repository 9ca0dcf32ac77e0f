//! Mobility models.
//!
//! Three models cover the paper's motivating scenarios (§1):
//!
//! * [`Stationary`] — conference-room / classroom settings;
//! * [`RandomWaypoint`] — the standard MANET evaluation model (independent
//!   node movement, e.g. disaster relief);
//! * [`ReferencePointGroup`] — group mobility (battlefield units moving
//!   together), after Hong et al.'s RPGM.
//!
//! A model owns all its per-node state; the engine calls [`Mobility::init`]
//! once and [`Mobility::step`] every mobility tick.

use crate::node::NodeId;
use crate::rng::SimRng;
use crate::world::World;
use hvdb_geo::{Point, Vec2};

/// A node mobility model.
pub trait Mobility {
    /// Places every node and sets initial velocities.
    fn init(&mut self, world: &mut World, rng: &mut SimRng);

    /// Advances every node by `dt` seconds.
    fn step(&mut self, dt: f64, world: &mut World, rng: &mut SimRng);
}

/// Nodes scattered uniformly at random and never moving.
#[derive(Debug, Default, Clone)]
pub struct Stationary;

impl Mobility for Stationary {
    fn init(&mut self, world: &mut World, rng: &mut SimRng) {
        let area = world.area();
        world.place_all(|_| (rng.point_in(&area), Vec2::ZERO));
    }

    fn step(&mut self, _dt: f64, _world: &mut World, _rng: &mut SimRng) {}
}

#[derive(Debug, Clone, Copy)]
struct WaypointState {
    target: Point,
    speed: f64,
    pause_left: f64,
}

/// The random waypoint model: each node picks a uniform destination and a
/// uniform speed in `[speed_min, speed_max]`, travels there in a straight
/// line, pauses `pause_secs`, and repeats.
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    /// Minimum speed (m/s). Kept strictly positive to avoid the well-known
    /// speed-decay pathology of the model.
    pub speed_min: f64,
    /// Maximum speed (m/s).
    pub speed_max: f64,
    /// Pause at each waypoint (seconds).
    pub pause_secs: f64,
    state: Vec<WaypointState>,
}

impl RandomWaypoint {
    /// Creates the model with the given speed range and pause time.
    pub fn new(speed_min: f64, speed_max: f64, pause_secs: f64) -> Self {
        assert!(speed_min > 0.0 && speed_max >= speed_min, "bad speed range");
        RandomWaypoint {
            speed_min,
            speed_max,
            pause_secs,
            state: Vec::new(),
        }
    }
}

impl Mobility for RandomWaypoint {
    fn init(&mut self, world: &mut World, rng: &mut SimRng) {
        let area = world.area();
        self.state.clear();
        world.place_all(|_| {
            let pos = rng.point_in(&area);
            let target = rng.point_in(&area);
            let speed = rng.range_f64(self.speed_min, self.speed_max);
            self.state.push(WaypointState {
                target,
                speed,
                pause_left: 0.0,
            });
            (pos, pos.vector_to(target).normalized().scaled(speed))
        });
    }

    fn step(&mut self, dt: f64, world: &mut World, rng: &mut SimRng) {
        let area = world.area();
        for (i, st) in self.state.iter_mut().enumerate() {
            let id = NodeId(i as u32);
            let pos = world.position(id);
            if st.pause_left > 0.0 {
                st.pause_left -= dt;
                if st.pause_left > 0.0 {
                    world.set_motion(id, pos, Vec2::ZERO);
                    continue;
                }
                // Pause over: pick a new leg.
                st.target = rng.point_in(&area);
                st.speed = rng.range_f64(self.speed_min, self.speed_max);
            }
            let to_target = pos.vector_to(st.target);
            let dist = to_target.magnitude();
            let travel = st.speed * dt;
            if travel >= dist {
                // Arrived this tick.
                world.set_motion(id, st.target, Vec2::ZERO);
                st.pause_left = self.pause_secs.max(f64::MIN_POSITIVE);
            } else {
                let vel = to_target.normalized().scaled(st.speed);
                world.set_motion(id, pos.advanced(vel, dt), vel);
            }
        }
    }
}

/// Reference Point Group Mobility: nodes are partitioned into groups of
/// `group_size` consecutive ids; the group's *reference point* follows a
/// random-waypoint trajectory and each member stays within
/// `member_radius` of it (re-drawn offset each tick, RPGM-style).
#[derive(Debug, Clone)]
pub struct ReferencePointGroup {
    /// Nodes per group (the last group may be smaller).
    pub group_size: usize,
    /// Reference-point speed range (m/s).
    pub speed_min: f64,
    /// Reference-point max speed (m/s).
    pub speed_max: f64,
    /// Maximum member offset from the reference point (metres).
    pub member_radius: f64,
    refs: Vec<(Point, Point, f64)>, // (pos, target, speed) per group
}

impl ReferencePointGroup {
    /// Creates the model.
    pub fn new(group_size: usize, speed_min: f64, speed_max: f64, member_radius: f64) -> Self {
        assert!(group_size >= 1);
        assert!(speed_min > 0.0 && speed_max >= speed_min);
        ReferencePointGroup {
            group_size,
            speed_min,
            speed_max,
            member_radius,
            refs: Vec::new(),
        }
    }

    fn group_of(&self, idx: usize) -> usize {
        idx / self.group_size
    }

    /// Node `id`'s position and velocity around its group's reference
    /// point (one offset draw).
    fn member_motion(&self, id: NodeId, rng: &mut SimRng) -> (Point, Vec2) {
        let (rp, target, speed) = self.refs[self.group_of(id.idx())];
        let offset = rng.velocity(0.0, self.member_radius);
        (rp + offset, rp.vector_to(target).normalized().scaled(speed))
    }
}

impl Mobility for ReferencePointGroup {
    fn init(&mut self, world: &mut World, rng: &mut SimRng) {
        let groups = world.len().div_ceil(self.group_size);
        let area = world.area();
        self.refs = (0..groups)
            .map(|_| {
                let pos = rng.point_in(&area);
                let target = rng.point_in(&area);
                let speed = rng.range_f64(self.speed_min, self.speed_max);
                (pos, target, speed)
            })
            .collect();
        world.place_all(|id| self.member_motion(id, rng));
    }

    fn step(&mut self, dt: f64, world: &mut World, rng: &mut SimRng) {
        let area = world.area();
        for r in &mut self.refs {
            let (pos, target, speed) = *r;
            let to_target = pos.vector_to(target);
            let dist = to_target.magnitude();
            let travel = speed * dt;
            if travel >= dist {
                let new_target = rng.point_in(&area);
                let new_speed = rng.range_f64(self.speed_min, self.speed_max);
                *r = (target, new_target, new_speed);
            } else {
                let vel = to_target.normalized().scaled(speed);
                *r = (pos.advanced(vel, dt), target, speed);
            }
        }
        for id in world.ids().collect::<Vec<_>>() {
            let (pos, vel) = self.member_motion(id, rng);
            world.set_motion(id, pos, vel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvdb_geo::Aabb;

    fn world(n: usize) -> World {
        World::new(Aabb::from_size(1000.0, 1000.0), n, 250.0)
    }

    #[test]
    fn stationary_scatters_and_never_moves() {
        let mut w = world(50);
        let mut rng = SimRng::new(1);
        let mut m = Stationary;
        m.init(&mut w, &mut rng);
        let before: Vec<Point> = w.ids().map(|id| w.position(id)).collect();
        // Positions are scattered, not all at the centre.
        let distinct = before
            .iter()
            .filter(|p| p.distance(Point::new(500.0, 500.0)) > 1.0)
            .count();
        assert!(distinct > 40);
        m.step(10.0, &mut w, &mut rng);
        let after: Vec<Point> = w.ids().map(|id| w.position(id)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn waypoint_moves_nodes_within_area_at_bounded_speed() {
        let mut w = world(30);
        let mut rng = SimRng::new(2);
        let mut m = RandomWaypoint::new(1.0, 10.0, 0.0);
        m.init(&mut w, &mut rng);
        for _ in 0..100 {
            let before: Vec<Point> = w.ids().map(|id| w.position(id)).collect();
            m.step(1.0, &mut w, &mut rng);
            for id in w.ids() {
                let p = w.position(id);
                assert!(w.area().contains(p));
                let moved = before[id.idx()].distance(p);
                assert!(moved <= 10.0 + 1e-6, "node {id} moved {moved} m in 1 s");
            }
        }
    }

    #[test]
    fn waypoint_eventually_changes_direction() {
        let mut w = world(5);
        let mut rng = SimRng::new(3);
        let mut m = RandomWaypoint::new(5.0, 5.0, 0.0);
        m.init(&mut w, &mut rng);
        let v0 = w.velocity(NodeId(0));
        let mut changed = false;
        for _ in 0..2_000 {
            m.step(1.0, &mut w, &mut rng);
            let v = w.velocity(NodeId(0));
            if (v - v0).magnitude() > 1.0 {
                changed = true;
                break;
            }
        }
        assert!(changed, "waypoint node kept one heading for 2000 s");
    }

    #[test]
    fn waypoint_pause_holds_position() {
        let mut w = world(1);
        let mut rng = SimRng::new(4);
        let mut m = RandomWaypoint::new(100.0, 100.0, 50.0);
        m.init(&mut w, &mut rng);
        // With 100 m/s in a 1000 m box, arrival happens within ~15 s.
        for _ in 0..20 {
            m.step(1.0, &mut w, &mut rng);
        }
        let p1 = w.position(NodeId(0));
        m.step(1.0, &mut w, &mut rng);
        let p2 = w.position(NodeId(0));
        assert_eq!(p1, p2, "paused node must not move");
        assert_eq!(w.velocity(NodeId(0)), Vec2::ZERO);
    }

    #[test]
    fn rpgm_members_stay_near_reference() {
        let mut w = world(40);
        let mut rng = SimRng::new(5);
        let mut m = ReferencePointGroup::new(10, 2.0, 8.0, 50.0);
        m.init(&mut w, &mut rng);
        for _ in 0..30 {
            m.step(1.0, &mut w, &mut rng);
        }
        // All members of a group are within 2 * member_radius of each other
        // (both within member_radius of the same reference point).
        for g in 0..4 {
            let members: Vec<Point> = (g * 10..(g + 1) * 10)
                .map(|i| w.position(NodeId(i as u32)))
                .collect();
            for a in &members {
                for b in &members {
                    assert!(a.distance(*b) <= 100.0 + 1e-6);
                }
            }
        }
    }

    #[test]
    fn rpgm_groups_move_coherently() {
        let mut w = world(20);
        let mut rng = SimRng::new(6);
        let mut m = ReferencePointGroup::new(10, 5.0, 5.0, 20.0);
        m.init(&mut w, &mut rng);
        let centroid = |w: &World, g: usize| {
            let pts: Vec<Point> = (g * 10..(g + 1) * 10)
                .map(|i| w.position(NodeId(i as u32)))
                .collect();
            Point::new(
                pts.iter().map(|p| p.x).sum::<f64>() / 10.0,
                pts.iter().map(|p| p.y).sum::<f64>() / 10.0,
            )
        };
        let c0 = centroid(&w, 0);
        for _ in 0..20 {
            m.step(1.0, &mut w, &mut rng);
        }
        let c1 = centroid(&w, 0);
        let moved = c0.distance(c1);
        assert!(moved > 10.0, "group centroid moved only {moved} m");
    }

    #[test]
    fn deterministic_replay() {
        let run = |seed: u64| {
            let mut w = world(25);
            let mut rng = SimRng::new(seed);
            let mut m = RandomWaypoint::new(1.0, 15.0, 5.0);
            m.init(&mut w, &mut rng);
            for _ in 0..50 {
                m.step(1.0, &mut w, &mut rng);
            }
            w.ids().map(|id| w.position(id)).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
