//! Micro-benchmarks for the engine's delivery hot path (vendored
//! criterion harness — wall-clock mean/min, comparable run-to-run):
//!
//! * `neighbors_into` — one node's neighbour list: `scratch` on a stale
//!   world (the scratch-threaded spatial query, liveness filter and
//!   sort), `cached` from a fresh adjacency table;
//! * `adjacency/refresh` — one full adjacency-table build over the world;
//! * `broadcast_round` — one full broadcast fan-out through the event
//!   loop (send → one shared `DeliverMany` → per-receiver dispatch);
//! * `mobility_tick` — the incremental spatial-index update under a
//!   whole-population waypoint step.
//!
//! `broadcast_round` covers the engine's own costs end to end: the
//! per-shard transmission counts, the window commit and the fold into
//! `Stats` when `run` returns all sit on its path.
//!
//! Run with `cargo bench -p hvdb-sim`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hvdb_geo::Aabb;
use hvdb_sim::{
    Mobility, NodeId, ParCtx, ParProtocol, ParSimulator, RandomWaypoint, SimConfig, SimDuration,
    SimRng, SimTime, World,
};

const NODES: usize = 600;

/// Shards of the `broadcast_round` engine, as the `scale` sweep uses.
const SHARDS: usize = 64;

/// A 600-node world at the `scale` scenario's density.
fn bench_world() -> World {
    let side = (NODES as f64 * 8533.0).sqrt();
    let mut world = World::new(Aabb::from_size(side, side), NODES, 450.0);
    let mut rng = SimRng::new(7);
    let mut mobility = RandomWaypoint::new(1.0, 5.0, 10.0);
    mobility.init(&mut world, &mut rng);
    world
}

fn bench_neighbors(c: &mut Criterion) {
    let mut world = bench_world();
    let mut out = Vec::new();
    let mut raw = Vec::new();
    let mut sweep = |name: &str, world: &World| {
        c.bench_function(name, |b| {
            let mut i = 0u32;
            b.iter(|| {
                i = (i + 1) % NODES as u32;
                world.neighbors_into(NodeId(i), &mut out, &mut raw);
                black_box(out.len())
            })
        });
    };
    sweep("neighbors_into/scratch", &world);
    world.refresh_adjacency();
    sweep("neighbors_into/cached", &world);
}

fn bench_adjacency_refresh(c: &mut Criterion) {
    let mut world = bench_world();
    c.bench_function("adjacency/refresh", |b| {
        b.iter(|| {
            // A position write stales the table; rewriting a node where
            // it stands changes no answer.
            let (p, v) = (world.position(NodeId(0)), world.velocity(NodeId(0)));
            world.set_motion(NodeId(0), p, v);
            world.refresh_adjacency();
            black_box(world.adjacency_fresh())
        })
    });
}

/// A protocol that floods one bounded gossip wave: node 0 broadcasts at
/// start, every receiver re-broadcasts until the hop budget runs out —
/// one realistic broadcast round per `run` call.
struct Gossip;

impl ParProtocol for Gossip {
    type Msg = u32;
    type Node = ();

    fn make_node(&self, _id: NodeId, _world: &World) {}

    fn on_start(&self, id: NodeId, _node: &mut (), ctx: &mut ParCtx<'_, u32>) {
        if id == NodeId(0) {
            ctx.broadcast(id, "gossip", 64, 2);
        }
    }

    fn on_message(
        &self,
        id: NodeId,
        _node: &mut (),
        _from: NodeId,
        msg: u32,
        ctx: &mut ParCtx<'_, u32>,
    ) {
        if msg > 0 {
            ctx.broadcast(id, "gossip", 64, msg - 1);
        }
    }

    fn on_timer(&self, _id: NodeId, _node: &mut (), _tag: u64, _ctx: &mut ParCtx<'_, u32>) {}
}

fn bench_broadcast_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("broadcast_round");
    group.sample_size(20);
    group.bench_function("shared", |b| {
        b.iter(|| {
            let side = (NODES as f64 * 8533.0).sqrt();
            let cfg = SimConfig {
                area: Aabb::from_size(side, side),
                num_nodes: NODES,
                mobility_tick: SimDuration::ZERO,
                ..SimConfig::default()
            };
            let mut sim: ParSimulator<(), u32> = ParSimulator::new(
                cfg,
                Box::new(RandomWaypoint::new(1.0, 5.0, 10.0)),
                SHARDS,
                1,
            );
            sim.run(&Gossip, SimTime::from_secs(5));
            black_box(sim.stats().events_processed)
        })
    });
    group.finish();
}

fn bench_mobility_tick(c: &mut Criterion) {
    let mut world = bench_world();
    let mut rng = SimRng::new(11);
    let mut mobility = RandomWaypoint::new(1.0, 5.0, 10.0);
    mobility.init(&mut world, &mut rng);
    c.bench_function("mobility_tick/incremental_index", |b| {
        b.iter(|| {
            mobility.step(1.0, &mut world, &mut rng);
            black_box(world.position(NodeId(0)))
        })
    });
}

criterion_group!(
    benches,
    bench_neighbors,
    bench_adjacency_refresh,
    bench_broadcast_round,
    bench_mobility_tick
);
criterion_main!(benches);
