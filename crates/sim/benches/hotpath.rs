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
//!   whole-population waypoint step;
//! * `class_counters` — per-transmission stats accounting: interned
//!   class-id slots vs the old string-keyed hash maps;
//! * `commit_pass` — the parallel engine's window commit: shard `Tx` ops
//!   pre-folded into per-shard digests, then one heap push per outbox
//!   event + bulk counter applies, vs the legacy serial fold (one heap
//!   push and one `count_tx` per event).
//!
//! Run with `cargo bench -p hvdb-sim`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hvdb_geo::Aabb;
use hvdb_sim::{
    EventKind, EventQueue, Mobility, NodeId, ParCtx, ParProtocol, ParSimulator, RandomWaypoint,
    SimConfig, SimDuration, SimRng, SimTime, Stats, World,
};
use rustc_hash::FxHashMap;

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

/// The protocol's real class mix (labels and typical wire sizes), cycled
/// the way a busy run hits the counters.
const CLASS_MIX: [(&str, usize); 8] = [
    ("beacon", 76),
    ("candidacy", 36),
    ("ch-announce", 32),
    ("mnt-share", 180),
    ("ht-bcast", 220),
    ("mesh-data", 540),
    ("local-deliver", 532),
    ("mnt-refresh", 180),
];

fn bench_class_counters(c: &mut Criterion) {
    let mut group = c.benchmark_group("class_counters");
    // The production path: first use interns the label by (pointer,
    // length); every transmission after that is a two-word hash plus a
    // direct slot index.
    group.bench_function("interned_slots", |b| {
        let mut stats = Stats::new(NODES);
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % CLASS_MIX.len();
            let (class, bytes) = CLASS_MIX[i];
            stats.count_tx(NodeId((i % NODES) as u32), class, bytes);
            black_box(stats.node_tx_msgs[i % NODES])
        })
    });
    // The pre-interning accounting (PR 4 residual): two string-keyed
    // FxHashMap entry lookups hashing the class label's bytes on every
    // single transmission.
    group.bench_function("string_keyed_maps", |b| {
        let mut msgs: FxHashMap<&'static str, u64> = FxHashMap::default();
        let mut bytes_by_class: FxHashMap<&'static str, u64> = FxHashMap::default();
        let mut node_tx_msgs = vec![0u64; NODES];
        let mut node_tx_bytes = vec![0u64; NODES];
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % CLASS_MIX.len();
            let (class, bytes) = CLASS_MIX[i];
            *msgs.entry(class).or_insert(0) += 1;
            *bytes_by_class.entry(class).or_insert(0) += bytes as u64;
            node_tx_msgs[i % NODES] += 1;
            node_tx_bytes[i % NODES] += bytes as u64;
            black_box(node_tx_msgs[i % NODES])
        })
    });
    group.finish();
}

/// One window's worth of drained shard state, shaped like the parallel
/// engine's commit input: per shard, timer events stamped inside the
/// lookahead window (timestamps arrive roughly — not exactly — in order,
/// as handlers emit at `now + jitter`) plus one Tx record per event from
/// the protocol class mix.
type ShardFixture = (Vec<(SimTime, u64)>, Vec<(u32, &'static str, u64)>);

fn commit_fixture(shards: usize, per_shard: usize) -> Vec<ShardFixture> {
    let mut rng = SimRng::new(23);
    (0..shards)
        .map(|s| {
            let events: Vec<(SimTime, u64)> = (0..per_shard)
                .map(|i| {
                    let t = SimTime(1_000_000 + rng.range_u64(0, 50_000));
                    (t, (s * per_shard + i) as u64)
                })
                .collect();
            let txs: Vec<(u32, &'static str, u64)> = (0..per_shard)
                .map(|i| {
                    let (class, bytes) = CLASS_MIX[(s + i) % CLASS_MIX.len()];
                    (((s * per_shard + i) % NODES) as u32, class, bytes as u64)
                })
                .collect();
            (events, txs)
        })
        .collect()
}

fn bench_commit_pass(c: &mut Criterion) {
    const PER_SHARD: usize = 128;
    let fixture = commit_fixture(SHARDS, PER_SHARD);
    let mut group = c.benchmark_group("commit_pass");

    // The production pass: each shard's Tx ops are folded into a digest
    // (first-appearance class list + dense node deltas) on the worker
    // lanes; the serial commit then pushes the outbox onto the heap event
    // by event, in dispatch order, and applies a handful of bulk counters
    // per shard.
    group.bench_function("prefold_push", |b| {
        // Shard-retained scratch, reused across windows like the real
        // `Shard` fields.
        let mut classes: Vec<(&'static str, u64, u64)> = Vec::new();
        let mut node_delta = vec![(0u64, 0u64); NODES];
        let mut touched: Vec<u32> = Vec::new();
        b.iter(|| {
            let mut queue: EventQueue<u64> = EventQueue::new();
            let mut stats = Stats::new(NODES);
            for (events, txs) in &fixture {
                // Pre-fold (runs on a drain lane in the engine).
                classes.clear();
                touched.clear();
                for &(node, class, bytes) in txs {
                    match classes
                        .iter_mut()
                        .find(|c| c.0.as_ptr() == class.as_ptr() && c.0.len() == class.len())
                    {
                        Some(c) => {
                            c.1 += 1;
                            c.2 += bytes;
                        }
                        None => classes.push((class, 1, bytes)),
                    }
                    let d = &mut node_delta[node as usize];
                    if d.0 == 0 {
                        touched.push(node);
                    }
                    d.0 += 1;
                    d.1 += bytes;
                }
                // Serial commit.
                for &(time, tag) in events {
                    queue.push(
                        time,
                        EventKind::Timer {
                            node: NodeId((tag % NODES as u64) as u32),
                            tag,
                        },
                    );
                }
                for &(class, msgs, bytes) in &classes {
                    stats.count_tx_class_bulk(class, msgs, bytes);
                }
                for &node in &touched {
                    let d = std::mem::take(&mut node_delta[node as usize]);
                    stats.count_tx_node_bulk(NodeId(node), d.0, d.1);
                }
            }
            while let Some(ev) = queue.pop() {
                black_box(ev.time);
            }
            black_box(stats.events_processed)
        })
    });

    // The pre-digest fold: the serial barrier walks every shard's outbox
    // one event at a time — one seq stamp + heap push per event, one
    // interning `count_tx` per transmission.
    group.bench_function("legacy_serial_fold", |b| {
        b.iter(|| {
            let mut queue: EventQueue<u64> = EventQueue::new();
            let mut stats = Stats::new(NODES);
            for (events, txs) in &fixture {
                for &(time, tag) in events {
                    queue.push(
                        time,
                        EventKind::Timer {
                            node: NodeId((tag % NODES as u64) as u32),
                            tag,
                        },
                    );
                }
                for &(node, class, bytes) in txs {
                    stats.count_tx(NodeId(node), class, bytes as usize);
                }
            }
            while let Some(ev) = queue.pop() {
                black_box(ev.time);
            }
            black_box(stats.events_processed)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_neighbors,
    bench_adjacency_refresh,
    bench_broadcast_round,
    bench_mobility_tick,
    bench_class_counters,
    bench_commit_pass
);
criterion_main!(benches);
