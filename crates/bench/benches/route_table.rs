//! Micro-benchmarks of the Fig. 4 route table: beacon integration (the
//! per-beacon work each CH performs every `BEACON_INTERVAL`), lookups, and
//! failure handling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hvdb_core::routes::{AdvertisedRoute, QosMetrics};
use hvdb_core::{QosRequirement, RouteTable, SessionManager};
use hvdb_geo::Hnid;
use hvdb_sim::{SimDuration, SimTime};
use std::hint::black_box;

fn metric(ms: u64) -> QosMetrics {
    QosMetrics {
        delay: SimDuration::from_millis(ms),
        bandwidth_bps: 2e6,
    }
}

fn advertisement(n: usize) -> Vec<AdvertisedRoute> {
    (0..n)
        .map(|i| AdvertisedRoute {
            dst: Hnid(i as u32 + 2),
            hops: (i % 3) as u32 + 1,
            qos: metric(i as u64 % 7 + 1),
        })
        .collect()
}

fn filled_table(neighbors: u32, adv_len: usize) -> RouteTable {
    let mut t = RouteTable::new(Hnid(0), 4);
    let adv = advertisement(adv_len);
    for n in 1..=neighbors {
        t.integrate_beacon(Hnid(n), metric(n as u64), &adv, SimTime::ZERO);
    }
    t
}

fn bench_integrate(c: &mut Criterion) {
    let mut g = c.benchmark_group("route_table_integrate");
    for adv_len in [5usize, 15, 60] {
        let adv = advertisement(adv_len);
        g.bench_with_input(BenchmarkId::new("beacon", adv_len), &adv_len, |b, _| {
            b.iter(|| {
                let mut t = RouteTable::new(Hnid(0), 4);
                for n in 1..=5u32 {
                    t.integrate_beacon(Hnid(n), metric(1), black_box(&adv), SimTime::ZERO);
                }
                t
            })
        });
    }
    g.finish();
}

fn bench_lookup(c: &mut Criterion) {
    let t = filled_table(6, 60);
    c.bench_function("route_table_best_route", |b| {
        b.iter(|| t.best_route(black_box(Hnid(30)), &QosRequirement::BEST_EFFORT))
    });
    c.bench_function("route_table_advertisement", |b| {
        b.iter(|| black_box(&t).advertisement())
    });
}

fn bench_failure(c: &mut Criterion) {
    c.bench_function("route_table_remove_via", |b| {
        b.iter_batched(
            || filled_table(6, 60),
            |mut t| t.remove_via(black_box(Hnid(3))),
            criterion::BatchSize::SmallInput,
        )
    });
    c.bench_function("session_failover", |b| {
        b.iter_batched(
            || {
                let t = filled_table(6, 60);
                let mut sm = SessionManager::new();
                for d in [10u32, 20, 30, 40] {
                    sm.establish(&t, Hnid(d), QosRequirement::BEST_EFFORT);
                }
                (t, sm)
            },
            |(mut t, mut sm)| {
                t.remove_via(Hnid(1));
                sm.on_neighbor_failed(&t, Hnid(1))
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_integrate, bench_lookup, bench_failure);
criterion_main!(benches);
