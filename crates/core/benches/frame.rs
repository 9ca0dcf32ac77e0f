//! Micro-benchmarks for the frame plane (vendored criterion harness):
//! sealing (the one-time header interning every frame pays) and shared
//! clones (the per-receiver cost of a broadcast). Run with
//! `cargo bench -p hvdb-core`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hvdb_core::routes::{AdvertisedRoute, QosMetrics};
use hvdb_core::{ChMsg, FrameBytes, GroupId, HvdbMsg, LocalMembership, MntSummary};
use hvdb_geo::{Hid, Hnid, VcId};
use hvdb_sim::SimDuration;

/// A realistic flood payload: an MNT-Summary built from a ten-member
/// cluster, the message class relayed most often on the control plane.
fn mnt_share() -> HvdbMsg {
    let locals: Vec<LocalMembership> = (0..10)
        .map(|i| {
            let mut lm = LocalMembership::default();
            lm.join(GroupId(i % 3));
            lm.join(GroupId(i % 5));
            lm
        })
        .collect();
    HvdbMsg::Local(ChMsg::MntShare {
        origin: Hnid(5),
        hid: Hid::new(1, 1),
        holder: 42,
        gen: 17,
        refresh: false,
        mnt: MntSummary::from_locals(VcId::new(2, 3), locals.iter()),
    })
}

/// A beacon with a full advertisement table (the other frequent frame).
fn beacon() -> HvdbMsg {
    HvdbMsg::Local(ChMsg::Beacon {
        from: hvdb_geo::LogicalAddress {
            hid: Hid::new(0, 0),
            hnid: Hnid(3),
        },
        sent_at: hvdb_sim::SimTime::from_millis(9),
        advertised: (0..12)
            .map(|i| AdvertisedRoute {
                dst: Hnid(i),
                hops: 1 + i % 3,
                qos: QosMetrics {
                    delay: SimDuration::from_micros(500 + u64::from(i)),
                    bandwidth_bps: 2e6,
                },
            })
            .collect(),
    })
}

fn bench_frame(c: &mut Criterion) {
    for (name, make) in [
        ("mnt_share", mnt_share as fn() -> HvdbMsg),
        ("beacon", beacon as fn() -> HvdbMsg),
    ] {
        let mut group = c.benchmark_group(format!("frame/{name}"));
        group.bench_function("seal", |b| {
            let msg = make();
            b.iter(|| black_box(FrameBytes::seal(msg.clone()).wire_size()))
        });
        group.bench_function("clone_shared", |b| {
            let frame = FrameBytes::seal(make());
            b.iter(|| black_box(frame.clone().wire_size()))
        });
        group.finish();
    }
}

criterion_group!(benches, bench_frame);
criterion_main!(benches);
