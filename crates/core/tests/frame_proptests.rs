//! Property tests for the frame plane: sealing a message into an
//! [`FrameBytes`] must be a pure freeze — the interned wire size and
//! stats class round-trip **identically** to the builder-side encoder
//! (`HvdbMsg::wire_size` / `HvdbMsg::class`) for every message shape,
//! and sharing/deep-cloning a frame never changes either. This is the
//! invariant that lets relays and retries read the cached header instead
//! of re-walking the payload, and it is what keeps every committed
//! overhead number identical across the zero-copy refactor.

use hvdb_core::routes::{AdvertisedRoute, QosMetrics};
use hvdb_core::{ChMsg, FrameBytes, GeoPacket, GeoTarget, GroupId, HvdbMsg, LocalMembership};
use hvdb_geo::{Hid, Hnid, LogicalAddress, VcId};
use hvdb_sim::{NodeId, SimDuration, SimTime};
use proptest::prelude::*;

fn arb_lm() -> impl Strategy<Value = LocalMembership> {
    proptest::collection::vec(0u32..12, 0..5).prop_map(|gs| {
        let mut lm = LocalMembership::default();
        for g in gs {
            lm.join(GroupId(g));
        }
        lm
    })
}

fn arb_ch_msg() -> impl Strategy<Value = ChMsg> {
    let beacon = proptest::collection::vec((0u32..16, 1u32..5, 0u64..1000), 0..8).prop_map(|adv| {
        ChMsg::Beacon {
            from: LogicalAddress {
                hid: Hid::new(0, 1),
                hnid: Hnid(3),
            },
            sent_at: SimTime::from_millis(17),
            advertised: adv
                .into_iter()
                .map(|(dst, hops, delay)| AdvertisedRoute {
                    dst: Hnid(dst),
                    hops,
                    qos: QosMetrics {
                        delay: SimDuration::from_micros(delay),
                        bandwidth_bps: 2e6,
                    },
                })
                .collect(),
        }
    });
    let mesh =
        proptest::collection::vec((0u16..4, 0u16..4, 0u16..4, 0u16..4), 0..6).prop_map(|edges| {
            ChMsg::MeshData {
                data_id: 9,
                group: GroupId(2),
                size: 512,
                this: Hid::new(1, 1),
                edges: edges
                    .into_iter()
                    .map(|(a, b, c, d)| (Hid::new(a, b), Hid::new(c, d)))
                    .collect(),
                hops: 2,
            }
        });
    let hc =
        proptest::collection::vec((0u32..16, 0u32..16), 0..8).prop_map(|edges| ChMsg::HcData {
            data_id: 10,
            group: GroupId(1),
            size: 256,
            hid: Hid::new(0, 0),
            edges: edges.into_iter().map(|(a, b)| (Hnid(a), Hnid(b))).collect(),
            leg_dst: Hnid(7),
            hops: 1,
        });
    prop_oneof![beacon, mesh, hc]
}

fn arb_msg() -> impl Strategy<Value = HvdbMsg> {
    let simple = prop_oneof![
        (0u16..8, 0u16..8, 0u64..9).prop_map(|(r, c, term)| HvdbMsg::ChAnnounce {
            vc: VcId::new(r, c),
            term,
        }),
        (0u64..1000, 0u32..8, 1usize..4096).prop_map(|(id, g, size)| HvdbMsg::DataToCh {
            data_id: id,
            group: GroupId(g),
            size,
        }),
        (0u64..1000, 0u32..8, 1usize..4096).prop_map(|(id, g, size)| HvdbMsg::LocalDeliver {
            data_id: id,
            group: GroupId(g),
            size,
            hops: 0,
        }),
        (arb_lm(), 0u64..50).prop_map(|(lm, gen)| HvdbMsg::JoinReport { gen, lm }),
    ];
    let local = arb_ch_msg().prop_map(HvdbMsg::Local);
    let geo = (
        arb_ch_msg(),
        0u32..32,
        proptest::collection::vec(0u32..64, 0..8),
    )
        .prop_map(|(inner, ttl, visited)| {
            HvdbMsg::Geo(GeoPacket {
                target: GeoTarget::AnyChInRegion(Hid::new(1, 0)),
                ttl,
                hops: 0,
                visited: visited.into_iter().map(NodeId).collect(),
                inner,
            })
        });
    prop_oneof![simple, local, geo]
}

proptest! {
    /// Sealing interns exactly what the old per-send encoder computed:
    /// wire size and class round-trip bit-identically, for the frame and
    /// for every shared clone of it.
    #[test]
    fn sealed_frames_round_trip_wire_sizes(msg in arb_msg()) {
        let wire = msg.wire_size();
        let class = msg.class();
        let frame = FrameBytes::seal(msg);
        prop_assert_eq!(frame.wire_size(), wire);
        prop_assert_eq!(frame.class(), class);
        // Shared clone: same interned header, same payload encoding.
        let shared = frame.clone();
        prop_assert_eq!(shared.wire_size(), wire);
        prop_assert_eq!(shared.msg().wire_size(), wire);
        prop_assert_eq!(shared.class(), class);
        drop(shared);
        // Taking the payload back out re-encodes identically.
        let back = frame.into_msg();
        prop_assert_eq!(back.wire_size(), wire);
        prop_assert_eq!(back.class(), class);
    }
}
