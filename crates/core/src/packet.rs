//! Over-the-air messages of the HVDB protocol, with wire-size accounting.
//!
//! Every message models a compact binary encoding; `wire_size` drives the
//! control-overhead experiments (F4/F5/C4). Messages that must travel
//! between cluster heads ride inside a [`GeoPacket`] envelope and are
//! relayed hop-by-hop by the location-based unicast substrate
//! (`hvdb_sim::georoute`), exactly as §4.3 prescribes ("we assume to use
//! some location-based unicast routing algorithm").

use crate::routes::{AdvertisedRoute, ADVERTISED_ROUTE_BYTES};
use crate::summary::{wire, GroupId, HtSummary, LocalMembership, MntSummary};

use hvdb_cluster::election::residence_bucket;
use hvdb_geo::{Hid, Hnid, LogicalAddress, Point, VcGrid, VcId, Vec2};
use hvdb_sim::{NodeId, SimTime};

/// A candidate's election score as carried in candidacy broadcasts.
/// Ordering matches [`hvdb_cluster::elect`]: longer (bucketed) predicted
/// residence wins; ties go to the candidate nearest the VCC; final ties to
/// the lowest node id. `crates/core/tests/proptests.rs` checks that both
/// pick the same winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandScore {
    /// Bucketed predicted residence time (higher is better).
    pub residence_bucket: u64,
    /// Distance to the VCC in micrometres (lower is better).
    pub dist_um: u64,
    /// The candidate (lowest wins final ties).
    pub node: u32,
}

impl CandScore {
    /// `node`'s score for heading `vc` from `pos` moving at `vel`, or
    /// `None` outside the VC's circle. Residence is ranked by the static
    /// election's own [`hvdb_cluster::election::residence_bucket`].
    pub fn new(grid: &VcGrid, vc: VcId, node: u32, pos: Point, vel: Vec2) -> Option<CandScore> {
        Some(CandScore {
            residence_bucket: residence_bucket(grid, vc, pos, vel)?,
            dist_um: (grid.vcc(vc).distance(pos) * 1e6) as u64,
            node,
        })
    }

    /// Whether this score beats `other` under the §1 criteria.
    pub fn beats(&self, other: &CandScore) -> bool {
        (
            std::cmp::Reverse(self.residence_bucket),
            self.dist_um,
            self.node,
        ) < (
            std::cmp::Reverse(other.residence_bucket),
            other.dist_um,
            other.node,
        )
    }
}

/// Messages consumed by cluster heads, carried inside [`GeoPacket`]s.
#[derive(Debug, Clone)]
pub enum ChMsg {
    /// Proactive route-maintenance beacon (Fig. 4 step 1).
    Beacon {
        /// Sender's logical address.
        from: LogicalAddress,
        /// When the beacon left the sender (the receiver measures logical
        /// link delay as `now - sent_at`).
        sent_at: SimTime,
        /// The sender's advertised routes (≤ k−1 hops).
        advertised: Vec<AdvertisedRoute>,
    },
    /// MNT-Summary dissemination within one hypercube (Fig. 5 step 3),
    /// flooded CH-to-CH over logical links. Soft state: the stamp
    /// `(holder, gen)` orders updates per origin label — receivers
    /// suppress anything not strictly newer (which also dedups the
    /// flood), and periodic refreshes re-flood with a fresh generation.
    MntShare {
        /// Originating CH's label.
        origin: Hnid,
        /// The hypercube being flooded.
        hid: Hid,
        /// The node currently holding the origin label (disambiguates
        /// generation clocks across re-elections).
        holder: u32,
        /// Origin-local generation stamp (stale suppression + dedup).
        gen: u64,
        /// Whether this flood was originated by the soft-state refresh
        /// timer (periodic re-advertisement) rather than the content
        /// cycle. Rides a header bit (no wire-size cost); relays
        /// preserve it so the whole refresh flood — fan-out included —
        /// is accounted to the `mnt-refresh` stats class.
        refresh: bool,
        /// The summary.
        mnt: MntSummary,
    },
    /// Network-wide HT-Summary broadcast by the designated CH (Fig. 5
    /// step 4), flooded CH-to-CH over all logical links. Generation-
    /// stamped soft state like [`ChMsg::MntShare`], keyed by hypercube.
    HtBroadcast {
        /// Originating hypercube.
        origin: Hid,
        /// The designated CH that emitted this broadcast.
        holder: u32,
        /// Origin-local generation stamp (stale suppression + dedup).
        gen: u64,
        /// Refresh-timer origination flag (see [`ChMsg::MntShare`]):
        /// keeps the `ht-refresh` stats class honest across relays.
        refresh: bool,
        /// The summary.
        ht: HtSummary,
    },
    /// A multicast data packet travelling the mesh-tier tree (Fig. 6
    /// steps 3–4), entering hypercube `this`.
    MeshData {
        /// Data packet id.
        data_id: u64,
        /// Destination group.
        group: GroupId,
        /// Payload bytes.
        size: usize,
        /// The hypercube this branch is entering.
        this: Hid,
        /// The remaining subtree (BFS edge list rooted at `this`).
        edges: Vec<(Hid, Hid)>,
        /// Physical transmissions the packet took *before* this leg
        /// (hop-count accounting for the per-flow histograms; rides the
        /// fixed header allowance, no wire-size cost).
        hops: u32,
    },
    /// A multicast data packet travelling a hypercube-tier tree (Fig. 6
    /// step 5), currently on the logical leg toward `leg_dst`.
    HcData {
        /// Data packet id.
        data_id: u64,
        /// Destination group.
        group: GroupId,
        /// Payload bytes.
        size: usize,
        /// Hypercube the tree lives in.
        hid: Hid,
        /// The tree (BFS edge list rooted at the entry CH).
        edges: Vec<(Hnid, Hnid)>,
        /// The tree node this packet is currently routed toward.
        leg_dst: Hnid,
        /// Physical transmissions taken before this leg (see
        /// [`ChMsg::MeshData`]).
        hops: u32,
    },
}

impl ChMsg {
    /// Stats class label.
    pub fn class(&self) -> &'static str {
        match self {
            ChMsg::Beacon { .. } => "beacon",
            ChMsg::MntShare { refresh: false, .. } => "mnt-share",
            ChMsg::MntShare { refresh: true, .. } => "mnt-refresh",
            ChMsg::HtBroadcast { refresh: false, .. } => "ht-bcast",
            ChMsg::HtBroadcast { refresh: true, .. } => "ht-refresh",
            ChMsg::MeshData { .. } => "mesh-data",
            ChMsg::HcData { .. } => "hc-data",
        }
    }

    /// Modelled encoded size (bytes).
    pub fn wire_size(&self) -> usize {
        match self {
            ChMsg::Beacon { advertised, .. } => {
                wire::HEADER + 8 + advertised.len() * ADVERTISED_ROUTE_BYTES
            }
            // 12 bytes of flood addressing plus the 12-byte (holder, gen)
            // soft-state stamp.
            ChMsg::MntShare { mnt, .. } => 24 + mnt.wire_size(),
            ChMsg::HtBroadcast { ht, .. } => 24 + ht.wire_size(),
            ChMsg::MeshData { size, edges, .. } => wire::HEADER + edges.len() * 8 + size,
            ChMsg::HcData { size, edges, .. } => wire::HEADER + edges.len() * 4 + size,
        }
    }
}

/// Where a [`GeoPacket`] is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeoTarget {
    /// The cluster head of a specific VC (logical-link legs).
    ChOfVc(VcId),
    /// Any cluster head of a region (hypercube entry, Fig. 6 step 4).
    AnyChInRegion(Hid),
}

/// A geographically relayed envelope. Every node participates in relaying;
/// the node that *satisfies the target* consumes the inner message.
#[derive(Debug, Clone)]
pub struct GeoPacket {
    /// Destination condition.
    pub target: GeoTarget,
    /// Remaining physical hops.
    pub ttl: u32,
    /// Physical transmissions taken so far on this leg (incremented per
    /// relay; the bounded `visited` list cannot serve as a hop counter).
    /// Rides the fixed [`GEO_HEADER_BYTES`] allowance.
    pub hops: u32,
    /// Recently visited relays (greedy-recovery memory).
    pub visited: Vec<NodeId>,
    /// The CH-level payload.
    pub inner: ChMsg,
}

/// Envelope overhead on the wire (bytes).
pub const GEO_HEADER_BYTES: usize = 16;

impl GeoPacket {
    /// Total modelled size: envelope plus inner message.
    pub fn wire_size(&self) -> usize {
        GEO_HEADER_BYTES + self.inner.wire_size()
    }
}

/// All HVDB over-the-air messages.
#[derive(Debug, Clone)]
pub enum HvdbMsg {
    /// CH candidacy broadcast (clustering round, technique of \[23\]).
    Candidacy {
        /// The VC the sender is campaigning for.
        vc: VcId,
        /// The sender's election score.
        score: CandScore,
    },
    /// The elected CH announces itself to its cluster — stamped with its
    /// designation term so members can suppress stale announcements from
    /// superseded heads (and re-announced on the soft-state refresh timer
    /// so one lost frame does not orphan the cluster for a whole round).
    ChAnnounce {
        /// The VC the sender now heads.
        vc: VcId,
        /// Monotone designation term for this VC (election epochs).
        term: u64,
    },
    /// A head that drifted out of its VC retires its headship explicitly:
    /// members vacate their lease at once (instead of waiting out the
    /// K-miss expiry) while keeping the term fence, so the retiree's
    /// stale announcements cannot win again and the next round elects a
    /// successor immediately.
    ChRetire {
        /// The VC whose headship is vacated.
        vc: VcId,
    },
    /// A member's periodic Local-Membership report to its CH (Fig. 5
    /// step 2), generation-stamped so reordered reports cannot roll a
    /// CH's view backwards.
    JoinReport {
        /// Member-local report generation.
        gen: u64,
        /// The member's memberships.
        lm: LocalMembership,
    },
    /// A member hands a multicast payload to its CH (Fig. 6 step 1).
    DataToCh {
        /// Data packet id.
        data_id: u64,
        /// Destination group.
        group: GroupId,
        /// Payload bytes.
        size: usize,
    },
    /// A CH delivers a data packet to its cluster (Fig. 6 step 6) by local
    /// broadcast.
    LocalDeliver {
        /// Data packet id.
        data_id: u64,
        /// Destination group.
        group: GroupId,
        /// Payload bytes.
        size: usize,
        /// Physical transmissions up to (and including) the delivering
        /// CH's reception; receivers record `hops + 1` for the final
        /// broadcast hop. Rides the header allowance (no wire cost).
        hops: u32,
    },
    /// CH handover: the resigning head ships its hypercube-tier views to
    /// the newly elected head of the same VC (\[23\]-style state handover),
    /// along with its generation clocks so the successor's advertisements
    /// immediately outrank the state the network still stores for the
    /// label.
    Handover {
        /// The VC whose headship changes.
        vc: VcId,
        /// The outgoing head's MNT-flood generation clock.
        mnt_gen: u64,
        /// The outgoing head's HT-broadcast generation clock.
        ht_gen: u64,
        /// The cluster's member reports `(member, report gen, lm)`, so
        /// the successor's MNT-Summary is complete immediately instead
        /// of waiting a report cycle (during which the cluster would
        /// vanish from every multicast tree).
        locals: Vec<(u32, u64, LocalMembership)>,
        /// The outgoing head's HT-Summaries (MT view is derivable).
        hts: Vec<HtSummary>,
    },
    /// A geographically relayed CH-to-CH envelope.
    Geo(GeoPacket),
    /// A CH-to-CH message sent as a single local broadcast: all logical
    /// neighbour CHs of the sender are normally within radio range (VC
    /// spacing is well below the range), so beacons and summary floods use
    /// one transmission instead of per-neighbour unicasts. Non-CH nodes
    /// ignore these.
    Local(ChMsg),
}

impl HvdbMsg {
    /// Stats class label (envelopes take their inner class so relays are
    /// charged to the function that caused them).
    pub fn class(&self) -> &'static str {
        match self {
            HvdbMsg::Candidacy { .. } => "candidacy",
            HvdbMsg::ChAnnounce { .. } => "ch-announce",
            HvdbMsg::ChRetire { .. } => "ch-retire",
            HvdbMsg::JoinReport { .. } => "join-report",
            HvdbMsg::DataToCh { .. } => "data-to-ch",
            HvdbMsg::LocalDeliver { .. } => "local-deliver",
            HvdbMsg::Handover { .. } => "handover",
            HvdbMsg::Geo(p) => p.inner.class(),
            HvdbMsg::Local(m) => m.class(),
        }
    }

    /// Modelled encoded size (bytes).
    pub fn wire_size(&self) -> usize {
        match self {
            HvdbMsg::Candidacy { .. } => wire::HEADER + 16,
            HvdbMsg::ChAnnounce { .. } => wire::HEADER + 12,
            HvdbMsg::ChRetire { .. } => wire::HEADER + 4,
            HvdbMsg::JoinReport { lm, .. } => 8 + lm.wire_size(),
            HvdbMsg::DataToCh { size, .. } => wire::HEADER + size,
            HvdbMsg::LocalDeliver { size, .. } => wire::HEADER + size,
            HvdbMsg::Handover { locals, hts, .. } => {
                wire::HEADER
                    + 16
                    + locals
                        .iter()
                        .map(|(_, _, lm)| 12 + lm.wire_size())
                        .sum::<usize>()
                    + hts.iter().map(|h| h.wire_size()).sum::<usize>()
            }
            HvdbMsg::Geo(p) => p.wire_size(),
            HvdbMsg::Local(m) => m.wire_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cand_score_ordering_matches_election_criteria() {
        let base = CandScore {
            residence_bucket: 5,
            dist_um: 1_000,
            node: 3,
        };
        // Higher residence beats.
        let longer = CandScore {
            residence_bucket: 6,
            dist_um: 9_999,
            node: 9,
        };
        assert!(longer.beats(&base));
        assert!(!base.beats(&longer));
        // Same residence: nearer beats.
        let nearer = CandScore {
            residence_bucket: 5,
            dist_um: 500,
            node: 9,
        };
        assert!(nearer.beats(&base));
        // Full tie: lower id beats.
        let lower_id = CandScore {
            residence_bucket: 5,
            dist_um: 1_000,
            node: 1,
        };
        assert!(lower_id.beats(&base));
        assert!(!base.beats(&base));
    }

    #[test]
    fn wire_sizes_monotone_in_payload() {
        let small = HvdbMsg::DataToCh {
            data_id: 1,
            group: GroupId(1),
            size: 100,
        };
        let big = HvdbMsg::DataToCh {
            data_id: 1,
            group: GroupId(1),
            size: 1_000,
        };
        assert!(big.wire_size() > small.wire_size());
        assert_eq!(big.wire_size() - small.wire_size(), 900);
    }

    #[test]
    fn beacon_size_scales_with_advertisement() {
        use crate::routes::QosMetrics;
        let mk = |n: usize| {
            let adv = vec![
                AdvertisedRoute {
                    dst: Hnid(1),
                    hops: 1,
                    qos: QosMetrics::IDENTITY,
                };
                n
            ];
            ChMsg::Beacon {
                from: LogicalAddress {
                    hid: Hid::new(0, 0),
                    hnid: Hnid(0),
                },
                sent_at: SimTime::ZERO,
                advertised: adv,
            }
            .wire_size()
        };
        assert_eq!(mk(4) - mk(0), 4 * ADVERTISED_ROUTE_BYTES);
    }

    #[test]
    fn geo_envelope_adds_fixed_overhead() {
        let inner = ChMsg::MeshData {
            data_id: 1,
            group: GroupId(2),
            size: 512,
            this: Hid::new(0, 0),
            edges: vec![],
            hops: 3,
        };
        let inner_size = inner.wire_size();
        let pkt = GeoPacket {
            target: GeoTarget::AnyChInRegion(Hid::new(0, 0)),
            ttl: 32,
            hops: 0,
            visited: vec![],
            inner,
        };
        assert_eq!(pkt.wire_size(), GEO_HEADER_BYTES + inner_size);
        let msg = HvdbMsg::Geo(pkt);
        assert_eq!(msg.class(), "mesh-data");
    }

    #[test]
    fn classes_are_stable_labels() {
        assert_eq!(
            HvdbMsg::Candidacy {
                vc: VcId::new(0, 0),
                score: CandScore {
                    residence_bucket: 0,
                    dist_um: 0,
                    node: 0
                }
            }
            .class(),
            "candidacy"
        );
        assert_eq!(
            HvdbMsg::LocalDeliver {
                data_id: 0,
                group: GroupId(0),
                size: 0,
                hops: 0
            }
            .class(),
            "local-deliver"
        );
    }
}
