//! The HVDB model: configuration and (snapshot) backbone construction.
//!
//! [`HvdbConfig`] collects the system parameters of §4.1 ("central
//! coordinate, length and width of the whole network, diameter of VCs, and
//! dimension of logical hypercubes") plus the protocol knobs a scenario
//! varies. The protocol's fixed periods and soft-state refresh policy are
//! the constants beside it ([`CLUSTER_INTERVAL`] … [`LOCAL_REPORT_DEADLINE`]).
//!
//! [`build_model`] constructs the three-tier structure of §3 from a network
//! snapshot: clustering (MNT), one incomplete hypercube per region (HT,
//! with the Fig. 3 grid-adjacency extra links), and the set of occupied
//! mesh nodes (MT). The distributed protocol (`protocol` module) converges
//! to this same structure; the experiments use the snapshot form for audit
//! and for the model-construction figures (F1–F3).

use crate::softstate::miss_deadline;
use crate::summary::GroupId;
use hvdb_cluster::{form_clusters, Candidate, Clustering};
use hvdb_geo::{Aabb, ChKind, Hid, Hnid, RegionMap, VcGrid, VcId};
use hvdb_hypercube::IncompleteHypercube;
use hvdb_sim::{NodeId, SimDuration, SimTime};
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};

/// Clustering round period (candidacy → decision → reports).
pub const CLUSTER_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// Beacon period of the proactive route maintenance (Fig. 4).
pub const BEACON_INTERVAL: SimDuration = SimDuration::from_secs(2);
/// Period of member Local-Membership reports (Fig. 5 step 2).
pub const LOCAL_REPORT_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// Period of MNT-Summary dissemination within the hypercube (step 3).
pub const MNT_INTERVAL: SimDuration = SimDuration::from_secs(8);
/// Period of HT-Summary network-wide broadcasts (step 4); the paper
/// argues this "can be set much more larger" than the lower tiers'.
pub const HT_INTERVAL: SimDuration = SimDuration::from_secs(20);
/// Soft-state refresh period: heads re-advertise their designation,
/// MNT-Summary and (when designated) HT-Summary this often with a
/// fresh generation stamp, decoupled from the slow [`MNT_INTERVAL`] /
/// [`HT_INTERVAL`] content cycles, so a lost control broadcast is
/// repaired within a couple of seconds instead of a 20 s cycle.
pub const REFRESH_INTERVAL: SimDuration = SimDuration::from_secs(2);
/// Upper bound of the uniform random extra delay added to every
/// refresh-timer arm (desynchronises refresh floods across heads).
pub const REFRESH_JITTER: SimDuration = SimDuration::from_millis(1000);
/// K-miss expiry budget: soft state (logical neighbours, member
/// reports, MNT/HT summaries) is discarded only after this many
/// consecutive missed refreshes, never on a single silent period.
pub const REFRESH_MISS_LIMIT: u32 = 3;
/// Multiplicative backoff factor of the adaptive controller: each
/// refresh fired after a fully quiet interval widens the next
/// interval by this factor.
pub const REFRESH_BACKOFF_FACTOR: u32 = 2;
/// Backoff clamp for MNT/HT summary re-floods, in fast refresh
/// ticks. These are the expensive frames (cube- and network-wide
/// flood fan-out), so they earn the deepest quiet-phase backoff; the
/// summary K-miss deadline scales with this cap.
pub const REFRESH_MAX_BACKOFF_SUMMARY: u32 = 4;
/// Beacon-silence deadline after which a logical neighbour CH is
/// declared failed: [`REFRESH_MISS_LIMIT`] missed beacons plus slack
/// (K-miss expiry, not a single TTL).
pub const NEIGHBOR_DEADLINE: SimDuration = miss_deadline(BEACON_INTERVAL, REFRESH_MISS_LIMIT);
/// Announcement-silence deadline for the members' head lease: K misses
/// of one refresh period plus its jitter. Designation refreshes fire on
/// every tick — `ChAnnounce` is one tiny local broadcast per head, so
/// backing it off would save almost nothing while this deadline *is* the
/// members' failure detector. It stays much tighter than
/// [`HvdbConfig::summary_deadline`].
pub const DESIGNATION_DEADLINE: SimDuration = miss_deadline(
    SimDuration(REFRESH_INTERVAL.0 + REFRESH_JITTER.0),
    REFRESH_MISS_LIMIT,
);
/// Report-silence deadline for member Local-Membership reports
/// (refreshed every [`LOCAL_REPORT_INTERVAL`]).
pub const LOCAL_REPORT_DEADLINE: SimDuration =
    miss_deadline(LOCAL_REPORT_INTERVAL, REFRESH_MISS_LIMIT);

/// The HVDB geometry plus the protocol knobs a scenario sets to a second
/// value. The fixed timing is in the constants above.
#[derive(Debug, Clone)]
pub struct HvdbConfig {
    /// The VC grid (area partition, §3).
    pub grid: VcGrid,
    /// The VC → hypercube/mesh identifier mapping (§4.1).
    pub map: RegionMap,
    /// Local logical route horizon `k` (§4.1, "e.g., k = 4").
    pub k: u32,
    /// Whether the staleness-driven refresh controller
    /// ([`crate::softstate::refresh`]) backs off the summary refreshes.
    /// When `false`, every store re-advertises on every refresh tick (the
    /// fixed rate, kept as the comparison baseline for the `overhead`
    /// scenario).
    pub adaptive_refresh: bool,
    /// Number of times a CH broadcasts each `LocalDeliver` frame (members
    /// dedup by data id). Broadcasts have no MAC recovery, so under frame
    /// loss the final hop is the delivery bottleneck; 2 turns a 15% loss
    /// into ~2% at the cost of one extra local frame per delivery.
    pub deliver_repeats: u32,
    /// TTL (in physical hops) for geographically forwarded packets.
    pub geo_ttl: u32,
    /// Designated-broadcaster selection rule (§4.2's two criteria).
    pub designation: DesignationCriterion,
    /// Whether CHs cache computed multicast trees (§4.3: "The multicast
    /// tree is then cached for future use"); ablation A1 toggles this.
    pub cache_trees: bool,
}

/// The two designated-broadcaster criteria of §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DesignationCriterion {
    /// "choose the CH that contains the largest number of multicast groups"
    /// (tie-broken by member count, then label).
    MostGroups,
    /// "choose the CH such that the total number of multicast groups …
    /// contained by itself and all its 1-logical hop neighboring CHs, is
    /// the largest one" — the criterion the paper argues works well.
    NeighborhoodGroups,
}

impl HvdbConfig {
    /// A configuration over `area` with `rows x cols` VCs and hypercube
    /// dimension `dim`: horizon `k = 4`, adaptive refresh on, three
    /// `LocalDeliver` repeats, a 24-hop geo TTL, the neighbourhood
    /// designation criterion and tree caching on.
    pub fn new(area: Aabb, rows: u16, cols: u16, dim: u8) -> Self {
        let grid = VcGrid::with_dimensions(area, rows, cols);
        let map = RegionMap::for_grid(&grid, dim);
        HvdbConfig {
            grid,
            map,
            k: 4,
            adaptive_refresh: true,
            deliver_repeats: 3,
            geo_ttl: 24,
            designation: DesignationCriterion::NeighborhoodGroups,
            cache_trees: true,
        }
    }

    /// The paper's Fig. 2 example: 8×8 VCs, dimension 4 (four hypercubes
    /// in a 2×2 mesh) over the given area.
    pub fn fig2(area: Aabb) -> Self {
        Self::new(area, 8, 8, 4)
    }

    /// Hypercube dimension shorthand.
    pub fn dim(&self) -> u8 {
        self.map.dim()
    }

    /// Refresh-silence deadline for soft state re-advertised on the
    /// summary refresh rate (MNT entries of silent cube peers, HT entries
    /// of silent regions). Budgets for an origin at full adaptive
    /// backoff on top of the K-miss allowance — a quiet origin must never
    /// be expired for merely being quiet. Every fast tick is armed as
    /// [`REFRESH_INTERVAL`] plus its *own* jitter draw, so a store backed
    /// off to `cap` ticks can accumulate `cap` worst-case jitters between
    /// fires: the deadline budgets `cap * (interval + jitter)`.
    pub fn summary_deadline(&self) -> SimDuration {
        let cap = if self.adaptive_refresh {
            REFRESH_MAX_BACKOFF_SUMMARY
        } else {
            1
        };
        miss_deadline(
            (REFRESH_INTERVAL + REFRESH_JITTER).saturating_mul(cap as u64),
            REFRESH_MISS_LIMIT,
        )
    }
}

/// The constructed backbone at one instant.
#[derive(Debug, Clone)]
pub struct HvdbModel {
    /// The Mobile Node Tier: clusters and heads.
    pub clustering: Clustering,
    /// The Hypercube Tier: one incomplete hypercube per occupied region,
    /// including the grid-adjacency extra links among *present* nodes.
    pub cubes: FxHashMap<Hid, IncompleteHypercube>,
    /// The Mesh Tier: occupied mesh nodes, ascending.
    pub mesh_present: Vec<Hid>,
}

/// Summary statistics of a constructed backbone (experiment F1's rows).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackboneStats {
    /// Total mobile nodes in the snapshot.
    pub nodes: usize,
    /// Cluster heads elected (= present hypercube nodes).
    pub cluster_heads: usize,
    /// Border cluster heads.
    pub border_chs: usize,
    /// Inner cluster heads.
    pub inner_chs: usize,
    /// Occupied hypercubes (mesh nodes).
    pub hypercubes: usize,
    /// Mean hypercube occupancy: present nodes / 2^dim.
    pub mean_occupancy: f64,
    /// Fraction of occupied hypercubes that are internally connected.
    pub connected_fraction: f64,
}

/// Builds the three-tier HVDB structure from a snapshot of candidates.
pub fn build_model(cfg: &HvdbConfig, nodes: &[Candidate]) -> HvdbModel {
    let clustering = form_clusters(&cfg.grid, nodes);
    let mut cubes: FxHashMap<Hid, IncompleteHypercube> = FxHashMap::default();
    // Present nodes per region.
    for vc in clustering.head_of_vc.keys() {
        let addr = cfg.map.address_of(*vc);
        cubes
            .entry(addr.hid)
            .or_insert_with(|| IncompleteHypercube::empty(cfg.dim()))
            .add_node(addr.hnid.0);
    }
    // Grid-adjacency extra links between present nodes of the same region
    // (the Fig. 3 "additional logical links").
    for (hid, cube) in cubes.iter_mut() {
        for cell in cfg.map.region_cells(*hid) {
            if !clustering.head_of_vc.contains_key(&cell) {
                continue;
            }
            let a = cfg.map.address_of(cell).hnid;
            for n in cfg.map.intra_region_neighbors(cell) {
                if clustering.head_of_vc.contains_key(&n) {
                    let b = cfg.map.address_of(n).hnid;
                    cube.add_extra_link(a.0, b.0);
                }
            }
        }
    }
    let mut mesh_present: Vec<Hid> = cubes.keys().copied().collect();
    mesh_present.sort_unstable();
    HvdbModel {
        clustering,
        cubes,
        mesh_present,
    }
}

impl HvdbModel {
    /// The hypercube of region `hid`, if occupied.
    pub fn cube(&self, hid: Hid) -> Option<&IncompleteHypercube> {
        self.cubes.get(&hid)
    }

    /// Whether the CH at `vc` (if any) is a border or inner CH under `map`.
    pub fn ch_kind(&self, map: &RegionMap, vc: VcId) -> Option<ChKind> {
        self.clustering
            .head_of_vc
            .contains_key(&vc)
            .then(|| map.ch_kind(vc))
    }

    /// Computes the F1 statistics row.
    pub fn stats(&self, map: &RegionMap, total_nodes: usize) -> BackboneStats {
        let cluster_heads = self.clustering.head_of_vc.len();
        let border_chs = self
            .clustering
            .head_of_vc
            .keys()
            .filter(|vc| map.ch_kind(**vc) == ChKind::Border)
            .count();
        let occupancy: f64 = if self.cubes.is_empty() {
            0.0
        } else {
            self.cubes
                .values()
                .map(|c| c.node_count() as f64 / (1u64 << map.dim()) as f64)
                .sum::<f64>()
                / self.cubes.len() as f64
        };
        let connected = if self.cubes.is_empty() {
            1.0
        } else {
            self.cubes.values().filter(|c| c.is_connected()).count() as f64
                / self.cubes.len() as f64
        };
        BackboneStats {
            nodes: total_nodes,
            cluster_heads,
            border_chs,
            inner_chs: cluster_heads - border_chs,
            hypercubes: self.cubes.len(),
            mean_occupancy: occupancy,
            connected_fraction: connected,
        }
    }
}

/// A multicast traffic item for scenario scripting: at `at`, node `src`
/// multicasts `size` bytes to `group`.
///
/// Items produced by the traffic plane additionally carry their flow id
/// and per-flow sequence number, so the simulator's per-flow
/// latency/jitter/goodput accounting can attribute each packet; legacy
/// scripted traffic leaves `flow` at [`hvdb_traffic::FLOW_NONE`] (the
/// `Default`), which costs nothing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficItem {
    /// Send instant.
    pub at: SimTime,
    /// Source node.
    pub src: NodeId,
    /// Destination group.
    pub group: GroupId,
    /// Payload size in bytes.
    pub size: usize,
    /// Traffic-plane flow id ([`hvdb_traffic::FLOW_NONE`] = untracked).
    pub flow: u32,
    /// Per-flow sequence number (send order within the flow).
    pub seq: u32,
}

impl Default for TrafficItem {
    fn default() -> Self {
        TrafficItem {
            at: SimTime::ZERO,
            src: NodeId(0),
            group: GroupId(0),
            size: 0,
            flow: hvdb_traffic::FLOW_NONE,
            seq: 0,
        }
    }
}

/// A scripted membership change: at `at`, `node` joins or leaves `group`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupEvent {
    /// Event instant.
    pub at: SimTime,
    /// The node changing membership.
    pub node: NodeId,
    /// The group.
    pub group: GroupId,
    /// `true` = join, `false` = leave.
    pub join: bool,
}

/// Builds the incomplete hypercube of region `hid` from the set of labels
/// currently known to be occupied by CHs, wiring the Fig. 3 grid-adjacency
/// extra links between present nodes. This is the live view a CH maintains
/// from its collected MNT-Summaries.
pub fn build_region_cube(
    cfg: &HvdbConfig,
    hid: Hid,
    present: impl IntoIterator<Item = Hnid>,
) -> IncompleteHypercube {
    let mut cube = IncompleteHypercube::empty(cfg.dim());
    for label in present {
        cube.add_node(label.0);
    }
    for cell in cfg.map.region_cells(hid) {
        let a = cfg.map.address_of(cell).hnid;
        if !cube.contains(a.0) {
            continue;
        }
        for n in cfg.map.intra_region_neighbors(cell) {
            let b = cfg.map.address_of(n).hnid;
            if cube.contains(b.0) {
                cube.add_extra_link(a.0, b.0);
            }
        }
    }
    cube
}

/// The geometric centre of a region (used as the geographic target when a
/// packet must reach "any CH in" a hypercube).
pub fn region_center(cfg: &HvdbConfig, hid: Hid) -> hvdb_geo::Point {
    let cells = cfg.map.region_cells(hid);
    debug_assert!(!cells.is_empty(), "region {hid} outside grid");
    let first = cfg.grid.vcc(cells[0]);
    let last = cfg.grid.vcc(*cells.last().expect("non-empty"));
    first.midpoint(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvdb_geo::Point;
    use hvdb_geo::Vec2;

    fn fig2_cfg() -> HvdbConfig {
        HvdbConfig::fig2(Aabb::from_size(800.0, 800.0))
    }

    fn cand(node: u32, pos: Point) -> Candidate {
        Candidate {
            node,
            pos,
            vel: Vec2::ZERO,
            eligible: true,
        }
    }

    /// One candidate per VC centre: the fully occupied Fig. 2 structure.
    fn full_snapshot(cfg: &HvdbConfig) -> Vec<Candidate> {
        cfg.grid
            .iter_ids()
            .enumerate()
            .map(|(i, vc)| cand(i as u32, cfg.grid.vcc(vc)))
            .collect()
    }

    #[test]
    fn fig2_full_population_builds_four_complete_hypercubes() {
        let cfg = fig2_cfg();
        let model = build_model(&cfg, &full_snapshot(&cfg));
        assert_eq!(model.mesh_present.len(), 4);
        for hid in &model.mesh_present {
            let cube = model.cube(*hid).unwrap();
            assert_eq!(cube.node_count(), 16);
            assert!(cube.is_connected());
        }
        let stats = model.stats(&cfg.map, 64);
        assert_eq!(stats.cluster_heads, 64);
        assert_eq!(stats.hypercubes, 4);
        assert_eq!(stats.mean_occupancy, 1.0);
        assert_eq!(stats.connected_fraction, 1.0);
        // In an 8x8 grid of 4x4 regions, each region has 7 border cells
        // per interior seam side; total border CHs = 4 regions * 7 = 28.
        assert_eq!(stats.border_chs + stats.inner_chs, 64);
        assert_eq!(stats.border_chs, 28);
    }

    #[test]
    fn fig3_grid_links_present_in_built_cube() {
        let cfg = fig2_cfg();
        let model = build_model(&cfg, &full_snapshot(&cfg));
        let cube = model.cube(Hid::new(0, 0)).unwrap();
        // 0010 and 1000 are grid-adjacent (rows 1-2, col 0), Hamming 2:
        // must be connected by an extra link.
        assert!(cube.has_link(0b0010, 0b1000));
        // Node 1000's neighbour set matches the paper's worked example.
        assert_eq!(
            cube.neighbors(0b1000),
            vec![0b0000, 0b0010, 0b1001, 0b1010, 0b1100]
        );
    }

    #[test]
    fn sparse_population_builds_incomplete_cubes() {
        let cfg = fig2_cfg();
        // Occupy only 3 VCs of region (0,0).
        let nodes = vec![
            cand(0, cfg.grid.vcc(VcId::new(0, 0))),
            cand(1, cfg.grid.vcc(VcId::new(0, 1))),
            cand(2, cfg.grid.vcc(VcId::new(3, 3))),
        ];
        let model = build_model(&cfg, &nodes);
        assert_eq!(model.mesh_present, vec![Hid::new(0, 0)]);
        let cube = model.cube(Hid::new(0, 0)).unwrap();
        assert_eq!(cube.node_count(), 3);
        assert!(!cube.is_complete());
        let stats = model.stats(&cfg.map, 3);
        assert!(stats.mean_occupancy < 0.2);
    }

    #[test]
    fn empty_snapshot_builds_empty_model() {
        let cfg = fig2_cfg();
        let model = build_model(&cfg, &[]);
        assert!(model.mesh_present.is_empty());
        let stats = model.stats(&cfg.map, 0);
        assert_eq!(stats.cluster_heads, 0);
        assert_eq!(stats.connected_fraction, 1.0);
    }

    #[test]
    fn ch_kind_lookup() {
        let cfg = fig2_cfg();
        let model = build_model(&cfg, &full_snapshot(&cfg));
        assert_eq!(
            model.ch_kind(&cfg.map, VcId::new(0, 0)),
            Some(ChKind::Inner)
        );
        assert_eq!(
            model.ch_kind(&cfg.map, VcId::new(0, 3)),
            Some(ChKind::Border)
        );
        let sparse = build_model(&cfg, &[]);
        assert_eq!(sparse.ch_kind(&cfg.map, VcId::new(0, 0)), None);
    }

    #[test]
    fn config_intervals_are_tiered() {
        let cfg = fig2_cfg();
        // Paper: HT broadcast timeout "much more larger" than MNT/local.
        assert!(HT_INTERVAL > MNT_INTERVAL);
        assert!(MNT_INTERVAL > BEACON_INTERVAL);
        assert_eq!(cfg.dim(), 4);
        // Soft-state refresh must run well inside the content cycles it
        // repairs, and the K-miss deadlines must tolerate at least one
        // whole silent period.
        assert!(REFRESH_INTERVAL < MNT_INTERVAL);
        assert!(REFRESH_INTERVAL < HT_INTERVAL);
        assert!(NEIGHBOR_DEADLINE > BEACON_INTERVAL);
        assert!(cfg.summary_deadline() > REFRESH_INTERVAL);
        assert!(LOCAL_REPORT_DEADLINE > LOCAL_REPORT_INTERVAL);
        // Adaptive-refresh deadlines must budget for an origin at full
        // backoff: K misses of the *slowest* interval each store may
        // stretch to, never the floor rate.
        assert!(cfg.adaptive_refresh);
        let summary_cap =
            SimDuration(REFRESH_INTERVAL.0 * REFRESH_MAX_BACKOFF_SUMMARY as u64 + REFRESH_JITTER.0);
        assert!(cfg.summary_deadline() > SimDuration(summary_cap.0 * REFRESH_MISS_LIMIT as u64));
        // Designation refreshes fire on every tick: one period plus jitter.
        let dsg_cap = SimDuration(REFRESH_INTERVAL.0 + REFRESH_JITTER.0);
        assert!(DESIGNATION_DEADLINE > SimDuration(dsg_cap.0 * REFRESH_MISS_LIMIT as u64));
        // Failure detection (lease expiry) stays tighter than the summary
        // deadline: designation backs off less than the summary floods.
        assert!(DESIGNATION_DEADLINE < cfg.summary_deadline());
        // The fully backed-off summary refresh still outruns expiry, and
        // the slow HT content cycle still lands inside the deadline.
        assert!(cfg.summary_deadline() > HT_INTERVAL);
    }

    #[test]
    fn fixed_rate_config_restores_tight_deadlines() {
        let mut cfg = fig2_cfg();
        cfg.adaptive_refresh = false;
        // With the controller off, deadlines collapse to the PR 2 shape:
        // K misses of the floor rate plus jitter.
        let base = crate::softstate::miss_deadline(
            SimDuration(REFRESH_INTERVAL.0 + REFRESH_JITTER.0),
            REFRESH_MISS_LIMIT,
        );
        assert_eq!(cfg.summary_deadline(), base);
        assert_eq!(DESIGNATION_DEADLINE, base);
    }
}
