//! The distributed HVDB protocol (paper §4 end-to-end).
//!
//! One [`HvdbCore`] recipe drives every node of the simulated MANET
//! through the paper's three algorithms:
//!
//! 1. **Clustering rounds** (technique of \[23\], §3): every [`CLUSTER_INTERVAL`]
//!    each CH-capable node broadcasts its candidacy (predicted residence,
//!    distance to VCC); candidates deterministically conclude the per-VC
//!    winner, which announces itself; members report their Local-Membership
//!    to their CH.
//! 2. **Proactive local logical route maintenance** (Fig. 4): CHs beacon
//!    their route advertisements to 1-logical-hop neighbour CHs over the
//!    location-based unicast substrate; receivers measure logical-link
//!    delay and update their bounded distance-vector tables.
//! 3. **Summary-based membership update** (Fig. 5): MNT-Summaries flood
//!    within each hypercube; the self-designated CH broadcasts the
//!    HT-Summary network-wide (CH-level flood over logical links); every CH
//!    folds HT-Summaries into its MT-Summary.
//! 4. **Logical location-based multicast routing** (Fig. 6): sources hand
//!    packets to their CH; the CH computes (and caches) a mesh-tier tree
//!    from its MT-Summary; entry CHs compute (and cache) hypercube-tier
//!    trees from their HT view; member CHs deliver by local broadcast.
//!
//! ### Modelling notes
//! * Logical-link **delay** is measured from beacon timestamps (includes
//!   relaying and queueing); **bandwidth** is modelled as the configured
//!   radio bitrate (the simulator's per-node transmit queue already makes
//!   congestion visible as delay). Documented substitution — the paper
//!   names both metrics but defines neither's estimator.
//! * CH failure detection is beacon-timeout based
//!   ([`NEIGHBOR_DEADLINE`], K missed beacons).
//!
//! ### Soft-state control plane
//! Designation announcements, member reports and the MNT/HT summary
//! floods are generation-stamped soft state ([`crate::softstate`]):
//! every origin stamps its advertisements with a monotone generation, a
//! jittered refresh timer ([`REFRESH_INTERVAL`], decoupled from the slow
//! [`MNT_INTERVAL`]/[`HT_INTERVAL`] content cycles) re-floods
//! the latest state, receivers suppress anything not strictly newer
//! (which doubles as flood dedup, replacing the old unbounded seen-set),
//! and entries expire only after K missed refreshes. A lost control
//! broadcast is therefore repaired within ~one refresh period instead of
//! wedging the view until the next 8–20 s cycle.

use crate::frame::{FrameBytes, FrameCtx};
use crate::membership::MembershipDb;
use crate::model::{
    build_region_cube, region_center, GroupEvent, HvdbConfig, TrafficItem, BEACON_INTERVAL,
    CLUSTER_INTERVAL, DESIGNATION_DEADLINE, HT_INTERVAL, LOCAL_REPORT_DEADLINE,
    LOCAL_REPORT_INTERVAL, MNT_INTERVAL, NEIGHBOR_DEADLINE, REFRESH_INTERVAL, REFRESH_JITTER,
    REFRESH_MAX_BACKOFF_SUMMARY,
};
use crate::packet::{CandScore, ChMsg, GeoPacket, GeoTarget, HvdbMsg};
use crate::routes::{QosMetrics, RouteTable};
use crate::softstate::refresh::RefreshController;
use crate::softstate::GenClock;
use crate::summary::{GroupId, LocalMembership};
use crate::tree::MeshTree;
use hvdb_cluster::{HeadLease, LeaseUpdate};
use hvdb_geo::{Hid, Hnid, LogicalAddress, VcId};
use hvdb_hypercube::{multicast_tree, IncompleteHypercube, MulticastTree};
use hvdb_sim::georoute;
use hvdb_sim::{
    Capability, NodeId, ParCtx, ParProtocol, ParSimulator, SimDuration, SimTime, TraceKind, World,
};
use rustc_hash::{FxHashMap, FxHashSet};

// Timer tags. Periodic kinds occupy the low 3 bits; bits 3.. carry the
// node's *timer epoch* (bumped on recovery) so that a pre-failure timer
// chain that survived a short outage dies at its next firing instead of
// free-running alongside the chain `on_recover` re-arms — without the
// epoch, every fail/recover cycle shorter than a timer period would
// permanently double that node's control traffic.
const TAG_CANDIDACY: u64 = 1;
const TAG_DECIDE: u64 = 2;
const TAG_REPORT: u64 = 3;
const TAG_BEACON: u64 = 4;
const TAG_MNT: u64 = 5;
const TAG_HT: u64 = 6;
const TAG_REFRESH: u64 = 7;
const TAG_KIND_MASK: u64 = 0b111;

/// Protocol-level counters: events only HVDB can see (routing failures,
/// tree and cube cache use, head-level bookkeeping). Soft-state refresh,
/// suppression and expiry counts are the engine's: the handlers report
/// them through `ParCtx::record_*`, and they land in
/// [`hvdb_sim::Stats`] (`soft_refresh_msgs`, `soft_stale_suppressed`,
/// `soft_expired`, `soft_refresh_suppressed`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Geo packets dropped: TTL exhausted or no next hop.
    pub geo_stuck: u64,
    /// Data legs dropped for lack of a logical route.
    pub no_route: u64,
    /// Multicasts dropped because the source knew no CH.
    pub no_ch: u64,
    /// Mesh/hypercube trees computed.
    pub trees_built: u64,
    /// Tree computations avoided by the §4.3 cache.
    pub tree_cache_hits: u64,
    /// Logical neighbours declared failed by beacon timeout.
    pub neighbors_expired: u64,
    /// Destinations that failed over to an alternative route instantly.
    pub route_failovers: u64,
    /// HT-Summary network broadcasts originated (designation events).
    pub ht_broadcasts: u64,
    /// Multicasts started at a CH whose MT-Summary knew no region for the
    /// group (delivery limited to the local hypercube).
    pub mt_empty_at_send: u64,
    /// Mesh-tier branches launched toward other hypercubes.
    pub mesh_branches: u64,
    /// DataToCh packets bounced because the receiving node had resigned.
    pub data_bounced: u64,
    /// Geo packets carrying *data* (mesh/hypercube legs) dropped: TTL
    /// exhausted, no next hop, or no consumer at the target.
    pub geo_stuck_data: u64,
    /// Stale-stamp conflicts answered with a corrective unicast carrying
    /// the stored entry back to the outranked origin (succession repair:
    /// the new holder advances its clock past its predecessor's stamps
    /// within one refresh period instead of waiting out K-miss expiry).
    pub stamp_hints_sent: u64,
    /// Region-hypercube constructions actually performed (cache misses:
    /// the MNT label set changed since the last build).
    pub cube_rebuilds: u64,
    /// Region-hypercube constructions served from the per-head cache —
    /// in a quiet phase every suppressed refresh tick's designation
    /// check lands here instead of rebuilding the cube.
    pub cube_cache_hits: u64,
}

impl std::ops::AddAssign<&Counters> for Counters {
    fn add_assign(&mut self, o: &Counters) {
        self.geo_stuck += o.geo_stuck;
        self.no_route += o.no_route;
        self.no_ch += o.no_ch;
        self.trees_built += o.trees_built;
        self.tree_cache_hits += o.tree_cache_hits;
        self.neighbors_expired += o.neighbors_expired;
        self.route_failovers += o.route_failovers;
        self.ht_broadcasts += o.ht_broadcasts;
        self.mt_empty_at_send += o.mt_empty_at_send;
        self.mesh_branches += o.mesh_branches;
        self.data_bounced += o.data_bounced;
        self.geo_stuck_data += o.geo_stuck_data;
        self.stamp_hints_sent += o.stamp_hints_sent;
        self.cube_rebuilds += o.cube_rebuilds;
        self.cube_cache_hits += o.cube_cache_hits;
    }
}

/// A cluster head's protocol state.
struct HeadState {
    vc: VcId,
    addr: LogicalAddress,
    table: RouteTable,
    db: MembershipDb,
    /// Last time each intra-region logical neighbour CH was heard.
    neighbor_last: FxHashMap<Hnid, SimTime>,
    /// Generation clock stamping this head's MNT-Summary floods.
    mnt_gen: GenClock,
    /// Generation clock stamping this head's HT-Summary broadcasts.
    ht_gen: GenClock,
    /// Data ids already processed entering this region.
    seen_mesh_data: FxHashSet<u64>,
    /// Mesh-tier tree cache keyed by group, tagged with the MT version.
    mesh_cache: FxHashMap<GroupId, (u64, MeshTree)>,
    /// Hypercube-tier tree cache keyed by group, tagged with an MNT-state
    /// version.
    hc_cache: FxHashMap<GroupId, (u64, MulticastTree)>,
    /// Bumped whenever the stored MNT set changes (hc cache invalidation).
    mnt_version: u64,
    /// The region hypercube built from `db.mnt_of`'s label set, tagged
    /// with the store's key revision. Designation checks (every refresh
    /// tick, fired *or* suppressed) and hypercube-tree builds reuse it
    /// until a label appears or expires, instead of rebuilding the cube
    /// per check (ROADMAP residual from PR 4).
    cube_cache: Option<(u64, IncompleteHypercube)>,
    /// Adaptive refresh rate for MNT-Summary re-floods.
    refresh_mnt: RefreshController,
    /// Adaptive refresh rate for HT-Summary re-broadcasts (designated CH).
    refresh_ht: RefreshController,
}

impl HeadState {
    fn new(cfg: &HvdbConfig, vc: VcId) -> Self {
        let addr = cfg.map.address_of(vc);
        // A disabled controller clamps at 1 tick: every refresh fires,
        // reproducing the PR 2 fixed rate exactly.
        let cap = if cfg.adaptive_refresh {
            REFRESH_MAX_BACKOFF_SUMMARY
        } else {
            1
        };
        let ctrl = RefreshController::new(cap);
        HeadState {
            vc,
            addr,
            table: RouteTable::new(addr.hnid, cfg.k),
            db: MembershipDb::default(),
            neighbor_last: FxHashMap::default(),
            mnt_gen: GenClock::default(),
            ht_gen: GenClock::default(),
            seen_mesh_data: FxHashSet::default(),
            mesh_cache: FxHashMap::default(),
            hc_cache: FxHashMap::default(),
            mnt_version: 0,
            cube_cache: None,
            refresh_mnt: ctrl,
            refresh_ht: ctrl,
        }
    }
}

enum Role {
    Member,
    Head(Box<HeadState>),
}

/// Ensures `h.cube_cache` holds the region hypercube for the *current*
/// MNT label set, rebuilding only when the store's key revision moved
/// (labels appeared or expired — value refreshes never invalidate).
/// Counts hits and rebuilds. A free function over disjoint [`HvdbNode`]
/// fields so call sites can keep `h` borrowed from the node's `role`.
fn refresh_region_cube(cfg: &HvdbConfig, counters: &mut Counters, h: &mut HeadState) {
    let rev = h.db.mnt_of.key_revision();
    if h.cube_cache.as_ref().is_some_and(|(r, _)| *r == rev) {
        counters.cube_cache_hits += 1;
        return;
    }
    let cube = build_region_cube(
        cfg,
        h.addr.hid,
        h.db.mnt_of.keys().copied().collect::<Vec<_>>(),
    );
    h.cube_cache = Some((rev, cube));
    counters.cube_rebuilds += 1;
}

/// A predecessor's handed-over backbone state, buffered until this node's
/// own decide timer actually makes it the head.
struct PendingHandover {
    vc: VcId,
    mnt_gen: u64,
    ht_gen: u64,
    locals: Vec<(u32, u64, LocalMembership)>,
    hts: Vec<crate::summary::HtSummary>,
}

/// Per-node protocol state, owned by its node's shard (the
/// [`hvdb_sim::ParProtocol::Node`] type).
pub struct HvdbNode {
    lm: LocalMembership,
    my_vc: VcId,
    /// Generation-stamped view of my VC's current head (soft state:
    /// term-ordered announcements, K-miss expiry).
    ch: HeadLease,
    /// Generation clock stamping this node's Local-Membership reports.
    report_gen: GenClock,
    /// Best candidacy heard (incl. own) for my VC in the current round.
    best_cand: Option<CandScore>,
    /// Whether the *current lease head's* bid was heard this round. A
    /// challenger that "won" a round missing the live incumbent's bid
    /// (lost frame) defers instead of usurping — self-election without
    /// this guard is how frame loss creates duplicate heads.
    heard_head_bid: bool,
    /// A handover received before winning the round it belongs to.
    pending_handover: Option<Box<PendingHandover>>,
    /// Current periodic-timer epoch (see the timer-tag encoding above).
    timer_epoch: u64,
    role: Role,
    /// Data ids already delivered/seen locally.
    seen_data: FxHashSet<u64>,
    /// This node's slice of the protocol counters; reports sum them.
    counters: Counters,
}

impl HvdbNode {
    /// Whether this node currently serves as a cluster head.
    pub fn is_head(&self) -> bool {
        matches!(self.role, Role::Head(_))
    }

    /// This node's slice of the protocol counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Whether this node's Local-Membership holds `group`.
    pub fn is_member(&self, group: GroupId) -> bool {
        self.lm.contains(group)
    }

    /// This head's route table (`None` for a member).
    pub fn route_table(&self) -> Option<&RouteTable> {
        match &self.role {
            Role::Head(h) => Some(&h.table),
            Role::Member => None,
        }
    }

    /// This head's membership database (`None` for a member).
    pub fn membership_db(&self) -> Option<&MembershipDb> {
        match &self.role {
            Role::Head(h) => Some(&h.db),
            Role::Member => None,
        }
    }

    /// Deterministic estimate of this node's protocol-state bytes: the
    /// struct itself plus content-length-based container estimates
    /// (entries × entry size). Deliberately *not* allocator or capacity
    /// statistics — the value is a pure function of protocol state, so
    /// the `scale` scenario's `memory_per_node_bytes` column reproduces
    /// across machines and allocators and can be gated.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut b = size_of::<Self>();
        b += self.lm.groups.len() * size_of::<GroupId>();
        b += self.seen_data.len() * size_of::<u64>();
        if let Role::Head(h) = &self.role {
            b += size_of::<HeadState>();
            b += h.neighbor_last.len() * (size_of::<Hnid>() + size_of::<SimTime>());
            b += h.seen_mesh_data.len() * size_of::<u64>();
            b += h.table.memory_bytes();
            b += h.db.memory_bytes();
            b += h
                .mesh_cache
                .values()
                .map(|(_, t)| size_of::<(GroupId, u64, MeshTree)>() + t.memory_bytes())
                .sum::<usize>();
            b += h
                .hc_cache
                .values()
                .map(|(_, t)| size_of::<(GroupId, u64, MulticastTree)>() + t.memory_bytes())
                .sum::<usize>();
        }
        b
    }
}

/// Epoch-stamped tag for a periodic timer of `kind` on the node owning
/// `st`.
fn ptag(st: &HvdbNode, kind: u64) -> u64 {
    let epoch = st.timer_epoch;
    debug_assert!(kind <= TAG_KIND_MASK && (epoch << 3) < TAG_TRAFFIC_BASE);
    kind | (epoch << 3)
}

/// Whether the node owning `st` is a consumer for `target`.
fn satisfies_target(st: &HvdbNode, target: GeoTarget) -> bool {
    match (&st.role, target) {
        (Role::Head(h), GeoTarget::ChOfVc(vc)) => h.vc == vc,
        (Role::Head(h), GeoTarget::AnyChInRegion(hid)) => h.addr.hid == hid,
        (Role::Member, _) => false,
    }
}

/// Timer-tag base of scripted traffic: item `i` fires tag
/// `TAG_TRAFFIC_BASE + i`. Protocol timers stay below it.
pub const TAG_TRAFFIC_BASE: u64 = 1 << 32;
/// Timer-tag base of scripted group events: event `i` fires tag
/// `TAG_GROUP_BASE + i`.
pub const TAG_GROUP_BASE: u64 = 1 << 33;

/// The scenario script every protocol reads — HVDB and each baseline
/// alike, so comparative runs differ only in the protocol: the initial
/// membership, the traffic items and the group events, each grouped by
/// owning node, plus every traffic item's expected receiver count.
/// Built once and read-only afterwards, so shards never reach into
/// shared mutable state. Data ids are item index + 1.
pub struct Script {
    initial: Vec<(NodeId, GroupId)>,
    traffic: Vec<TrafficItem>,
    group_events: Vec<GroupEvent>,
    /// `initial`, `traffic` and `group_events` indices grouped by owning
    /// node, so a node's start-up reads its own items instead of the
    /// whole script.
    initial_by_node: ByNode,
    traffic_by_node: ByNode,
    events_by_node: ByNode,
    /// Expected receiver count per traffic item: see
    /// [`Script::expected`].
    expected: Vec<u64>,
}

impl Script {
    /// Builds the script: `initial` seeds group membership; `traffic`
    /// and `group_events` script the run.
    pub fn new(
        initial: &[(NodeId, GroupId)],
        traffic: Vec<TrafficItem>,
        group_events: Vec<GroupEvent>,
    ) -> Self {
        Script {
            initial_by_node: ByNode::new(initial.iter().map(|&(node, _)| node)),
            traffic_by_node: ByNode::new(traffic.iter().map(|t| t.src)),
            events_by_node: ByNode::new(group_events.iter().map(|g| g.node)),
            expected: expected_receivers(initial, &traffic, &group_events),
            initial: initial.to_vec(),
            traffic,
            group_events,
        }
    }

    /// The data id of traffic item `idx`: its index + 1, whatever order
    /// the items fire in.
    pub fn data_id(idx: usize) -> u64 {
        idx as u64 + 1
    }

    /// Scripted group event `idx`.
    pub fn group_event(&self, idx: usize) -> &GroupEvent {
        &self.group_events[idx]
    }

    /// Expected receivers of traffic item `idx`: its group's members
    /// after applying every group event with `at <= item.at` — for each
    /// (node, group), the applicable event latest in list order wins —
    /// minus the source itself.
    pub fn expected(&self, idx: usize) -> u64 {
        self.expected[idx]
    }

    /// The groups `node` belongs to at t = 0, in script order.
    pub fn initial_groups(&self, node: NodeId) -> impl Iterator<Item = GroupId> + '_ {
        self.initial_by_node
            .of(node)
            .iter()
            .map(|&i| self.initial[i as usize].1)
    }

    /// Arms the dispatched node's scripted timers: its traffic items,
    /// then its group events, each in script order.
    pub fn arm<M: Clone>(&self, node: NodeId, ctx: &mut ParCtx<'_, M>) {
        for &i in self.traffic_by_node.of(node) {
            let at = self.traffic[i as usize].at.since(SimTime::ZERO);
            ctx.set_timer(node, at, TAG_TRAFFIC_BASE + u64::from(i));
        }
        for &i in self.events_by_node.of(node) {
            let at = self.group_events[i as usize].at.since(SimTime::ZERO);
            ctx.set_timer(node, at, TAG_GROUP_BASE + u64::from(i));
        }
    }

    /// Registers traffic item `idx`'s origin (flow-tagged, with its
    /// expected receivers) at the dispatched node; returns the item and
    /// its data id.
    pub fn originate<M: Clone>(&self, idx: usize, ctx: &mut ParCtx<'_, M>) -> (TrafficItem, u64) {
        let item = self.traffic[idx];
        let data_id = Self::data_id(idx);
        ctx.record_origin_flow(data_id, self.expected[idx], item.flow, item.seq);
        (item, data_id)
    }
}

/// [`Script::expected`] for every item in one sweep over items and events
/// sorted by time: each item first applies the events at or before its
/// instant, keeping per (node, group) the latest one in list order, and
/// reads its group's member count from a running tally.
fn expected_receivers(
    initial: &[(NodeId, GroupId)],
    traffic: &[TrafficItem],
    group_events: &[GroupEvent],
) -> Vec<u64> {
    let initial: FxHashSet<(NodeId, GroupId)> = initial.iter().copied().collect();
    let mut members: FxHashMap<GroupId, u64> = FxHashMap::default();
    for &(_, group) in &initial {
        *members.entry(group).or_default() += 1;
    }
    // (node, group) -> (list index, join) of the winning applied event.
    let mut latest: FxHashMap<(NodeId, GroupId), (usize, bool)> = FxHashMap::default();
    let is_member = |latest: &FxHashMap<(NodeId, GroupId), (usize, bool)>, key| {
        latest
            .get(&key)
            .map_or(initial.contains(&key), |&(_, join)| join)
    };
    let mut events: Vec<usize> = (0..group_events.len()).collect();
    events.sort_by_key(|&j| group_events[j].at);
    let mut items: Vec<usize> = (0..traffic.len()).collect();
    items.sort_by_key(|&i| traffic[i].at);
    let mut events = events.into_iter().peekable();
    let mut expected = vec![0; traffic.len()];
    for i in items {
        let item = &traffic[i];
        while let Some(j) = events.next_if(|&j| group_events[j].at <= item.at) {
            let ev = &group_events[j];
            let key = (ev.node, ev.group);
            if latest.get(&key).is_some_and(|&(k, _)| k > j) {
                continue;
            }
            let was = is_member(&latest, key);
            latest.insert(key, (j, ev.join));
            let count = members.entry(ev.group).or_default();
            match (was, ev.join) {
                (false, true) => *count += 1,
                (true, false) => *count -= 1,
                _ => {}
            }
        }
        let count = members.get(&item.group).copied().unwrap_or(0);
        expected[i] = count - u64::from(is_member(&latest, (item.src, item.group)));
    }
    expected
}

/// The shared, read-only HVDB recipe: configuration plus the scenario
/// [`Script`]. Every handler takes `&self` and an explicit [`HvdbNode`],
/// so one instance drives every node: the struct is `Sync` and never
/// mutated after construction — exactly the contract the engine's
/// [`hvdb_sim::ParProtocol`] requires.
pub struct HvdbCore {
    cfg: HvdbConfig,
    script: Script,
}

/// Script item indices grouped by owning node: node `v`'s items, in
/// ascending script index, are `index[start[v]..start[v + 1]]`. Timer tags
/// carry the index and timer order sets tie-breaks, so each slice keeps
/// script order.
struct ByNode {
    start: Vec<u32>,
    index: Vec<u32>,
}

impl ByNode {
    /// Groups items by `owners` (item `i`'s owner is the `i`-th id) with
    /// one counting pass: count each owner's items, prefix-sum the counts
    /// into slice ends, then walk the script backwards, filling each
    /// node's slice from its end.
    fn new<I>(owners: I) -> Self
    where
        I: DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + Clone,
    {
        let total = u32::try_from(owners.len()).expect("script items past u32 indices");
        let slots = owners.clone().map(|v| v.idx() + 1).max().unwrap_or(0);
        let mut start = vec![0u32; slots + 1];
        for v in owners.clone() {
            start[v.idx()] += 1;
        }
        for v in 1..start.len() {
            start[v] += start[v - 1];
        }
        let mut index = vec![0u32; owners.len()];
        for (i, v) in (0..total).zip(owners).rev() {
            start[v.idx()] -= 1;
            index[start[v.idx()] as usize] = i;
        }
        ByNode { start, index }
    }

    /// `node`'s item indices, ascending (empty past the last owner).
    fn of(&self, node: NodeId) -> &[u32] {
        match self.start.get(node.idx()..node.idx() + 2) {
            Some(&[lo, hi]) => &self.index[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

/// The engine every HVDB run drives.
pub type HvdbSim = ParSimulator<HvdbNode, FrameBytes>;

/// The ids of `sim`'s current cluster heads, ascending (empty before the
/// first `run` call builds node state).
pub fn cluster_heads(sim: &HvdbSim) -> Vec<NodeId> {
    sim.nodes()
        .filter(|(_, n)| n.is_head())
        .map(|(id, _)| id)
        .collect()
}

/// Protocol counters summed over every node of `sim`.
pub fn total_counters(sim: &HvdbSim) -> Counters {
    let mut total = Counters::default();
    for (_, n) in sim.nodes() {
        total += n.counters();
    }
    total
}

impl HvdbCore {
    /// Builds the shared recipe over `cfg`: `initial_groups` seeds group
    /// membership; `traffic` and `group_events` script the scenario
    /// ([`Script::new`]).
    pub fn new(
        cfg: HvdbConfig,
        initial_groups: &[(NodeId, GroupId)],
        traffic: Vec<TrafficItem>,
        group_events: Vec<GroupEvent>,
    ) -> Self {
        HvdbCore {
            cfg,
            script: Script::new(initial_groups, traffic, group_events),
        }
    }

    /// Fresh per-node state for `id` starting at `pos`.
    fn new_node(&self, id: NodeId, pos: hvdb_geo::Point) -> HvdbNode {
        let mut lm = LocalMembership::default();
        for g in self.script.initial_groups(id) {
            lm.join(g);
        }
        HvdbNode {
            lm,
            my_vc: self.cfg.grid.vc_of(pos),
            ch: HeadLease::default(),
            report_gen: GenClock::default(),
            best_cand: None,
            heard_head_bid: false,
            pending_handover: None,
            timer_epoch: 0,
            role: Role::Member,
            seen_data: FxHashSet::default(),
            counters: Counters::default(),
        }
    }

    /// The head the owner of `st` currently trusts for its VC: the
    /// lease's holder, unless it has gone K refresh periods without a
    /// re-announcement.
    fn current_ch(&self, st: &HvdbNode, now: SimTime) -> Option<NodeId> {
        st.ch.head(now, DESIGNATION_DEADLINE).map(NodeId)
    }

    // ------------------------------------------------------------------
    // Geographic sending.

    fn target_point(&self, target: GeoTarget) -> hvdb_geo::Point {
        match target {
            GeoTarget::ChOfVc(vc) => self.cfg.grid.vcc(vc),
            GeoTarget::AnyChInRegion(hid) => region_center(&self.cfg, hid),
        }
    }

    fn count_geo_stuck(st: &mut HvdbNode, pkt: &GeoPacket) {
        st.counters.geo_stuck += 1;
        if matches!(pkt.inner, ChMsg::MeshData { .. } | ChMsg::HcData { .. }) {
            st.counters.geo_stuck_data += 1;
        }
    }

    /// Launches a geo packet from `from` toward its target.
    fn geo_send(
        &self,
        st: &mut HvdbNode,
        ctx: &mut ParCtx<'_, FrameBytes>,
        from: NodeId,
        pkt: GeoPacket,
    ) {
        let dest = self.target_point(pkt.target);
        match georoute::next_hop(ctx, from, dest, &pkt.visited) {
            Some(nh) => {
                let frame = FrameBytes::seal(HvdbMsg::Geo(pkt));
                ctx.send_frame_reliable(from, nh, frame);
            }
            None => Self::count_geo_stuck(st, &pkt),
        }
    }

    /// Wraps and sends a CH message toward a target.
    fn geo_dispatch(
        &self,
        st: &mut HvdbNode,
        ctx: &mut ParCtx<'_, FrameBytes>,
        from: NodeId,
        target: GeoTarget,
        inner: ChMsg,
    ) {
        let pkt = GeoPacket {
            target,
            ttl: self.cfg.geo_ttl,
            hops: 0,
            visited: Vec::new(),
            inner,
        };
        self.geo_send(st, ctx, from, pkt);
    }

    /// Logical-neighbour VCs whose heads a local broadcast from `node`
    /// probably cannot reach (VCC farther than ~85% of the radio range):
    /// these get a supplementary geo-unicast so long hypercube links
    /// (labels two grid cells apart) stay alive.
    fn far_neighbors(
        &self,
        ctx: &mut ParCtx<'_, FrameBytes>,
        node: NodeId,
        vcs: Vec<VcId>,
    ) -> Vec<VcId> {
        let pos = ctx.position(node);
        // A neighbour CH can sit up to a VC radius beyond its VCC; only
        // VCCs we can reach with that margin (plus 10% slack) are safely
        // served by the broadcast.
        let reach = ((ctx.radio_range() - self.cfg.grid.vc_radius()) * 0.9).max(0.0);
        vcs.into_iter()
            .filter(|vc| self.cfg.grid.vcc(*vc).distance(pos) > reach)
            .collect()
    }

    // ------------------------------------------------------------------
    // Clustering rounds.

    fn my_score(
        &self,
        st: &HvdbNode,
        ctx: &mut ParCtx<'_, FrameBytes>,
        node: NodeId,
    ) -> Option<CandScore> {
        if ctx.capability(node) != Capability::Enhanced {
            return None;
        }
        let pos = ctx.position(node);
        let vel = ctx.velocity(node);
        let vc = self.cfg.grid.vc_of(pos);
        let mut score = CandScore::new(&self.cfg.grid, vc, node.0, pos, vel)?;
        // Incumbency damping: the sitting head of this VC campaigns with
        // half its distance, so marginally-closer challengers do not churn
        // the backbone every round (the stability that [23]'s handover
        // machinery provides).
        if let Role::Head(h) = &st.role {
            if h.vc == vc {
                score.dist_um /= 2;
            }
        }
        Some(score)
    }

    fn on_candidacy_timer(
        &self,
        node: NodeId,
        st: &mut HvdbNode,
        ctx: &mut ParCtx<'_, FrameBytes>,
    ) {
        let pos = ctx.position(node);
        let vc = self.cfg.grid.vc_of(pos);
        if st.my_vc != vc {
            // Moved to a new VC: prior round's candidacies are void, and
            // the old VC's head lease (terms are per-VC) with them.
            st.my_vc = vc;
            st.best_cand = None;
            st.heard_head_bid = false;
            st.ch.clear();
        }
        // A head that drifted out of its VC resigns immediately — and
        // says so, so its old cluster vacates the lease and elects a
        // successor next round instead of deferring until expiry.
        let retired_vc = if let Role::Head(h) = &st.role {
            (h.vc != vc).then_some(h.vc)
        } else {
            None
        };
        if let Some(old_vc) = retired_vc {
            st.role = Role::Member;
            ctx.trace(TraceKind::HeadRetire {
                vc: (old_vc.row, old_vc.col),
            });
            let frame = FrameBytes::seal(HvdbMsg::ChRetire { vc: old_vc });
            ctx.broadcast_frame(node, frame);
        }
        if let Some(score) = self.my_score(st, ctx, node) {
            // Merge own candidacy with those already heard this round
            // (candidacy phases are jittered; never wipe others' bids).
            match &st.best_cand {
                Some(best) if !score.beats(best) => {}
                _ => st.best_cand = Some(score),
            }
            ctx.trace(TraceKind::ElectionStart {
                vc: (vc.row, vc.col),
            });
            let frame = FrameBytes::seal(HvdbMsg::Candidacy { vc, score });
            ctx.broadcast_frame(node, frame);
            // Decision fires 40% into the round.
            let tag = ptag(st, TAG_DECIDE);
            ctx.set_timer(node, SimDuration(CLUSTER_INTERVAL.0 * 2 / 5), tag);
        }
        let tag = ptag(st, TAG_CANDIDACY);
        ctx.set_timer(node, CLUSTER_INTERVAL, tag);
    }

    /// Folds a predecessor's handover into this (now) head's database:
    /// HT snapshot gaps, member reports, and the generation clocks that
    /// keep our floods ahead of the predecessor's surviving state.
    fn apply_handover(st: &mut HvdbNode, now: SimTime, ho: PendingHandover) {
        let Role::Head(h) = &mut st.role else {
            return;
        };
        if h.vc != ho.vc {
            return;
        }
        h.db.adopt_snapshot(ho.hts, now);
        h.mnt_gen.advance_to(ho.mnt_gen);
        h.ht_gen.advance_to(ho.ht_gen);
        let mut changed = false;
        for (n, gen, lm) in ho.locals {
            let (_, c) = h.db.store_local(n, &lm, gen, now);
            changed |= c;
        }
        if changed {
            h.mnt_version += 1;
        }
        // A succession just happened: members and cube peers must learn
        // the new holder's stamps quickly, whatever the quiet phase was.
        h.refresh_mnt.on_activity();
        h.refresh_ht.on_activity();
    }

    /// Steps down as head of `vc`, shipping the backbone state to `rival`
    /// so the surviving head does not start from an empty view.
    fn resign_to(
        &self,
        node: NodeId,
        st: &mut HvdbNode,
        ctx: &mut ParCtx<'_, FrameBytes>,
        vc: VcId,
        rival: NodeId,
    ) {
        let handover = if let Role::Head(h) = &st.role {
            (h.vc == vc).then(|| {
                let mut hts: Vec<crate::summary::HtSummary> =
                    h.db.ht_of.values().cloned().collect();
                hts.sort_by_key(|ht| ht.hid);
                let mut locals: Vec<(u32, u64, LocalMembership)> =
                    h.db.locals
                        .entries()
                        .filter(|(n, _)| **n != node.0)
                        .map(|(n, e)| (*n, e.gen, e.value.clone()))
                        .collect();
                locals.sort_unstable_by_key(|(n, _, _)| *n);
                (h.mnt_gen.current(), h.ht_gen.current(), locals, hts)
            })
        } else {
            None
        };
        if let Some((mnt_gen, ht_gen, locals, hts)) = handover {
            st.role = Role::Member;
            ctx.trace(TraceKind::StandDown {
                vc: (vc.row, vc.col),
                to: rival.0,
            });
            let frame = FrameBytes::seal(HvdbMsg::Handover {
                vc,
                mnt_gen,
                ht_gen,
                locals,
                hts,
            });
            ctx.send_frame_reliable(node, rival, frame);
        }
    }

    fn on_decide_timer(&self, node: NodeId, st: &mut HvdbNode, ctx: &mut ParCtx<'_, FrameBytes>) {
        let Some(best) = st.best_cand else {
            return;
        };
        let my_vc = st.my_vc;
        let i_won = best.node == node.0;
        let was_head = matches!(st.role, Role::Head(_));
        if i_won && !was_head && !st.heard_head_bid {
            if let Some(cur) = self.current_ch(st, ctx.now()) {
                if cur != node {
                    // The sitting head's lease is alive but its bid never
                    // arrived this round (lost frame). "Winning" such a
                    // round is how loss mints duplicate heads; defer and
                    // let the next round (or the lease's K-miss expiry,
                    // if the head really died) settle it.
                    st.best_cand = None;
                    st.heard_head_bid = false;
                    return;
                }
            }
        }
        if i_won {
            if !was_head {
                st.role = Role::Head(Box::new(HeadState::new(&self.cfg, my_vc)));
            } else if let Role::Head(h) = &st.role {
                if h.vc != my_vc {
                    st.role = Role::Head(Box::new(HeadState::new(&self.cfg, my_vc)));
                }
            }
            // A buffered handover for this VC applies now that the win
            // it belongs to has happened.
            if let Some(ho) = st.pending_handover.take() {
                if ho.vc == my_vc {
                    Self::apply_handover(st, ctx.now(), *ho);
                    ctx.trace(TraceKind::HandoverApplied {
                        vc: (my_vc.row, my_vc.col),
                    });
                }
            }
            // A fresh win mints the next designation term; re-wins of a
            // sitting head re-announce at the current term (a refresh,
            // not a succession — members must not see a term churn).
            let deadline = DESIGNATION_DEADLINE;
            let term = if st.ch.head_unchecked() == Some(node.0) {
                st.ch.term()
            } else {
                st.ch.next_term()
            };
            st.ch.observe(node.0, term, ctx.now(), deadline);
            ctx.trace(TraceKind::ElectionWin {
                vc: (my_vc.row, my_vc.col),
                term,
            });
            let frame = FrameBytes::seal(HvdbMsg::ChAnnounce { vc: my_vc, term });
            ctx.broadcast_frame(node, frame);
        } else if was_head {
            // Someone better exists in my VC: step down, handing the
            // backbone state to the winner so the new head does not start
            // from an empty membership view (\[23\]-style CH handover).
            self.resign_to(node, st, ctx, my_vc, NodeId(best.node));
        }
        // The round is decided; start collecting the next round's bids.
        st.best_cand = None;
        st.heard_head_bid = false;
    }

    fn on_report_timer(&self, node: NodeId, st: &mut HvdbNode, ctx: &mut ParCtx<'_, FrameBytes>) {
        let tag = ptag(st, TAG_REPORT);
        ctx.set_timer(node, LOCAL_REPORT_INTERVAL, tag);
        if st.lm.groups.is_empty() {
            return;
        }
        match &st.role {
            Role::Head(_) => { /* own lm folded in at MNT time */ }
            Role::Member => {
                if let Some(ch) = self.current_ch(st, ctx.now()) {
                    if ch != node {
                        let report = HvdbMsg::JoinReport {
                            gen: st.report_gen.tick(),
                            lm: st.lm.clone(),
                        };
                        let frame = FrameBytes::seal(report);
                        ctx.send_frame_reliable(node, ch, frame);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Route maintenance (Fig. 4).

    fn on_beacon_timer(&self, node: NodeId, st: &mut HvdbNode, ctx: &mut ParCtx<'_, FrameBytes>) {
        let tag = ptag(st, TAG_BEACON);
        ctx.set_timer(node, BEACON_INTERVAL, tag);
        let now = ctx.now();
        // K-miss expiry: a neighbour is declared failed only after
        // `REFRESH_MISS_LIMIT` consecutive silent beacon periods.
        let ttl = NEIGHBOR_DEADLINE;
        let Role::Head(h) = &mut st.role else {
            return;
        };
        // Expire silent neighbours -> immediate failover to alternatives.
        let expired: Vec<Hnid> = h
            .neighbor_last
            .iter()
            .filter(|(_, last)| now.since(**last) > ttl)
            .map(|(l, _)| *l)
            .collect();
        let mut expired_count = 0u64;
        let mut failover_count = 0u64;
        for label in expired {
            h.neighbor_last.remove(&label);
            let failovers = h.table.remove_via(label);
            failover_count += failovers.len() as u64;
            // Routing state only: the label's MNT-Summary lives until its
            // *own* K-miss refresh deadline (`expire_mnts`). A beacon gap
            // under frame loss must not punch membership holes into the
            // multicast trees — the cube-wide refresh flood is far more
            // redundant than one CH's beacon reception.
            expired_count += 1;
        }
        h.table.expire(now, ttl.saturating_mul(2));
        if expired_count > 0 {
            // Backbone churn (a logical neighbour vanished): keep the
            // summary refreshes at the floor rate while views resettle.
            h.refresh_mnt.on_activity();
            h.refresh_ht.on_activity();
        }
        // Beacon to every logical neighbour VC (intra- and inter-region).
        let advertised = h.table.advertisement();
        let from = h.addr;
        st.counters.neighbors_expired += expired_count;
        st.counters.route_failovers += failover_count;
        // One local broadcast reaches every logical neighbour CH (VC
        // spacing is well below radio range); receivers filter by logical
        // adjacency.
        let my_vc = h.vc;
        let inner = ChMsg::Beacon {
            from,
            sent_at: now,
            advertised,
        };
        let frame = FrameBytes::seal(HvdbMsg::Local(inner.clone()));
        ctx.broadcast_frame(node, frame);
        // Long logical links (two grid cells) may exceed broadcast reach.
        let far = self.far_neighbors(ctx, node, self.cfg.map.logical_neighbors(my_vc));
        for nvc in far {
            self.geo_dispatch(st, ctx, node, GeoTarget::ChOfVc(nvc), inner.clone());
        }
    }

    fn on_beacon(
        &self,
        _node: NodeId,
        st: &mut HvdbNode,
        ctx: &mut ParCtx<'_, FrameBytes>,
        from: LogicalAddress,
        sent_at: SimTime,
        advertised: &[crate::routes::AdvertisedRoute],
    ) {
        let now = ctx.now();
        let bitrate = 2_000_000.0; // modelled logical-link bandwidth (see module docs)
        let my_vc = match &st.role {
            Role::Head(h) => h.vc,
            Role::Member => return,
        };
        // Broadcast beacons overshoot; only 1-logical-hop neighbours count.
        let Some(sender_vc) = self.cfg.map.vc_of(from) else {
            return;
        };
        if !self.cfg.map.logical_neighbors(my_vc).contains(&sender_vc) {
            return;
        }
        let Role::Head(h) = &mut st.role else {
            return;
        };
        if from.hid == h.addr.hid {
            // Intra-region logical neighbour.
            h.neighbor_last.insert(from.hnid, now);
            let link = QosMetrics {
                delay: now.since(sent_at),
                bandwidth_bps: bitrate,
            };
            h.table.integrate_beacon(from.hnid, link, advertised, now);
        }
        // Inter-region beacons establish BCH liveness; mesh-tier routing is
        // geographic, so no mesh route table is needed.
    }

    // ------------------------------------------------------------------
    // Membership (Fig. 5) — generation-stamped soft state.

    fn on_mnt_timer(&self, node: NodeId, st: &mut HvdbNode, ctx: &mut ParCtx<'_, FrameBytes>) {
        let tag = ptag(st, TAG_MNT);
        ctx.set_timer(node, MNT_INTERVAL, tag);
        if !st.is_head() {
            return;
        }
        let own_lm = st.lm.clone();
        let own_gen = st.report_gen.tick();
        let now = ctx.now();
        let report_deadline = LOCAL_REPORT_DEADLINE;
        let Role::Head(h) = &mut st.role else {
            return;
        };
        // Members that left silently stop refreshing; prune them after K
        // missed report periods.
        let pruned = h.db.prune_locals(now, report_deadline);
        // Fold own memberships in as a cluster member of ourselves.
        let (_, own_changed) = h.db.store_local(node.0, &own_lm, own_gen, now);
        let mnt = h.db.my_mnt(h.vc);
        let origin = h.addr.hnid;
        let hid = h.addr.hid;
        let gen = h.mnt_gen.tick();
        let (_, mnt_changed) = h.db.store_mnt(origin, node.0, gen, now, &mnt);
        if pruned > 0 || own_changed || mnt_changed {
            h.mnt_version += 1;
            // Membership churn: receivers are behind until our next
            // flood, so the adaptive refresh must run at the floor rate
            // (and the region's HT content changed with it).
            h.refresh_mnt.on_activity();
            h.refresh_ht.on_activity();
        }
        // Also fold the fresh local HT view into our own MT immediately —
        // directly, without claiming the region's ht_of origin slot: that
        // slot belongs to the designated broadcaster, and a non-designee
        // stamping it with its own (holder, gen) would make the designee's
        // next refresh look stale here and kill its re-flood through us.
        let ht = h.db.my_ht(hid);
        h.db.mt.integrate(&ht);
        ctx.record_soft_expired(pruned as u64);
        let my_vc = h.vc;
        let inner = ChMsg::MntShare {
            origin,
            hid,
            holder: node.0,
            gen,
            refresh: false,
            mnt,
        };
        let frame = FrameBytes::seal(HvdbMsg::Local(inner.clone()));
        ctx.broadcast_frame(node, frame);
        self.mnt_far_supplement(st, ctx, node, my_vc, hid, inner);
    }

    /// Long intra-cube logical links may exceed one broadcast's reach, and
    /// broadcasts have no MAC recovery — exactly the combination that
    /// starves fringe CHs of flood waves until their entries hit K-miss
    /// expiry. Like beacons ([`Self::far_neighbors`]), the origin backs
    /// the flood with reliable geo-unicasts to the same-region logical
    /// neighbours its broadcast probably misses.
    fn mnt_far_supplement(
        &self,
        st: &mut HvdbNode,
        ctx: &mut ParCtx<'_, FrameBytes>,
        node: NodeId,
        my_vc: VcId,
        hid: Hid,
        inner: ChMsg,
    ) {
        let far = self.far_neighbors(ctx, node, self.cfg.map.logical_neighbors(my_vc));
        for nvc in far {
            if self.cfg.map.hid_of(nvc) == hid {
                self.geo_dispatch(st, ctx, node, GeoTarget::ChOfVc(nvc), inner.clone());
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_mnt_share(
        &self,
        node: NodeId,
        st: &mut HvdbNode,
        ctx: &mut ParCtx<'_, FrameBytes>,
        origin: Hnid,
        hid: Hid,
        holder: u32,
        gen: u64,
        refresh: bool,
        mnt: &crate::summary::MntSummary,
        relay: Option<&FrameBytes>,
    ) {
        let now = ctx.now();
        let Role::Head(h) = &mut st.role else {
            return;
        };
        if h.addr.hid != hid {
            return; // cube-scoped flood leaked; drop
        }
        let (fresh, changed) = h.db.store_mnt(origin, holder, gen, now, mnt);
        if !fresh.is_fresh() {
            // Duplicate of this flood wave, or an out-of-order straggler:
            // suppressing it is also what terminates the flood.
            ctx.record_stale_suppressed();
            let stored = h.db.mnt_of.entry(&origin).map(|e| (e.holder, e.gen));
            if let Some((s_holder, s_gen)) = stored {
                if holder == s_holder && gen == s_gen {
                    return; // the flood wave we already relayed: quiet
                }
                // A *non-duplicate* stale offer is observed staleness:
                // some origin is behind our view. Run our own refreshes
                // at the floor rate until the conflict settles.
                h.refresh_mnt.on_activity();
                if holder != s_holder
                    && gen < s_gen
                    && s_holder != crate::membership::SNAPSHOT_HOLDER
                {
                    // The offering holder (typically the label's new head
                    // after an abrupt succession) is outranked by its
                    // predecessor's surviving stamp. Hand the stored
                    // entry back to it so its `advance_to` recovery runs
                    // now, not after K-miss expiry tears the entry down.
                    // Geo-routed toward the label's VC, not unicast: the
                    // conflict is often detected multiple hops from the
                    // holder (relayed floods, far-neighbor supplements),
                    // where a direct frame would fall out of range.
                    let hint = h.db.mnt_of.get(&origin).cloned().and_then(|value| {
                        let addr = LogicalAddress { hid, hnid: origin };
                        self.cfg.map.vc_of(addr).map(|vc| (vc, value))
                    });
                    if let Some((vc, value)) = hint {
                        let inner = ChMsg::MntShare {
                            origin,
                            hid,
                            holder: s_holder,
                            gen: s_gen,
                            refresh: false,
                            mnt: value,
                        };
                        st.counters.stamp_hints_sent += 1;
                        self.geo_dispatch(st, ctx, node, GeoTarget::ChOfVc(vc), inner);
                    }
                }
            }
            return;
        }
        if changed {
            h.mnt_version += 1;
            // Cube churn reached us: the region's HT content changed, so
            // the designated CH's HT refresh (possibly us) must be fast.
            h.refresh_ht.on_activity();
        }
        if origin == h.addr.hnid && holder != node.0 {
            // Someone else's stamp outranks ours on our own label (a
            // predecessor's surviving state after re-election): advance
            // our clock so the next refresh supersedes it — at the floor
            // rate, this is exactly the state the backoff must not sit on.
            h.mnt_gen.advance_to(gen);
            h.refresh_mnt.on_activity();
        }
        // Cube-scoped flood: re-broadcast once per (holder, gen),
        // preserving the refresh-plane accounting flag. A flood wave
        // that arrived as a local broadcast is relayed as the *same*
        // shared frame — the zero-copy path every relay hop rides; only
        // geo-delivered far-neighbour supplements rebuild the local
        // frame once.
        let frame = match relay {
            // Reuse only frames whose accounting class is the payload's
            // own: a corrective frame sealed under an override class
            // (e.g. "stamp-hint") must not leak that class into the
            // flood's relay accounting.
            Some(f) if f.class() == f.msg().class() => f.clone(),
            _ => FrameBytes::seal(HvdbMsg::Local(ChMsg::MntShare {
                origin,
                hid,
                holder,
                gen,
                refresh,
                mnt: mnt.clone(),
            })),
        };
        ctx.broadcast_frame(node, frame);
    }

    fn on_ht_timer(&self, node: NodeId, st: &mut HvdbNode, ctx: &mut ParCtx<'_, FrameBytes>) {
        let tag = ptag(st, TAG_HT);
        ctx.set_timer(node, HT_INTERVAL, tag);
        self.broadcast_ht_if_designated(node, st, ctx, false);
    }

    /// §4.2 designated broadcast: if this CH self-designates over its
    /// current MNT state, (re-)broadcast the HT-Summary with a fresh
    /// generation. Shared by the slow designation cycle (`refresh =
    /// false`) and the fast refresh timer (`refresh = true`, accounted to
    /// the `ht-refresh` class). Returns whether a broadcast went out.
    fn broadcast_ht_if_designated(
        &self,
        node: NodeId,
        st: &mut HvdbNode,
        ctx: &mut ParCtx<'_, FrameBytes>,
        refresh: bool,
    ) -> bool {
        let criterion = self.cfg.designation;
        let now = ctx.now();
        let Role::Head(h) = &mut st.role else {
            return false;
        };
        refresh_region_cube(&self.cfg, &mut st.counters, h);
        let cube = &h.cube_cache.as_ref().expect("cube cache just filled").1;
        if !h.db.should_broadcast(h.addr.hnid, criterion, cube) {
            return false;
        }
        let ht = h.db.my_ht(h.addr.hid);
        let gen = h.ht_gen.tick();
        h.db.integrate_ht(&ht, node.0, gen, now);
        let origin = h.addr.hid;
        st.counters.ht_broadcasts += 1;
        let frame = FrameBytes::seal(HvdbMsg::Local(ChMsg::HtBroadcast {
            origin,
            holder: node.0,
            gen,
            refresh,
            ht,
        }));
        ctx.broadcast_frame(node, frame);
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn on_ht_broadcast(
        &self,
        node: NodeId,
        st: &mut HvdbNode,
        ctx: &mut ParCtx<'_, FrameBytes>,
        origin: Hid,
        holder: u32,
        gen: u64,
        refresh: bool,
        ht: &crate::summary::HtSummary,
        relay: Option<&FrameBytes>,
    ) {
        let now = ctx.now();
        let Role::Head(h) = &mut st.role else {
            return;
        };
        if !h.db.integrate_ht(ht, holder, gen, now).is_fresh() {
            ctx.record_stale_suppressed();
            let stored = h.db.ht_of.entry(&origin).map(|e| (e.holder, e.gen));
            if let Some((s_holder, s_gen)) = stored {
                if holder == s_holder && gen == s_gen {
                    return; // the wave we already relayed
                }
                // Observed staleness: run at the floor rate and, when a
                // new designee is outranked by its predecessor's stamp,
                // hint the stored entry back so `advance_to` repairs the
                // succession within a refresh period.
                h.refresh_ht.on_activity();
                if holder != s_holder
                    && gen < s_gen
                    && s_holder != crate::membership::SNAPSHOT_HOLDER
                {
                    // HT hints stay direct unicasts (the designee's VC is
                    // not derivable from the region id alone), so they
                    // only help when the holder is in radio range; count
                    // only hints that were actually deliverable — expiry
                    // remains the backstop for far designees.
                    let hint_value = h.db.ht_of.get(&origin).cloned();
                    if let Some(value) = hint_value {
                        let frame = FrameBytes::seal_as(
                            HvdbMsg::Local(ChMsg::HtBroadcast {
                                origin,
                                holder: s_holder,
                                gen: s_gen,
                                refresh: false,
                                ht: value,
                            }),
                            "stamp-hint",
                        );
                        if ctx.send_frame_reliable(node, NodeId(holder), frame) {
                            st.counters.stamp_hints_sent += 1;
                            ctx.trace(TraceKind::StampHint);
                        }
                    }
                }
            }
            return;
        }
        if origin == h.addr.hid {
            // Track our region's broadcast clock: if designation moves to
            // this CH later, its first broadcast must already outrank the
            // previous designee's stamps.
            h.ht_gen.advance_to(gen);
        }
        // Network-wide CH flood: re-broadcast once per (holder, gen),
        // preserving the refresh-plane accounting flag — as the same
        // shared frame whenever the wave arrived by local broadcast.
        let frame = match relay {
            // See on_mnt_share: never relay under an overridden
            // accounting class — a fresh HtBroadcast received as a
            // "stamp-hint" re-enters the flood as ht-bcast/ht-refresh,
            // exactly as the pre-refactor rebuild accounted it.
            Some(f) if f.class() == f.msg().class() => f.clone(),
            _ => FrameBytes::seal(HvdbMsg::Local(ChMsg::HtBroadcast {
                origin,
                holder,
                gen,
                refresh,
                ht: ht.clone(),
            })),
        };
        ctx.broadcast_frame(node, frame);
    }

    // ------------------------------------------------------------------
    // Soft-state refresh (decoupled from the content cycles above).

    /// The jittered refresh tick: heads re-advertise their designation
    /// and latest summaries with fresh generation stamps, and sweep the
    /// K-miss expiry over their soft stores. Refresh traffic is what
    /// repairs lost control broadcasts within ~one period instead of a
    /// whole 8–20 s content cycle.
    ///
    /// The timer always ticks at the fast floor rate, and the designation
    /// is re-announced on every tick; the two summary stores'
    /// [`RefreshController`]s decide whether they re-advertise this
    /// tick. While the cube is quiet (no churn, no observed
    /// staleness, no entries drifting toward expiry) the controllers
    /// widen their intervals multiplicatively, shedding most of the
    /// refresh overhead; any activity snaps them back so repair latency
    /// stays one fast period. Withheld refreshes are counted
    /// ([`hvdb_sim::Stats::soft_refresh_suppressed`]), fired ones feed
    /// the refresh-rate histogram.
    fn on_refresh_timer(&self, node: NodeId, st: &mut HvdbNode, ctx: &mut ParCtx<'_, FrameBytes>) {
        let tag = ptag(st, TAG_REFRESH);
        ctx.set_timer_jittered(node, REFRESH_INTERVAL, REFRESH_JITTER, tag);
        let now = ctx.now();
        let summary_deadline = self.cfg.summary_deadline();
        let term = st.ch.term();
        let Role::Head(h) = &mut st.role else {
            return;
        };
        let addr = h.addr;
        let vc = h.vc;
        // Expiry sweeps (every tick, regardless of backoff): silent
        // peers' summaries go after K missed refreshes; vanished
        // hypercubes are retracted from the MT view.
        let expired_mnts = h.db.expire_mnts(now, summary_deadline, addr.hnid);
        for label in &expired_mnts {
            h.neighbor_last.remove(label);
        }
        if !expired_mnts.is_empty() {
            h.mnt_version += 1;
        }
        let expired_hts = h.db.expire_hts(now, summary_deadline, addr.hid);
        let expired = (expired_mnts.len() + expired_hts.len()) as u64;
        if expired > 0 {
            // State was torn down — the view is in flux; refresh fast.
            h.refresh_mnt.on_activity();
            h.refresh_ht.on_activity();
        }
        // K-miss pressure: surviving entries past half the expiry budget
        // mean refreshes are being lost in flight. Backing off now would
        // finish the job the loss started; snap back instead (this is
        // what preserves the ≥25%-loss floor under the adaptive rate).
        let pressure = SimDuration(summary_deadline.0 / 2);
        if h.db.mnt_of.aged(now, pressure) > 0 {
            h.refresh_mnt.on_activity();
        }
        if h.db.ht_of.aged(now, pressure) > 0 {
            h.refresh_ht.on_activity();
        }
        // Histogram rates are read *before* on_tick widens the backoff:
        // each fire is recorded under the interval it actually waited.
        let rates = (
            h.refresh_mnt.interval_ticks(),
            h.refresh_ht.interval_ticks(),
        );
        let fire_mnt = h.refresh_mnt.on_tick();
        let fire_ht = h.refresh_ht.on_tick();
        // Suppression is only *counted* when the store actually had
        // something to send this tick, mirroring the fire path (which
        // records nothing for a head without an MNT yet, or one that is
        // not the designated broadcaster) — the counter audits frames
        // saved against the fixed rate, not ticks skipped. Designation
        // is evaluated lazily: on fire ticks broadcast_ht_if_designated
        // answers it anyway, so the cube is only built here on
        // suppressed ticks.
        let has_own_mnt = h.db.mnt_of.contains_key(&addr.hnid);
        let designated = !fire_ht && {
            refresh_region_cube(&self.cfg, &mut st.counters, h);
            let cube = &h.cube_cache.as_ref().expect("cube cache just filled").1;
            h.db.should_broadcast(addr.hnid, self.cfg.designation, cube)
        };
        ctx.record_soft_expired(expired);
        // (a) Re-announce the designation on every tick so members that
        // lost the original ChAnnounce recover within a refresh period.
        let frame = FrameBytes::seal_as(HvdbMsg::ChAnnounce { vc, term }, "ch-refresh");
        ctx.broadcast_frame(node, frame);
        ctx.record_refresh_tx();
        ctx.record_refresh_rate(1);
        // (b) Re-flood our own MNT-Summary (if one was computed yet) with
        // a fresh generation: cube peers that missed the content flood
        // converge without waiting a whole `MNT_INTERVAL`.
        if fire_mnt {
            let own_mnt = {
                let Role::Head(h) = &mut st.role else {
                    return;
                };
                h.db.mnt_of.get(&addr.hnid).cloned().map(|mnt| {
                    let gen = h.mnt_gen.tick();
                    h.db.store_mnt(addr.hnid, node.0, gen, now, &mnt);
                    (gen, mnt)
                })
            };
            if let Some((gen, mnt)) = own_mnt {
                let inner = ChMsg::MntShare {
                    origin: addr.hnid,
                    hid: addr.hid,
                    holder: node.0,
                    gen,
                    refresh: true,
                    mnt,
                };
                let frame = FrameBytes::seal(HvdbMsg::Local(inner.clone()));
                ctx.broadcast_frame(node, frame);
                self.mnt_far_supplement(st, ctx, node, vc, addr.hid, inner);
                ctx.record_refresh_tx();
                ctx.record_refresh_rate(rates.0);
            }
        } else if has_own_mnt {
            ctx.record_refresh_suppressed(1);
        }
        // (c) The designated CH also re-floods the HT-Summary, repairing
        // the 20 s designation cycle's losses network-wide.
        if fire_ht {
            if self.broadcast_ht_if_designated(node, st, ctx, true) {
                ctx.record_refresh_tx();
                ctx.record_refresh_rate(rates.1);
            }
        } else if designated {
            ctx.record_refresh_suppressed(1);
        }
    }

    // ------------------------------------------------------------------
    // Multicast data path (Fig. 6).

    fn on_traffic_timer(
        &self,
        node: NodeId,
        st: &mut HvdbNode,
        ctx: &mut ParCtx<'_, FrameBytes>,
        idx: usize,
    ) {
        // Data ids and expected receiver counts come from the script:
        // the send path touches no shared mutable state.
        let (item, data_id) = self.script.originate(idx, ctx);
        if st.is_head() {
            self.start_multicast_at_ch(node, st, ctx, data_id, item.group, item.size, 0);
        } else if let Some(ch) = self.current_ch(st, ctx.now()) {
            let frame = FrameBytes::seal(HvdbMsg::DataToCh {
                data_id,
                group: item.group,
                size: item.size,
            });
            ctx.send_frame_reliable(node, ch, frame);
        } else {
            st.counters.no_ch += 1;
        }
    }

    /// Fig. 6 steps 2–3: the source CH computes the mesh-tier tree and
    /// launches the branches, then enters its own hypercube.
    #[allow(clippy::too_many_arguments)]
    fn start_multicast_at_ch(
        &self,
        node: NodeId,
        st: &mut HvdbNode,
        ctx: &mut ParCtx<'_, FrameBytes>,
        data_id: u64,
        group: GroupId,
        size: usize,
        hops: u32,
    ) {
        let cache_trees = self.cfg.cache_trees;
        let Role::Head(h) = &mut st.role else {
            return;
        };
        let my_hid = h.addr.hid;
        let mt_version = h.db.mt.version();
        let tree = match h.mesh_cache.get(&group) {
            Some((v, t)) if cache_trees && *v == mt_version => {
                st.counters.tree_cache_hits += 1;
                t.clone()
            }
            _ => {
                let dests = h.db.mt.hypercubes_with(group).to_vec();
                if dests.iter().all(|d| *d == my_hid) {
                    st.counters.mt_empty_at_send += 1;
                }
                let t = MeshTree::build(my_hid, &dests);
                st.counters.trees_built += 1;
                if cache_trees {
                    h.mesh_cache.insert(group, (mt_version, t.clone()));
                }
                t
            }
        };
        // Enter our own hypercube with the whole tree.
        let edges = tree.encode_edges();
        self.enter_region(node, st, ctx, data_id, group, size, my_hid, &edges, hops);
    }

    /// Fig. 6 step 4: a packet enters hypercube `this` at this CH.
    #[allow(clippy::too_many_arguments)]
    fn enter_region(
        &self,
        node: NodeId,
        st: &mut HvdbNode,
        ctx: &mut ParCtx<'_, FrameBytes>,
        data_id: u64,
        group: GroupId,
        size: usize,
        this: Hid,
        edges: &[(Hid, Hid)],
        hops: u32,
    ) {
        let cache_trees = self.cfg.cache_trees;
        {
            let Role::Head(h) = &mut st.role else {
                return;
            };
            if !h.seen_mesh_data.insert(data_id) {
                return; // already entered this region
            }
        }
        // (a) Re-encapsulate toward next-hop hypercubes.
        let tree = MeshTree::decode_edges(this, edges);
        if let Some(tree) = tree {
            for child in tree.children_of(this).to_vec() {
                let sub = tree.subtree_edges(child);
                let inner = ChMsg::MeshData {
                    data_id,
                    group,
                    size,
                    this: child,
                    edges: sub,
                    hops,
                };
                st.counters.mesh_branches += 1;
                self.geo_dispatch(st, ctx, node, GeoTarget::AnyChInRegion(child), inner);
            }
        }
        // (b) Hypercube-tier tree from the HT view.
        let (hc_edges, my_label) = {
            let Role::Head(h) = &mut st.role else {
                return;
            };
            let my_label = h.addr.hnid;
            let key = h.mnt_version;
            let tree = match h.hc_cache.get(&group) {
                Some((v, t)) if cache_trees && *v == key && t.root == my_label.0 => {
                    st.counters.tree_cache_hits += 1;
                    t.clone()
                }
                _ => {
                    let ht = h.db.my_ht(this);
                    let dests: Vec<u32> = ht.nodes_with(group).iter().map(|l| l.0).collect();
                    let t = if this == h.addr.hid {
                        // The common case (a CH always enters its own
                        // region): reuse the cached region cube.
                        refresh_region_cube(&self.cfg, &mut st.counters, h);
                        let cube = &h.cube_cache.as_ref().expect("cube cache just filled").1;
                        multicast_tree(cube, my_label.0, &dests)
                    } else {
                        let cube = build_region_cube(
                            &self.cfg,
                            this,
                            h.db.mnt_of.keys().copied().collect::<Vec<_>>(),
                        );
                        multicast_tree(&cube, my_label.0, &dests)
                    };
                    st.counters.trees_built += 1;
                    if cache_trees {
                        h.hc_cache.insert(group, (key, t.clone()));
                    }
                    t
                }
            };
            (tree.encode_edges(), my_label)
        };
        self.process_hc_tree_node(
            node, st, ctx, data_id, group, size, this, &hc_edges, my_label, hops,
        );
    }

    /// Fig. 6 steps 5–6 at a tree node: deliver locally, forward to
    /// children over logical routes.
    #[allow(clippy::too_many_arguments)]
    fn process_hc_tree_node(
        &self,
        node: NodeId,
        st: &mut HvdbNode,
        ctx: &mut ParCtx<'_, FrameBytes>,
        data_id: u64,
        group: GroupId,
        size: usize,
        hid: Hid,
        edges: &[(u32, u32)],
        my_label: Hnid,
        hops: u32,
    ) {
        // Local delivery.
        self.deliver_locally(node, st, ctx, data_id, group, size, hops);
        // Children of my label in the tree.
        let children: Vec<u32> = edges
            .iter()
            .filter(|(p, _)| *p == my_label.0)
            .map(|(_, c)| *c)
            .collect();
        for child in children {
            self.forward_hc_leg(
                st,
                ctx,
                node,
                data_id,
                group,
                size,
                hid,
                edges,
                Hnid(child),
                hops,
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn forward_hc_leg(
        &self,
        st: &mut HvdbNode,
        ctx: &mut ParCtx<'_, FrameBytes>,
        node: NodeId,
        data_id: u64,
        group: GroupId,
        size: usize,
        hid: Hid,
        edges: &[(u32, u32)],
        leg_dst: Hnid,
        hops: u32,
    ) {
        let next = {
            let Role::Head(h) = &st.role else {
                return;
            };
            h.table.best_route(leg_dst).map(|r| r.next_hop)
        };
        let Some(next) = next else {
            st.counters.no_route += 1;
            return;
        };
        let next_addr = LogicalAddress { hid, hnid: next };
        let Some(next_vc) = self.cfg.map.vc_of(next_addr) else {
            st.counters.no_route += 1;
            return;
        };
        let inner = ChMsg::HcData {
            data_id,
            group,
            size,
            hid,
            edges: edges.iter().map(|(p, c)| (Hnid(*p), Hnid(*c))).collect(),
            leg_dst,
            hops,
        };
        self.geo_dispatch(st, ctx, node, GeoTarget::ChOfVc(next_vc), inner);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_hc_data(
        &self,
        node: NodeId,
        st: &mut HvdbNode,
        ctx: &mut ParCtx<'_, FrameBytes>,
        data_id: u64,
        group: GroupId,
        size: usize,
        hid: Hid,
        edges: &[(Hnid, Hnid)],
        leg_dst: Hnid,
        hops: u32,
    ) {
        let my_label = {
            let Role::Head(h) = &st.role else {
                return;
            };
            h.addr.hnid
        };
        let raw_edges: Vec<(u32, u32)> = edges.iter().map(|(p, c)| (p.0, c.0)).collect();
        if leg_dst == my_label {
            self.process_hc_tree_node(
                node, st, ctx, data_id, group, size, hid, &raw_edges, my_label, hops,
            );
        } else {
            // Relay along the logical route toward leg_dst.
            self.forward_hc_leg(
                st, ctx, node, data_id, group, size, hid, &raw_edges, leg_dst, hops,
            );
        }
    }

    /// Fig. 6 step 6: CH local broadcast + own delivery.
    #[allow(clippy::too_many_arguments)]
    fn deliver_locally(
        &self,
        node: NodeId,
        st: &mut HvdbNode,
        ctx: &mut ParCtx<'_, FrameBytes>,
        data_id: u64,
        group: GroupId,
        size: usize,
        hops: u32,
    ) {
        let has_members = {
            let Role::Head(h) = &st.role else {
                return;
            };
            h.db.has_local_members(group) || st.lm.contains(group)
        };
        if !has_members {
            return;
        }
        // Own delivery.
        if st.lm.contains(group) && st.seen_data.insert(data_id) {
            ctx.record_delivery_hops(data_id, node, hops);
        }
        let frame = FrameBytes::seal(HvdbMsg::LocalDeliver {
            data_id,
            group,
            size,
            hops,
        });
        // Broadcasts have no MAC recovery, so the final hop is the loss
        // bottleneck of the whole delivery chain: repeat the frame
        // (receivers dedup by data id), turning p loss into p^repeats.
        // One sealed frame serves every repeat and every receiver.
        for _ in 0..self.cfg.deliver_repeats.max(1) {
            ctx.broadcast_frame(node, frame.clone());
        }
    }

    fn on_group_event(&self, node: NodeId, st: &mut HvdbNode, idx: usize) {
        let ev = *self.script.group_event(idx);
        debug_assert_eq!(ev.node, node, "group-event timer fired at the wrong node");
        if ev.join {
            st.lm.join(ev.group);
        } else {
            st.lm.leave(ev.group);
        }
    }

    fn on_geo(
        &self,
        node: NodeId,
        st: &mut HvdbNode,
        ctx: &mut ParCtx<'_, FrameBytes>,
        mut pkt: GeoPacket,
    ) {
        if satisfies_target(st, pkt.target) {
            // Physical transmissions this geo leg took: one per relay
            // (`pkt.hops`) plus the final hop that reached us.
            let leg_hops = pkt.hops + 1;
            match &pkt.inner {
                ChMsg::Beacon {
                    from,
                    sent_at,
                    advertised,
                } => self.on_beacon(node, st, ctx, *from, *sent_at, advertised),
                ChMsg::MntShare {
                    origin,
                    hid,
                    holder,
                    gen,
                    refresh,
                    mnt,
                } => {
                    self.on_mnt_share(
                        node, st, ctx, *origin, *hid, *holder, *gen, *refresh, mnt, None,
                    );
                }
                ChMsg::HtBroadcast {
                    origin,
                    holder,
                    gen,
                    refresh,
                    ht,
                } => {
                    self.on_ht_broadcast(node, st, ctx, *origin, *holder, *gen, *refresh, ht, None);
                }
                ChMsg::MeshData {
                    data_id,
                    group,
                    size,
                    this,
                    edges,
                    hops,
                } => {
                    let total = *hops + leg_hops;
                    self.enter_region(node, st, ctx, *data_id, *group, *size, *this, edges, total)
                }
                ChMsg::HcData {
                    data_id,
                    group,
                    size,
                    hid,
                    edges,
                    leg_dst,
                    hops,
                } => {
                    let total = *hops + leg_hops;
                    self.on_hc_data(
                        node, st, ctx, *data_id, *group, *size, *hid, edges, *leg_dst, total,
                    )
                }
            }
            return;
        }
        if pkt.ttl == 0 {
            Self::count_geo_stuck(st, &pkt);
            return;
        }
        pkt.ttl -= 1;
        pkt.hops += 1;
        georoute::push_visited(&mut pkt.visited, node);
        // Last-hop shortcut: a relay that knows the target's CH hands the
        // packet over directly instead of chasing the VCC geometrically
        // (the relay's cluster state is exactly the "location service" the
        // paper assumes).
        let now = ctx.now();
        let shortcut = match pkt.target {
            GeoTarget::ChOfVc(vc) => {
                let my_ch = self.current_ch(st, now);
                if st.my_vc == vc && my_ch.is_none() {
                    // We live in the target VC and know of no live head:
                    // the packet has no consumer; drop instead of
                    // wandering.
                    Self::count_geo_stuck(st, &pkt);
                    return;
                }
                (st.my_vc == vc).then_some(my_ch).flatten()
            }
            GeoTarget::AnyChInRegion(hid) => {
                let my_ch = self.current_ch(st, now);
                (self.cfg.map.hid_of(st.my_vc) == hid)
                    .then_some(my_ch)
                    .flatten()
            }
        };
        if let Some(ch) = shortcut {
            // Whether `ch` still satisfies the target is the receiver's
            // call, not ours: a relay cannot read another node's role (on
            // the sharded engine that would be a cross-shard state read),
            // so the handover rides on lease evidence alone and a stale
            // head simply relays the packet onward — the TTL still bounds
            // the detour.
            if ch != node && ctx.is_alive(ch) {
                let frame = FrameBytes::seal(HvdbMsg::Geo(pkt));
                ctx.send_frame_reliable(node, ch, frame);
                return;
            }
        }
        self.geo_send(st, ctx, node, pkt);
    }
}

impl ParProtocol for HvdbCore {
    type Msg = FrameBytes;
    type Node = HvdbNode;

    fn make_node(&self, id: NodeId, world: &World) -> HvdbNode {
        self.new_node(id, world.position(id))
    }

    /// Arms one node's phase-jittered periodic timers plus its scripted
    /// traffic and group-event timers (t = 0).
    fn on_start(&self, node: NodeId, _st: &mut HvdbNode, ctx: &mut ParCtx<'_, FrameBytes>) {
        let jitter = |ctx: &mut ParCtx<'_, FrameBytes>, max: u64| {
            SimDuration(ctx.rng().range_u64(0, max.max(1)))
        };
        let j = jitter(ctx, CLUSTER_INTERVAL.0 / 4);
        ctx.set_timer(node, j, TAG_CANDIDACY);
        let j = jitter(ctx, BEACON_INTERVAL.0);
        ctx.set_timer(node, CLUSTER_INTERVAL + j, TAG_BEACON);
        let j = jitter(ctx, MNT_INTERVAL.0);
        ctx.set_timer(node, CLUSTER_INTERVAL + j, TAG_MNT);
        let j = jitter(ctx, HT_INTERVAL.0);
        ctx.set_timer(node, CLUSTER_INTERVAL + j, TAG_HT);
        // Soft-state refresh: starts once the first clustering can have
        // produced heads, then free-runs jittered.
        ctx.set_timer_jittered(
            node,
            CLUSTER_INTERVAL + REFRESH_INTERVAL,
            REFRESH_JITTER,
            TAG_REFRESH,
        );
        // Members report shortly after each clustering settles.
        ctx.set_timer(
            node,
            CLUSTER_INTERVAL + SimDuration(CLUSTER_INTERVAL.0 * 7 / 10),
            TAG_REPORT,
        );
        // Scenario scripting: this node's traffic and group events.
        self.script.arm(node, ctx);
    }

    /// Message dispatch for the node owning `st`.
    fn on_message(
        &self,
        node: NodeId,
        st: &mut HvdbNode,
        from: NodeId,
        msg: FrameBytes,
        ctx: &mut ParCtx<'_, FrameBytes>,
    ) {
        // Receivers read the shared payload in place; only the arms that
        // *store or forward* owned state take the payload out (unicast
        // frames are uniquely held, so `into_msg` is a move, not a copy).
        match msg.msg() {
            HvdbMsg::Candidacy { vc, score } => {
                let (vc, score) = (*vc, *score);
                if vc == st.my_vc {
                    if st.ch.head_unchecked() == Some(score.node) {
                        st.heard_head_bid = true;
                    }
                    match &st.best_cand {
                        Some(best) if !score.beats(best) => {}
                        _ => st.best_cand = Some(score),
                    }
                }
            }
            HvdbMsg::ChAnnounce { vc, term } => {
                let (vc, term) = (*vc, *term);
                let now = ctx.now();
                let deadline = DESIGNATION_DEADLINE;
                // Duplicate-head resolution: frame loss can leave two
                // nodes each believing they won the same VC (each missed
                // the other's candidacy). Both then advertise the same
                // hypercube label with different membership content, and
                // their generation stamps fight — the classic split-brain
                // the soft-state ordering cannot repair on its own. The
                // announcement channel doubles as the resolver: a sitting
                // head hearing a rival's announcement for its own VC
                // compares (term, node id) in lease order, and the loser
                // resigns with a state handover. Exactly one head
                // survives, and members' leases converge to the same
                // winner by the same ordering.
                if from != node {
                    let me_head_of = matches!(&st.role, Role::Head(h) if h.vc == vc);
                    if me_head_of {
                        let my_term = st.ch.term();
                        let i_lose = term > my_term || (term == my_term && from.0 < node.0);
                        if i_lose {
                            self.resign_to(node, st, ctx, vc, from);
                        }
                    }
                }
                if vc == st.my_vc
                    && st.ch.observe(from.0, term, now, deadline) == LeaseUpdate::Stale
                {
                    // A superseded head's late announcement: ignored, so
                    // the member keeps pointing its data at the winner.
                    ctx.record_stale_suppressed();
                }
            }
            HvdbMsg::ChRetire { vc } => {
                let vc = *vc;
                if vc == st.my_vc && st.ch.head_unchecked() == Some(from.0) {
                    st.ch.vacate();
                }
            }
            HvdbMsg::JoinReport { gen, lm } => {
                let now = ctx.now();
                if let Role::Head(h) = &mut st.role {
                    let (fresh, changed) = h.db.store_local(from.0, lm, *gen, now);
                    if !fresh.is_fresh() {
                        ctx.record_stale_suppressed();
                    } else if changed {
                        h.mnt_version += 1;
                        // A member's memberships changed: our MNT (and
                        // with it the region's HT) is about to change —
                        // refresh at the floor rate until it has flooded.
                        h.refresh_mnt.on_activity();
                        h.refresh_ht.on_activity();
                    }
                }
            }
            HvdbMsg::DataToCh {
                data_id,
                group,
                size,
            } => {
                let (data_id, group, size) = (*data_id, *group, *size);
                if st.is_head() {
                    // One member→CH transmission behind us. (A bounced
                    // frame rides the same shared payload, so its extra
                    // hop is deliberately not re-stamped — rare and
                    // cheaper than re-sealing.)
                    self.start_multicast_at_ch(node, st, ctx, data_id, group, size, 1);
                } else if let Some(ch) = self.current_ch(st, ctx.now()) {
                    // The member's view was stale (this node resigned);
                    // bounce the packet to the current head once.
                    if ch != node {
                        // The received frame is forwarded unchanged: the
                        // bounce rides the same shared payload.
                        st.counters.data_bounced += 1;
                        ctx.send_frame_reliable(node, ch, msg.clone());
                    }
                }
            }
            HvdbMsg::LocalDeliver {
                data_id,
                group,
                hops,
                ..
            } => {
                let (data_id, group, hops) = (*data_id, *group, *hops);
                if st.lm.contains(group) && st.seen_data.insert(data_id) {
                    // +1 for the CH's local delivery broadcast itself.
                    ctx.record_delivery_hops(data_id, node, hops + 1);
                }
            }
            HvdbMsg::Handover { .. } => {
                // Unicast: this handle is the payload's only owner, so
                // the member vectors move out without copying.
                let HvdbMsg::Handover {
                    vc,
                    mnt_gen,
                    ht_gen,
                    locals,
                    hts,
                } = msg.into_msg()
                else {
                    unreachable!("matched Handover above");
                };
                let now = ctx.now();
                let ho = PendingHandover {
                    vc,
                    mnt_gen,
                    ht_gen,
                    locals,
                    hts,
                };
                if matches!(&st.role, Role::Head(h) if h.vc == vc) {
                    Self::apply_handover(st, now, ho);
                    ctx.trace(TraceKind::HandoverApplied {
                        vc: (vc.row, vc.col),
                    });
                } else if st.my_vc == vc {
                    // Our decide timer has not fired yet: keep the state
                    // until the win it belongs to actually happens.
                    st.pending_handover = Some(Box::new(ho));
                }
            }
            HvdbMsg::Geo(_) => {
                // Unicast relay envelope: take the packet out (a move —
                // geo frames are never shared) so TTL/visited mutate in
                // place before the next hop is sealed.
                let HvdbMsg::Geo(pkt) = msg.into_msg() else {
                    unreachable!("matched Geo above");
                };
                self.on_geo(node, st, ctx, pkt);
            }
            HvdbMsg::Local(inner) => {
                if !st.is_head() {
                    return; // CH-plane traffic; members ignore it
                }
                match inner {
                    ChMsg::Beacon {
                        from,
                        sent_at,
                        advertised,
                    } => self.on_beacon(node, st, ctx, *from, *sent_at, advertised),
                    ChMsg::MntShare {
                        origin,
                        hid,
                        holder,
                        gen,
                        refresh,
                        mnt,
                    } => {
                        // Flood reception: relays re-broadcast this very
                        // frame (`Some(&msg)`), so a wave crosses the
                        // whole cube behind one allocation.
                        self.on_mnt_share(
                            node,
                            st,
                            ctx,
                            *origin,
                            *hid,
                            *holder,
                            *gen,
                            *refresh,
                            mnt,
                            Some(&msg),
                        );
                    }
                    ChMsg::HtBroadcast {
                        origin,
                        holder,
                        gen,
                        refresh,
                        ht,
                    } => {
                        self.on_ht_broadcast(
                            node,
                            st,
                            ctx,
                            *origin,
                            *holder,
                            *gen,
                            *refresh,
                            ht,
                            Some(&msg),
                        );
                    }
                    _ => {}
                }
            }
        }
    }

    /// Timer dispatch for the node owning `st`.
    fn on_timer(
        &self,
        node: NodeId,
        st: &mut HvdbNode,
        tag: u64,
        ctx: &mut ParCtx<'_, FrameBytes>,
    ) {
        match tag {
            t if t >= TAG_GROUP_BASE => {
                self.on_group_event(node, st, (t - TAG_GROUP_BASE) as usize)
            }
            t if t >= TAG_TRAFFIC_BASE => {
                self.on_traffic_timer(node, st, ctx, (t - TAG_TRAFFIC_BASE) as usize)
            }
            t => {
                if (t >> 3) != st.timer_epoch {
                    // A chain from before this node's last recovery: let
                    // it die instead of re-arming a duplicate.
                    return;
                }
                match t & TAG_KIND_MASK {
                    TAG_CANDIDACY => self.on_candidacy_timer(node, st, ctx),
                    TAG_DECIDE => self.on_decide_timer(node, st, ctx),
                    TAG_REPORT => self.on_report_timer(node, st, ctx),
                    TAG_BEACON => self.on_beacon_timer(node, st, ctx),
                    TAG_MNT => self.on_mnt_timer(node, st, ctx),
                    TAG_HT => self.on_ht_timer(node, st, ctx),
                    TAG_REFRESH => self.on_refresh_timer(node, st, ctx),
                    _ => unreachable!("unknown timer tag {tag}"),
                }
            }
        }
    }

    /// Fault injection: a failed CH simply goes silent; neighbours detect
    /// it by beacon timeout (the availability experiment measures exactly
    /// this).
    fn on_fail(&self, _node: NodeId, st: &mut HvdbNode, _ctx: &mut ParCtx<'_, FrameBytes>) {
        st.role = Role::Member;
        st.ch.clear();
    }

    /// Fault injection: the node came back up with cleared volatile view.
    fn on_recover(&self, node: NodeId, st: &mut HvdbNode, ctx: &mut ParCtx<'_, FrameBytes>) {
        st.ch.clear();
        st.best_cand = None;
        // Restart every periodic chain under a fresh timer epoch: chains
        // that fired while the node was down are broken, and any that
        // survived a short outage carry the old epoch and die at their
        // next firing — no duplicated cadence either way.
        st.timer_epoch += 1;
        let j = SimDuration(ctx.rng().range_u64(0, CLUSTER_INTERVAL.0 / 4 + 1));
        let tag = ptag(st, TAG_CANDIDACY);
        ctx.set_timer(node, j, tag);
        let tag = ptag(st, TAG_BEACON);
        ctx.set_timer(node, BEACON_INTERVAL, tag);
        let tag = ptag(st, TAG_MNT);
        ctx.set_timer(node, MNT_INTERVAL, tag);
        let tag = ptag(st, TAG_HT);
        ctx.set_timer(node, HT_INTERVAL, tag);
        let tag = ptag(st, TAG_REPORT);
        ctx.set_timer(node, LOCAL_REPORT_INTERVAL, tag);
        let tag = ptag(st, TAG_REFRESH);
        ctx.set_timer_jittered(node, REFRESH_INTERVAL, REFRESH_JITTER, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grouped(owners: &[u32]) -> ByNode {
        ByNode::new(owners.iter().map(|&v| NodeId(v)))
    }

    #[test]
    fn by_node_of_an_empty_script_is_empty() {
        let g = grouped(&[]);
        assert!(g.of(NodeId(0)).is_empty());
        assert!(g.of(NodeId(u32::MAX)).is_empty());
    }

    #[test]
    fn by_node_keeps_script_order_per_node() {
        // Interleaved owners; nodes 0, 2 and 4 own nothing, node 6 and
        // every id past it lie above every source.
        let g = grouped(&[3, 1, 3, 5, 1, 1, 3]);
        assert_eq!(g.of(NodeId(1)), [1, 4, 5]);
        assert_eq!(g.of(NodeId(3)), [0, 2, 6]);
        assert_eq!(g.of(NodeId(5)), [3]);
        for empty in [0, 2, 4, 6, 7, 1_000, u32::MAX] {
            assert!(g.of(NodeId(empty)).is_empty(), "node {empty}");
        }
        // A lone owner at id 0.
        assert_eq!(grouped(&[0, 0]).of(NodeId(0)), [0, 1]);
    }

    /// The reference definition of [`Script::expected`]: per item, replay
    /// every applicable group event over the item's initial group, in
    /// list order. Quadratic in the script length.
    fn expected_by_replay(
        initial: &[(NodeId, GroupId)],
        traffic: &[TrafficItem],
        group_events: &[GroupEvent],
    ) -> Vec<u64> {
        traffic
            .iter()
            .map(|item| {
                let mut members: FxHashSet<NodeId> = initial
                    .iter()
                    .filter(|(_, g)| *g == item.group)
                    .map(|(n, _)| *n)
                    .collect();
                for ev in group_events {
                    if ev.group == item.group && ev.at <= item.at {
                        if ev.join {
                            members.insert(ev.node);
                        } else {
                            members.remove(&ev.node);
                        }
                    }
                }
                members.iter().filter(|n| **n != item.src).count() as u64
            })
            .collect()
    }

    #[test]
    fn expected_receivers_match_the_replay_on_random_scripts() {
        // Few nodes, groups and instants, so (node, group) pairs repeat,
        // events arrive out of time order, joins and leaves of one pair
        // share an instant, and items tie with events at `item.at`.
        let mut rng = hvdb_traffic::Rng64::new(23);
        let mut draw = |n: u64| rng.range_u64(0, n);
        for _ in 0..300 {
            let initial: Vec<(NodeId, GroupId)> = (0..draw(8))
                .map(|_| (NodeId(draw(6) as u32), GroupId(draw(3) as u32)))
                .collect();
            let group_events: Vec<GroupEvent> = (0..draw(24))
                .map(|_| GroupEvent {
                    at: SimTime::from_secs(draw(10)),
                    node: NodeId(draw(6) as u32),
                    group: GroupId(draw(3) as u32),
                    join: draw(2) == 0,
                })
                .collect();
            let traffic: Vec<TrafficItem> = (0..draw(16))
                .map(|_| TrafficItem {
                    at: SimTime::from_secs(draw(10)),
                    src: NodeId(draw(6) as u32),
                    group: GroupId(draw(3) as u32),
                    ..Default::default()
                })
                .collect();
            let want = expected_by_replay(&initial, &traffic, &group_events);
            let script = Script::new(&initial, traffic, group_events);
            let got: Vec<u64> = (0..want.len()).map(|i| script.expected(i)).collect();
            assert_eq!(got, want, "initial {initial:?}");
        }
    }

    #[test]
    fn the_latest_event_in_list_order_wins_a_pair() {
        // Node 2 joins at 5 s but the list's later entry, a leave at 3 s,
        // wins for every item at or after 5 s; before 5 s only the leave
        // applies.
        let g = GroupId(3);
        let ev = |secs, join| GroupEvent {
            at: SimTime::from_secs(secs),
            node: NodeId(2),
            group: g,
            join,
        };
        let item = |secs| TrafficItem {
            at: SimTime::from_secs(secs),
            src: NodeId(0),
            group: g,
            ..Default::default()
        };
        let script = Script::new(
            &[(NodeId(0), g), (NodeId(1), g), (NodeId(2), g)],
            vec![item(1), item(4), item(5), item(9)],
            vec![ev(5, true), ev(3, false)],
        );
        let got: Vec<u64> = (0..4).map(|i| script.expected(i)).collect();
        assert_eq!(got, vec![2, 1, 1, 1]);
    }
}
