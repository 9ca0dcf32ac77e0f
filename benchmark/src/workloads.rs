//! The four benchmark workloads. Inputs come only from
//! [`Workload::build`] with the run's seed; the benchmark then adjusts the
//! two derived settings the repository's own scenarios adjust the same way
//! (`geo_ttl` for wide grids, `deliver_repeats` for loss-free heavy load).

use hvdb_bench::{MobilityKind, Scenario, Workload};
use hvdb_sim::SimDuration;
use hvdb_traffic::{SourceModel, TrafficSpec};

/// One named workload: a recipe, how many independent instances one pass
/// runs, and why it is in the set.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload was chosen (one line).
    pub why: &'static str,
    /// Instances per pass, each with its own seed. Pooling several
    /// topologies keeps the model metrics of one `--seed` close to those
    /// of the next; one 20000-node instance already averages enough.
    pub instances: u64,
    recipe: fn() -> Workload,
    tweak: fn(&mut Scenario),
}

/// Every workload, in run order.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "paper-200-mobile",
        why: "paper geometry with mobility, 5% loss and churn: the only workload with barriers, MAC retries and soft-state writes",
        instances: 4,
        recipe: paper_200_mobile,
        tweak: |_| {},
    },
    WorkloadDef {
        name: "scale-2000",
        why: "the scale sweep's 2000-node point: quiet control plane, ~67 neighbours per broadcast, control handlers dominate",
        instances: 4,
        recipe: || scale(2000, 12, (100, 30, 20), 1),
        tweak: widen_geo_ttl,
    },
    WorkloadDef {
        name: "scale-20000-t2",
        why: "20000 nodes on 2 threads: the only parallel drain, a working set far beyond cache, the start-up control storm",
        instances: 1,
        recipe: || Workload {
            // 40 rather than 8 packets per group: one instance must give
            // p99 latency enough samples (1200 slots, not 240).
            packets_per_group: 40,
            ..scale(20000, 44, (20, 8, 4), 2)
        },
        tweak: widen_geo_ttl,
    },
    WorkloadDef {
        name: "traffic-320pps",
        why: "320 pps Poisson multicast, half the 640 pps knee: data-plane handlers dominate with the interface queue in use",
        // Control bytes and p99 latency vary with the 120-node topology
        // (±13%, ±10% per instance); twelve short instances average it.
        instances: 12,
        recipe: traffic_320pps,
        tweak: |s| s.hvdb.deliver_repeats = 1,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl WorkloadDef {
    /// The instance seeds of `--seed seed`: `seed` picks the `seed`-th block
    /// of [`WorkloadDef::instances`] consecutive seeds, so `--seed 1` starts
    /// at seed 1 and distinct `--seed`s never share an instance.
    pub fn instance_seeds(&self, seed: u64) -> impl Iterator<Item = u64> {
        let first = seed.wrapping_sub(1).wrapping_mul(self.instances);
        (1..=self.instances).map(move |k| first.wrapping_add(k))
    }

    /// The recipe at `seed`, shrunk by [`Workload::smoke`] when `smoke`.
    pub fn workload(&self, seed: u64, smoke: bool) -> Workload {
        let w = Workload {
            seed,
            ..(self.recipe)()
        };
        if smoke {
            w.smoke()
        } else {
            w
        }
    }

    /// Materialises the inputs: [`Workload::build`] plus the workload's
    /// derived-setting adjustment.
    pub fn build(&self, w: &Workload) -> Scenario {
        let mut s = w.build();
        (self.tweak)(&mut s);
        s
    }
}

/// 200 nodes on 800×800 m, 8×8 VCs, dimension 4, 250 m range (the paper's
/// §6 geometry), moving at 1–5 m/s with 5% frame loss and 40 join/leave
/// events over a 400 s traffic window.
fn paper_200_mobile() -> Workload {
    Workload {
        side: 800.0,
        nodes: 200,
        vc_side: 8,
        dim: 4,
        range: 250.0,
        loss_prob: 0.05,
        mobility: MobilityKind::Waypoint(1.0, 5.0),
        groups: 2,
        members_per_group: 10,
        packets_per_group: 100,
        warmup: SimDuration::from_secs(120),
        traffic_window: SimDuration::from_secs(400),
        cooldown: SimDuration::from_secs(40),
        churn_events: 40,
        threads: 1,
        ..Workload::default()
    }
}

/// The `scale` sweep's recipe at `nodes`: constant density (8533 m² per
/// node), 450 m range, 3 groups × 10 members, 8 packets per group.
fn scale(
    nodes: usize,
    vc_side: u16,
    (warm, window, cool): (u64, u64, u64),
    threads: usize,
) -> Workload {
    Workload {
        nodes,
        side: (nodes as f64 * 8533.0).sqrt(),
        vc_side,
        dim: 4,
        range: 450.0,
        groups: 3,
        members_per_group: 10,
        packets_per_group: 8,
        warmup: SimDuration::from_secs(warm),
        traffic_window: SimDuration::from_secs(window),
        cooldown: SimDuration::from_secs(cool),
        threads,
        ..Workload::default()
    }
}

/// Geo unicast makes about one VC of progress per hop, so wide grids need
/// the Manhattan diameter plus slack as their TTL (as the `scale` sweep
/// sets it).
fn widen_geo_ttl(s: &mut Scenario) {
    let diameter = 2 * s.hvdb.grid.rows() as u32;
    s.hvdb.geo_ttl = s.hvdb.geo_ttl.max(diameter + 8);
}

/// The `traffic` scenario's HVDB arm at 320 pps: 120 nodes, 12 groups × 2
/// Poisson flows, a 250 ms interface-queue cap and compact delivery, with
/// the traffic window stretched from 20 s to 60 s. At 480 pps about one
/// seed in four saturates its queues, which makes p99 latency bimodal
/// across seeds (45 ms or 250 ms); at 320 pps no seed does.
fn traffic_320pps() -> Workload {
    const GROUPS: usize = 12;
    const FLOWS_PER_GROUP: u32 = 2;
    Workload {
        side: 800.0,
        nodes: 120,
        vc_side: 8,
        dim: 4,
        range: 250.0,
        groups: GROUPS,
        members_per_group: 4,
        packets_per_group: 0,
        payload: 512,
        warmup: SimDuration::from_secs(100),
        traffic_window: SimDuration::from_secs(60),
        cooldown: SimDuration::from_secs(15),
        enhanced_fraction: 1.0,
        queue_cap: SimDuration::from_millis(250),
        compact_delivery: true,
        traffic_spec: Some(TrafficSpec {
            flows_per_group: FLOWS_PER_GROUP,
            rate_pps: 320.0 / (GROUPS as u32 * FLOWS_PER_GROUP) as f64,
            payload: 512,
            model: SourceModel::Poisson,
            group_stagger_us: 1_000_000,
        }),
        threads: 1,
        ..Workload::default()
    }
}
