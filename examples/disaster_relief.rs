//! Disaster-relief scenario — the paper's second motivating application
//! (§1): independent rescue workers with dynamic team membership.
//!
//! Responders move independently (random waypoint); teams form and
//! dissolve as workers join/leave coordination groups at runtime, which
//! exercises the summary-based membership update (Fig. 5) end to end:
//! joins must propagate Local-Membership → MNT → HT → MT before multicast
//! reaches the new member.
//!
//! ```sh
//! cargo run --release --example disaster_relief
//! ```

use hvdb::core::{GroupEvent, GroupId, HvdbConfig, HvdbProtocol, TrafficItem};
use hvdb::geo::Aabb;
use hvdb::sim::{NodeId, RadioConfig, RandomWaypoint, SimConfig, SimDuration, SimTime, Simulator};

fn main() {
    let area = Aabb::from_size(1600.0, 1600.0);
    let cfg = HvdbConfig::new(area, 8, 8, 4);
    let num_nodes = 150;
    let sim_cfg = SimConfig {
        area,
        num_nodes,
        radio: RadioConfig {
            range: 450.0,
            ..Default::default()
        },
        mobility_tick: SimDuration::from_secs(1),
        enhanced_fraction: 0.5,
        seed: 911,
        compact_delivery: false,
    };
    let mobility = RandomWaypoint::new(0.5, 3.0, 15.0); // searching on foot
    let mut sim = Simulator::new(sim_cfg, Box::new(mobility));

    let medical = GroupId(10);
    let search = GroupId(20);

    // Initial teams.
    let members: Vec<(NodeId, GroupId)> = (0..20u32)
        .map(|i| (NodeId(i), medical))
        .chain((20..50u32).map(|i| (NodeId(i), search)))
        .collect();

    // A new survivor site is found at t = 100 s: ten searchers join the
    // medical channel; five leave the search channel at t = 140 s.
    let mut events = Vec::new();
    for i in 20..30u32 {
        events.push(GroupEvent {
            at: SimTime::from_secs(100),
            node: NodeId(i),
            group: medical,
            join: true,
        });
    }
    for i in 30..35u32 {
        events.push(GroupEvent {
            at: SimTime::from_secs(140),
            node: NodeId(i),
            group: search,
            join: false,
        });
    }

    // Coordination traffic: incident command (node 149) broadcasts on both
    // channels; early packets predate the joins, late ones follow them.
    let mut traffic = Vec::new();
    for i in 0..15 {
        traffic.push(TrafficItem {
            at: SimTime::from_secs(160 + 4 * i),
            src: NodeId(149),
            group: if i % 2 == 0 { medical } else { search },
            size: 400,
            ..Default::default()
        });
    }

    let mut proto = HvdbProtocol::new(cfg, &members, traffic, events);
    sim.run(&mut proto, SimTime::from_secs(230));

    let stats = sim.stats();
    println!("== disaster relief scenario ==");
    println!(
        "medical team grew to {} members, search shrank to {}",
        proto.group_members(medical).len(),
        proto.group_members(search).len()
    );
    println!("cluster heads   : {}", proto.cluster_heads().len());
    println!("delivery ratio  : {:.3}", stats.delivery_ratio());
    if let Some(lat) = stats.mean_latency() {
        println!("mean latency    : {:.1} ms", lat * 1e3);
    }
    println!(
        "membership bytes: mnt {} + ht {} + reports {}",
        stats.bytes("mnt-share"),
        stats.bytes("ht-bcast"),
        stats.bytes("join-report"),
    );
    println!("counters        : {:?}", proto.counters());
}
