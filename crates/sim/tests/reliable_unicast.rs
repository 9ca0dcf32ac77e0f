//! `ParCtx::send_reliable` under hostile loss: the MAC retry loop must be
//! bounded, exhaustion must be visible as its own drop counter, and the
//! per-attempt accounting must stay consistent with the retry budget.

use hvdb_geo::{Point, Vec2};
use hvdb_sim::{
    NodeId, ParCtx, ParProtocol, ParSimulator, RadioConfig, SimConfig, SimDuration, SimTime,
    Stationary, World,
};

/// Sends one reliable frame from node 0 to node 1 at start; node 0 records
/// the outcome, node 1 counts receptions.
struct OneShot;

#[derive(Default)]
struct Outcome {
    send_ok: Option<bool>,
    received: u32,
}

impl ParProtocol for OneShot {
    type Msg = &'static str;
    type Node = Outcome;

    fn make_node(&self, _id: NodeId, _world: &World) -> Outcome {
        Outcome::default()
    }

    fn on_start(&self, id: NodeId, node: &mut Outcome, ctx: &mut ParCtx<'_, &'static str>) {
        if id == NodeId(0) {
            node.send_ok = Some(ctx.send_reliable(id, NodeId(1), "payload", 200, "payload"));
        }
    }

    fn on_message(
        &self,
        _id: NodeId,
        node: &mut Outcome,
        _from: NodeId,
        _msg: &'static str,
        _ctx: &mut ParCtx<'_, &'static str>,
    ) {
        node.received += 1;
    }

    fn on_timer(
        &self,
        _id: NodeId,
        _node: &mut Outcome,
        _tag: u64,
        _ctx: &mut ParCtx<'_, &'static str>,
    ) {
    }
}

type Sim = ParSimulator<Outcome, &'static str>;

/// Runs [`OneShot`] for 5 s; returns node 0's send result and node 1's
/// reception count.
fn run(sim: &mut Sim) -> (Option<bool>, u32) {
    sim.run(&OneShot, SimTime::from_secs(5));
    (
        sim.node_state(NodeId(0)).unwrap().send_ok,
        sim.node_state(NodeId(1)).unwrap().received,
    )
}

fn sim_with(radio: RadioConfig) -> Sim {
    let cfg = SimConfig {
        num_nodes: 2,
        radio,
        mobility_tick: SimDuration::ZERO,
        ..Default::default()
    };
    let mut sim = ParSimulator::new(cfg, Box::new(Stationary), 2, 1);
    sim.world_mut()
        .set_motion(NodeId(0), Point::new(0.0, 0.0), Vec2::ZERO);
    sim.world_mut()
        .set_motion(NodeId(1), Point::new(100.0, 0.0), Vec2::ZERO);
    sim.world_mut().rebuild_index();
    sim
}

#[test]
fn retry_exhaustion_increments_drop_counter_and_terminates() {
    let retries = 3u32;
    let mut sim = sim_with(RadioConfig {
        loss_prob: 1.0, // every attempt lost: the budget must run out
        mac_retries: retries,
        ..Default::default()
    });
    let (send_ok, received) = run(&mut sim);
    assert_eq!(send_ok, Some(false), "exhausted send must report failure");
    assert_eq!(received, 0);
    // Exactly one permanent loss, after exactly 1 + mac_retries attempts —
    // the loop is bounded by the budget, it never re-queues itself.
    assert_eq!(sim.stats().drops_retry_exhausted, 1);
    assert_eq!(sim.stats().drops_loss, (1 + retries) as u64);
    assert_eq!(sim.stats().msgs("payload"), (1 + retries) as u64);
    // Every attempt occupied the radio and was charged to the sender.
    assert_eq!(sim.stats().node_tx_msgs[0], (1 + retries) as u64);
    assert_eq!(sim.stats().node_tx_bytes[0], (1 + retries) as u64 * 200);
}

#[test]
fn zero_retry_budget_fails_after_single_attempt() {
    let mut sim = sim_with(RadioConfig {
        loss_prob: 1.0,
        mac_retries: 0,
        ..Default::default()
    });
    let (send_ok, _) = run(&mut sim);
    assert_eq!(send_ok, Some(false));
    assert_eq!(sim.stats().drops_retry_exhausted, 1);
    assert_eq!(sim.stats().drops_loss, 1);
    assert_eq!(sim.stats().msgs("payload"), 1);
}

#[test]
fn successful_delivery_does_not_touch_exhaustion_counter() {
    let mut sim = sim_with(RadioConfig {
        loss_prob: 0.0,
        mac_retries: 3,
        ..Default::default()
    });
    let (send_ok, received) = run(&mut sim);
    assert_eq!(send_ok, Some(true));
    assert_eq!(received, 1);
    assert_eq!(sim.stats().drops_retry_exhausted, 0);
    assert_eq!(sim.stats().msgs("payload"), 1);
}

#[test]
fn out_of_range_is_not_a_retry_exhaustion() {
    let mut sim = sim_with(RadioConfig {
        loss_prob: 1.0,
        mac_retries: 3,
        range: 50.0, // nodes are 100 m apart: unreachable
        ..Default::default()
    });
    let (send_ok, _) = run(&mut sim);
    assert_eq!(send_ok, Some(false));
    // No MAC attempt can fix out-of-range: no retries, no exhaustion.
    assert_eq!(sim.stats().drops_retry_exhausted, 0);
    assert_eq!(sim.stats().drops_out_of_range, 1);
    assert_eq!(sim.stats().msgs("payload"), 1);
}
