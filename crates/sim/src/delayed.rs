//! Semi-synchronous / asynchronous execution.
//!
//! The paper proves that without knowledge of `n` and `f`, agreement is
//! impossible (even with probabilistic termination) once message delays are
//! not common knowledge: in an asynchronous system delays are unbounded; in
//! a semi-synchronous system they are bounded by some `Δ` that the nodes do
//! not know. The [`DelayedEngine`] realizes both settings over the same
//! [`Process`] trait: time advances in *ticks*, a [`DelayModel`] assigns each
//! message a delivery delay, and every node is stepped once per tick with
//! whatever happened to arrive. A synchronous round is the special case
//! where every delay is 1.
//!
//! The impossibility *scenarios* (partitioned executions à la the paper's
//! indistinguishability arguments) are constructed in
//! `uba-core::lower_bounds` on top of this engine.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use uba_trace::{NoopTracer, TraceEvent, Tracer};

use crate::engine::{Completion, EngineError};
use crate::id::NodeId;
use crate::message::{Dest, Envelope, MsgRef, Outgoing};
use crate::process::{Process, Stepper};
use crate::stats::Stats;

/// Deliveries scheduled per tick: `(recipient, envelope)` pairs.
type PendingDeliveries<M> = BTreeMap<u64, Vec<(NodeId, Envelope<M>)>>;

/// Assigns a delivery delay (in ticks, at least 1) to every message.
pub trait DelayModel {
    /// Delay for a message sent at `tick` from `from` to `to`.
    ///
    /// Implementations must return at least 1; the engine clamps 0 to 1.
    fn delay(&mut self, from: NodeId, to: NodeId, tick: u64) -> u64;
}

/// Every message takes exactly the same number of ticks.
///
/// `FixedDelay(1)` makes the delayed engine behave like the synchronous one.
#[derive(Debug, Clone, Copy)]
pub struct FixedDelay(pub u64);

impl DelayModel for FixedDelay {
    fn delay(&mut self, _from: NodeId, _to: NodeId, _tick: u64) -> u64 {
        self.0.max(1)
    }
}

/// Uniformly random delays in `[min, max]`, deterministic per seed.
#[derive(Debug, Clone)]
pub struct UniformDelay {
    min: u64,
    max: u64,
    rng: StdRng,
}

impl UniformDelay {
    /// Creates a model with delays uniform in `[min.max(1), max]`.
    ///
    /// # Panics
    ///
    /// Panics if `max < min`.
    pub fn new(min: u64, max: u64, seed: u64) -> Self {
        assert!(max >= min, "max delay must be >= min delay");
        UniformDelay {
            min: min.max(1),
            max: max.max(1),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl DelayModel for UniformDelay {
    fn delay(&mut self, _from: NodeId, _to: NodeId, _tick: u64) -> u64 {
        self.rng.gen_range(self.min..=self.max)
    }
}

/// Partition-shaped delays: fast within a group, slow (or practically
/// unbounded) across groups.
///
/// This is the delay structure used by both impossibility arguments: the
/// adversarial scheduler delays all cross-partition messages long enough for
/// each side to decide on its own.
#[derive(Debug, Clone)]
pub struct PartitionDelay {
    group_of: BTreeMap<NodeId, usize>,
    intra: u64,
    cross: u64,
}

impl PartitionDelay {
    /// Creates a partition model. Nodes in the same group communicate with
    /// delay `intra`; messages between groups take `cross` ticks. Unknown
    /// nodes default to group 0.
    pub fn new(groups: &[Vec<NodeId>], intra: u64, cross: u64) -> Self {
        let mut group_of = BTreeMap::new();
        for (g, members) in groups.iter().enumerate() {
            for &m in members {
                group_of.insert(m, g);
            }
        }
        PartitionDelay {
            group_of,
            intra: intra.max(1),
            cross: cross.max(1),
        }
    }

    fn group(&self, id: NodeId) -> usize {
        self.group_of.get(&id).copied().unwrap_or(0)
    }
}

impl DelayModel for PartitionDelay {
    fn delay(&mut self, from: NodeId, to: NodeId, _tick: u64) -> u64 {
        if self.group(from) == self.group(to) {
            self.intra
        } else {
            self.cross
        }
    }
}

/// Drives processes under a [`DelayModel`]: semi-synchrony or asynchrony.
///
/// All nodes are correct here — the impossibility constructions in the paper
/// need no Byzantine nodes, only adversarial scheduling.
pub struct DelayedEngine<P: Process, D> {
    nodes: BTreeMap<NodeId, Stepper<P>>,
    /// tick -> deliveries due at that tick.
    pending: PendingDeliveries<P::Msg>,
    delay: D,
    tick: u64,
    stats: Stats,
    tracer: Box<dyn Tracer>,
}

impl<P: Process, D: DelayModel> DelayedEngine<P, D> {
    /// Creates an engine over `nodes` with the given delay model.
    ///
    /// # Panics
    ///
    /// Panics if two processes share an id.
    pub fn new<I: IntoIterator<Item = P>>(nodes: I, delay: D) -> Self {
        let mut map = BTreeMap::new();
        for p in nodes {
            let id = p.id();
            let fresh = map.insert(id, Stepper::new(p)).is_none();
            assert!(fresh, "duplicate node id {id}");
        }
        DelayedEngine {
            nodes: map,
            pending: BTreeMap::new(),
            delay,
            tick: 0,
            stats: Stats::new(),
            tracer: Box::new(NoopTracer),
        }
    }

    /// Installs a structured event tracer (default: no-op). Ticks map onto
    /// the trace vocabulary's rounds; a [`TraceEvent::Deliver`] here carries
    /// the **arrival** tick, since with arbitrary delays the send tick is a
    /// property of the matching [`TraceEvent::Send`], not of the delivery.
    pub fn with_tracer<T: Tracer + 'static>(mut self, tracer: T) -> Self {
        self.tracer = Box::new(tracer);
        self
    }

    /// Completed ticks.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Outputs produced so far.
    pub fn outputs(&self) -> BTreeMap<NodeId, P::Output> {
        self.nodes
            .iter()
            .filter_map(|(id, n)| n.process().output().map(|o| (*id, o)))
            .collect()
    }

    /// Present nodes that have not terminated, in id order.
    fn undecided(&self) -> impl Iterator<Item = NodeId> + '_ {
        let nodes = self.nodes.iter();
        nodes.filter_map(|(id, n)| n.decided_round().is_none().then_some(*id))
    }

    /// Whether every node has terminated.
    pub fn all_decided(&self) -> bool {
        self.undecided().next().is_none()
    }

    /// Removes a node from the system, returning its process.
    ///
    /// Messages already in flight toward the removed node are silently
    /// dropped on arrival, matching a departure in the churn model. Stepping
    /// the removed node afterwards (via [`step_node`](Self::step_node)) is a
    /// typed [`EngineError::MissingNode`], not a panic.
    pub fn remove(&mut self, id: NodeId) -> Option<P> {
        self.nodes.remove(&id).map(Stepper::into_process)
    }

    /// Steps a single node with an empty inbox, at the current tick — or at
    /// tick 1 if the engine has not executed any tick yet (ticks are
    /// 1-based, so a pre-run `step_node` is recorded against the first
    /// tick, not a phantom tick 0).
    ///
    /// Scenario drivers use this to advance one side of a partition without
    /// ticking the whole system.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::MissingNode`] if `id` is not present (e.g.
    /// after [`remove`](Self::remove)).
    pub fn step_node(&mut self, id: NodeId) -> Result<(), EngineError> {
        self.step_node_at(self.tick.max(1), id, Vec::new())
    }

    /// [Steps](Stepper::step) one node and schedules its sends. The single
    /// place that touches `self.nodes` mutably, so "node absent" surfaces as
    /// the sync engine's typed [`EngineError::MissingNode`] taxonomy.
    fn step_node_at(
        &mut self,
        tick: u64,
        id: NodeId,
        inbox: Vec<Envelope<P::Msg>>,
    ) -> Result<(), EngineError> {
        let node = self.nodes.get_mut(&id).ok_or(EngineError::MissingNode {
            round: tick,
            node: id,
        })?;
        let sends = node.step(tick, &inbox);
        let present: Vec<NodeId> = self.nodes.keys().copied().collect();
        for out in sends {
            self.stats.record_send(false);
            if self.tracer.enabled() {
                self.tracer.record(out.send_event(tick, id, false));
            }
            // Wrap once per send: every scheduled delivery (all broadcast
            // targets, whatever their delays) shares one payload allocation.
            let Outgoing { dest, msg } = out;
            let msg = MsgRef::new(msg);
            let targets: Vec<NodeId> = match dest {
                Dest::Broadcast => present.clone(),
                Dest::To(t) => vec![t],
            };
            for to in targets {
                let d = self.delay.delay(id, to, tick).max(1);
                self.pending
                    .entry(tick + d)
                    .or_default()
                    .push((to, Envelope::from_shared(id, msg.clone())));
            }
        }
        Ok(())
    }

    /// Executes one tick.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::MissingNode`] if a node disappears while the
    /// tick is in flight (defensive; [`remove`](Self::remove) between ticks
    /// is fine and simply excludes the node).
    pub fn try_run_tick(&mut self) -> Result<(), EngineError> {
        let tick = self.tick + 1;
        self.tick = tick;
        self.stats.begin_round();
        if self.tracer.enabled() {
            self.tracer.record(TraceEvent::RoundBegin { round: tick });
        }

        let due = self.pending.remove(&tick).unwrap_or_default();
        let mut inboxes: BTreeMap<NodeId, Vec<Envelope<P::Msg>>> = BTreeMap::new();
        for (to, env) in due {
            let node = self.nodes.get(&to);
            if node.is_some_and(|n| n.decided_round().is_none()) {
                self.stats.record_deliveries(false, 1);
                if self.tracer.enabled() {
                    self.tracer.record(TraceEvent::deliver(
                        tick,
                        env.from.raw(),
                        to.raw(),
                        env.msg(),
                        false,
                    ));
                }
                inboxes.entry(to).or_default().push(env);
            }
        }

        let ids: Vec<NodeId> = self.nodes.keys().copied().collect();
        for id in ids {
            let inbox = inboxes.remove(&id).unwrap_or_default();
            self.step_node_at(tick, id, inbox)?;
        }
        if self.tracer.enabled() {
            let deliveries = self.stats.deliveries_by_round.last().copied().unwrap_or(0);
            self.tracer.record(TraceEvent::RoundEnd {
                round: tick,
                deliveries,
            });
        }
        Ok(())
    }

    /// Executes one tick.
    ///
    /// # Panics
    ///
    /// Panics on the (unreachable in normal use) errors surfaced by
    /// [`try_run_tick`](Self::try_run_tick).
    pub fn run_tick(&mut self) {
        self.try_run_tick().expect("tick failed");
    }

    /// Executes `count` ticks.
    pub fn run_ticks(&mut self, count: u64) {
        for _ in 0..count {
            self.run_tick();
        }
    }

    /// Runs until every node terminated or the tick budget runs out.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::MaxRoundsExceeded`] when the budget is
    /// exhausted first.
    pub fn run_to_completion(
        &mut self,
        max_ticks: u64,
    ) -> Result<Completion<P::Output>, EngineError> {
        while !self.all_decided() {
            if self.tick >= max_ticks {
                return Err(EngineError::MaxRoundsExceeded {
                    round: self.tick,
                    undecided: self.undecided().collect(),
                });
            }
            self.try_run_tick()?;
        }
        Ok(Completion {
            outputs: self.outputs(),
            decided_round: self
                .nodes
                .iter()
                .filter_map(|(id, n)| Some((*id, n.decided_round()?)))
                .collect(),
            stats: self.stats.clone(),
        })
    }
}

impl<P: Process, D> std::fmt::Debug for DelayedEngine<P, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DelayedEngine")
            .field("tick", &self.tick)
            .field("nodes", &self.nodes.keys().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::CollectAll;

    #[test]
    fn fixed_delay_one_matches_synchrony() {
        let mut engine = DelayedEngine::new(
            [
                CollectAll::new(NodeId::new(1), 2),
                CollectAll::new(NodeId::new(2), 2),
            ],
            FixedDelay(1),
        );
        let done = engine.run_to_completion(10).expect("completes");
        for (_, heard) in done.outputs {
            assert_eq!(heard.len(), 2, "both broadcasts arrive at tick 2");
        }
    }

    /// Broadcasts in round 1 and terminates in round 3; answers
    /// `terminated()` from a flag and counts every `output()` call.
    struct CountsOutputs {
        id: NodeId,
        done: bool,
        output_calls: std::rc::Rc<std::cell::Cell<u64>>,
    }

    impl Process for CountsOutputs {
        type Msg = u64;
        type Output = ();

        fn id(&self) -> NodeId {
            self.id
        }

        fn on_round(&mut self, ctx: &mut crate::Context<'_, u64>) {
            if ctx.round() == 1 {
                ctx.broadcast(self.id.raw());
            }
            self.done = ctx.round() == 3;
        }

        fn output(&self) -> Option<()> {
            self.output_calls.set(self.output_calls.get() + 1);
            self.done.then_some(())
        }

        fn terminated(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn only_outputs_builds_an_output() {
        // `output()` may clone a whole log; the engine must ask
        // `terminated()` — not once per delivered envelope, not at all.
        let output_calls = std::rc::Rc::new(std::cell::Cell::new(0));
        let nodes = [1, 2, 3].map(|raw| CountsOutputs {
            id: NodeId::new(raw),
            done: false,
            output_calls: std::rc::Rc::clone(&output_calls),
        });
        let mut engine = DelayedEngine::new(nodes, FixedDelay(1));
        engine.run_ticks(2);
        assert_eq!(engine.stats().deliveries, 9, "envelopes were delivered");
        assert!(!engine.all_decided());
        assert_eq!(output_calls.get(), 0);
        let done = engine.run_to_completion(10).expect("completes");
        assert_eq!(done.outputs.len(), 3);
        assert_eq!(output_calls.get(), 3, "one per node, from `outputs()`");
    }

    #[test]
    fn partition_delays_cross_messages() {
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let mut engine = DelayedEngine::new(
            [CollectAll::new(a, 3), CollectAll::new(b, 3)],
            PartitionDelay::new(&[vec![a], vec![b]], 1, 100),
        );
        let done = engine.run_to_completion(10).expect("completes");
        // Each node only hears itself by tick 3; the cross message is still
        // in flight.
        for (id, heard) in done.outputs {
            assert_eq!(heard.len(), 1);
            assert_eq!(heard[0].from, id);
        }
    }

    #[test]
    fn uniform_delay_is_deterministic_per_seed() {
        let mut m1 = UniformDelay::new(1, 5, 9);
        let mut m2 = UniformDelay::new(1, 5, 9);
        for i in 0..32 {
            assert_eq!(
                m1.delay(NodeId::new(1), NodeId::new(2), i),
                m2.delay(NodeId::new(1), NodeId::new(2), i)
            );
        }
    }

    #[test]
    fn zero_delay_is_clamped() {
        let mut m = FixedDelay(0);
        assert_eq!(m.delay(NodeId::new(1), NodeId::new(2), 1), 1);
    }

    #[test]
    fn stepping_a_removed_node_is_a_typed_error() {
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let mut engine = DelayedEngine::new(
            [CollectAll::new(a, 4), CollectAll::new(b, 4)],
            FixedDelay(1),
        );
        engine.run_tick();
        let removed = engine.remove(a);
        assert!(removed.is_some());
        match engine.step_node(a) {
            Err(EngineError::MissingNode { node, .. }) => assert_eq!(node, a),
            other => panic!("expected MissingNode, got {other:?}"),
        }
        // The surviving node keeps running; in-flight messages to the
        // removed node are dropped, not delivered and not a panic.
        engine.run_ticks(3);
        assert!(engine.remove(a).is_none(), "already removed");
    }

    #[test]
    fn tracer_sees_sends_and_arrival_tick_deliveries() {
        use uba_trace::{RingTracer, SharedTracer, TraceEvent};
        let handle = SharedTracer::new(RingTracer::new(256));
        let mut engine = DelayedEngine::new(
            [
                CollectAll::new(NodeId::new(1), 4),
                CollectAll::new(NodeId::new(2), 4),
            ],
            FixedDelay(2),
        )
        .with_tracer(handle.clone());
        engine.run_ticks(4);
        handle.with(|ring| {
            let sends: Vec<u64> = ring
                .events()
                .filter(|e| matches!(e, TraceEvent::Send { .. }))
                .map(|e| e.round())
                .collect();
            assert_eq!(sends, vec![1, 1], "both nodes broadcast at tick 1");
            let delivers: Vec<u64> = ring
                .events()
                .filter(|e| matches!(e, TraceEvent::Deliver { .. }))
                .map(|e| e.round())
                .collect();
            assert_eq!(delivers, vec![3, 3, 3, 3], "delay 2: arrival at tick 3");
        });
    }
}
