//! # uba-adversary — Byzantine strategies for the *id-only* model
//!
//! A library of adversary strategies used to exercise the resiliency claims
//! of the algorithms in [`uba_core`]. Two families:
//!
//! - **generic** strategies that work against any protocol message type:
//!   [`ScriptedAdversary`] (announce then go silent — the minimal attack
//!   that still skews every `n_v`), [`MirrorAdversary`] (faulty nodes
//!   impersonate a correct node's behaviour), [`SplitMirrorAdversary`]
//!   (protocol-valid *equivocation*: different halves of the network see
//!   the behaviour of different correct nodes), [`CrashAdversary`] (run the
//!   real protocol, then fail-stop mid-run), and [`NoiseAdversary`]
//!   (randomized garbage at a configurable rate);
//! - **protocol-aware** attacks in [`attacks`]: candidate-set splitting and
//!   fake-candidate injection against the rotor-coordinator, value
//!   equivocation against consensus, extreme-value injection against
//!   approximate agreement.
//!
//! All strategies are deterministic per seed. Every strategy implements
//! [`uba_sim::Adversary`] and can be boxed for runtime selection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uba_sim::{
    Adversary, AdversaryOutbox, AdversaryView, Context, Dest, NodeId, Outbox, Payload, Process,
};

/// Broadcasts a fixed per-round script from every faulty node, and nothing
/// else.
///
/// The most important instance is *announce-then-vanish*: faulty nodes
/// participate in the initialization rounds (so that every correct node
/// counts them towards `n_v`) and then stay silent forever. This is the
/// minimal Byzantine behaviour that already invalidates `n_v` as a
/// consistent system size — precisely the situation the paper's `n_v/3`
/// thresholds must survive.
///
/// # Examples
///
/// ```
/// use uba_adversary::ScriptedAdversary;
/// use uba_core::consensus::ConsensusMsg;
///
/// // Announce during initialization, then vanish.
/// let adv: ScriptedAdversary<ConsensusMsg<u64>> =
///     ScriptedAdversary::new([(1, vec![ConsensusMsg::RotorInit])]);
/// # let _ = adv;
/// ```
#[derive(Debug, Clone)]
pub struct ScriptedAdversary<M> {
    script: BTreeMap<u64, Vec<M>>,
}

impl<M: Payload> ScriptedAdversary<M> {
    /// Creates the strategy from `(round, messages)` pairs.
    pub fn new<I: IntoIterator<Item = (u64, Vec<M>)>>(script: I) -> Self {
        ScriptedAdversary {
            script: script.into_iter().collect(),
        }
    }

    /// Announce with `msg` in round 1, then go silent forever.
    pub fn announce_then_vanish(msg: M) -> Self {
        Self::new([(1, vec![msg])])
    }
}

impl<M: Payload> Adversary<M> for ScriptedAdversary<M> {
    fn act(&mut self, view: &AdversaryView<'_, M>, out: &mut AdversaryOutbox<M>) {
        if let Some(msgs) = self.script.get(&view.round) {
            for &b in view.faulty.iter() {
                for m in msgs {
                    out.broadcast(b, m.clone());
                }
            }
        }
    }
}

/// Every faulty node replays, as its own, the messages the correct node
/// with the smallest id is sending this round (a rushing adversary sees
/// them first).
///
/// Mirrored nodes are indistinguishable from correct ones on the wire; the
/// attack tests that "well-behaved" Byzantine nodes cannot skew agreement
/// toward double-counted values.
#[derive(Debug, Clone, Copy, Default)]
pub struct MirrorAdversary;

impl MirrorAdversary {
    /// Creates the strategy.
    pub fn new() -> Self {
        MirrorAdversary
    }
}

impl<M: Payload> Adversary<M> for MirrorAdversary {
    fn act(&mut self, view: &AdversaryView<'_, M>, out: &mut AdversaryOutbox<M>) {
        let Some(target) = view.correct_traffic.iter().map(|(from, _)| *from).min() else {
            return;
        };
        for &b in view.faulty.iter() {
            for (from, outgoing) in view.correct_traffic {
                if *from != target {
                    continue;
                }
                match outgoing.dest {
                    Dest::Broadcast => out.broadcast(b, outgoing.msg.clone()),
                    Dest::To(t) => out.send(b, t, outgoing.msg.clone()),
                }
            }
        }
    }
}

/// Protocol-valid equivocation: to the lower half of the correct nodes (by
/// id) every faulty node replays the broadcasts of the smallest-id correct
/// node; to the upper half, those of the largest-id correct node.
///
/// Because the replayed traffic is real protocol traffic, this attack
/// produces exactly the "conflicting but plausible" views that the
/// reliable-broadcast echo thresholds and the consensus quorum-intersection
/// lemmas exist to defuse.
#[derive(Debug, Clone, Copy, Default)]
pub struct SplitMirrorAdversary;

impl SplitMirrorAdversary {
    /// Creates the strategy.
    pub fn new() -> Self {
        SplitMirrorAdversary
    }
}

impl<M: Payload> Adversary<M> for SplitMirrorAdversary {
    fn act(&mut self, view: &AdversaryView<'_, M>, out: &mut AdversaryOutbox<M>) {
        let lo_src = view.correct_traffic.iter().map(|(f, _)| *f).min();
        let hi_src = view.correct_traffic.iter().map(|(f, _)| *f).max();
        let (Some(lo_src), Some(hi_src)) = (lo_src, hi_src) else {
            return;
        };
        let correct: Vec<NodeId> = view.correct.iter().copied().collect();
        let half = correct.len() / 2;
        for &b in view.faulty.iter() {
            for (i, &recipient) in correct.iter().enumerate() {
                let src = if i < half { lo_src } else { hi_src };
                for (from, outgoing) in view.correct_traffic {
                    if *from != src {
                        continue;
                    }
                    if let Dest::Broadcast = outgoing.dest {
                        out.send(b, recipient, outgoing.msg.clone());
                    }
                }
            }
        }
    }
}

/// Faulty nodes run the *real* protocol (indistinguishable from correct
/// nodes) and fail-stop at a configured round.
///
/// This is the classic crash-fault injection: the paper's model subsumes
/// crashes, and the agreement properties must hold regardless of when the
/// crashes happen.
pub struct CrashAdversary<P: Process> {
    processes: BTreeMap<NodeId, P>,
    crash_round: u64,
}

impl<P: Process> CrashAdversary<P> {
    /// Creates the strategy from the faulty nodes' protocol instances and
    /// the round in which they all stop.
    pub fn new<I: IntoIterator<Item = P>>(processes: I, crash_round: u64) -> Self {
        CrashAdversary {
            processes: processes.into_iter().map(|p| (p.id(), p)).collect(),
            crash_round,
        }
    }
}

impl<P: Process> std::fmt::Debug for CrashAdversary<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrashAdversary")
            .field("crash_round", &self.crash_round)
            .field("nodes", &self.processes.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl<P: Process> Adversary<P::Msg> for CrashAdversary<P> {
    fn act(&mut self, view: &AdversaryView<'_, P::Msg>, out: &mut AdversaryOutbox<P::Msg>) {
        if view.round >= self.crash_round {
            return;
        }
        for (&id, process) in self.processes.iter_mut() {
            if !view.faulty.contains(&id) {
                continue;
            }
            // Deliberately not `uba_sim::Stepper`: a Byzantine node running
            // the real protocol is not bound by "a terminated node leaves
            // the computation" and keeps being stepped until it crashes;
            // T3b and `tests/consensus_matrix.rs` pin that traffic.
            let inbox = view.inbox_of(id);
            let mut outbox = Outbox::new();
            process.on_round(&mut Context::new(view.round, inbox, &mut outbox));
            for outgoing in outbox.drain() {
                match outgoing.dest {
                    Dest::Broadcast => out.broadcast(id, outgoing.msg),
                    Dest::To(t) => out.send(id, t, outgoing.msg),
                }
            }
        }
    }
}

/// Replays stale traffic: every faulty node records everything the correct
/// nodes broadcast and re-broadcasts it `lag` rounds later, as its own.
///
/// The model explicitly allows Byzantine nodes to "send duplicate messages
/// across rounds"; replay attacks old quorum evidence at the wrong time —
/// e.g. phase-1 `input` messages during phase 3 of consensus, or stale
/// rotor echoes — and the per-round counting of the algorithms must ignore
/// it.
#[derive(Debug, Clone)]
pub struct ReplayAdversary<M> {
    lag: u64,
    /// Recorded broadcasts by round.
    history: BTreeMap<u64, Vec<M>>,
}

impl<M: Payload> ReplayAdversary<M> {
    /// Creates the strategy replaying traffic `lag ≥ 1` rounds late.
    ///
    /// # Panics
    ///
    /// Panics if `lag` is 0 (that would be mirroring, not replaying).
    pub fn new(lag: u64) -> Self {
        assert!(lag >= 1, "replay lag must be at least 1 round");
        ReplayAdversary {
            lag,
            history: BTreeMap::new(),
        }
    }
}

impl<M: Payload> Adversary<M> for ReplayAdversary<M> {
    fn act(&mut self, view: &AdversaryView<'_, M>, out: &mut AdversaryOutbox<M>) {
        let recorded: Vec<M> = view
            .correct_traffic
            .iter()
            .filter(|(_, o)| matches!(o.dest, Dest::Broadcast))
            .map(|(_, o)| o.msg.clone())
            .collect();
        self.history.insert(view.round, recorded);
        if let Some(stale) = view
            .round
            .checked_sub(self.lag)
            .and_then(|r| self.history.remove(&r))
        {
            for &b in view.faulty.iter() {
                for msg in &stale {
                    out.broadcast(b, msg.clone());
                }
            }
        }
    }
}

/// Randomized garbage: each faulty node broadcasts `per_round` messages
/// drawn from a generator closure every round. Deterministic per seed.
pub struct NoiseAdversary<M, F> {
    generate: F,
    per_round: usize,
    rng: StdRng,
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M: Payload, F: FnMut(&mut StdRng, u64) -> M> NoiseAdversary<M, F> {
    /// Creates the strategy with a message generator, a per-node-per-round
    /// message budget, and a seed.
    pub fn new(generate: F, per_round: usize, seed: u64) -> Self {
        NoiseAdversary {
            generate,
            per_round,
            rng: StdRng::seed_from_u64(seed),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<M: Payload, F> std::fmt::Debug for NoiseAdversary<M, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NoiseAdversary")
            .field("per_round", &self.per_round)
            .finish_non_exhaustive()
    }
}

impl<M: Payload, F: FnMut(&mut StdRng, u64) -> M> Adversary<M> for NoiseAdversary<M, F> {
    fn act(&mut self, view: &AdversaryView<'_, M>, out: &mut AdversaryOutbox<M>) {
        let faulty: Vec<NodeId> = view.faulty.iter().copied().collect();
        let correct: Vec<NodeId> = view.correct.iter().copied().collect();
        if correct.is_empty() {
            return;
        }
        for &b in &faulty {
            for _ in 0..self.per_round {
                let msg = (self.generate)(&mut self.rng, view.round);
                if self.rng.gen_bool(0.5) {
                    out.broadcast(b, msg);
                } else {
                    let to = correct[self.rng.gen_range(0..correct.len())];
                    out.send(b, to, msg);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_core::consensus::{ConsensusMsg, EarlyConsensus};
    use uba_core::harness::{assert_agreement, Setup};
    use uba_sim::SyncEngine;

    fn consensus_under<A: Adversary<ConsensusMsg<u64>>>(
        setup: &Setup,
        adversary: A,
        max_rounds: u64,
    ) -> u64 {
        let mut engine = SyncEngine::builder()
            .correct_many(
                setup
                    .correct
                    .iter()
                    .enumerate()
                    .map(|(i, &id)| EarlyConsensus::new(id, (i % 2) as u64)),
            )
            .faulty_many(setup.faulty.iter().copied())
            .adversary(adversary)
            .build();
        let done = engine
            .run_to_completion(max_rounds)
            .expect("consensus terminates under attack");
        assert_agreement(&done.outputs)
    }

    #[test]
    fn consensus_survives_announce_then_vanish() {
        let setup = Setup::new(7, 2, 1);
        let v = consensus_under(
            &setup,
            ScriptedAdversary::announce_then_vanish(ConsensusMsg::RotorInit),
            200,
        );
        assert!(v < 2);
    }

    #[test]
    fn consensus_survives_mirror() {
        let setup = Setup::new(7, 2, 2);
        let v = consensus_under(&setup, MirrorAdversary::new(), 200);
        assert!(v < 2);
    }

    #[test]
    fn consensus_survives_split_mirror() {
        for seed in 0..4 {
            let setup = Setup::new(7, 2, seed);
            let v = consensus_under(&setup, SplitMirrorAdversary::new(), 400);
            assert!(v < 2, "seed {seed}");
        }
    }

    #[test]
    fn consensus_survives_crashes() {
        let setup = Setup::new(7, 2, 3);
        let crash = CrashAdversary::new(
            setup.faulty.iter().map(|&id| EarlyConsensus::new(id, 1u64)),
            9,
        );
        let v = consensus_under(&setup, crash, 200);
        assert!(v < 2);
    }

    #[test]
    fn consensus_survives_noise() {
        let setup = Setup::new(7, 2, 4);
        let noise = NoiseAdversary::new(
            |rng: &mut StdRng, _round| {
                if rng.gen_bool(0.5) {
                    ConsensusMsg::Input(rng.gen_range(0..2))
                } else {
                    ConsensusMsg::StrongPrefer(rng.gen_range(0..2))
                }
            },
            3,
            99,
        );
        let v = consensus_under(&setup, noise, 200);
        assert!(v < 2);
    }

    #[test]
    fn consensus_survives_replay() {
        for lag in [1u64, 3, 5] {
            let setup = Setup::new(7, 2, 6 + lag);
            let v = consensus_under(&setup, ReplayAdversary::new(lag), 200);
            assert!(v < 2, "lag {lag}");
        }
    }

    #[test]
    #[should_panic(expected = "replay lag must be at least 1")]
    fn replay_rejects_zero_lag() {
        let _: ReplayAdversary<u8> = ReplayAdversary::new(0);
    }

    #[test]
    fn boxed_strategies_can_be_selected_at_runtime() {
        let setup = Setup::new(4, 1, 5);
        let strategies: Vec<Box<dyn Adversary<ConsensusMsg<u64>>>> = vec![
            Box::new(MirrorAdversary::new()),
            Box::new(SplitMirrorAdversary::new()),
        ];
        for adv in strategies {
            let v = consensus_under(&setup, adv, 300);
            assert!(v < 2);
        }
    }
}
