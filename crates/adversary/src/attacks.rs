//! Protocol-aware attacks targeting specific algorithms of the paper.
//!
//! Each attack aims at the exact mechanism whose robustness the paper
//! proves: candidate-set relay in the rotor-coordinator, quorum
//! intersection in consensus, the `⌊n_v/3⌋` trimming in approximate
//! agreement. The integration tests and the resiliency experiment (T6) run
//! every algorithm against its matching attack, both below and above the
//! `n > 3f` threshold.

use rand::rngs::StdRng;
use rand::SeedableRng;
use uba_sim::{Adversary, AdversaryOutbox, AdversaryView, NodeId, Payload};

use uba_core::consensus::{phase_of_round, ConsensusMsg, INIT_ROUNDS};
use uba_core::rotor::RotorMsg;
use uba_core::value::{OrderedF64, Value};

/// Attacks the rotor-coordinator's candidate-set consistency: each faulty
/// node announces itself (`init`) to only the lower half of the correct
/// nodes, so its echo support hovers around the `n_v/3` threshold and
/// candidate sets momentarily diverge — the situation Lemma `rc-relay` must
/// repair within one round.
#[derive(Debug, Clone, Copy, Default)]
pub struct RotorSplitAdversary;

impl RotorSplitAdversary {
    /// Creates the attack.
    pub fn new() -> Self {
        RotorSplitAdversary
    }
}

impl<V: Value> Adversary<RotorMsg<V>> for RotorSplitAdversary {
    fn act(
        &mut self,
        view: &AdversaryView<'_, RotorMsg<V>>,
        out: &mut AdversaryOutbox<RotorMsg<V>>,
    ) {
        let correct: Vec<NodeId> = view.correct.iter().copied().collect();
        let half = correct.len() / 2 + 1;
        match view.round {
            1 => {
                for &b in view.faulty.iter() {
                    for &to in correct.iter().take(half) {
                        out.send(b, to, RotorMsg::Init);
                    }
                }
            }
            _ => {
                // Keep echoing our own candidacies to the same half so that
                // the half keeps them near the threshold.
                for &b in view.faulty.iter() {
                    for &other in view.faulty.iter() {
                        for &to in correct.iter().take(half) {
                            out.send(b, to, RotorMsg::Echo(other));
                        }
                    }
                }
            }
        }
    }
}

/// Injects echoes for identifiers that do not exist: the paper's model
/// explicitly allows a Byzantine node to "claim to have received messages
/// from other, possibly non-existent, nodes". Ghost candidates that make it
/// into `C_v` are selected as coordinators and stay silent, wasting phases —
/// but never breaking agreement.
#[derive(Debug, Clone)]
pub struct GhostCandidateAdversary {
    ghosts: Vec<NodeId>,
    /// Echo the ghosts during rounds `2..=until_round`.
    until_round: u64,
}

impl GhostCandidateAdversary {
    /// Creates the attack with `count` ghost identifiers echoed up to
    /// `until_round`, deterministically derived from `seed`.
    pub fn new(count: usize, until_round: u64, seed: u64) -> Self {
        // Ghost ids must not collide with real ones; sample from a
        // dedicated seed stream.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6A09_E667_F3BC_C908);
        let ghosts = (0..count)
            .map(|_| NodeId::new(rand::Rng::gen(&mut rng)))
            .collect();
        GhostCandidateAdversary {
            ghosts,
            until_round,
        }
    }

    /// The ghost identifiers used by the attack.
    pub fn ghosts(&self) -> &[NodeId] {
        &self.ghosts
    }

    fn echo<M: Payload>(
        &self,
        view: &AdversaryView<'_, M>,
        out: &mut AdversaryOutbox<M>,
        wrap: impl Fn(NodeId) -> M,
    ) {
        if view.round < 2 || view.round > self.until_round {
            return;
        }
        for &b in view.faulty.iter() {
            for &g in &self.ghosts {
                out.broadcast(b, wrap(g));
            }
        }
    }
}

impl<V: Value> Adversary<RotorMsg<V>> for GhostCandidateAdversary {
    fn act(
        &mut self,
        view: &AdversaryView<'_, RotorMsg<V>>,
        out: &mut AdversaryOutbox<RotorMsg<V>>,
    ) {
        if view.round == 1 {
            for &b in view.faulty.iter() {
                out.broadcast(b, RotorMsg::Init);
            }
        }
        self.echo(view, out, RotorMsg::Echo);
    }
}

impl<V: Value> Adversary<ConsensusMsg<V>> for GhostCandidateAdversary {
    fn act(
        &mut self,
        view: &AdversaryView<'_, ConsensusMsg<V>>,
        out: &mut AdversaryOutbox<ConsensusMsg<V>>,
    ) {
        if view.round == 1 {
            for &b in view.faulty.iter() {
                out.broadcast(b, ConsensusMsg::RotorInit);
            }
        }
        self.echo(view, out, ConsensusMsg::RotorEcho);
    }
}

/// Full-strength equivocation against the `O(f)` consensus: the faulty
/// nodes participate in initialization, then in every phase tell the lower
/// half of the correct nodes they hold value `a` (input/prefer/strongprefer
/// and, if selected coordinator, opinion) and the upper half value `b`.
///
/// This drives the quorum-intersection lemmas (`rn-g1`, `rn-g2`, `quorum`)
/// to their tight cases; with `n > 3f` agreement must still hold.
#[derive(Debug, Clone)]
pub struct ConsensusEquivocator<V> {
    a: V,
    b: V,
}

impl<V: Value> ConsensusEquivocator<V> {
    /// Creates the attack pushing `a` to the lower half and `b` to the
    /// upper half of the correct nodes.
    pub fn new(a: V, b: V) -> Self {
        ConsensusEquivocator { a, b }
    }

    fn split_send(
        &self,
        view: &AdversaryView<'_, ConsensusMsg<V>>,
        out: &mut AdversaryOutbox<ConsensusMsg<V>>,
        make: impl Fn(V) -> ConsensusMsg<V>,
    ) {
        let correct: Vec<NodeId> = view.correct.iter().copied().collect();
        let half = correct.len() / 2;
        for &byz in view.faulty.iter() {
            for (i, &to) in correct.iter().enumerate() {
                let v = if i < half {
                    self.a.clone()
                } else {
                    self.b.clone()
                };
                out.send(byz, to, make(v));
            }
        }
    }
}

impl<V: Value> Adversary<ConsensusMsg<V>> for ConsensusEquivocator<V> {
    fn act(
        &mut self,
        view: &AdversaryView<'_, ConsensusMsg<V>>,
        out: &mut AdversaryOutbox<ConsensusMsg<V>>,
    ) {
        if view.round <= INIT_ROUNDS {
            if view.round == 1 {
                for &b in view.faulty.iter() {
                    out.broadcast(b, ConsensusMsg::RotorInit);
                }
            }
            return;
        }
        let (_phase, phase_round) = phase_of_round(view.round);
        match phase_round {
            1 => self.split_send(view, out, ConsensusMsg::Input),
            2 => self.split_send(view, out, ConsensusMsg::Prefer),
            3 => self.split_send(view, out, ConsensusMsg::StrongPrefer),
            4 => {
                // If a faulty node has been selected coordinator by anyone,
                // its opinion equivocates too.
                self.split_send(view, out, ConsensusMsg::Opinion);
            }
            _ => {}
        }
    }
}

/// Attacks approximate agreement with coordinated extremes: every faulty
/// node sends a huge value to the lower half of the correct nodes and a
/// tiny value to the upper half, trying to drag the two halves apart. The
/// `⌊n_v/3⌋` trimming must discard all of it when `n > 3f`.
#[derive(Debug, Clone, Copy)]
pub struct ApproxExtremist {
    magnitude: f64,
}

impl ApproxExtremist {
    /// Creates the attack with the given magnitude (e.g. `1e12`).
    ///
    /// # Panics
    ///
    /// Panics if `magnitude` is NaN.
    pub fn new(magnitude: f64) -> Self {
        assert!(!magnitude.is_nan(), "magnitude must not be NaN");
        ApproxExtremist { magnitude }
    }
}

impl Adversary<OrderedF64> for ApproxExtremist {
    fn act(&mut self, view: &AdversaryView<'_, OrderedF64>, out: &mut AdversaryOutbox<OrderedF64>) {
        let correct: Vec<NodeId> = view.correct.iter().copied().collect();
        let half = correct.len() / 2;
        let hi = OrderedF64::new(self.magnitude).expect("not NaN");
        let lo = OrderedF64::new(-self.magnitude).expect("not NaN");
        for &b in view.faulty.iter() {
            for (i, &to) in correct.iter().enumerate() {
                out.send(b, to, if i < half { hi } else { lo });
            }
        }
    }
}

/// Attacks the standalone rotor-coordinator as a *malicious coordinator*:
/// faulty nodes join the candidate set like correct ones (`init`), and in
/// every round each sends `opinion(a)` to the lower half of the correct
/// nodes and `opinion(b)` to the upper half — so whenever a faulty node's
/// turn comes, the correct nodes accept contradictory opinions.
///
/// This is exactly why one good round is needed and why `f + 1` distinct
/// coordinators guarantee it: rounds with a Byzantine coordinator are
/// allowed to be arbitrarily inconsistent.
#[derive(Debug, Clone)]
pub struct ByzantineCoordinator<V> {
    a: V,
    b: V,
}

impl<V: Value> ByzantineCoordinator<V> {
    /// Creates the attack with the two opinions to split between halves.
    pub fn new(a: V, b: V) -> Self {
        ByzantineCoordinator { a, b }
    }
}

impl<V: Value> Adversary<RotorMsg<V>> for ByzantineCoordinator<V> {
    fn act(
        &mut self,
        view: &AdversaryView<'_, RotorMsg<V>>,
        out: &mut AdversaryOutbox<RotorMsg<V>>,
    ) {
        if view.round == 1 {
            for &b in view.faulty.iter() {
                out.broadcast(b, RotorMsg::Init);
            }
            return;
        }
        let correct: Vec<NodeId> = view.correct.iter().copied().collect();
        let half = correct.len() / 2;
        for &byz in view.faulty.iter() {
            for (i, &to) in correct.iter().enumerate() {
                let opinion = if i < half {
                    self.a.clone()
                } else {
                    self.b.clone()
                };
                out.send(byz, to, RotorMsg::Opinion(opinion));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use uba_core::approx::ApproxAgreement;
    use uba_core::consensus::EarlyConsensus;
    use uba_core::harness::{assert_agreement, output_range, Setup};
    use uba_core::rotor::RotorCoordinator;
    use uba_sim::SyncEngine;

    #[test]
    fn rotor_survives_split_attack() {
        let setup = Setup::new(7, 2, 11);
        let mut engine = SyncEngine::builder()
            .correct_many(
                setup
                    .correct
                    .iter()
                    .map(|&id| RotorCoordinator::new(id, id.raw())),
            )
            .faulty_many(setup.faulty.iter().copied())
            .adversary(RotorSplitAdversary::new())
            .build();
        let done = engine
            .run_to_completion(3 + 2 * setup.n() as u64 + 8)
            .expect("rotor terminates in O(n) rounds under attack");
        // Every correct node must have witnessed a good round: a round in
        // which all correct nodes selected the same correct coordinator.
        let selections: Vec<&Vec<(u64, NodeId)>> =
            done.outputs.values().map(|o| &o.selections).collect();
        let correct_set: BTreeSet<NodeId> = setup.correct.iter().copied().collect();
        let min_len = selections.iter().map(|s| s.len()).min().unwrap();
        let good_round_exists = (0..min_len).any(|i| {
            let (round0, p0) = selections[0][i];
            correct_set.contains(&p0)
                && selections
                    .iter()
                    .all(|s| s.iter().any(|&(r, p)| r == round0 && p == p0))
        });
        assert!(good_round_exists, "no good round under split attack");
    }

    #[test]
    fn rotor_survives_ghost_candidates() {
        let setup = Setup::new(7, 2, 13);
        let adv = GhostCandidateAdversary::new(3, 10, 5);
        let mut engine = SyncEngine::builder()
            .correct_many(
                setup
                    .correct
                    .iter()
                    .map(|&id| RotorCoordinator::new(id, id.raw())),
            )
            .faulty_many(setup.faulty.iter().copied())
            .adversary(adv)
            .build();
        // Ghosts inflate C_v (up to n + ghosts candidates) but termination
        // stays linear and every node still witnesses a good round.
        let budget = 3 + 2 * (setup.n() as u64 + 3) + 8;
        engine.run_to_completion(budget).expect("terminates");
    }

    #[test]
    fn consensus_survives_equivocation() {
        for seed in 0..4 {
            let setup = Setup::new(7, 2, seed);
            let mut engine = SyncEngine::builder()
                .correct_many(
                    setup
                        .correct
                        .iter()
                        .enumerate()
                        .map(|(i, &id)| EarlyConsensus::new(id, (i % 2) as u64)),
                )
                .faulty_many(setup.faulty.iter().copied())
                .adversary(ConsensusEquivocator::new(0u64, 1u64))
                .build();
            let done = engine
                .run_to_completion(400)
                .expect("terminates under equivocation");
            let v = assert_agreement(&done.outputs);
            assert!(v < 2, "output is a correct input (seed {seed})");
        }
    }

    #[test]
    fn approx_survives_extremists() {
        let setup = Setup::new(7, 2, 21);
        let inputs: Vec<f64> = (0..7).map(|i| i as f64).collect();
        let mut engine = SyncEngine::builder()
            .correct_many(
                setup
                    .correct
                    .iter()
                    .zip(&inputs)
                    .map(|(&id, &x)| ApproxAgreement::new(id, x).with_iterations(4)),
            )
            .faulty_many(setup.faulty.iter().copied())
            .adversary(ApproxExtremist::new(1e12))
            .build();
        let done = engine.run_to_completion(8).expect("terminates");
        let (lo, hi) = output_range(&done.outputs);
        assert!(lo >= 0.0 && hi <= 6.0, "outputs inside the correct range");
        assert!(
            hi - lo <= 6.0 / 16.0 + 1e-9,
            "still contracts per iteration"
        );
    }

    #[test]
    fn byzantine_coordinator_rounds_are_inconsistent_but_good_rounds_exist() {
        let setup = Setup::new(7, 2, 19);
        let mut engine = SyncEngine::builder()
            .correct_many(
                setup
                    .correct
                    .iter()
                    .map(|&id| RotorCoordinator::new(id, id.raw())),
            )
            .faulty_many(setup.faulty.iter().copied())
            .adversary(ByzantineCoordinator::new(0u64, 1u64))
            .build();
        let done = engine
            .run_to_completion(3 + 2 * setup.n() as u64 + 8)
            .expect("terminates");
        let correct: BTreeSet<NodeId> = setup.correct.iter().copied().collect();
        let all: Vec<_> = done.outputs.values().collect();
        // A good round (common correct coordinator) must exist…
        let good = all[0].selections.iter().any(|&(round, p)| {
            correct.contains(&p)
                && all
                    .iter()
                    .all(|o| o.selections.iter().any(|&(r, q)| r == round && q == p))
        });
        assert!(good, "good round survives malicious coordinators");
        // …and in good rounds the accepted opinion is consistent: for the
        // round after a common correct coordinator's selection, everyone
        // accepted that coordinator's (single) opinion.
        for &(round, p) in &all[0].selections {
            if !correct.contains(&p) {
                continue;
            }
            let opinions: BTreeSet<u64> = all
                .iter()
                .flat_map(|o| {
                    o.accepted_opinions
                        .iter()
                        .filter(move |&&(r, q, _)| r == round + 1 && q == p)
                        .map(|&(_, _, v)| v)
                })
                .collect();
            assert!(opinions.len() <= 1, "correct coordinator {p} equivocated?!");
        }
    }

    #[test]
    fn ghost_ids_are_deterministic_per_seed() {
        let a = GhostCandidateAdversary::new(4, 5, 1);
        let b = GhostCandidateAdversary::new(4, 5, 1);
        let c = GhostCandidateAdversary::new(4, 5, 2);
        assert_eq!(a.ghosts(), b.ghosts());
        assert_ne!(a.ghosts(), c.ghosts());
    }
}
