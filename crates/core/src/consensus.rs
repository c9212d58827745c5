//! Early-terminating consensus — Algorithm 3 of the paper.
//!
//! Every correct node has an input (a real number in the paper; any
//! [`Value`] here); all correct nodes must output a common value that was
//! the input of some correct node if all correct inputs were equal, within
//! `O(f)` rounds — without knowing `n` or `f`.
//!
//! The algorithm runs 5-round *phases* on top of a two-round initialization
//! that also initializes the embedded rotor-coordinator:
//!
//! | phase round | action |
//! |-------------|--------|
//! | 1 | broadcast `input(x_v)` |
//! | 2 | on a `2n_v/3` input quorum, broadcast `prefer(x)` |
//! | 3 | on `n_v/3` prefers adopt `x`; on `2n_v/3` broadcast `strongprefer(x)` |
//! | 4 | one rotor-coordinator step; the selected coordinator broadcasts its opinion |
//! | 5 | with `< n_v/3` strongprefers adopt the coordinator's opinion; with a `2n_v/3` strongprefer quorum terminate |
//!
//! Initialization, the membership freeze ("a node only accepts messages from
//! a node if it counted towards `n_v`"), the embedded rotor step and the
//! coordinator-opinion pick are the crate's shared phase frame
//! (`phase.rs`), as is the tally behind every threshold: a counted member
//! that goes silent is substituted by the receiver's *own most recent
//! message of the expected type* (the caption of Algorithm 3), which is what
//! lets nodes that terminated a phase earlier be accounted for consistently.
//! This file adds what is Algorithm 3's own: the input/prefer/strongprefer
//! ladder and the early-termination rule.

use uba_sim::{Context, NodeId, Process};

use crate::phase::{FrameMsg, PhaseFrame, RotorPart};
use crate::quorum::{meets_third, meets_two_thirds};
use crate::value::Value;

pub mod king;

/// Messages of the consensus protocol. The `Rotor*` and `Opinion` variants
/// belong to the embedded rotor-coordinator.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ConsensusMsg<V> {
    /// Rotor: willingness to coordinate (global round 1).
    RotorInit,
    /// Rotor: candidate echo.
    RotorEcho(NodeId),
    /// Rotor: the phase coordinator's opinion.
    Opinion(V),
    /// Phase round 1: the node's current value.
    Input(V),
    /// Phase round 2: a `2n_v/3` input quorum was observed.
    Prefer(V),
    /// Phase round 3: a `2n_v/3` prefer quorum was observed.
    StrongPrefer(V),
}

impl<V> FrameMsg for ConsensusMsg<V> {
    fn from_rotor(part: RotorPart) -> Self {
        match part {
            RotorPart::Init => ConsensusMsg::RotorInit,
            RotorPart::Echo(p) => ConsensusMsg::RotorEcho(p),
        }
    }

    fn as_rotor(&self) -> Option<RotorPart> {
        match *self {
            ConsensusMsg::RotorInit => Some(RotorPart::Init),
            ConsensusMsg::RotorEcho(p) => Some(RotorPart::Echo(p)),
            _ => None,
        }
    }
}

/// Number of engine rounds of one phase.
pub const PHASE_ROUNDS: u64 = 5;
/// Number of initialization rounds before the first phase.
pub const INIT_ROUNDS: u64 = 2;

/// Converts a global engine round to `(phase, phase_round)`, both 1-based.
///
/// # Panics
///
/// Panics if `round` is an initialization round (≤ 2).
pub fn phase_of_round(round: u64) -> (u64, u8) {
    assert!(
        round > INIT_ROUNDS,
        "round {round} is an initialization round"
    );
    let k = round - INIT_ROUNDS - 1;
    (k / PHASE_ROUNDS + 1, (k % PHASE_ROUNDS + 1) as u8)
}

/// One node's state machine for Algorithm 3.
///
/// # Examples
///
/// ```
/// use uba_core::consensus::EarlyConsensus;
/// use uba_sim::{sparse_ids, SyncEngine};
///
/// // Unanimous inputs decide in the first phase (round 7).
/// let ids = sparse_ids(4, 2);
/// let mut engine = SyncEngine::builder()
///     .correct_many(ids.iter().map(|&id| EarlyConsensus::new(id, 7u64)))
///     .build();
/// let done = engine.run_to_completion(10)?;
/// assert!(done.outputs.values().all(|&v| v == 7));
/// assert_eq!(done.last_decided_round(), 7);
/// # Ok::<(), uba_sim::EngineError>(())
/// ```
#[derive(Clone, Debug)]
pub struct EarlyConsensus<V> {
    frame: PhaseFrame,
    x: V,
    sent_input: Option<V>,
    sent_prefer: Option<V>,
    sent_strong: Option<V>,
    /// Best-supported strongprefer and its count, tallied in phase round 4
    /// (messages are sent in round 3, physically arrive in round 4, and are
    /// evaluated in round 5 — the paper's labelling).
    strongest: Option<(V, usize)>,
    decided: Option<V>,
    phases_executed: u64,
    substitution: bool,
}

impl<V: Value> EarlyConsensus<V> {
    /// Creates a node with input `input`.
    pub fn new(me: NodeId, input: V) -> Self {
        EarlyConsensus {
            frame: PhaseFrame::new(me),
            x: input,
            sent_input: None,
            sent_prefer: None,
            sent_strong: None,
            strongest: None,
            decided: None,
            phases_executed: 0,
            substitution: true,
        }
    }

    /// **Ablation only**: disables the silent-member substitution rule from
    /// the caption of Algorithm 3. Without it, nodes that terminate one
    /// phase earlier (or members that crash) erode the `2n_v/3` quorums of
    /// the stragglers, which can then loop forever — experiment T9 measures
    /// exactly this. Never use in production.
    pub fn without_substitution(mut self) -> Self {
        self.substitution = false;
        self
    }

    /// The node's current opinion `x_v`.
    pub fn current_opinion(&self) -> &V {
        &self.x
    }

    /// Phases fully executed so far.
    pub fn phases_executed(&self) -> u64 {
        self.phases_executed
    }

    /// The frozen participant estimate, once initialization completed.
    pub fn frozen_estimate(&self) -> Option<usize> {
        self.frame.frozen_n()
    }

    /// Executes round `round` (1-based) on this round's delivered messages;
    /// outgoing broadcasts are appended to `out`. This is the whole
    /// protocol — the [`Process`] impl only adapts the engine's context to
    /// it, and a protocol that embeds consensus (terminating broadcast)
    /// calls it with a projection of its own inbox.
    pub fn step<'a>(
        &mut self,
        round: u64,
        inbox: impl IntoIterator<Item = (NodeId, &'a ConsensusMsg<V>)>,
        out: &mut Vec<ConsensusMsg<V>>,
    ) {
        let Some(tick) = self.frame.begin(round, inbox, out) else {
            return;
        };
        let (n, inbox) = (tick.n, &tick.inbox);
        match tick.round {
            1 => {
                self.sent_prefer = None;
                self.sent_strong = None;
                out.push(ConsensusMsg::Input(self.x.clone()));
                self.sent_input = Some(self.x.clone());
            }
            2 => {
                // A silent member is counted with this node's own message of
                // the slot — with nothing under the ablation.
                let own = self.sent_input.as_ref().filter(|_| self.substitution);
                if let Some((x, c)) = self.frame.slot(inbox, own, |m| match m {
                    ConsensusMsg::Input(v) => Some(v),
                    _ => None,
                }) {
                    if meets_two_thirds(c, n) {
                        out.push(ConsensusMsg::Prefer(x.clone()));
                        self.sent_prefer = Some(x);
                    }
                }
            }
            3 => {
                let own = self.sent_prefer.as_ref().filter(|_| self.substitution);
                if let Some((v, c)) = self.frame.slot(inbox, own, |m| match m {
                    ConsensusMsg::Prefer(v) => Some(v),
                    _ => None,
                }) {
                    if meets_third(c, n) {
                        self.x = v.clone();
                    }
                    if meets_two_thirds(c, n) {
                        out.push(ConsensusMsg::StrongPrefer(v.clone()));
                        self.sent_strong = Some(v);
                    }
                }
            }
            4 => {
                let own = self.sent_strong.as_ref().filter(|_| self.substitution);
                self.strongest = self.frame.slot(inbox, own, |m| match m {
                    ConsensusMsg::StrongPrefer(v) => Some(v),
                    _ => None,
                });
                if self.frame.rotor_step(n, out) {
                    out.push(ConsensusMsg::Opinion(self.x.clone()));
                }
            }
            5 => {
                let strongest = self.strongest.take();
                if !strongest.as_ref().is_some_and(|(_, c)| meets_third(*c, n)) {
                    if let Some(c) = self.frame.coordinator_opinion(inbox, |m| match m {
                        ConsensusMsg::Opinion(v) => Some(v),
                        _ => None,
                    }) {
                        self.x = c.clone();
                    }
                }
                if let Some((v, _)) = strongest.filter(|(_, c)| meets_two_thirds(*c, n)) {
                    self.decided = Some(v);
                }
                self.phases_executed += 1;
            }
            _ => unreachable!("phase rounds are 1..=5"),
        }
    }
}

impl<V: Value> Process for EarlyConsensus<V> {
    type Msg = ConsensusMsg<V>;
    type Output = V;

    fn id(&self) -> NodeId {
        self.frame.me()
    }

    fn on_round(&mut self, ctx: &mut Context<'_, ConsensusMsg<V>>) {
        let mut out = Vec::new();
        let inbox = ctx.inbox().iter().map(|e| (e.from, e.msg()));
        self.step(ctx.round(), inbox, &mut out);
        for msg in out {
            ctx.broadcast(msg);
        }
    }

    fn output(&self) -> Option<V> {
        self.decided.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use uba_sim::{sparse_ids, SyncEngine};

    fn run_all_correct(inputs: &[u64], seed: u64) -> (BTreeMap<NodeId, u64>, u64) {
        let ids = sparse_ids(inputs.len(), seed);
        let mut engine = SyncEngine::builder()
            .correct_many(
                ids.iter()
                    .zip(inputs)
                    .map(|(&id, &x)| EarlyConsensus::new(id, x)),
            )
            .build();
        let done = engine
            .run_to_completion(100)
            .expect("consensus must terminate");
        let last = done.last_decided_round();
        (done.outputs, last)
    }

    #[test]
    fn phase_mapping() {
        assert_eq!(phase_of_round(3), (1, 1));
        assert_eq!(phase_of_round(7), (1, 5));
        assert_eq!(phase_of_round(8), (2, 1));
        assert_eq!(phase_of_round(12), (2, 5));
    }

    #[test]
    #[should_panic(expected = "initialization round")]
    fn phase_mapping_rejects_init_rounds() {
        let _ = phase_of_round(2);
    }

    #[test]
    fn unanimous_inputs_decide_in_first_phase() {
        for n in [1, 2, 4, 7] {
            let inputs = vec![5u64; n];
            let (outputs, last_round) = run_all_correct(&inputs, 31);
            assert_eq!(outputs.len(), n);
            assert!(outputs.values().all(|&v| v == 5));
            assert_eq!(last_round, 7, "validity fast path is one phase (n = {n})");
        }
    }

    #[test]
    fn mixed_inputs_agree_on_some_input() {
        let inputs = [0u64, 1, 0, 1, 0, 1, 1];
        let (outputs, last_round) = run_all_correct(&inputs, 17);
        let decided: BTreeSet<u64> = outputs.values().copied().collect();
        assert_eq!(decided.len(), 1, "agreement");
        assert!(inputs.contains(decided.iter().next().unwrap()), "validity");
        assert!(
            last_round <= 2 + 3 * PHASE_ROUNDS,
            "all-correct: decided fast"
        );
    }

    #[test]
    fn silent_byzantine_members_do_not_block_agreement() {
        // Faulty nodes announce themselves during initialization (inflating
        // n_v) and then go silent forever.
        use uba_sim::{AdversaryOutbox, AdversaryView, FnAdversary};
        let ids = sparse_ids(7, 3);
        let byz = [NodeId::new(1), NodeId::new(2)];
        let adv = FnAdversary::new(
            |view: &AdversaryView<'_, ConsensusMsg<u64>>,
             out: &mut AdversaryOutbox<ConsensusMsg<u64>>| {
                if view.round <= 2 {
                    for &b in view.faulty.iter() {
                        out.broadcast(b, ConsensusMsg::RotorInit);
                    }
                }
            },
        );
        let mut engine = SyncEngine::builder()
            .correct_many(
                ids.iter()
                    .enumerate()
                    .map(|(i, &id)| EarlyConsensus::new(id, (i % 2) as u64)),
            )
            .faulty_many(byz)
            .adversary(adv)
            .build();
        let done = engine.run_to_completion(120).expect("terminates");
        let decided: BTreeSet<u64> = done.outputs.values().copied().collect();
        assert_eq!(decided.len(), 1, "agreement despite inflated n_v");
        // Every correct node froze n_v = 9 (7 correct + 2 announced faulty).
        assert!(decided.iter().next().unwrap() < &2);
    }

    #[test]
    fn frozen_estimate_counts_initialization_senders_only() {
        let ids = sparse_ids(3, 9);
        let mut engine = SyncEngine::builder()
            .correct_many(ids.iter().map(|&id| EarlyConsensus::new(id, 1u8)))
            .build();
        engine.run_rounds(3);
        for &id in &ids {
            assert_eq!(engine.process(id).unwrap().frozen_estimate(), Some(3));
        }
    }

    #[test]
    fn single_node_decides_alone() {
        let (outputs, last) = run_all_correct(&[9], 1);
        assert_eq!(outputs.values().copied().collect::<Vec<_>>(), vec![9]);
        assert_eq!(last, 7);
    }
}
