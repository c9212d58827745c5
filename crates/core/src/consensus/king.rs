//! Rotor-driven king consensus — the appendix algorithm of the paper
//! (Algorithm `con`), a direct adaptation of the Berman–Garay–Perry *king*
//! algorithm to the *id-only* model.
//!
//! Unlike [`EarlyConsensus`](crate::consensus::EarlyConsensus) this variant
//! has no early termination: it runs phases until the embedded
//! rotor-coordinator terminates (after `O(n)` selections, which guarantees a
//! good phase for `n > 3f`), then outputs the current opinion. It serves as
//! the paper's conceptual baseline for the `O(f)`-round early-terminating
//! algorithm: same structure, simpler message ladder (`input`/`support`
//! instead of `input`/`prefer`/`strongprefer`), worse round complexity
//! (`O(n)` instead of `O(f)`).
//!
//! Phase layout (5 engine rounds, matching
//! [`phase_of_round`](crate::consensus::phase_of_round)):
//!
//! 1. broadcast `input(x_v)`;
//! 2. on a `2n_v/3` input quorum broadcast `support(x)`;
//! 3. on `n_v/3` supports adopt `x` (the support tally is kept for round 5);
//! 4. one rotor step; the selected coordinator broadcasts its opinion;
//! 5. if the round-3 support tally was below `2n_v/3`, adopt the
//!    coordinator's opinion.
//!
//! Initialization, membership freezing, the rotor step, the coordinator
//! pick and silent-member substitution (Algorithm 3's caption, which keeps
//! the run well-defined when nodes terminate at slightly different rounds)
//! are the shared phase frame (`phase.rs`); this file adds the
//! input/support ladder and the terminate-with-the-rotor rule.

use uba_sim::{Context, NodeId, Process};

use crate::phase::{FrameMsg, PhaseFrame, RotorPart};
use crate::quorum::{meets_third, meets_two_thirds};
use crate::value::Value;

/// Messages of the king consensus protocol.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum KingMsg<V> {
    /// Rotor: willingness to coordinate (global round 1).
    RotorInit,
    /// Rotor: candidate echo.
    RotorEcho(NodeId),
    /// Rotor: the phase coordinator's opinion.
    Opinion(V),
    /// Phase round 1: the node's current value.
    Input(V),
    /// Phase round 2: a `2n_v/3` input quorum was observed.
    Support(V),
}

impl<V> FrameMsg for KingMsg<V> {
    fn from_rotor(part: RotorPart) -> Self {
        match part {
            RotorPart::Init => KingMsg::RotorInit,
            RotorPart::Echo(p) => KingMsg::RotorEcho(p),
        }
    }

    fn as_rotor(&self) -> Option<RotorPart> {
        match *self {
            KingMsg::RotorInit => Some(RotorPart::Init),
            KingMsg::RotorEcho(p) => Some(RotorPart::Echo(p)),
            _ => None,
        }
    }
}

/// One node's state machine for the appendix king algorithm.
///
/// # Examples
///
/// ```
/// use uba_core::consensus::king::KingConsensus;
/// use uba_sim::{sparse_ids, SyncEngine};
///
/// let ids = sparse_ids(4, 8);
/// let mut engine = SyncEngine::builder()
///     .correct_many(ids.iter().enumerate().map(|(i, &id)| KingConsensus::new(id, i % 2 == 0)))
///     .build();
/// let done = engine.run_to_completion(60)?;
/// let mut decided: Vec<bool> = done.outputs.values().copied().collect();
/// decided.dedup();
/// assert_eq!(decided.len(), 1, "agreement");
/// # Ok::<(), uba_sim::EngineError>(())
/// ```
#[derive(Clone, Debug)]
pub struct KingConsensus<V> {
    frame: PhaseFrame,
    x: V,
    sent_input: Option<V>,
    sent_support: Option<V>,
    /// Count of the best-supported `support` value of phase round 3
    /// (evaluated again in round 5 for the "take the king's value" rule).
    support: usize,
    decided: Option<V>,
}

impl<V: Value> KingConsensus<V> {
    /// Creates a node with input `input`.
    pub fn new(me: NodeId, input: V) -> Self {
        KingConsensus {
            frame: PhaseFrame::new(me),
            x: input,
            sent_input: None,
            sent_support: None,
            support: 0,
            decided: None,
        }
    }

    /// The node's current opinion `x_v`.
    pub fn current_opinion(&self) -> &V {
        &self.x
    }
}

impl<V: Value> Process for KingConsensus<V> {
    type Msg = KingMsg<V>;
    type Output = V;

    fn id(&self) -> NodeId {
        self.frame.me()
    }

    fn on_round(&mut self, ctx: &mut Context<'_, KingMsg<V>>) {
        let mut out = Vec::new();
        let inbox = ctx.inbox().iter().map(|e| (e.from, e.msg()));
        if let Some(tick) = self.frame.begin(ctx.round(), inbox, &mut out) {
            let (n, inbox) = (tick.n, &tick.inbox);
            match tick.round {
                1 => {
                    self.sent_support = None;
                    out.push(KingMsg::Input(self.x.clone()));
                    self.sent_input = Some(self.x.clone());
                }
                2 => {
                    let own = self.sent_input.as_ref();
                    if let Some((x, c)) = self.frame.slot(inbox, own, |m| match m {
                        KingMsg::Input(v) => Some(v),
                        _ => None,
                    }) {
                        if meets_two_thirds(c, n) {
                            out.push(KingMsg::Support(x.clone()));
                            self.sent_support = Some(x);
                        }
                    }
                }
                3 => {
                    let own = self.sent_support.as_ref();
                    let best = self.frame.slot(inbox, own, |m| match m {
                        KingMsg::Support(v) => Some(v),
                        _ => None,
                    });
                    self.support = best.as_ref().map_or(0, |(_, c)| *c);
                    if let Some((v, _)) = best.filter(|(_, c)| meets_third(*c, n)) {
                        self.x = v;
                    }
                }
                4 => {
                    if self.frame.rotor_step(n, &mut out) {
                        out.push(KingMsg::Opinion(self.x.clone()));
                    }
                }
                5 => {
                    if !meets_two_thirds(self.support, n) {
                        if let Some(c) = self.frame.coordinator_opinion(inbox, |m| match m {
                            KingMsg::Opinion(v) => Some(v),
                            _ => None,
                        }) {
                            self.x = c.clone();
                        }
                    }
                    if self.frame.rotor_terminated() {
                        self.decided = Some(self.x.clone());
                    }
                }
                _ => unreachable!("phase rounds are 1..=5"),
            }
        }
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
    use std::collections::BTreeMap;
    use uba_sim::{sparse_ids, SyncEngine};

    fn run(inputs: &[bool], seed: u64) -> BTreeMap<NodeId, bool> {
        let ids = sparse_ids(inputs.len(), seed);
        let mut engine = SyncEngine::builder()
            .correct_many(
                ids.iter()
                    .zip(inputs)
                    .map(|(&id, &x)| KingConsensus::new(id, x)),
            )
            .build();
        engine
            .run_to_completion(2 + 5 * (inputs.len() as u64 + 2))
            .expect("king consensus terminates when the rotor does")
            .outputs
    }

    #[test]
    fn unanimous_inputs_stay_fixed() {
        let outputs = run(&[true; 5], 4);
        assert!(outputs.values().all(|&v| v));
    }

    #[test]
    fn mixed_inputs_reach_agreement() {
        for seed in 0..5 {
            let outputs = run(&[true, false, true, false, true, false, false], seed);
            let mut decided: Vec<bool> = outputs.values().copied().collect();
            decided.dedup();
            assert_eq!(decided.len(), 1, "agreement (seed {seed})");
        }
    }

    #[test]
    fn terminates_when_rotor_does() {
        // All-correct, n nodes: rotor terminates at its (n+1)-th step, i.e.
        // phase n+1, so the run lasts 2 + 5(n+1) rounds.
        let n = 4;
        let ids = sparse_ids(n, 6);
        let mut engine = SyncEngine::builder()
            .correct_many(ids.iter().map(|&id| KingConsensus::new(id, true)))
            .build();
        let done = engine.run_to_completion(100).expect("terminates");
        assert_eq!(done.last_decided_round(), 2 + 5 * (n as u64 + 1));
    }
}
