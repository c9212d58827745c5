//! Terminating reliable broadcast — the appendix extension of the paper.
//!
//! Plain [reliable broadcast](crate::reliable) never terminates: with a
//! faulty designated sender, correct nodes can be left waiting forever.
//! Terminating reliable broadcast additionally guarantees **termination**
//! with a *common* output — either the sender's message or the empty output
//! `⊥` — in `O(f)` rounds.
//!
//! The construction is exactly the paper's: one initial round in which the
//! designated sender broadcasts `(m, s)` and everyone else announces
//! themselves, followed by an execution of the `O(f)`-round
//! [consensus](crate::consensus::EarlyConsensus) where each node's input is
//! the message it received *directly* from the sender (or `⊥`). Correctness
//! and unforgeability follow from consensus validity, relay from consensus
//! agreement.

use uba_sim::{Context, NodeId, Process};

use crate::consensus::{ConsensusMsg, EarlyConsensus};
use crate::value::Value;

/// Messages of terminating reliable broadcast: the initial round's payload
/// and presence announcements, then embedded consensus messages.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TrbMsg<M> {
    /// The designated sender's message (round 1).
    Payload(M),
    /// Presence announcement of every other node (round 1).
    Init,
    /// A message of the embedded consensus execution.
    Con(ConsensusMsg<Option<M>>),
}

/// One node's state machine for terminating reliable broadcast.
///
/// The output is `Some(m)` when the nodes agree the sender broadcast `m`,
/// and `None` (the empty output `⊥`) when they agree it did not.
///
/// # Examples
///
/// ```
/// use uba_core::trb::TerminatingBroadcast;
/// use uba_sim::{sparse_ids, SyncEngine};
///
/// let ids = sparse_ids(4, 12);
/// let sender = ids[2];
/// let mut engine = SyncEngine::builder()
///     .correct_many(ids.iter().map(|&id| {
///         TerminatingBroadcast::new(id, sender, (id == sender).then_some("payload"))
///     }))
///     .build();
/// let done = engine.run_to_completion(20)?;
/// assert!(done.outputs.values().all(|o| *o == Some("payload")));
/// # Ok::<(), uba_sim::EngineError>(())
/// ```
#[derive(Clone, Debug)]
pub struct TerminatingBroadcast<M> {
    me: NodeId,
    sender: NodeId,
    /// `Some(m)` iff this node is the designated sender and broadcasts `m`.
    payload: Option<M>,
    inner: Option<EarlyConsensus<Option<M>>>,
}

impl<M: Value> TerminatingBroadcast<M> {
    /// Creates a node's instance for the broadcast of `payload` by `sender`.
    pub fn new(me: NodeId, sender: NodeId, payload: Option<M>) -> Self {
        TerminatingBroadcast {
            me,
            sender,
            payload,
            inner: None,
        }
    }
}

impl<M: Value> Process for TerminatingBroadcast<M> {
    type Msg = TrbMsg<M>;
    type Output = Option<M>;

    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, ctx: &mut Context<'_, TrbMsg<M>>) {
        if ctx.round() == 1 {
            if self.me == self.sender {
                if let Some(m) = self.payload.clone() {
                    ctx.broadcast(TrbMsg::Payload(m));
                    return;
                }
            }
            ctx.broadcast(TrbMsg::Init);
            return;
        }
        if ctx.round() == 2 {
            // The consensus input is the message received directly from the
            // sender (`⊥` otherwise); envelope sender ids are unforgeable.
            let direct = ctx
                .inbox()
                .iter()
                .filter(|e| e.from == self.sender)
                .filter_map(|e| match e.msg() {
                    TrbMsg::Payload(m) => Some(m),
                    _ => None,
                });
            let input = direct.min().cloned();
            self.inner = Some(EarlyConsensus::new(self.me, input));
        }
        // The embedded consensus runs one round behind, on the `Con` part of
        // this round's inbox.
        let inner = self.inner.as_mut().expect("initialized in round 2");
        let inner_inbox = ctx.inbox().iter().filter_map(|e| match e.msg() {
            TrbMsg::Con(c) => Some((e.from, c)),
            _ => None,
        });
        let mut out = Vec::new();
        inner.step(ctx.round() - 1, inner_inbox, &mut out);
        for msg in out {
            ctx.broadcast(TrbMsg::Con(msg));
        }
    }

    fn output(&self) -> Option<Option<M>> {
        self.inner.as_ref().and_then(|c| c.output())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use uba_sim::{sparse_ids, SyncEngine};

    fn run(n: usize, sender_sends: bool, seed: u64) -> Vec<Option<&'static str>> {
        let ids = sparse_ids(n, seed);
        let sender = ids[0];
        let mut engine = SyncEngine::builder()
            .correct_many(ids.iter().map(|&id| {
                TerminatingBroadcast::new(id, sender, (id == sender && sender_sends).then_some("m"))
            }))
            .build();
        engine
            .run_to_completion(60)
            .expect("terminates")
            .outputs
            .into_values()
            .collect()
    }

    #[test]
    fn correct_sender_message_is_delivered_to_all() {
        for n in [1, 3, 5] {
            let outputs = run(n, true, 9);
            assert!(outputs.iter().all(|o| *o == Some("m")), "n = {n}");
        }
    }

    #[test]
    fn silent_sender_yields_common_empty_output() {
        let outputs = run(4, false, 11);
        assert!(outputs.iter().all(|o| o.is_none()));
    }

    #[test]
    fn equivocating_byzantine_sender_yields_common_output() {
        use uba_sim::{AdversaryOutbox, AdversaryView, FnAdversary};
        type M = TrbMsg<&'static str>;
        let ids = sparse_ids(6, 21);
        let byz_sender = NodeId::new(500);
        // The Byzantine sender tells half the nodes "a" and the rest "b".
        let split: BTreeSet<NodeId> = ids[..3].iter().copied().collect();
        let adv = FnAdversary::new(
            move |view: &AdversaryView<'_, M>, out: &mut AdversaryOutbox<M>| {
                if view.round == 1 {
                    for &to in view.correct.iter() {
                        let m = if split.contains(&to) { "a" } else { "b" };
                        out.send(byz_sender, to, TrbMsg::Payload(m));
                    }
                }
            },
        );
        let mut engine = SyncEngine::builder()
            .correct_many(
                ids.iter()
                    .map(|&id| TerminatingBroadcast::<&str>::new(id, byz_sender, None)),
            )
            .faulty(byz_sender)
            .adversary(adv)
            .build();
        let done = engine.run_to_completion(80).expect("terminates");
        let distinct: BTreeSet<Option<&str>> = done.outputs.into_values().collect();
        assert_eq!(distinct.len(), 1, "all correct nodes output the same thing");
    }
}
