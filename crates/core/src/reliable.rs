//! Reliable broadcast without knowing `n` or `f` — Algorithm 1 of the paper.
//!
//! A designated node `s` (correct or faulty) broadcasts a message `(m, s)`.
//! The abstraction guarantees, for `n > 3f`:
//!
//! 1. **Correctness** — if `s` is correct, every correct node accepts
//!    `(m, s)` (in round 3: broadcast, echo, accept).
//! 2. **Unforgeability** — if a correct node accepts `(m, s)` and `s` is
//!    correct, then `s` really broadcast `m`.
//! 3. **Relay** — if a correct node accepts `(m, s)` in round `r`, every
//!    correct node accepts it by round `r + 1`.
//!
//! The classic Srikanth–Toueg protocol uses the thresholds `f + 1` and
//! `2f + 1`; this algorithm replaces them with `n_v/3` and `2n_v/3` where
//! `n_v` is the node's own (possibly inconsistent) participant estimate.
//! Round 1 makes every correct node announce itself (`present`), which is
//! what anchors `n_v ≥ g` at every correct node.
//!
//! The paper's protocol never terminates on its own (it is a subroutine);
//! [`ReliableBroadcast`] optionally terminates at a caller-chosen horizon
//! round, outputting everything accepted so far.

use std::collections::BTreeMap;

use uba_sim::{Context, NodeId, Process};

use crate::quorum::{meets_third, meets_two_thirds};
use crate::tracker::ParticipantTracker;
use crate::value::Value;

/// Messages of the reliable-broadcast protocol.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum RbMsg<M> {
    /// The designated sender's initial broadcast of `m` (round 1).
    Payload(M),
    /// Every other correct node announces itself in round 1.
    Present,
    /// `echo(m, s)` — support for accepting `(m, s)`. The designated sender
    /// `s` is fixed per protocol instance, so only `m` is carried.
    Echo(M),
}

/// One node's state machine for Algorithm 1.
///
/// All correct nodes (including the designated sender) run one instance per
/// broadcast. A faulty designated sender may cause several distinct messages
/// to be accepted — the three properties only constrain *correct* senders —
/// so the protocol tracks acceptance per message value.
///
/// # Examples
///
/// ```
/// use uba_core::reliable::ReliableBroadcast;
/// use uba_sim::{sparse_ids, SyncEngine};
///
/// let ids = sparse_ids(4, 1);
/// let sender = ids[0];
/// let mut engine = SyncEngine::builder()
///     .correct_many(ids.iter().map(|&id| {
///         ReliableBroadcast::new(id, sender, (id == sender).then_some("payload"))
///             .with_horizon(6)
///     }))
///     .build();
/// let done = engine.run_to_completion(8)?;
/// for accepted in done.outputs.values() {
///     assert_eq!(accepted.get("payload"), Some(&3), "accepted in round 3");
/// }
/// # Ok::<(), uba_sim::EngineError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ReliableBroadcast<M> {
    me: NodeId,
    sender: NodeId,
    /// `Some(m)` iff this node is the designated sender.
    payload: Option<M>,
    tracker: ParticipantTracker,
    /// Accepted message → the round it was accepted in.
    accepted: BTreeMap<M, u64>,
    horizon: Option<u64>,
    done: Option<BTreeMap<M, u64>>,
}

impl<M: Value> ReliableBroadcast<M> {
    /// Creates a node's instance for the broadcast of `payload` by `sender`.
    ///
    /// `payload` must be `Some` exactly when `me == sender` *and* the sender
    /// intends to broadcast (a correct designated sender may also stay
    /// silent, in which case nothing is ever accepted).
    pub fn new(me: NodeId, sender: NodeId, payload: Option<M>) -> Self {
        ReliableBroadcast {
            me,
            sender,
            payload,
            tracker: ParticipantTracker::new(),
            accepted: BTreeMap::new(),
            horizon: None,
            done: None,
        }
    }

    /// Terminates the process at the given global round, outputting the map
    /// of accepted messages to their acceptance rounds.
    pub fn with_horizon(mut self, round: u64) -> Self {
        self.horizon = Some(round);
        self
    }

    /// Messages accepted so far, with the round each was accepted in.
    pub fn accepted(&self) -> BTreeMap<M, u64> {
        self.accepted.clone()
    }

    /// This node's current participant estimate `n_v`.
    pub fn participant_estimate(&self) -> usize {
        self.tracker.n()
    }
}

impl<M: Value> Process for ReliableBroadcast<M> {
    type Msg = RbMsg<M>;
    type Output = BTreeMap<M, u64>;

    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, ctx: &mut Context<'_, RbMsg<M>>) {
        self.tracker.observe_inbox(ctx.inbox());
        let round = ctx.round();
        match round {
            1 => {
                // Round 1: the designated sender broadcasts (m, s); everyone
                // else announces itself so that n_v ≥ g everywhere.
                if self.me == self.sender {
                    if let Some(m) = self.payload.clone() {
                        ctx.broadcast(RbMsg::Payload(m));
                        return;
                    }
                }
                ctx.broadcast(RbMsg::Present);
            }
            2 => {
                // Round 2: echo iff the payload came directly from s —
                // envelope sender ids are unforgeable.
                let direct: Vec<M> = ctx
                    .inbox()
                    .iter()
                    .filter(|e| e.from == self.sender)
                    .filter_map(|e| match e.msg() {
                        RbMsg::Payload(m) => Some(m.clone()),
                        _ => None,
                    })
                    .collect();
                for m in direct {
                    ctx.broadcast(RbMsg::Echo(m));
                }
            }
            _ => {
                // Rounds 3…: count this round's echoes per message value
                // (distinct senders; the engine already dedups exact
                // duplicates per sender per round). Values are counted by
                // reference: only one that is re-echoed or newly accepted
                // is cloned, whatever the number of envelopes.
                let n_v = self.tracker.n();
                let mut counts: BTreeMap<&M, usize> = BTreeMap::new();
                for e in ctx.inbox() {
                    if let RbMsg::Echo(m) = e.msg() {
                        *counts.entry(m).or_insert(0) += 1;
                    }
                }
                for (m, count) in counts {
                    if self.accepted.contains_key(m) {
                        continue;
                    }
                    if meets_third(count, n_v) {
                        ctx.broadcast(RbMsg::Echo(m.clone()));
                    }
                    if meets_two_thirds(count, n_v) {
                        self.accepted.insert(m.clone(), round);
                    }
                }
            }
        }
        if self.horizon == Some(round) {
            self.done = Some(self.accepted());
        }
    }

    fn output(&self) -> Option<BTreeMap<M, u64>> {
        self.done.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_sim::{sparse_ids, SyncEngine};

    fn run(n: usize, seed: u64) -> BTreeMap<NodeId, BTreeMap<&'static str, u64>> {
        let ids = sparse_ids(n, seed);
        let sender = ids[0];
        let mut engine = SyncEngine::builder()
            .correct_many(ids.iter().map(|&id| {
                ReliableBroadcast::new(id, sender, (id == sender).then_some("m")).with_horizon(6)
            }))
            .build();
        engine.run_to_completion(8).expect("completes").outputs
    }

    #[test]
    fn correct_sender_accepted_by_all_in_round_three() {
        for n in [1, 2, 4, 7, 10] {
            let outputs = run(n, 7);
            assert_eq!(outputs.len(), n);
            for accepted in outputs.values() {
                assert_eq!(accepted.get("m"), Some(&3), "n = {n}");
            }
        }
    }

    #[test]
    fn silent_sender_accepts_nothing() {
        let ids = sparse_ids(4, 3);
        let sender = ids[1];
        let mut engine = SyncEngine::builder()
            .correct_many(
                ids.iter()
                    .map(|&id| ReliableBroadcast::<&str>::new(id, sender, None).with_horizon(6)),
            )
            .build();
        let done = engine.run_to_completion(8).expect("completes");
        for accepted in done.outputs.values() {
            assert!(accepted.is_empty());
        }
    }

    #[test]
    fn participant_estimate_reaches_group_size() {
        let ids = sparse_ids(5, 11);
        let sender = ids[0];
        let mut engine = SyncEngine::builder()
            .correct_many(
                ids.iter()
                    .map(|&id| ReliableBroadcast::new(id, sender, (id == sender).then_some(1u8))),
            )
            .build();
        engine.run_rounds(3);
        for &id in &ids {
            assert_eq!(engine.process(id).unwrap().participant_estimate(), 5);
        }
    }
}
