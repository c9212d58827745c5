//! The Byzantine adversary interface.
//!
//! The paper's fault model is the strongest standard one: up to `f` nodes are
//! controlled by a single full-information adversary. The engine realizes a
//! **rushing** adversary — each round it is shown the messages the correct
//! nodes are sending *in that round* before it chooses the faulty nodes'
//! messages. The adversary can equivocate (send different payloads to
//! different recipients in the same round), stay silent towards arbitrary
//! subsets (so that correct nodes never agree on who exists), replay old
//! messages, and claim — inside payloads — to have received messages from
//! non-existent nodes. The only thing it cannot do is forge the sender id on
//! a direct message: the engine stamps envelopes itself.

use std::collections::{BTreeMap, BTreeSet};

use crate::id::NodeId;
use crate::message::{Dest, Inbox, Outgoing, Payload, Segment};

/// What the adversary observes in one round.
#[derive(Debug)]
pub struct AdversaryView<'a, M> {
    /// Current round (1-based).
    pub round: u64,
    /// Present correct nodes.
    pub correct: &'a BTreeSet<NodeId>,
    /// Present faulty nodes (the ones this adversary controls).
    pub faulty: &'a BTreeSet<NodeId>,
    /// Messages the correct nodes are sending this round (rushing: visible
    /// before the adversary commits its own messages).
    pub correct_traffic: &'a [(NodeId, Outgoing<M>)],
    /// Messages delivered to each faulty node at the start of this round,
    /// as the engine delivered them; read one with
    /// [`inbox_of`](Self::inbox_of).
    pub faulty_inboxes: &'a BTreeMap<NodeId, Vec<Segment<M>>>,
}

impl<'a, M: Payload> AdversaryView<'a, M> {
    /// All messages the correct nodes broadcast this round, with senders.
    pub fn broadcasts(&self) -> impl Iterator<Item = (NodeId, &M)> + '_ {
        self.correct_traffic.iter().filter_map(|(from, out)| {
            matches!(out.dest, Dest::Broadcast).then_some((*from, &out.msg))
        })
    }

    /// Messages delivered to faulty node `id` this round.
    pub fn inbox_of(&self, id: NodeId) -> Inbox<'a, M> {
        self.faulty_inboxes
            .get(&id)
            .map_or_else(Inbox::default, |inbox| Inbox::from(inbox.as_slice()))
    }
}

/// Collects the faulty nodes' messages for the round.
///
/// All sends are validated against the set of present faulty nodes: the
/// engine stamps sender ids, so a Byzantine node cannot impersonate another
/// node at the envelope level.
#[derive(Debug)]
pub struct AdversaryOutbox<M> {
    faulty: BTreeSet<NodeId>,
    items: Vec<(NodeId, Outgoing<M>)>,
}

impl<M: Payload> AdversaryOutbox<M> {
    /// An empty outbox accepting sends from the nodes in `faulty`.
    pub fn new(faulty: &BTreeSet<NodeId>) -> Self {
        AdversaryOutbox {
            faulty: faulty.clone(),
            items: Vec::new(),
        }
    }

    /// Broadcasts `msg` from faulty node `from` to every present node.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a present faulty node — that would be sender
    /// forgery, which the model rules out.
    pub fn broadcast(&mut self, from: NodeId, msg: M) {
        self.check(from);
        self.items.push((
            from,
            Outgoing {
                dest: Dest::Broadcast,
                msg,
            },
        ));
    }

    /// Sends `msg` from faulty node `from` to `to` only (equivocation
    /// building block: different recipients can be told different things).
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a present faulty node.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.check(from);
        self.items.push((
            from,
            Outgoing {
                dest: Dest::To(to),
                msg,
            },
        ));
    }

    fn check(&self, from: NodeId) {
        assert!(
            self.faulty.contains(&from),
            "adversary attempted to send from {from}, which is not a present faulty node"
        );
    }

    /// The queued messages, each with its faulty sender, in send order.
    pub fn into_items(self) -> Vec<(NodeId, Outgoing<M>)> {
        self.items
    }
}

/// A Byzantine adversary strategy.
///
/// Implementations receive a full-information, rushing view each round and
/// queue arbitrary messages on behalf of the faulty nodes. Stateless
/// strategies can be expressed as closures via [`FnAdversary`].
pub trait Adversary<M: Payload> {
    /// Produces the faulty nodes' messages for this round.
    fn act(&mut self, view: &AdversaryView<'_, M>, out: &mut AdversaryOutbox<M>);
}

impl<M: Payload> Adversary<M> for Box<dyn Adversary<M>> {
    fn act(&mut self, view: &AdversaryView<'_, M>, out: &mut AdversaryOutbox<M>) {
        (**self).act(view, out);
    }
}

/// The absent adversary: faulty nodes never send anything.
///
/// Note this is *not* a no-op fault model — silent Byzantine nodes still
/// skew every correct node's participant count `n_v`, which is exactly the
/// difficulty the paper's algorithms must absorb.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoAdversary;

impl<M: Payload> Adversary<M> for NoAdversary {
    fn act(&mut self, _view: &AdversaryView<'_, M>, _out: &mut AdversaryOutbox<M>) {}
}

/// Wraps a closure as an adversary; convenient in tests.
///
/// # Examples
///
/// ```
/// use uba_sim::{AdversaryOutbox, AdversaryView, FnAdversary};
///
/// // Every faulty node echoes back the literal 99 to everyone, every round.
/// let adv = FnAdversary::new(|view: &AdversaryView<'_, u64>, out: &mut AdversaryOutbox<u64>| {
///     for &b in view.faulty.iter() {
///         out.broadcast(b, 99);
///     }
/// });
/// # let _ = adv;
/// ```
pub struct FnAdversary<F> {
    f: F,
}

impl<F> FnAdversary<F> {
    /// Wraps `f`.
    pub fn new(f: F) -> Self {
        FnAdversary { f }
    }
}

impl<F> std::fmt::Debug for FnAdversary<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnAdversary").finish_non_exhaustive()
    }
}

impl<M: Payload, F> Adversary<M> for FnAdversary<F>
where
    F: FnMut(&AdversaryView<'_, M>, &mut AdversaryOutbox<M>),
{
    fn act(&mut self, view: &AdversaryView<'_, M>, out: &mut AdversaryOutbox<M>) {
        (self.f)(view, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faulty_set(ids: &[u64]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| NodeId::new(i)).collect()
    }

    #[test]
    fn outbox_accepts_faulty_senders() {
        let faulty = faulty_set(&[1, 2]);
        let mut out = AdversaryOutbox::new(&faulty);
        out.broadcast(NodeId::new(1), "x");
        out.send(NodeId::new(2), NodeId::new(9), "y");
        assert_eq!(out.into_items().len(), 2);
    }

    #[test]
    #[should_panic(expected = "not a present faulty node")]
    fn outbox_rejects_forged_sender() {
        let faulty = faulty_set(&[1]);
        let mut out = AdversaryOutbox::new(&faulty);
        out.broadcast(NodeId::new(3), "forged");
    }
}
