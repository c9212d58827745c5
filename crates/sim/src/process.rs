//! The [`Process`] trait: a node-local protocol state machine, plus the
//! per-round [`Context`] through which it communicates.

use crate::id::NodeId;
use crate::message::{Envelope, Outbox, Payload};

/// A node-local protocol state machine driven by the round engine.
///
/// The engine calls [`on_round`](Process::on_round) exactly once per round on
/// every present, non-terminated process: the context exposes the messages
/// delivered *this* round (i.e. sent in the previous round) and collects the
/// messages to be delivered *next* round. This is the synchronous model of
/// the paper: receive, compute, send.
///
/// A process terminates by making [`output`](Process::output) return `Some`;
/// from the next round on the engine stops stepping it and it sends nothing
/// (a terminated node leaves the computation, which is exactly what the
/// paper's termination-detection arguments account for).
///
/// # Examples
///
/// A process that broadcasts its id once and outputs the set of peers it
/// heard from in the reply round:
///
/// ```
/// use uba_sim::{Context, NodeId, Process};
/// use std::collections::BTreeSet;
///
/// struct Hello {
///     id: NodeId,
///     peers: Option<BTreeSet<NodeId>>,
/// }
///
/// impl Process for Hello {
///     type Msg = u64;
///     type Output = BTreeSet<NodeId>;
///
///     fn id(&self) -> NodeId { self.id }
///
///     fn on_round(&mut self, ctx: &mut Context<'_, u64>) {
///         if ctx.round() == 1 {
///             ctx.broadcast(self.id.raw());
///         } else {
///             self.peers = Some(ctx.senders().collect());
///         }
///     }
///
///     fn output(&self) -> Option<BTreeSet<NodeId>> { self.peers.clone() }
/// }
/// ```
///
/// Processes own their state (`'static`), which lets engines hand them to
/// boxed observers such as [`RoundMonitor`](crate::RoundMonitor).
pub trait Process: 'static {
    /// The protocol's message payload type.
    type Msg: Payload;
    /// The value the process terminates with.
    type Output: Clone + std::fmt::Debug;

    /// This node's identifier.
    fn id(&self) -> NodeId;

    /// Executes one synchronous round: read `ctx` inbox, update state, queue
    /// outgoing messages.
    fn on_round(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// The process's output, `Some` once it has terminated.
    fn output(&self) -> Option<Self::Output>;

    /// Whether the process has terminated. Defaults to `output().is_some()`.
    ///
    /// Engines ask this several times a round, so override it where building
    /// the output costs something: the total-ordering protocol answers from
    /// its mode flag instead of cloning its chain, the log service from its
    /// sealed flag instead of cloning every shard's prefix. The two must
    /// agree — `terminated()` exactly when `output()` is `Some`.
    fn terminated(&self) -> bool {
        self.output().is_some()
    }
}

/// The per-round environment handed to [`Process::on_round`].
///
/// Exposes the current round number (1-based), the inbox of messages
/// delivered this round, and the outbox for messages to deliver next round.
#[derive(Debug)]
pub struct Context<'a, M> {
    round: u64,
    inbox: &'a [Envelope<M>],
    outbox: &'a mut Outbox<M>,
}

impl<'a, M: Payload> Context<'a, M> {
    /// Creates a context. Used by engines; protocol code only consumes it.
    pub fn new(round: u64, inbox: &'a [Envelope<M>], outbox: &'a mut Outbox<M>) -> Self {
        Context {
            round,
            inbox,
            outbox,
        }
    }

    /// The current round, starting at 1.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Messages delivered this round (sent during the previous round).
    pub fn inbox(&self) -> &'a [Envelope<M>] {
        self.inbox
    }

    /// Iterator over the distinct senders that delivered to this node this
    /// round, in ascending id order.
    pub fn senders(&self) -> impl Iterator<Item = NodeId> + '_ {
        let mut ids: Vec<NodeId> = self.inbox.iter().map(|e| e.from).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
    }

    /// Queues a broadcast to every present node (including self).
    pub fn broadcast(&mut self, msg: M) {
        self.outbox.broadcast(msg);
    }

    /// Queues a point-to-point message.
    ///
    /// The model only allows sending to a node that has previously sent a
    /// message to this node; the engine enforces that restriction when
    /// acquaintance enforcement is enabled (the default).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.send(to, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn senders_are_sorted_and_deduped() {
        let inbox = vec![
            Envelope::new(NodeId::new(5), 0u8),
            Envelope::new(NodeId::new(2), 1u8),
            Envelope::new(NodeId::new(5), 2u8),
        ];
        let mut outbox = Outbox::new();
        let ctx = Context::new(3, &inbox, &mut outbox);
        let senders: Vec<NodeId> = ctx.senders().collect();
        assert_eq!(senders, vec![NodeId::new(2), NodeId::new(5)]);
        assert_eq!(ctx.round(), 3);
    }

    #[test]
    fn context_queues_messages() {
        let inbox: Vec<Envelope<u8>> = Vec::new();
        let mut outbox = Outbox::new();
        let mut ctx = Context::new(1, &inbox, &mut outbox);
        ctx.broadcast(7);
        ctx.send(NodeId::new(1), 8);
        assert_eq!(outbox.len(), 2);
    }
}
