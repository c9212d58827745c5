//! The [`Process`] trait: a node-local protocol state machine, the
//! per-round [`Context`] through which it communicates, and the
//! [`Stepper`] — the one definition of a round of a process, which every
//! driver (the engine, the simulated restart, the TCP node and its
//! journal replay) calls instead of spelling the rule out itself.

use crate::id::NodeId;
use crate::message::{Inbox, Outbox, Outgoing, Payload};

/// A node-local protocol state machine driven by the round engine.
///
/// A driver calls [`on_round`](Process::on_round) — through
/// [`Stepper::step`], which defines the round — exactly once per round on
/// every present, non-terminated process: the context exposes the messages
/// delivered *this* round (i.e. sent in the previous round) and collects the
/// messages to be delivered *next* round. This is the synchronous model of
/// the paper: receive, compute, send.
///
/// A process terminates by making [`output`](Process::output) return `Some`;
/// from the next round on it is not stepped and sends nothing (a terminated
/// node leaves the computation, which is exactly what the paper's
/// termination-detection arguments account for).
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
    /// [`Stepper::step`] asks this twice a round, so override it where
    /// building the output costs something: the total-ordering protocol
    /// answers from its mode flag instead of cloning its chain, the log
    /// service from its sealed flag instead of cloning every shard's prefix.
    /// The two must agree — `terminated()` exactly when `output()` is `Some`.
    fn terminated(&self) -> bool {
        self.output().is_some()
    }
}

/// A [`Process`] and the round it terminated in: the definition of a round
/// of a process.
///
/// [`step`](Self::step) is one live round, [`replay`](Self::replay) the same
/// rounds again with the sends discarded. `SyncEngine`, its churn restart
/// and `uba-net`'s `NetNode` (live and journal replay) all drive their
/// processes through these two, so a restarted or rejoined incarnation
/// converges to the crashed one's state by construction. Each driver adds
/// only what is its own: delivery, fault filtering, sockets.
#[derive(Debug)]
pub struct Stepper<P: Process> {
    process: P,
    decided_round: Option<u64>,
}

impl<P: Process> Stepper<P> {
    /// Wraps a process that has not been stepped yet.
    pub fn new(process: P) -> Self {
        Stepper {
            process,
            decided_round: None,
        }
    }

    /// The process.
    pub fn process(&self) -> &P {
        &self.process
    }

    /// The process, for injecting work between rounds; the next
    /// [`step`](Self::step) observes the mutation.
    pub fn process_mut(&mut self) -> &mut P {
        &mut self.process
    }

    /// The round in which the process terminated: `Some` from the first
    /// [`step`](Self::step) on that found [`Process::terminated`] true. This
    /// is what "has terminated" means to a driver.
    pub fn decided_round(&self) -> Option<u64> {
        self.decided_round
    }

    /// One round: the process consumes `inbox` — what was sent to it in
    /// round `round - 1` — and its sends for `round` are returned.
    ///
    /// A terminated process is not stepped and sends nothing, and
    /// [`decided_round`](Self::decided_round) becomes `Some(round)` the
    /// first time the process is found terminated. A process that is
    /// terminated before its first step is therefore never stepped, and its
    /// decided round is the round it was first asked to take.
    pub fn step<'a>(
        &mut self,
        round: u64,
        inbox: impl Into<Inbox<'a, P::Msg>>,
    ) -> Vec<Outgoing<P::Msg>> {
        if self.decided_round.is_some() {
            return Vec::new();
        }
        let inbox: Inbox<'_, P::Msg> = inbox.into();
        let mut outbox = Outbox::new();
        if !self.process.terminated() {
            self.process
                .on_round(&mut Context::new(round, inbox, &mut outbox));
        }
        if self.process.terminated() {
            self.decided_round = Some(round);
        }
        outbox.drain()
    }

    /// Steps through recorded `(round, inbox)` pairs with the sends
    /// discarded — the incarnation that recorded them already sent that
    /// traffic; entries past termination change nothing. Determinism of the
    /// process makes this leave exactly the state and decided round of
    /// having stepped the same inboxes live.
    pub fn replay<'a, I: Into<Inbox<'a, P::Msg>>>(
        &mut self,
        history: impl IntoIterator<Item = (u64, I)>,
    ) {
        for (round, inbox) in history {
            self.step(round, inbox);
        }
    }
}

/// The per-round environment handed to [`Process::on_round`].
///
/// Exposes the current round number (1-based), the inbox of messages
/// delivered this round, and the outbox for messages to deliver next round.
#[derive(Debug)]
pub struct Context<'a, M> {
    round: u64,
    inbox: Inbox<'a, M>,
    outbox: &'a mut Outbox<M>,
}

impl<'a, M: Payload> Context<'a, M> {
    /// Creates a context. Used by [`Stepper::step`]; protocol code only
    /// consumes it.
    pub fn new(round: u64, inbox: impl Into<Inbox<'a, M>>, outbox: &'a mut Outbox<M>) -> Self {
        Context {
            round,
            inbox: inbox.into(),
            outbox,
        }
    }

    /// The current round, starting at 1.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Messages delivered this round (sent during the previous round).
    pub fn inbox(&self) -> Inbox<'a, M> {
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
    use crate::churn::ChurnSchedule;
    use crate::engine::SyncEngine;
    use crate::message::Envelope;
    use crate::testutil::CollectAll;

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

    /// Broadcasts its step count every round and terminates once it has
    /// taken `end` steps — born terminated for `end == 0`.
    struct Chatty {
        steps: u64,
        end: u64,
    }

    impl Process for Chatty {
        type Msg = u64;
        type Output = u64;

        fn id(&self) -> NodeId {
            NodeId::new(1)
        }

        fn on_round(&mut self, ctx: &mut Context<'_, u64>) {
            self.steps += 1;
            ctx.broadcast(self.steps);
        }

        fn output(&self) -> Option<u64> {
            (self.steps >= self.end).then_some(self.steps)
        }
    }

    #[test]
    fn a_terminated_process_is_not_stepped_and_its_decided_round_is_set_once() {
        let mut node = Stepper::new(Chatty { steps: 0, end: 2 });
        assert_eq!(node.step(1, &[]).len(), 1);
        assert_eq!(node.decided_round(), None);
        assert_eq!(
            node.step(2, &[]).len(),
            1,
            "the terminating round still sends"
        );
        assert_eq!(node.decided_round(), Some(2));
        for round in 3..=5 {
            assert!(node.step(round, &[]).is_empty(), "left the computation");
        }
        assert_eq!(node.process().steps, 2, "never stepped again");
        assert_eq!(node.decided_round(), Some(2), "set once");
    }

    #[test]
    fn a_process_born_terminated_is_never_stepped() {
        let mut node = Stepper::new(Chatty { steps: 0, end: 0 });
        assert_eq!(node.decided_round(), None, "nobody asked yet");
        assert!(node.step(4, &[]).is_empty());
        assert_eq!(
            node.decided_round(),
            Some(4),
            "the round it was first asked"
        );
        assert!(node.step(5, &[]).is_empty());
        assert_eq!(node.process().steps, 0);
        assert_eq!(node.decided_round(), Some(4));
    }

    #[test]
    fn replay_leaves_the_state_of_stepping_the_same_inboxes_live() {
        let me = NodeId::new(1);
        let history: Vec<(u64, Vec<Envelope<u64>>)> = (1..=5)
            .map(|round| (round, vec![Envelope::new(NodeId::new(2), round * 10)]))
            .collect();
        let slices = || history.iter().map(|(round, inbox)| (*round, &inbox[..]));

        let mut live = Stepper::new(CollectAll::new(me, 3));
        let mut sent = 0;
        for (round, inbox) in slices() {
            sent += live.step(round, inbox).len();
        }
        assert_eq!(sent, 1, "the live run did send");

        // The history runs two rounds past termination: ignored.
        let mut replayed = Stepper::new(CollectAll::new(me, 3));
        replayed.replay(slices());
        assert_eq!(replayed.decided_round(), Some(3));
        assert_eq!(replayed.decided_round(), live.decided_round());
        assert_eq!(replayed.process().output(), live.process().output());
        assert_eq!(
            replayed.process().output().map(|heard| heard.len()),
            Some(3)
        );
    }

    #[test]
    fn every_driver_reports_the_same_decided_rounds() {
        // Nodes 1, 2, 3 terminate at rounds 2, 3, 4.
        let members = || (1..=3).map(|raw| CollectAll::new(NodeId::new(raw), raw + 1));
        let expected: std::collections::BTreeMap<NodeId, u64> =
            (1..=3).map(|raw| (NodeId::new(raw), raw + 1)).collect();

        let mut sync = SyncEngine::builder().correct_many(members()).build();
        let done = sync.run_to_completion(10).expect("completes");
        assert_eq!(done.decided_round, expected);

        // Node 3 crash-restarts before round 3 and is replayed mid-run.
        let mut churn: ChurnSchedule<CollectAll> = ChurnSchedule::new();
        churn.restart(3, CollectAll::new(NodeId::new(3), 4));
        let mut restarted = SyncEngine::builder()
            .correct_many(members())
            .churn(churn)
            .build();
        let done = restarted.run_to_completion(10).expect("completes");
        assert_eq!(done.decided_round, expected);
    }
}
