//! The round synchronizer: the pure state machine that turns an unordered
//! stream of per-peer frames into the simulator's lock-step round semantics.
//!
//! # Barrier protocol
//!
//! Every member finishes round `r` by sending all of its `Data { round: r }`
//! frames followed by one `Done { round: r }` frame on each link. Because
//! TCP preserves per-link order, receiving a peer's `Done { r }` proves all
//! of its round-`r` data already arrived. The barrier for round `r` releases
//! when every *expected* peer's `Done { r }` is in — or when the caller
//! gives up waiting ([`timed_out`](RoundSynchronizer::timed_out)) and
//! charges the missing peers with an omission for the round.
//!
//! The synchronizer enforces the same delivery rules as the simulator's
//! `SyncEngine`:
//!
//! * messages sent in round `r` are delivered at the start of round `r + 1`;
//! * duplicate `(sender, payload)` pairs within one round are discarded;
//! * the inbox is ordered by sender id, then by the sender's send order —
//!   byte-for-byte the engine's delivery order, which is what makes
//!   sim-vs-net equivalence checkable at all.
//!
//! Peers may legitimately run *ahead* of this node (they released a barrier
//! we timed out of): frames for future rounds are buffered, not dropped.
//! Frames for rounds this node has already advanced past are late — the
//! payload missed its delivery slot, which is exactly a receive omission in
//! the fault model's terms — and are dropped with a
//! [`LateDrop`](uba_trace::NetEventKind::LateDrop) outcome.
//!
//! # Round window (DESIGN.md §13)
//!
//! "Ahead" and "behind" are bounded: no honest peer can be more than the
//! retained-history window away from this node's current round, because a
//! rejoiner is backfilled from at most that much history and a live peer
//! only outruns us by charging timeouts. Frames beyond
//! `current + round_window` ([`DataOutcome::FarFuture`]) would let a
//! hostile peer allocate unbounded buckets; frames older than
//! `current - round_window` ([`DataOutcome::Stale`]) are replays of
//! long-dead rounds no honest peer still retains. Both are **misbehavior**,
//! not omissions, and the caller attributes them to the offending peer.
//! Two further per-round promises are checked: a peer's `Done { r }` claims
//! all of its round-`r` data was sent, so round-`r` data arriving *after*
//! it is an injection ([`DataOutcome::PostDone`]), and two `Done { r }`
//! markers with opposite `decided` flags are a barrier equivocation
//! ([`DoneOutcome::Conflict`]); delivery is first-writer-wins in both
//! cases, so an equivocator cannot retroactively rewrite a released slot.
//!
//! The synchronizer owns no sockets and performs no I/O, so every barrier
//! corner case (late peer, duplicate frame, peer loss mid-round) is testable
//! without opening a connection.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use uba_sim::{MsgRef, NodeId, Payload};

/// Default round window, and the default of `NetConfig::history_rounds`
/// (the deepest backfill any honest peer can serve): the two must match.
pub(crate) const DEFAULT_ROUND_WINDOW: u64 = 64;

/// What became of one incoming `Data` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DataOutcome {
    /// Accepted: the payload will appear in the inbox of `round + 1`.
    Delivered,
    /// A `(sender, payload)` pair already seen this round — discarded, per
    /// the model's per-round duplicate rule.
    Duplicate,
    /// The frame's round has already been advanced past; the payload missed
    /// its slot (an omission) and is dropped.
    Late,
    /// The frame's round is further in the past than any honest peer still
    /// retains (`round + round_window < current`): a stale-round replay,
    /// charged as misbehavior rather than an omission.
    Stale,
    /// The frame's round is further ahead than any honest peer can run
    /// (`round > current + round_window`): dropped before buffering so a
    /// hostile peer cannot allocate unbounded future buckets.
    FarFuture,
    /// The sender's `Done` marker for this round already arrived, which
    /// promised all of its round data was sent: a late injection, dropped
    /// (first-writer-wins — the pre-`Done` payload set stands).
    PostDone,
}

impl DataOutcome {
    /// The misbehavior this outcome is charged as — the `kind` label of
    /// `net_misbehavior_total` — if it is a protocol violation no honest
    /// peer can produce; `None` for a benign race or duplicate.
    pub(crate) fn strike(self) -> Option<&'static str> {
        match self {
            DataOutcome::Stale => Some("stale_replay"),
            DataOutcome::FarFuture => Some("far_future"),
            DataOutcome::PostDone => Some("post_done_data"),
            DataOutcome::Delivered | DataOutcome::Duplicate | DataOutcome::Late => None,
        }
    }
}

/// What became of one incoming `Done` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DoneOutcome {
    /// Recorded for the current or a legitimately-future round.
    Accepted,
    /// Marker for an already-released barrier; ignored (benign race).
    Late,
    /// Round outside the synchronizer's round window on either side — the
    /// barrier analogue of [`DataOutcome::Stale`] /
    /// [`DataOutcome::FarFuture`]; charged as misbehavior.
    OutOfWindow,
    /// A marker for this round already arrived from the same peer with the
    /// *opposite* `decided` flag: a barrier equivocation. The first marker
    /// stands; charged as misbehavior.
    Conflict,
}

impl DoneOutcome {
    /// The misbehavior this outcome is charged as, like
    /// [`DataOutcome::strike`].
    pub(crate) fn strike(self) -> Option<&'static str> {
        match self {
            DoneOutcome::OutOfWindow => Some("done_out_of_window"),
            DoneOutcome::Conflict => Some("done_conflict"),
            DoneOutcome::Accepted | DoneOutcome::Late => None,
        }
    }
}

/// Per-round collection state: everything received *for* one round.
#[derive(Debug)]
struct RoundBucket<M> {
    /// Dedup set over `(sender, payload)`, the model's duplicate rule.
    seen: HashSet<(NodeId, MsgRef<M>)>,
    /// Accepted messages in arrival order (re-sorted by sender at advance).
    msgs: Vec<(NodeId, MsgRef<M>)>,
    /// Peers whose `Done` marker arrived, with their decided flag.
    done: BTreeMap<NodeId, bool>,
}

impl<M> RoundBucket<M> {
    fn new() -> Self {
        RoundBucket {
            seen: HashSet::new(),
            msgs: Vec::new(),
            done: BTreeMap::new(),
        }
    }
}

/// The send/deliver barrier for one node of a networked cluster.
///
/// Tracks, per round, which peers have completed (`Done` received), which
/// payloads arrived (with duplicate suppression), and which peers the node
/// still expects at the barrier. See the [module docs](self) for the
/// protocol.
#[derive(Debug)]
pub(crate) struct RoundSynchronizer<M> {
    me: NodeId,
    round: u64,
    expected: BTreeSet<NodeId>,
    /// Buckets for the current and any future rounds peers ran ahead into.
    pending: BTreeMap<u64, RoundBucket<M>>,
    /// Consecutive rounds each expected peer has been silent at the barrier.
    silent: BTreeMap<NodeId, u64>,
    /// Accepted round distance from `round` in either direction; frames
    /// beyond it are misbehavior (see the module docs).
    round_window: u64,
}

impl<M: Payload> RoundSynchronizer<M> {
    /// Creates a synchronizer for node `me` expecting `peers` at every
    /// barrier, positioned at round 1 (the first round processes an empty
    /// inbox, exactly like the engine).
    pub(crate) fn new(me: NodeId, peers: impl IntoIterator<Item = NodeId>) -> Self {
        let expected: BTreeSet<NodeId> = peers.into_iter().filter(|&p| p != me).collect();
        let silent = expected.iter().map(|&p| (p, 0)).collect();
        RoundSynchronizer {
            me,
            round: 1,
            expected,
            pending: BTreeMap::new(),
            silent,
            round_window: DEFAULT_ROUND_WINDOW,
        }
    }

    /// Sets the accepted round window (builder-style). [`NetNode`] passes
    /// its `history_rounds` here so the window matches the deepest backfill
    /// any honest peer can serve.
    ///
    /// [`NetNode`]: crate::NetNode
    pub(crate) fn with_round_window(mut self, rounds: u64) -> Self {
        self.round_window = rounds.max(1);
        self
    }

    /// Creates a synchronizer positioned at `first_round` instead of round
    /// 1: the crash-recovery entry point. A node that replayed its journal
    /// up to round `first_round - 1` resumes collecting at `first_round`;
    /// the rounds it missed while down arrive via `Backfill` frames, which
    /// feed [`accept_data`](Self::accept_data) /
    /// [`accept_done`](Self::accept_done) exactly like live traffic.
    pub(crate) fn resume_at(
        me: NodeId,
        peers: impl IntoIterator<Item = NodeId>,
        first_round: u64,
    ) -> Self {
        let mut sync = Self::new(me, peers);
        sync.round = first_round.max(1);
        sync
    }

    /// Starts expecting `peer` at barriers again (it completed a rejoin
    /// handshake after previously being declared gone), with a fresh
    /// silence counter. A no-op if the peer was never dropped.
    pub(crate) fn peer_rejoined(&mut self, peer: NodeId) {
        if peer == self.me {
            return;
        }
        self.expected.insert(peer);
        self.silent.insert(peer, 0);
    }

    /// This node's id.
    pub(crate) fn id(&self) -> NodeId {
        self.me
    }

    /// The round currently being collected (1-based).
    pub(crate) fn current_round(&self) -> u64 {
        self.round
    }

    /// The peers currently expected at the barrier, in ascending id order.
    pub(crate) fn expected(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.expected.iter().copied()
    }

    /// Records a payload this node sent to itself (the engine's broadcast
    /// self-delivery: a broadcast reaches every present node including the
    /// sender). Subject to the same duplicate rule as remote traffic.
    pub(crate) fn self_deliver(&mut self, msg: MsgRef<M>) -> DataOutcome {
        let round = self.round;
        self.insert(self.me, round, msg)
    }

    /// Records one incoming `Data { round }` frame from `from`.
    ///
    /// Frames for future rounds inside the round window are buffered (the
    /// peer ran ahead); frames for already-advanced rounds return
    /// [`DataOutcome::Late`]. Frames outside the window, or arriving after
    /// the sender's own `Done` for that round, are misbehavior (see the
    /// [module docs](self)).
    pub(crate) fn accept_data(&mut self, from: NodeId, round: u64, msg: MsgRef<M>) -> DataOutcome {
        if round > self.round.saturating_add(self.round_window) {
            return DataOutcome::FarFuture;
        }
        if round < self.round {
            return if round.saturating_add(self.round_window) < self.round {
                DataOutcome::Stale
            } else {
                DataOutcome::Late
            };
        }
        if self
            .pending
            .get(&round)
            .is_some_and(|b| b.done.contains_key(&from))
        {
            return DataOutcome::PostDone;
        }
        self.insert(from, round, msg)
    }

    fn insert(&mut self, from: NodeId, round: u64, msg: MsgRef<M>) -> DataOutcome {
        let bucket = self.pending.entry(round).or_insert_with(RoundBucket::new);
        if bucket.seen.insert((from, MsgRef::clone(&msg))) {
            bucket.msgs.push((from, msg));
            DataOutcome::Delivered
        } else {
            DataOutcome::Duplicate
        }
    }

    /// Records one incoming `Done { round, decided }` frame. Late markers
    /// are ignored (the barrier they belonged to already released);
    /// out-of-window rounds and conflicting `decided` flags are misbehavior
    /// and leave the recorded state untouched (first writer wins).
    pub(crate) fn accept_done(&mut self, from: NodeId, round: u64, decided: bool) -> DoneOutcome {
        if round > self.round.saturating_add(self.round_window) {
            return DoneOutcome::OutOfWindow;
        }
        if round < self.round {
            return if round.saturating_add(self.round_window) < self.round {
                DoneOutcome::OutOfWindow
            } else {
                DoneOutcome::Late
            };
        }
        let done = &mut self
            .pending
            .entry(round)
            .or_insert_with(RoundBucket::new)
            .done;
        match done.get(&from) {
            Some(&prior) if prior != decided => DoneOutcome::Conflict,
            _ => {
                done.insert(from, decided);
                DoneOutcome::Accepted
            }
        }
    }

    /// Whether every expected peer has delivered its `Done` marker for the
    /// current round (the barrier may release).
    pub(crate) fn barrier_complete(&self) -> bool {
        match self.pending.get(&self.round) {
            Some(bucket) => self.expected.iter().all(|p| bucket.done.contains_key(p)),
            None => self.expected.is_empty(),
        }
    }

    /// The expected peers whose `Done` marker for the current round has not
    /// arrived, in ascending id order.
    pub(crate) fn missing(&self) -> Vec<NodeId> {
        let done = self.pending.get(&self.round).map(|b| &b.done);
        self.expected
            .iter()
            .copied()
            .filter(|p| done.is_none_or(|d| !d.contains_key(p)))
            .collect()
    }

    /// Charges the current round's missing peers with an omission (the
    /// caller's barrier timeout fired). Each missed barrier increments the
    /// peer's consecutive-silence counter; a peer that shows up again resets
    /// it at the next [`advance`](Self::advance). Returns the peers charged.
    pub(crate) fn timed_out(&mut self) -> Vec<NodeId> {
        let missing = self.missing();
        for &peer in &missing {
            *self.silent.entry(peer).or_insert(0) += 1;
        }
        missing
    }

    /// How many consecutive barriers `peer` has missed.
    pub(crate) fn silent_rounds(&self, peer: NodeId) -> u64 {
        self.silent.get(&peer).copied().unwrap_or(0)
    }

    /// Stops expecting `peer` at future barriers (its connection closed for
    /// good, or it exceeded the configured silence budget). Pending data
    /// already accepted from it still delivers.
    pub(crate) fn peer_gone(&mut self, peer: NodeId) {
        self.expected.remove(&peer);
        self.silent.remove(&peer);
    }

    /// Whether this node may shut down: its own process has decided *and*
    /// every expected peer reported `decided` at the current barrier.
    ///
    /// All members evaluate this over the same `Done` flags at the same
    /// barrier, so (absent timeouts) they reach the verdict in unison — the
    /// distributed analogue of the engine noticing that every process
    /// terminated.
    pub(crate) fn all_decided(&self, self_decided: bool) -> bool {
        if !self_decided {
            return false;
        }
        match self.pending.get(&self.round) {
            Some(bucket) => self
                .expected
                .iter()
                .all(|p| bucket.done.get(p).copied().unwrap_or(false)),
            None => self.expected.is_empty(),
        }
    }

    /// Releases the barrier: consumes the current round's bucket and returns
    /// the inbox for the next round, ordered by sender id then send order
    /// (the engine's delivery order). Peers that made this barrier have
    /// their silence counter reset.
    pub(crate) fn advance(&mut self) -> Vec<(NodeId, MsgRef<M>)> {
        let bucket = self.pending.remove(&self.round);
        if let Some(bucket) = &bucket {
            for (&peer, count) in self.silent.iter_mut() {
                if bucket.done.contains_key(&peer) {
                    *count = 0;
                }
            }
        }
        self.round += 1;
        let mut inbox = bucket.map(|b| b.msgs).unwrap_or_default();
        // Stable sort: within one sender, arrival order (= TCP send order)
        // is preserved, matching the engine's per-sender outbox order.
        inbox.sort_by_key(|&(from, _)| from);
        inbox
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(v: u64) -> MsgRef<u64> {
        MsgRef::new(v)
    }

    #[test]
    fn inbox_is_ordered_by_sender_then_send_order() {
        let mut sync = RoundSynchronizer::new(NodeId::new(1), [NodeId::new(2), NodeId::new(3)]);
        // Arrival order interleaves senders; N3 even arrives before N2.
        sync.accept_data(NodeId::new(3), 1, msg(30));
        sync.accept_data(NodeId::new(2), 1, msg(20));
        sync.accept_data(NodeId::new(3), 1, msg(31));
        sync.self_deliver(msg(10));
        sync.accept_done(NodeId::new(2), 1, false);
        sync.accept_done(NodeId::new(3), 1, false);
        assert!(sync.barrier_complete());
        let inbox: Vec<(u64, u64)> = sync
            .advance()
            .into_iter()
            .map(|(from, m)| (from.raw(), *m.get()))
            .collect();
        assert_eq!(inbox, vec![(1, 10), (2, 20), (3, 30), (3, 31)]);
    }

    #[test]
    fn duplicates_within_a_round_are_dropped_across_rounds_are_not() {
        let peer = NodeId::new(2);
        let mut sync = RoundSynchronizer::new(NodeId::new(1), [peer]);
        assert_eq!(sync.accept_data(peer, 1, msg(7)), DataOutcome::Delivered);
        assert_eq!(sync.accept_data(peer, 1, msg(7)), DataOutcome::Duplicate);
        sync.accept_done(peer, 1, false);
        assert!(sync.barrier_complete());
        assert_eq!(sync.advance().len(), 1);
        assert_eq!(sync.current_round(), 2);
        // Same payload in the next round is a fresh message.
        assert_eq!(sync.accept_data(peer, 2, msg(7)), DataOutcome::Delivered);
    }

    #[test]
    fn late_frames_are_rejected_and_future_frames_buffered() {
        let peer = NodeId::new(2);
        let mut sync = RoundSynchronizer::new(NodeId::new(1), [peer]);
        // Peer runs ahead: round-2 traffic arrives while we collect round 1.
        assert_eq!(sync.accept_data(peer, 2, msg(9)), DataOutcome::Delivered);
        sync.accept_done(peer, 2, false);
        assert!(!sync.barrier_complete(), "round-1 Done still missing");
        sync.accept_done(peer, 1, false);
        assert!(sync.barrier_complete());
        assert!(sync.advance().is_empty(), "no round-1 data was sent");
        // The buffered round-2 frame is already in place.
        assert!(sync.barrier_complete());
        assert_eq!(sync.advance().len(), 1);
        // Round 1 is long gone: its frames are late.
        assert_eq!(sync.accept_data(peer, 1, msg(1)), DataOutcome::Late);
        assert_eq!(sync.accept_done(peer, 1, false), DoneOutcome::Late);
    }

    #[test]
    fn frames_outside_the_round_window_are_misbehavior() {
        let peer = NodeId::new(2);
        let mut sync = RoundSynchronizer::new(NodeId::new(1), [peer]).with_round_window(4);
        // Ahead by exactly the window: still buffered.
        assert_eq!(sync.accept_data(peer, 5, msg(5)), DataOutcome::Delivered);
        assert_eq!(sync.accept_done(peer, 5, false), DoneOutcome::Accepted);
        // One past the window: refused before any bucket is allocated.
        assert_eq!(sync.accept_data(peer, 6, msg(6)), DataOutcome::FarFuture);
        assert_eq!(sync.accept_done(peer, 6, false), DoneOutcome::OutOfWindow);
        // Advance far enough that round 1 leaves the window behind us.
        for r in 1..=6 {
            sync.accept_done(peer, r, false);
            sync.advance();
        }
        assert_eq!(sync.current_round(), 7);
        assert_eq!(sync.accept_data(peer, 2, msg(2)), DataOutcome::Stale);
        assert_eq!(sync.accept_done(peer, 2, false), DoneOutcome::OutOfWindow);
        // Just inside the window on the past side stays a benign Late.
        assert_eq!(sync.accept_data(peer, 3, msg(3)), DataOutcome::Late);
    }

    #[test]
    fn data_after_the_senders_done_is_an_injection() {
        let peer = NodeId::new(2);
        let mut sync = RoundSynchronizer::new(NodeId::new(1), [peer]);
        assert_eq!(sync.accept_data(peer, 1, msg(1)), DataOutcome::Delivered);
        assert_eq!(sync.accept_done(peer, 1, false), DoneOutcome::Accepted);
        // TCP order means an honest peer's Done proves its data all arrived;
        // more round-1 data from the same peer is a late injection.
        assert_eq!(sync.accept_data(peer, 1, msg(2)), DataOutcome::PostDone);
        // First-writer-wins: only the pre-Done payload delivers.
        assert_eq!(sync.advance().len(), 1);
        // Other peers' markers do not gate this sender.
        let mut sync2 = RoundSynchronizer::new(NodeId::new(1), [peer, NodeId::new(3)]);
        sync2.accept_done(NodeId::new(3), 1, false);
        assert_eq!(sync2.accept_data(peer, 1, msg(1)), DataOutcome::Delivered);
    }

    #[test]
    fn conflicting_done_flags_are_equivocation_and_first_writer_wins() {
        let peer = NodeId::new(2);
        let mut sync = RoundSynchronizer::<u64>::new(NodeId::new(1), [peer]);
        assert_eq!(sync.accept_done(peer, 1, false), DoneOutcome::Accepted);
        // Re-sending the same flag is an idempotent no-op...
        assert_eq!(sync.accept_done(peer, 1, false), DoneOutcome::Accepted);
        // ...but flipping it is a barrier equivocation; the first stands.
        assert_eq!(sync.accept_done(peer, 1, true), DoneOutcome::Conflict);
        assert!(!sync.all_decided(true), "first (undecided) marker stands");
    }

    #[test]
    fn every_outcome_maps_to_its_documented_strike_kind() {
        // The kind strings are label values of `net_misbehavior_total` and
        // part of the trace text: a contract, not an implementation detail.
        let data = [
            (DataOutcome::Delivered, None),
            (DataOutcome::Duplicate, None),
            (DataOutcome::Late, None),
            (DataOutcome::Stale, Some("stale_replay")),
            (DataOutcome::FarFuture, Some("far_future")),
            (DataOutcome::PostDone, Some("post_done_data")),
        ];
        for (outcome, kind) in data {
            assert_eq!(outcome.strike(), kind, "{outcome:?}");
        }
        let done = [
            (DoneOutcome::Accepted, None),
            (DoneOutcome::Late, None),
            (DoneOutcome::OutOfWindow, Some("done_out_of_window")),
            (DoneOutcome::Conflict, Some("done_conflict")),
        ];
        for (outcome, kind) in done {
            assert_eq!(outcome.strike(), kind, "{outcome:?}");
        }
    }

    #[test]
    fn timeout_charges_missing_peers_and_presence_resets_the_counter() {
        let (a, b) = (NodeId::new(2), NodeId::new(3));
        let mut sync = RoundSynchronizer::<u64>::new(NodeId::new(1), [a, b]);
        sync.accept_done(a, 1, false);
        assert_eq!(sync.missing(), vec![b]);
        assert_eq!(sync.timed_out(), vec![b]);
        assert_eq!(sync.silent_rounds(b), 1);
        sync.advance();
        // b shows up for round 2: its counter resets at the next advance.
        sync.accept_done(a, 2, false);
        sync.accept_done(b, 2, false);
        assert!(sync.barrier_complete());
        sync.advance();
        assert_eq!(sync.silent_rounds(b), 0);
    }

    #[test]
    fn peer_gone_shrinks_the_barrier() {
        let (a, b) = (NodeId::new(2), NodeId::new(3));
        let mut sync = RoundSynchronizer::<u64>::new(NodeId::new(1), [a, b]);
        sync.accept_done(a, 1, true);
        assert!(!sync.barrier_complete());
        sync.peer_gone(b);
        assert!(sync.barrier_complete());
        assert!(sync.all_decided(true));
        assert!(!sync.all_decided(false));
    }

    #[test]
    fn resume_at_collects_from_the_given_round() {
        let peer = NodeId::new(2);
        let mut sync = RoundSynchronizer::resume_at(NodeId::new(1), [peer], 5);
        assert_eq!(sync.current_round(), 5);
        // Everything before the resume point is already journaled: frames
        // for those rounds (e.g. re-sent by a peer) are late, not buffered.
        assert_eq!(sync.accept_data(peer, 4, msg(4)), DataOutcome::Late);
        assert_eq!(sync.accept_data(peer, 5, msg(5)), DataOutcome::Delivered);
        sync.accept_done(peer, 5, false);
        assert!(sync.barrier_complete());
        assert_eq!(sync.advance().len(), 1);
        assert_eq!(sync.current_round(), 6);
    }

    #[test]
    fn rejoined_peer_is_expected_again_with_fresh_silence() {
        let peer = NodeId::new(2);
        let mut sync = RoundSynchronizer::<u64>::new(NodeId::new(1), [peer]);
        sync.timed_out();
        sync.peer_gone(peer);
        assert!(sync.barrier_complete(), "gone peers do not block barriers");
        sync.peer_rejoined(peer);
        assert!(!sync.barrier_complete(), "rejoined peer blocks again");
        assert_eq!(sync.silent_rounds(peer), 0);
        assert_eq!(sync.missing(), vec![peer]);
        // Rejoining itself must stay impossible.
        sync.peer_rejoined(NodeId::new(1));
        assert_eq!(sync.expected().collect::<Vec<_>>(), vec![peer]);
    }

    #[test]
    fn all_decided_requires_every_flag() {
        let (a, b) = (NodeId::new(2), NodeId::new(3));
        let mut sync = RoundSynchronizer::<u64>::new(NodeId::new(1), [a, b]);
        sync.accept_done(a, 1, true);
        sync.accept_done(b, 1, false);
        assert!(sync.barrier_complete());
        assert!(!sync.all_decided(true), "b has not decided yet");
        sync.advance();
        sync.accept_done(a, 2, true);
        sync.accept_done(b, 2, true);
        assert!(sync.all_decided(true));
    }
}
