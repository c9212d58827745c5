//! Total ordering of events in a dynamic network — Algorithm 6 of the paper.
//!
//! Nodes enter and leave the system (subject to `n > 3f` holding at every
//! round) and must maintain a common, growing total order over the events
//! they witness. The algorithm starts one [parallel-consensus
//! wave](crate::parallel) per round `r`, tagged with `r` and run *with
//! respect to* the membership snapshot `S` taken when the wave starts; a
//! round `r'` becomes **final** once `r - r' > 5·|S^{r'}|/2 + 2` (enough
//! rounds for the wave's consensus to have terminated everywhere), and the
//! chain output is the concatenation of the outputs of all final waves in
//! wave order. The chain is maintained, not recomputed: each loop round ends
//! by moving the waves that just became final off the pending maps onto the
//! chain's end. The two guarantees (for `n > 3f` in every round):
//!
//! - **Chain-prefix** — the chains of any two correct nodes are prefixes of
//!   one another;
//! - **Chain-growth** — the chain keeps growing while correct nodes submit
//!   events.
//!
//! ## Joining and leaving
//!
//! A joining node broadcasts `present`; every member replies `(ack, r)` with
//! its current round, and the joiner adopts the majority round (correct
//! members all agree on it) and initializes `S` to the ack senders. Nodes
//! announce departure with `absent` and keep participating in outstanding
//! waves until those terminate. Two nodes joining in the same round also
//! record each other's `present` while still in the join phase — without
//! this, simultaneous joiners would permanently miss each other (see
//! DESIGN.md interpretation notes).

use std::collections::{BTreeMap, BTreeSet};

use uba_sim::{Context, Dest, NodeId, Process};

use crate::parallel::{ParMsg, ParallelConsensusCore};
use crate::quorum::max_tally;
use crate::value::Value;

/// Messages of the total-ordering protocol.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum OrderMsg<V> {
    /// A node announces that it wants to participate.
    Present,
    /// A member replies to `present` with its current round.
    Ack(u64),
    /// A node announces departure.
    Absent,
    /// `(m, r)` — an event `m` witnessed in round `r`.
    Event(V, u64),
    /// A message of the parallel-consensus wave started in the given round.
    Wave(u64, ParMsg<NodeId, V>),
}

/// One ordered event of the output chain.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OrderedEvent<V> {
    /// The wave (round) that agreed on the event.
    pub wave: u64,
    /// The node that submitted the event (the instance identifier).
    pub origin: NodeId,
    /// The event value.
    pub value: V,
}

/// The totally ordered chain of events.
pub type Chain<V> = Vec<OrderedEvent<V>>;

#[derive(Clone, Debug, PartialEq, Eq)]
enum Mode {
    /// A founding member: starts its loop immediately with `r = 0`, `S = {v}`.
    Genesis,
    /// Join protocol: `present` broadcast pending.
    JoinAnnounce,
    /// Join protocol: `present` sent, acks are in flight.
    JoinWait,
    /// In the main loop.
    Running,
    /// `absent` announced; finishing outstanding waves.
    Leaving,
    /// All outstanding waves finished after leaving (or horizon reached).
    Done,
}

/// One node's state machine for Algorithm 6.
///
/// The protocol itself never terminates (chains grow forever); for use with
/// [`run_to_completion`](uba_sim::SyncEngine::run_to_completion) configure
/// either a [horizon](TotalOrdering::with_horizon) or a
/// [departure](TotalOrdering::with_leave_at), at which point the process
/// outputs its final chain. The growing chain is available at any time via
/// [`chain`](TotalOrdering::chain).
///
/// # Examples
///
/// ```
/// use uba_core::ordering::TotalOrdering;
/// use uba_sim::{sparse_ids, SyncEngine};
///
/// let ids = sparse_ids(4, 4);
/// let mut engine = SyncEngine::builder()
///     .correct_many(ids.iter().map(|&id| {
///         TotalOrdering::genesis(id)
///             .with_events([(2, format!("event-from-{id}"))])
///             .with_horizon(40)
///     }))
///     .build();
/// let done = engine.run_to_completion(45)?;
/// let chains: Vec<_> = done.outputs.values().cloned().collect();
/// assert!(chains.iter().all(|c| c == &chains[0]), "identical chains");
/// assert_eq!(chains[0].len(), 4, "all four events ordered");
/// # Ok::<(), uba_sim::EngineError>(())
/// ```
#[derive(Clone, Debug)]
pub struct TotalOrdering<V> {
    me: NodeId,
    mode: Mode,
    /// Current loop round `r` (synchronized across correct nodes).
    r: u64,
    /// Current membership estimate `S`.
    s: BTreeSet<NodeId>,
    /// Events this node will witness, keyed by the loop round they occur in.
    events: BTreeMap<u64, V>,
    /// In-flight waves keyed by wave number: wave `w` starts in loop round
    /// `w` and is stepped once per loop round, so its local round is
    /// `r - w + 1`.
    waves: BTreeMap<u64, ParallelConsensusCore<NodeId, V>>,
    /// Outputs of terminated waves that are not final yet.
    results: BTreeMap<u64, BTreeMap<NodeId, V>>,
    /// `|S|` snapshot of every not-yet-final wave this node started (for
    /// the finality rule); its first key is the next wave to judge.
    s_sizes: BTreeMap<u64, usize>,
    /// The finality cursor: the newest final wave, once there is one.
    last_final: Option<u64>,
    /// The outputs of all final waves in wave order; only ever appended to.
    chain: Chain<V>,
    /// Terminate and output the chain at this loop round.
    horizon: Option<u64>,
    /// Announce departure at this loop round.
    leave_at: Option<u64>,
}

impl<V: Value> TotalOrdering<V> {
    /// Creates a founding member (starts at round 0 with `S = {me}`).
    pub fn genesis(me: NodeId) -> Self {
        TotalOrdering {
            me,
            mode: Mode::Genesis,
            r: 0,
            s: BTreeSet::from([me]),
            events: BTreeMap::new(),
            waves: BTreeMap::new(),
            results: BTreeMap::new(),
            s_sizes: BTreeMap::new(),
            last_final: None,
            chain: Vec::new(),
            horizon: None,
            leave_at: None,
        }
    }

    /// Creates a node that joins a running system: it announces itself with
    /// `present` and synchronizes its round from the members' acks.
    pub fn joining(me: NodeId) -> Self {
        let mut node = Self::genesis(me);
        node.mode = Mode::JoinAnnounce;
        node
    }

    /// Schedules the events this node witnesses, keyed by loop round.
    /// Events scheduled for rounds before the node has joined are dropped.
    pub fn with_events<I: IntoIterator<Item = (u64, V)>>(mut self, events: I) -> Self {
        self.events.extend(events);
        self
    }

    /// Enqueues an event while the process is already running, scheduling
    /// it for the first free round after the current one (each loop round
    /// broadcasts at most one event per node). Returns the scheduled round,
    /// or `None` once the process has terminated and can order nothing
    /// more. This is the live-submission path of the `uba-net` log service:
    /// `with_events` declares a workload up front, `enqueue_event` feeds
    /// one in mid-run.
    pub fn enqueue_event(&mut self, value: V) -> Option<u64> {
        if self.mode == Mode::Done {
            return None;
        }
        let mut round = self.r + 1;
        while self.events.contains_key(&round) {
            round += 1;
        }
        self.events.insert(round, value);
        Some(round)
    }

    /// Terminates the process at the given loop round, outputting the chain.
    pub fn with_horizon(mut self, round: u64) -> Self {
        self.horizon = Some(round);
        self
    }

    /// Announces departure (`absent`) at the given loop round; the process
    /// keeps participating in outstanding waves, then terminates with its
    /// final chain.
    pub fn with_leave_at(mut self, round: u64) -> Self {
        self.leave_at = Some(round);
        self
    }

    /// The node's current loop round.
    pub fn round(&self) -> u64 {
        self.r
    }

    /// The node's current membership estimate `S`.
    pub fn members(&self) -> &BTreeSet<NodeId> {
        &self.s
    }

    /// The largest round `R` such that every round this node participated
    /// in up to `R` is final. A node that joined late only reports waves
    /// from its own first wave on — it has no way to reconstruct earlier
    /// history (its chain is suffix-consistent with older members' chains).
    pub fn finality_round(&self) -> u64 {
        let first_pending = self.s_sizes.first_key_value().map(|(&w, _)| w - 1);
        self.last_final.or(first_pending).unwrap_or(0)
    }

    /// The current chain: the outputs of all final waves, in wave order,
    /// events within a wave ordered by origin id.
    pub fn chain(&self) -> &[OrderedEvent<V>] {
        &self.chain
    }

    /// Moves every wave that became final this round off `results` /
    /// `s_sizes` onto the chain. A running node starts one wave per loop
    /// round, so the first pending wave is always the cursor's successor.
    fn advance_finality(&mut self) {
        while let Some((&wave, &s_size)) = self.s_sizes.first_key_value() {
            // r - w > 5·s/2 + 2  ⟺  2(r - w) > 5s + 4; additionally the
            // wave's consensus must actually have terminated (it always has
            // by this time when n > 3f — see the paper's proof).
            if 2 * self.r.saturating_sub(wave) <= 5 * s_size as u64 + 4 {
                break;
            }
            let Some(outputs) = self.results.remove(&wave) else {
                break;
            };
            self.s_sizes.pop_first();
            self.last_final = Some(wave);
            for (origin, value) in outputs {
                self.chain.push(OrderedEvent {
                    wave,
                    origin,
                    value,
                });
            }
        }
    }

    /// Executes one round on this round's delivered messages; outgoing
    /// messages are appended to `out`. The protocol keeps its own loop round
    /// and reads no engine round, so this is the whole protocol: the
    /// [`Process`] impl adapts the engine's context to it, and a host whose
    /// messages wrap the instance's (the `uba-net` log service, which
    /// bundles them) calls it with the unwrapped messages of its inbox.
    pub fn step<'a>(
        &mut self,
        inbox: impl IntoIterator<Item = (NodeId, &'a OrderMsg<V>)>,
        out: &mut Vec<(Dest, OrderMsg<V>)>,
    ) {
        match self.mode {
            Mode::Genesis => {
                // Founders announce themselves so everyone discovers
                // everyone in the first loop round.
                out.push((Dest::Broadcast, OrderMsg::Present));
                self.mode = Mode::Running;
                self.loop_round(inbox, out);
            }
            Mode::JoinAnnounce => {
                out.push((Dest::Broadcast, OrderMsg::Present));
                self.mode = Mode::JoinWait;
            }
            Mode::JoinWait => {
                // Acks are in flight; record other joiners' presents so that
                // simultaneous joiners know each other. An ack whose round
                // has no successor is nobody's current round and is not
                // counted.
                let mut next_rounds: BTreeMap<u64, usize> = BTreeMap::new();
                for (from, msg) in inbox {
                    match msg {
                        OrderMsg::Present => {
                            self.s.insert(from);
                        }
                        OrderMsg::Ack(t) => {
                            self.s.insert(from);
                            if let Some(next) = t.checked_add(1) {
                                *next_rounds.entry(next).or_insert(0) += 1;
                            }
                        }
                        _ => {}
                    }
                }
                // Majority round among the acks (ties toward smaller).
                if let Some((r, _)) = max_tally(&next_rounds) {
                    self.r = r;
                    self.mode = Mode::Running;
                }
            }
            Mode::Running | Mode::Leaving => self.loop_round(inbox, out),
            Mode::Done => {}
        }
    }

    /// One main-loop iteration (everything after the join protocol).
    fn loop_round<'a>(
        &mut self,
        inbox: impl IntoIterator<Item = (NodeId, &'a OrderMsg<V>)>,
        out: &mut Vec<(Dest, OrderMsg<V>)>,
    ) where
        V: 'a,
    {
        self.r += 1;
        let running = self.mode == Mode::Running;

        // One pass over the inbox: a running member processes membership
        // announcements and collects this round's events by origin; every
        // wave message goes to its wave's share.
        let mut events: BTreeMap<NodeId, &V> = BTreeMap::new();
        let mut per_wave: BTreeMap<u64, Vec<_>> = BTreeMap::new();
        for (from, msg) in inbox {
            match msg {
                OrderMsg::Wave(w, m) => per_wave.entry(*w).or_default().push((from, m)),
                _ if !running => {}
                OrderMsg::Present => {
                    self.s.insert(from);
                    out.push((Dest::To(from), OrderMsg::Ack(self.r)));
                }
                OrderMsg::Absent => {
                    self.s.remove(&from);
                }
                // A round without a successor matches no loop round.
                OrderMsg::Event(m, round)
                    if round.checked_add(1) == Some(self.r) && self.s.contains(&from) =>
                {
                    // Deterministic pick if an equivocating origin sends
                    // several events in one round.
                    let pick = events.entry(from).or_insert(m);
                    *pick = m.min(*pick);
                }
                _ => {}
            }
        }

        if running && self.leave_at == Some(self.r) {
            out.push((Dest::Broadcast, OrderMsg::Absent));
            self.mode = Mode::Leaving;
        }

        if self.mode == Mode::Running {
            // Witness this round's event, if any.
            if let Some(m) = self.events.remove(&self.r) {
                out.push((Dest::Broadcast, OrderMsg::Event(m, self.r)));
            }
            // Start wave r with the events received this round, with respect
            // to the current S.
            let inputs = events.into_iter().map(|(origin, m)| (origin, m.clone()));
            let core = ParallelConsensusCore::new(self.me, inputs).restrict_to(self.s.clone());
            self.waves.insert(self.r, core);
            self.s_sizes.insert(self.r, self.s.len());
        }

        // Step every in-flight wave with its share of this round's inbox.
        let mut wave_out = Vec::new();
        let r = self.r;
        self.waves.retain(|&w, wave| {
            let wave_inbox = per_wave.remove(&w).unwrap_or_default();
            wave.step(r - w + 1, wave_inbox, &mut wave_out);
            out.extend(
                wave_out
                    .drain(..)
                    .map(|m| (Dest::Broadcast, OrderMsg::Wave(w, m))),
            );
            match wave.take_output() {
                Some(result) => {
                    self.results.insert(w, result);
                    false
                }
                None => true,
            }
        });

        self.advance_finality();
        let left = self.mode == Mode::Leaving && self.waves.is_empty();
        if left || self.horizon == Some(self.r) {
            self.mode = Mode::Done;
        }
    }
}

impl<V: Value> Process for TotalOrdering<V> {
    type Msg = OrderMsg<V>;
    type Output = Chain<V>;

    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, ctx: &mut Context<'_, OrderMsg<V>>) {
        let mut out = Vec::new();
        self.step(ctx.inbox().iter().map(|e| (e.from, e.msg())), &mut out);
        for (dest, msg) in out {
            match dest {
                Dest::Broadcast => ctx.broadcast(msg),
                Dest::To(to) => ctx.send(to, msg),
            }
        }
    }

    fn output(&self) -> Option<Chain<V>> {
        self.terminated().then(|| self.chain.clone())
    }

    fn terminated(&self) -> bool {
        self.mode == Mode::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_sim::{sparse_ids, ChurnSchedule, SyncEngine};

    fn assert_prefix<V: PartialEq + std::fmt::Debug>(a: &[V], b: &[V]) {
        let k = a.len().min(b.len());
        assert_eq!(&a[..k], &b[..k], "chain-prefix violated");
    }

    #[test]
    fn static_membership_orders_all_events_identically() {
        let ids = sparse_ids(4, 15);
        let mut engine = SyncEngine::builder()
            .correct_many(ids.iter().enumerate().map(|(i, &id)| {
                TotalOrdering::genesis(id)
                    .with_events([(2 + i as u64, i as u64)])
                    .with_horizon(50)
            }))
            .build();
        let done = engine.run_to_completion(55).expect("horizon reached");
        let chains: Vec<Chain<u64>> = done.outputs.values().cloned().collect();
        for c in &chains {
            assert_eq!(c, &chains[0]);
        }
        assert_eq!(chains[0].len(), 4, "all events final: {:?}", chains[0]);
        // Events were witnessed in rounds 2..=5, so they land in waves 3..=6
        // in that order.
        let waves: Vec<u64> = chains[0].iter().map(|e| e.wave).collect();
        assert_eq!(waves, vec![3, 4, 5, 6]);
    }

    #[test]
    fn chains_grow_over_time() {
        let ids = sparse_ids(3, 7);
        let mut engine = SyncEngine::builder()
            .correct_many(ids.iter().map(|&id| {
                TotalOrdering::genesis(id)
                    .with_events((2..20).map(|r| (r, r)))
                    .with_horizon(60)
            }))
            .build();
        let mut lengths = Vec::new();
        for _ in 0..6 {
            engine.run_rounds(10);
            let chain = engine
                .process(ids[0])
                .map(|p| p.chain())
                .unwrap_or_default();
            lengths.push(chain.len());
        }
        assert!(lengths.windows(2).all(|w| w[0] <= w[1]));
        assert!(*lengths.last().unwrap() > 0, "chain-growth: {lengths:?}");
    }

    #[test]
    fn live_enqueued_events_are_ordered_on_every_chain() {
        let ids = sparse_ids(3, 21);
        let mut engine = SyncEngine::builder()
            .correct_many(
                ids.iter()
                    .map(|&id| TotalOrdering::genesis(id).with_horizon(60)),
            )
            .build();
        engine.run_rounds(10);
        // A submission arriving mid-run lands in the first free round after
        // the node's current one; two submissions to the same node take
        // consecutive slots.
        let node = engine.process_mut(ids[0]).expect("node present");
        let first = node.enqueue_event(501).expect("still running");
        let second = node.enqueue_event(502).expect("still running");
        assert!(first > node.round());
        assert_eq!(second, first + 1);
        let done = engine.run_to_completion(70).expect("horizon reached");
        let chains: Vec<Chain<u64>> = done.outputs.values().cloned().collect();
        for c in &chains {
            assert_eq!(c, &chains[0]);
        }
        let values: Vec<u64> = chains[0].iter().map(|e| e.value).collect();
        assert_eq!(values, vec![501, 502], "live events ordered in slot order");
    }

    #[test]
    fn enqueue_after_termination_is_rejected() {
        let ids = sparse_ids(3, 5);
        let mut engine = SyncEngine::builder()
            .correct_many(
                ids.iter()
                    .map(|&id| TotalOrdering::genesis(id).with_horizon(8)),
            )
            .build();
        engine.run_to_completion(12).expect("horizon reached");
        let node = engine.process_mut(ids[0]).expect("node present");
        assert_eq!(node.enqueue_event(1), None, "done process orders nothing");
    }

    #[test]
    fn same_round_events_are_ordered_by_origin() {
        let ids = sparse_ids(4, 33);
        let mut engine = SyncEngine::builder()
            .correct_many(ids.iter().enumerate().map(|(i, &id)| {
                TotalOrdering::genesis(id)
                    .with_events([(3, 100 + i as u64)])
                    .with_horizon(45)
            }))
            .build();
        let done = engine.run_to_completion(50).expect("horizon");
        let chain = done.outputs.values().next().unwrap().clone();
        assert_eq!(chain.len(), 4);
        assert!(chain.iter().all(|e| e.wave == 4));
        let origins: Vec<NodeId> = chain.iter().map(|e| e.origin).collect();
        assert_eq!(origins, ids, "tie-break by ascending origin id");
    }

    #[test]
    fn joining_node_synchronizes_round_and_participates() {
        let ids = sparse_ids(5, 91);
        let joiner = ids[4];
        let mut churn: ChurnSchedule<TotalOrdering<u64>> = ChurnSchedule::new();
        churn.join_correct(
            5,
            TotalOrdering::joining(joiner)
                .with_events([(12, 777u64)])
                .with_horizon(70),
        );
        let mut engine = SyncEngine::builder()
            .correct_many(ids[..4].iter().map(|&id| {
                TotalOrdering::genesis(id)
                    .with_events([(3, id.raw() % 100)])
                    .with_horizon(70)
            }))
            .churn(churn)
            .build();
        let done = engine.run_to_completion(75).expect("horizon");
        // All founding members output identical chains.
        let member_chains: Vec<&Chain<u64>> = ids[..4].iter().map(|id| &done.outputs[id]).collect();
        for c in &member_chains {
            assert_eq!(*c, member_chains[0], "chain agreement among members");
        }
        assert!(
            member_chains[0].iter().any(|e| e.value == 777),
            "the joiner's event was ordered: {:?}",
            member_chains[0]
        );
        // The joiner reports exactly the suffix of the common chain starting
        // at its own first wave (it cannot reconstruct earlier history).
        let joiner_chain = &done.outputs[&joiner];
        assert!(!joiner_chain.is_empty(), "joiner orders post-join events");
        let first_wave = joiner_chain[0].wave;
        let expected_suffix: Chain<u64> = member_chains[0]
            .iter()
            .filter(|e| e.wave >= first_wave)
            .cloned()
            .collect();
        assert_eq!(joiner_chain, &expected_suffix, "suffix-consistency");
    }

    #[test]
    fn leaving_node_finishes_outstanding_waves() {
        let ids = sparse_ids(4, 55);
        let leaver = ids[0];
        let mut engine = SyncEngine::builder()
            .correct_many(ids.iter().map(|&id| {
                let node = TotalOrdering::genesis(id).with_events([(2, id.raw() % 10)]);
                if id == leaver {
                    node.with_leave_at(10)
                } else {
                    node.with_horizon(60)
                }
            }))
            .build();
        let done = engine.run_to_completion(65).expect("completes");
        let leaver_chain = &done.outputs[&leaver];
        for (&id, chain) in &done.outputs {
            if id != leaver {
                assert_prefix(leaver_chain, chain);
                assert_eq!(chain.len(), 4, "stayers order all events");
            }
        }
    }

    #[test]
    fn rounds_without_a_successor_are_ignored_not_overflowed() {
        // A Byzantine node floods `Event(_, u64::MAX)` and `Ack(u64::MAX)`.
        // The event reaches every running member's `round + 1 == r` test;
        // the ack reaches the joiner one round before any honest ack can
        // (the adversary need not wait for the `present`), so it is the
        // whole ack tally of that round. Neither round has a successor:
        // the event matches no loop round and the ack is not adopted.
        use uba_sim::{AdversaryOutbox, AdversaryView, FnAdversary};
        type M = OrderMsg<u64>;
        let ids = sparse_ids(5, 91);
        let joiner = ids[4];
        let byz = NodeId::new(13);
        let adv = FnAdversary::new(
            move |_: &AdversaryView<'_, M>, out: &mut AdversaryOutbox<M>| {
                out.broadcast(byz, OrderMsg::Event(7, u64::MAX));
                out.broadcast(byz, OrderMsg::Ack(u64::MAX));
            },
        );
        let mut churn: ChurnSchedule<TotalOrdering<u64>> = ChurnSchedule::new();
        churn.join_correct(5, TotalOrdering::joining(joiner).with_horizon(40));
        let mut engine = SyncEngine::builder()
            .correct_many(ids[..4].iter().map(|&id| {
                TotalOrdering::genesis(id)
                    .with_events([(3, id.raw() % 100)])
                    .with_horizon(40)
            }))
            .faulty(byz)
            .adversary(adv)
            .churn(churn)
            .build();
        engine.run_rounds(10);
        let rounds: BTreeSet<u64> = ids
            .iter()
            .map(|&id| engine.process(id).expect("present").round())
            .collect();
        assert_eq!(rounds.len(), 1, "joiner adopted the members' round");
        let done = engine.run_to_completion(45).expect("horizon");
        let chain = &done.outputs[&ids[0]];
        assert_eq!(chain.len(), 4, "the honest events, and only those");
        assert!(ids[..4].iter().all(|id| &done.outputs[id] == chain));
    }

    #[test]
    fn pending_maps_stay_within_the_finality_window() {
        let ids = sparse_ids(4, 15);
        let mut engine = SyncEngine::builder()
            .correct_many(ids.iter().enumerate().map(|(i, &id)| {
                let mine = (2..300u64).filter(move |r| r % 4 == i as u64);
                TotalOrdering::genesis(id).with_events(mine.map(|r| (r, r)))
            }))
            .build();
        engine.run_rounds(300);
        for &id in &ids {
            let node = engine.process(id).expect("present");
            // n = 4: a wave is final 13 rounds after it started.
            assert!(node.results.len() <= 16, "results: {}", node.results.len());
            assert!(node.s_sizes.len() <= 16, "s_sizes: {}", node.s_sizes.len());
            assert!(node.chain().len() > 250, "and the chain took them");
            assert_eq!(node.finality_round(), node.chain().last().unwrap().wave);
        }
    }

    #[test]
    fn every_round_extends_the_previous_chain_under_churn() {
        let ids = sparse_ids(5, 91);
        let (joiner, leaver) = (ids[4], ids[0]);
        let mut churn: ChurnSchedule<TotalOrdering<u64>> = ChurnSchedule::new();
        churn.join_correct(5, TotalOrdering::joining(joiner).with_events([(12, 777)]));
        let mut engine = SyncEngine::builder()
            .correct_many(ids[..4].iter().map(|&id| {
                let node = TotalOrdering::genesis(id).with_events([(3, id.raw() % 100)]);
                if id == leaver {
                    node.with_leave_at(10)
                } else {
                    node
                }
            }))
            .churn(churn)
            .build();
        let mut before: BTreeMap<NodeId, Chain<u64>> = BTreeMap::new();
        for round in 1..=45 {
            engine.run_rounds(1);
            for &id in &ids {
                let Some(node) = engine.process(id) else {
                    continue;
                };
                let was = before.insert(id, node.chain().to_vec()).unwrap_or_default();
                assert!(node.chain().starts_with(&was), "{id} at round {round}");
            }
        }
        assert_eq!(before.len(), 5, "every node was watched");
        assert!(before[&joiner].iter().any(|e| e.value == 777));
        assert_eq!(before[&ids[1]].len(), 5, "the stayers ordered every event");
    }

    #[test]
    fn finality_round_is_zero_before_any_wave() {
        let node: TotalOrdering<u64> = TotalOrdering::genesis(NodeId::new(1));
        assert_eq!(node.finality_round(), 0);
    }
}
