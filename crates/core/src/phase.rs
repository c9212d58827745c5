//! The phase frame and the substitution tally shared by the three
//! rotor-driven agreements: [`EarlyConsensus`](crate::consensus::EarlyConsensus)
//! (Algorithm 3), [`KingConsensus`](crate::consensus::king::KingConsensus)
//! (the appendix king) and
//! [`ParallelConsensusCore`](crate::parallel::ParallelConsensusCore)
//! (Algorithm 5).
//!
//! The three are the same machine: two initialization rounds that also
//! initialize one embedded rotor-coordinator and after which `n_v` is frozen
//! ("a node only accepts messages from a node if it counted towards `n_v`"),
//! then 5-round phases whose fourth round is one rotor step and whose fifth
//! may adopt the selected coordinator's opinion. [`PhaseFrame`] is that
//! machine, once. [`PhaseFrame::tally`] is the caption of Algorithm 3, once:
//! a counted member that sent nothing of the expected type is counted with a
//! value the receiver chooses. What each algorithm adds — its message ladder,
//! its termination rule, which value fills a silent member's slot — stays in
//! its own file.
//!
//! The frame counts by **member slot** (`tracker.rs`: ids numbered in
//! first-heard order, the freeze keeps the numbering). The rotor makes every
//! node reliably broadcast every candidate, so nearly all of an inbox is
//! `RotorEcho` — `n_v²` of them per round while the candidate set fills,
//! and as many again when the accepted candidates are re-echoed — and what
//! the frame pays per echo is at most one bit, with no tree walk on the
//! steady path:
//!
//! - the sender is resolved to its slot once per run of envelopes from the
//!   same sender, by first trying the slot after the previous sender's
//!   (senders arrive in first-heard order);
//! - "distinct members that echoed `p` since the last rotor step" is a row
//!   of one flat bit matrix ([`EchoTally`]), and the row is found by first
//!   trying the one after the last hit, since every correct sender echoes
//!   candidates in ascending order;
//! - after a rotor step the rows of the candidates in `C_v` are *closed*:
//!   the rotor never reads their support again, so an echo for one stops
//!   at the row lookup.
//!
//! The silent members of a substitution tally are likewise the unset bits
//! of a sender bitset. Slots never reach a message or a decision: only
//! counts and winners do.

use std::collections::BTreeMap;

use uba_sim::NodeId;

use crate::consensus::phase_of_round;
use crate::quorum::first_max;
use crate::rotor::RotorCore;
use crate::tracker::{FrozenMembership, ParticipantTracker};

/// The embedded rotor-coordinator's share of a message enum.
#[derive(Clone, Copy)]
pub(crate) enum RotorPart {
    /// Willingness to coordinate (round 1).
    Init,
    /// Candidate echo.
    Echo(NodeId),
}

/// A message enum that carries the embedded rotor's `RotorInit`/`RotorEcho`.
pub(crate) trait FrameMsg {
    fn from_rotor(part: RotorPart) -> Self;
    fn as_rotor(&self) -> Option<RotorPart>;
}

/// What a phase round sees: where it is, the frozen `n_v`, and this round's
/// messages from frozen members, rotor traffic already taken out.
pub(crate) struct Tick<'a, M> {
    pub phase: u64,
    pub round: u8,
    pub n: usize,
    pub inbox: Vec<(NodeId, &'a M)>,
}

/// Where `slot` lives in a slot-indexed bitset: word index and bit mask.
#[inline]
fn locate(slot: u32) -> (usize, u64) {
    ((slot / u64::BITS) as usize, 1 << (slot % u64::BITS))
}

/// The sender's member slot (`None`: not a member), looked up once per run
/// of equal senders: `resolve` is only called when `from` differs from the
/// previous envelope's sender, and is handed a guess — the slot after the
/// last member resolved, since senders arrive in the order they were first
/// heard. Grouped senders (how the engine delivers) cost one lookup each,
/// nearly always a guess that is right; any other order is as correct and
/// costs one lookup per change of sender.
#[derive(Default)]
struct SenderRun {
    last: Option<(NodeId, Option<u32>)>,
    next: u32,
}

impl SenderRun {
    fn slot(
        &mut self,
        from: NodeId,
        resolve: impl FnOnce(NodeId, u32) -> Option<u32>,
    ) -> Option<u32> {
        match self.last {
            Some((id, slot)) if id == from => slot,
            _ => {
                let slot = resolve(from, self.next);
                if let Some(slot) = slot {
                    self.next = slot + 1;
                }
                self.last = Some((from, slot));
                slot
            }
        }
    }
}

/// Per candidate not yet in `C_v`, the distinct member slots whose echo
/// arrived since the last rotor step (steps are 5 rounds apart, so echoes
/// are buffered): one bit-matrix row per candidate, in the order candidates
/// were first echoed, and the row's population count kept beside it. All
/// rows live in one allocation — a heap object per candidate is what this
/// replaces.
///
/// A rotor step drops these *open* rows without freeing their memory, and
/// the candidates now in `C_v` become *closed* rows: `RotorCore::step`
/// never reads their support again, so an echo for one stops at the row
/// lookup. Rows of candidates outside `C_v` never outlive a step, so ids
/// nobody owns cannot pile up.
#[derive(Clone, Debug, Default)]
struct EchoTally {
    /// Row → candidate: rows `..closed` are `C_v` in ascending order, the
    /// open rows follow.
    ids: Vec<NodeId>,
    /// Number of closed rows.
    closed: usize,
    /// Open candidate → row. Candidates need not be members (ghost ids).
    open: BTreeMap<NodeId, usize>,
    /// `r` → number of set bits in open row `closed + r`.
    counts: Vec<usize>,
    /// `open rows × words` bits, row-major; bit `s` of a row is member slot
    /// `s`.
    bits: Vec<u64>,
    /// Words per row: enough for the highest slot recorded so far.
    words: usize,
    /// The row tried before the index: the one after the last hit, and
    /// row 0 when a sender's run starts. Every correct sender echoes the
    /// candidates in the same (ascending) order, so this is usually right.
    hint: usize,
}

impl EchoTally {
    /// Counts `echo(candidate)` from the member in `slot`, once. Called
    /// once per echo from the generic `begin`, which is compiled in the
    /// caller's crate: a plain `#[inline]` left it a call there.
    #[inline(always)]
    fn record(&mut self, candidate: NodeId, slot: u32) {
        let row = match self.ids.get(self.hint) {
            Some(&id) if id == candidate => self.hint,
            _ => self.row_of(candidate),
        };
        self.hint = row + 1;
        let Some(open) = row.checked_sub(self.closed) else {
            return;
        };
        let (word, bit) = locate(slot);
        if word >= self.words {
            self.widen(word + 1);
        }
        let cell = &mut self.bits[open * self.words + word];
        if *cell & bit == 0 {
            *cell |= bit;
            self.counts[open] += 1;
        }
    }

    /// A sender's run starts: its echoes start over at the smallest
    /// candidate.
    #[inline]
    fn rewind(&mut self) {
        self.hint = 0;
    }

    /// The row of `candidate` when the hint missed: a closed row, found by
    /// binary search, or an open one, created if the candidate is new.
    #[cold]
    #[inline(never)]
    fn row_of(&mut self, candidate: NodeId) -> usize {
        if let Ok(row) = self.ids[..self.closed].binary_search(&candidate) {
            return row;
        }
        let next = self.ids.len();
        let row = *self.open.entry(candidate).or_insert(next);
        if row == next {
            self.ids.push(candidate);
            self.counts.push(0);
            self.bits.resize(self.bits.len() + self.words, 0);
        }
        row
    }

    /// Re-lays the open rows out with `words` words per row (a slot crossed
    /// a word boundary — only while membership still grows, in round 3).
    #[cold]
    #[inline(never)]
    fn widen(&mut self, words: usize) {
        let mut bits = vec![0; self.counts.len() * words];
        if self.words > 0 {
            for (new, old) in bits
                .chunks_exact_mut(words)
                .zip(self.bits.chunks_exact(self.words))
            {
                new[..self.words].copy_from_slice(old);
            }
        }
        self.bits = bits;
        self.words = words;
    }

    /// The support of every open candidate echoed since the last step.
    fn support(&self) -> BTreeMap<NodeId, usize> {
        let count = |row: usize| self.counts[row - self.closed];
        self.open.iter().map(|(&p, &row)| (p, count(row))).collect()
    }

    /// After a rotor step: `accepted` (`C_v`) becomes the closed rows and
    /// every open row is dropped, its memory kept.
    fn close(&mut self, accepted: &[NodeId]) {
        self.ids.clear();
        self.ids.extend_from_slice(accepted);
        self.closed = self.ids.len();
        self.open.clear();
        self.counts.clear();
        self.bits.clear();
        self.hint = 0;
    }
}

/// Initialization, membership freeze, rotor and coordinator of one
/// rotor-driven agreement.
#[derive(Clone, Debug)]
pub(crate) struct PhaseFrame {
    me: NodeId,
    tracker: ParticipantTracker,
    frozen: Option<FrozenMembership>,
    rotor: RotorCore,
    echoes: EchoTally,
    /// The coordinator selected in this phase's round 4.
    coordinator: Option<NodeId>,
}

impl PhaseFrame {
    pub fn new(me: NodeId) -> Self {
        PhaseFrame {
            me,
            tracker: ParticipantTracker::new(),
            frozen: None,
            rotor: RotorCore::new(),
            echoes: EchoTally::default(),
            coordinator: None,
        }
    }

    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The frozen `n_v`, once initialization completed.
    pub fn frozen_n(&self) -> Option<usize> {
        self.frozen.as_ref().map(FrozenMembership::n)
    }

    pub fn rotor_terminated(&self) -> bool {
        self.rotor.terminated()
    }

    /// Opens round `round` (1-based). Rounds 1–2 are the initialization and
    /// return `None`; round 3 freezes everything heard so far into `n_v`
    /// and is the first phase round. From then on senders outside the
    /// frozen membership are discarded, rotor echoes are buffered for the
    /// next rotor step, and the rest is handed to the algorithm.
    pub fn begin<'a, M: FrameMsg + 'a>(
        &mut self,
        round: u64,
        inbox: impl IntoIterator<Item = (NodeId, &'a M)>,
        out: &mut Vec<M>,
    ) -> Option<Tick<'a, M>> {
        match round {
            1 => {
                out.push(M::from_rotor(RotorPart::Init));
                return None;
            }
            2 => {
                let mut initiators = Vec::new();
                let mut run = SenderRun::default();
                for (from, msg) in inbox {
                    run.slot(from, |from, guess| {
                        Some(self.tracker.observe_near(from, guess))
                    });
                    if matches!(msg.as_rotor(), Some(RotorPart::Init)) {
                        initiators.push(from);
                    }
                }
                initiators.sort_unstable();
                initiators.dedup();
                out.extend(
                    initiators
                        .into_iter()
                        .map(|p| M::from_rotor(RotorPart::Echo(p))),
                );
                return None;
            }
            _ => {}
        }
        // Everything heard during rounds 1–2 (arriving in rounds 2–3) counts
        // towards n_v; later senders are discarded.
        let freezing = round == 3;
        let mut kept = Vec::new();
        let mut run = SenderRun::default();
        for (from, msg) in inbox {
            let slot = run.slot(from, |from, guess| {
                self.echoes.rewind();
                if freezing {
                    Some(self.tracker.observe_near(from, guess))
                } else {
                    self.frozen.as_ref()?.slot_near(from, guess)
                }
            });
            let Some(slot) = slot else { continue };
            match msg.as_rotor() {
                Some(RotorPart::Echo(p)) => self.echoes.record(p, slot),
                Some(RotorPart::Init) => {}
                None => kept.push((from, msg)),
            }
        }
        if freezing {
            self.frozen = Some(self.tracker.freeze());
        }
        let (phase, phase_round) = phase_of_round(round);
        if phase_round == 1 {
            self.coordinator = None;
        }
        Some(Tick {
            phase,
            round: phase_round,
            n: self.frozen.as_ref().expect("initialized").n(),
            inbox: kept,
        })
    }

    /// Phase round 4: one rotor step over the echoes buffered since the last
    /// one, after which the candidates in `C_v` are no longer counted.
    /// Re-echoes go to `out` and the selected coordinator is remembered for
    /// round 5; returns whether this node is it and must now send its
    /// opinion.
    pub fn rotor_step<M: FrameMsg>(&mut self, n: usize, out: &mut Vec<M>) -> bool {
        let step = self.rotor.step(n, &self.echoes.support());
        self.echoes.close(self.rotor.candidates());
        if step.terminated {
            return false;
        }
        out.extend(
            step.re_echo
                .iter()
                .map(|&p| M::from_rotor(RotorPart::Echo(p))),
        );
        self.coordinator = step.coordinator;
        step.coordinator == Some(self.me)
    }

    /// Phase round 5: the smallest opinion this phase's coordinator sent
    /// (a Byzantine coordinator may send several; the envelope sender is
    /// unforgeable). `opinion` projects a message onto its opinion, if it is
    /// one.
    pub fn coordinator_opinion<'a, M, O: Ord>(
        &self,
        inbox: &[(NodeId, &'a M)],
        opinion: impl Fn(&'a M) -> Option<O>,
    ) -> Option<O> {
        let p = self.coordinator?;
        inbox
            .iter()
            .filter(|(from, _)| *from == p)
            .filter_map(|(_, msg)| opinion(msg))
            .min()
    }

    /// The substitution tally (caption of Algorithm 3). `votes` are one
    /// message slot's `(sender, value)` pairs from frozen members — `None`
    /// for a sender that spoke without naming a value. Every frozen member
    /// that sent nothing of the slot is counted with `fill(member)`, or not
    /// at all where that is `None`. Values are counted by reference, sorted
    /// in one vector; the result is the best-supported one (ties toward the
    /// smaller) with its count.
    pub fn tally<K: Ord + Copy>(
        &self,
        votes: impl IntoIterator<Item = (NodeId, Option<K>)>,
        fill: impl Fn(NodeId) -> Option<K>,
    ) -> Option<(K, usize)> {
        let members = self.frozen.as_ref().expect("initialized");
        let mut values = Vec::with_capacity(members.n());
        // Bit `s` set: the member in slot `s` spoke.
        let mut spoke = vec![0u64; members.n().div_ceil(u64::BITS as usize)];
        let mut run = SenderRun::default();
        for (from, value) in votes {
            if let Some(slot) = run.slot(from, |from, guess| members.slot_near(from, guess)) {
                let (word, bit) = locate(slot);
                spoke[word] |= bit;
            }
            values.extend(value);
        }
        let silent = (0..members.n() as u32).filter(|&slot| {
            let (word, bit) = locate(slot);
            spoke[word] & bit == 0
        });
        values.extend(silent.filter_map(|slot| fill(members.id_of(slot))));
        values.sort_unstable();
        first_max(
            values
                .chunk_by(|a, b| a == b)
                .map(|run| (run[0], run.len())),
        )
    }

    /// [`tally`](Self::tally) for the plain ladder of Algorithm 3 and the
    /// king: the slot's values are what `extract` finds in the inbox, every
    /// silent member is counted with `own` — the receiver's own last message
    /// of the type — and only the winner is cloned.
    pub fn slot<'a, M, V: Ord + Clone>(
        &self,
        inbox: &[(NodeId, &'a M)],
        own: Option<&'a V>,
        extract: impl Fn(&'a M) -> Option<&'a V>,
    ) -> Option<(V, usize)> {
        let votes = inbox
            .iter()
            .filter_map(|&(from, msg)| extract(msg).map(|v| (from, Some(v))));
        let (v, count) = self.tally(votes, |_| own)?;
        Some((v.clone(), count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use crate::consensus::ConsensusMsg;
    use crate::quorum::max_tally;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type Msg = ConsensusMsg<u8>;
    type Inbox = Vec<(NodeId, Msg)>;

    /// The frame's bookkeeping the obvious way — a set of member ids and,
    /// per echoed candidate, a set of sender ids — which the slot-counted
    /// frame must be indistinguishable from.
    #[derive(Default)]
    struct Naive {
        seen: BTreeSet<NodeId>,
        frozen: BTreeSet<NodeId>,
        echo_buf: BTreeMap<NodeId, BTreeSet<NodeId>>,
        rotor: RotorCore,
    }

    impl Naive {
        /// Round 2: the echoes to send.
        fn initiators(&mut self, inbox: &Inbox) -> Vec<Msg> {
            let mut initiators = BTreeSet::new();
            for (from, msg) in inbox {
                self.seen.insert(*from);
                if *msg == Msg::RotorInit {
                    initiators.insert(*from);
                }
            }
            initiators.into_iter().map(Msg::RotorEcho).collect()
        }

        /// Rounds ≥ 3: the inbox handed to the algorithm.
        fn begin<'a>(&mut self, round: u64, inbox: &'a Inbox) -> Vec<(NodeId, &'a Msg)> {
            let mut kept = Vec::new();
            for (from, msg) in inbox {
                if round == 3 {
                    self.seen.insert(*from);
                } else if !self.frozen.contains(from) {
                    continue;
                }
                match msg {
                    Msg::RotorEcho(p) => {
                        self.echo_buf.entry(*p).or_default().insert(*from);
                    }
                    Msg::RotorInit => {}
                    _ => kept.push((*from, msg)),
                }
            }
            if round == 3 {
                self.frozen = self.seen.clone();
            }
            kept
        }

        fn take_support(&mut self) -> BTreeMap<NodeId, usize> {
            let buffered = std::mem::take(&mut self.echo_buf);
            buffered.iter().map(|(p, s)| (*p, s.len())).collect()
        }

        fn tally(
            &self,
            votes: &[(NodeId, Option<u8>)],
            fill: impl Fn(NodeId) -> Option<u8>,
        ) -> Option<(u8, usize)> {
            let mut counts = BTreeMap::new();
            let mut senders = BTreeSet::new();
            for &(from, value) in votes {
                senders.insert(from);
                if let Some(v) = value {
                    *counts.entry(v).or_insert(0) += 1;
                }
            }
            for v in self.frozen.difference(&senders).filter_map(|&m| fill(m)) {
                *counts.entry(v).or_insert(0) += 1;
            }
            max_tally(&counts)
        }
    }

    /// Ids are scattered, so neither id order nor arrival order is slot order.
    fn id(index: usize) -> NodeId {
        NodeId::new((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The inboxes of rounds 2..=17 (three rotor steps) for a node that ends
    /// up with `members` counted ids. The last few members are first heard
    /// in round 3; four strangers only ever speak after the freeze;
    /// candidates are drawn from members, strangers and six ids nobody owns,
    /// a few of them hot enough to cross the rotor's thresholds, and `id(0)`
    /// is echoed by nearly everyone in every round, so it is accepted at the
    /// first step and re-echoed after it. One ghost id per step is echoed in
    /// the step's round and in the round after it, so its echoes straddle
    /// the step. One "Byzantine" member repeats, in every round after the
    /// first step and in descending order, every candidate echoed in an
    /// earlier window. Senders are grouped into runs in half of the rounds
    /// and shuffled in the rest, and a round may replay the previous round's
    /// echoes.
    fn stream(rng: &mut StdRng, members: usize) -> Vec<Inbox> {
        let late = rng.gen_range(0..members.min(6));
        let candidate = |rng: &mut StdRng| match rng.gen_range(0..4) {
            0 => id(rng.gen_range(0..members + 10)),
            hot => id(members.saturating_sub(hot)),
        };
        let byzantine = id(members / 2);
        // Candidates echoed in the windows before the current one, and in it.
        let (mut earlier, mut window): (Vec<NodeId>, Vec<NodeId>) = Default::default();
        let mut rounds: Vec<Inbox> = Vec::new();
        for round in 2..=17u64 {
            let senders = match round {
                2 => members - late,
                3 => members,
                _ => members + 4,
            };
            let phase_round = (round > 2).then(|| phase_of_round(round).1);
            // The ghost of the step in this round (phase round 4) or in the
            // round before (phase round 5).
            let ghost = match phase_round {
                Some(4 | 5) => Some(id(members + 5 + (round as usize - 1) / 5)),
                _ => None,
            };
            let mut inbox = Inbox::new();
            for from in (0..senders).map(id) {
                if round == 2 && rng.gen_range(0..8) > 0 {
                    inbox.push((from, Msg::RotorInit));
                }
                // Everyone is heard by round 3, so `members` is exact.
                if round == 3 || (round > 3 && rng.gen_range(0..10) > 0) {
                    inbox.push((from, Msg::RotorEcho(id(0))));
                }
                for _ in 0..rng.gen_range(0..6) {
                    inbox.push((from, Msg::RotorEcho(candidate(rng))));
                }
                if let Some(ghost) = ghost.filter(|_| rng.gen_range(0..2) == 0) {
                    inbox.push((from, Msg::RotorEcho(ghost)));
                }
                if from == byzantine && round > 6 {
                    let repeated = earlier.iter().rev();
                    inbox.extend(repeated.map(|&p| (from, Msg::RotorEcho(p))));
                }
                match rng.gen_range(0..10) {
                    0..=5 => inbox.push((from, Msg::Input(rng.gen_range(0..3)))),
                    6 => inbox.push((from, Msg::Prefer(1))),
                    _ => {}
                }
            }
            if rng.gen_range(0..2) == 0 {
                let replayed = rounds.last().into_iter().flatten();
                inbox.extend(
                    replayed
                        .filter(|(_, m)| matches!(m, Msg::RotorEcho(_)))
                        .cloned(),
                );
            }
            if rng.gen_range(0..2) == 0 {
                for i in (1..inbox.len()).rev() {
                    inbox.swap(i, rng.gen_range(0..=i));
                }
            }
            window.extend(inbox.iter().filter_map(|(_, m)| match m {
                Msg::RotorEcho(p) => Some(*p),
                _ => None,
            }));
            if phase_round == Some(4) {
                earlier.append(&mut window);
                earlier.sort_unstable();
                earlier.dedup();
            }
            rounds.push(inbox);
        }
        rounds
    }

    fn borrowed(inbox: &Inbox) -> impl Iterator<Item = (NodeId, &Msg)> {
        inbox.iter().map(|(from, msg)| (*from, msg))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn slot_counting_is_indistinguishable_from_sets_of_ids(seed in 0u64..u64::MAX) {
            // One word of slots, one short of it, one past it, and the same
            // around two words.
            for members in [1usize, 63, 64, 65, 128, 129] {
                let mut rng = StdRng::seed_from_u64(seed ^ members as u64);
                let me = id(members - 1);
                let mut frame = PhaseFrame::new(me);
                let mut naive = Naive::default();

                let mut out: Vec<Msg> = Vec::new();
                prop_assert!(frame.begin(1, borrowed(&Inbox::new()), &mut out).is_none());
                prop_assert_eq!(&out, &[Msg::RotorInit]);

                for (round, inbox) in (2u64..).zip(stream(&mut rng, members)) {
                    let mut out: Vec<Msg> = Vec::new();
                    let tick = frame.begin(round, borrowed(&inbox), &mut out);
                    if round == 2 {
                        prop_assert!(tick.is_none());
                        prop_assert_eq!(out, naive.initiators(&inbox));
                        continue;
                    }
                    let tick = tick.expect("a phase round");
                    let kept = naive.begin(round, &inbox);
                    prop_assert!(out.is_empty());
                    prop_assert_eq!((tick.phase, tick.round), phase_of_round(round));
                    prop_assert_eq!(tick.n, naive.frozen.len());
                    prop_assert_eq!(tick.n, members);
                    prop_assert_eq!(&tick.inbox, &kept);

                    // A member that says `Prefer` spoke without naming a value.
                    let votes: Vec<(NodeId, Option<u8>)> = kept
                        .iter()
                        .map(|&(from, msg)| match msg {
                            Msg::Input(v) => (from, Some(*v)),
                            _ => (from, None),
                        })
                        .collect();
                    let own = |_| Some(1);
                    let nothing = |_| None;
                    let per_member = |m: NodeId| Some((m.raw() % 3) as u8).filter(|v| *v > 0);
                    prop_assert_eq!(frame.tally(votes.iter().copied(), own), naive.tally(&votes, own));
                    prop_assert_eq!(
                        frame.tally(votes.iter().copied(), nothing),
                        naive.tally(&votes, nothing)
                    );
                    prop_assert_eq!(
                        frame.tally(votes.iter().copied(), per_member),
                        naive.tally(&votes, per_member)
                    );

                    if tick.round == 4 {
                        // Support is only read for candidates not yet in C_v.
                        let support = naive.take_support();
                        let accepted = naive.rotor.candidates().to_vec();
                        let open = |support: &BTreeMap<NodeId, usize>| -> BTreeMap<NodeId, usize> {
                            support
                                .iter()
                                .filter(|(p, _)| !accepted.contains(p))
                                .map(|(&p, &count)| (p, count))
                                .collect()
                        };
                        prop_assert_eq!(frame.echoes.support(), open(&support));
                        let step = naive.rotor.step(tick.n, &support);
                        let mut out: Vec<Msg> = Vec::new();
                        let coordinating = frame.rotor_step(tick.n, &mut out);
                        let re_echo: Vec<Msg> =
                            step.re_echo.iter().copied().map(Msg::RotorEcho).collect();
                        prop_assert_eq!(out, re_echo);
                        prop_assert_eq!(frame.rotor.candidates(), naive.rotor.candidates());
                        // `id(0)` is echoed by every member in round 3.
                        prop_assert!(naive.rotor.candidates().contains(&id(0)));
                        prop_assert_eq!(
                            coordinating,
                            !step.terminated && step.coordinator == Some(me)
                        );
                        prop_assert!(frame.echoes.support().is_empty());
                    }
                }
            }
        }
    }
}
