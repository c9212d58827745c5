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

use std::collections::{BTreeMap, BTreeSet};

use uba_sim::NodeId;

use crate::consensus::phase_of_round;
use crate::quorum::max_tally;
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

/// Initialization, membership freeze, rotor and coordinator of one
/// rotor-driven agreement.
#[derive(Clone, Debug)]
pub(crate) struct PhaseFrame {
    me: NodeId,
    tracker: ParticipantTracker,
    frozen: Option<FrozenMembership>,
    rotor: RotorCore,
    /// Candidate id → distinct member senders whose echo arrived since the
    /// last rotor step (steps are 5 rounds apart, so echoes are buffered).
    echo_buf: BTreeMap<NodeId, BTreeSet<NodeId>>,
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
            echo_buf: BTreeMap::new(),
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
                let mut initiators = BTreeSet::new();
                for (from, msg) in inbox {
                    self.tracker.observe(from);
                    if matches!(msg.as_rotor(), Some(RotorPart::Init)) {
                        initiators.insert(from);
                    }
                }
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
        for (from, msg) in inbox {
            if freezing {
                self.tracker.observe(from);
            } else if !self.frozen.as_ref().is_some_and(|f| f.contains(from)) {
                continue;
            }
            match msg.as_rotor() {
                Some(RotorPart::Echo(p)) => {
                    self.echo_buf.entry(p).or_default().insert(from);
                }
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
    /// one. Re-echoes go to `out` and the selected coordinator is remembered
    /// for round 5; returns whether this node is it and must now send its
    /// opinion.
    pub fn rotor_step<M: FrameMsg>(&mut self, n: usize, out: &mut Vec<M>) -> bool {
        let support = self.echo_buf.iter().map(|(p, s)| (*p, s.len())).collect();
        self.echo_buf.clear();
        let step = self.rotor.step(n, &support);
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
    /// at all where that is `None`. Values are counted by reference; the
    /// result is the best-supported one (ties toward the smaller) with its
    /// count.
    pub fn tally<K: Ord + Copy>(
        &self,
        votes: impl IntoIterator<Item = (NodeId, Option<K>)>,
        fill: impl Fn(NodeId) -> Option<K>,
    ) -> Option<(K, usize)> {
        let mut counts: BTreeMap<K, usize> = BTreeMap::new();
        let mut senders = BTreeSet::new();
        for (from, value) in votes {
            senders.insert(from);
            if let Some(v) = value {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        let members = self.frozen.as_ref().expect("initialized").members();
        for v in members.difference(&senders).filter_map(|&m| fill(m)) {
            *counts.entry(v).or_insert(0) += 1;
        }
        max_tally(&counts)
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
