//! Rotor-coordinator — Algorithm 2 of the paper.
//!
//! The rotor-coordinator makes every correct node accept the opinion of a
//! *common* coordinator in each of a sequence of rounds, such that before
//! any correct node terminates, at least one of those rounds was **good**:
//! the common coordinator was correct. With known `f` and consecutive
//! identifiers this is trivial (rotate through ids `1..=f+1`); with unknown
//! `n`, `f` and sparse identifiers it is the paper's key technical device.
//!
//! Every node reliably-broadcast-accepts candidate coordinators into an
//! ordered set `C_v`, selects `C_v[r mod |C_v|]` in loop round `r`, and
//! terminates when it would select the same node twice. Theorem `rc`: for
//! `n > 3f` every correct node terminates in `O(n)` rounds and witnesses a
//! good round first.
//!
//! [`RotorCore`] implements the candidate bookkeeping and selection rule in
//! a timing-agnostic way so that the consensus algorithms can embed one
//! rotor step per 5-round phase; [`RotorCoordinator`] is the standalone
//! process with one rotor step per engine round.

use std::collections::{BTreeMap, BTreeSet};

use uba_sim::{Context, NodeId, Process};

use crate::quorum::{meets_third, meets_two_thirds};
use crate::tracker::ParticipantTracker;
use crate::value::Value;

/// Messages of the standalone rotor-coordinator protocol.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum RotorMsg<V> {
    /// Willingness to become a coordinator (round 1).
    Init,
    /// `echo(p)` — support for adding `p` to the candidate set (reliable
    /// broadcast of the candidate id).
    Echo(NodeId),
    /// The current coordinator's opinion.
    Opinion(V),
}

/// Result of one logical rotor round ([`RotorCore::step`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RotorStep {
    /// Candidate ids whose echo reached `n_v/3` support and must be
    /// re-echoed this round (the `B_v` echoes). Empty when terminating —
    /// the paper's `break` exits before `B_v` is broadcast.
    pub re_echo: Vec<NodeId>,
    /// The coordinator selected this round, if any. On termination this is
    /// the node that was about to be *reselected*.
    pub coordinator: Option<NodeId>,
    /// Whether the rotor terminated this round (a coordinator was selected
    /// for the second time).
    pub terminated: bool,
}

/// Timing-agnostic rotor state: candidate set `C_v`, selected set `S_v`,
/// loop counter `r`, and the termination rule.
///
/// The caller feeds each logical rotor round the per-candidate echo support
/// observed since the previous one and its participant estimate `n_v`. This
/// is what lets the consensus algorithms advance the rotor one step per
/// 5-round phase.
///
/// # Examples
///
/// ```
/// use std::collections::BTreeMap;
/// use uba_core::rotor::RotorCore;
/// use uba_sim::NodeId;
///
/// let (a, b) = (NodeId::new(1), NodeId::new(2));
/// let mut rotor = RotorCore::new();
/// // Both candidates reach a 2n/3 echo quorum (n = 3) in the first step.
/// let step = rotor.step(3, &BTreeMap::from([(a, 2), (b, 2)]));
/// assert_eq!(step.coordinator, Some(a));
/// assert_eq!(rotor.step(3, &BTreeMap::new()).coordinator, Some(b));
/// // Reselecting `a` terminates the rotor.
/// assert!(rotor.step(3, &BTreeMap::new()).terminated);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RotorCore {
    /// `C_v`, ascending.
    candidates: Vec<NodeId>,
    selected: BTreeSet<NodeId>,
    step_index: u64,
    terminated: bool,
    selection_log: Vec<NodeId>,
}

impl RotorCore {
    /// Creates an empty rotor state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The candidate set `C_v`, ordered by id.
    pub fn candidates(&self) -> &[NodeId] {
        &self.candidates
    }

    /// The coordinators selected so far, in selection order.
    pub fn selection_log(&self) -> &[NodeId] {
        &self.selection_log
    }

    /// Whether the rotor has terminated (reselection happened).
    pub fn terminated(&self) -> bool {
        self.terminated
    }

    /// Executes one logical rotor round.
    ///
    /// `n` is the node's current participant estimate and `echo_support`
    /// maps each candidate id to the number of *distinct* nodes whose
    /// `echo(p)` was received since the previous step. A candidate already
    /// in `C_v` is skipped, so candidates already in `C_v` may be absent
    /// from `echo_support` (the phase frame stops counting them).
    pub fn step(&mut self, n: usize, echo_support: &BTreeMap<NodeId, usize>) -> RotorStep {
        if self.terminated {
            return RotorStep {
                re_echo: Vec::new(),
                coordinator: None,
                terminated: true,
            };
        }
        let mut re_echo = Vec::new();
        let known = self.candidates.len();
        for (&p, &count) in echo_support {
            if self.candidates[..known].binary_search(&p).is_ok() {
                continue;
            }
            if meets_third(count, n) {
                re_echo.push(p);
            }
            if meets_two_thirds(count, n) {
                self.candidates.push(p);
            }
        }
        // Two ascending runs, the known candidates and the new ones: one
        // merge.
        self.candidates.sort();

        let coordinator = if self.candidates.is_empty() {
            None
        } else {
            let idx = (self.step_index % self.candidates.len() as u64) as usize;
            Some(self.candidates[idx])
        };
        self.step_index += 1;

        if let Some(p) = coordinator {
            if self.selected.contains(&p) {
                // Reselection: the paper's `break` — terminate without
                // broadcasting this round's B_v.
                self.terminated = true;
                return RotorStep {
                    re_echo: Vec::new(),
                    coordinator: Some(p),
                    terminated: true,
                };
            }
            self.selected.insert(p);
            self.selection_log.push(p);
        }
        RotorStep {
            re_echo,
            coordinator,
            terminated: false,
        }
    }
}

/// Outcome of a standalone rotor-coordinator run at one node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RotorOutcome<V> {
    /// `(global round, coordinator)` for every selection this node made.
    pub selections: Vec<(u64, NodeId)>,
    /// `(global round, coordinator, opinion)` for every coordinator opinion
    /// this node accepted.
    pub accepted_opinions: Vec<(u64, NodeId, V)>,
    /// Round in which this node terminated.
    pub terminated_round: u64,
}

/// The standalone rotor-coordinator process (one rotor round per engine
/// round).
///
/// Each node contributes a fixed opinion (its input); whenever a node finds
/// itself selected it broadcasts that opinion, and every node accepts the
/// opinion arriving from the coordinator it selected in the previous round.
///
/// # Examples
///
/// ```
/// use uba_core::rotor::RotorCoordinator;
/// use uba_sim::{sparse_ids, SyncEngine};
///
/// let ids = sparse_ids(4, 5);
/// let mut engine = SyncEngine::builder()
///     .correct_many(ids.iter().map(|&id| RotorCoordinator::new(id, id.raw())))
///     .build();
/// let done = engine.run_to_completion(16)?;
/// // All-correct system: every node accepted the same first coordinator.
/// let firsts: Vec<_> = done
///     .outputs
///     .values()
///     .map(|o| o.accepted_opinions.first().cloned())
///     .collect();
/// assert!(firsts.windows(2).all(|w| w[0] == w[1]));
/// # Ok::<(), uba_sim::EngineError>(())
/// ```
#[derive(Clone, Debug)]
pub struct RotorCoordinator<V> {
    me: NodeId,
    opinion: V,
    tracker: ParticipantTracker,
    core: RotorCore,
    /// Coordinator selected in the previous round (opinions arriving now
    /// are matched against it).
    prev_coordinator: Option<NodeId>,
    selections: Vec<(u64, NodeId)>,
    accepted_opinions: Vec<(u64, NodeId, V)>,
    done: Option<RotorOutcome<V>>,
}

impl<V: Value> RotorCoordinator<V> {
    /// Creates a node with the given fixed opinion.
    pub fn new(me: NodeId, opinion: V) -> Self {
        RotorCoordinator {
            me,
            opinion,
            tracker: ParticipantTracker::new(),
            core: RotorCore::new(),
            prev_coordinator: None,
            selections: Vec::new(),
            accepted_opinions: Vec::new(),
            done: None,
        }
    }

    /// The candidate set accumulated so far (`C_v`), ordered by id.
    pub fn candidates(&self) -> &[NodeId] {
        self.core.candidates()
    }

    /// Selections made so far.
    pub fn selections(&self) -> &[(u64, NodeId)] {
        &self.selections
    }
}

impl<V: Value> Process for RotorCoordinator<V> {
    type Msg = RotorMsg<V>;
    type Output = RotorOutcome<V>;

    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, ctx: &mut Context<'_, RotorMsg<V>>) {
        self.tracker.observe_inbox(ctx.inbox());
        let round = ctx.round();
        match round {
            1 => ctx.broadcast(RotorMsg::Init),
            2 => {
                let initiators: BTreeSet<NodeId> = ctx
                    .inbox()
                    .iter()
                    .filter(|e| matches!(e.msg(), RotorMsg::Init))
                    .map(|e| e.from)
                    .collect();
                for p in initiators {
                    ctx.broadcast(RotorMsg::Echo(p));
                }
            }
            _ => {
                // Opinion from the previous round's coordinator (checked
                // against the unforgeable envelope sender).
                if let Some(prev) = self.prev_coordinator {
                    // A Byzantine coordinator may send several distinct
                    // opinions in one round; pick deterministically.
                    let opinions = ctx
                        .inbox()
                        .iter()
                        .filter(|e| e.from == prev)
                        .filter_map(|e| match e.msg() {
                            RotorMsg::Opinion(x) => Some(x),
                            _ => None,
                        });
                    if let Some(x) = opinions.min() {
                        self.accepted_opinions.push((round, prev, x.clone()));
                    }
                }

                // Per-round echo support per candidate (distinct senders —
                // the engine dedups exact duplicates per sender).
                let mut support: BTreeMap<NodeId, usize> = BTreeMap::new();
                for e in ctx.inbox() {
                    if let &RotorMsg::Echo(p) = e.msg() {
                        *support.entry(p).or_insert(0) += 1;
                    }
                }
                let step = self.core.step(self.tracker.n(), &support);
                if step.terminated {
                    self.done = Some(RotorOutcome {
                        selections: self.selections.clone(),
                        accepted_opinions: self.accepted_opinions.clone(),
                        terminated_round: round,
                    });
                    return;
                }
                for p in &step.re_echo {
                    ctx.broadcast(RotorMsg::Echo(*p));
                }
                if let Some(p) = step.coordinator {
                    self.selections.push((round, p));
                    if p == self.me {
                        ctx.broadcast(RotorMsg::Opinion(self.opinion.clone()));
                    }
                }
                self.prev_coordinator = step.coordinator;
            }
        }
    }

    fn output(&self) -> Option<RotorOutcome<V>> {
        self.done.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_sim::{sparse_ids, SyncEngine};

    #[test]
    fn core_adds_candidates_at_two_thirds() {
        let mut core = RotorCore::new();
        let p = NodeId::new(9);
        let support = BTreeMap::from([(p, 2)]);
        // n = 6: 2 meets n/3 (re-echo) but not 2n/3 (no add).
        let step = core.step(6, &support);
        assert_eq!(step.re_echo, vec![p]);
        assert!(core.candidates().is_empty());
        // 4 of 6 meets 2n/3.
        let support = BTreeMap::from([(p, 4)]);
        let step = core.step(6, &support);
        assert!(step.re_echo.contains(&p));
        assert!(core.candidates().contains(&p));
    }

    #[test]
    fn core_selects_round_robin_and_terminates_on_reselect() {
        let mut core = RotorCore::new();
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let support = BTreeMap::from([(a, 3), (b, 3)]);
        let s0 = core.step(3, &support);
        assert_eq!(s0.coordinator, Some(a));
        let s1 = core.step(3, &BTreeMap::new());
        assert_eq!(s1.coordinator, Some(b));
        // r = 2, |C| = 2 -> index 0 -> a again -> terminate.
        let s2 = core.step(3, &BTreeMap::new());
        assert!(s2.terminated);
        assert_eq!(s2.coordinator, Some(a));
        assert_eq!(core.selection_log(), &[a, b]);
        // Subsequent steps are inert.
        let s3 = core.step(3, &BTreeMap::new());
        assert!(s3.terminated);
        assert_eq!(s3.coordinator, None);
    }

    #[test]
    fn core_does_not_echo_known_candidates() {
        let mut core = RotorCore::new();
        let a = NodeId::new(1);
        core.step(3, &BTreeMap::from([(a, 3)]));
        let step = core.step(3, &BTreeMap::from([(a, 3)]));
        assert!(step.re_echo.is_empty(), "a is already a candidate");
    }

    #[test]
    fn all_correct_nodes_select_identically_and_terminate_linearly() {
        for n in [1, 2, 3, 5, 8] {
            let ids = sparse_ids(n, 21);
            let mut engine = SyncEngine::builder()
                .correct_many(ids.iter().map(|&id| RotorCoordinator::new(id, id.raw())))
                .build();
            let done = engine
                .run_to_completion(3 + 2 * n as u64 + 4)
                .unwrap_or_else(|e| panic!("n = {n}: {e}"));
            let mut logs: Vec<Vec<NodeId>> = done
                .outputs
                .values()
                .map(|o| o.selections.iter().map(|(_, p)| *p).collect())
                .collect();
            logs.dedup();
            assert_eq!(logs.len(), 1, "identical selection sequences (n = {n})");
            // With all nodes correct, C_v = all ids after round 3, so the
            // sequence is the ids in ascending order and termination is at
            // round 3 + n.
            assert_eq!(logs[0], ids);
            assert_eq!(done.last_decided_round(), 3 + n as u64);
        }
    }

    #[test]
    fn opinions_of_selected_coordinators_are_accepted_next_round() {
        let ids = sparse_ids(4, 13);
        let mut engine = SyncEngine::builder()
            .correct_many(ids.iter().map(|&id| RotorCoordinator::new(id, id.raw())))
            .build();
        let done = engine.run_to_completion(16).expect("completes");
        for outcome in done.outputs.values() {
            // Coordinators selected in rounds 3..3+n-1; each opinion is
            // accepted exactly one round after the selection, and the last
            // selection's opinion arrives in the termination round.
            assert_eq!(outcome.accepted_opinions.len(), 4);
            for ((sel_round, p), (acc_round, q, opinion)) in
                outcome.selections.iter().zip(&outcome.accepted_opinions)
            {
                assert_eq!(p, q);
                assert_eq!(*acc_round, sel_round + 1);
                assert_eq!(*opinion, p.raw());
            }
        }
    }
}
