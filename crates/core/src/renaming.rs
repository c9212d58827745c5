//! Byzantine renaming — the appendix extension of the paper.
//!
//! Nodes have unique but arbitrarily large identifiers; the task is to
//! consistently assign every correct node a small identifier (at most the
//! number of participating nodes). The paper's algorithm accumulates all
//! announced identifiers into a set `S` in reliable-broadcast fashion,
//! detects quiescence (two consecutive rounds with `S` unchanged), agrees on
//! termination — again with `n_v/3` / `2n_v/3` thresholds — and outputs each
//! identifier's rank in the final, common `S`. Termination takes `O(f)`
//! rounds: every faulty identifier can delay quiescence by at most two
//! rounds.

use std::collections::{BTreeMap, BTreeSet};

use uba_sim::{Context, NodeId, Process};

use crate::quorum::{meets_third, meets_two_thirds};
use crate::tracker::ParticipantTracker;

/// Messages of the renaming protocol.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum RenameMsg {
    /// A node announces its identifier (round 1).
    Init,
    /// `echo(p)` — support for adding `p` to the identifier set.
    Echo(NodeId),
    /// `terminate(k)` — the sender believes `S` was quiescent by round `k`.
    Terminate(u64),
}

/// Result of a renaming run at one node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RenamingOutcome {
    /// The final identifier set `S`, mapping every member to its 1-based
    /// rank — the new compact identifier.
    pub ranks: BTreeMap<NodeId, usize>,
    /// This node's new identifier (its rank in `S`).
    pub my_rank: usize,
    /// The round in which this node terminated.
    pub round: u64,
}

/// One node's state machine for Byzantine renaming.
///
/// # Examples
///
/// ```
/// use uba_core::renaming::Renaming;
/// use uba_sim::{sparse_ids, SyncEngine};
///
/// let ids = sparse_ids(4, 19);
/// let mut engine = SyncEngine::builder()
///     .correct_many(ids.iter().map(|&id| Renaming::new(id)))
///     .build();
/// let done = engine.run_to_completion(20)?;
/// for (&id, outcome) in &done.outputs {
///     // Sparse 64-bit ids were renamed to 1..=4, consistently.
///     assert!(outcome.my_rank >= 1 && outcome.my_rank <= 4);
///     assert_eq!(outcome.ranks[&id], outcome.my_rank);
/// }
/// # Ok::<(), uba_sim::EngineError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Renaming {
    me: NodeId,
    tracker: ParticipantTracker,
    /// The identifier set `S`.
    s: BTreeSet<NodeId>,
    /// Last round in which `S` changed.
    last_change: u64,
    /// `terminate(k)` values already relayed (sent at most once each).
    relayed: BTreeSet<u64>,
    done: Option<RenamingOutcome>,
}

impl Renaming {
    /// Creates a node's renaming instance.
    pub fn new(me: NodeId) -> Self {
        Renaming {
            me,
            tracker: ParticipantTracker::new(),
            s: BTreeSet::new(),
            last_change: 0,
            relayed: BTreeSet::new(),
            done: None,
        }
    }

    fn outcome(&self, round: u64) -> RenamingOutcome {
        let ranks: BTreeMap<NodeId, usize> = self
            .s
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i + 1))
            .collect();
        let my_rank = ranks.get(&self.me).copied().unwrap_or(0);
        RenamingOutcome {
            ranks,
            my_rank,
            round,
        }
    }
}

impl Process for Renaming {
    type Msg = RenameMsg;
    type Output = RenamingOutcome;

    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, ctx: &mut Context<'_, RenameMsg>) {
        self.tracker.observe_inbox(ctx.inbox());
        let round = ctx.round();
        match round {
            1 => ctx.broadcast(RenameMsg::Init),
            2 => {
                let initiators: BTreeSet<NodeId> = ctx
                    .inbox()
                    .iter()
                    .filter(|e| matches!(e.msg(), RenameMsg::Init))
                    .map(|e| e.from)
                    .collect();
                for p in initiators {
                    ctx.broadcast(RenameMsg::Echo(p));
                }
            }
            _ => {
                let n_v = self.tracker.n();
                // Per-round echo support per identifier.
                let mut echo_support: BTreeMap<NodeId, usize> = BTreeMap::new();
                let mut term_support: BTreeMap<u64, usize> = BTreeMap::new();
                for e in ctx.inbox() {
                    match *e.msg() {
                        RenameMsg::Echo(p) => *echo_support.entry(p).or_insert(0) += 1,
                        RenameMsg::Terminate(k) => *term_support.entry(k).or_insert(0) += 1,
                        RenameMsg::Init => {}
                    }
                }
                let mut outgoing: Vec<RenameMsg> = Vec::new();
                for (p, count) in echo_support {
                    if self.s.contains(&p) {
                        continue;
                    }
                    if meets_third(count, n_v) {
                        outgoing.push(RenameMsg::Echo(p));
                    }
                    if meets_two_thirds(count, n_v) {
                        self.s.insert(p);
                        self.last_change = round;
                    }
                }
                // Quiescence: S unchanged in rounds r and r - 1 (only
                // meaningful once S could have been populated).
                if round >= 5 && self.last_change <= round - 2 && self.relayed.insert(round - 1) {
                    outgoing.push(RenameMsg::Terminate(round - 1));
                }
                for (k, count) in term_support {
                    if meets_third(count, n_v) && self.relayed.insert(k) {
                        outgoing.push(RenameMsg::Terminate(k));
                    }
                    if meets_two_thirds(count, n_v) && self.done.is_none() {
                        self.done = Some(self.outcome(round));
                    }
                }
                for msg in outgoing {
                    ctx.broadcast(msg);
                }
            }
        }
    }

    fn output(&self) -> Option<RenamingOutcome> {
        self.done.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_sim::{sparse_ids, SyncEngine};

    fn run(n: usize, seed: u64) -> BTreeMap<NodeId, RenamingOutcome> {
        let ids = sparse_ids(n, seed);
        let mut engine = SyncEngine::builder()
            .correct_many(ids.iter().map(|&id| Renaming::new(id)))
            .build();
        engine
            .run_to_completion(4 * n as u64 + 20)
            .expect("renaming terminates")
            .outputs
    }

    #[test]
    fn ranks_are_compact_and_consistent() {
        for n in [2, 4, 9] {
            let outputs = run(n, 77);
            let first = outputs.values().next().unwrap();
            let mut seen_ranks = BTreeSet::new();
            for (&id, outcome) in &outputs {
                assert_eq!(outcome.ranks, first.ranks, "common final S (n = {n})");
                assert_eq!(outcome.ranks[&id], outcome.my_rank);
                assert!(outcome.my_rank >= 1 && outcome.my_rank <= n);
                assert!(seen_ranks.insert(outcome.my_rank), "ranks are unique");
            }
        }
    }

    #[test]
    fn ranks_follow_identifier_order() {
        let outputs = run(5, 31);
        let mut ids: Vec<NodeId> = outputs.keys().copied().collect();
        ids.sort_unstable();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(outputs[id].my_rank, i + 1);
        }
    }

    #[test]
    fn all_nodes_terminate_within_one_round_of_each_other() {
        let outputs = run(6, 3);
        let rounds: BTreeSet<u64> = outputs.values().map(|o| o.round).collect();
        let min = rounds.iter().min().unwrap();
        let max = rounds.iter().max().unwrap();
        assert!(max - min <= 1, "termination rounds: {rounds:?}");
    }
}
