//! Dynamic-membership (churn) schedules.
//!
//! In the paper's dynamic model the adversary decides, before each round
//! starts, which nodes join; correct nodes decide themselves when to leave
//! and announce it, while the adversary decides when faulty nodes leave —
//! all subject to `n > 3f` holding when the round starts. A
//! [`ChurnSchedule`] encodes such a plan; the engine applies the actions for
//! round `r` before executing round `r`.

use std::collections::BTreeMap;

use crate::id::NodeId;

/// One membership change.
#[derive(Debug)]
pub enum ChurnAction<P> {
    /// A new correct node joins, running the given process.
    JoinCorrect(P),
    /// A new faulty (adversary-controlled) node joins.
    JoinFaulty(NodeId),
    /// The node with this id leaves the system (correct or faulty).
    Leave(NodeId),
}

/// A plan of membership changes keyed by the round *before* which they apply.
///
/// # Examples
///
/// ```
/// use uba_sim::{ChurnSchedule, NodeId};
///
/// let mut plan: ChurnSchedule<()> = ChurnSchedule::new();
/// plan.join_faulty(3, NodeId::new(77));
/// plan.leave(5, NodeId::new(77));
/// assert_eq!(plan.len(), 2);
/// ```
#[derive(Debug)]
pub struct ChurnSchedule<P> {
    events: BTreeMap<u64, Vec<ChurnAction<P>>>,
    len: usize,
}

impl<P> Default for ChurnSchedule<P> {
    fn default() -> Self {
        ChurnSchedule {
            events: BTreeMap::new(),
            len: 0,
        }
    }
}

impl<P> ChurnSchedule<P> {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a correct node to join before round `round`.
    pub fn join_correct(&mut self, round: u64, process: P) -> &mut Self {
        self.push(round, ChurnAction::JoinCorrect(process))
    }

    /// Schedules a faulty node to join before round `round`.
    pub fn join_faulty(&mut self, round: u64, id: NodeId) -> &mut Self {
        self.push(round, ChurnAction::JoinFaulty(id))
    }

    /// Schedules a node to leave before round `round`.
    pub fn leave(&mut self, round: u64, id: NodeId) -> &mut Self {
        self.push(round, ChurnAction::Leave(id))
    }

    fn push(&mut self, round: u64, action: ChurnAction<P>) -> &mut Self {
        self.events.entry(round).or_default().push(action);
        self.len += 1;
        self
    }

    /// Total number of scheduled actions remaining.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no actions remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes and returns the actions scheduled for `round`.
    pub fn take_for_round(&mut self, round: u64) -> Vec<ChurnAction<P>> {
        let actions = self.events.remove(&round).unwrap_or_default();
        self.len -= actions.len();
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_are_taken_per_round() {
        let mut plan: ChurnSchedule<u8> = ChurnSchedule::new();
        plan.join_correct(2, 10)
            .join_faulty(2, NodeId::new(5))
            .leave(4, NodeId::new(5));
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.take_for_round(1).len(), 0);
        assert_eq!(plan.take_for_round(2).len(), 2);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.take_for_round(4).len(), 1);
        assert!(plan.is_empty());
    }
}
