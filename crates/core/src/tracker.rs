//! Tracking the participant estimate `n_v`.
//!
//! In the *id-only* model the only way to learn that another node exists is
//! to receive a message from it. Every algorithm in the paper therefore
//! maintains `n_v`: the number of distinct nodes from which node `v` has
//! received at least one message so far. A Byzantine node can make itself
//! known to only a subset of the correct nodes, so `n_v` legitimately
//! differs across correct nodes — the algorithms are exactly the ones that
//! tolerate this inconsistency.

use std::collections::BTreeSet;

use uba_sim::{Envelope, NodeId};

/// Tracks the set of nodes a process has heard from (`n_v`).
///
/// # Examples
///
/// ```
/// use uba_core::ParticipantTracker;
/// use uba_sim::{Envelope, NodeId};
///
/// let mut t = ParticipantTracker::new();
/// t.observe_inbox(&[Envelope::new(NodeId::new(3), "hi"), Envelope::new(NodeId::new(5), "yo")]);
/// t.observe_inbox(&[Envelope::new(NodeId::new(3), "again")]);
/// assert_eq!(t.n(), 2);
/// assert!(t.contains(NodeId::new(5)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParticipantTracker {
    seen: BTreeSet<NodeId>,
}

impl ParticipantTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the senders of a delivered inbox.
    pub fn observe_inbox<M>(&mut self, inbox: &[Envelope<M>]) {
        for env in inbox {
            self.seen.insert(env.from);
        }
    }

    /// Records a single sender.
    pub fn observe(&mut self, id: NodeId) {
        self.seen.insert(id);
    }

    /// The current participant estimate `n_v`.
    pub fn n(&self) -> usize {
        self.seen.len()
    }

    /// Whether `id` has been heard from.
    pub fn contains(&self, id: NodeId) -> bool {
        self.seen.contains(&id)
    }

    /// Freezes the current membership into an immutable snapshot, as the
    /// consensus algorithms do after their two initialization rounds
    /// ("later, a node only accepts messages from a node if it counted
    /// towards `n_v` during the initialization").
    pub fn freeze(&self) -> FrozenMembership {
        FrozenMembership {
            members: self.seen.clone(),
        }
    }
}

/// An immutable membership snapshot with its fixed `n_v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenMembership {
    members: BTreeSet<NodeId>,
}

impl FrozenMembership {
    /// The frozen `n_v`.
    pub fn n(&self) -> usize {
        self.members.len()
    }

    /// Whether `id` was part of the snapshot.
    pub fn contains(&self, id: NodeId) -> bool {
        self.members.contains(&id)
    }

    /// Members in ascending order.
    pub fn members(&self) -> &BTreeSet<NodeId> {
        &self.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(from: u64, msg: &str) -> Envelope<&str> {
        Envelope::new(NodeId::new(from), msg)
    }

    #[test]
    fn tracker_counts_distinct_senders() {
        let mut t = ParticipantTracker::new();
        t.observe_inbox(&[env(1, "a"), env(2, "b"), env(1, "c")]);
        assert_eq!(t.n(), 2);
        t.observe(NodeId::new(9));
        assert_eq!(t.n(), 3);
    }

    #[test]
    fn freeze_is_immutable_snapshot() {
        let mut t = ParticipantTracker::new();
        t.observe(NodeId::new(1));
        let frozen = t.freeze();
        t.observe(NodeId::new(2));
        assert_eq!(frozen.n(), 1);
        assert_eq!(t.n(), 2);
        assert!(frozen.contains(NodeId::new(1)));
        assert!(!frozen.contains(NodeId::new(2)));
    }
}
