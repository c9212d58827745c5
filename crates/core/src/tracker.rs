//! Tracking the participant estimate `n_v`.
//!
//! In the *id-only* model the only way to learn that another node exists is
//! to receive a message from it. Every algorithm in the paper therefore
//! maintains `n_v`: the number of distinct nodes from which node `v` has
//! received at least one message so far. A Byzantine node can make itself
//! known to only a subset of the correct nodes, so `n_v` legitimately
//! differs across correct nodes — the algorithms are exactly the ones that
//! tolerate this inconsistency.
//!
//! The tracker also gives every id it hears a **dense slot**: `0, 1, 2, …`
//! in the order the ids were first heard, kept by the freeze. A protocol
//! that counts "distinct members that said X" can then count in a bitset
//! indexed by slot instead of a set of ids. Slot numbers depend on arrival
//! order and are bookkeeping only: nothing a protocol sends or decides may
//! depend on them, only on the counts and id-ordered views they index.

use std::collections::BTreeMap;

use uba_sim::{Envelope, NodeId};

/// Ids numbered `0, 1, 2, …` in the order they were first seen.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdSlots {
    slot_of: BTreeMap<NodeId, u32>,
    /// Slot → id.
    ids: Vec<NodeId>,
}

impl IdSlots {
    /// The slot of `id`, giving it the next free one if it is new.
    pub fn observe(&mut self, id: NodeId) -> u32 {
        let next = u32::try_from(self.ids.len()).expect("fewer than 2^32 ids");
        let slot = *self.slot_of.entry(id).or_insert(next);
        if slot == next {
            self.ids.push(id);
        }
        slot
    }

    /// [`observe`](Self::observe), trying `guess` before the index: ids
    /// are usually heard again in the order they were first heard, so the
    /// caller's guess is the slot after the previous id's.
    #[inline]
    pub fn observe_near(&mut self, id: NodeId, guess: u32) -> u32 {
        if self.ids.get(guess as usize) == Some(&id) {
            guess
        } else {
            self.observe(id)
        }
    }

    pub fn slot(&self, id: NodeId) -> Option<u32> {
        self.slot_of.get(&id).copied()
    }

    /// Ids in slot order.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// `(id, slot)` in ascending id order.
    pub fn ascending(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.slot_of.iter().map(|(&id, &slot)| (id, slot))
    }
}

/// Equal when the same ids were seen, in whatever order.
impl PartialEq for IdSlots {
    fn eq(&self, other: &Self) -> bool {
        self.slot_of.keys().eq(other.slot_of.keys())
    }
}

impl Eq for IdSlots {}

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
    seen: IdSlots,
}

impl ParticipantTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the senders of a delivered inbox — a `Context::inbox()` or
    /// any slice of envelopes: one lookup each time the sender changes (the
    /// engine delivers a sender's messages adjacently, across the inbox's
    /// segments too; any other order is just as correct).
    pub fn observe_inbox<'a, M: 'a>(&mut self, inbox: impl IntoIterator<Item = &'a Envelope<M>>) {
        let mut last = None;
        for envelope in inbox {
            if last != Some(envelope.from) {
                last = Some(envelope.from);
                self.seen.observe(envelope.from);
            }
        }
    }

    /// Records a single sender and returns its slot: `0` for the first id
    /// ever observed, `1` for the second, and so on; observing an id again
    /// returns the slot it already has.
    pub fn observe(&mut self, id: NodeId) -> u32 {
        self.seen.observe(id)
    }

    /// [`observe`](Self::observe), trying slot `guess` first.
    #[inline]
    pub(crate) fn observe_near(&mut self, id: NodeId, guess: u32) -> u32 {
        self.seen.observe_near(id, guess)
    }

    /// The current participant estimate `n_v`.
    pub fn n(&self) -> usize {
        self.seen.ids().len()
    }

    /// Whether `id` has been heard from.
    pub fn contains(&self, id: NodeId) -> bool {
        self.seen.slot(id).is_some()
    }

    /// Freezes the current membership into an immutable snapshot, as the
    /// consensus algorithms do after their two initialization rounds
    /// ("later, a node only accepts messages from a node if it counted
    /// towards `n_v` during the initialization"). The snapshot keeps the
    /// tracker's slot numbering.
    pub fn freeze(&self) -> FrozenMembership {
        FrozenMembership {
            ids: self.seen.ids().to_vec(),
            by_id: self.seen.ascending().map(|(_, slot)| slot).collect(),
        }
    }
}

/// An immutable membership snapshot with its fixed `n_v`.
///
/// Two flat vectors and no tree: membership is only read after the
/// freeze, once per run of envelopes from one sender, and the sender is
/// usually the member in the slot after the previous sender's. Otherwise a
/// binary search over the slots in id order finds it.
#[derive(Debug, Clone)]
pub struct FrozenMembership {
    /// Slot → id.
    ids: Vec<NodeId>,
    /// Slots in ascending order of their ids.
    by_id: Vec<u32>,
}

impl FrozenMembership {
    /// The frozen `n_v`.
    pub fn n(&self) -> usize {
        self.ids.len()
    }

    /// Whether `id` was part of the snapshot.
    pub fn contains(&self, id: NodeId) -> bool {
        self.slot(id).is_some()
    }

    /// The slot (`0..n`) of member `id`, `None` for a non-member.
    pub fn slot(&self, id: NodeId) -> Option<u32> {
        let id_of = |&slot: &u32| self.id_of(slot);
        let at = self.by_id.binary_search_by_key(&id, id_of).ok()?;
        Some(self.by_id[at])
    }

    /// [`slot`](Self::slot), trying `guess` before the search: senders
    /// arrive in the order they were first heard, so the caller's guess is
    /// the slot after the previous sender's.
    #[inline]
    pub(crate) fn slot_near(&self, id: NodeId, guess: u32) -> Option<u32> {
        if self.ids.get(guess as usize) == Some(&id) {
            Some(guess)
        } else {
            self.slot(id)
        }
    }

    /// The member in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= n`.
    pub fn id_of(&self, slot: u32) -> NodeId {
        self.ids[slot as usize]
    }

    /// Members in ascending order.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.by_id.iter().map(|&slot| self.id_of(slot))
    }
}

/// Equal when the same ids are members, whatever their slots.
impl PartialEq for FrozenMembership {
    fn eq(&self, other: &Self) -> bool {
        self.members().eq(other.members())
    }
}

impl Eq for FrozenMembership {}

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

    #[test]
    fn slots_follow_first_heard_order_and_survive_the_freeze() {
        let mut t = ParticipantTracker::new();
        t.observe_inbox(&[env(9, "a"), env(9, "b"), env(2, "c"), env(9, "d")]);
        assert_eq!(t.observe(NodeId::new(5)), 2);
        assert_eq!(t.observe(NodeId::new(2)), 1, "a known id keeps its slot");
        assert_eq!(t.observe_near(NodeId::new(2), 1), 1);
        assert_eq!(t.observe_near(NodeId::new(9), 1), 0, "a wrong guess");
        assert_eq!(t.observe_near(NodeId::new(4), 3), 3, "a new id");
        let frozen = t.freeze();
        assert_eq!(frozen.n(), 4);
        assert_eq!(frozen.slot(NodeId::new(9)), Some(0));
        assert_eq!(frozen.slot(NodeId::new(7)), None);
        assert_eq!(frozen.id_of(2), NodeId::new(5));
        assert_eq!(frozen.slot_near(NodeId::new(5), 2), Some(2));
        assert_eq!(
            frozen.slot_near(NodeId::new(5), 0),
            Some(2),
            "a wrong guess"
        );
        assert_eq!(frozen.slot_near(NodeId::new(7), 4), None);
        let ascending: Vec<u64> = frozen.members().map(NodeId::raw).collect();
        assert_eq!(ascending, [2, 4, 5, 9]);
        // The numbering is bookkeeping, not identity.
        let mut other = ParticipantTracker::new();
        other.observe_inbox(&[env(2, "x"), env(4, "w"), env(5, "y"), env(9, "z")]);
        assert_eq!(other.freeze(), frozen);
    }
}
