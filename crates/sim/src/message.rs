//! Message envelopes, shared payloads, inboxes and per-round outboxes.
//!
//! # Delivery memory model
//!
//! A payload is never cloned by delivery. It is **hashed once per send and
//! wrapped once per distinct (sender, payload) per round**: the first send
//! of a pair wraps the payload in a [`MsgRef`] (an `Arc` plus the memoized
//! hash) that the round's dedup entry for the pair keeps, and every envelope
//! of the pair, at every recipient, shares it. A repeated send of the pair
//! only hashes its payload, finds the entry and drops its own copy.
//!
//! An envelope is stored **once per broadcast**, not once per recipient: a
//! broadcast that is fresh at every recipient of a round without
//! recipient-side faults is one envelope in a run of such broadcasts, and
//! every recipient's [`Inbox`] holds the run as one
//! [`Segment::Shared`]. Only what some recipients get and others do not —
//! point-to-point sends, a broadcast one recipient already has, anything in a
//! round that loses messages in transit — is copied into the recipient's own
//! [`Segment::Own`]. An all-to-all round of `n` broadcasts therefore stores
//! `n` envelopes and hands out `n` shares of their run, instead of pushing
//! `n²` envelopes.

use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use uba_trace::TraceEvent;

use crate::id::NodeId;

/// Bound for protocol message payloads.
///
/// `Eq + Hash` enables the engine's per-round duplicate suppression (the
/// model states that duplicate messages from the same node within one round
/// are discarded); `Clone` enables adversary replay and trace recording —
/// broadcast fan-out itself shares one [`MsgRef`] and never clones the
/// payload per recipient.
///
/// This trait is blanket-implemented — any suitable type is a payload.
pub trait Payload: Clone + Eq + Hash + Debug + 'static {}

impl<T: Clone + Eq + Hash + Debug + 'static> Payload for T {}

/// A shared, hash-memoized payload: the unit the engine actually delivers.
///
/// Wraps the payload in an [`Arc`] and records its hash once at
/// construction. The engine hashes a payload once per send and wraps it
/// once per distinct (sender, payload) per round: the round's dedup map is
/// keyed by the sender and this hash, and holds the pair's one `MsgRef`,
/// which every envelope of the pair shares. Equality still compares the
/// payloads themselves (the memoized hash is only a fast path), so dedup
/// semantics are exactly the model's per-round `(sender, payload)` rule.
pub struct MsgRef<M> {
    hash: u64,
    msg: Arc<M>,
}

impl<M: Hash> MsgRef<M> {
    /// Wraps `msg`, memoizing its hash.
    pub fn new(msg: M) -> Self {
        let hash = Self::hash_of(&msg);
        Self::with_hash(msg, hash)
    }

    /// The hash [`new`](Self::new) memoizes for `msg`, computed without
    /// wrapping it: the engine hashes every send but wraps only the first
    /// send of each pair.
    pub(crate) fn hash_of(msg: &M) -> u64 {
        // DefaultHasher::new() uses fixed keys: the memoized hash is
        // deterministic within a run, which is all the dedup map needs.
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        msg.hash(&mut hasher);
        hasher.finish()
    }
}

impl<M> MsgRef<M> {
    /// Wraps `msg` with the hash [`hash_of`](Self::hash_of) gave for it.
    pub(crate) fn with_hash(msg: M, hash: u64) -> Self {
        MsgRef {
            hash,
            msg: Arc::new(msg),
        }
    }

    /// The shared payload.
    pub fn get(&self) -> &M {
        &self.msg
    }

    /// The hash memoized at construction.
    pub fn precomputed_hash(&self) -> u64 {
        self.hash
    }

    /// Whether two refs share the same allocation (cheap equality fast
    /// path; `false` does not imply the payloads differ).
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.msg, &b.msg)
    }
}

impl<M> Clone for MsgRef<M> {
    fn clone(&self) -> Self {
        MsgRef {
            hash: self.hash,
            msg: Arc::clone(&self.msg),
        }
    }
}

impl<M> std::ops::Deref for MsgRef<M> {
    type Target = M;
    fn deref(&self) -> &M {
        &self.msg
    }
}

impl<M: PartialEq> PartialEq for MsgRef<M> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.msg, &other.msg) || (self.hash == other.hash && *self.msg == *other.msg)
    }
}

impl<M: Eq> Eq for MsgRef<M> {}

impl<M> Hash for MsgRef<M> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Transparent: a `MsgRef` renders exactly like its payload, so traces and
/// debug output are byte-identical to the pre-sharing engine.
impl<M: Debug> Debug for MsgRef<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.msg.fmt(f)
    }
}

/// A delivered message together with its authenticated sender.
///
/// In the model the identifier of a node is included in every message it
/// sends and cannot be forged on *direct* communication, so the engine stamps
/// `from` itself; a Byzantine node can only lie about messages it claims to
/// have *received* (which is a payload-level claim, not an envelope-level
/// one).
///
/// The payload is held behind a shared [`MsgRef`]: cloning an envelope bumps
/// a refcount instead of deep-cloning the message. Read it with
/// [`msg`](Envelope::msg).
#[derive(PartialEq, Eq, Hash, Debug)]
pub struct Envelope<M> {
    /// Authenticated identifier of the sender.
    pub from: NodeId,
    msg: MsgRef<M>,
}

impl<M: Hash> Envelope<M> {
    /// Creates an envelope owning a fresh payload.
    pub fn new(from: NodeId, msg: M) -> Self {
        Envelope {
            from,
            msg: MsgRef::new(msg),
        }
    }
}

impl<M> Envelope<M> {
    /// Creates an envelope sharing an already-wrapped payload (the engine's
    /// broadcast fan-out path).
    pub fn from_shared(from: NodeId, msg: MsgRef<M>) -> Self {
        Envelope { from, msg }
    }

    /// The protocol payload.
    pub fn msg(&self) -> &M {
        self.msg.get()
    }

    /// The shared payload reference (for re-wrapping without a clone).
    pub fn shared(&self) -> &MsgRef<M> {
        &self.msg
    }
}

/// Cloning shares the payload; no `M: Clone` bound and no allocation.
impl<M> Clone for Envelope<M> {
    fn clone(&self) -> Self {
        Envelope {
            from: self.from,
            msg: self.msg.clone(),
        }
    }
}

/// One run of envelopes in a delivered inbox, in send order.
#[derive(Debug)]
pub enum Segment<M> {
    /// A run of the round's broadcasts, shared by every recipient.
    Shared(Arc<[Envelope<M>]>),
    /// Envelopes only this recipient got.
    Own(Vec<Envelope<M>>),
}

impl<M> Segment<M> {
    /// The run's envelopes.
    pub fn as_slice(&self) -> &[Envelope<M>] {
        match self {
            Segment::Shared(run) => run,
            Segment::Own(own) => own,
        }
    }
}

/// The messages delivered to one process in one round, in send order: a
/// borrowed view over the [`Segment`]s the engine delivered, or over a plain
/// slice of envelopes (the TCP node, tests).
///
/// `Copy`, so [`Context::inbox`](crate::Context::inbox) hands it out by value
/// and it can be iterated as often as a protocol likes.
#[derive(Debug)]
pub struct Inbox<'a, M> {
    /// A plain slice, read first; empty for an engine-delivered inbox.
    head: &'a [Envelope<M>],
    /// The engine's segments, read after `head`; empty for a plain slice.
    segments: &'a [Segment<M>],
}

impl<'a, M> Inbox<'a, M> {
    /// The envelopes, in send order.
    pub fn iter(self) -> InboxIter<'a, M> {
        InboxIter {
            run: self.head.iter(),
            rest: self.segments.iter(),
        }
    }

    /// Number of envelopes.
    pub fn len(self) -> usize {
        self.iter().len()
    }

    /// Whether no envelope was delivered.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The envelopes, copied out (each copy shares its payload).
    pub fn to_vec(self) -> Vec<Envelope<M>> {
        self.iter().cloned().collect()
    }
}

impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Inbox<'_, M> {}

/// The empty inbox.
impl<M> Default for Inbox<'_, M> {
    fn default() -> Self {
        Inbox {
            head: &[],
            segments: &[],
        }
    }
}

impl<'a, M> From<&'a [Envelope<M>]> for Inbox<'a, M> {
    fn from(envelopes: &'a [Envelope<M>]) -> Self {
        Inbox {
            head: envelopes,
            segments: &[],
        }
    }
}

impl<'a, M, const N: usize> From<&'a [Envelope<M>; N]> for Inbox<'a, M> {
    fn from(envelopes: &'a [Envelope<M>; N]) -> Self {
        Inbox::from(&envelopes[..])
    }
}

impl<'a, M> From<&'a Vec<Envelope<M>>> for Inbox<'a, M> {
    fn from(envelopes: &'a Vec<Envelope<M>>) -> Self {
        Inbox::from(envelopes.as_slice())
    }
}

impl<'a, M> From<&'a [Segment<M>]> for Inbox<'a, M> {
    fn from(segments: &'a [Segment<M>]) -> Self {
        Inbox {
            head: &[],
            segments,
        }
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = &'a Envelope<M>;
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

/// Iterator over an [`Inbox`]'s envelopes, in send order.
#[derive(Debug)]
pub struct InboxIter<'a, M> {
    /// The rest of the segment being read.
    run: std::slice::Iter<'a, Envelope<M>>,
    /// The segments after it.
    rest: std::slice::Iter<'a, Segment<M>>,
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = &'a Envelope<M>;

    fn next(&mut self) -> Option<&'a Envelope<M>> {
        loop {
            if let Some(envelope) = self.run.next() {
                return Some(envelope);
            }
            self.run = self.rest.next()?.as_slice().iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest: usize = self
            .rest
            .as_slice()
            .iter()
            .map(|s| s.as_slice().len())
            .sum();
        let len = self.run.len() + rest;
        (len, Some(len))
    }
}

impl<M> ExactSizeIterator for InboxIter<'_, M> {}

/// Where an outgoing message is addressed.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Dest {
    /// Delivered to every node present in the system (including the sender).
    Broadcast,
    /// Delivered to one specific node.
    To(NodeId),
}

impl Dest {
    /// The one node addressed; `None` for a broadcast.
    pub fn recipient(self) -> Option<NodeId> {
        match self {
            Dest::Broadcast => None,
            Dest::To(to) => Some(to),
        }
    }
}

/// One outgoing message: destination plus payload.
///
/// Outgoing payloads stay owned (processes and adversaries build them
/// freely); delivery hashes each one once and wraps it in a [`MsgRef`] only
/// if its (sender, payload) pair is new in the round.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Outgoing<M> {
    /// Destination of the message.
    pub dest: Dest,
    /// The protocol payload.
    pub msg: M,
}

impl<M: Debug> Outgoing<M> {
    /// The [`TraceEvent::Send`] of `from` sending this message in `round`.
    /// Renders the payload: call behind `Tracer::enabled`.
    pub fn send_event(&self, round: u64, from: NodeId, adversary: bool) -> TraceEvent {
        let to = self.dest.recipient().map(NodeId::raw);
        TraceEvent::send(round, from.raw(), to, &self.msg, adversary)
    }
}

/// A node's outgoing messages for the current round.
///
/// Filled by [`Process::on_round`](crate::Process::on_round) through
/// [`Context`](crate::Context); drained by the engine at the end of the
/// round and delivered at the start of the next one.
#[derive(Clone, Debug)]
pub struct Outbox<M> {
    items: Vec<Outgoing<M>>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox { items: Vec::new() }
    }
}

impl<M> Outbox<M> {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a broadcast.
    pub fn broadcast(&mut self, msg: M) {
        self.items.push(Outgoing {
            dest: Dest::Broadcast,
            msg,
        });
    }

    /// Queues a point-to-point message.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.items.push(Outgoing {
            dest: Dest::To(to),
            msg,
        });
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// View of the queued messages.
    pub fn items(&self) -> &[Outgoing<M>] {
        &self.items
    }

    /// Drains the queued messages.
    pub fn drain(&mut self) -> Vec<Outgoing<M>> {
        std::mem::take(&mut self.items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_queues_in_order() {
        let mut ob = Outbox::new();
        ob.broadcast("a");
        ob.send(NodeId::new(1), "b");
        assert_eq!(ob.len(), 2);
        let items = ob.drain();
        assert_eq!(items[0].dest, Dest::Broadcast);
        assert_eq!(items[1].dest, Dest::To(NodeId::new(1)));
        assert!(ob.is_empty());
    }

    #[test]
    fn envelope_carries_sender() {
        let env = Envelope::new(NodeId::new(9), 42u32);
        assert_eq!(env.from, NodeId::new(9));
        assert_eq!(*env.msg(), 42);
    }

    #[test]
    fn envelope_clone_shares_the_payload() {
        let env = Envelope::new(NodeId::new(1), vec![1u8, 2, 3]);
        let copy = env.clone();
        assert!(MsgRef::ptr_eq(env.shared(), copy.shared()));
        assert_eq!(env, copy);
    }

    #[test]
    fn an_inbox_reads_its_segments_in_order() {
        let env = |from, msg| Envelope::new(NodeId::new(from), msg);
        let run: Arc<[Envelope<u8>]> = Arc::from(vec![env(1, 10), env(2, 20)]);
        let segments = vec![
            Segment::Shared(run),
            Segment::Own(Vec::new()),
            Segment::Own(vec![env(3, 30)]),
        ];
        let inbox = Inbox::from(segments.as_slice());
        let read: Vec<u8> = inbox.iter().map(|e| *e.msg()).collect();
        assert_eq!(read, [10, 20, 30]);
        assert_eq!(inbox.len(), 3);
        let mut iter = inbox.into_iter();
        iter.next();
        assert_eq!(iter.len(), 2, "exact size across segments");
        assert!(Inbox::<u8>::default().is_empty());
        assert_eq!(Inbox::from(&[env(4, 40)]).to_vec(), [env(4, 40)]);
    }

    #[test]
    fn msgref_equality_is_by_value_with_memoized_hash() {
        let a = MsgRef::new(String::from("same"));
        let b = MsgRef::new(String::from("same"));
        let c = MsgRef::new(String::from("other"));
        assert!(!MsgRef::ptr_eq(&a, &b), "distinct allocations");
        assert_eq!(a, b, "equality compares payloads, not pointers");
        assert_eq!(a.precomputed_hash(), b.precomputed_hash());
        assert_ne!(a, c);
        use std::collections::HashSet;
        let set: HashSet<MsgRef<String>> = [a.clone(), b, c].into_iter().collect();
        assert_eq!(set.len(), 2, "dedup by payload value");
    }

    #[test]
    fn msgref_debug_is_transparent() {
        let m = MsgRef::new(7u64);
        assert_eq!(format!("{m:?}"), "7");
        let env = Envelope::new(NodeId::new(2), 7u64);
        assert_eq!(
            format!("{env:?}"),
            format!("Envelope {{ from: N2, msg: 7 }}")
        );
    }
}
