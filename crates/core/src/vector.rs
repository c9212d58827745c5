//! Vector consensus (interactive consistency) in the *id-only* model — a
//! composition of the paper's primitives.
//!
//! Every correct node contributes one value and all correct nodes must
//! agree on a **common vector** mapping contributor ids to values, with
//! every correct node's own value guaranteed to appear. With known `n` and
//! `f` this is the classic interactive-consistency problem; here it
//! composes two of the paper's building blocks:
//!
//! 1. a **dissemination round**: every node broadcasts its contribution;
//!    sender ids are unforgeable, so every correct node receives the same
//!    authenticated pair `(id, value)` from every correct contributor;
//! 2. **[parallel consensus](crate::parallel)** over the received pairs:
//!    correct contributions are unanimous inputs (validity keeps them);
//!    pairs equivocated by Byzantine contributors fall under agreement —
//!    a common value is adopted or the entry is dropped, identically
//!    everywhere.
//!
//! This is one of the "an algorithm using a combination of the discussed
//! primitives could be compiled to work without the knowledge of `n` and
//! `f`" compositions suggested in the paper's Discussion section.

use std::collections::BTreeMap;

use uba_sim::{Context, NodeId, Process};

use crate::parallel::{ParMsg, ParallelConsensusCore};
use crate::value::Value;

/// Messages of vector consensus: one dissemination broadcast, then the
/// embedded parallel-consensus traffic.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum VcMsg<V> {
    /// A node's contribution (round 1).
    Contribute(V),
    /// Embedded parallel-consensus message.
    Par(ParMsg<NodeId, V>),
}

/// One node's state machine for vector consensus.
///
/// # Examples
///
/// ```
/// use uba_core::vector::VectorConsensus;
/// use uba_sim::{sparse_ids, SyncEngine};
///
/// let ids = sparse_ids(4, 44);
/// let mut engine = SyncEngine::builder()
///     .correct_many(ids.iter().enumerate().map(|(i, &id)| {
///         VectorConsensus::new(id, 100 + i as u64)
///     }))
///     .build();
/// let done = engine.run_to_completion(15)?;
/// for (id, vector) in &done.outputs {
///     assert_eq!(vector.len(), 4, "all four contributions present");
///     assert_eq!(vector[id], 100 + ids.iter().position(|x| x == id).unwrap() as u64);
/// }
/// # Ok::<(), uba_sim::EngineError>(())
/// ```
#[derive(Clone, Debug)]
pub struct VectorConsensus<V> {
    me: NodeId,
    value: V,
    core: Option<ParallelConsensusCore<NodeId, V>>,
}

impl<V: Value> VectorConsensus<V> {
    /// Creates a node contributing `value` under its own identifier.
    pub fn new(me: NodeId, value: V) -> Self {
        VectorConsensus {
            me,
            value,
            core: None,
        }
    }

    /// The agreed vector entries decided so far.
    pub fn partial_vector(&self) -> BTreeMap<NodeId, V> {
        self.core
            .as_ref()
            .map(|core| {
                core.finished_instances()
                    .iter()
                    .filter_map(|(id, v)| v.clone().map(|x| (*id, x)))
                    .collect()
            })
            .unwrap_or_default()
    }
}

impl<V: Value> Process for VectorConsensus<V> {
    type Msg = VcMsg<V>;
    type Output = BTreeMap<NodeId, V>;

    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        if ctx.round() == 1 {
            ctx.broadcast(VcMsg::Contribute(self.value.clone()));
            return;
        }
        if ctx.round() == 2 {
            // Collect the authenticated contributions; an equivocating
            // sender is pinned to its smallest value deterministically (a
            // second value sent to other nodes is resolved by agreement).
            let mut pairs: BTreeMap<NodeId, &V> = BTreeMap::new();
            for env in ctx.inbox() {
                if let VcMsg::Contribute(v) = env.msg() {
                    let pick = pairs.entry(env.from).or_insert(v);
                    *pick = v.min(*pick);
                }
            }
            let pairs = pairs.into_iter().map(|(id, v)| (id, v.clone()));
            self.core = Some(ParallelConsensusCore::new(self.me, pairs));
        }
        let core = self.core.as_mut().expect("initialized in round 2");
        let inner_inbox = ctx.inbox().iter().filter_map(|e| match e.msg() {
            VcMsg::Par(m) => Some((e.from, m)),
            _ => None,
        });
        let mut out = Vec::new();
        core.step(ctx.round() - 1, inner_inbox, &mut out);
        for msg in out {
            ctx.broadcast(VcMsg::Par(msg));
        }
    }

    fn output(&self) -> Option<BTreeMap<NodeId, V>> {
        self.core.as_ref().and_then(|c| c.output()).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use uba_sim::{sparse_ids, SyncEngine};

    #[test]
    fn all_correct_contributions_are_in_every_vector() {
        for n in [1usize, 3, 6, 10] {
            let ids = sparse_ids(n, n as u64);
            let mut engine = SyncEngine::builder()
                .correct_many(
                    ids.iter()
                        .enumerate()
                        .map(|(i, &id)| VectorConsensus::new(id, i as u64)),
                )
                .build();
            let done = engine.run_to_completion(60).expect("terminates");
            for vector in done.outputs.values() {
                assert_eq!(vector.len(), n);
                for (i, id) in ids.iter().enumerate() {
                    assert_eq!(vector.get(id), Some(&(i as u64)), "n = {n}");
                }
            }
        }
    }

    #[test]
    fn byzantine_contributor_appears_consistently_or_not_at_all() {
        use uba_sim::{AdversaryOutbox, AdversaryView, FnAdversary, NodeId};
        type M = VcMsg<u64>;
        let ids = sparse_ids(7, 3);
        let byz = NodeId::new(77);
        // The Byzantine contributor equivocates its entry per recipient and
        // also participates in initialization so it is counted everywhere.
        let adv = FnAdversary::new(
            move |view: &AdversaryView<'_, M>, out: &mut AdversaryOutbox<M>| match view.round {
                1 => {
                    for (i, &to) in view.correct.iter().enumerate() {
                        out.send(byz, to, VcMsg::Contribute(1000 + i as u64));
                    }
                }
                2 => out.broadcast(byz, VcMsg::Par(ParMsg::RotorInit)),
                _ => {}
            },
        );
        let mut engine = SyncEngine::builder()
            .correct_many(
                ids.iter()
                    .enumerate()
                    .map(|(i, &id)| VectorConsensus::new(id, i as u64)),
            )
            .faulty(byz)
            .adversary(adv)
            .build();
        let done = engine.run_to_completion(100).expect("terminates");
        let vectors: BTreeSet<_> = done.outputs.values().cloned().collect();
        assert_eq!(vectors.len(), 1, "agreement on the vector");
        let vector = vectors.into_iter().next().unwrap();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(vector.get(id), Some(&(i as u64)), "correct entries kept");
        }
        // The Byzantine entry may be present (some agreed value) or absent —
        // both satisfy interactive consistency; agreement was asserted above.
    }

    #[test]
    fn partial_vector_grows_monotonically() {
        let ids = sparse_ids(4, 9);
        let mut engine = SyncEngine::builder()
            .correct_many(
                ids.iter()
                    .enumerate()
                    .map(|(i, &id)| VectorConsensus::new(id, i as u64)),
            )
            .build();
        let mut last = 0;
        for _ in 0..10 {
            engine.run_round();
            if let Some(p) = engine.process(ids[0]) {
                let now = p.partial_vector().len();
                assert!(now >= last);
                last = now;
            }
        }
    }
}
