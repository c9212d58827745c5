//! Parallel consensus — Algorithm 5 of the paper (`EarlyConsensus(id)` and
//! the `ParallelConsensus` wrapper).
//!
//! Every correct node holds a set of input pairs `(id, x)`; nodes need *not*
//! agree on which instance identifiers exist. The protocol guarantees:
//!
//! 1. **Validity** — a pair `(id, x)` with `x ≠ ⊥` input at *every* correct
//!    node is output by every correct node;
//! 2. **Agreement** — if any correct node outputs `(id, x)`, all do;
//! 3. **Termination** — every correct node outputs a (possibly empty) set of
//!    pairs after finitely many rounds.
//!
//! Instances share one initialization (rounds 1–2, which also initialize one
//! shared rotor-coordinator) and run phase-aligned with each other. A node
//! that has no input pair for `id` **joins** the instance when it first
//! hears `id:input`, `id:prefer`, or `id:strongprefer` during (respectively)
//! the second, third, or fifth round of the first phase, and discards
//! identifiers it first hears anywhere else. Missing opinions are filled
//! with `⊥` the first time a message type is heard (first phase) and with
//! the receiver's own same-slot message in later phases; explicit
//! `id:nopreference` / `id:nostrongpreference` messages let receivers
//! distinguish an aware-but-undecided node from an unaware one.
//!
//! The shared initialization, membership freeze, rotor step and coordinator
//! pick are the crate's phase frame (`phase.rs`), and every threshold is
//! evaluated by its one substitution tally; this file adds what is
//! Algorithm 5's own — the per-instance ladder with its explicit
//! no-preference markers, the join windows, and which value fills a silent
//! member's slot (`⊥`, the node's own message, or its logical input).
//!
//! The driving structure is exposed as [`ParallelConsensusCore`] (local
//! round numbers, borrowed messages in, messages out) so that vector
//! consensus can embed it and the total-ordering protocol can run one core
//! per *wave*, and as the standalone [`ParallelConsensus`] process.

use std::collections::{BTreeMap, BTreeSet};

use uba_sim::{Context, NodeId, Process};

use crate::phase::{FrameMsg, PhaseFrame, RotorPart, Tick};
use crate::quorum::{meets_third, meets_two_thirds};
use crate::value::Value;

/// Messages of the parallel-consensus protocol. `I` identifies the
/// instance, `V` is the opinion type; `None` encodes the paper's `⊥`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ParMsg<I, V> {
    /// Shared rotor: willingness to coordinate (round 1).
    RotorInit,
    /// Shared rotor: candidate echo.
    RotorEcho(NodeId),
    /// The phase coordinator's opinion for one instance.
    Opinion(I, Option<V>),
    /// `id:input(x)` — only ever sent with a non-`⊥` value.
    Input(I, V),
    /// `id:prefer(x)` — a `2n_v/3` input quorum was observed (possibly on `⊥`).
    Prefer(I, Option<V>),
    /// `id:nopreference` — aware of `id`, but no input quorum.
    NoPreference(I),
    /// `id:strongprefer(x)` — a `2n_v/3` prefer quorum was observed.
    StrongPrefer(I, Option<V>),
    /// `id:nostrongpreference` — aware of `id`, but no prefer quorum.
    NoStrongPreference(I),
}

impl<I, V> FrameMsg for ParMsg<I, V> {
    fn from_rotor(part: RotorPart) -> Self {
        match part {
            RotorPart::Init => ParMsg::RotorInit,
            RotorPart::Echo(p) => ParMsg::RotorEcho(p),
        }
    }

    fn as_rotor(&self) -> Option<RotorPart> {
        match *self {
            ParMsg::RotorInit => Some(RotorPart::Init),
            ParMsg::RotorEcho(p) => Some(RotorPart::Echo(p)),
            _ => None,
        }
    }
}

/// What a message says in its slot: `Some(x)` names the opinion `x` (itself
/// possibly `⊥`), `None` is the explicit no-preference marker.
type Vote<'a, V> = Option<Option<&'a V>>;

/// The best-supported opinion of a slot and its count.
type Winner<V> = Option<(Option<V>, usize)>;

/// What a silent member is counted with in a slot where this node last
/// `sent` a value (`None`: it sent nothing, or the explicit no-preference
/// marker): `⊥` the first time the message type is heard (phase 1), the
/// node's own value afterwards — nothing if it named none.
fn own_or_bottom<V>(sent: &Option<Option<V>>, phase: u64) -> Vote<'_, V> {
    if phase == 1 {
        Some(None)
    } else {
        sent.as_ref().map(Option::as_ref)
    }
}

/// Per-instance state.
#[derive(Clone, Debug)]
struct Instance<V> {
    /// Current opinion `id:x_v` (`None` = `⊥`).
    x: Option<V>,
    /// Created from a strongprefer first heard in phase-round 4; evaluated
    /// with `⊥` fills at round 5 and skips earlier slots.
    joined_r5: bool,
    /// This node's logical input this phase: its opinion at phase start.
    /// A `⊥` opinion is not broadcast, but it still drives substitution.
    logical_input: Option<V>,
    /// The value (possibly `⊥`) this node named in its prefer / strongprefer
    /// of the current phase, if it named one.
    sent_prefer: Option<Option<V>>,
    sent_strong: Option<Option<V>>,
    /// Best-supported strongprefer and its count, tallied in phase-round 4
    /// (evaluated in round 5).
    strongest: Winner<V>,
    /// Members that sent any message of this instance in the previous
    /// phase. A member silent at the input round but active last phase is
    /// an alive `⊥`-holder (substituted with `input(⊥)`); a member with no
    /// activity at all has terminated or is Byzantine-silent and is
    /// substituted with the receiver's own logical input, exactly like
    /// Algorithm 3's rule.
    active_prev: BTreeSet<NodeId>,
    active_cur: BTreeSet<NodeId>,
}

impl<V> Instance<V> {
    fn new(x: Option<V>) -> Self {
        Instance {
            x,
            joined_r5: false,
            logical_input: None,
            sent_prefer: None,
            sent_strong: None,
            strongest: None,
            active_prev: BTreeSet::new(),
            active_cur: BTreeSet::new(),
        }
    }
}

/// The timing-relative engine of Algorithm 5: feed it local round numbers
/// (1-based) and the (already delivered) inbox; it returns the messages to
/// broadcast. [`ParallelConsensus`] wraps it as a [`Process`]; the
/// total-ordering protocol drives one core per wave with wave-tagged
/// messages.
#[derive(Clone, Debug)]
pub struct ParallelConsensusCore<I, V> {
    frame: PhaseFrame,
    /// When set, only messages from these nodes are accepted at all — the
    /// total-ordering algorithm's "run with respect to the set S".
    restrict: Option<BTreeSet<NodeId>>,
    /// This node's own input pairs, instantiated at phase 1 round 1.
    own_inputs: BTreeMap<I, V>,
    instances: BTreeMap<I, Instance<V>>,
    finished: BTreeMap<I, Option<V>>,
    done: Option<BTreeMap<I, V>>,
}

impl<I: Value, V: Value> ParallelConsensusCore<I, V> {
    /// Creates a core for node `me` with its input pairs.
    pub fn new<P: IntoIterator<Item = (I, V)>>(me: NodeId, inputs: P) -> Self {
        ParallelConsensusCore {
            frame: PhaseFrame::new(me),
            restrict: None,
            own_inputs: inputs.into_iter().collect(),
            instances: BTreeMap::new(),
            finished: BTreeMap::new(),
            done: None,
        }
    }

    /// Restricts accepted senders to `members` (the ordering algorithm's
    /// membership snapshot `S`).
    pub fn restrict_to(mut self, members: BTreeSet<NodeId>) -> Self {
        self.restrict = Some(members);
        self
    }

    /// The final outputs (non-`⊥` pairs), once every instance terminated.
    pub fn output(&self) -> Option<&BTreeMap<I, V>> {
        self.done.as_ref()
    }

    /// Hands the final outputs over by move (a wave of the total-ordering
    /// protocol is dropped once it has terminated).
    pub(crate) fn take_output(&mut self) -> Option<BTreeMap<I, V>> {
        self.done.take()
    }

    /// Per-instance results so far, including `⊥` outcomes.
    pub fn finished_instances(&self) -> &BTreeMap<I, Option<V>> {
        &self.finished
    }

    /// One message slot for every instance at once: groups the messages
    /// `slot` recognises by instance, opens the join window (phase 1 only:
    /// an identifier first heard in a message that names a value — an
    /// explicit no-preference does not create awareness), and tallies each
    /// instance's votes with `fill` standing in for its silent members.
    /// Returns the winners in instance order.
    fn tally_slot<'a>(
        &mut self,
        tick: &Tick<'a, ParMsg<I, V>>,
        slot: impl Fn(&'a ParMsg<I, V>) -> Option<(&'a I, Vote<'a, V>)>,
        fill: impl for<'b> Fn(&'b Instance<V>, NodeId) -> Vote<'b, V>,
    ) -> Vec<Winner<V>> {
        let mut per_id: BTreeMap<&I, Vec<(NodeId, Vote<'_, V>)>> = BTreeMap::new();
        for &(from, msg) in &tick.inbox {
            if let Some((id, vote)) = slot(msg) {
                per_id.entry(id).or_default().push((from, vote));
            }
        }
        if tick.phase == 1 {
            for (&id, votes) in &per_id {
                let known = self.instances.contains_key(id) || self.finished.contains_key(id);
                if !known && votes.iter().any(|(_, vote)| vote.is_some()) {
                    let mut inst = Instance::new(None);
                    inst.joined_r5 = tick.round == 4;
                    self.instances.insert(id.clone(), inst);
                }
            }
        }
        let winners = self.instances.iter_mut().map(|(id, inst)| {
            let votes = per_id.remove(id).unwrap_or_default();
            inst.active_cur.extend(votes.iter().map(|(from, _)| *from));
            let winner = self.frame.tally(votes, |m| fill(inst, m));
            winner.map(|(v, count)| (v.cloned(), count))
        });
        winners.collect()
    }

    /// Executes one local round (1-based) on this round's delivered
    /// messages; outgoing broadcasts are appended to `out`. This is the
    /// whole protocol: [`ParallelConsensus`] adapts the engine's context to
    /// it, vector consensus and the total-ordering waves call it with a
    /// projection of their own inbox.
    pub fn step<'a>(
        &mut self,
        local_round: u64,
        inbox: impl IntoIterator<Item = (NodeId, &'a ParMsg<I, V>)>,
        out: &mut Vec<ParMsg<I, V>>,
    ) {
        let restrict = self.restrict.as_ref();
        let inbox = inbox
            .into_iter()
            .filter(|(from, _)| restrict.is_none_or(|allow| allow.contains(from)));
        let Some(tick) = self.frame.begin(local_round, inbox, out) else {
            return;
        };
        let (phase, n) = (tick.phase, tick.n);
        match tick.round {
            1 => {
                if phase == 1 {
                    let own = std::mem::take(&mut self.own_inputs);
                    for (id, x) in own {
                        self.instances.insert(id, Instance::new(Some(x)));
                    }
                }
                for (id, inst) in self.instances.iter_mut() {
                    inst.sent_prefer = None;
                    inst.sent_strong = None;
                    inst.joined_r5 = false;
                    inst.active_prev = std::mem::take(&mut inst.active_cur);
                    inst.logical_input = inst.x.clone();
                    if let Some(x) = &inst.x {
                        out.push(ParMsg::Input(id.clone(), x.clone()));
                    }
                }
            }
            2 => {
                // Join window: id:input first heard in round 2 of phase 1.
                let input = |m: &'a ParMsg<I, V>| match m {
                    ParMsg::Input(id, v) => Some((id, Some(Some(v)))),
                    _ => None,
                };
                let winners = self.tally_slot(&tick, input, |inst, m| {
                    // First time this type is heard, or a member alive last
                    // phase but silent at the input round: it logically
                    // holds ⊥. Otherwise it terminated or is
                    // Byzantine-silent: the receiver's own logical input
                    // (Algorithm 3's rule).
                    let bottom = phase == 1 || inst.active_prev.contains(&m);
                    Some(inst.logical_input.as_ref().filter(|_| !bottom))
                });
                for ((id, inst), winner) in self.instances.iter_mut().zip(winners) {
                    match winner.filter(|(_, c)| meets_two_thirds(*c, n)) {
                        Some((x, _)) => {
                            out.push(ParMsg::Prefer(id.clone(), x.clone()));
                            inst.sent_prefer = Some(x);
                        }
                        None => {
                            out.push(ParMsg::NoPreference(id.clone()));
                            inst.sent_prefer = None;
                        }
                    }
                }
            }
            3 => {
                // Join window: id:prefer first heard in round 3 of phase 1.
                let prefer = |m: &'a ParMsg<I, V>| match m {
                    ParMsg::Prefer(id, v) => Some((id, Some(v.as_ref()))),
                    ParMsg::NoPreference(id) => Some((id, None)),
                    _ => None,
                };
                let winners = self.tally_slot(&tick, prefer, |inst, _| {
                    own_or_bottom(&inst.sent_prefer, phase)
                });
                for ((id, inst), winner) in self.instances.iter_mut().zip(winners) {
                    if let Some((v, _)) = winner.as_ref().filter(|(_, c)| meets_third(*c, n)) {
                        inst.x = v.clone();
                    }
                    match winner.filter(|(_, c)| meets_two_thirds(*c, n)) {
                        Some((v, _)) => {
                            out.push(ParMsg::StrongPrefer(id.clone(), v.clone()));
                            inst.sent_strong = Some(v);
                        }
                        None => {
                            out.push(ParMsg::NoStrongPreference(id.clone()));
                            inst.sent_strong = None;
                        }
                    }
                }
            }
            4 => {
                // Strongprefers physically arrive now; evaluated in round 5.
                // Join window: id:strongprefer "first heard during the fifth
                // round" — the message physically arrives now and is
                // evaluated (and the join takes effect) in round 5.
                let strong = |m: &'a ParMsg<I, V>| match m {
                    ParMsg::StrongPrefer(id, v) => Some((id, Some(v.as_ref()))),
                    ParMsg::NoStrongPreference(id) => Some((id, None)),
                    _ => None,
                };
                let winners = self.tally_slot(&tick, strong, |inst, _| {
                    own_or_bottom(&inst.sent_strong, phase)
                });
                for (inst, winner) in self.instances.values_mut().zip(winners) {
                    inst.strongest = winner;
                }
                // One shared rotor step for all instances.
                if self.frame.rotor_step(n, out) {
                    for (id, inst) in &self.instances {
                        if !inst.joined_r5 {
                            out.push(ParMsg::Opinion(id.clone(), inst.x.clone()));
                        }
                    }
                }
            }
            5 => {
                let (frame, finished) = (&self.frame, &mut self.finished);
                self.instances.retain(|id, inst| {
                    let strongest = inst.strongest.take();
                    if !strongest.as_ref().is_some_and(|(_, c)| meets_third(*c, n)) {
                        if let Some(c) = frame.coordinator_opinion(&tick.inbox, |m| match m {
                            ParMsg::Opinion(i, v) if i == id => Some(v),
                            _ => None,
                        }) {
                            inst.x = c.clone();
                        }
                    }
                    match strongest.filter(|(_, c)| meets_two_thirds(*c, n)) {
                        Some((v, _)) => {
                            finished.insert(id.clone(), v);
                            false
                        }
                        None => true,
                    }
                });
                // No identifier can be joined after phase 1, so once every
                // instance has terminated the output set is final.
                if self.instances.is_empty() && self.done.is_none() {
                    self.done = Some(
                        self.finished
                            .iter()
                            .filter_map(|(id, v)| v.clone().map(|x| (id.clone(), x)))
                            .collect(),
                    );
                }
            }
            _ => unreachable!("phase rounds are 1..=5"),
        }
    }
}

/// The standalone parallel-consensus process (Algorithm 5 over the engine).
///
/// # Examples
///
/// ```
/// use uba_core::parallel::ParallelConsensus;
/// use uba_sim::{sparse_ids, SyncEngine};
///
/// // Two instances input at every node decide with their unanimous values.
/// let ids = sparse_ids(4, 6);
/// let mut engine = SyncEngine::builder()
///     .correct_many(ids.iter().map(|&id| {
///         ParallelConsensus::new(id, [("alpha", 1u64), ("beta", 2u64)])
///     }))
///     .build();
/// let done = engine.run_to_completion(12)?;
/// for out in done.outputs.values() {
///     assert_eq!(out.get("alpha"), Some(&1));
///     assert_eq!(out.get("beta"), Some(&2));
/// }
/// # Ok::<(), uba_sim::EngineError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ParallelConsensus<I, V> {
    core: ParallelConsensusCore<I, V>,
}

impl<I: Value, V: Value> ParallelConsensus<I, V> {
    /// Creates a node with its set of input pairs (possibly empty).
    pub fn new<P: IntoIterator<Item = (I, V)>>(me: NodeId, inputs: P) -> Self {
        ParallelConsensus {
            core: ParallelConsensusCore::new(me, inputs),
        }
    }

    /// Access to the underlying core (inspection in tests and experiments).
    pub fn core(&self) -> &ParallelConsensusCore<I, V> {
        &self.core
    }
}

impl<I: Value, V: Value> Process for ParallelConsensus<I, V> {
    type Msg = ParMsg<I, V>;
    type Output = BTreeMap<I, V>;

    fn id(&self) -> NodeId {
        self.core.frame.me()
    }

    fn on_round(&mut self, ctx: &mut Context<'_, ParMsg<I, V>>) {
        let mut out = Vec::new();
        let inbox = ctx.inbox().iter().map(|e| (e.from, e.msg()));
        self.core.step(ctx.round(), inbox, &mut out);
        for msg in out {
            ctx.broadcast(msg);
        }
    }

    fn output(&self) -> Option<BTreeMap<I, V>> {
        self.core.done.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_sim::{sparse_ids, SyncEngine};

    fn run(
        node_inputs: Vec<Vec<(&'static str, u64)>>,
        seed: u64,
    ) -> BTreeMap<NodeId, BTreeMap<&'static str, u64>> {
        let ids = sparse_ids(node_inputs.len(), seed);
        let mut engine = SyncEngine::builder()
            .correct_many(
                ids.iter()
                    .zip(node_inputs)
                    .map(|(&id, inputs)| ParallelConsensus::new(id, inputs)),
            )
            .build();
        engine
            .run_to_completion(200)
            .expect("parallel consensus terminates")
            .outputs
    }

    #[test]
    fn unanimous_instances_are_output_by_all() {
        let inputs = vec![vec![("a", 1), ("b", 2)]; 4];
        let outputs = run(inputs, 11);
        for out in outputs.values() {
            assert_eq!(out.get("a"), Some(&1));
            assert_eq!(out.get("b"), Some(&2));
        }
    }

    #[test]
    fn no_inputs_terminates_with_empty_output() {
        let outputs = run(vec![vec![]; 3], 5);
        for out in outputs.values() {
            assert!(out.is_empty());
        }
    }

    #[test]
    fn instance_known_to_one_node_reaches_agreement() {
        // Only node 0 has the pair ("solo", 9): the others join on hearing
        // id:input. Outputs must agree (they may all output the pair or all
        // drop it; with all-correct nodes it is in fact decided).
        let mut inputs = vec![vec![]; 5];
        inputs[0] = vec![("solo", 9u64)];
        let outputs = run(inputs, 23);
        let distinct: BTreeSet<_> = outputs.values().cloned().collect();
        assert_eq!(distinct.len(), 1, "agreement on the output set");
    }

    #[test]
    fn conflicting_inputs_agree_on_one_value() {
        // Same id, different values at different nodes.
        let inputs = vec![
            vec![("k", 1u64)],
            vec![("k", 2u64)],
            vec![("k", 1u64)],
            vec![("k", 2u64)],
        ];
        let outputs = run(inputs, 31);
        let distinct: BTreeSet<_> = outputs.values().cloned().collect();
        assert_eq!(distinct.len(), 1, "agreement");
        let out = distinct.into_iter().next().unwrap();
        if let Some(v) = out.get("k") {
            assert!([1, 2].contains(v), "validity-compatible value");
        }
    }

    #[test]
    fn mixed_known_and_unknown_instances() {
        let inputs = vec![
            vec![("x", 1u64), ("y", 7)],
            vec![("x", 1u64)],
            vec![("x", 1u64), ("y", 7)],
            vec![("x", 1u64), ("y", 7)],
            vec![("x", 1u64)],
        ];
        let outputs = run(inputs, 41);
        let distinct: BTreeSet<_> = outputs.values().cloned().collect();
        assert_eq!(distinct.len(), 1, "agreement");
        let out = distinct.into_iter().next().unwrap();
        assert_eq!(out.get("x"), Some(&1), "validity for the unanimous pair");
    }

    #[test]
    fn fake_instance_injected_by_adversary_is_never_output() {
        use uba_sim::{AdversaryOutbox, AdversaryView, FnAdversary, NodeId};
        type M = ParMsg<&'static str, u64>;
        let ids = sparse_ids(4, 2);
        let target = ids[0];
        let byz = NodeId::new(7);
        // The adversary announces itself during initialization, then feeds a
        // fake instance to a single correct node in phase 1 round 1.
        let adv = FnAdversary::new(
            move |view: &AdversaryView<'_, M>, out: &mut AdversaryOutbox<M>| match view.round {
                1 => out.broadcast(byz, ParMsg::RotorInit),
                3 => out.send(byz, target, ParMsg::Input("fake", 666)),
                _ => {}
            },
        );
        let mut engine = SyncEngine::builder()
            .correct_many(
                ids.iter()
                    .map(|&id| ParallelConsensus::new(id, [("real", 5u64)])),
            )
            .faulty(byz)
            .adversary(adv)
            .build();
        let done = engine.run_to_completion(200).expect("terminates");
        for out in done.outputs.values() {
            assert_eq!(out.get("real"), Some(&5));
            assert!(!out.contains_key("fake"), "fake instance must be dropped");
        }
    }
}
