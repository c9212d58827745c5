//! The synchronous round engine for the *id-only* model.
//!
//! Executes the paper's computation model exactly: in each round every
//! present, non-terminated correct node receives the messages sent to it in
//! the previous round, computes, and queues messages for the next round
//! (one [`Stepper::step`] each). A full-information **rushing** adversary
//! then sees the correct nodes' round-`r` messages and queues the faulty
//! nodes' round-`r` messages before anything is delivered. Duplicate
//! `(sender, payload)` pairs addressed to the same recipient within one
//! round are discarded, as the model demands; the engine decides that once
//! per *send* from one round-wide `(sender, payload)` map, not once per
//! envelope.
//!
//! On top of the Byzantine adversary the engine injects benign faults from a
//! [`FaultPlan`] (crash-stop, crash-recovery, omission, lossy links) and
//! checks a [`RoundMonitor`] after every round; see those types for the
//! exact semantics.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use uba_trace::{Laps, NodeSnapshot, NoopTracer, SharedRuntimeMetrics, TraceEvent, Tracer};

use crate::adversary::{Adversary, AdversaryOutbox, AdversaryView, NoAdversary};
use crate::churn::{ChurnAction, ChurnSchedule};
use crate::faults::{Fault, FaultPlan};
use crate::id::NodeId;
use crate::message::{Dest, Envelope, MsgRef, Outgoing, Segment};
use crate::monitor::{MonitorView, RoundMonitor, ViolationReport};
use crate::process::{Process, Stepper};
use crate::stats::Stats;

/// The `(sender, message)` pairs queued in one round, in send order.
type Traffic<M> = Vec<(NodeId, Outgoing<M>)>;

/// A hasher for keys that are already hashes or ids: the dedup key
/// `(sender, memoized payload hash)` and the acquaintance index. One
/// multiply-xor per word, and a rotation at the end so the table's bucket
/// bits come from the product's well-mixed high half.
#[derive(Default)]
struct MixHasher(u64);

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A map keyed through [`MixHasher`].
type MixMap<K, V> = HashMap<K, V, BuildHasherDefault<MixHasher>>;

/// Whether bit `bit` of a bit row is set (bits past its end are clear).
fn has_bit(row: &[u64], bit: usize) -> bool {
    row.get(bit / 64)
        .is_some_and(|word| word >> (bit % 64) & 1 == 1)
}

/// Sets bit `bit` of a bit row, growing it as needed.
fn set_bit(row: &mut Vec<u64>, bit: usize) {
    let word = bit / 64;
    if row.len() <= word {
        row.resize(word + 1, 0);
    }
    row[word] |= 1 << (bit % 64);
}

/// Which recipients one `(sender, payload)` pair has reached this round.
///
/// A fault on a link holds for the whole round, so a recipient a broadcast
/// could not reach is one no later send on that link can reach either:
/// "seen by the round" and "seen by the recipient" differ only through
/// point-to-point sends, which is what [`Reach::Only`] records.
enum Reach {
    /// Nobody yet.
    Nobody,
    /// Only point-to-point sends, to the recipients whose slot bits are set
    /// in the [`SlotSets`] set starting at this word.
    Only(usize),
    /// The pair was broadcast: every recipient the sender can reach has it.
    Everyone,
}

/// One entry of the round's dedup map: the pair's payload, wrapped at its
/// first send and shared by every envelope of the pair, and its reach.
struct Sent<M> {
    msg: MsgRef<M>,
    reach: Reach,
}

/// The round-wide `(sender, payload)` dedup map, looked up once per send.
struct Seen<M> {
    /// Keyed by the sender and the payload's memoized hash: the first
    /// payload sent with that hash.
    by_hash: MixMap<(NodeId, u64), Sent<M>>,
    /// A different payload whose sender already sent one with its hash,
    /// keyed by value.
    collided: HashMap<(NodeId, MsgRef<M>), Sent<M>>,
}

impl<M: Eq + Hash> Seen<M> {
    fn new() -> Self {
        Seen {
            by_hash: MixMap::default(),
            collided: HashMap::new(),
        }
    }

    /// Forgets the round's pairs, keeping the tables' capacity.
    fn clear(&mut self) {
        self.by_hash.clear();
        self.collided.clear();
    }

    /// The entry of the pair `(from, msg)`: hashes `msg` once, and wraps it
    /// only if the pair is new this round (equality is still by value).
    fn entry(&mut self, from: NodeId, msg: M) -> &mut Sent<M> {
        let hash = MsgRef::hash_of(&msg);
        let fresh = |msg| Sent {
            msg,
            reach: Reach::Nobody,
        };
        match self.by_hash.entry((from, hash)) {
            Entry::Vacant(vacant) => vacant.insert(fresh(MsgRef::with_hash(msg, hash))),
            Entry::Occupied(first) if *first.get().msg == msg => first.into_mut(),
            Entry::Occupied(_) => {
                let msg = MsgRef::with_hash(msg, hash);
                let key = (from, MsgRef::clone(&msg));
                self.collided.entry(key).or_insert_with(|| fresh(msg))
            }
        }
    }
}

/// The round's [`Reach::Only`] sets: one bit per recipient slot, `words`
/// words per set, all in one buffer.
struct SlotSets {
    words: usize,
    bits: Vec<u64>,
}

impl SlotSets {
    fn new(recipients: usize) -> Self {
        SlotSets {
            words: recipients.div_ceil(64),
            bits: Vec::new(),
        }
    }

    /// Whether the pair with `reach` is fresh at `slot`. A point-to-point
    /// send also records the slot as reached; a broadcast leaves that to
    /// its caller, which marks the pair [`Reach::Everyone`] afterwards.
    fn is_fresh(&mut self, reach: &mut Reach, slot: usize, broadcast: bool) -> bool {
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        match *reach {
            Reach::Everyone => false,
            Reach::Only(at) if broadcast => self.bits[at + word] & bit == 0,
            Reach::Only(at) => {
                let reached = &mut self.bits[at + word];
                let fresh = *reached & bit == 0;
                *reached |= bit;
                fresh
            }
            Reach::Nobody => {
                if !broadcast {
                    let at = self.bits.len();
                    self.bits.resize(at + self.words, 0);
                    self.bits[at + word] = bit;
                    *reach = Reach::Only(at);
                }
                true
            }
        }
    }
}

/// Who each node has received a message from: one bit row per node over
/// one engine-wide index of ids, which numbers a node's row and its column
/// alike.
#[derive(Default)]
struct Acquaintance {
    /// Id -> index, assigned at first sight and never reused, so a column
    /// keeps meaning one id after that node leaves.
    index: MixMap<NodeId, usize>,
    /// Index -> id.
    ids: Vec<NodeId>,
    /// Index -> the columns of the nodes it has heard from.
    rows: Vec<Vec<u64>>,
}

impl Acquaintance {
    /// The index of `id`, assigned if it is new.
    fn index(&mut self, id: NodeId) -> usize {
        *self.index.entry(id).or_insert_with(|| {
            self.ids.push(id);
            self.rows.push(Vec::new());
            self.ids.len() - 1
        })
    }

    /// Whether `node` has heard from `peer`.
    fn knows(&self, node: NodeId, peer: NodeId) -> bool {
        match (self.index.get(&node), self.index.get(&peer)) {
            (Some(&row), Some(&column)) => has_bit(&self.rows[row], column),
            _ => false,
        }
    }

    /// Row `row` has heard from the node with index `column`.
    fn hear(&mut self, row: usize, column: usize) {
        set_bit(&mut self.rows[row], column);
    }

    /// Row `row` has heard from every node whose column is set in `mask`.
    fn hear_all(&mut self, row: usize, mask: &[u64]) {
        let row = &mut self.rows[row];
        if row.len() < mask.len() {
            row.resize(mask.len(), 0);
        }
        for (word, bits) in row.iter_mut().zip(mask) {
            *word |= bits;
        }
    }

    /// Clears `id`'s row: a later join under the same id is a new
    /// incarnation that has heard from nobody.
    fn forget(&mut self, id: NodeId) {
        if let Some(&row) = self.index.get(&id) {
            self.rows[row].clear();
        }
    }

    /// The relation as sets, for every node that has heard from anyone.
    fn to_map(&self) -> BTreeMap<NodeId, BTreeSet<NodeId>> {
        let heard = |row: &Vec<u64>| {
            let words = row.iter().enumerate();
            let columns = words.flat_map(|(word, &bits)| {
                let set = (0..64).filter(move |bit| bits >> bit & 1 == 1);
                set.map(move |bit| word * 64 + bit)
            });
            columns
                .map(|column| self.ids[column])
                .collect::<BTreeSet<_>>()
        };
        let rows = self.ids.iter().zip(&self.rows);
        rows.map(|(&id, row)| (id, heard(row)))
            .filter(|(_, heard)| !heard.is_empty())
            .collect()
    }
}

/// The transient omission faults of one round (see [`FaultPlan`]).
#[derive(Default)]
struct Omissions {
    /// Senders whose whole outbound traffic is lost.
    silenced: BTreeSet<NodeId>,
    /// Recipients whose whole inbound traffic is lost.
    deafened: BTreeSet<NodeId>,
    /// Directed `(from, to)` links that lose everything.
    dead_links: HashSet<(NodeId, NodeId)>,
}

impl Omissions {
    /// Whether any recipient-side fault is active; if not, delivery skips
    /// the per-envelope [`loses`](Self::loses) check wholesale.
    fn filters_recipients(&self) -> bool {
        !(self.deafened.is_empty() && self.dead_links.is_empty())
    }

    /// Whether a message on the `from -> to` link is lost in transit.
    fn loses(&self, from: NodeId, to: NodeId) -> bool {
        self.deafened.contains(&to) || self.dead_links.contains(&(from, to))
    }
}

/// The observe hook: projects a process onto the trace vocabulary's
/// [`NodeSnapshot`]. Installed via [`EngineBuilder::observe`]; the engine
/// diffs consecutive snapshots per node and emits a
/// [`TraceEvent::NodeState`] only on change.
pub type ObserveFn<P> = Box<dyn Fn(&P) -> NodeSnapshot>;

/// Hands every recipient one share of the open run of broadcasts, if any.
fn close_run<M>(run: &mut Vec<Envelope<M>>, inboxes: &mut [Vec<Segment<M>>]) {
    if run.is_empty() {
        return;
    }
    let shared: Arc<[Envelope<M>]> = run.drain(..).collect();
    for inbox in inboxes {
        inbox.push(Segment::Shared(Arc::clone(&shared)));
    }
}

/// Appends an envelope only this recipient gets to its inbox.
fn push_own<M>(inbox: &mut Vec<Segment<M>>, envelope: Envelope<M>) {
    match inbox.last_mut() {
        Some(Segment::Own(own)) => own.push(envelope),
        _ => inbox.push(Segment::Own(vec![envelope])),
    }
}

/// The trace rendering of one fault-plan event.
fn fault_to_trace(round: u64, fault: &Fault) -> TraceEvent {
    let (kind, node, peer) = match *fault {
        Fault::Crash(node) => ("crash", node, None),
        Fault::Recover(node) => ("recover", node, None),
        Fault::SilenceSend(node) => ("silence-send", node, None),
        Fault::DropInbound(node) => ("drop-inbound", node, None),
        Fault::DropLink { from, to } => ("drop-link", from, Some(to.raw())),
    };
    TraceEvent::Fault {
        round,
        kind,
        node: node.raw(),
        peer,
    }
}

/// Why the engine aborted a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The round budget ran out before every correct node produced an output.
    MaxRoundsExceeded {
        /// Round at which the run was abandoned.
        round: u64,
        /// Correct nodes that had not yet produced an output.
        undecided: Vec<NodeId>,
    },
    /// A node scheduled to compute was not found in the engine's tables
    /// (an internal invariant of the engine itself, not of any protocol).
    MissingNode {
        /// Round in which the lookup failed.
        round: u64,
        /// The id that was scheduled but absent.
        node: NodeId,
    },
    /// The adversary sent on behalf of a node that is crash-faulted by the
    /// fault plan; a crashed node must stay silent even if Byzantine.
    FaultedNodeActed {
        /// Round of the offending send.
        round: u64,
        /// The crashed node the adversary tried to drive.
        node: NodeId,
    },
    /// A correct node sent point-to-point to a node it has never received a
    /// message from, violating the model's acquaintance restriction.
    AcquaintanceViolation {
        /// Round of the offending send.
        round: u64,
        /// The sender.
        from: NodeId,
        /// The unacquainted destination.
        to: NodeId,
    },
    /// An installed [`RoundMonitor`] observed a property violation; the
    /// report carries the first offending round.
    InvariantViolated(ViolationReport),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::MaxRoundsExceeded { round, undecided } => write!(
                f,
                "round budget exhausted at round {round} with {} undecided node(s)",
                undecided.len()
            ),
            EngineError::MissingNode { round, node } => write!(
                f,
                "internal engine error: node {node} scheduled in round {round} is absent"
            ),
            EngineError::FaultedNodeActed { round, node } => write!(
                f,
                "adversary drove crash-faulted node {node} in round {round}"
            ),
            EngineError::AcquaintanceViolation { round, from, to } => write!(
                f,
                "protocol violation: {from} sent point-to-point to {to} \
                 without having received a message from it (round {round})"
            ),
            EngineError::InvariantViolated(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ViolationReport> for EngineError {
    fn from(report: ViolationReport) -> Self {
        EngineError::InvariantViolated(report)
    }
}

/// Result of a completed run: every correct node terminated with an output.
#[derive(Debug, Clone)]
pub struct Completion<O> {
    /// Output of each correct node, keyed by id.
    pub outputs: BTreeMap<NodeId, O>,
    /// Round in which each correct node terminated.
    pub decided_round: BTreeMap<NodeId, u64>,
    /// Statistics of the run.
    pub stats: Stats,
}

impl<O> Completion<O> {
    /// Latest round in which any correct node terminated (0 if none ran).
    pub fn last_decided_round(&self) -> u64 {
        self.decided_round.values().copied().max().unwrap_or(0)
    }
}

/// Builds a [`SyncEngine`].
///
/// # Examples
///
/// ```
/// use uba_sim::{testutil::Idle, NodeId, SyncEngine};
///
/// let engine = SyncEngine::builder()
///     .correct(Idle::new(NodeId::new(1)))
///     .faulty(NodeId::new(999))
///     .build();
/// assert_eq!(engine.correct_ids().len(), 1);
/// ```
pub struct EngineBuilder<P: Process, A> {
    correct: Vec<P>,
    faulty: Vec<NodeId>,
    adversary: A,
    enforce_acquaintance: bool,
    churn: ChurnSchedule<P>,
    faults: FaultPlan,
    monitor: Option<Box<dyn RoundMonitor<P>>>,
    tracer: Box<dyn Tracer>,
    observe: Option<ObserveFn<P>>,
    runtime: Option<SharedRuntimeMetrics>,
}

impl<P: Process> EngineBuilder<P, NoAdversary> {
    fn new() -> Self {
        EngineBuilder {
            correct: Vec::new(),
            faulty: Vec::new(),
            adversary: NoAdversary,
            enforce_acquaintance: true,
            churn: ChurnSchedule::new(),
            faults: FaultPlan::new(),
            monitor: None,
            tracer: Box::new(NoopTracer),
            observe: None,
            runtime: None,
        }
    }
}

impl<P: Process, A: Adversary<P::Msg>> EngineBuilder<P, A> {
    /// Adds one correct node.
    pub fn correct(mut self, process: P) -> Self {
        self.correct.push(process);
        self
    }

    /// Adds many correct nodes.
    pub fn correct_many<I: IntoIterator<Item = P>>(mut self, processes: I) -> Self {
        self.correct.extend(processes);
        self
    }

    /// Registers a faulty (adversary-controlled) node id.
    pub fn faulty(mut self, id: NodeId) -> Self {
        self.faulty.push(id);
        self
    }

    /// Registers many faulty node ids.
    pub fn faulty_many<I: IntoIterator<Item = NodeId>>(mut self, ids: I) -> Self {
        self.faulty.extend(ids);
        self
    }

    /// Installs the adversary strategy (default: [`NoAdversary`]).
    pub fn adversary<A2: Adversary<P::Msg>>(self, adversary: A2) -> EngineBuilder<P, A2> {
        EngineBuilder {
            correct: self.correct,
            faulty: self.faulty,
            adversary,
            enforce_acquaintance: self.enforce_acquaintance,
            churn: self.churn,
            faults: self.faults,
            monitor: self.monitor,
            tracer: self.tracer,
            observe: self.observe,
            runtime: self.runtime,
        }
    }

    /// Whether to enforce that point-to-point sends only target nodes the
    /// sender has already heard from (the model's restriction). Default on.
    pub fn enforce_acquaintance(mut self, on: bool) -> Self {
        self.enforce_acquaintance = on;
        self
    }

    /// Installs a churn schedule for dynamic-membership runs.
    pub fn churn(mut self, churn: ChurnSchedule<P>) -> Self {
        self.churn = churn;
        self
    }

    /// Installs a deterministic fault plan (default: empty, no injected
    /// faults). Faults compose with the adversary and the churn schedule;
    /// see [`FaultPlan`] for the exact semantics.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Installs an online invariant monitor, checked at the end of every
    /// round. A violation aborts the run with
    /// [`EngineError::InvariantViolated`].
    pub fn monitor<M: RoundMonitor<P> + 'static>(mut self, monitor: M) -> Self {
        self.monitor = Some(Box::new(monitor));
        self
    }

    /// Installs a structured event tracer (default: [`NoopTracer`], which
    /// costs nothing on the hot path). The engine emits a [`TraceEvent`]
    /// for every round boundary, send, delivery, duplicate drop, adversary
    /// step, churn action, injected fault, and monitor violation; with an
    /// [`observe`](Self::observe) hook also for node state transitions.
    ///
    /// Pass a [`SharedTracer`](uba_trace::SharedTracer) clone to keep access
    /// to the collected events after the engine takes ownership.
    pub fn tracer<T: Tracer + 'static>(mut self, tracer: T) -> Self {
        self.tracer = Box::new(tracer);
        self
    }

    /// Attaches a wall-clock runtime-metrics registry (default: none —
    /// zero cost on the hot path). The engine then records per-round and
    /// per-phase wall-clock timings plus envelope/dedup counters into the
    /// `sim_*` families; keep a clone of the handle to read them after (or
    /// during, from another thread) the run.
    ///
    /// Strictly separate from [`tracer`](Self::tracer): the registry never
    /// feeds the deterministic event stream, so attaching it cannot perturb
    /// a golden trace (DESIGN.md §10).
    pub fn runtime_metrics(mut self, registry: SharedRuntimeMetrics) -> Self {
        self.runtime = Some(registry);
        self
    }

    /// Installs the observe hook projecting each correct process onto a
    /// [`NodeSnapshot`]. At the end of every round the engine snapshots
    /// every present correct node and emits a [`TraceEvent::NodeState`]
    /// for those whose snapshot changed. No-op without a tracer.
    pub fn observe<F: Fn(&P) -> NodeSnapshot + 'static>(mut self, observe: F) -> Self {
        self.observe = Some(Box::new(observe));
        self
    }

    /// Builds the engine.
    ///
    /// # Panics
    ///
    /// Panics if two nodes (correct or faulty) share an identifier.
    pub fn build(self) -> SyncEngine<P, A> {
        let mut engine = SyncEngine {
            correct: BTreeMap::new(),
            departed: BTreeMap::new(),
            faulty: BTreeSet::new(),
            crashed: BTreeSet::new(),
            adversary: self.adversary,
            inboxes: BTreeMap::new(),
            acquaintance: Acquaintance::default(),
            seen: Seen::new(),
            round: 0,
            stats: Stats::new(),
            churn: self.churn,
            faults: self.faults,
            monitor: self.monitor,
            enforce_acquaintance: self.enforce_acquaintance,
            tracer: self.tracer,
            observe: self.observe,
            runtime: self.runtime,
            last_snapshots: BTreeMap::new(),
        };
        for p in self.correct {
            engine.insert_correct(p);
        }
        for id in self.faulty {
            engine.insert_faulty(id);
        }
        engine
    }
}

/// The synchronous round engine.
///
/// Drives a set of correct [`Process`]es and one [`Adversary`] controlling
/// the faulty nodes, optionally under a [`FaultPlan`] of injected benign
/// faults and a [`RoundMonitor`] of online invariants. The exact round
/// semantics (delivery, rushing, dedup) are described in the
/// [`uba_sim`](crate) crate docs.
pub struct SyncEngine<P: Process, A> {
    correct: BTreeMap<NodeId, Stepper<P>>,
    /// Outputs of correct nodes that have left the system.
    departed: BTreeMap<NodeId, (u64, P::Output)>,
    faulty: BTreeSet<NodeId>,
    /// Nodes currently crash-faulted by the fault plan (correct or faulty).
    crashed: BTreeSet<NodeId>,
    adversary: A,
    /// Messages to be delivered at the start of the next round.
    inboxes: BTreeMap<NodeId, Vec<Segment<P::Msg>>>,
    /// For each node, the nodes it has received at least one message from
    /// (used to enforce the point-to-point acquaintance rule).
    acquaintance: Acquaintance,
    /// The round's dedup map: empty between rounds, kept for its capacity,
    /// so a round does not regrow it from nothing.
    seen: Seen<P::Msg>,
    round: u64,
    stats: Stats,
    churn: ChurnSchedule<P>,
    faults: FaultPlan,
    monitor: Option<Box<dyn RoundMonitor<P>>>,
    enforce_acquaintance: bool,
    tracer: Box<dyn Tracer>,
    observe: Option<ObserveFn<P>>,
    /// Wall-clock runtime registry (`sim_*` families), never part of the
    /// deterministic event stream.
    runtime: Option<SharedRuntimeMetrics>,
    /// Last emitted snapshot per node, for change-only `NodeState` events.
    last_snapshots: BTreeMap<NodeId, NodeSnapshot>,
}

impl<P: Process> SyncEngine<P, NoAdversary> {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder<P, NoAdversary> {
        EngineBuilder::new()
    }
}

impl<P: Process, A: Adversary<P::Msg>> SyncEngine<P, A> {
    fn insert_correct(&mut self, process: P) {
        let id = process.id();
        assert!(
            !self.correct.contains_key(&id) && !self.faulty.contains(&id),
            "duplicate node id {id}"
        );
        self.correct.insert(id, Stepper::new(process));
    }

    fn insert_faulty(&mut self, id: NodeId) {
        assert!(
            !self.correct.contains_key(&id) && !self.faulty.contains(&id),
            "duplicate node id {id}"
        );
        self.faulty.insert(id);
    }

    /// Number of completed rounds.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// All present correct node ids (terminated or not).
    pub fn correct_ids(&self) -> BTreeSet<NodeId> {
        self.correct.keys().copied().collect()
    }

    /// The acquaintance relation as observed so far: for each node, the set
    /// of nodes whose messages it has received (used to enforce the model's
    /// point-to-point restriction, and inspectable for equivalence tests).
    /// Nodes that have heard from nobody are absent. Built on each call
    /// from the engine's bit rows.
    pub fn acquaintance(&self) -> BTreeMap<NodeId, BTreeSet<NodeId>> {
        self.acquaintance.to_map()
    }

    /// Nodes currently crash-faulted by the fault plan.
    pub fn crashed_ids(&self) -> &BTreeSet<NodeId> {
        &self.crashed
    }

    /// Immutable access to a correct node's process (for inspection).
    pub fn process(&self, id: NodeId) -> Option<&P> {
        self.correct.get(&id).map(Stepper::process)
    }

    /// Mutable access to a correct node's process, for injecting work
    /// between rounds (e.g. live event submission into a long-lived
    /// ordering process). Mutating protocol state mid-run is on the caller:
    /// the engine only guarantees that the next `on_round` observes the
    /// mutation.
    pub fn process_mut(&mut self, id: NodeId) -> Option<&mut P> {
        self.correct.get_mut(&id).map(Stepper::process_mut)
    }

    /// Outputs produced so far (present and departed correct nodes).
    pub fn outputs(&self) -> BTreeMap<NodeId, P::Output> {
        let mut map: BTreeMap<NodeId, P::Output> = self
            .departed
            .iter()
            .map(|(id, (_, o))| (*id, o.clone()))
            .collect();
        for (id, node) in &self.correct {
            if let Some(o) = node.process().output() {
                map.insert(*id, o);
            }
        }
        map
    }

    /// Round in which each correct node terminated, for those that have.
    pub fn decided_rounds(&self) -> BTreeMap<NodeId, u64> {
        let mut map: BTreeMap<NodeId, u64> =
            self.departed.iter().map(|(id, (r, _))| (*id, *r)).collect();
        for (id, node) in &self.correct {
            if let Some(r) = node.decided_round() {
                map.insert(*id, r);
            }
        }
        map
    }

    /// The correct nodes that take part in a round, in id order: present,
    /// undecided and not crash-faulted. They compute, the adversary sees
    /// them, and — scanned again after the step, so a node that decided
    /// this round is out — they receive.
    fn live_undecided(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.correct
            .iter()
            .filter(|(id, n)| n.decided_round().is_none() && !self.crashed.contains(id))
            .map(|(id, _)| *id)
    }

    /// Whether every present, non-crashed correct node has terminated.
    fn live_correct_decided(&self) -> bool {
        self.correct
            .iter()
            .filter(|(id, _)| !self.crashed.contains(*id))
            .all(|(_, n)| n.decided_round().is_some())
    }

    fn apply_churn(&mut self, round: u64) {
        let traced = self.tracer.enabled();
        for action in self.churn.take_for_round(round) {
            match action {
                ChurnAction::JoinCorrect(p) => {
                    if traced {
                        self.tracer.record(TraceEvent::ChurnJoin {
                            round,
                            node: p.id().raw(),
                            faulty: false,
                        });
                    }
                    self.insert_correct(p);
                }
                ChurnAction::JoinFaulty(id) => {
                    if traced {
                        self.tracer.record(TraceEvent::ChurnJoin {
                            round,
                            node: id.raw(),
                            faulty: true,
                        });
                    }
                    self.insert_faulty(id);
                }
                ChurnAction::Leave(id) => {
                    if traced {
                        self.tracer.record(TraceEvent::ChurnLeave {
                            round,
                            node: id.raw(),
                        });
                    }
                    if let Some(node) = self.correct.remove(&id) {
                        if let (Some(r), Some(o)) = (node.decided_round(), node.process().output())
                        {
                            self.departed.insert(id, (r, o));
                        }
                    }
                    self.faulty.remove(&id);
                    self.crashed.remove(&id);
                    self.inboxes.remove(&id);
                    self.acquaintance.forget(id);
                    self.last_snapshots.remove(&id);
                }
            }
        }
    }

    /// Applies the fault plan's events for `round` and returns the round's
    /// transient omission faults.
    fn apply_faults(&mut self, round: u64) -> Omissions {
        let traced = self.tracer.enabled();
        let mut omissions = Omissions::default();
        for fault in self.faults.for_round(round).to_vec() {
            if traced {
                self.tracer.record(fault_to_trace(round, &fault));
            }
            match fault {
                Fault::Crash(node) => {
                    self.crashed.insert(node);
                    // Messages addressed to a node crashing this round are
                    // lost, exactly as if the node's machine went down with
                    // its queue.
                    self.inboxes.remove(&node);
                }
                Fault::Recover(node) => {
                    self.crashed.remove(&node);
                }
                Fault::SilenceSend(node) => {
                    omissions.silenced.insert(node);
                }
                Fault::DropInbound(node) => {
                    omissions.deafened.insert(node);
                }
                Fault::DropLink { from, to } => {
                    omissions.dead_links.insert((from, to));
                }
            }
        }
        omissions
    }

    /// Step 3 of a round: turns the round's traffic (correct nodes' first,
    /// then the adversary's, each in send order) into the next round's
    /// inboxes and returns the number of duplicates dropped.
    ///
    /// Everything that is a property of the *send* is decided once per
    /// send: the send-omission fault, the payload hash and the
    /// `(sender, payload)` dedup lookup in `self.seen`, which is emptied
    /// after the round and keeps its capacity. A payload is wrapped in a
    /// [`MsgRef`] once per distinct pair and round, and every envelope of
    /// the pair shares it. The senders of broadcasts in a round without
    /// recipient-side faults are one bit mask, OR'ed into each recipient's
    /// acquaintance row after the traffic.
    ///
    /// A broadcast that is fresh at every recipient of a round without
    /// recipient-side faults is stored once: it appends one envelope to the
    /// open shared run. Any other send first closes the run — every
    /// recipient gets one share of it — and is then pushed into each
    /// recipient's own segment. Per recipient that is still send order,
    /// and every envelope the per-recipient rule delivers.
    fn deliver(
        &mut self,
        round: u64,
        traffic: [Traffic<P::Msg>; 2],
        omissions: &Omissions,
        present_faulty: &BTreeSet<NodeId>,
        traced: bool,
    ) -> u64 {
        // Recipients get dense slots: the live correct nodes — scanned after
        // the step, so a node that decided this round no longer receives —
        // then the present faulty ones. Crashed nodes are in neither run.
        let recipients: Vec<NodeId> = self
            .live_undecided()
            .chain(present_faulty.iter().copied())
            .collect();
        let (live_correct, live_faulty) =
            recipients.split_at(recipients.len() - present_faulty.len());
        let slot_of = |to: NodeId| {
            let in_correct = live_correct.binary_search(&to).ok();
            in_correct.or_else(|| Some(live_correct.len() + live_faulty.binary_search(&to).ok()?))
        };
        let rows: Vec<usize> = recipients
            .iter()
            .map(|&to| self.acquaintance.index(to))
            .collect();
        let mut inboxes: Vec<Vec<Segment<P::Msg>>> =
            recipients.iter().map(|_| Vec::new()).collect();
        // The open run of broadcasts every recipient gets.
        let mut run: Vec<Envelope<P::Msg>> = Vec::new();
        let filtered = omissions.filters_recipients();
        let mut reached = SlotSets::new(recipients.len());
        // The columns of senders that broadcast in a round without
        // recipient-side faults: every recipient got an envelope from them
        // (a duplicate means the same pair got there earlier), so the mask
        // joins every row at the end.
        let mut heard_by_everyone: Vec<u64> = Vec::new();
        let mut duplicate_drops = 0u64;
        // A process's sends, and the adversary's per faulty node, come one
        // sender after another: its column is looked up once per run.
        let mut sender: Option<(NodeId, usize)> = None;

        for (sends, from_adversary) in traffic.into_iter().zip([false, true]) {
            for (from, Outgoing { dest, msg }) in sends {
                if omissions.silenced.contains(&from) {
                    continue; // send omission: everything from this node is lost
                }
                let broadcast = dest == Dest::Broadcast;
                let targets = match dest {
                    Dest::Broadcast => 0..recipients.len(),
                    Dest::To(to) => match slot_of(to) {
                        Some(slot) => slot..slot + 1,
                        None => continue, // decided, crashed or absent: nobody to deliver to
                    },
                };
                let sent = self.seen.entry(from, msg);
                let column = match sender {
                    Some((id, column)) if id == from => column,
                    _ => sender.insert((from, self.acquaintance.index(from))).1,
                };
                let mut delivered = 0u64;
                if broadcast && matches!(sent.reach, Reach::Nobody) && !filtered {
                    if traced {
                        for &to in &recipients {
                            self.tracer.record(TraceEvent::deliver(
                                round,
                                from.raw(),
                                to.raw(),
                                &sent.msg,
                                from_adversary,
                            ));
                        }
                    }
                    delivered = recipients.len() as u64;
                    run.push(Envelope::from_shared(from, MsgRef::clone(&sent.msg)));
                } else {
                    close_run(&mut run, &mut inboxes);
                    for slot in targets {
                        let to = recipients[slot];
                        if filtered && omissions.loses(from, to) {
                            continue; // omission fault: lost in transit
                        }
                        // A pair that was broadcast is a duplicate everywhere;
                        // one only sent point-to-point, at exactly those
                        // recipients.
                        if !reached.is_fresh(&mut sent.reach, slot, broadcast) {
                            duplicate_drops += 1;
                            if traced {
                                let (from, to) = (from.raw(), to.raw());
                                self.tracer
                                    .record(TraceEvent::duplicate_drop(round, from, to, &sent.msg));
                            }
                            continue;
                        }
                        if traced {
                            self.tracer.record(TraceEvent::deliver(
                                round,
                                from.raw(),
                                to.raw(),
                                &sent.msg,
                                from_adversary,
                            ));
                        }
                        if filtered || !broadcast {
                            self.acquaintance.hear(rows[slot], column);
                        }
                        push_own(
                            &mut inboxes[slot],
                            Envelope::from_shared(from, MsgRef::clone(&sent.msg)),
                        );
                        delivered += 1;
                    }
                }
                self.stats.record_deliveries(from_adversary, delivered);
                if broadcast {
                    sent.reach = Reach::Everyone;
                    if !filtered {
                        set_bit(&mut heard_by_everyone, column);
                    }
                }
            }
        }
        close_run(&mut run, &mut inboxes);
        self.seen.clear();
        if !heard_by_everyone.is_empty() {
            for &row in &rows {
                self.acquaintance.hear_all(row, &heard_by_everyone);
            }
        }
        self.inboxes = recipients
            .into_iter()
            .zip(inboxes)
            .filter(|(_, inbox)| !inbox.is_empty())
            .collect();
        duplicate_drops
    }

    /// Executes one synchronous round, panicking on any [`EngineError`].
    ///
    /// Prefer [`try_run_round`](Self::try_run_round) in code that wants to
    /// observe violations instead of crashing.
    pub fn run_round(&mut self) {
        if let Err(err) = self.try_run_round() {
            panic!("{err}");
        }
    }

    /// Executes one synchronous round.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::AcquaintanceViolation`] if a correct node
    /// breaks the point-to-point restriction (when enforcement is on),
    /// [`EngineError::FaultedNodeActed`] if the adversary sends on behalf of
    /// a crash-faulted node, and [`EngineError::InvariantViolated`] if the
    /// installed monitor observes a violation at the end of the round.
    pub fn try_run_round(&mut self) -> Result<(), EngineError> {
        let round = self.round + 1;
        self.apply_churn(round);
        let omissions = self.apply_faults(round);
        self.round = round;
        self.stats.begin_round();
        let traced = self.tracer.enabled();
        if traced {
            self.tracer.record(TraceEvent::RoundBegin { round });
        }
        // The lap chain exists only while a runtime registry is attached;
        // otherwise the hot path never reads the clock.
        let mut laps = self.runtime.as_ref().map(|_| Laps::start());

        let mut delivered = std::mem::take(&mut self.inboxes);

        // Step 1: correct nodes compute and queue messages (in id order —
        // deterministic, and irrelevant to semantics since delivery is
        // simultaneous). Crashed nodes neither compute nor send.
        let mut correct_traffic: Traffic<P::Msg> = Vec::new();
        let active: Vec<NodeId> = self.live_undecided().collect();
        for id in active {
            let inbox = delivered.remove(&id).unwrap_or_default();
            let node = self
                .correct
                .get_mut(&id)
                .ok_or(EngineError::MissingNode { round, node: id })?;
            let sends = node.step(round, inbox.as_slice());
            for out in sends {
                if self.enforce_acquaintance {
                    if let Dest::To(to) = out.dest {
                        if !self.acquaintance.knows(id, to) && to != id {
                            return Err(EngineError::AcquaintanceViolation {
                                round,
                                from: id,
                                to,
                            });
                        }
                    }
                }
                self.stats.record_send(false);
                if traced {
                    self.tracer.record(out.send_event(round, id, false));
                }
                correct_traffic.push((id, out));
            }
        }

        let step_micros = laps.as_mut().map_or(0, Laps::lap);

        // Step 2: the rushing adversary sees this round's correct traffic and
        // the faulty nodes' inboxes, then queues the faulty nodes' messages.
        // Crashed faulty nodes are hidden from the view and must stay silent.
        let present_faulty: BTreeSet<NodeId> = self
            .faulty
            .iter()
            .copied()
            .filter(|id| !self.crashed.contains(id))
            .collect();
        let mut adversary_traffic: Traffic<P::Msg> = Vec::new();
        if !self.faulty.is_empty() {
            let faulty_inboxes: BTreeMap<NodeId, Vec<Segment<P::Msg>>> = present_faulty
                .iter()
                .map(|id| (*id, delivered.remove(id).unwrap_or_default()))
                .collect();
            let correct_ids: BTreeSet<NodeId> = self.live_undecided().collect();
            let view = AdversaryView {
                round,
                correct: &correct_ids,
                faulty: &present_faulty,
                correct_traffic: &correct_traffic,
                faulty_inboxes: &faulty_inboxes,
            };
            let mut out = AdversaryOutbox::new(&self.faulty);
            self.adversary.act(&view, &mut out);
            for (from, item) in out.into_items() {
                if self.crashed.contains(&from) {
                    return Err(EngineError::FaultedNodeActed { round, node: from });
                }
                self.stats.record_send(true);
                if traced {
                    self.tracer.record(item.send_event(round, from, true));
                }
                adversary_traffic.push((from, item));
            }
            if traced {
                self.tracer.record(TraceEvent::Adversary {
                    round,
                    sends: adversary_traffic.len() as u64,
                });
            }
        }

        let adversary_micros = laps.as_mut().map_or(0, Laps::lap);

        // Step 3: delivery. The round's transient faults filter here — after
        // the adversary has committed, so attacks and faults compose.
        let duplicate_drops = self.deliver(
            round,
            [correct_traffic, adversary_traffic],
            &omissions,
            &present_faulty,
            traced,
        );
        let deliver_micros = laps.as_mut().map_or(0, Laps::lap);

        // Emit node-state transitions: one event per present correct node
        // whose observed snapshot changed this round (in id order).
        if traced {
            if let Some(observe) = &self.observe {
                for (&id, node) in &self.correct {
                    let snapshot = observe(node.process());
                    if self.last_snapshots.get(&id) != Some(&snapshot) {
                        self.tracer.record(TraceEvent::NodeState {
                            round,
                            node: id.raw(),
                            state: snapshot.clone(),
                        });
                        self.last_snapshots.insert(id, snapshot);
                    }
                }
            }
        }

        // Step 4: the online monitor sees the round's resulting state.
        if self.monitor.is_some() {
            let decided_rounds = self.decided_rounds();
            let processes: BTreeMap<NodeId, &P> = self
                .correct
                .iter()
                .map(|(&id, n)| (id, n.process()))
                .collect();
            let view = MonitorView {
                round,
                processes,
                decided_rounds,
                faulty: &self.faulty,
                crashed: &self.crashed,
            };
            if let Some(monitor) = self.monitor.as_mut() {
                if let Err(report) = monitor.check(&view) {
                    if traced {
                        self.tracer.record(report.verdict_event());
                    }
                    return Err(report.into());
                }
            }
        }
        if traced {
            let deliveries = self.stats.deliveries_by_round.last().copied().unwrap_or(0);
            self.tracer
                .record(TraceEvent::RoundEnd { round, deliveries });
        }
        if let Some(rt) = &self.runtime {
            let deliveries = self.stats.deliveries_by_round.last().copied().unwrap_or(0);
            let total = laps.map_or(0, |mut laps| {
                laps.lap();
                laps.total()
            });
            rt.with(|m| {
                m.inc("sim_rounds_total");
                m.observe_micros("sim_round_micros", total);
                m.observe_micros("sim_round_phase_micros{phase=\"step\"}", step_micros);
                m.observe_micros(
                    "sim_round_phase_micros{phase=\"adversary\"}",
                    adversary_micros,
                );
                m.observe_micros("sim_round_phase_micros{phase=\"deliver\"}", deliver_micros);
                m.add("sim_envelopes_delivered_total", deliveries);
                m.add("sim_duplicate_drops_total", duplicate_drops);
            });
        }
        Ok(())
    }

    /// Executes `count` rounds, panicking on any [`EngineError`].
    pub fn run_rounds(&mut self, count: u64) {
        for _ in 0..count {
            self.run_round();
        }
    }

    /// Runs until every present, non-crashed correct node has terminated
    /// (and no churn or recovery is still scheduled), or the budget runs
    /// out. Nodes left crashed by the fault plan are not waited for — their
    /// failure is the injected fault, not a protocol defect.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::MaxRoundsExceeded`] if some correct node has
    /// not terminated after `max_rounds` rounds, or any error surfaced by
    /// [`try_run_round`](Self::try_run_round).
    pub fn run_to_completion(
        &mut self,
        max_rounds: u64,
    ) -> Result<Completion<P::Output>, EngineError> {
        while !(self.live_correct_decided()
            && self.churn.is_empty()
            && !self.faults.has_pending_recover(self.round + 1))
        {
            if self.round >= max_rounds {
                return Err(EngineError::MaxRoundsExceeded {
                    round: self.round,
                    undecided: self
                        .correct
                        .iter()
                        .filter(|(_, n)| n.decided_round().is_none())
                        .map(|(id, _)| *id)
                        .collect(),
                });
            }
            self.try_run_round()?;
        }
        Ok(Completion {
            outputs: self.outputs(),
            decided_round: self.decided_rounds(),
            stats: self.stats.clone(),
        })
    }
}

impl<P: Process, A> fmt::Debug for SyncEngine<P, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SyncEngine")
            .field("round", &self.round)
            .field("correct", &self.correct.keys().collect::<Vec<_>>())
            .field("faulty", &self.faulty)
            .field("crashed", &self.crashed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::FnAdversary;
    use crate::process::Context;
    use crate::testutil::{CollectAll, Idle};
    use uba_trace::SharedRuntimeMetrics;

    fn ids(raw: &[u64]) -> Vec<NodeId> {
        raw.iter().map(|&r| NodeId::new(r)).collect()
    }

    /// Sends point-to-point to a node it has never heard from.
    struct Rude(NodeId);
    impl Process for Rude {
        type Msg = u8;
        type Output = ();
        fn id(&self) -> NodeId {
            self.0
        }
        fn on_round(&mut self, ctx: &mut Context<'_, u8>) {
            ctx.send(NodeId::new(999), 1); // never heard from 999
        }
        fn output(&self) -> Option<()> {
            None
        }
    }

    #[test]
    fn broadcast_is_delivered_to_all_including_self_next_round() {
        let nodes = ids(&[1, 5, 9]);
        let mut engine = SyncEngine::builder()
            .correct_many(nodes.iter().map(|&id| CollectAll::new(id, 2)))
            .build();
        let done = engine.run_to_completion(10).expect("completes");
        for (_, heard) in done.outputs {
            assert_eq!(heard.len(), 3, "every node hears all three broadcasts");
        }
    }

    /// The segments waiting for each recipient, as `S`hared run lengths
    /// and `O`wn envelope counts.
    fn shapes<P: Process, A: Adversary<P::Msg>>(engine: &SyncEngine<P, A>) -> Vec<String> {
        let shape = |segment: &Segment<P::Msg>| match segment {
            Segment::Shared(run) => format!("S{}", run.len()),
            Segment::Own(own) => format!("O{}", own.len()),
        };
        let inboxes = engine.inboxes.values();
        inboxes
            .map(|inbox| inbox.iter().map(shape).collect::<Vec<_>>().join(" "))
            .collect()
    }

    #[test]
    fn a_broadcast_is_stored_once_until_a_send_reaches_only_some() {
        let (one, two) = (NodeId::new(1), NodeId::new(2));
        let greeter = |id, greets| Greeter { id, greets };
        let mut faults = FaultPlan::new();
        faults.drop_link(2, one, two);
        let mut engine = SyncEngine::builder()
            .correct(greeter(one, Some(two)))
            .correct(greeter(two, None))
            .enforce_acquaintance(false)
            .faults(faults)
            .build();
        // Round 1: node 1 broadcasts and greets node 2, then node 2
        // broadcasts. The greeting closes the first run, so node 2's inbox
        // keeps send order across three segments.
        engine.run_round();
        assert_eq!(shapes(&engine), ["S1 S1", "S1 O1 S1"]);
        // Round 2 loses a link: every envelope goes to its own segment.
        engine.run_round();
        assert_eq!(shapes(&engine), ["O2", "O1"]);
        // Round 3: both broadcasts are one run in one allocation.
        engine.run_round();
        assert_eq!(shapes(&engine), ["S2", "S2"]);
        let runs: Vec<&Arc<[Envelope<u8>]>> = engine
            .inboxes
            .values()
            .filter_map(|inbox| match inbox.as_slice() {
                [Segment::Shared(run)] => Some(run),
                _ => None,
            })
            .collect();
        assert!(Arc::ptr_eq(runs[0], runs[1]), "stored once");
    }

    #[test]
    fn duplicate_payload_same_round_is_discarded() {
        // The adversary broadcasts the same payload twice in one round; the
        // recipient sees it once.
        let nodes = ids(&[1, 2, 3]);
        let adv = FnAdversary::new(
            |view: &AdversaryView<'_, u64>, out: &mut AdversaryOutbox<u64>| {
                if view.round == 1 {
                    for &b in view.faulty.iter() {
                        out.broadcast(b, 42);
                        out.broadcast(b, 42);
                        out.broadcast(b, 43);
                    }
                }
            },
        );
        let mut engine = SyncEngine::builder()
            .correct_many(nodes.iter().map(|&id| CollectAll::new(id, 2)))
            .faulty(NodeId::new(100))
            .adversary(adv)
            .build();
        let done = engine.run_to_completion(10).expect("completes");
        for (_, heard) in done.outputs {
            let from_faulty: Vec<_> = heard
                .iter()
                .filter(|e| e.from == NodeId::new(100))
                .collect();
            assert_eq!(from_faulty.len(), 2, "42 deduped, 43 kept");
        }
    }

    /// A payload hashed by its value or, with `COLLIDE`, to one constant
    /// for every value.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Keyed<const COLLIDE: bool>(u8);

    impl<const COLLIDE: bool> std::hash::Hash for Keyed<COLLIDE> {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            state.write_u8(if COLLIDE { 0 } else { self.0 });
        }
    }

    /// What a [`Mixer`] heard: `(round, from, payload)` in delivery order.
    type Heard = Vec<(u64, u64, u8)>;

    /// Node 1 sends one mixed script every round — broadcasts, unicasts,
    /// and repeats of distinct payloads in every order; every node logs
    /// what it hears.
    struct Mixer<const COLLIDE: bool> {
        id: NodeId,
        heard: Heard,
    }

    impl<const COLLIDE: bool> Process for Mixer<COLLIDE> {
        type Msg = Keyed<COLLIDE>;
        type Output = ();
        fn id(&self) -> NodeId {
            self.id
        }
        fn on_round(&mut self, ctx: &mut Context<'_, Keyed<COLLIDE>>) {
            let round = ctx.round();
            let inbox = ctx.inbox().iter();
            self.heard
                .extend(inbox.map(|e| (round, e.from.raw(), e.msg().0)));
            if self.id != NodeId::new(1) {
                return;
            }
            let (peer, other) = (NodeId::new(2), NodeId::new(3));
            ctx.broadcast(Keyed(1));
            ctx.send(peer, Keyed(2));
            ctx.send(peer, Keyed(2)); // repeated unicast
            ctx.broadcast(Keyed(2)); // broadcast after the unicast
            ctx.send(peer, Keyed(1)); // unicast after the broadcast
            ctx.send(other, Keyed(3));
            ctx.broadcast(Keyed(3));
            ctx.broadcast(Keyed(4));
            ctx.broadcast(Keyed(4)); // repeated broadcast
            ctx.send(peer, Keyed(5));
        }
        fn output(&self) -> Option<()> {
            None
        }
    }

    /// Three rounds of [`Mixer`], the second losing the `1 -> 3` link:
    /// what each node heard, the stats, and the duplicate drops.
    fn run_mixed<const COLLIDE: bool>() -> (Vec<Heard>, Stats, u64) {
        let mut faults = FaultPlan::new();
        faults.drop_link(2, NodeId::new(1), NodeId::new(3));
        let registry = SharedRuntimeMetrics::new();
        let mixer = |raw| Mixer::<COLLIDE> {
            id: NodeId::new(raw),
            heard: Vec::new(),
        };
        let mut engine = SyncEngine::builder()
            .correct_many([1, 2, 3].map(mixer))
            .enforce_acquaintance(false)
            .faults(faults)
            .runtime_metrics(registry.clone())
            .build();
        engine.run_rounds(3);
        let heard = engine.correct_ids().into_iter();
        let heard = heard.map(|id| engine.process(id).expect("present").heard.clone());
        let drops = registry.snapshot().counter("sim_duplicate_drops_total");
        (heard.collect(), engine.stats().clone(), drops)
    }

    #[test]
    fn distinct_payloads_with_one_hash_are_delivered_like_distinct_hashes() {
        let colliding = run_mixed::<true>();
        let distinct = run_mixed::<false>();
        assert_eq!(colliding, distinct);
        // Per round 7 drops without faults, 5 with the `1 -> 3` link down.
        assert_eq!(distinct.2, 7 + 5 + 7);
        assert_eq!(distinct.1.deliveries, 13 + 9 + 13);
    }

    #[test]
    fn every_envelope_of_a_pair_shares_one_payload() {
        // An equivocation round: f senders each send 2 payloads to each of
        // n recipients, one send per envelope. Each (sender, payload) pair
        // is wrapped once; its n envelopes share that one allocation.
        let (n, f) = (7, 3);
        let adv = FnAdversary::new(
            |view: &AdversaryView<'_, u8>, out: &mut AdversaryOutbox<u8>| {
                for &from in view.faulty {
                    for &to in view.correct {
                        out.send(from, to, 0);
                        out.send(from, to, 1);
                    }
                }
            },
        );
        let mut engine = SyncEngine::builder()
            .correct_many((1..=n).map(|raw| Idle::new(NodeId::new(raw))))
            .faulty_many((1..=f).map(|raw| NodeId::new(100 + raw)))
            .adversary(adv)
            .build();
        engine.run_round();
        let mut first: BTreeMap<(NodeId, u8), &MsgRef<u8>> = BTreeMap::new();
        let mut envelopes = 0;
        for segment in engine.inboxes.values().flatten() {
            for envelope in segment.as_slice() {
                let pair = (envelope.from, *envelope.msg());
                let shared = *first.entry(pair).or_insert(envelope.shared());
                assert!(MsgRef::ptr_eq(shared, envelope.shared()), "{pair:?}");
                envelopes += 1;
            }
        }
        assert_eq!(envelopes, f * n * 2);
        assert_eq!(first.len() as u64, f * 2);
    }

    #[test]
    fn adversary_can_equivocate_per_recipient() {
        let nodes = ids(&[1, 2]);
        let adv = FnAdversary::new(
            |view: &AdversaryView<'_, u64>, out: &mut AdversaryOutbox<u64>| {
                if view.round == 1 {
                    out.send(NodeId::new(50), NodeId::new(1), 111);
                    out.send(NodeId::new(50), NodeId::new(2), 222);
                }
            },
        );
        let mut engine = SyncEngine::builder()
            .correct_many(nodes.iter().map(|&id| CollectAll::new(id, 2)))
            .faulty(NodeId::new(50))
            .adversary(adv)
            .build();
        let done = engine.run_to_completion(10).expect("completes");
        let heard1 = &done.outputs[&NodeId::new(1)];
        let heard2 = &done.outputs[&NodeId::new(2)];
        assert!(heard1.iter().any(|e| *e.msg() == 111) && !heard1.iter().any(|e| *e.msg() == 222));
        assert!(heard2.iter().any(|e| *e.msg() == 222) && !heard2.iter().any(|e| *e.msg() == 111));
    }

    #[test]
    fn terminated_process_stops_sending() {
        // CollectAll terminates at round 2; from round 3 on, nothing flows.
        let nodes = ids(&[1, 2]);
        let mut engine = SyncEngine::builder()
            .correct_many(nodes.iter().map(|&id| CollectAll::new(id, 2)))
            .build();
        engine.run_rounds(4);
        let per_round = engine.stats().deliveries_by_round.clone();
        // Deliveries are attributed to the round the message was *sent* in:
        // two nodes broadcast in round 1, two recipients each.
        assert_eq!(per_round[0], 4);
        // CollectAll broadcasts only in round 1 and terminates in round 2,
        // so nothing is sent afterwards.
        assert_eq!(&per_round[1..], &[0, 0, 0]);
    }

    #[test]
    fn max_rounds_is_reported() {
        let mut engine: SyncEngine<Idle, _> = SyncEngine::builder()
            .correct(Idle::new(NodeId::new(1)))
            .build();
        let err = engine.run_to_completion(3).unwrap_err();
        match err {
            EngineError::MaxRoundsExceeded { round, undecided } => {
                assert_eq!(round, 3);
                assert_eq!(undecided, vec![NodeId::new(1)]);
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn duplicate_ids_are_rejected() {
        let _ = SyncEngine::builder()
            .correct(Idle::new(NodeId::new(1)))
            .faulty(NodeId::new(1))
            .build();
    }

    #[test]
    #[should_panic(expected = "without having received a message")]
    fn acquaintance_violation_panics() {
        let mut engine = SyncEngine::builder()
            .correct(Rude(NodeId::new(1)))
            .correct(Rude(NodeId::new(999)))
            .build();
        engine.run_round();
    }

    #[test]
    fn acquaintance_violation_is_a_typed_error() {
        let mut engine = SyncEngine::builder()
            .correct(Rude(NodeId::new(1)))
            .correct(Rude(NodeId::new(999)))
            .build();
        let err = engine.try_run_round().unwrap_err();
        assert_eq!(
            err,
            EngineError::AcquaintanceViolation {
                round: 1,
                from: NodeId::new(1),
                to: NodeId::new(999),
            }
        );
    }

    #[test]
    fn churn_applies_joins_and_leaves() {
        let mut churn: ChurnSchedule<CollectAll> = ChurnSchedule::new();
        churn.join_correct(2, CollectAll::new(NodeId::new(3), 4));
        churn.leave(3, NodeId::new(1));
        let mut engine = SyncEngine::builder()
            .correct(CollectAll::new(NodeId::new(1), 100))
            .correct(CollectAll::new(NodeId::new(2), 100))
            .churn(churn)
            .build();
        engine.run_round();
        assert_eq!(engine.correct_ids().len(), 2);
        engine.run_round();
        assert_eq!(engine.correct_ids().len(), 3);
        engine.run_round();
        assert_eq!(engine.correct_ids().len(), 2);
        assert!(!engine.correct_ids().contains(&NodeId::new(1)));
    }

    /// A tracer that keeps only the [`TraceEvent::Send`] events.
    #[derive(Default)]
    struct Sends(Vec<TraceEvent>);

    impl Tracer for Sends {
        fn record(&mut self, event: TraceEvent) {
            if let TraceEvent::Send { .. } = event {
                self.0.push(event);
            }
        }
    }

    #[test]
    fn trace_records_sends() {
        let sends = uba_trace::SharedTracer::new(Sends::default());
        let mut engine = SyncEngine::builder()
            .correct(CollectAll::new(NodeId::new(1), 2))
            .tracer(sends.clone())
            .build();
        engine.run_rounds(2);
        let records = sends.with(|sends| sends.0.clone());
        assert_eq!(
            records,
            [TraceEvent::Send {
                round: 1,
                from: 1,
                to: None,
                payload: "1".to_string(),
                adversary: false,
            }]
        );
    }

    #[test]
    fn stats_count_broadcast_fanout() {
        // 3 nodes, each broadcasts once in round 1 => 3 sends, 9 deliveries.
        let nodes = ids(&[1, 2, 3]);
        let mut engine = SyncEngine::builder()
            .correct_many(nodes.iter().map(|&id| CollectAll::new(id, 2)))
            .build();
        engine.run_rounds(2);
        assert_eq!(engine.stats().correct_sends, 3);
        assert_eq!(engine.stats().correct_deliveries, 9);
    }

    #[test]
    fn crashed_node_neither_computes_nor_sends() {
        let nodes = ids(&[1, 2, 3]);
        let mut faults = FaultPlan::new();
        faults.crash(1, NodeId::new(2));
        let mut engine = SyncEngine::builder()
            .correct_many(nodes.iter().map(|&id| CollectAll::new(id, 2)))
            .faults(faults)
            .build();
        engine.run_rounds(2);
        assert_eq!(engine.crashed_ids().len(), 1);
        let outputs = engine.outputs();
        assert!(
            !outputs.contains_key(&NodeId::new(2)),
            "crashed node never decided"
        );
        for heard in outputs.values() {
            assert_eq!(heard.len(), 2, "only the two live broadcasts arrive");
            assert!(heard.iter().all(|e| e.from != NodeId::new(2)));
        }
    }

    #[test]
    fn recovered_node_resumes_with_retained_state() {
        // Node 2 is crashed for round 1 only; its first computing round is
        // round 2, where CollectAll broadcasts, so everyone still hears it —
        // one round late. Node 2 itself missed the round-1 broadcasts (they
        // were sent while it was down).
        let nodes = ids(&[1, 2, 3]);
        let mut faults = FaultPlan::new();
        faults.crash(1, NodeId::new(2));
        faults.recover(2, NodeId::new(2));
        let mut engine = SyncEngine::builder()
            .correct_many(nodes.iter().map(|&id| CollectAll::new(id, 3)))
            .faults(faults)
            .build();
        let done = engine.run_to_completion(6).expect("completes");
        let heard1 = &done.outputs[&NodeId::new(1)];
        assert_eq!(heard1.len(), 3);
        assert!(heard1.iter().any(|e| e.from == NodeId::new(2)));
        let heard2 = &done.outputs[&NodeId::new(2)];
        assert_eq!(heard2.len(), 1, "only its own late broadcast");
        assert!(heard2.iter().all(|e| e.from == NodeId::new(2)));
    }

    #[test]
    fn silence_send_drops_all_outbound_for_the_round() {
        let nodes = ids(&[1, 2, 3]);
        let mut faults = FaultPlan::new();
        faults.silence_send(1, NodeId::new(2));
        let mut engine = SyncEngine::builder()
            .correct_many(nodes.iter().map(|&id| CollectAll::new(id, 2)))
            .faults(faults)
            .build();
        engine.run_rounds(2);
        let outputs = engine.outputs();
        // Node 2 computed and decided — only its outbound traffic vanished.
        assert!(outputs.contains_key(&NodeId::new(2)));
        for heard in outputs.values() {
            assert_eq!(heard.len(), 2);
            assert!(heard.iter().all(|e| e.from != NodeId::new(2)));
        }
    }

    #[test]
    fn drop_inbound_and_drop_link_filter_deliveries() {
        let nodes = ids(&[1, 2, 3]);
        let mut faults = FaultPlan::new();
        faults.drop_inbound(1, NodeId::new(1));
        faults.drop_link(1, NodeId::new(2), NodeId::new(3));
        let mut engine = SyncEngine::builder()
            .correct_many(nodes.iter().map(|&id| CollectAll::new(id, 2)))
            .faults(faults)
            .build();
        engine.run_rounds(2);
        let outputs = engine.outputs();
        assert_eq!(outputs[&NodeId::new(1)].len(), 0, "receive omission");
        assert_eq!(outputs[&NodeId::new(2)].len(), 3, "unaffected node");
        let heard3 = &outputs[&NodeId::new(3)];
        assert_eq!(heard3.len(), 2, "2 -> 3 link was down");
        assert!(heard3.iter().all(|e| e.from != NodeId::new(2)));
    }

    #[test]
    fn adversary_driving_crashed_node_is_an_error() {
        let adv = FnAdversary::new(
            |_: &AdversaryView<'_, u64>, out: &mut AdversaryOutbox<u64>| {
                // Ignores the view on purpose: N100 is crash-faulted from round 1
                // and a disciplined adversary would see it absent from
                // `view.faulty`.
                out.broadcast(NodeId::new(100), 7);
            },
        );
        let mut faults = FaultPlan::new();
        faults.crash(1, NodeId::new(100));
        let mut engine = SyncEngine::builder()
            .correct(CollectAll::new(NodeId::new(1), 3))
            .faulty(NodeId::new(100))
            .adversary(adv)
            .faults(faults)
            .build();
        let err = engine.try_run_round().unwrap_err();
        assert_eq!(
            err,
            EngineError::FaultedNodeActed {
                round: 1,
                node: NodeId::new(100),
            }
        );
    }

    #[test]
    fn monitor_aborts_with_first_violating_round() {
        let mut engine = SyncEngine::builder()
            .correct(Idle::new(NodeId::new(1)))
            .monitor(|view: &MonitorView<'_, Idle>| {
                if view.round >= 3 {
                    Err(ViolationReport {
                        round: view.round,
                        spec: "round bound".into(),
                        nodes: vec![NodeId::new(1)],
                        violations: vec!["ran past round 2".into()],
                    })
                } else {
                    Ok(())
                }
            })
            .build();
        assert!(engine.try_run_round().is_ok());
        assert!(engine.try_run_round().is_ok());
        match engine.try_run_round().unwrap_err() {
            EngineError::InvariantViolated(report) => {
                assert_eq!(report.round, 3);
                assert_eq!(report.spec, "round bound");
                assert_eq!(report.nodes, vec![NodeId::new(1)]);
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn tracer_stream_reproduces_stats_exactly() {
        use uba_trace::{RingTracer, SharedTracer};
        let nodes = ids(&[1, 2, 3]);
        let adv = FnAdversary::new(
            |view: &AdversaryView<'_, u64>, out: &mut AdversaryOutbox<u64>| {
                if view.round <= 2 {
                    for &b in view.faulty.iter() {
                        out.broadcast(b, 7);
                        out.broadcast(b, 7); // duplicate, dropped on delivery
                    }
                }
            },
        );
        let mut faults = FaultPlan::new();
        faults.silence_send(1, NodeId::new(2));
        faults.drop_link(2, NodeId::new(1), NodeId::new(3));
        let handle = SharedTracer::new(RingTracer::new(4096));
        let mut engine = SyncEngine::builder()
            .correct_many(nodes.iter().map(|&id| CollectAll::new(id, 3)))
            .faulty(NodeId::new(100))
            .adversary(adv)
            .faults(faults)
            .tracer(handle.clone())
            .build();
        engine.run_rounds(4);
        assert!(engine.stats().deliveries > 0);
        let replayed = handle.with(|ring| {
            assert_eq!(ring.dropped(), 0, "window must hold the whole run");
            Stats::from_events(ring.events())
        });
        assert_eq!(&replayed, engine.stats());
    }

    #[test]
    fn monitor_violation_is_the_final_trace_event() {
        use uba_trace::{RingTracer, SharedTracer, TraceEvent};
        let handle = SharedTracer::new(RingTracer::new(256));
        let mut engine = SyncEngine::builder()
            .correct(Idle::new(NodeId::new(1)))
            .monitor(|view: &MonitorView<'_, Idle>| {
                if view.round >= 2 {
                    Err(ViolationReport {
                        round: view.round,
                        spec: "round bound".into(),
                        nodes: vec![NodeId::new(1)],
                        violations: vec!["ran past round 1".into()],
                    })
                } else {
                    Ok(())
                }
            })
            .tracer(handle.clone())
            .build();
        assert!(engine.try_run_round().is_ok());
        assert!(engine.try_run_round().is_err());
        handle.with(|ring| {
            let last = ring.events().last().expect("events recorded");
            match last {
                TraceEvent::MonitorVerdict {
                    round,
                    monitor,
                    ok,
                    nodes,
                    ..
                } => {
                    assert_eq!(*round, 2);
                    assert_eq!(monitor, "round bound");
                    assert!(!ok);
                    assert_eq!(nodes, &[1]);
                }
                other => panic!("final event is {other:?}, not a verdict"),
            }
        });
    }

    #[test]
    fn node_state_events_fire_only_on_change() {
        use uba_trace::{NodeSnapshot, RingTracer, SharedTracer, TraceEvent};
        let handle = SharedTracer::new(RingTracer::new(256));
        let mut engine = SyncEngine::builder()
            .correct(CollectAll::new(NodeId::new(1), 3))
            .tracer(handle.clone())
            .observe(|p: &CollectAll| NodeSnapshot {
                decided: p.output().map(|o| format!("{o:?}")),
                ..NodeSnapshot::new()
            })
            .build();
        engine.run_rounds(4);
        let state_rounds: Vec<u64> = handle.with(|ring| {
            ring.events()
                .filter(|e| matches!(e, TraceEvent::NodeState { .. }))
                .map(|e| e.round())
                .collect()
        });
        // Undecided snapshot in round 1, decided snapshot in round 3,
        // nothing afterwards: transitions only.
        assert_eq!(state_rounds, vec![1, 3]);
    }

    #[test]
    fn completion_waits_for_scheduled_recovery() {
        // Node 1 decides at round 2 while node 2 is down, but a recovery is
        // scheduled for round 4 — the run must keep going until the
        // recovered node catches up and decides too.
        let mut faults = FaultPlan::new();
        faults.crash(1, NodeId::new(2));
        faults.recover(4, NodeId::new(2));
        let mut engine = SyncEngine::builder()
            .correct(CollectAll::new(NodeId::new(1), 2))
            .correct(CollectAll::new(NodeId::new(2), 2))
            .faults(faults)
            .build();
        let done = engine.run_to_completion(10).expect("completes");
        assert!(done.outputs.contains_key(&NodeId::new(2)));
        assert!(done.decided_round[&NodeId::new(2)] >= 4);
    }

    #[test]
    fn unrecovered_crash_does_not_block_completion() {
        let mut faults = FaultPlan::new();
        faults.crash(1, NodeId::new(2));
        let mut engine = SyncEngine::builder()
            .correct(CollectAll::new(NodeId::new(1), 2))
            .correct(CollectAll::new(NodeId::new(2), 2))
            .faults(faults)
            .build();
        let done = engine.run_to_completion(10).expect("completes");
        assert!(!done.outputs.contains_key(&NodeId::new(2)));
        assert!(done.outputs.contains_key(&NodeId::new(1)));
    }

    #[test]
    fn join_and_leave_in_the_same_round_is_a_no_show() {
        // Actions for a round apply in schedule order: a node joined and
        // removed before the same round never computes, never sends, and
        // never appears in the outputs.
        let mut churn: ChurnSchedule<CollectAll> = ChurnSchedule::new();
        churn.join_correct(1, CollectAll::new(NodeId::new(7), 2));
        churn.leave(1, NodeId::new(7));
        let mut engine = SyncEngine::builder()
            .correct(CollectAll::new(NodeId::new(1), 2))
            .correct(CollectAll::new(NodeId::new(2), 2))
            .churn(churn)
            .build();
        let done = engine.run_to_completion(10).expect("completes");
        assert!(!done.outputs.contains_key(&NodeId::new(7)));
        for heard in done.outputs.values() {
            assert!(
                heard.iter().all(|e| e.from != NodeId::new(7)),
                "the no-show node must never be heard from"
            );
        }
    }

    #[test]
    fn leave_of_an_absent_node_is_ignored() {
        // Leaving a node that never existed, or one that already left, is a
        // no-op rather than an error: the paper's adversary controls the
        // schedule, and the engine must not fall over on a stale action.
        let mut churn: ChurnSchedule<CollectAll> = ChurnSchedule::new();
        churn.leave(1, NodeId::new(99)); // never present
        churn.leave(2, NodeId::new(2));
        churn.leave(3, NodeId::new(2)); // already gone
        let mut engine = SyncEngine::builder()
            .correct(CollectAll::new(NodeId::new(1), 4))
            .correct(CollectAll::new(NodeId::new(2), 4))
            .churn(churn)
            .build();
        let done = engine.run_to_completion(10).expect("completes");
        assert!(done.outputs.contains_key(&NodeId::new(1)));
        assert!(!done.outputs.contains_key(&NodeId::new(2)));
    }

    /// Broadcasts every round; in its first round it also sends
    /// point-to-point to `greets`, if any.
    struct Greeter {
        id: NodeId,
        greets: Option<NodeId>,
    }
    impl Process for Greeter {
        type Msg = u8;
        type Output = ();
        fn id(&self) -> NodeId {
            self.id
        }
        fn on_round(&mut self, ctx: &mut Context<'_, u8>) {
            ctx.broadcast(0);
            if let Some(to) = self.greets.take() {
                ctx.send(to, 1);
            }
        }
        fn output(&self) -> Option<()> {
            None
        }
    }

    #[test]
    fn leave_forgets_the_leavers_acquaintances() {
        // Node 1 hears node 2 for two rounds, leaves, and a fresh process
        // rejoins under the same id. The new incarnation has heard from
        // nobody: its first point-to-point send to the old acquaintance is
        // the typed error, not a send the dead incarnation's row allows.
        let (one, two) = (NodeId::new(1), NodeId::new(2));
        let plain = |id| Greeter { id, greets: None };
        let mut churn: ChurnSchedule<Greeter> = ChurnSchedule::new();
        churn.leave(3, one);
        churn.join_correct(
            4,
            Greeter {
                id: one,
                greets: Some(two),
            },
        );
        let mut engine = SyncEngine::builder()
            .correct(plain(one))
            .correct(plain(two))
            .churn(churn)
            .build();
        engine.run_rounds(2);
        assert!(engine.acquaintance()[&one].contains(&two));
        engine.run_round();
        assert!(
            !engine.acquaintance().contains_key(&one),
            "the row leaves with the node"
        );
        assert_eq!(
            engine.try_run_round().unwrap_err(),
            EngineError::AcquaintanceViolation {
                round: 4,
                from: one,
                to: two,
            }
        );
    }

    #[test]
    fn crashed_node_can_leave_and_rejoin_as_fresh() {
        // Crash-recovery composes with churn: a node that crashes, leaves
        // (clearing its crashed status), and rejoins under the same id runs
        // a fresh process and participates normally again.
        let mut faults = FaultPlan::new();
        faults.crash(1, NodeId::new(2));
        let mut churn: ChurnSchedule<CollectAll> = ChurnSchedule::new();
        churn.leave(3, NodeId::new(2));
        churn.join_correct(4, CollectAll::new(NodeId::new(2), 6));
        let mut engine = SyncEngine::builder()
            .correct(CollectAll::new(NodeId::new(1), 6))
            .correct(CollectAll::new(NodeId::new(2), 6))
            .faults(faults)
            .churn(churn)
            .build();
        let done = engine.run_to_completion(10).expect("completes");
        assert!(engine.crashed_ids().is_empty(), "leave clears the crash");
        assert!(
            done.outputs.contains_key(&NodeId::new(2)),
            "the rejoined node decides"
        );
        // Node 1 hears the rejoined node's broadcasts (sent from round 4 on).
        let heard_from_2 = done.outputs[&NodeId::new(1)]
            .iter()
            .filter(|e| e.from == NodeId::new(2))
            .count();
        assert!(heard_from_2 > 0, "the rejoined node speaks again");
    }

    #[test]
    fn a_registry_gets_one_observation_per_round_and_phase() {
        // Every round lands in the registry once: the round counter, the
        // round-time histogram and each phase histogram. The phases are
        // consecutive laps of one chain, so they cannot exceed the round.
        let rounds = 6;
        let adv = FnAdversary::new(
            |view: &AdversaryView<'_, u64>, out: &mut AdversaryOutbox<u64>| {
                for &from in view.faulty {
                    out.broadcast(from, view.round);
                }
            },
        );
        let registry = SharedRuntimeMetrics::new();
        let mut engine = SyncEngine::builder()
            .correct_many((1..=4).map(|raw| CollectAll::new(NodeId::new(raw), 100)))
            .faulty(NodeId::new(9))
            .adversary(adv)
            .runtime_metrics(registry.clone())
            .build();
        engine.run_rounds(rounds);

        let m = registry.snapshot();
        assert_eq!(m.counter("sim_rounds_total"), rounds);
        let round = m.timing("sim_round_micros").expect("round histogram");
        assert_eq!(round.count(), rounds);
        let mut phases = 0;
        for phase in ["step", "adversary", "deliver"] {
            let name = format!("sim_round_phase_micros{{phase=\"{phase}\"}}");
            let histogram = m.timing(&name).expect("phase histogram");
            assert_eq!(histogram.count(), rounds, "{name}");
            phases += histogram.sum();
        }
        assert!(
            phases <= round.sum(),
            "phases {phases} > round {}",
            round.sum()
        );
    }
}
