//! Work accounting for the protocol step, without a clock.
//!
//! The companion of `crates/sim/tests/delivery_alloc.rs`, one layer up: a
//! value type that counts the calls into its own `Clone`, `Hash` and
//! `PartialEq` shows what the protocols do with the payloads they are
//! handed.
//!
//! - One `EarlyConsensus` phase clones a value when it *sends* one and when
//!   a tally *wins* — a handful per node, whatever `n` is. (Before the
//!   shared substitution tally every received value was cloned into a
//!   `Vec`: `3n` clones per node and phase.)
//! - A protocol that embeds another one (`TerminatingBroadcast` →
//!   consensus, `VectorConsensus` → parallel consensus, `TotalOrdering` →
//!   one parallel consensus per wave) hands the inner protocol *borrowed*
//!   messages. So a whole engine run hashes each payload once per send
//!   operation — the engine's own memoised hash, nothing per layer — and a
//!   round costs exactly as many clones with 32 extra messages the inner
//!   protocol turns away at the door as it costs without them. (Before,
//!   every layer deep-cloned and re-hashed every envelope to re-wrap it.)
//! - `ReliableBroadcast` counts a round's echoes by reference and clones a
//!   value when it re-echoes or accepts it: clones per echo round follow the
//!   number of *distinct* values. (Before, every echo envelope was cloned
//!   into the tally: `n` clones per value and round.)
//! - `TotalOrdering` keeps its chain and lends it: reading `chain()` or
//!   asking `terminated()` clones nothing, and `output()` clones each chain
//!   value once. (Before, `chain()` rebuilt the chain by cloning every final
//!   value, and `terminated()` was `output().is_some()`.)
//!
//! One file, one test, so no other test's calls can race the counters.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use uba_core::consensus::{ConsensusMsg, EarlyConsensus};
use uba_core::ordering::{OrderMsg, TotalOrdering};
use uba_core::parallel::ParMsg;
use uba_core::reliable::{RbMsg, ReliableBroadcast};
use uba_core::trb::{TerminatingBroadcast, TrbMsg};
use uba_core::vector::{VcMsg, VectorConsensus};
use uba_sim::trace::SharedTracer;
use uba_sim::{
    sparse_ids, Context, Envelope, NodeId, Outbox, Process, SyncEngine, TraceEvent, Tracer,
};

static CLONES: AtomicU64 = AtomicU64::new(0);
static HASHES: AtomicU64 = AtomicU64::new(0);
static EQS: AtomicU64 = AtomicU64::new(0);

/// Reads and resets the `(Clone, Hash, Eq)` call counts.
fn take_counts() -> (u64, u64, u64) {
    let take = |counter: &AtomicU64| counter.swap(0, Ordering::Relaxed);
    (take(&CLONES), take(&HASHES), take(&EQS))
}

/// A value that counts every deep clone, hash and equality test of itself
/// (ordering comparisons are what a tally is made of and are not counted).
#[derive(Debug, PartialOrd, Ord)]
struct Counted(u64);

impl Clone for Counted {
    fn clone(&self) -> Self {
        CLONES.fetch_add(1, Ordering::Relaxed);
        Counted(self.0)
    }
}

impl Hash for Counted {
    fn hash<H: Hasher>(&self, state: &mut H) {
        HASHES.fetch_add(1, Ordering::Relaxed);
        self.0.hash(state);
    }
}

impl PartialEq for Counted {
    fn eq(&self, other: &Self) -> bool {
        EQS.fetch_add(1, Ordering::Relaxed);
        self.0 == other.0
    }
}

impl Eq for Counted {}

/// Drives `n` consensus nodes by hand — everything sent in a round is
/// handed, borrowed, to everyone in the next — and returns the counts of
/// the first phase (rounds 3–7) plus the value-carrying envelopes it
/// delivered.
fn consensus_phase(n: usize) -> ((u64, u64, u64), usize) {
    let ids = sparse_ids(n, 7);
    // One dissenter: every quorum is met, so every slot of the ladder is
    // sent, tallied and won.
    let mut nodes: Vec<EarlyConsensus<Counted>> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| EarlyConsensus::new(id, Counted(if i == 0 { 9 } else { 5 })))
        .collect();
    let mut wire: Vec<(NodeId, ConsensusMsg<Counted>)> = Vec::new();
    let mut value_envelopes = 0;
    for round in 1..=7 {
        if round == 3 {
            take_counts();
        }
        let carrying = |m: &ConsensusMsg<Counted>| {
            !matches!(m, ConsensusMsg::RotorInit | ConsensusMsg::RotorEcho(_))
        };
        if round > 3 {
            value_envelopes += n * wire.iter().filter(|(_, m)| carrying(m)).count();
        }
        let mut next = Vec::new();
        for node in &mut nodes {
            let mut out = Vec::new();
            node.step(round, wire.iter().map(|(from, m)| (*from, m)), &mut out);
            next.extend(out.into_iter().map(|m| (node.id(), m)));
        }
        wire = next;
    }
    assert!(
        nodes.iter().all(|node| node.output().is_some()),
        "near-unanimous inputs decide in the first phase"
    );
    (take_counts(), value_envelopes)
}

/// Runs `node`'s next round twice from the same state — once on an empty
/// inbox, once on `foreign` — and returns the payload `(clones, hashes)` of
/// each. Cloning the node and wrapping the inbox happen before the counters
/// are reset.
fn round_cost<P: Process + Clone>(
    node: &P,
    round: u64,
    foreign: Vec<Envelope<P::Msg>>,
) -> [(u64, u64); 2] {
    [Vec::new(), foreign].map(|inbox| {
        let mut node = node.clone();
        let mut outbox = Outbox::new();
        take_counts();
        node.on_round(&mut Context::new(round, &inbox, &mut outbox));
        let (clones, hashes, _) = take_counts();
        (clones, hashes)
    })
}

/// A tracer that counts the [`TraceEvent::Send`]s whose payload carries a
/// value and drops every other event.
#[derive(Default)]
struct ValueSends(usize);

impl Tracer for ValueSends {
    fn record(&mut self, event: TraceEvent) {
        if let TraceEvent::Send { payload, .. } = event {
            self.0 += usize::from(payload.contains("Counted("));
        }
    }
}

/// Runs `nodes` to completion under the engine and requires exactly one
/// payload hash per send operation whose message carries a value.
fn assert_one_hash_per_value_send<P: Process>(name: &str, nodes: impl Iterator<Item = P>) {
    let sends = SharedTracer::new(ValueSends::default());
    let mut engine = SyncEngine::builder()
        .correct_many(nodes)
        .tracer(sends.clone())
        .build();
    take_counts();
    engine.run_to_completion(40).expect("terminates");
    let (_, hashes, _) = take_counts();
    let value_sends = sends.with(|sends| sends.0);
    assert!(value_sends > 0, "{name}: the run carried values");
    assert_eq!(
        hashes, value_sends as u64,
        "{name}: the engine hashes a payload once per send; no layer hashes it again"
    );
}

/// 32 envelopes from senders nobody has heard of.
fn strangers<M: Hash>(msg: impl Fn(u64) -> M) -> Vec<Envelope<M>> {
    (0..32)
        .map(|i| Envelope::new(NodeId::new(1_000_000 + i), msg(i)))
        .collect()
}

#[test]
fn protocol_work_is_per_value_and_per_send_not_per_envelope() {
    // (a) One consensus phase: clones do not grow with the inbox.
    for n in [8usize, 32] {
        let ((clones, hashes, _), value_envelopes) = consensus_phase(n);
        assert!(
            value_envelopes >= 3 * n * n,
            "the ladder ran: {value_envelopes}"
        );
        assert!(
            clones <= 12 * n as u64,
            "n = {n}: {clones} value clones in one phase over {value_envelopes} \
             value-carrying envelopes; a node clones what it sends and the winner \
             of each tally, not what it receives"
        );
        assert_eq!(hashes, 0, "a step never hashes a value");
    }

    // (b) Whole runs of the three nesting protocols: one payload hash per
    // send operation that carries a value (the engine's), none per layer.
    let ids = sparse_ids(6, 12);
    let trb =
        |id: NodeId| TerminatingBroadcast::new(id, ids[2], (id == ids[2]).then_some(Counted(1)));
    let vector = |id: NodeId| VectorConsensus::new(id, Counted(id.raw() % 7));
    let ordering = |id: NodeId| {
        TotalOrdering::genesis(id)
            .with_events((2..6).map(|r| (r, Counted(r))))
            .with_horizon(30)
    };
    assert_one_hash_per_value_send("trb", ids.iter().map(|&id| trb(id)));
    assert_one_hash_per_value_send("vector", ids.iter().map(|&id| vector(id)));
    assert_one_hash_per_value_send("ordering", ids.iter().map(|&id| ordering(id)));

    // (c) One round of each, mid-run, with and without 32 value-carrying
    // messages that the inner protocol discards unread (their senders are
    // outside its membership): handing them inward costs nothing.
    let mut engine = SyncEngine::builder()
        .correct_many(ids.iter().map(|&id| trb(id)))
        .build();
    engine.run_rounds(4);
    let input = |i| TrbMsg::Con(ConsensusMsg::Input(Some(Counted(i))));
    let node = engine.process(ids[0]).expect("present");
    let [quiet, crowded] = round_cost(node, 5, strangers(input));
    assert_eq!(crowded, quiet, "trb → consensus");
    assert_eq!(crowded.1, 0, "trb → consensus hashes nothing");

    let mut engine = SyncEngine::builder()
        .correct_many(ids.iter().map(|&id| vector(id)))
        .build();
    engine.run_rounds(4);
    let input = |i| VcMsg::Par(ParMsg::Input(ids[1], Counted(i)));
    let node = engine.process(ids[0]).expect("present");
    let [quiet, crowded] = round_cost(node, 5, strangers(input));
    assert_eq!(crowded, quiet, "vector → parallel");
    assert_eq!(crowded.1, 0, "vector → parallel hashes nothing");

    let mut engine = SyncEngine::builder()
        .correct_many(ids.iter().map(|&id| ordering(id)))
        .build();
    engine.run_rounds(4);
    // Wave 3 carries the round-2 events and is in its second round.
    let input = |i| OrderMsg::Wave(3, ParMsg::Input(ids[1], Counted(i)));
    let node = engine.process(ids[0]).expect("present");
    let [quiet, crowded] = round_cost(node, 5, strangers(input));
    assert_eq!(crowded, quiet, "ordering → parallel");
    assert_eq!(crowded.1, 0, "ordering → parallel hashes nothing");

    // (d) One reliable-broadcast echo round: 32 counted members all echo the
    // two values of an equivocating sender. Each value is cloned once for
    // the re-echo and once on acceptance — not once per envelope.
    let ids = sparse_ids(32, 4);
    let mut node = ReliableBroadcast::new(ids[0], ids[1], None);
    let mut outbox = Outbox::new();
    let present: Vec<_> = ids
        .iter()
        .map(|&id| Envelope::new(id, RbMsg::Present))
        .collect();
    node.on_round(&mut Context::new(1, &[], &mut outbox));
    node.on_round(&mut Context::new(2, &present, &mut outbox));
    let echoes: Vec<_> = ids
        .iter()
        .flat_map(|&id| [1, 2].map(|v| Envelope::new(id, RbMsg::Echo(Counted(v)))))
        .collect();
    take_counts();
    node.on_round(&mut Context::new(3, &echoes, &mut outbox));
    let (clones, hashes, _) = take_counts();
    assert_eq!(node.accepted().len(), 2, "both values reached 2n_v/3");
    assert_eq!(
        clones,
        4,
        "{} echo envelopes of 2 distinct values: re-echo + accept each",
        echoes.len()
    );
    assert_eq!(hashes, 0, "reliable broadcast never hashes a value");

    // (e) A terminated ordering node lends its chain; only `output()` copies.
    let ids = sparse_ids(6, 12);
    let mut engine = SyncEngine::builder()
        .correct_many(ids.iter().map(|&id| ordering(id)))
        .build();
    engine.run_to_completion(40).expect("horizon reached");
    let node = engine.process(ids[0]).expect("present");
    let len = node.chain().len();
    assert_eq!(len, 24, "six nodes, four events each, all final");
    take_counts();
    for _ in 0..100 {
        assert_eq!(node.chain().len(), len);
        assert!(node.terminated());
    }
    assert_eq!(take_counts().0, 0, "chain() and terminated() clone nothing");
    assert_eq!(node.output().map(|chain| chain.len()), Some(len));
    assert_eq!(
        take_counts().0,
        len as u64,
        "output() clones the chain once"
    );
}
