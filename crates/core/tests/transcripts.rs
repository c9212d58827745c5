//! Transcript pins for the protocols the golden traces do not cover.
//!
//! `crates/bench/tests/golden_traces.rs` pins consensus, reliable broadcast,
//! approximate agreement and the rotor. This file pins the rest of the
//! rotor-driven family and everything that nests one protocol in another:
//! the king consensus, parallel consensus under an adversary that injects a
//! fake instance and equivocates on a real one, vector consensus,
//! terminating broadcast with an equivocating sender, and total ordering
//! with a joiner and a leaver. It also pins `EarlyConsensus` itself where the
//! golden traces are too small to reach: 70 counted ids (more senders than
//! one 64-bit word of a sender bitset holds) under full equivocation, and
//! echoed candidates that are no members at all.
//!
//! A transcript is every send operation of the run — round, sender,
//! destination, `Debug` payload, in the order the engine saw them — followed
//! by every correct node's decision round and output. Processes are
//! deterministic functions of their inboxes and inboxes are a function of
//! the sends, so two implementations with the same transcript are the same
//! protocol. The files under `tests/golden/` were generated **before** the
//! phase-frame refactor of `consensus.rs`, `consensus/king.rs` and
//! `parallel.rs`; the refactored code must reproduce them byte for byte. The
//! two `early-*` files were generated before the frame started counting by
//! member slot, and are digests: a 70-id run is ~70,000 sends, so each round
//! is recorded as its send count and an order-sensitive FNV-1a hash of the
//! same send lines ([`digest`]).
//!
//! Regenerate (only for an intentional protocol change) with:
//!
//! ```text
//! UBA_BLESS=1 cargo test -p uba-core --test transcripts
//! ```

use std::collections::BTreeSet;
use std::fmt::{Debug, Display, Write as _};
use std::path::PathBuf;

use uba_adversary::attacks::{ConsensusEquivocator, GhostCandidateAdversary};
use uba_core::consensus::king::{KingConsensus, KingMsg};
use uba_core::consensus::{ConsensusMsg, EarlyConsensus};
use uba_core::harness::Setup;
use uba_core::ordering::TotalOrdering;
use uba_core::parallel::{ParMsg, ParallelConsensus};
use uba_core::trb::{TerminatingBroadcast, TrbMsg};
use uba_core::vector::{VcMsg, VectorConsensus};
use uba_sim::trace::SharedTracer;
use uba_sim::{
    sparse_ids, Adversary, AdversaryOutbox, AdversaryView, ChurnSchedule, EngineBuilder,
    FnAdversary, NodeId, Process, SyncEngine, TraceEvent, Tracer,
};

/// A tracer that keeps only the [`TraceEvent::Send`] events: the send
/// operations a transcript is made of, in the order the engine saw them.
#[derive(Default)]
struct Sends(Vec<TraceEvent>);

impl Tracer for Sends {
    fn record(&mut self, event: TraceEvent) {
        if let TraceEvent::Send { .. } = event {
            self.0.push(event);
        }
    }
}

/// The fields of a [`TraceEvent::Send`].
fn send_fields(event: &TraceEvent) -> (u64, u64, Option<u64>, &str, bool) {
    match event {
        TraceEvent::Send {
            round,
            from,
            to,
            payload,
            adversary,
        } => (*round, *from, *to, payload, *adversary),
        other => unreachable!("{} is not a send", other.kind()),
    }
}

/// One send operation as a transcript line (`*` = broadcast).
fn send_line(
    text: &mut String,
    round: u64,
    from: u64,
    to: Option<u64>,
    payload: impl Display,
    adversary: bool,
) {
    let to = to.map_or("*".to_owned(), |id| format!("{id:#x}"));
    let tag = if adversary { " [adv]" } else { "" };
    writeln!(text, "r{round} {from:#x} -> {to}: {payload}{tag}").unwrap();
}

/// Runs `builder` to completion and renders the transcript.
fn transcript<P, A>(builder: EngineBuilder<P, A>, max_rounds: u64) -> String
where
    P: Process,
    P::Output: Debug,
    A: Adversary<P::Msg>,
{
    let sends = SharedTracer::new(Sends::default());
    let mut engine = builder.tracer(sends.clone()).build();
    let done = engine.run_to_completion(max_rounds).expect("terminates");
    let mut text = String::new();
    sends.with(|sends| {
        for send in &sends.0 {
            let (round, from, to, payload, adversary) = send_fields(send);
            send_line(&mut text, round, from, to, payload, adversary);
        }
    });
    for (id, output) in &done.outputs {
        let round = done.decided_round[id];
        writeln!(text, "output {:#x} @r{round}: {output:?}", id.raw()).unwrap();
    }
    text
}

/// `EarlyConsensus<u64>` on `setup` (alternating 0/1 inputs) against
/// `adversary`, run to completion: the engine and its send events.
fn run_early<A>(
    setup: &Setup,
    adversary: A,
) -> (SyncEngine<EarlyConsensus<u64>, A>, Vec<TraceEvent>)
where
    A: Adversary<ConsensusMsg<u64>>,
{
    let sends = SharedTracer::new(Sends::default());
    let mut engine = SyncEngine::builder()
        .correct_many(
            setup
                .correct
                .iter()
                .enumerate()
                .map(|(i, &id)| EarlyConsensus::new(id, (i % 2) as u64)),
        )
        .faulty_many(setup.faulty.iter().copied())
        .adversary(adversary)
        .tracer(sends.clone())
        .build();
    engine.run_to_completion(400).expect("terminates");
    let sends = sends.with(|sends| sends.0.clone());
    (engine, sends)
}

/// The compact transcript of a finished [`run_early`]: per round the number
/// of send operations and the FNV-1a hash of their lines — the line format
/// of [`transcript`], in engine order — then every correct node's decision
/// round, output and frozen `n_v`.
fn digest<A>((engine, sends): &(SyncEngine<EarlyConsensus<u64>, A>, Vec<TraceEvent>)) -> String
where
    A: Adversary<ConsensusMsg<u64>>,
{
    let mut text = String::new();
    let mut line = String::new();
    for sends in sends.chunk_by(|a, b| a.round() == b.round()) {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for send in sends {
            let (round, from, to, payload, adversary) = send_fields(send);
            line.clear();
            send_line(&mut line, round, from, to, payload, adversary);
            for byte in line.bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        let (round, count) = (sends[0].round(), sends.len());
        writeln!(text, "r{round}: {count} sends, fnv1a {hash:016x}").unwrap();
    }
    let decided = engine.decided_rounds();
    for (id, output) in engine.outputs() {
        let round = decided[&id];
        let n_v = engine
            .process(id)
            .and_then(EarlyConsensus::frozen_estimate)
            .expect("a decided node froze its membership");
        writeln!(
            text,
            "output {:#x} @r{round}: {output} (n_v {n_v})",
            id.raw()
        )
        .unwrap();
    }
    text
}

/// Compares `text` with the committed golden file, or writes it under
/// `UBA_BLESS`.
fn check(name: &str, text: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var_os("UBA_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, text).expect("write golden");
        return;
    }
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!(
            "missing golden transcript {} ({err}); run with UBA_BLESS=1 to generate",
            path.display()
        )
    });
    if text != pinned {
        let line = text
            .lines()
            .zip(pinned.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| text.lines().count().min(pinned.lines().count()));
        panic!(
            "{name}: transcript drifted from the pinned golden at line {}:\n  now:    {:?}\n  pinned: {:?}",
            line + 1,
            text.lines().nth(line),
            pinned.lines().nth(line)
        );
    }
}

#[test]
fn king_consensus_with_split_inputs() {
    let ids = sparse_ids(5, 8);
    let byz = NodeId::new(3);
    type M = KingMsg<u64>;
    // One counted-then-silent member, so the substitution rule is exercised
    // in every tally of every phase.
    let adv = FnAdversary::new(
        move |view: &AdversaryView<'_, M>, out: &mut AdversaryOutbox<M>| {
            if view.round == 1 {
                out.broadcast(byz, KingMsg::RotorInit);
            }
        },
    );
    let builder = SyncEngine::builder()
        .correct_many(
            ids.iter()
                .enumerate()
                .map(|(i, &id)| KingConsensus::new(id, (i % 2) as u64)),
        )
        .faulty(byz)
        .adversary(adv);
    check("king-split", &transcript(builder, 80));
}

#[test]
fn parallel_consensus_with_a_fake_and_an_equivocated_instance() {
    type M = ParMsg<&'static str, u64>;
    let ids = sparse_ids(5, 2);
    let byz = NodeId::new(7);
    let target = ids[0];
    let low: BTreeSet<NodeId> = ids[..2].iter().copied().collect();
    // The adversary takes part in initialization (and nominates itself, so
    // it is a rotor candidate), feeds a fake instance to one correct node,
    // equivocates on every slot of the real instance, and sends two
    // opinions per phase to every node — whenever it happens to be the
    // selected coordinator the "smallest opinion" pick decides.
    let adv = FnAdversary::new(
        move |view: &AdversaryView<'_, M>, out: &mut AdversaryOutbox<M>| {
            let split = |out: &mut AdversaryOutbox<M>, a: M, b: M| {
                for &to in view.correct.iter() {
                    let msg = if low.contains(&to) { &a } else { &b };
                    out.send(byz, to, msg.clone());
                }
            };
            match view.round {
                1 => out.broadcast(byz, ParMsg::RotorInit),
                2 => {
                    out.broadcast(byz, ParMsg::RotorEcho(byz));
                    for &id in view.correct.iter() {
                        out.broadcast(byz, ParMsg::RotorEcho(id));
                    }
                }
                3 => {
                    out.send(byz, target, ParMsg::Input("fake", 666));
                    split(out, ParMsg::Input("real", 5), ParMsg::Input("real", 9));
                }
                r if r > 3 => match (r - 3) % 5 {
                    0 => split(out, ParMsg::Input("real", 5), ParMsg::Input("real", 9)),
                    1 => split(
                        out,
                        ParMsg::Prefer("real", Some(5)),
                        ParMsg::Prefer("real", Some(9)),
                    ),
                    2 => split(
                        out,
                        ParMsg::StrongPrefer("real", Some(5)),
                        ParMsg::NoStrongPreference("real"),
                    ),
                    3 => {
                        out.broadcast(byz, ParMsg::Opinion("real", Some(9)));
                        out.broadcast(byz, ParMsg::Opinion("real", Some(5)));
                        out.broadcast(byz, ParMsg::Opinion("solo", None));
                    }
                    _ => {}
                },
                _ => {}
            }
        },
    );
    let builder = SyncEngine::builder()
        .correct_many(ids.iter().enumerate().map(|(i, &id)| {
            let mut inputs = vec![("real", if i % 2 == 0 { 5u64 } else { 9 })];
            if i == 4 {
                inputs.push(("solo", 1));
            }
            ParallelConsensus::new(id, inputs)
        }))
        .faulty(byz)
        .adversary(adv);
    check("parallel-fake-equivocated", &transcript(builder, 200));
}

#[test]
fn vector_consensus_with_an_equivocating_contributor() {
    type M = VcMsg<u64>;
    let ids = sparse_ids(5, 3);
    let byz = NodeId::new(77);
    let adv = FnAdversary::new(
        move |view: &AdversaryView<'_, M>, out: &mut AdversaryOutbox<M>| match view.round {
            1 => {
                for (i, &to) in view.correct.iter().enumerate() {
                    out.send(byz, to, VcMsg::Contribute(1000 + (i % 2) as u64));
                }
            }
            2 => out.broadcast(byz, VcMsg::Par(ParMsg::RotorInit)),
            _ => {}
        },
    );
    let builder = SyncEngine::builder()
        .correct_many(
            ids.iter()
                .enumerate()
                .map(|(i, &id)| VectorConsensus::new(id, i as u64)),
        )
        .faulty(byz)
        .adversary(adv);
    check("vector-equivocated", &transcript(builder, 100));
}

#[test]
fn terminating_broadcast_with_an_equivocating_sender() {
    type M = TrbMsg<&'static str>;
    let ids = sparse_ids(6, 21);
    let byz_sender = NodeId::new(500);
    let split: BTreeSet<NodeId> = ids[..3].iter().copied().collect();
    let adv = FnAdversary::new(
        move |view: &AdversaryView<'_, M>, out: &mut AdversaryOutbox<M>| {
            if view.round == 1 {
                for &to in view.correct.iter() {
                    let m = if split.contains(&to) { "a" } else { "b" };
                    out.send(byz_sender, to, TrbMsg::Payload(m));
                }
            }
        },
    );
    let builder = SyncEngine::builder()
        .correct_many(
            ids.iter()
                .map(|&id| TerminatingBroadcast::<&str>::new(id, byz_sender, None)),
        )
        .faulty(byz_sender)
        .adversary(adv);
    check("trb-equivocating-sender", &transcript(builder, 80));
}

#[test]
fn total_ordering_with_a_joiner_and_a_leaver() {
    let ids = sparse_ids(5, 91);
    let (joiner, leaver) = (ids[4], ids[0]);
    let mut churn: ChurnSchedule<TotalOrdering<u64>> = ChurnSchedule::new();
    churn.join_correct(
        5,
        TotalOrdering::joining(joiner)
            .with_events([(12, 777u64)])
            .with_horizon(40),
    );
    let builder = SyncEngine::builder()
        .correct_many(ids[..4].iter().map(|&id| {
            let node = TotalOrdering::genesis(id).with_events([(3, id.raw() % 100)]);
            if id == leaver {
                node.with_leave_at(10)
            } else {
                node.with_horizon(40)
            }
        }))
        .churn(churn);
    let text = transcript(builder, 45);
    // The scenario is only worth pinning if it exercised what it names.
    assert!(text.contains("Ack("), "the joiner was acked");
    assert!(text.contains("Absent"), "the leaver announced itself");
    assert!(text.contains("777"), "the joiner's event was ordered");
    check("ordering-join-leave", &text);
}

#[test]
fn early_consensus_equivocated_with_seventy_counted_ids() {
    // 47 correct + 23 faulty: n_v = 70 everywhere, so member numbering
    // crosses 64, every tally has 23 equivocated votes and the rotor
    // reliably broadcasts 70 candidates.
    let setup = Setup::new(47, 23, 5);
    let text = digest(&run_early(&setup, ConsensusEquivocator::new(0u64, 1u64)));
    assert!(text.contains("(n_v 70)"), "all 70 ids were counted");
    check("early-equivocated-n70", &text);
}

#[test]
fn early_consensus_with_echoed_candidates_that_are_not_members() {
    // Ghost echoes keep arriving through the first three rotor steps: echo
    // rows for ids that never get a member slot. With 2 of 9 faulty the
    // ghosts stay below n_v/3 while the run takes two phases; with 3 of 9
    // (n = 3f, agreement is not promised) they reach it at every correct
    // node, are re-echoed, join C_v and are selected.
    let mut text = String::new();
    for faulty in [2, 3] {
        let setup = Setup::new(9 - faulty, faulty, 14);
        let adversary = GhostCandidateAdversary::new(5, 16, 14);
        let ghost = format!(
            "{:?}",
            ConsensusMsg::<u64>::RotorEcho(adversary.ghosts()[0])
        );
        let run = run_early(&setup, adversary);
        let re_echoed =
            |s: &TraceEvent| matches!(send_fields(s), (.., payload, false) if payload == ghost);
        assert_eq!(
            run.1.iter().any(re_echoed),
            faulty == 3,
            "correct nodes re-echo a ghost iff it reaches n_v/3"
        );
        writeln!(text, "== {faulty} of 9 faulty ==").unwrap();
        text.push_str(&digest(&run));
    }
    assert_eq!(text.matches("(n_v 9)").count(), 7 + 6, "faulty ids count");
    check("early-ghost-candidates-n9", &text);
}
