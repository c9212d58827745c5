//! The log service's rounds, without a clock or a socket.
//!
//! Four `ShardedLog` members run on a `SyncEngine`, with submissions
//! arriving at every member for the first 24 rounds. Every member must
//! finalize the same per-shard prefixes, and those prefixes are pinned: their
//! per-shard lengths and an FNV-1a digest of their `Wire` bytes (not std's
//! hasher, whose algorithm may change between releases). A change to how
//! the service moves its shard traffic must leave both unchanged.
//!
//! The same run, watched, bounds what a member puts on the wire — one
//! broadcast and one unicast per peer each round, at 4 shards and at 32 —
//! and shows that a member repeating items in its bundles changes nothing
//! an honest member outputs or sends. Shards partition the keys of one
//! ordering instance, so at 1, 4 and 32 shards every member sends the same
//! messages at the same sizes, and each shard's prefix is the one-shard
//! log's records of that shard; only the per-shard sequence numbers differ.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use uba::net::{service_horizon, shard_of, LogIngress, Record, ShardedLog, Wire};
use uba::sim::{sparse_ids, Context, Dest, NodeId, Process, Stepper, SyncEngine};

/// FNV-1a over `bytes`: a digest fixed by its definition.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What one member sent in one round: its broadcasts, its unicasts by
/// recipient, every message's encoded size and a digest of every message's
/// `Wire` bytes, both in send order.
#[derive(Debug, PartialEq)]
struct RoundSends {
    member: NodeId,
    round: u64,
    broadcasts: usize,
    unicasts: Vec<NodeId>,
    sizes: Vec<usize>,
    digest: u64,
}

/// A member that runs `ShardedLog` through its own [`Stepper`] and notes
/// every round's sends before passing them on. A `repeating` member sends
/// every bundle item twice, and from round 2 on also unicasts its
/// broadcast bundle to each of `peers`: every item it broadcasts then
/// reaches each peer four times in one round.
struct Watched {
    inner: Stepper<ShardedLog>,
    log: Rc<RefCell<Vec<RoundSends>>>,
    repeating: bool,
    peers: Vec<NodeId>,
}

impl Process for Watched {
    type Msg = <ShardedLog as Process>::Msg;
    type Output = <ShardedLog as Process>::Output;

    fn id(&self) -> NodeId {
        self.inner.process().id()
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let mut noted = RoundSends {
            member: self.id(),
            round: ctx.round(),
            broadcasts: 0,
            unicasts: Vec::new(),
            sizes: Vec::new(),
            digest: 0,
        };
        let mut bytes = Vec::new();
        for out in self.inner.step(ctx.round(), ctx.inbox()) {
            let start = bytes.len();
            out.msg.encode(&mut bytes);
            noted.sizes.push(bytes.len() - start);
            let mut msg = out.msg;
            if self.repeating {
                msg = msg
                    .into_iter()
                    .flat_map(|item| [item.clone(), item])
                    .collect();
            }
            match out.dest {
                Dest::Broadcast => {
                    noted.broadcasts += 1;
                    if self.repeating && ctx.round() >= 2 {
                        for &peer in &self.peers {
                            ctx.send(peer, msg.clone());
                        }
                    }
                    ctx.broadcast(msg);
                }
                Dest::To(to) => {
                    noted.unicasts.push(to);
                    ctx.send(to, msg);
                }
            }
        }
        noted.digest = fnv1a(&bytes);
        self.log.borrow_mut().push(noted);
    }

    fn output(&self) -> Option<Self::Output> {
        self.inner.process().output()
    }

    fn terminated(&self) -> bool {
        self.inner.process().terminated()
    }
}

/// Runs four members over `shards` shards, the first of them `repeating`
/// (see [`Watched`]). Before each of rounds 1..=24, every member takes two
/// submissions whose keys spread over the shards. Returns each member's
/// finalized prefixes, in id order, and every member's sends per round.
fn run_watched(shards: u32, repeating: bool) -> (Vec<Vec<Vec<Record>>>, Vec<RoundSends>) {
    let ids = sparse_ids(4, 34);
    let ingest_until = 24;
    let horizon = service_horizon(ids.len(), ingest_until);
    let ingresses: Vec<LogIngress> = ids.iter().map(|_| LogIngress::new(shards)).collect();
    let log = Rc::new(RefCell::new(Vec::new()));
    let members = ids.iter().zip(&ingresses).map(|(&id, ingress)| Watched {
        inner: Stepper::new(ShardedLog::new(id, ingress.clone(), ingest_until, horizon)),
        log: Rc::clone(&log),
        repeating: repeating && id == ids[0],
        peers: ids.iter().copied().filter(|&peer| peer != id).collect(),
    });
    let mut engine = SyncEngine::builder().correct_many(members).build();
    for round in 1..=ingest_until {
        for (m, (ingress, id)) in ingresses.iter().zip(&ids).enumerate() {
            for i in 0..2 {
                let key = format!("m{m}-r{round}-{i}");
                let payload = format!("payload {m}/{round}/{i}").into_bytes();
                ingress.submit(key, payload, id.raw()).expect("ingest open");
            }
        }
        engine.run_round();
    }
    let done = engine.run_to_completion(200).expect("horizon reached");
    drop(engine);
    let log = Rc::try_unwrap(log).expect("the engine is gone");
    (done.outputs.into_values().collect(), log.into_inner())
}

/// As [`run_watched`], every member honest; the finalized prefixes only.
fn run(shards: u32) -> Vec<Vec<Vec<Record>>> {
    run_watched(shards, false).0
}

#[test]
fn four_members_on_four_shards_finalize_the_pinned_prefixes() {
    let outputs = run(4);
    for output in &outputs {
        assert!(
            output == &outputs[0],
            "members finalized different prefixes"
        );
    }
    let lengths: Vec<usize> = outputs[0].iter().map(Vec::len).collect();
    assert_eq!(lengths, [48, 48, 48, 48], "per-shard prefix lengths");
    assert_eq!(
        lengths.iter().sum::<usize>(),
        4 * 24 * 2,
        "every submission ordered once"
    );
    assert_eq!(
        fnv1a(&outputs[0].to_bytes()),
        0x6793_19ec_9657_a541,
        "digest of the finalized prefixes"
    );
}

#[test]
fn a_member_sends_one_broadcast_and_one_unicast_per_peer_each_round() {
    for shards in [4, 32] {
        let (outputs, sends) = run_watched(shards, false);
        assert!(outputs.iter().all(|output| output == &outputs[0]));
        let total: usize = outputs[0].iter().map(Vec::len).sum();
        assert_eq!(
            total,
            4 * 24 * 2,
            "{shards} shards: every submission ordered once"
        );
        for noted in &sends {
            let peers: BTreeSet<NodeId> = noted.unicasts.iter().copied().collect();
            assert!(
                noted.broadcasts <= 1 && peers.len() == noted.unicasts.len(),
                "{shards} shards: more than one bundle per destination: {noted:?}"
            );
        }
        assert!(sends.iter().any(|noted| noted.broadcasts == 1));
        assert!(sends.iter().any(|noted| !noted.unicasts.is_empty()));
    }
}

#[test]
fn items_a_member_repeats_change_nothing_honest_members_output_or_send() {
    let (outputs, sends) = run_watched(4, false);
    let (repeated_outputs, repeated_sends) = run_watched(4, true);
    assert!(
        outputs == repeated_outputs,
        "a repeated item changed what a member finalized"
    );
    let repeater = sparse_ids(4, 34)[0];
    let honest = |sends: Vec<RoundSends>| -> Vec<RoundSends> {
        sends
            .into_iter()
            .filter(|noted| noted.member != repeater)
            .collect()
    };
    let (sends, repeated_sends) = (honest(sends), honest(repeated_sends));
    assert!(!sends.is_empty());
    assert!(
        sends == repeated_sends,
        "a repeated item changed what an honest member sent"
    );
}

#[test]
fn the_shard_count_changes_no_message_a_member_sends_but_its_sequence_numbers() {
    // A record without its per-shard sequence number.
    let unsequenced = |record: &Record| (record.key.clone(), record.payload.clone(), record.node);
    let (one, one_sends) = run_watched(1, false);
    let log = &one[0][0];
    assert_eq!(log.len(), 4 * 24 * 2, "every submission ordered once");
    for shards in [4, 32] {
        let (outputs, sends) = run_watched(shards, false);
        // Who sent what to whom in each round, and how many bytes each
        // message took: everything but the digest, which covers the `seq`s.
        assert_eq!(sends.len(), one_sends.len(), "{shards} shards: rounds");
        for (noted, one) in sends.iter().zip(&one_sends) {
            assert!(
                (
                    noted.member,
                    noted.round,
                    noted.broadcasts,
                    &noted.unicasts,
                    &noted.sizes
                ) == (
                    one.member,
                    one.round,
                    one.broadcasts,
                    &one.unicasts,
                    &one.sizes
                ),
                "{shards} shards: different traffic: {noted:?} against {one:?}"
            );
        }
        for output in &outputs {
            assert_eq!(output.len(), shards as usize);
            for (shard, prefix) in output.iter().enumerate() {
                let home = log
                    .iter()
                    .filter(|record| shard_of(&record.key, shards) == shard as u32);
                assert!(
                    prefix.iter().map(unsequenced).eq(home.map(unsequenced)),
                    "{shards} shards: shard {shard} is not the one-shard log's records of it"
                );
            }
        }
    }
}
