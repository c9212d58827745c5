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
//! broadcast and one unicast per peer each round, at 4 shards and at 32,
//! batch bytes only beside `Event`, `Input` and `Opinion` — and shows that
//! an honest member never hides a message. One scripted member then
//! repeats items in its bundles, sends its events to one peer only, names
//! digests it never shipped with bytes that do not match them, ships a
//! fresh batch every round, or names one old batch's digest every round:
//! the honest members still agree, output and send what they would without
//! the script where the script only adds what is hidden, and hold a bounded
//! store that lets a batch go once its wave is final. Five of sixteen
//! members that leave mid-ingest shrink every honest member's `S` while
//! waves that started with all sixteen are in flight; those waves' batches
//! stay stored until they are final. Shards partition the keys of one
//! ordering instance, so at 1, 4 and 32 shards every member sends the same
//! messages at the same sizes, and each shard's prefix is the one-shard
//! log's records of that shard; only the per-shard sequence numbers
//! differ.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use uba::core::ordering::OrderMsg;
use uba::core::parallel::ParMsg;
use uba::net::{service_horizon, shard_of, Digest, Item, LogIngress, Record, ShardedLog, Wire};
use uba::sim::{sparse_ids, Context, Dest, NodeId, Process, Stepper, SyncEngine};
use uba::trace::SharedRuntimeMetrics;

/// FNV-1a over `bytes`: a digest fixed by its definition.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

type Bundle = <ShardedLog as Process>::Msg;

/// What one member sent in one round: its broadcasts, its unicasts by
/// recipient, every message's encoded size and a digest of every message's
/// `Wire` bytes, both in send order, the bundles themselves, and the bytes
/// of batches it held at the end of the round.
#[derive(Debug, PartialEq)]
struct RoundSends {
    member: NodeId,
    round: u64,
    broadcasts: usize,
    unicasts: Vec<NodeId>,
    sizes: Vec<usize>,
    digest: u64,
    bundles: Vec<Bundle>,
    stored: usize,
}

/// What the scripted members do with what their `ShardedLog` sends; every
/// other member sends it as it is.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Script {
    Honest,
    /// Sends every bundle item twice, and from round 2 on also unicasts
    /// its broadcast bundle to each peer: every item it broadcasts then
    /// reaches each peer four times in one round.
    Repeating,
    /// Sends its `Event`s to its first peer only, and round 1's, before
    /// it may address anyone, to nobody.
    PartialEvent,
    /// Follows every item that names a digest with a twin that names one
    /// it never shipped — carrying the original's bytes where its kind
    /// carries bytes, so they never match.
    Forging,
    /// Broadcasts a fresh, valid 8 KiB batch as an extra `Event` every
    /// round.
    Flooding,
    /// Broadcasts `Absent` in round 12, in the middle of ingest.
    Leaving,
    /// Broadcasts a valid 8 KiB batch as an extra `Event` in round 2, then
    /// names its digest in a `Prefer` of the current wave every round.
    Renaming,
}

/// The 8 KiB batch a [`Script::Renaming`] member ships and keeps naming.
fn renamed_batch(member: NodeId) -> Vec<u8> {
    vec![Record {
        key: "renamed".to_string(),
        payload: vec![b'r'; 8 << 10],
        node: member.raw(),
        seq: 0,
    }]
    .to_bytes()
}

/// A member that runs `ShardedLog` through its own [`Stepper`], notes every
/// round's sends, and passes them on as its [`Script`] says.
struct Watched {
    inner: Stepper<ShardedLog>,
    log: Rc<RefCell<Vec<RoundSends>>>,
    script: Script,
    peers: Vec<NodeId>,
}

/// `item`'s twin naming a digest nobody shipped, or `None` where `item`
/// names no digest.
fn forged(item: &Item, round: u64) -> Option<Item> {
    let never = Digest::of(format!("never shipped {round}").as_bytes());
    let msg = match item.msg().clone() {
        OrderMsg::Event(_, at) => OrderMsg::Event(never, at),
        OrderMsg::Wave(wave, part) => OrderMsg::Wave(
            wave,
            match part {
                ParMsg::Input(id, _) => ParMsg::Input(id, never),
                ParMsg::Opinion(id, Some(_)) => ParMsg::Opinion(id, Some(never)),
                ParMsg::Prefer(id, Some(_)) => ParMsg::Prefer(id, Some(never)),
                ParMsg::StrongPrefer(id, Some(_)) => ParMsg::StrongPrefer(id, Some(never)),
                _ => return None,
            },
        ),
        _ => return None,
    };
    Item::new(msg, item.batch().map(<[u8]>::to_vec))
}

impl Process for Watched {
    type Msg = Bundle;
    type Output = <ShardedLog as Process>::Output;

    fn id(&self) -> NodeId {
        self.inner.process().id()
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let round = ctx.round();
        let mut noted = RoundSends {
            member: self.id(),
            round,
            broadcasts: 0,
            unicasts: Vec::new(),
            sizes: Vec::new(),
            digest: 0,
            bundles: Vec::new(),
            stored: 0,
        };
        let mut bytes = Vec::new();
        for out in self.inner.step(round, ctx.inbox()) {
            let start = bytes.len();
            out.msg.encode(&mut bytes);
            noted.sizes.push(bytes.len() - start);
            noted.bundles.push(out.msg.clone());
            let mut msg = out.msg;
            match (self.script, out.dest) {
                (Script::Repeating, _) => {
                    msg = msg
                        .into_iter()
                        .flat_map(|item| [item.clone(), item])
                        .collect();
                }
                (Script::Forging, _) => {
                    msg = msg
                        .into_iter()
                        .flat_map(|item| {
                            let twin = forged(&item, round);
                            [Some(item), twin].into_iter().flatten()
                        })
                        .collect();
                }
                (Script::PartialEvent, Dest::Broadcast) => {
                    let (events, rest): (Bundle, Bundle) = msg
                        .into_iter()
                        .partition(|item| matches!(item.msg(), OrderMsg::Event(..)));
                    // Round 1's goes to nobody: no peer may be addressed
                    // before it has been heard from.
                    if round > 1 && !events.is_empty() {
                        ctx.send(self.peers[0], events);
                    }
                    msg = rest;
                }
                (Script::Flooding, Dest::Broadcast) => {
                    let fresh = vec![Record {
                        key: format!("flood-{round}"),
                        payload: vec![round as u8; 8 << 10],
                        node: self.id().raw(),
                        seq: round,
                    }]
                    .to_bytes();
                    let event = OrderMsg::Event(Digest::of(&fresh), round);
                    msg.extend(Item::new(event, Some(fresh)));
                }
                (Script::Leaving, Dest::Broadcast) if round == 12 => {
                    msg.extend(Item::new(OrderMsg::Absent, None));
                }
                (Script::Renaming, Dest::Broadcast) if round >= 2 => {
                    let batch = renamed_batch(self.id());
                    let digest = Digest::of(&batch);
                    msg.extend(if round == 2 {
                        Item::new(OrderMsg::Event(digest, round), Some(batch))
                    } else {
                        let prefer = ParMsg::Prefer(self.id(), Some(digest));
                        Item::new(OrderMsg::Wave(round, prefer), None)
                    });
                }
                _ => {}
            }
            match out.dest {
                Dest::Broadcast => {
                    noted.broadcasts += 1;
                    if self.script == Script::Repeating && round >= 2 {
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
        noted.stored = self.inner.process().stored_bytes();
        self.log.borrow_mut().push(noted);
    }

    fn output(&self) -> Option<Self::Output> {
        self.inner.process().output()
    }

    fn terminated(&self) -> bool {
        self.inner.process().terminated()
    }
}

/// One watched run: `members` members on `shards` shards, the first
/// `scripted` of them following `script`, submissions through round
/// `ingest_until`, and `payload` bytes of padding behind every record's
/// payload.
#[derive(Clone, Copy)]
struct Shape {
    members: usize,
    scripted: usize,
    shards: u32,
    script: Script,
    ingest_until: u64,
    payload: usize,
}

impl Shape {
    fn new(shards: u32, script: Script) -> Self {
        Shape {
            members: 4,
            scripted: 1,
            shards,
            script,
            ingest_until: 24,
            payload: 0,
        }
    }
}

/// What a watched run leaves: each member's finalized prefixes, the
/// scripted members' first, every member's sends per round, the messages
/// the members without a script hid, and the scripted members.
struct Watch {
    outputs: Vec<Vec<Vec<Record>>>,
    sends: Vec<RoundSends>,
    hidden: u64,
    scripted: Vec<NodeId>,
}

/// Runs the members as `shape` says. Before each of rounds
/// 1..=`ingest_until`, every member takes two submissions whose keys
/// spread over the shards.
fn run_watched(shape: Shape) -> Watch {
    let ids = sparse_ids(shape.members, 34);
    let scripted = ids[..shape.scripted].to_vec();
    let ingest_until = shape.ingest_until;
    let horizon = service_horizon(ids.len(), ingest_until);
    let ingresses: Vec<LogIngress> = ids.iter().map(|_| LogIngress::new(shape.shards)).collect();
    let log = Rc::new(RefCell::new(Vec::new()));
    let registry = SharedRuntimeMetrics::new();
    let members = ids.iter().zip(&ingresses).map(|(&id, ingress)| {
        let mut member = ShardedLog::new(id, ingress.clone(), ingest_until, horizon);
        let script = if scripted.contains(&id) {
            shape.script
        } else {
            member = member.with_runtime_metrics(registry.clone());
            Script::Honest
        };
        Watched {
            inner: Stepper::new(member),
            log: Rc::clone(&log),
            script,
            peers: ids.iter().copied().filter(|&peer| peer != id).collect(),
        }
    });
    let mut engine = SyncEngine::builder().correct_many(members).build();
    for round in 1..=ingest_until {
        for (m, (ingress, id)) in ingresses.iter().zip(&ids).enumerate() {
            for i in 0..2 {
                let key = format!("m{m}-r{round}-{i}");
                let mut payload = format!("payload {m}/{round}/{i}").into_bytes();
                payload.resize(payload.len() + shape.payload, b'.');
                ingress.submit(key, payload, id.raw()).expect("ingest open");
            }
        }
        engine.run_round();
    }
    let done = engine.run_to_completion(200).expect("horizon reached");
    drop(engine);
    let log = Rc::try_unwrap(log).expect("the engine is gone");
    Watch {
        outputs: ids.iter().map(|id| done.outputs[id].clone()).collect(),
        sends: log.into_inner(),
        hidden: registry.snapshot().counter("logd_hidden_items_total"),
        scripted,
    }
}

/// The sends of the members without a script.
fn honest(watch: Watch) -> Vec<RoundSends> {
    let scripted = watch.scripted;
    watch
        .sends
        .into_iter()
        .filter(|noted| !scripted.contains(&noted.member))
        .collect()
}

/// Asserts that the members without a script finalized identical
/// prefixes, which hold every record those members acked exactly once and
/// no record twice.
fn assert_acked_records_ordered_once(watch: &Watch, shape: Shape) {
    let outputs = &watch.outputs[shape.scripted..];
    assert!(
        outputs.iter().all(|output| output == &outputs[0]),
        "honest members finalized different prefixes"
    );
    let mut count: BTreeMap<(String, u64), usize> = BTreeMap::new();
    for record in outputs[0].iter().flatten() {
        *count.entry((record.key.clone(), record.node)).or_default() += 1;
    }
    let ids = sparse_ids(shape.members, 34);
    for (m, id) in ids.iter().enumerate().skip(shape.scripted) {
        for round in 1..=shape.ingest_until {
            for i in 0..2 {
                let key = (format!("m{m}-r{round}-{i}"), id.raw());
                assert_eq!(count.get(&key), Some(&1), "{key:?}");
            }
        }
    }
    assert!(count.values().all(|&n| n == 1), "a record ordered twice");
}

#[test]
fn four_members_on_four_shards_finalize_the_pinned_prefixes() {
    let watch = run_watched(Shape::new(4, Script::Honest));
    let outputs = watch.outputs;
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
    assert_eq!(watch.hidden, 0, "an honest member hid a message");
}

#[test]
fn a_member_sends_one_broadcast_and_one_unicast_per_peer_each_round() {
    for shards in [4, 32] {
        let Watch { outputs, sends, .. } = run_watched(Shape::new(shards, Script::Honest));
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

/// With 8 KiB records, every `Event`, `Input` and non-`⊥` `Opinion` a
/// member sends carries the bytes of the batch it names, and no `Prefer`
/// or `StrongPrefer` carries any.
#[test]
fn batch_bytes_travel_only_beside_events_inputs_and_opinions() {
    let watch = run_watched(Shape {
        payload: 8 << 10,
        ..Shape::new(4, Script::Honest)
    });
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for item in watch
        .sends
        .iter()
        .flat_map(|noted| noted.bundles.iter().flatten())
    {
        let (kind, digest) = match item.msg() {
            OrderMsg::Event(digest, _) => ("event", Some(digest)),
            OrderMsg::Wave(_, ParMsg::Input(_, digest)) => ("input", Some(digest)),
            OrderMsg::Wave(_, ParMsg::Opinion(_, Some(digest))) => ("opinion", Some(digest)),
            OrderMsg::Wave(_, ParMsg::Prefer(_, Some(_))) => ("prefer", None),
            OrderMsg::Wave(_, ParMsg::StrongPrefer(_, Some(_))) => ("strongprefer", None),
            _ => ("other", None),
        };
        *seen.entry(kind).or_default() += 1;
        match digest {
            Some(&digest) => {
                let batch = item.batch().expect("the bytes beside it");
                assert!(batch.len() > 8 << 10, "{kind}: a whole batch");
                assert_eq!(Digest::of(batch), digest, "{kind}: the batch it names");
            }
            None => assert_eq!(item.batch(), None, "{kind} carries bytes"),
        }
    }
    for kind in ["event", "input", "opinion", "prefer", "strongprefer"] {
        assert!(seen.get(kind) > Some(&0), "no {kind} sent: {seen:?}");
    }
    assert_eq!(watch.hidden, 0, "an honest member hid a message");
}

#[test]
fn items_a_member_repeats_change_nothing_honest_members_output_or_send() {
    let plain = run_watched(Shape::new(4, Script::Honest));
    let repeated = run_watched(Shape::new(4, Script::Repeating));
    assert!(
        plain.outputs == repeated.outputs,
        "a repeated item changed what a member finalized"
    );
    let (sends, repeated_sends) = (honest(plain), honest(repeated));
    assert!(!sends.is_empty());
    assert!(
        sends == repeated_sends,
        "a repeated item changed what an honest member sent"
    );
}

/// A member that sends its events to one peer only: that peer ships the
/// batches in its `Input`s, so no honest member hides a message, all three
/// finalize identical prefixes, and every record they acked is in them
/// exactly once.
#[test]
fn an_event_sent_to_one_member_only_leaves_the_honest_members_agreed() {
    let shape = Shape::new(4, Script::PartialEvent);
    let watch = run_watched(shape);
    assert_acked_records_ordered_once(&watch, shape);
    assert_eq!(watch.hidden, 0, "an honest member hid a message");
}

/// Five of sixteen members broadcast `Absent` in round 12: every honest
/// member's `S` falls from 16 to 11 while waves that started with 16
/// members are in flight, and those waves are final 43 rounds in, by the
/// `|S|` they started with. Their batches stay stored until then, so the
/// eleven honest members finalize identical prefixes that hold every
/// record they acked exactly once.
#[test]
fn members_leaving_mid_ingest_leave_every_acked_record_ordered_once() {
    let shape = Shape {
        members: 16,
        scripted: 5,
        ..Shape::new(4, Script::Leaving)
    };
    let watch = run_watched(shape);
    assert_acked_records_ordered_once(&watch, shape);
}

/// A member that names digests it never shipped, with bytes that do not
/// match them where the kind carries bytes: the honest members hide every
/// such message and output and send exactly what they do when the member
/// leaves them out.
#[test]
fn digests_nobody_shipped_are_hidden_as_if_left_out() {
    let plain = run_watched(Shape::new(4, Script::Honest));
    let forging = run_watched(Shape::new(4, Script::Forging));
    assert!(forging.hidden > 0, "nothing was forged");
    assert!(
        plain.outputs == forging.outputs,
        "a forged digest changed what a member finalized"
    );
    let (sends, forged_sends) = (honest(plain), honest(forging));
    assert!(
        sends == forged_sends,
        "a forged digest changed what an honest member sent"
    );
}

/// A member that ships a fresh, valid 8 KiB batch every round: an honest
/// member's store holds at most the finality margin's rounds of batches,
/// whether the run lasts 24 rounds of ingest or 96 — far less than the
/// member shipped over the longer run.
#[test]
fn a_fresh_batch_every_round_leaves_the_honest_store_bounded() {
    let margin = service_horizon(4, 0) as usize;
    // The flood's batch and the three honest members' batches of a round.
    let per_round = (8 << 10) + 1024;
    for ingest_until in [24, 96] {
        let watch = run_watched(Shape {
            ingest_until,
            ..Shape::new(4, Script::Flooding)
        });
        let outputs = &watch.outputs[1..];
        assert!(outputs.iter().all(|output| output == &outputs[0]));
        let rounds = watch.sends.iter().map(|noted| noted.round).max();
        let flooded = rounds.expect("rounds ran") as usize * (8 << 10);
        let stored = honest(watch).iter().map(|noted| noted.stored).max();
        let stored = stored.expect("rounds ran");
        assert!(
            stored <= margin * per_round,
            "{ingest_until} rounds of ingest: {stored} bytes stored"
        );
        if ingest_until == 96 {
            assert!(
                4 * stored < flooded,
                "{stored} bytes held against {flooded} shipped"
            );
        }
    }
}

#[test]
fn the_shard_count_changes_no_message_a_member_sends_but_its_sequence_numbers() {
    // A record without its per-shard sequence number.
    let unsequenced = |record: &Record| (record.key.clone(), record.payload.clone(), record.node);
    let Watch {
        outputs: one,
        sends: one_sends,
        ..
    } = run_watched(Shape::new(1, Script::Honest));
    let log = &one[0][0];
    assert_eq!(log.len(), 4 * 24 * 2, "every submission ordered once");
    for shards in [4, 32] {
        let Watch { outputs, sends, .. } = run_watched(Shape::new(shards, Script::Honest));
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
                "{shards} shards: different traffic in round {} of {:?}",
                noted.round,
                noted.member
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

/// A member that ships an 8 KiB batch in round 2, which lands in wave 3,
/// and then names its digest in a `Prefer` of the current wave every
/// round: the honest members still agree and order every record they acked
/// exactly once, and no honest store holds the batch once wave 3 is final,
/// however often it is named.
#[test]
fn a_batch_named_every_round_leaves_the_store_when_its_wave_is_final() {
    let shape = Shape::new(4, Script::Renaming);
    let watch = run_watched(shape);
    assert_acked_records_ordered_once(&watch, shape);
    let batch = renamed_batch(watch.scripted[0]).len();
    // Wave 3 is final once 2(r - 3) > 5|S| + 4.
    let final_at = 3 + (5 * shape.members as u64 + 4) / 2 + 1;
    let sends = honest(watch);
    assert!(
        sends
            .iter()
            .all(|noted| noted.round != 3 || noted.stored > batch),
        "the batch was never stored"
    );
    for noted in sends.iter().filter(|noted| noted.round >= final_at) {
        assert!(
            noted.stored < batch,
            "round {} of {:?}: {} bytes stored",
            noted.round,
            noted.member,
            noted.stored
        );
    }
}
