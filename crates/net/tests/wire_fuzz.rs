//! Fuzz-style property tests for the frame codec: arbitrary bytes must
//! never panic the reader or make it over-allocate, truncation must never
//! yield a successful parse, and every valid frame must round-trip.
//!
//! A second block does the same to the log service's bundle items: a
//! digest cut short, a bytes flag with no batch behind it, a flag that
//! disagrees with the item's kind, and a batch length past the end of the
//! input must each make the bundle malformed, never a panic.
//!
//! The last block points the same hostility at *live endpoints*: a
//! [`NetNode`] and a [`serve_clients`] log service fed arbitrary
//! adversarial byte streams — truncated, interleaved, duplicated frames,
//! raw garbage — must only ever answer with typed errors and disconnects,
//! never a panic or a hang.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;
use uba_core::ordering::OrderMsg;
use uba_core::parallel::ParMsg;
use uba_net::{
    read_frame, serve_clients, write_frame, Digest, Frame, Item, LogIngress, NetConfig, NetNode,
    Record, Wire, MAX_FRAME,
};
use uba_sim::{Context, NodeId, Process};
use uba_trace::NoopTracer;

/// Builds one frame from sampled primitives (the vendored proptest has no
/// `prop_oneof`, so variant selection is an explicit index).
fn build_frame(
    selector: u8,
    a: u64,
    b: u64,
    flag: bool,
    bytes: Vec<u8>,
    nested: Vec<Vec<u8>>,
) -> Frame {
    match selector % 10 {
        0 => Frame::Hello {
            node: NodeId::new(a),
        },
        1 => Frame::Data {
            round: a,
            payload: bytes,
        },
        2 => Frame::Done {
            round: a,
            decided: flag,
        },
        3 => Frame::SyncRequest { since: a },
        4 => Frame::SyncTips {
            current_round: a,
            oldest_retained: b,
            decided: flag,
        },
        5 => Frame::Backfill {
            round: a,
            done: flag,
            decided: !flag,
            payloads: nested,
        },
        6 => Frame::Submit {
            // Any valid UTF-8 key must survive the wire; lossy conversion
            // turns the sampled bytes into one.
            key: String::from_utf8_lossy(&bytes).into_owned(),
            payload: nested.into_iter().next().unwrap_or_default(),
        },
        7 => Frame::SubmitAck {
            shard: a as u32,
            seq: b,
        },
        8 => Frame::ReadPrefix {
            shard: a as u32,
            from: b,
        },
        _ => Frame::PrefixChunk {
            shard: a as u32,
            from: b,
            sealed: flag,
            records: nested,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_reader(bytes in vec(0u8..=255, 0..64)) {
        // Drain the "stream" like the connection reader does: frames until
        // clean EOF or an error. Every outcome but a panic is acceptable.
        let mut reader = &bytes[..];
        while let Ok(Some(_)) = read_frame(&mut reader) {}
    }

    #[test]
    fn arbitrary_bodies_never_panic_the_decoder(body in vec(0u8..=255, 0..48)) {
        // decode_body is private; drive it through a well-formed length
        // prefix so only the body bytes are under test.
        let mut stream = Vec::with_capacity(4 + body.len());
        stream.extend_from_slice(&(body.len() as u32).to_le_bytes());
        stream.extend_from_slice(&body);
        let _ = read_frame(&mut &stream[..]);
    }

    #[test]
    fn oversized_length_prefixes_are_rejected_before_allocating(
        excess in 1u64..=u32::MAX as u64 - MAX_FRAME as u64,
    ) {
        // The length prefix is attacker-controlled; the reader must refuse
        // it without allocating the claimed buffer (this property OOMs the
        // test run if the guard regresses to allocate-first).
        let len = MAX_FRAME + excess as u32;
        let mut stream = Vec::new();
        stream.extend_from_slice(&len.to_le_bytes());
        stream.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut &stream[..]).unwrap_err();
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn valid_frames_round_trip(
        selector in 0u8..10,
        a in 0u64..=u64::MAX,
        b in 0u64..=u64::MAX,
        flag in 0u8..2,
        bytes in vec(0u8..=255, 0..32),
        nested in vec(vec(0u8..=255, 0..16), 0..6),
    ) {
        let frame = build_frame(selector, a, b, flag == 1, bytes, nested);
        let mut stream = Vec::new();
        write_frame(&mut stream, &frame).unwrap();
        let mut reader = &stream[..];
        prop_assert_eq!(read_frame(&mut reader).unwrap(), Some(frame));
        prop_assert_eq!(read_frame(&mut reader).unwrap(), None);
    }

    #[test]
    fn truncation_never_parses(
        selector in 0u8..10,
        a in 0u64..=u64::MAX,
        b in 0u64..=u64::MAX,
        flag in 0u8..2,
        bytes in vec(0u8..=255, 0..32),
        nested in vec(vec(0u8..=255, 0..16), 0..6),
        cut in 1usize..64,
    ) {
        let frame = build_frame(selector, a, b, flag == 1, bytes, nested);
        let mut stream = Vec::new();
        write_frame(&mut stream, &frame).unwrap();
        let keep = stream.len().saturating_sub(cut.min(stream.len()));
        match read_frame(&mut &stream[..keep]) {
            Ok(None) => prop_assert_eq!(keep, 0, "only an empty prefix is a clean EOF"),
            Ok(Some(_)) => prop_assert!(false, "a truncated frame parsed"),
            Err(_) => {}
        }
    }

    #[test]
    fn garbage_prefixed_to_a_valid_frame_never_misattributes(
        garbage in vec(0u8..=255, 1..12),
        round in 0u64..1000,
    ) {
        // A stream that starts with garbage either errors out or yields
        // frames that are NOT silently equal to the appended valid one
        // read at the wrong offset — the reader must never resynchronize
        // mid-stream (TCP gives it a clean byte stream; anything else is
        // corruption, surfaced as an error or EOF).
        let mut stream = garbage.clone();
        write_frame(&mut stream, &Frame::Done { round, decided: false }).unwrap();
        let mut reader = &stream[..];
        while let Ok(Some(_)) = read_frame(&mut reader) {}
    }
}

/// The messages a bundle item names a digest in, with the offset of the
/// digest in each one's encoding.
fn naming(id: NodeId, round: u64, digest: Digest) -> [(OrderMsg<Digest>, usize); 5] {
    // Tag, wave, wave tag, instance (and option tag) before a wave value.
    [
        (OrderMsg::Event(digest, round), 1),
        (OrderMsg::Wave(round, ParMsg::Input(id, digest)), 18),
        (OrderMsg::Wave(round, ParMsg::Opinion(id, Some(digest))), 19),
        (OrderMsg::Wave(round, ParMsg::Prefer(id, Some(digest))), 19),
        (
            OrderMsg::Wave(round, ParMsg::StrongPrefer(id, Some(digest))),
            19,
        ),
    ]
}

/// A one-item bundle: its count, then `item`'s bytes.
fn bundle_of(item: &[u8]) -> Vec<u8> {
    [&1u32.to_le_bytes()[..], item].concat()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hostile_bundle_items_never_decode(
        id in 0u64..=u64::MAX,
        round in 0u64..=u64::MAX,
        payload in vec(0u8..=255, 0..64),
        cut in 1usize..=32,
        excess in 1u32..=u32::MAX / 2,
    ) {
        let batch = vec![Record { key: String::from("k"), payload, node: id, seq: round }]
            .to_bytes();
        let digest = Digest::of(&batch);
        for (msg, at) in naming(NodeId::new(id), round, digest) {
            let encoded = msg.to_bytes();
            prop_assert_eq!(&encoded[at..at + 32], &digest.to_bytes()[..]);
            // The item as shipped decodes; bytes only where the kind
            // carries them.
            let item = Item::new(msg.clone(), Some(batch.clone()))
                .or_else(|| Item::new(msg.clone(), None))
                .expect("one of the two is an item");
            let valid = bundle_of(&item.to_bytes());
            prop_assert_eq!(Vec::<Item>::from_bytes(&valid), Some(vec![item.clone()]));
            let carries = item.batch().is_some();

            // A digest cut short, with nothing or the rest of the item
            // behind it.
            let short = &encoded[..at + 32 - cut];
            prop_assert_eq!(Vec::<Item>::from_bytes(&bundle_of(short)), None);
            let shifted = [short, &encoded[at + 32..], &[0]].concat();
            prop_assert_eq!(Vec::<Item>::from_bytes(&bundle_of(&shifted)), None);

            // The bytes flag set with no batch behind it, or with a batch
            // on a kind that carries none; cleared on a kind that carries
            // one.
            let flagged = [&encoded[..], &[1]].concat();
            prop_assert_eq!(Vec::<Item>::from_bytes(&bundle_of(&flagged)), None);
            let mut unasked = flagged.clone();
            batch.encode(&mut unasked);
            if carries {
                let bare = [&encoded[..], &[0]].concat();
                prop_assert_eq!(Vec::<Item>::from_bytes(&bundle_of(&bare)), None);
            } else {
                prop_assert_eq!(Vec::<Item>::from_bytes(&bundle_of(&unasked)), None);
            }

            // A batch length past the end of the input, alone or behind a
            // valid item.
            let claim = (batch.len() as u32).saturating_add(excess);
            let oversized = [&flagged[..], &claim.to_le_bytes(), &batch].concat();
            prop_assert_eq!(Vec::<Item>::from_bytes(&bundle_of(&oversized)), None);
            let mut two = 2u32.to_le_bytes().to_vec();
            item.encode(&mut two);
            two.extend_from_slice(&oversized);
            prop_assert_eq!(Vec::<Item>::from_bytes(&two), None);
        }
    }
}

/// A one-round broadcast process for the live-node fuzz below.
struct OneShot {
    id: NodeId,
    out: Option<u64>,
}

impl Process for OneShot {
    type Msg = u64;
    type Output = u64;

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_round(&mut self, ctx: &mut Context<'_, u64>) {
        if ctx.round() == 1 {
            ctx.broadcast(1);
        } else {
            self.out = Some(ctx.inbox().len() as u64);
        }
    }

    fn output(&self) -> Option<u64> {
        self.out
    }
}

/// One adversarial stream built from sampled segments: valid frames,
/// duplicated frames, truncated frames, and raw garbage, interleaved in
/// sampled order (the vendored proptest has no tuple strategies, so the
/// segment list arrives as parallel vectors).
fn hostile_stream(selectors: &[u8], rounds: &[u64], garbage: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, selector) in selectors.iter().enumerate() {
        let round = rounds.get(i).copied().unwrap_or(i as u64);
        match selector % 5 {
            0 => write_frame(
                &mut out,
                &Frame::Data {
                    round: round % 6,
                    payload: round.to_le_bytes().to_vec(),
                },
            )
            .unwrap(),
            1 => {
                // The same frame twice back to back.
                let mut one = Vec::new();
                write_frame(
                    &mut one,
                    &Frame::Data {
                        round: round % 6,
                        payload: round.to_le_bytes().to_vec(),
                    },
                )
                .unwrap();
                out.extend_from_slice(&one);
                out.extend_from_slice(&one);
            }
            2 => {
                // A frame cut off halfway; everything after is torn.
                let mut one = Vec::new();
                write_frame(
                    &mut one,
                    &Frame::Done {
                        round: round % 6,
                        decided: false,
                    },
                )
                .unwrap();
                out.extend_from_slice(&one[..one.len() / 2]);
            }
            3 => out.extend_from_slice(garbage),
            _ => write_frame(
                &mut out,
                &Frame::Done {
                    round: round % 6,
                    decided: true,
                },
            )
            .unwrap(),
        }
    }
    out
}

proptest! {
    // Each case stands up real sockets; a handful of cases per run keeps
    // the suite fast while seed rotation covers the space over time.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn adversarial_streams_never_panic_a_live_node(
        selectors in vec(0u8..=255, 0..8),
        rounds in vec(0u64..=20, 0..8),
        garbage in vec(0u8..=255, 0..12),
    ) {
        let me = NodeId::new(1);
        let peer = NodeId::new(0);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let roster: BTreeMap<NodeId, std::net::SocketAddr> =
            [(me, addr), (peer, "127.0.0.1:1".parse().unwrap())].into();
        let config = NetConfig {
            round_timeout: Duration::from_millis(100),
            setup_timeout: Duration::from_secs(2),
            max_rounds: 30,
            give_up_after: 1,
            ..NetConfig::default()
        };
        let handle = std::thread::spawn(move || {
            NetNode::new(OneShot { id: me, out: None }, config)
                .with_tracer(NoopTracer)
                .run(listener, &roster)
        });

        // Handshake honestly, then pour the hostile stream in and hang up.
        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, &Frame::Hello { node: peer }).unwrap();
        let _ = read_frame(&mut stream);
        let bytes = hostile_stream(&selectors, &rounds, &garbage);
        let _ = stream.write_all(&bytes);
        let _ = stream.flush();
        drop(stream);

        // The node must finish its run alone — every hostile byte resolved
        // into a typed outcome (drop, strike, omission, eviction), never a
        // panic (which would surface as Err on join) or a hang.
        let report = handle.join().expect("NetNode must not panic");
        prop_assert!(report.is_ok(), "typed error escaped: {:?}", report.err());
    }

    #[test]
    fn adversarial_clients_never_take_down_the_log_service(
        garbage in vec(0u8..=255, 1..64),
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = serve_clients(listener, LogIngress::new(2), 1, None).unwrap();
        let addr = server.addr();

        // A hostile client writes garbage and hangs up; the handler must
        // resolve it into a typed disconnect.
        let mut bad = TcpStream::connect(addr).unwrap();
        let _ = bad.write_all(&garbage);
        let _ = bad.flush();
        drop(bad);

        // The service survives: a well-formed client still gets acked.
        let mut good = TcpStream::connect(addr).unwrap();
        write_frame(
            &mut good,
            &Frame::Submit {
                key: String::from("fuzz"),
                payload: vec![1, 2, 3],
            },
        )
        .unwrap();
        match read_frame(&mut good) {
            Ok(Some(Frame::SubmitAck { .. })) => {}
            other => prop_assert!(false, "service did not survive garbage: {other:?}"),
        }
        drop(good);
        server.shutdown();
    }
}
