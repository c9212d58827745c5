//! Hardening tests driving a real [`NetNode`] against scripted hostile
//! peers, plus end-to-end mixed honest/hostile clusters via
//! [`ClusterSpec`]'s `hostile` option.
//!
//! The attribution contract under test (DESIGN.md §13): *malice* (floods,
//! malformed frames, protocol abuse) is charged as strikes and ends in an
//! eviction — `net_misbehavior_total` counters, `net_byz_*` trace events,
//! a `fault/byzantine_evict` record, and an entry in `NetReport::evicted`;
//! *silence* stays an omission — timeouts and `peer_gone`, never an
//! eviction.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use uba_core::consensus::EarlyConsensus;
use uba_net::{
    read_frame, write_frame, AttackKind, AttackPlan, ClusterSpec, Frame, FrameFault, LinkPlan,
    NetConfig, NetNode,
};
use uba_sim::{sparse_ids, Context, NodeId, Process};
use uba_trace::{metric_name, RingTracer, SharedRuntimeMetrics, TraceEvent};

/// A minimal networked process: broadcasts its round number for `rounds`
/// rounds, then outputs the total number of messages it received.
struct Counter {
    id: NodeId,
    rounds: u64,
    received: u64,
    out: Option<u64>,
}

impl Counter {
    fn new(id: NodeId, rounds: u64) -> Self {
        Counter {
            id,
            rounds,
            received: 0,
            out: None,
        }
    }
}

impl Process for Counter {
    type Msg = u64;
    type Output = u64;

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_round(&mut self, ctx: &mut Context<'_, u64>) {
        self.received += ctx.inbox().len() as u64;
        if ctx.round() <= self.rounds {
            ctx.broadcast(ctx.round());
        } else {
            self.out = Some(self.received);
        }
    }

    fn output(&self) -> Option<u64> {
        self.out
    }
}

/// Dials `addr` as node `me` and completes the handshake.
fn script_dial(addr: std::net::SocketAddr, me: NodeId) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("scripted peer dial");
    stream.set_nodelay(true).unwrap();
    write_frame(&mut stream, &Frame::Hello { node: me }).unwrap();
    match read_frame(&mut stream).unwrap() {
        Some(Frame::Hello { .. }) => stream,
        other => panic!("expected Hello back, got {other:?}"),
    }
}

/// Config with short timeouts and a tight ingress quota, so hostile
/// scenarios resolve quickly.
fn hardened_config(give_up_after: u64) -> NetConfig {
    NetConfig {
        round_timeout: Duration::from_millis(200),
        setup_timeout: Duration::from_secs(5),
        max_rounds: 50,
        give_up_after,
        max_frames_per_round: 8,
        ..NetConfig::default()
    }
}

type NodeResult = Result<uba_net::NetReport<u64, RingTracer>, uba_net::NetError>;

/// Starts a [`NetNode`] with a tracer and a metrics registry in a thread;
/// the scripted peer (id 0, so it is the dialer) interacts over the
/// returned address.
fn spawn_node(
    rounds: u64,
    config: NetConfig,
    peer: NodeId,
) -> (
    std::net::SocketAddr,
    SharedRuntimeMetrics,
    std::thread::JoinHandle<NodeResult>,
) {
    let me = NodeId::new(1);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let metrics = SharedRuntimeMetrics::new();
    let rt = metrics.clone();
    let roster: BTreeMap<NodeId, std::net::SocketAddr> =
        [(me, addr), (peer, "127.0.0.1:1".parse().unwrap())].into();
    let handle = std::thread::spawn(move || {
        NetNode::new(Counter::new(me, rounds), config)
            .with_tracer(RingTracer::new(4096))
            .with_runtime_metrics(rt)
            .run(listener, &roster)
    });
    (addr, metrics, handle)
}

fn kinds(tracer: &RingTracer) -> Vec<&'static str> {
    tracer.events().map(TraceEvent::kind).collect()
}

/// The `fault` events' kinds, for the omission-vs-malice attribution
/// checks.
fn fault_kinds(tracer: &RingTracer) -> Vec<&'static str> {
    tracer
        .events()
        .filter_map(|e| match e {
            TraceEvent::Fault { kind, .. } => Some(*kind),
            _ => None,
        })
        .collect()
}

/// Strikes of `kind` charged to the scripted peer (id 0).
fn strikes(metrics: &SharedRuntimeMetrics, kind: &str) -> u64 {
    metrics.snapshot().counter(&metric_name(
        "net_misbehavior_total",
        &[("kind", kind), ("peer", "0")],
    ))
}

#[test]
fn flooding_peer_is_evicted_within_one_omission_timeout() {
    let peer = NodeId::new(0);
    let config = hardened_config(10);
    let timeout = config.round_timeout;
    let (addr, metrics, handle) = spawn_node(1, config, peer);
    let mut stream = script_dial(addr, peer);

    // Blast well past the 8-frame quota in round 1 and never send Done:
    // an unhardened node would sit out `give_up_after` (10) barriers, but
    // the strike policy must evict the flooder within the round.
    let start = Instant::now();
    for i in 0..32u64 {
        let frame = Frame::Data {
            round: 1,
            payload: i.to_le_bytes().to_vec(),
        };
        if write_frame(&mut stream, &frame).is_err() {
            break; // evicted mid-flood: the socket is already shut
        }
    }

    let report = handle.join().unwrap().expect("honest node finishes alone");
    let elapsed = start.elapsed();
    assert_eq!(report.evicted, vec![0], "the flooder was evicted");
    assert!(
        elapsed < timeout + Duration::from_secs(2),
        "eviction must not cost the give-up budget (took {elapsed:?})"
    );
    assert_eq!(
        report.timeouts, 0,
        "no barrier was ever charged to the evicted flooder"
    );

    let snapshot = metrics.snapshot();
    let floods = snapshot.counter(&metric_name(
        "net_misbehavior_total",
        &[("kind", "flood"), ("peer", "0")],
    ));
    assert!(floods >= 3, "one strike per frame over quota, got {floods}");
    assert_eq!(
        snapshot.counter(&metric_name("net_byz_evictions_total", &[("peer", "0")])),
        1
    );

    let kinds = kinds(&report.tracer);
    assert!(kinds.contains(&"net_byz_misbehavior"), "strikes traced");
    assert!(kinds.contains(&"net_byz_evict"), "eviction traced");
    assert!(
        fault_kinds(&report.tracer).contains(&"byzantine_evict"),
        "the verdict-table fault record distinguishes malice"
    );
}

#[test]
fn stalling_peer_is_charged_as_omission_never_as_malice() {
    // The attribution regression (satellite 4): a peer that handshakes and
    // then withholds every barrier marker is *silent*, which the model
    // already prices as omissions — it must exhaust `give_up_after`, be
    // declared gone, and never appear in the eviction ledger.
    let peer = NodeId::new(0);
    let (addr, metrics, handle) = spawn_node(2, hardened_config(2), peer);
    let _stream = script_dial(addr, peer);

    let report = handle.join().unwrap().expect("node finishes alone");
    assert!(report.evicted.is_empty(), "silence is not malice");
    assert!(report.timeouts >= 2, "each missed barrier is an omission");

    let kinds = kinds(&report.tracer);
    assert!(
        kinds.contains(&"net_timeout"),
        "omissions traced: {kinds:?}"
    );
    assert!(
        kinds.contains(&"net_peer_gone"),
        "give-up traced: {kinds:?}"
    );
    assert!(
        !kinds.contains(&"net_byz_evict") && !kinds.contains(&"net_byz_misbehavior"),
        "no misbehavior machinery fired: {kinds:?}"
    );
    assert!(!fault_kinds(&report.tracer).contains(&"byzantine_evict"));

    let snapshot = metrics.snapshot();
    assert_eq!(
        snapshot
            .counters()
            .filter(|(name, _)| name.starts_with("net_misbehavior_total")
                || name.starts_with("net_byz_evictions_total"))
            .count(),
        0,
        "no misbehavior counters for a merely silent peer"
    );
}

#[test]
fn backfill_spam_is_served_once_then_striked_to_eviction() {
    let peer = NodeId::new(0);
    let (addr, metrics, handle) = spawn_node(3, hardened_config(10), peer);
    let mut stream = script_dial(addr, peer);

    // Participate in round 1 so the node is live, then spam identical
    // SyncRequests: the first per round is the legitimate rejoin path and
    // is answered; every repeat within the round is a strike.
    write_frame(
        &mut stream,
        &Frame::Done {
            round: 1,
            decided: false,
        },
    )
    .unwrap();
    for _ in 0..4 {
        if write_frame(&mut stream, &Frame::SyncRequest { since: 1 }).is_err() {
            break;
        }
    }

    // The first request was answered with the responder's tips before the
    // strikes accumulated (the node's ordinary Data/Done traffic is
    // interleaved on the same stream — skip past it).
    let mut served = false;
    while let Ok(Some(frame)) = read_frame(&mut stream) {
        if matches!(frame, Frame::SyncTips { .. }) {
            served = true;
            break;
        }
    }
    assert!(served, "the first request per round is the rejoin path");

    let report = handle.join().unwrap().expect("node finishes alone");
    assert_eq!(report.evicted, vec![0], "the spammer was evicted");
    let spam = metrics.snapshot().counter(&metric_name(
        "net_misbehavior_total",
        &[("kind", "sync_spam"), ("peer", "0")],
    ));
    assert!(spam >= 3, "each repeat request is a strike, got {spam}");
}

#[test]
fn corrupt_frame_burns_the_link_and_is_charged_as_malice() {
    let peer = NodeId::new(0);
    let (addr, metrics, handle) = spawn_node(1, hardened_config(2), peer);
    let mut stream = script_dial(addr, peer);

    // A valid length prefix followed by a body no codec accepts: the
    // reader reports Corrupt, the node charges `malformed_frame`, and the
    // connection dies. One strike is not an eviction — the subsequent
    // silence is then priced as ordinary omissions.
    let poison = [5, 0, 0, 0, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE];
    let refusal = read_frame(&mut &poison[..]).unwrap_err();
    assert_eq!(FrameFault::of(&refusal), Some(FrameFault::Malformed));
    stream.write_all(&poison).unwrap();
    stream.flush().unwrap();

    let report = handle.join().unwrap().expect("node finishes alone");
    assert!(
        report.evicted.is_empty(),
        "one strike stays below the eviction threshold"
    );
    assert_eq!(
        (
            strikes(&metrics, "malformed_frame"),
            strikes(&metrics, "oversize_frame")
        ),
        (1, 0),
        "the poison write was attributed, under the decoder's own verdict"
    );
    let kinds = kinds(&report.tracer);
    assert!(kinds.contains(&"net_byz_misbehavior"), "strike traced");
    assert!(kinds.contains(&"net_peer_gone"), "then ordinary give-up");
}

#[test]
fn oversize_length_prefix_is_charged_without_allocation() {
    let peer = NodeId::new(0);
    let (addr, metrics, handle) = spawn_node(1, hardened_config(2), peer);
    let mut stream = script_dial(addr, peer);

    // A 4 GiB length prefix. The codec must refuse it before allocating
    // (unit-tested in wire.rs); here we assert the refusal is *attributed*
    // as oversize misbehavior rather than treated as a clean close.
    let poison = 0xFFFF_FFFFu32.to_le_bytes();
    let refusal = read_frame(&mut &poison[..]).unwrap_err();
    assert_eq!(
        FrameFault::of(&refusal),
        Some(FrameFault::Oversize(0xFFFF_FFFF))
    );
    stream.write_all(&poison).unwrap();
    stream.flush().unwrap();

    let report = handle.join().unwrap().expect("node finishes alone");
    assert_eq!(
        (
            strikes(&metrics, "oversize_frame"),
            strikes(&metrics, "malformed_frame")
        ),
        (1, 0),
        "the oversize prefix was attributed, under the decoder's own verdict"
    );
    let traced = report.tracer.events().any(|e| match e {
        TraceEvent::Net { info, .. } => {
            e.kind() == "net_byz_misbehavior" && info.contains("oversize_frame")
        }
        _ => false,
    });
    assert!(traced, "the strike names the violated bound");
}

#[test]
fn stale_round_replay_is_striked_once_outside_the_window() {
    let peer = NodeId::new(0);
    let config = NetConfig {
        history_rounds: 2,
        ..hardened_config(10)
    };
    let (addr, metrics, handle) = spawn_node(6, config, peer);
    let mut stream = script_dial(addr, peer);

    // Follow the barriers honestly while replaying the round-1 frame every
    // round: inside the 2-round window the copies are dropped as benign
    // lateness, but from round 4 on each replay is a `stale_replay` strike
    // and three of them get the replayer evicted.
    'rounds: for round in 1..=7u64 {
        for _ in 0..if round >= 2 { 3 } else { 0 } {
            let stale = Frame::Data {
                round: 1,
                payload: 99u64.to_le_bytes().to_vec(),
            };
            if write_frame(&mut stream, &stale).is_err() {
                break 'rounds;
            }
        }
        let done = Frame::Done {
            round,
            decided: round >= 7,
        };
        if write_frame(&mut stream, &done).is_err() {
            break 'rounds;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let report = handle.join().unwrap().expect("node finishes");
    assert_eq!(report.evicted, vec![0], "the replayer was evicted");
    let stale = metrics.snapshot().counter(&metric_name(
        "net_misbehavior_total",
        &[("kind", "stale_replay"), ("peer", "0")],
    ));
    assert!(stale >= 3, "replays beyond the window strike, got {stale}");
}

/// Polls `read` until it returns at least `want`, for up to five seconds.
fn wait_for(want: u64, read: impl Fn() -> u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(5);
    while read() < want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    read()
}

#[test]
fn strikes_and_the_ban_belong_to_the_peer_not_to_its_socket() {
    // The node (id 2) accepts from a hostile peer (0) and from a keeper (1)
    // whose Done markers pace the rounds (10 s budget each), while the
    // hostile peer works through three sockets. The ledger reaches the
    // registry once per round, so a count is read after a round advance;
    // an eviction shows at once as the node shutting the socket.
    let (me, hostile, keeper) = (NodeId::new(2), NodeId::new(0), NodeId::new(1));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let unused: std::net::SocketAddr = "127.0.0.1:1".parse().unwrap();
    let roster: BTreeMap<NodeId, std::net::SocketAddr> =
        [(me, addr), (hostile, unused), (keeper, unused)].into();
    let metrics = SharedRuntimeMetrics::new();
    let rt = metrics.clone();
    let config = NetConfig {
        round_timeout: Duration::from_secs(10),
        ..hardened_config(10)
    };
    let handle = std::thread::spawn(move || {
        NetNode::new(Counter::new(me, 2), config)
            .with_tracer(RingTracer::new(4096))
            .with_runtime_metrics(rt)
            .run(listener, &roster)
    });
    let mut keeper_stream = script_dial(addr, keeper);
    let counter = |name: &str| {
        let name = metric_name(name, &[("peer", "0")]);
        metrics.snapshot().counter(&name)
    };
    // No honest peer is a thousand rounds ahead: one strike per marker.
    let out_of_window = Frame::Done {
        round: 1000,
        decided: false,
    };
    let done = |round| Frame::Done {
        round,
        decided: false,
    };

    // Socket 1: two strikes, one short of the limit, then both peers'
    // round-1 markers close the round and the link drops.
    let mut first = script_dial(addr, hostile);
    write_frame(&mut first, &out_of_window).unwrap();
    write_frame(&mut first, &out_of_window).unwrap();
    write_frame(&mut first, &done(1)).unwrap();
    write_frame(&mut keeper_stream, &done(1)).unwrap();
    assert_eq!(wait_for(2, || strikes(&metrics, "done_out_of_window")), 2);
    drop(first);

    // Socket 2: the reconnect did not reset the count — the very next
    // strike evicts, and the node shuts the socket (after its own round-2
    // frames, if the reconnect beat the round's write). The round-2 frames
    // behind the strike in the same write are already in the node's
    // reader when the eviction lands: dropped as a banned peer's, never
    // delivered, never struck again.
    let mut second = script_dial(addr, hostile);
    let mut burst = Vec::new();
    write_frame(&mut burst, &out_of_window).unwrap();
    for i in 0..20u64 {
        let frame = Frame::Data {
            round: 2,
            payload: i.to_le_bytes().to_vec(),
        };
        write_frame(&mut burst, &frame).unwrap();
    }
    second.write_all(&burst).unwrap();
    frames_until_shut(&mut second);

    // Socket 3: the acceptor still handshakes (it knows no ledger), but the
    // node shuts the link on arrival — the redialer reads EOF or a reset,
    // not a timeout, and whatever it pushed meanwhile changes nothing.
    let mut third = script_dial(addr, hostile);
    let _ = write_frame(&mut third, &out_of_window);
    let sent = frames_until_shut(&mut third);
    assert!(sent.is_empty(), "a banned peer was sent {sent:?}");

    // The keeper lets the node finish: round 2, then the deciding round 3.
    for (round, decided) in [(2, false), (3, true)] {
        write_frame(&mut keeper_stream, &Frame::Done { round, decided }).unwrap();
    }
    let report = handle.join().unwrap().expect("node finishes");
    assert_eq!(report.evicted, vec![0], "evicted once, for the whole run");
    assert_eq!(report.output, Some(2), "only its own broadcasts delivered");
    assert_eq!(
        strikes(&metrics, "done_out_of_window"),
        3,
        "no strike after the ban"
    );
    assert_eq!(counter("net_byz_evictions_total"), 1);
    assert_eq!(counter("net_reconnects_total"), 1, "socket 3 was refused");
    assert!(counter("net_banned_frames_dropped_total") >= 1);
}

/// Reads `stream` until the node shuts it — EOF or a reset, not a read
/// timeout — and returns the frames read before.
fn frames_until_shut(stream: &mut TcpStream) -> Vec<Frame> {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut frames = Vec::new();
    loop {
        match read_frame(stream) {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => return frames,
            Err(err) => {
                let kind = err.kind();
                let timed_out = matches!(
                    kind,
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                );
                assert!(!timed_out, "the link was left open: {err}");
                return frames;
            }
        }
    }
}

#[test]
fn backfill_nobody_asked_for_is_striked() {
    // A node that started with `run` never sent a SyncRequest, so its
    // ledger has no solicited peer: any Backfill is rejoin-path abuse.
    let peer = NodeId::new(0);
    let (addr, metrics, handle) = spawn_node(1, hardened_config(2), peer);
    let mut stream = script_dial(addr, peer);
    let backfill = Frame::Backfill {
        round: 1,
        done: true,
        decided: false,
        payloads: vec![7u64.to_le_bytes().to_vec()],
    };
    write_frame(&mut stream, &backfill).unwrap();
    let report = handle.join().unwrap().expect("node finishes alone");
    assert_eq!(strikes(&metrics, "unsolicited_backfill"), 1);
    assert_eq!(
        report.output,
        Some(1),
        "the pushed payload was not delivered"
    );
    assert!(
        report.timeouts >= 1,
        "nor did its Done flag make the barrier"
    );
}

/// Shared cell driver for the end-to-end mixed-cluster tests: n honest
/// consensus members, one scripted Byzantine member, assert honest
/// agreement and return the reports for attack-specific checks.
fn adversarial_cluster(
    kind: AttackKind,
    config: NetConfig,
) -> BTreeMap<NodeId, uba_net::NetReport<u64, RingTracer>> {
    adversarial_run(kind, config, None).reports
}

/// [`adversarial_cluster`], optionally over shaped WAN links, returning
/// the whole run.
fn adversarial_run(
    kind: AttackKind,
    config: NetConfig,
    wan: Option<Arc<LinkPlan>>,
) -> uba_net::ClusterRun<u64, RingTracer> {
    let ids = sparse_ids(5, 41);
    let byz = ids[2];
    let honest: Vec<NodeId> = ids.iter().copied().filter(|&id| id != byz).collect();
    let members = honest
        .iter()
        .enumerate()
        .map(|(i, &id)| EarlyConsensus::new(id, (i % 2) as u64));
    let spec = ClusterSpec {
        wan,
        hostile: Some(AttackPlan::new(41, kind, [byz])),
        ..ClusterSpec::default()
    };
    let run = spec
        .run(members, config, |_| RingTracer::new(4096), |_| None)
        .expect("honest members complete despite the hostile one");
    let outputs: Vec<Option<u64>> = run.reports.values().map(|r| r.output).collect();
    assert_eq!(outputs.len(), honest.len(), "every honest member reported");
    assert!(
        outputs.windows(2).all(|w| w[0] == w[1] && w[0].is_some()),
        "honest agreement violated: {outputs:?}"
    );
    run
}

#[test]
fn equivocating_member_cannot_break_honest_agreement() {
    let equivocate = AttackKind::Equivocate { a: 0, b: 1 };
    let config = NetConfig {
        round_timeout: Duration::from_secs(2),
        setup_timeout: Duration::from_secs(10),
        max_rounds: 100,
        ..NetConfig::default()
    };
    let direct = adversarial_cluster(equivocate.clone(), config.clone());
    // Value equivocation is model-allowed lying: it must be absorbed by
    // n > 3f, not punished — no honest node evicts anyone.
    for report in direct.values() {
        assert!(report.evicted.is_empty(), "equivocation is tolerated");
    }

    // `wan` and `hostile` compose: the same script over zero-impairment
    // links is the same run — same honest decisions in the same rounds,
    // still no strike — and the links had nothing to report.
    let shaped = adversarial_run(equivocate, config, Some(Arc::new(LinkPlan::new(41))));
    let outcome = |r: &uba_net::NetReport<u64, RingTracer>| (r.output, r.decided_round);
    assert_eq!(
        shaped.reports.values().map(outcome).collect::<Vec<_>>(),
        direct.values().map(outcome).collect::<Vec<_>>(),
    );
    for report in shaped.reports.values() {
        assert!(report.evicted.is_empty(), "still tolerated");
        let kinds = kinds(&report.tracer);
        assert!(!kinds.contains(&"net_byz_misbehavior"), "0 strikes");
        let link_kinds = kinds.iter().filter(|k| k.starts_with("net_link_"));
        assert_eq!(link_kinds.count(), 0, "no drop, no sever: {kinds:?}");
    }
    assert_eq!(shaped.byzantine.len(), 1, "the hostile member reported");
}

#[test]
fn flooding_member_is_evicted_and_honest_agreement_holds() {
    let reports = adversarial_cluster(
        AttackKind::Flood {
            frames_per_round: 64,
        },
        NetConfig {
            round_timeout: Duration::from_secs(2),
            setup_timeout: Duration::from_secs(10),
            max_rounds: 100,
            max_frames_per_round: 16,
            ..NetConfig::default()
        },
    );
    for report in reports.values() {
        assert_eq!(
            report.evicted.len(),
            1,
            "every honest member evicted the flooder"
        );
    }
}

#[test]
fn stalling_member_costs_omissions_but_never_an_eviction() {
    let reports = adversarial_cluster(
        AttackKind::Stall,
        NetConfig {
            round_timeout: Duration::from_millis(300),
            setup_timeout: Duration::from_secs(10),
            max_rounds: 100,
            give_up_after: 2,
            ..NetConfig::default()
        },
    );
    for report in reports.values() {
        assert!(report.evicted.is_empty(), "silence is not malice");
        assert!(report.timeouts >= 1, "the stall was priced as omissions");
    }
}
