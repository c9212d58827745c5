//! Transport-behavior tests driving a real [`NetNode`] against *scripted*
//! raw-TCP peers: a peer that misses the barrier (timeout → omission), a
//! peer that duplicates frames (dropped per the model's per-round rule),
//! a peer that drops its connection mid-run and redials (reconnect), a
//! peer that never accepts (given up after `setup_timeout`), one whose
//! listener never answers the handshake (given up after `setup_timeout`
//! too), a connector that never says `Hello` (the next peer is still
//! answered), and a harness abort raised while the node waits (at a busy
//! barrier, in the pace window, in a dial's backoff).

use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use uba_net::{read_frame, write_frame, Frame, NetConfig, NetError, NetNode};
use uba_sim::{Context, NodeId, Process};
use uba_trace::{RingTracer, SharedRuntimeMetrics, TraceEvent};

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

/// Config with short timeouts so fault scenarios finish quickly.
fn quick_config(give_up_after: u64) -> NetConfig {
    NetConfig {
        round_timeout: Duration::from_millis(200),
        setup_timeout: Duration::from_secs(5),
        max_rounds: 50,
        give_up_after,
        ..NetConfig::default()
    }
}

/// What [`spawn_node`]'s background thread resolves to.
type NodeResult = Result<uba_net::NetReport<u64, RingTracer>, uba_net::NetError>;

/// Starts a [`NetNode`] in a thread; the scripted peer (id 0, so it is the
/// dialer) interacts over the returned address.
fn spawn_node(
    rounds: u64,
    config: NetConfig,
    peer: NodeId,
) -> (std::net::SocketAddr, std::thread::JoinHandle<NodeResult>) {
    let me = NodeId::new(1);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // The scripted peer has the smaller id, so the node accepts; its roster
    // address is never dialed and can be a placeholder.
    let roster: BTreeMap<NodeId, std::net::SocketAddr> =
        [(me, addr), (peer, "127.0.0.1:1".parse().unwrap())].into();
    let handle = std::thread::spawn(move || {
        NetNode::new(Counter::new(me, rounds), config)
            .with_tracer(RingTracer::new(4096))
            .run(listener, &roster)
    });
    (addr, handle)
}

fn kinds(tracer: &RingTracer) -> Vec<&'static str> {
    tracer.events().map(TraceEvent::kind).collect()
}

#[test]
fn silent_peer_becomes_an_omission_then_gone() {
    let peer = NodeId::new(0);
    let (addr, handle) = spawn_node(2, quick_config(2), peer);
    // Handshake, then go silent forever: every barrier times out until the
    // give-up budget declares the peer gone, after which the node finishes
    // alone.
    let _stream = script_dial(addr, peer);
    let report = handle.join().unwrap().expect("node should finish alone");
    assert_eq!(report.output, Some(2), "only its own two broadcasts");
    assert!(report.timeouts >= 2, "peer charged once per missed barrier");
    let kinds = kinds(&report.tracer);
    assert!(kinds.contains(&"net_timeout"), "timeout traced: {kinds:?}");
    assert!(
        kinds.contains(&"net_peer_gone"),
        "give-up traced: {kinds:?}"
    );
}

/// Like [`Counter`], but burns wall-clock inside `on_round`, pushing the
/// node past its own barrier deadline before it even starts waiting.
struct SlowCounter {
    inner: Counter,
    busy: Duration,
}

impl Process for SlowCounter {
    type Msg = u64;
    type Output = u64;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn on_round(&mut self, ctx: &mut Context<'_, u64>) {
        std::thread::sleep(self.busy);
        self.inner.on_round(ctx);
    }

    fn output(&self) -> Option<u64> {
        self.inner.output()
    }
}

#[test]
fn omission_trace_reports_actual_elapsed_time_not_the_configured_timeout() {
    // Regression: the omission trace used to stamp the *configured*
    // `round_timeout` as the waited duration. A step that overruns the
    // deadline (or any WAN-delayed barrier) then produced a postmortem
    // claiming a 200ms wait that actually lasted twice that.
    let me = NodeId::new(1);
    let peer = NodeId::new(0);
    let config = quick_config(1); // 200ms barrier, give up after 1 silence
    let busy = Duration::from_millis(450);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let roster: BTreeMap<NodeId, std::net::SocketAddr> =
        [(me, addr), (peer, "127.0.0.1:1".parse().unwrap())].into();
    let handle = std::thread::spawn(move || {
        let process = SlowCounter {
            inner: Counter::new(me, 1),
            busy,
        };
        NetNode::new(process, config)
            .with_tracer(RingTracer::new(4096))
            .run(listener, &roster)
    });
    // Handshake, then silence: round 1's barrier is already expired when
    // the slow step ends, so the omission is charged ~450ms after the
    // round started — more than twice the configured timeout.
    let _stream = script_dial(addr, peer);
    let report = handle.join().unwrap().expect("node finishes alone");
    let waited_ms: u128 = report
        .tracer
        .events()
        .find_map(|event| match event {
            TraceEvent::Net { info, .. } if event.kind() == "net_timeout" => {
                let ms = info.strip_prefix("silent at barrier after ")?;
                ms.strip_suffix("ms")?.parse().ok()
            }
            _ => None,
        })
        .expect("an omission was traced");
    assert!(
        waited_ms >= 400,
        "trace must report the ~450ms actually elapsed, got {waited_ms}ms"
    );
}

#[test]
fn duplicate_frames_on_the_wire_are_delivered_once() {
    let peer = NodeId::new(0);
    let (addr, handle) = spawn_node(1, quick_config(10), peer);
    let mut stream = script_dial(addr, peer);

    // Round 1: the same payload twice, then the barrier marker.
    let payload = 77u64.to_le_bytes().to_vec();
    for _ in 0..2 {
        write_frame(
            &mut stream,
            &Frame::Data {
                round: 1,
                payload: payload.clone(),
            },
        )
        .unwrap();
    }
    write_frame(
        &mut stream,
        &Frame::Done {
            round: 1,
            decided: false,
        },
    )
    .unwrap();
    // Round 2: nothing to send; the node decides here, and so do we.
    write_frame(
        &mut stream,
        &Frame::Done {
            round: 2,
            decided: true,
        },
    )
    .unwrap();

    let report = handle.join().unwrap().expect("run completes");
    // Own broadcast + ONE copy of the peer's duplicated payload.
    assert_eq!(report.output, Some(2));
    assert_eq!(report.timeouts, 0, "the scripted peer made every barrier");
    let kinds = kinds(&report.tracer);
    assert!(
        kinds.contains(&"duplicate_drop"),
        "duplicate traced: {kinds:?}"
    );
}

#[test]
fn mid_frame_disconnect_is_an_omission_then_reconnect_resumes() {
    let peer = NodeId::new(0);
    let (addr, handle) = spawn_node(2, quick_config(10), peer);

    // The first connection dies halfway through a Data frame: encode the
    // full frame, send only a prefix of it, then drop the socket. The
    // truncated frame must never be delivered — the reader sees a torn
    // stream and closes the link, and the missed barrier is charged as an
    // ordinary omission, never a panic.
    let mut first = script_dial(addr, peer);
    let mut encoded = Vec::new();
    write_frame(
        &mut encoded,
        &Frame::Data {
            round: 1,
            payload: 10u64.to_le_bytes().to_vec(),
        },
    )
    .unwrap();
    use std::io::Write;
    first.write_all(&encoded[..encoded.len() / 2]).unwrap();
    first.flush().unwrap();
    drop(first);

    // Let the round-1 barrier expire, then redial: the acceptor installs a
    // fresh higher-generation link and the peer participates normally in
    // round 2 (the node is waiting at that barrier until ~2 timeouts in).
    std::thread::sleep(Duration::from_millis(250));
    let mut second = script_dial(addr, peer);
    write_frame(
        &mut second,
        &Frame::Data {
            round: 2,
            payload: 20u64.to_le_bytes().to_vec(),
        },
    )
    .unwrap();
    write_frame(
        &mut second,
        &Frame::Done {
            round: 2,
            decided: false,
        },
    )
    .unwrap();
    write_frame(
        &mut second,
        &Frame::Done {
            round: 3,
            decided: true,
        },
    )
    .unwrap();

    let report = handle.join().unwrap().expect("run completes without panic");
    // Two own broadcasts + the reconnected peer's round-2 payload; the torn
    // round-1 payload is gone for good.
    assert_eq!(report.output, Some(3));
    assert!(report.timeouts >= 1, "torn round charged as an omission");
    let kinds = kinds(&report.tracer);
    assert!(kinds.contains(&"net_timeout"), "omission traced: {kinds:?}");
    let connects = report
        .tracer
        .events()
        .filter(|e| e.kind() == "net_connect")
        .count();
    assert!(connects >= 2, "reconnect traced, saw {connects}");
}

#[test]
fn reconnecting_peer_keeps_its_identity_across_links() {
    let peer = NodeId::new(0);
    let (addr, handle) = spawn_node(2, quick_config(10), peer);

    // First connection: participate in round 1 only.
    let mut first = script_dial(addr, peer);
    write_frame(
        &mut first,
        &Frame::Data {
            round: 1,
            payload: 10u64.to_le_bytes().to_vec(),
        },
    )
    .unwrap();
    write_frame(
        &mut first,
        &Frame::Done {
            round: 1,
            decided: false,
        },
    )
    .unwrap();
    drop(first); // connection lost mid-run

    // Redial: the acceptor installs a fresh link for the same id, and the
    // frames keep being attributed to peer 0.
    let mut second = script_dial(addr, peer);
    write_frame(
        &mut second,
        &Frame::Data {
            round: 2,
            payload: 20u64.to_le_bytes().to_vec(),
        },
    )
    .unwrap();
    write_frame(
        &mut second,
        &Frame::Done {
            round: 2,
            decided: false,
        },
    )
    .unwrap();
    write_frame(
        &mut second,
        &Frame::Done {
            round: 3,
            decided: true,
        },
    )
    .unwrap();

    let report = handle.join().unwrap().expect("run completes");
    // Two own broadcasts + one delivery per connection.
    assert_eq!(report.output, Some(4));
    let connects = report
        .tracer
        .events()
        .filter(|e| e.kind() == "net_connect")
        .count();
    assert!(connects >= 2, "both links traced, saw {connects}");
}

#[test]
fn a_peer_that_never_accepts_is_given_up_after_the_setup_timeout() {
    // The dials share one setup deadline: sixteen unreachable peers cost
    // one `setup_timeout`, not sixteen. (A dial that gets a budget of its
    // own gives up after about 190 ms of its 300, so sixteen of them take
    // about 3 s.) And the deadline is used up: the last backoff is cut to
    // end there, and one more attempt is made.
    for unreachable in [1, 16] {
        let me = NodeId::new(1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // The peers have larger ids, so the node dials them — at addresses
        // where nothing listens any more.
        let mut roster: BTreeMap<NodeId, std::net::SocketAddr> = [(me, addr)].into();
        for raw in 2..2 + unreachable {
            let vacated = TcpListener::bind("127.0.0.1:0").unwrap();
            roster.insert(NodeId::new(raw), vacated.local_addr().unwrap());
        }
        let config = NetConfig {
            setup_timeout: Duration::from_millis(300),
            ..NetConfig::default()
        };
        let started = Instant::now();
        let result = NetNode::new(Counter::new(me, 5), config).run(listener, &roster);
        let took = started.elapsed();
        assert!(
            matches!(result, Err(NetError::Io(_))),
            "{unreachable} unreachable: expected Io, got {:?}",
            result.map(|r| r.output)
        );
        assert!(
            took >= Duration::from_millis(270) && took < Duration::from_secs(2),
            "{unreachable} unreachable: dialed for {took:?}"
        );
    }
}

#[test]
fn a_peer_that_accepts_no_connection_is_given_up_after_the_handshake_timeout() {
    // The peer's listener is bound, so the kernel completes the connect,
    // but nothing ever answers the node's `Hello`: the dial's handshake
    // must give up after the 300 ms setup timeout, not wait forever.
    let me = NodeId::new(1);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mute = TcpListener::bind("127.0.0.1:0").unwrap();
    let roster: BTreeMap<NodeId, std::net::SocketAddr> = [
        (me, listener.local_addr().unwrap()),
        (NodeId::new(2), mute.local_addr().unwrap()),
    ]
    .into();
    let config = NetConfig {
        setup_timeout: Duration::from_millis(300),
        ..NetConfig::default()
    };
    let (done, result) = std::sync::mpsc::channel();
    let started = Instant::now();
    std::thread::spawn(move || {
        let run = NetNode::new(Counter::new(me, 5), config).run(listener, &roster);
        let _ = done.send(run.map(|report| report.output));
    });
    let result = result
        .recv_timeout(Duration::from_secs(15))
        .expect("the run is still dialing after 15 s");
    let took = started.elapsed();
    assert!(
        matches!(result, Err(NetError::Io(_))),
        "expected Io, got {result:?}"
    );
    assert!(took < Duration::from_secs(2), "gave up after {took:?}");
    drop(mute);
}

/// The peer of [`spawn_abortable`]'s node for the scripted-peer tests: id
/// 0, so it is the dialer, at a placeholder address the node never dials.
fn scripted_peer() -> (NodeId, std::net::SocketAddr) {
    (NodeId::new(0), "127.0.0.1:1".parse().unwrap())
}

/// Starts a [`NetNode`] (id 1) with an abort flag, a metrics registry and
/// `config`, whose roster holds `peer` beside it. The thread resolves to
/// the run's error, if it ended in one.
fn spawn_abortable(
    config: NetConfig,
    (peer, peer_addr): (NodeId, std::net::SocketAddr),
) -> (
    std::net::SocketAddr,
    Arc<AtomicBool>,
    SharedRuntimeMetrics,
    std::thread::JoinHandle<Option<NetError>>,
) {
    let me = NodeId::new(1);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let roster: BTreeMap<NodeId, std::net::SocketAddr> = [(me, addr), (peer, peer_addr)].into();
    let flag = Arc::new(AtomicBool::new(false));
    let metrics = SharedRuntimeMetrics::new();
    let (abort, rt) = (Arc::clone(&flag), metrics.clone());
    let handle = std::thread::spawn(move || {
        NetNode::new(Counter::new(me, 100), config)
            .with_abort_flag(abort)
            .with_runtime_metrics(rt)
            .run(listener, &roster)
            .err()
    });
    (addr, flag, metrics, handle)
}

/// Reads the node's frames until its round-1 `Done`: from then on it is
/// waiting at the round-1 barrier.
fn await_round_one_done(stream: &mut TcpStream) {
    loop {
        match read_frame(stream).unwrap() {
            Some(Frame::Done { round: 1, .. }) => return,
            Some(_) => {}
            None => panic!("node closed before its round-1 Done"),
        }
    }
}

/// Raises `flag` and asserts the node returns [`NetError::Aborted`] within
/// a second — far inside the 10 s the configs below would otherwise wait.
fn assert_aborts_promptly(flag: &AtomicBool, handle: std::thread::JoinHandle<Option<NetError>>) {
    let raised = Instant::now();
    flag.store(true, Ordering::SeqCst);
    let outcome = handle.join().unwrap();
    let took = raised.elapsed();
    assert!(
        matches!(outcome, Some(NetError::Aborted)),
        "expected Aborted, got {outcome:?}"
    );
    assert!(
        took < Duration::from_secs(1),
        "abort noticed only after {took:?}"
    );
}

#[test]
fn abort_is_noticed_at_a_barrier_that_keeps_receiving_frames() {
    // Regression: the flag used to be read only when a 25 ms wait slice
    // elapsed with *no* event, so a peer that keeps the link busy while
    // withholding its Done (chatty, or flooding) hid a harness abort until
    // the barrier deadline — 10 s here.
    let config = NetConfig {
        round_timeout: Duration::from_secs(10),
        ..quick_config(10)
    };
    let (addr, flag, _metrics, handle) = spawn_abortable(config, scripted_peer());
    let mut stream = script_dial(addr, NodeId::new(0));
    let mut writer = stream.try_clone().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stopped = Arc::clone(&stop);
    let chatter = std::thread::spawn(move || {
        // A valid round-1 payload every ~5 ms (200 frames/s, far below the
        // ingress quota), never the barrier marker.
        let mut value = 0u64;
        while !stopped.load(Ordering::SeqCst) {
            value += 1;
            let frame = Frame::Data {
                round: 1,
                payload: value.to_le_bytes().to_vec(),
            };
            if write_frame(&mut writer, &frame).is_err() {
                break; // the node aborted and closed the socket
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    });
    await_round_one_done(&mut stream);
    assert_aborts_promptly(&flag, handle);
    stop.store(true, Ordering::SeqCst);
    chatter.join().unwrap();
}

#[test]
fn a_silent_connector_does_not_hold_up_the_next_peer() {
    // Regression: the inbound handshake ran inline in the accept loop, so
    // a connection that never says `Hello` kept the peer that dialed next
    // waiting for the node's `Hello` for the whole 10 s handshake timeout.
    let config = NetConfig {
        round_timeout: Duration::from_secs(10),
        ..quick_config(10)
    };
    let (addr, flag, _metrics, handle) = spawn_abortable(config, scripted_peer());
    let _silent = TcpStream::connect(addr).unwrap();
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    let hello = Frame::Hello {
        node: NodeId::new(0),
    };
    write_frame(&mut stream, &hello).unwrap();
    let answer = read_frame(&mut stream);
    let took = started.elapsed();
    assert!(
        matches!(answer, Ok(Some(Frame::Hello { node })) if node == NodeId::new(1)),
        "expected the node's Hello, got {answer:?}"
    );
    assert!(
        took < Duration::from_secs(2),
        "Hello came back after {took:?}"
    );
    // The silent connection is still in its handshake: the teardown must
    // end it rather than wait it out.
    assert_aborts_promptly(&flag, handle);
}

#[test]
fn abort_is_noticed_inside_the_round_pace_window() {
    // The issue asks for a 500 ms window; with one that short the
    // one-second bound would hold even if the window ignored the flag, so
    // the window here is as long as the barrier above.
    let config = NetConfig {
        round_timeout: Duration::from_secs(10),
        round_pace: Duration::from_secs(10),
        ..quick_config(10)
    };
    let (addr, flag, metrics, handle) = spawn_abortable(config, scripted_peer());
    let mut stream = script_dial(addr, NodeId::new(0));
    // Make the round-1 barrier. `net_rounds_total` ticks when the round is
    // over, which is right before the node parks in the pace window for
    // the rest of its 10 s.
    let done = Frame::Done {
        round: 1,
        decided: false,
    };
    write_frame(&mut stream, &done).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while metrics.snapshot().counter("net_rounds_total") == 0 {
        assert!(Instant::now() < deadline, "round 1 never completed");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_aborts_promptly(&flag, handle);
}

#[test]
fn abort_is_noticed_while_dialing_a_peer_that_is_not_there() {
    // The peer has the larger id, so the node dials it, at an address
    // where nothing listens any more: with a 10 s setup timeout the dial
    // backs off for up to 10 s unless its sleeps read the flag.
    let vacated = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer = (NodeId::new(2), vacated.local_addr().unwrap());
    drop(vacated);
    let config = NetConfig {
        setup_timeout: Duration::from_secs(10),
        ..quick_config(10)
    };
    let (_addr, flag, metrics, handle) = spawn_abortable(config, peer);
    let deadline = Instant::now() + Duration::from_secs(5);
    while metrics.snapshot().counter("net_dial_retries_total") < 3 {
        assert!(Instant::now() < deadline, "the node never retried its dial");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_aborts_promptly(&flag, handle);
}

#[test]
fn peers_whose_handshakes_end_past_the_setup_deadline_are_not_given_up() {
    // The larger-id peer starts listening just before the 300 ms setup
    // deadline and answers `Hello` only after it, so the node's dial, made
    // at the deadline, ends with the deadline spent. Both peers' links are
    // live by then (the smaller-id one dialed in at once), and neither may
    // be written off as unreachable during setup.
    let (me, early, late) = (NodeId::new(1), NodeId::new(0), NodeId::new(2));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let vacated = TcpListener::bind("127.0.0.1:0").unwrap();
    let late_addr = vacated.local_addr().unwrap();
    drop(vacated);
    let roster: BTreeMap<NodeId, std::net::SocketAddr> = [
        (me, addr),
        (early, "127.0.0.1:1".parse().unwrap()),
        (late, late_addr),
    ]
    .into();
    let config = NetConfig {
        setup_timeout: Duration::from_millis(300),
        ..quick_config(1)
    };
    let started = Instant::now();
    let node = std::thread::spawn(move || {
        NetNode::new(Counter::new(me, 1), config)
            .with_tracer(RingTracer::new(4096))
            .run(listener, &roster)
    });
    let _early = script_dial(addr, early);
    std::thread::sleep(Duration::from_millis(260).saturating_sub(started.elapsed()));
    let (mut stream, _) = TcpListener::bind(late_addr).unwrap().accept().unwrap();
    std::thread::sleep(Duration::from_millis(360).saturating_sub(started.elapsed()));
    write_frame(&mut stream, &Frame::Hello { node: late }).unwrap();

    let report = node.join().unwrap().expect("the node runs");
    let gone_in_setup: Vec<_> = report
        .tracer
        .events()
        .filter(|event| event.kind() == "net_peer_gone" && event.round() == 0)
        .collect();
    assert!(gone_in_setup.is_empty(), "{gone_in_setup:?}");
}
