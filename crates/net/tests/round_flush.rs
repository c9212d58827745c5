//! What a peer finds on its socket now that a node's round goes out in one
//! flush behind `Done` instead of frame by frame: the final round still
//! beats the teardown EOF, a killed node leaves no byte of the round it was
//! killed in, and a peer that hung up costs its link and its barriers, not
//! the run.
//!
//! The scripted peer never waits on the node: it says everything it has to
//! say up front (the synchronizer buffers future rounds) and then reads
//! the socket to EOF, so each test sees the node's complete byte stream.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use uba_core::consensus::EarlyConsensus;
use uba_net::{
    decisions, read_frame, run_local_cluster, write_frame, Frame, NetConfig, NetError, NetNode,
    NetReport, Wire,
};
use uba_sim::{sparse_ids, Context, NodeId, Process};
use uba_trace::NoopTracer;

/// Broadcasts its round number for `rounds` rounds, then outputs the number
/// of messages it received.
struct Counter {
    id: NodeId,
    rounds: u64,
    received: u64,
    out: Option<u64>,
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

const NODE: NodeId = NodeId::new(1);
/// The scripted peer: the smaller id, so it dials and the node accepts.
const PEER: NodeId = NodeId::new(0);

fn quick_config() -> NetConfig {
    NetConfig {
        round_timeout: Duration::from_millis(200),
        setup_timeout: Duration::from_secs(5),
        max_rounds: 50,
        give_up_after: 2,
        ..NetConfig::default()
    }
}

type NodeResult = Result<NetReport<u64, NoopTracer>, NetError>;

/// Runs a two-round [`Counter`] as [`NODE`] in a thread, after `arm` had
/// its way with it; returns the address [`PEER`] dials.
fn spawn_node(
    arm: impl FnOnce(NetNode<Counter>) -> NetNode<Counter> + Send + 'static,
) -> (SocketAddr, JoinHandle<NodeResult>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // The node never dials the peer; its roster address is a placeholder.
    let roster: BTreeMap<NodeId, SocketAddr> =
        [(NODE, addr), (PEER, "127.0.0.1:1".parse().unwrap())].into();
    let counter = Counter {
        id: NODE,
        rounds: 2,
        received: 0,
        out: None,
    };
    let node = NetNode::new(counter, quick_config());
    let handle = thread::spawn(move || arm(node).run(listener, &roster));
    (addr, handle)
}

/// Dials the node as [`PEER`], handshakes, and publishes `Done` for rounds
/// `1..=through` (deciding in the last) before reading anything.
fn dial_and_say_done(addr: SocketAddr, through: u64) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    write_frame(&mut stream, &Frame::Hello { node: PEER }).unwrap();
    assert_eq!(
        read_frame(&mut stream).unwrap(),
        Some(Frame::Hello { node: NODE })
    );
    for round in 1..=through {
        let decided = round == through;
        write_frame(&mut stream, &Frame::Done { round, decided }).unwrap();
    }
    stream
}

/// Everything the node wrote, up to the EOF of its teardown.
fn read_to_eof(mut stream: TcpStream) -> Vec<Frame> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut frames = Vec::new();
    while let Some(frame) = read_frame(&mut stream).expect("frames, then a clean EOF") {
        frames.push(frame);
    }
    frames
}

fn data(round: u64) -> Frame {
    Frame::Data {
        round,
        payload: round.to_bytes(),
    }
}

fn done(round: u64, decided: bool) -> Frame {
    Frame::Done { round, decided }
}

#[test]
fn the_final_round_is_flushed_before_the_mesh_is_dropped() {
    let (addr, handle) = spawn_node(|node| node);
    // Every barrier is already complete when the node reaches it, so it
    // flushes its deciding `Done` and tears down without ever waiting.
    let stream = dial_and_say_done(addr, 3);
    let wire = read_to_eof(stream);
    let expected = [
        data(1),
        done(1, false),
        data(2),
        done(2, false),
        done(3, true),
    ];
    assert_eq!(wire, expected, "whole rounds, in order, then EOF");
    let report = handle.join().unwrap().expect("the node decides");
    assert_eq!(report.output, Some(2), "its own two broadcasts");
    assert_eq!((report.rounds, report.timeouts), (3, 0));
}

#[test]
fn a_killed_node_leaves_nothing_of_the_killed_round_on_the_wire() {
    let (addr, handle) = spawn_node(|node| node.kill_at_round(2));
    let stream = dial_and_say_done(addr, 3);
    let wire = read_to_eof(stream);
    assert_eq!(
        wire,
        [data(1), done(1, false)],
        "round 1 whole, no byte of 2"
    );
    let result = handle.join().unwrap();
    assert!(matches!(result, Err(NetError::Killed(2))), "{result:?}");
    // The run ended in an error and still gave its sockets back: the peer
    // read a clean EOF above, and the listener is gone.
    assert!(TcpStream::connect(addr).is_err(), "listener closed");
}

#[test]
fn a_peer_that_hung_up_is_charged_at_the_barrier_and_the_run_goes_on() {
    let (addr, handle) = spawn_node(|node| node);
    // Round 1 with the peer, then the peer's socket is gone: the node's
    // later rounds are queued and flushed onto a dead link (or none).
    drop(dial_and_say_done(addr, 1));
    let report = handle.join().unwrap().expect("the node finishes alone");
    assert_eq!(report.output, Some(2));
    assert_eq!(report.timeouts, 2, "charged until the give-up budget");
}

#[test]
fn a_cluster_shuts_down_in_unison_without_a_single_timeout() {
    // Every member drops its mesh right after flushing its last `Done`; a
    // `Done` lost to a teardown would show as a timeout at some peer.
    let ids = sparse_ids(7, 3);
    let members = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| EarlyConsensus::new(id, (i % 2) as u64));
    let reports = run_local_cluster(members, NetConfig::default(), |_| NoopTracer).unwrap();
    assert_eq!(decisions(&reports).len(), 7, "every member decided");
    for (id, report) in &reports {
        assert_eq!(report.timeouts, 0, "member {id} waited out a barrier");
    }
}
