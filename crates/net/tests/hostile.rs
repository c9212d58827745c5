//! The hostile member's contract.
//!
//! *The attack traffic:* one hostile member runs each [`AttackKind`]
//! against two scripted peers, and every frame the peers read — the
//! handshakes of the attacker's redials and the [`FrameFault`] a poison
//! write produces included — is pinned, round by round.
//!
//! *Leaving with the cluster:* a hostile member runs the honest round
//! driver, so it ends when the cluster has decided — not a retry budget or
//! a stall budget later — and a harness abort ends it like any member.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use uba_core::consensus::{ConsensusMsg, EarlyConsensus};
use uba_net::{
    read_frame, write_frame, AttackKind, AttackPlan, ByzantineNode, ClusterRun, ClusterSpec, Frame,
    FrameFault, NetConfig, NetError, Wire,
};
use uba_sim::{sparse_ids, Context, NodeId, Process};
use uba_trace::NoopTracer;

/// The attacker. Its peers have larger ids, so it dials them — at setup
/// and for every redial.
const HOSTILE: NodeId = NodeId::new(1);
/// The lower-id scripted peer: every point-to-point script's victim.
const VICTIM: NodeId = NodeId::new(2);
const BYSTANDER: NodeId = NodeId::new(3);

/// What a scripted peer read, in order, across all of its connections.
#[derive(Debug, PartialEq)]
enum Read {
    Frame(Frame),
    /// The codec refused the bytes; the peer closed the connection, as an
    /// honest reader does.
    Fault(Option<FrameFault>),
    /// Nothing arrived within three round timeouts.
    Silence,
}

/// Short barrier timeouts and a give-up budget deeper than the pinned
/// rounds (no peer is written off for the silence a poison close costs).
/// The attacker's mid-run redials try once, without retries, so it ends
/// soon after its peers are gone.
fn pin_config() -> NetConfig {
    NetConfig {
        round_timeout: Duration::from_millis(200),
        setup_timeout: Duration::from_secs(2),
        give_up_after: 4,
        max_rounds: 50,
        ..NetConfig::default()
    }
}

/// Accepts the attacker's next connection and answers its `Hello`.
fn accept(listener: &TcpListener, me: NodeId, log: &mut Vec<Read>) -> TcpStream {
    let (mut stream, _) = listener.accept().expect("the attacker dials");
    let hello = read_frame(&mut stream).unwrap().expect("a Hello");
    log.push(Read::Frame(hello));
    write_frame(&mut stream, &Frame::Hello { node: me }).unwrap();
    stream
}

/// A scripted peer: reads each round up to the attacker's `Done` and
/// answers with its own — `decided` only in the last round, which lets the
/// attacker leave — then holds its link open, unlogged, until the attacker
/// hangs up. As the victim of a poison script it also reads the poison
/// behind each `Done`, closes the connection as an honest reader does, and
/// answers on the attacker's redial; after the last round's poison it is
/// done.
fn scripted_peer(listener: TcpListener, me: NodeId, rounds: u64, poisoned: bool) -> Vec<Read> {
    let mut log = Vec::new();
    let mut stream = accept(&listener, me, &mut log);
    for round in 1..=rounds {
        loop {
            let frame = read_frame(&mut stream)
                .unwrap()
                .expect("the round's frames");
            let done = matches!(frame, Frame::Done { round: r, .. } if r == round);
            log.push(Read::Frame(frame));
            if done {
                break;
            }
        }
        if poisoned {
            let refused = read_frame(&mut stream).expect_err("poison behind the Done");
            log.push(Read::Fault(FrameFault::of(&refused)));
            drop(stream);
            if round == rounds {
                return log;
            }
            stream = accept(&listener, me, &mut log);
        }
        let done = Frame::Done {
            round,
            decided: round == rounds,
        };
        write_frame(&mut stream, &done).unwrap();
    }
    while let Ok(Some(_)) = read_frame(&mut stream) {}
    log
}

/// A scripted peer of the stall script: after the handshake, silence.
fn silent_peer(listener: TcpListener, me: NodeId) -> Vec<Read> {
    let mut log = Vec::new();
    let mut stream = accept(&listener, me, &mut log);
    stream
        .set_read_timeout(Some(pin_config().round_timeout * 3))
        .unwrap();
    log.push(match read_frame(&mut stream) {
        Ok(Some(frame)) => Read::Frame(frame),
        Ok(None) => Read::Fault(None),
        Err(err) => match FrameFault::of(&err) {
            None => Read::Silence,
            fault => Read::Fault(fault),
        },
    });
    log
}

/// Runs `kind` from [`HOSTILE`] against the victim and the bystander for
/// `rounds` rounds; returns what each of them read.
fn attack(kind: AttackKind, rounds: u64) -> (Vec<Read>, Vec<Read>) {
    let bind = || TcpListener::bind("127.0.0.1:0").unwrap();
    let (hostile, victim, bystander) = (bind(), bind(), bind());
    let addr = |listener: &TcpListener| -> SocketAddr { listener.local_addr().unwrap() };
    let roster = BTreeMap::from([
        (HOSTILE, addr(&hostile)),
        (VICTIM, addr(&victim)),
        (BYSTANDER, addr(&bystander)),
    ]);
    let stall = kind == AttackKind::Stall;
    let poisoned = matches!(kind, AttackKind::Corrupt | AttackKind::Oversize);
    let plan = AttackPlan::new(9, kind, [HOSTILE]);
    let attacker = thread::spawn(move || {
        let _ = ByzantineNode::new(HOSTILE, plan, pin_config()).run(hostile, &roster);
    });
    let peer = |listener, me, poisoned| {
        thread::spawn(move || match stall {
            true => silent_peer(listener, me),
            false => scripted_peer(listener, me, rounds, poisoned),
        })
    };
    let (victim, bystander) = (
        peer(victim, VICTIM, poisoned),
        peer(bystander, BYSTANDER, false),
    );
    let logs = (victim.join().unwrap(), bystander.join().unwrap());
    attacker.join().unwrap();
    logs
}

fn hello() -> Read {
    Read::Frame(Frame::Hello { node: HOSTILE })
}

fn data(round: u64, msg: ConsensusMsg<u64>) -> Read {
    Read::Frame(Frame::Data {
        round,
        payload: msg.to_bytes(),
    })
}

/// Every script's barrier marker claims `decided`.
fn done(round: u64) -> Read {
    Read::Frame(Frame::Done {
        round,
        decided: true,
    })
}

fn rotor_init(round: u64) -> Read {
    data(round, ConsensusMsg::RotorInit)
}

fn sync_request() -> Read {
    Read::Frame(Frame::SyncRequest { since: 1 })
}

/// `count` copies of `read`.
fn times(count: usize, read: impl Fn() -> Read) -> Vec<Read> {
    (0..count).map(|_| read()).collect()
}

#[test]
fn equivocation_splits_each_phase_message_across_the_sorted_correct_peers() {
    let (victim, bystander) = attack(AttackKind::Equivocate { a: 5, b: 8 }, 6);
    // Two init rounds (round 1 announces the candidacy), then one phase:
    // the lower half of the correct peers hears `a`, the upper half `b`.
    let heard = |v: u64| {
        vec![
            hello(),
            rotor_init(1),
            done(1),
            done(2),
            data(3, ConsensusMsg::Input(v)),
            done(3),
            data(4, ConsensusMsg::Prefer(v)),
            done(4),
            data(5, ConsensusMsg::StrongPrefer(v)),
            done(5),
            data(6, ConsensusMsg::Opinion(v)),
            done(6),
        ]
    };
    assert_eq!(victim, heard(5));
    assert_eq!(bystander, heard(8));
}

#[test]
fn replay_resends_the_round_one_frame_to_the_victim_from_round_two_on() {
    let (victim, bystander) = attack(AttackKind::Replay { burst: 2 }, 3);
    let mut expected = vec![hello(), rotor_init(1), done(1)];
    for round in 2..=3 {
        expected.extend(times(2, || rotor_init(1)));
        expected.push(done(round));
    }
    assert_eq!(victim, expected);
    assert_eq!(
        bystander,
        [hello(), rotor_init(1), done(1), done(2), done(3)]
    );
}

/// The poison scripts: each round's poison follows its `Done` and costs
/// the victim's connection, and the attacker redials for the next strike.
fn poisoned(kind: AttackKind, fault: FrameFault) {
    let (victim, bystander) = attack(kind, 3);
    let mut expected = vec![hello(), rotor_init(1)];
    for round in 1..=3 {
        expected.extend([done(round), Read::Fault(Some(fault)), hello()]);
    }
    expected.pop(); // no redial is taken after the last round
    assert_eq!(victim, expected);
    assert_eq!(
        bystander,
        [hello(), rotor_init(1), done(1), done(2), done(3)]
    );
}

#[test]
fn corrupt_writes_an_undecodable_body_behind_every_done() {
    poisoned(AttackKind::Corrupt, FrameFault::Malformed);
}

#[test]
fn oversize_writes_a_four_gib_prefix_behind_every_done() {
    poisoned(AttackKind::Oversize, FrameFault::Oversize(u32::MAX));
}

#[test]
fn flood_sends_its_duplicates_to_every_peer_every_round() {
    let kind = AttackKind::Flood {
        frames_per_round: 3,
    };
    let (victim, bystander) = attack(kind, 3);
    let mut expected = vec![hello()];
    for round in 1..=3 {
        expected.extend(times(3, || rotor_init(round)));
        expected.push(done(round));
    }
    assert_eq!(victim, expected);
    assert_eq!(bystander, expected);
}

#[test]
fn backfill_spam_repeats_sync_requests_to_the_victim_every_round() {
    let kind = AttackKind::BackfillSpam {
        requests_per_round: 2,
    };
    let (victim, bystander) = attack(kind, 3);
    let mut expected = vec![hello(), rotor_init(1)];
    for round in 1..=3 {
        expected.extend(times(2, sync_request));
        expected.push(done(round));
    }
    assert_eq!(victim, expected);
    assert_eq!(
        bystander,
        [hello(), rotor_init(1), done(1), done(2), done(3)]
    );
}

#[test]
fn stall_sends_nothing_after_the_hello() {
    let (victim, bystander) = attack(AttackKind::Stall, 0);
    assert_eq!(victim, [hello(), Read::Silence]);
    assert_eq!(bystander, [hello(), Read::Silence]);
}

/// `EarlyConsensus`, panicking in round 2 if `panics`.
struct Fragile {
    inner: EarlyConsensus<u64>,
    panics: bool,
}

impl Process for Fragile {
    type Msg = ConsensusMsg<u64>;
    type Output = u64;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn on_round(&mut self, ctx: &mut Context<'_, ConsensusMsg<u64>>) {
        assert!(!self.panics || ctx.round() < 2, "injected member panic");
        self.inner.on_round(ctx);
    }

    fn output(&self) -> Option<u64> {
        self.inner.output()
    }
}

/// Four honest members — the first of them panicking if `panic` — and one
/// hostile member playing `kind`, under a 300 ms barrier and the default
/// setup and dial budgets. Returns the run and its wall time.
fn mixed_cluster(
    kind: AttackKind,
    panic: bool,
) -> (Result<ClusterRun<u64, NoopTracer>, NetError>, Duration) {
    let ids = sparse_ids(5, 41);
    let hostile = ids[2];
    let honest = ids.iter().filter(|&&id| id != hostile).enumerate();
    let members = honest.map(|(i, &id)| Fragile {
        inner: EarlyConsensus::new(id, (i % 2) as u64),
        panics: panic && i == 0,
    });
    let spec = ClusterSpec {
        hostile: Some(AttackPlan::new(41, kind, [hostile])),
        ..ClusterSpec::default()
    };
    let config = NetConfig {
        round_timeout: Duration::from_millis(300),
        setup_timeout: Duration::from_secs(10),
        ..NetConfig::default()
    };
    let started = Instant::now();
    let run = spec.run(members, config, |_| NoopTracer, |_| None);
    (run, started.elapsed())
}

#[test]
fn a_hostile_member_leaves_with_the_cluster() {
    for kind in [AttackKind::Stall, AttackKind::Corrupt, AttackKind::Oversize] {
        let name = kind.name();
        let (run, wall) = mixed_cluster(kind, false);
        let run = run.expect("the honest members complete");
        let rounds = run
            .reports
            .values()
            .map(|report| Duration::from_micros(report.round_micros.iter().sum()));
        let slowest = rounds.max().expect("four honest reports");
        // Setup and teardown are all that may separate the run from the
        // slowest honest member's rounds.
        let tail = wall.saturating_sub(slowest);
        assert!(
            tail < Duration::from_secs(5),
            "{name}: {tail:?} hostile tail"
        );
    }
}

#[test]
fn a_member_panic_ends_the_run_promptly_beside_a_stalling_member() {
    let (run, wall) = mixed_cluster(AttackKind::Stall, true);
    assert!(
        matches!(run, Err(NetError::MemberPanicked { .. })),
        "the panic is the run's verdict"
    );
    assert!(
        wall < Duration::from_secs(5),
        "the staller held on for {wall:?}"
    );
}
