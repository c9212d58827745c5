//! WAN link shaping: zero impairment is invisible (shaped ≡ direct TCP,
//! checked against the engine over random seeds), loss is per
//! *direction*, scheduled partitions sever and heal on round boundaries,
//! a lossy-profile cluster still reaches agreement and drops the pinned
//! frames, a link's events and counters are the receiving member's,
//! teardown never waits out a delay, and a panicking member surfaces as a
//! typed error that promptly aborts the survivors.

use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use uba_core::consensus::EarlyConsensus;
use uba_net::{
    decisions, read_frame, run_local_cluster, write_frame, ClusterSpec, Frame, LinkPlan, LinkSpec,
    NetConfig, NetError, NetNode, NetReport, Wire,
};
use uba_sim::{sparse_ids, Context, NodeId, Process, SyncEngine};
use uba_trace::{
    metric_name, NoopTracer, RingTracer, RuntimeMetrics, SharedRuntimeMetrics, TraceEvent,
};

/// Broadcasts its round number for `rounds` rounds, then outputs how many
/// messages it received (own broadcasts self-deliver).
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

/// Generous timeouts: these tests assert decisions, not latency.
fn test_config() -> NetConfig {
    NetConfig {
        round_timeout: Duration::from_secs(10),
        setup_timeout: Duration::from_secs(30),
        max_rounds: 200,
        ..NetConfig::default()
    }
}

/// Short timeouts for the scripted fault scenarios.
fn quick_config(give_up_after: u64) -> NetConfig {
    NetConfig {
        round_timeout: Duration::from_millis(200),
        setup_timeout: Duration::from_secs(5),
        max_rounds: 50,
        give_up_after,
        ..NetConfig::default()
    }
}

fn consensus_cluster(seed: u64, n: usize) -> Vec<EarlyConsensus<u64>> {
    let ids = sparse_ids(n, seed);
    ids.iter()
        .enumerate()
        .map(|(i, &id)| EarlyConsensus::new(id, (seed >> (i % 64)) & 1))
        .collect()
}

/// Every member's whole trace: a ring that never drops.
fn full_trace(_: NodeId) -> RingTracer {
    RingTracer::new(usize::MAX)
}

/// A link event: `(kind, round, node, peer)`, where `node` received (or
/// lost) the frame `peer` sent.
type LinkFact = (&'static str, u64, u64, Option<u64>);

/// The `net_link_*` events of one member's trace.
fn link_facts(tracer: &RingTracer) -> Vec<LinkFact> {
    let facts = tracer.events().filter_map(|event| match *event {
        TraceEvent::Net {
            round, node, peer, ..
        } if event.kind().starts_with("net_link_") => Some((event.kind(), round, node, peer)),
        _ => None,
    });
    facts.collect()
}

/// Runs `factory()`'s processes in the engine and over TCP *under a
/// zero-impairment plan*; returns `(sim_outputs, net_outputs)`.
fn run_unimpaired<P, F>(
    seed: u64,
    factory: F,
) -> (BTreeMap<NodeId, P::Output>, BTreeMap<NodeId, P::Output>)
where
    P: Process + Send,
    P::Msg: Wire,
    P::Output: Send + Clone,
    F: Fn() -> Vec<P>,
{
    let mut engine = SyncEngine::builder().correct_many(factory()).build();
    let sim = engine
        .run_to_completion(200)
        .expect("simulator twin must complete");
    let plan = LinkPlan::new(seed);
    assert!(plan.is_zero_impairment());
    let shaped = ClusterSpec {
        wan: Some(Arc::new(plan)),
        ..ClusterSpec::default()
    };
    let reports = shaped
        .run(factory(), test_config(), full_trace, |_| None)
        .expect("shaped run must complete")
        .reports;
    for report in reports.values() {
        let facts = link_facts(&report.tracer);
        assert!(
            facts.is_empty(),
            "a zero-impairment plan records nothing: {facts:?}"
        );
    }
    (sim.outputs, decisions(&reports))
}

#[test]
fn zero_impairment_links_match_the_engine() {
    let (sim, net) = run_unimpaired(42, || consensus_cluster(42, 4));
    assert_eq!(sim, net);
    assert_eq!(net.len(), 4, "every member decided over shaped links");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shaped ≡ direct TCP for random seeds: an unimpaired link delivers
    /// every frame as it is read, so the decisions must equal the
    /// engine's — the same property `tests/equivalence.rs` holds for the
    /// unshaped transport.
    #[test]
    fn zero_impairment_equivalence_over_random_seeds(seed in 0u64..1_000_000) {
        let (sim, net) = run_unimpaired(seed, || consensus_cluster(seed, 4));
        prop_assert_eq!(&sim, &net, "seed {} diverged over shaped links", seed);
        prop_assert!(net.len() == 4, "someone failed to decide for seed {}", seed);
    }
}

/// Dials `addr` as node `me` and completes the handshake.
fn script_dial(addr: std::net::SocketAddr, me: NodeId) -> std::net::TcpStream {
    let mut stream = std::net::TcpStream::connect(addr).expect("scripted peer dial");
    stream.set_nodelay(true).unwrap();
    write_frame(&mut stream, &Frame::Hello { node: me }).unwrap();
    match read_frame(&mut stream).unwrap() {
        Some(Frame::Hello { .. }) => stream,
        other => panic!("expected Hello back, got {other:?}"),
    }
}

type NodeResult = Result<uba_net::NetReport<u64, RingTracer>, NetError>;

/// Spawns a [`NetNode`] (id 1) whose links are shaped by `plan` and
/// counted into `registry`, with the scripted peer (id 0) expected to dial
/// the returned address. Returns `(addr, node_handle)`.
fn spawn_shaped_node(
    rounds: u64,
    config: NetConfig,
    plan: LinkPlan,
    registry: SharedRuntimeMetrics,
) -> (std::net::SocketAddr, std::thread::JoinHandle<NodeResult>) {
    let me = NodeId::new(1);
    let peer = NodeId::new(0);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // The scripted peer has the smaller id, so the node accepts; its
    // roster address is never dialed and can be a placeholder.
    let roster: BTreeMap<NodeId, std::net::SocketAddr> =
        [(me, addr), (peer, "127.0.0.1:1".parse().unwrap())].into();
    let handle = std::thread::spawn(move || {
        NetNode::new(Counter::new(me, rounds), config)
            .with_tracer(RingTracer::new(4096))
            .with_runtime_metrics(registry)
            .with_links(Arc::new(plan))
            .run(listener, &roster)
    });
    (addr, handle)
}

/// The link of a `net_link_*{link="a->b"}` series, as `("a", "b")`.
fn link_of(series: &str) -> Option<(&str, &str)> {
    let (_, label) = series.strip_prefix("net_link_")?.split_once("{link=\"")?;
    label.strip_suffix("\"}")?.split_once("->")
}

#[test]
fn loss_is_asymmetric_per_direction() {
    let me = NodeId::new(1);
    let peer = NodeId::new(0);
    // 100% Data loss on peer -> node only; the reverse direction and all
    // control frames are untouched.
    let lost = LinkSpec {
        loss_ppm: 1_000_000,
        ..LinkSpec::default()
    };
    let plan = LinkPlan::new(9).with_link(peer, me, lost);
    let registry = SharedRuntimeMetrics::new();
    let (addr, handle) = spawn_shaped_node(1, quick_config(10), plan, registry.clone());

    let mut stream = script_dial(addr, peer);
    write_frame(
        &mut stream,
        &Frame::Data {
            round: 1,
            payload: 77u64.to_le_bytes().to_vec(),
        },
    )
    .unwrap();
    write_frame(
        &mut stream,
        &Frame::Done {
            round: 1,
            decided: false,
        },
    )
    .unwrap();
    write_frame(
        &mut stream,
        &Frame::Done {
            round: 2,
            decided: true,
        },
    )
    .unwrap();

    // The node's own direction is clean: its round-1 broadcast reaches the
    // scripted peer.
    let mut got_data = false;
    while let Ok(Some(frame)) = read_frame(&mut stream) {
        if let Frame::Data { round: 1, payload } = frame {
            assert_eq!(payload, 1u64.to_le_bytes().to_vec());
            got_data = true;
            break;
        }
    }
    assert!(got_data, "node -> peer direction must be unimpaired");

    let report = handle.join().unwrap().expect("run completes");
    // Only the node's own broadcast: the peer's payload was dropped, but
    // its Done markers passed, so no barrier ever timed out.
    assert_eq!(report.output, Some(1));
    assert_eq!(report.timeouts, 0, "control frames are never lossy");

    // The drop is the node's own observation, of a frame from the peer.
    assert_eq!(
        link_facts(&report.tracer),
        [("net_link_drop", 1, me.raw(), Some(peer.raw()))],
        "the drop is traced by the node that lost the frame"
    );
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.counter(&metric_name(
            "net_link_frames_dropped_total",
            &[("link", "0->1")]
        )),
        1,
        "exactly the one Data frame dropped, on the lossy direction"
    );
    // The reverse direction is the peer's to shape and count: the node's
    // registry holds only the link into it.
    let links: BTreeSet<_> = snapshot
        .counters()
        .filter_map(|(s, _)| link_of(s))
        .collect();
    assert_eq!(links, BTreeSet::from([("0", "1")]));
}

#[test]
fn partition_severs_mid_run_then_heals() {
    let me = NodeId::new(1);
    let peer = NodeId::new(0);
    // Round 2 is cut off (half-open window 2..3); rounds 1 and 3 flow.
    let plan = LinkPlan::new(3).with_partition(2..3, [me]);
    let (addr, handle) = spawn_shaped_node(3, quick_config(10), plan, SharedRuntimeMetrics::new());

    let mut stream = script_dial(addr, peer);
    for round in 1..=3u64 {
        write_frame(
            &mut stream,
            &Frame::Data {
                round,
                payload: (10 * round).to_le_bytes().to_vec(),
            },
        )
        .unwrap();
        write_frame(
            &mut stream,
            &Frame::Done {
                round,
                decided: false,
            },
        )
        .unwrap();
    }
    write_frame(
        &mut stream,
        &Frame::Done {
            round: 4,
            decided: true,
        },
    )
    .unwrap();

    let report = handle.join().unwrap().expect("run completes");
    // Three own broadcasts + the peer's round-1 and round-3 payloads; the
    // round-2 traffic died at the cut and was charged as an omission.
    assert_eq!(report.output, Some(5));
    assert!(report.timeouts >= 1, "the severed round missed its barrier");

    // The cut of round 2 and the heal by round 3's first frame are the
    // node's own observations of the link from the peer.
    let (me, peer) = (me.raw(), Some(peer.raw()));
    assert_eq!(
        link_facts(&report.tracer),
        [
            ("net_link_partition", 2, me, peer),
            ("net_link_heal", 3, me, peer)
        ]
    );
}

/// The lossy WAN profile of experiment T13: small latency and jitter, 2%
/// `Data` loss and a 256 KiB/s cap on every link.
fn lossy_plan(seed: u64) -> LinkPlan {
    LinkPlan::new(seed).with_default(LinkSpec {
        latency: Duration::from_millis(2),
        jitter: Duration::from_millis(1),
        loss_ppm: 20_000,
        bandwidth: Some(256 * 1024),
    })
}

/// Runs `plan` over an n = 4 [`EarlyConsensus`] cluster of `seed`, each
/// member tracing in full and counting into a registry of its own, and
/// checks that every link reports through the member it leads into: each
/// `net_link_*` event sits in the trace of the member it names as `node`,
/// and each `net_link_*{link="a->b"}` series only in `b`'s registry.
/// Returns the reports and the registries folded into one.
fn shaped_cluster(
    seed: u64,
    plan: LinkPlan,
    config: NetConfig,
) -> (BTreeMap<NodeId, NetReport<u64, RingTracer>>, RuntimeMetrics) {
    let spec = ClusterSpec {
        wan: Some(Arc::new(plan)),
        ..ClusterSpec::default()
    };
    let mut registries = BTreeMap::new();
    let reports = spec
        .run(consensus_cluster(seed, 4), config, full_trace, |id| {
            let registry = SharedRuntimeMetrics::new();
            registries.insert(id, registry.clone());
            Some(registry)
        })
        .expect("shaped run must decide")
        .reports;
    for (id, report) in &reports {
        for fact in link_facts(&report.tracer) {
            assert_eq!(fact.2, id.raw(), "{fact:?} is in the trace of {id}");
        }
    }
    let mut metrics = RuntimeMetrics::new();
    for (id, registry) in &registries {
        let snapshot = registry.snapshot();
        for (series, _) in snapshot.counters() {
            if let Some((_, to)) = link_of(series) {
                assert_eq!(
                    to,
                    id.raw().to_string(),
                    "{series} is in the registry of {id}"
                );
            }
        }
        metrics.merge(&snapshot);
    }
    (reports, metrics)
}

#[test]
fn lossy_profile_cluster_still_agrees() {
    let seed = 42;
    let (reports, metrics) = shaped_cluster(seed, lossy_plan(seed), test_config());

    let net = decisions(&reports);
    assert_eq!(net.len(), 4, "termination under 2% loss");
    let mut values: Vec<u64> = net.values().copied().collect();
    values.dedup();
    assert_eq!(values.len(), 1, "agreement under 2% loss");

    // The links actually shaped traffic, and their trace matches their
    // counters: one net_link_drop event per dropped frame.
    let forwarded = metrics.family_sum("net_link_frames_forwarded_total");
    let dropped = metrics.family_sum("net_link_frames_dropped_total");
    assert!(forwarded > 0, "frames passed the shapers");
    let facts = reports.values().flat_map(|r| link_facts(&r.tracer));
    let drops = facts.filter(|f| f.0 == "net_link_drop").count() as u64;
    assert_eq!(dropped, drops, "counters and trace agree on drops");
}

/// `sparse_ids(4, 42)` in ascending order.
const A: u64 = 1_546_998_764_402_558_742;
const B: u64 = 6_990_951_692_964_543_102;
const C: u64 = 12_544_586_762_248_559_009;
const D: u64 = 17_057_574_109_182_124_193;

/// Runs `plan` (seed 42, n = 4 [`EarlyConsensus`]) through
/// [`shaped_cluster`] and returns the sorted link events of the member
/// traces — drops, cuts and heals, every kind a link traces is
/// seed-determined — with the dropped and severed frame sums. Forwarded
/// counts are left out: they follow wall-clock arrival (DESIGN.md §11).
fn profile_facts(plan: LinkPlan, config: NetConfig) -> (Vec<LinkFact>, u64, u64) {
    let (reports, metrics) = shaped_cluster(42, plan, config);
    assert_eq!(decisions(&reports).len(), 4, "every member decided");
    let mut facts: Vec<LinkFact> = reports
        .values()
        .flat_map(|r| link_facts(&r.tracer))
        .collect();
    facts.sort_unstable();
    let dropped = metrics.family_sum("net_link_frames_dropped_total");
    let severed = metrics.family_sum("net_link_frames_severed_total");
    (facts, dropped, severed)
}

#[test]
fn lossy_profile_drops_the_pinned_frames() {
    let (facts, dropped, severed) = profile_facts(lossy_plan(42), test_config());
    // D lost A's frame in round 1 and C's in round 2.
    let expected = vec![
        ("net_link_drop", 1, D, Some(A)),
        ("net_link_drop", 2, D, Some(C)),
    ];
    assert_eq!(facts, expected);
    assert_eq!((dropped, severed), (2, 0));
}

#[test]
fn partition_profile_cuts_and_heals_the_pinned_links() {
    let config = NetConfig {
        round_timeout: Duration::from_millis(250),
        give_up_after: 10,
        ..test_config()
    };
    // The partition WAN profile of experiment T13: 2 ms links, and {A, B}
    // cut from {C, D} for rounds 3 and 4.
    let slow = LinkSpec {
        latency: Duration::from_millis(2),
        ..LinkSpec::default()
    };
    let plan = LinkPlan::new(42)
        .with_default(slow)
        .with_partition(3..5, [A, B].map(NodeId::new));
    let (facts, dropped, severed) = profile_facts(plan, config);
    // Every crossing link heals with its first round-5 frame.
    let crossing = [
        (A, C),
        (A, D),
        (B, C),
        (B, D),
        (C, A),
        (C, B),
        (D, A),
        (D, B),
    ];
    let windows = [
        ("net_link_heal", 5),
        ("net_link_partition", 3),
        ("net_link_partition", 4),
    ];
    let expected: Vec<LinkFact> = windows
        .into_iter()
        .flat_map(|(kind, round)| crossing.map(|(node, peer)| (kind, round, node, Some(peer))))
        .collect();
    assert_eq!(facts, expected);
    assert_eq!((dropped, severed), (0, 32));
}

/// How long a cluster whose every frame is held for an hour may take to
/// give up: five 200 ms barrier timeouts per peer, then the members run
/// alone — about a second and a half on an idle machine.
const HELD_LINKS_BOUND: Duration = Duration::from_secs(30);

#[test]
fn a_cluster_whose_links_hold_every_frame_for_an_hour_still_returns() {
    let seed = 42;
    let plan = LinkPlan::new(seed).with_default(LinkSpec {
        latency: Duration::from_secs(3600),
        ..LinkSpec::default()
    });
    let config = NetConfig {
        round_timeout: Duration::from_millis(200),
        max_rounds: 20,
        ..test_config()
    };
    let spec = ClusterSpec {
        wan: Some(Arc::new(plan)),
        ..ClusterSpec::default()
    };
    // The run goes on a thread of its own, so a teardown that waits out a
    // delay fails the test at the bound instead of hanging it.
    let (finished, watchdog) = std::sync::mpsc::channel();
    let running = std::thread::spawn(move || {
        // Members that hear nothing decide alone or hit the round limit;
        // either way the run must end.
        let _ = spec.run(consensus_cluster(seed, 4), config, |_| NoopTracer, |_| None);
        finished.send(()).unwrap();
    });
    let start = Instant::now();
    assert!(
        watchdog.recv_timeout(HELD_LINKS_BOUND).is_ok(),
        "the cluster was still running after {:?}",
        start.elapsed()
    );
    running.join().unwrap();
}

/// Broadcasts until `boom_at`, then panics (scripted harness bug).
struct Grenade {
    id: NodeId,
    boom_at: Option<u64>,
}

impl Process for Grenade {
    type Msg = u64;
    type Output = u64;

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_round(&mut self, ctx: &mut Context<'_, u64>) {
        if self.boom_at == Some(ctx.round()) {
            panic!("scripted member panic");
        }
        ctx.broadcast(ctx.round());
    }

    fn output(&self) -> Option<u64> {
        None
    }
}

#[test]
fn panicking_member_is_a_typed_error_and_aborts_the_survivors_promptly() {
    let ids = sparse_ids(4, 7);
    let victim = ids[2];
    let members = ids.iter().map(|&id| Grenade {
        id,
        boom_at: (id == victim).then_some(2),
    });
    // A 10s barrier: without the abort flag the survivors would sit out
    // (multiple) full timeouts after the victim vanishes — the elapsed
    // bound below is what proves the fast teardown.
    let start = Instant::now();
    let err =
        run_local_cluster(members, test_config(), |_| NoopTracer).expect_err("a member panicked");
    match err {
        NetError::MemberPanicked { id } => assert_eq!(id, victim, "the victim is named"),
        other => panic!("expected MemberPanicked, got {other}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(8),
        "survivors must abort promptly, took {:?}",
        start.elapsed()
    );
}
