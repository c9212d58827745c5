//! End-to-end runtime observability: a live cluster's Prometheus endpoints
//! answer scrapes while rounds run, counters only ever grow, and the final
//! exposition carries every advertised series family.
//!
//! The scrape loop races the cluster on purpose — endpoints must serve
//! partial state mid-run without perturbing the round loop (the registry is
//! wall-clock-only and never touches the deterministic event stream, so a
//! scraped run still decides exactly what an unscraped one does).
//!
//! The per-peer families come from each member's peer ledger, merged once
//! per round and once more when the session ends: what one member counts
//! as sent to a peer, that peer counts as received, and a session cut
//! short mid-round still leaves that round's counts behind.

use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use uba_core::consensus::EarlyConsensus;
use uba_net::{
    decisions, family_sum, read_frame, run_local_cluster_with_metrics, scrape_metrics,
    series_value, serve_metrics, write_frame, Frame, NetConfig, NetError, NetNode,
};
use uba_sim::{sparse_ids, NodeId};
use uba_trace::{metric_name, NoopTracer, SharedRuntimeMetrics};

/// Generous timeouts: this test asserts observability, not latency.
fn test_config() -> NetConfig {
    NetConfig {
        round_timeout: Duration::from_secs(10),
        setup_timeout: Duration::from_secs(30),
        max_rounds: 200,
        ..NetConfig::default()
    }
}

#[test]
fn live_cluster_scrapes_are_monotonic_and_complete() {
    let ids = sparse_ids(3, 42);
    let registries: BTreeMap<NodeId, SharedRuntimeMetrics> = ids
        .iter()
        .map(|&id| (id, SharedRuntimeMetrics::new()))
        .collect();
    let servers: BTreeMap<NodeId, _> = registries
        .iter()
        .map(|(&id, registry)| {
            let server = serve_metrics("127.0.0.1:0", registry.clone()).expect("bind endpoint");
            (id, server)
        })
        .collect();
    let addrs: Vec<_> = servers.values().map(|s| s.addr()).collect();

    let cluster = {
        let ids = ids.clone();
        let registries = registries.clone();
        thread::spawn(move || {
            let members = ids
                .iter()
                .enumerate()
                .map(|(i, &id)| EarlyConsensus::new(id, (i % 2) as u64));
            run_local_cluster_with_metrics(
                members,
                test_config(),
                |_| NoopTracer,
                |id| registries.get(&id).cloned(),
            )
        })
    };

    // Scrape all endpoints while the cluster runs: every counter we watch
    // must be non-decreasing between consecutive scrapes of one node.
    let mut last_rounds = vec![0u64; addrs.len()];
    let mut last_frames = vec![0u64; addrs.len()];
    for _ in 0..20 {
        for (i, &addr) in addrs.iter().enumerate() {
            let body = scrape_metrics(addr).expect("endpoint answers mid-run");
            let rounds = series_value(&body, "net_rounds_total").unwrap_or(0);
            let frames = family_sum(&body, "net_frames_sent_total");
            assert!(
                rounds >= last_rounds[i],
                "net_rounds_total went backwards on node {i}: {} -> {rounds}",
                last_rounds[i]
            );
            assert!(
                frames >= last_frames[i],
                "net_frames_sent_total went backwards on node {i}: {} -> {frames}",
                last_frames[i]
            );
            last_rounds[i] = rounds;
            last_frames[i] = frames;
        }
        thread::sleep(Duration::from_millis(5));
    }

    let reports = cluster
        .join()
        .expect("cluster thread")
        .expect("cluster run completes");
    assert_eq!(decisions(&reports).len(), 3, "every member decided");

    // The final exposition from each node carries the full advertised
    // vocabulary: round counter, latency histogram, every phase series,
    // per-peer frame/byte counters, and the history-depth gauges.
    for (id, server) in servers {
        let body = scrape_metrics(server.addr()).expect("final scrape");
        let rounds = series_value(&body, "net_rounds_total").expect("rounds counter");
        assert!(rounds >= 1, "node {id} recorded no rounds");
        assert_eq!(
            series_value(&body, "net_round_micros_count"),
            Some(rounds),
            "one round-latency observation per round"
        );
        for phase in ["step", "send", "deliver", "barrier", "journal"] {
            let series = format!("net_round_phase_micros{{phase=\"{phase}\",le=\"+Inf\"}}");
            // The phase histogram renders with `le` spliced after `phase`.
            let bucket = format!("net_round_phase_micros_bucket{{phase=\"{phase}\",le=\"+Inf\"}}");
            assert!(
                series_value(&body, &bucket).is_some() || series_value(&body, &series).is_some(),
                "node {id} missing phase series for {phase:?}:\n{body}"
            );
        }
        assert!(
            family_sum(&body, "net_frames_sent_total") > 0,
            "node {id} sent no counted frames"
        );
        assert!(
            family_sum(&body, "net_bytes_sent_total") > family_sum(&body, "net_frames_sent_total"),
            "every frame is more than one byte"
        );
        assert!(
            family_sum(&body, "net_frames_received_total") > 0,
            "node {id} received no counted frames"
        );
        assert_eq!(
            series_value(&body, "net_history_rounds_limit"),
            Some(test_config().history_rounds as u64)
        );
        assert!(series_value(&body, "net_history_rounds_retained").is_some());
        server.shutdown();
    }
}

#[test]
fn uninstrumented_nodes_cost_nothing_and_instrumented_runs_still_decide() {
    // Mixed cluster: only one member carries a registry; the run must
    // still decide unanimously and the registry must fill in.
    let ids = sparse_ids(4, 7);
    let observed = ids[0];
    let registry = SharedRuntimeMetrics::new();
    let handle = registry.clone();
    let members = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| EarlyConsensus::new(id, (i % 2) as u64));
    let reports = run_local_cluster_with_metrics(
        members,
        test_config(),
        |_| NoopTracer,
        |id| (id == observed).then(|| handle.clone()),
    )
    .expect("cluster run completes");
    assert_eq!(decisions(&reports).len(), 4);

    let snapshot = registry.snapshot();
    assert!(snapshot.counter("net_rounds_total") >= 1);
    let body = snapshot.render_prometheus();
    assert!(body.contains("net_round_micros_bucket"));
}

#[test]
fn every_members_round_phases_sum_to_its_round_time() {
    // The four outer phases are consecutive laps of one chain per round,
    // so over any set of rounds their sums add up to the round time's sum
    // exactly, as integers. `deliver` is frame handling nested inside the
    // barrier wait, and the report's per-round times are the registry's.
    let ids = sparse_ids(4, 11);
    let registries: BTreeMap<NodeId, SharedRuntimeMetrics> = ids
        .iter()
        .map(|&id| (id, SharedRuntimeMetrics::new()))
        .collect();
    let members = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| EarlyConsensus::new(id, (i % 2) as u64));
    let reports = run_local_cluster_with_metrics(
        members,
        test_config(),
        |_| NoopTracer,
        |id| registries.get(&id).cloned(),
    )
    .expect("cluster run completes");
    assert_eq!(decisions(&reports).len(), 4, "every member decided");

    for (id, registry) in &registries {
        let m = registry.snapshot();
        let sum = |name: &str| m.timing(name).map_or(0, |h| h.sum());
        let phase = |p: &str| sum(&metric_name("net_round_phase_micros", &[("phase", p)]));
        let total = sum("net_round_micros");
        let outer: u64 = ["step", "send", "barrier", "journal"]
            .map(phase)
            .into_iter()
            .sum();
        assert_eq!(outer, total, "{id}: step + send + barrier + journal");
        assert!(
            phase("deliver") <= phase("barrier"),
            "{id}: deliver {} > barrier {}",
            phase("deliver"),
            phase("barrier")
        );
        let report = &reports[id];
        assert_eq!(
            report.round_micros.len() as u64,
            m.counter("net_rounds_total")
        );
        assert_eq!(
            report.round_micros.iter().sum::<u64>(),
            total,
            "{id}: report"
        );
    }
}

/// `family{peer="<peer>"}` in `registry`.
fn peer_counter(registry: &SharedRuntimeMetrics, family: &str, peer: NodeId) -> u64 {
    let name = metric_name(family, &[("peer", &peer.raw().to_string())]);
    registry.snapshot().counter(&name)
}

#[test]
fn every_frame_one_member_counts_as_sent_its_peer_counts_as_received() {
    // A clean cluster's members all finish in the same round, and the last
    // thing a member sends a peer is the Done that peer waits for before it
    // finishes: nothing is lost on the wire, so for every ordered pair
    // (a, b) the two ledgers must agree. A round whose publish went
    // missing on either side breaks the equality.
    let ids = sparse_ids(4, 42);
    let registries: BTreeMap<NodeId, SharedRuntimeMetrics> = ids
        .iter()
        .map(|&id| (id, SharedRuntimeMetrics::new()))
        .collect();
    let members = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| EarlyConsensus::new(id, (i % 2) as u64));
    let reports = run_local_cluster_with_metrics(
        members,
        test_config(),
        |_| NoopTracer,
        |id| registries.get(&id).cloned(),
    )
    .expect("cluster run completes");
    assert_eq!(decisions(&reports).len(), 4, "every member decided");

    for (&a, sender) in &registries {
        for (&b, receiver) in registries.iter().filter(|(&b, _)| b != a) {
            for (sent, received) in [
                ("net_frames_sent_total", "net_frames_received_total"),
                ("net_bytes_sent_total", "net_bytes_received_total"),
            ] {
                let out = peer_counter(sender, sent, b);
                assert!(out > 0, "{a} sent {b} nothing");
                assert_eq!(
                    out,
                    peer_counter(receiver, received, a),
                    "{a}'s {sent} for {b} against {b}'s {received} for {a}"
                );
            }
        }
    }
}

#[test]
fn a_session_aborted_mid_round_leaves_its_last_counts_in_the_registry() {
    // One node and a scripted peer that reads the node's round-1 traffic
    // and never answers it: the node waits at the round-1 barrier, which
    // never completes, so round 1 never advances. The abort flag ends the
    // session there, through an error return — and the registry must still
    // hold exactly what the peer read off the wire.
    let (me, peer) = (NodeId::new(1), NodeId::new(0));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let roster = BTreeMap::from([(me, addr), (peer, "127.0.0.1:1".parse().unwrap())]);
    let registry = SharedRuntimeMetrics::new();
    let abort = Arc::new(AtomicBool::new(false));
    let node = NetNode::new(EarlyConsensus::new(me, 1u64), test_config())
        .with_runtime_metrics(registry.clone())
        .with_abort_flag(Arc::clone(&abort));
    let handle = thread::spawn(move || node.run(listener, &roster));

    let mut stream = TcpStream::connect(addr).expect("scripted peer dial");
    write_frame(&mut stream, &Frame::Hello { node: peer }).unwrap();
    let mut frames = 0;
    let mut bytes = 0;
    loop {
        let frame = read_frame(&mut stream).unwrap().expect("a frame");
        let mut encoded = Vec::new();
        write_frame(&mut encoded, &frame).unwrap();
        if matches!(frame, Frame::Hello { .. }) {
            continue; // the handshake's, which no ledger counts
        }
        frames += 1;
        bytes += encoded.len() as u64;
        if matches!(frame, Frame::Done { round: 1, .. }) {
            break;
        }
    }
    abort.store(true, Ordering::Relaxed);
    let ended = handle.join().expect("node thread");
    assert!(matches!(ended, Err(NetError::Aborted)), "{ended:?}");

    assert_eq!(
        peer_counter(&registry, "net_frames_sent_total", peer),
        frames
    );
    assert_eq!(peer_counter(&registry, "net_bytes_sent_total", peer), bytes);
    assert_eq!(peer_counter(&registry, "net_connects_total", peer), 1);
    assert_eq!(registry.snapshot().counter("net_rounds_total"), 0);
}
