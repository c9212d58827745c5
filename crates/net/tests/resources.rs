//! A finished cluster gives everything back (ROADMAP 3d): its descriptors
//! to the OS, its accept-loop and reader threads to the process-wide pool
//! that the next cluster draws from — so after the first cluster has
//! filled the pool, a process holds exactly as many descriptors *and*
//! threads after a run as before it. A log service's client connection
//! gives its descriptors and its thread back as soon as its client is
//! gone, while the service keeps serving.
//!
//! Teardown is synchronous — every node stops its acceptor and waits for
//! its readers before it reports, the harness joins every node — so the
//! counts are compared for equality, not bounded. This file keeps a single
//! `#[test]` so that no sibling test's threads share the process.
#![cfg(target_os = "linux")]

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use uba_core::consensus::EarlyConsensus;
use uba_net::{
    run_local_cluster, spawn_log_cluster, ClusterSpec, LinkPlan, LinkShaping, LinkSpec, LogClient,
    NetConfig,
};
use uba_sim::sparse_ids;
use uba_trace::NoopTracer;

const N: usize = 8;

/// Open descriptors and live threads of this process, from `/proc/self`.
fn held() -> (usize, usize) {
    let entries = |dir| std::fs::read_dir(dir).expect("procfs").count();
    (entries("/proc/self/fd"), entries("/proc/self/task"))
}

/// [`held`], once the kernel has caught up with the harness's joins: `join`
/// returns when an exiting thread releases its stack, a few instructions
/// before the kernel unlinks it from `/proc/self/task`. Only that window is
/// waited out — a thread the program still owns never leaves the listing,
/// so a leak fails the comparison all the same.
fn held_after_joins(threads_at_most: usize) -> (usize, usize) {
    for _ in 0..100 {
        if held().1 <= threads_at_most {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    held()
}

/// [`held`], once `settled` accepts it or a second has passed: a client
/// handler ends, and gives its descriptors and thread back, a moment after
/// its client leaves, and a new one starts a moment after it connects.
/// Only that moment is waited out.
fn held_once(settled: impl Fn((usize, usize)) -> bool) -> (usize, usize) {
    for _ in 0..1000 {
        if settled(held()) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    held()
}

fn run_one_cluster(seed: u64, config: &NetConfig) {
    let members = sparse_ids(N, seed)
        .into_iter()
        .enumerate()
        .map(|(i, id)| EarlyConsensus::new(id, (i % 2) as u64));
    let reports = run_local_cluster(members, config.clone(), |_| NoopTracer).expect("cluster runs");
    assert_eq!(reports.len(), N);
}

#[test]
fn finished_clusters_hold_no_descriptor_and_no_thread_of_their_own() {
    let config = NetConfig {
        round_timeout: Duration::from_secs(10),
        ..NetConfig::default()
    };

    // The first cluster fills the pool: at most its N acceptors and
    // N(N-1) readers stay, parked; every descriptor is back already.
    let cold = held();
    run_one_cluster(0, &config);
    let warm = held_after_joins(cold.1 + N * N);
    assert_eq!(warm.0, cold.0, "descriptors after the first cluster");
    assert!(
        warm.1 <= cold.1 + N * N,
        "threads parked after the first cluster: {} -> {}",
        cold.1,
        warm.1
    );

    for seed in 1..=3 {
        run_one_cluster(seed, &config);
    }
    assert_eq!(
        held_after_joins(warm.1),
        warm,
        "(descriptors, threads) after three more n=8 run_local_cluster calls"
    );

    let mut cluster = spawn_log_cluster(
        &sparse_ids(4, 7),
        2,
        1,
        config.clone(),
        |_| NoopTracer,
        |_| None,
    )
    .expect("log cluster spawns");
    assert_eq!(cluster.join_ordering().expect("ordering ends").len(), 4);
    // A client connection holds its descriptors only while it is served:
    // a long-lived member's client port does not grow by one per client.
    let addr = *cluster.client_addrs().values().next().expect("a member");
    let before = held().0;
    for _ in 0..100 {
        let mut client = LogClient::connect(addr).expect("client connects");
        client.read_prefix(0, 0).expect("the listener answers");
    }
    // Each handler ends when it reads its client's EOF.
    let after = held_once(|(descriptors, _)| descriptors <= before);
    assert_eq!(after.0, before, "descriptors after 100 client connections");
    // So does its thread: 32 clients that connect at once and never send
    // hold 32 threads while they stay, and none once they leave.
    let before = held();
    let silent: Vec<_> = (0..32)
        .map(|_| TcpStream::connect(addr).expect("client connects"))
        .collect();
    let busy = held_once(|(_, threads)| threads >= before.1 + 32);
    assert_eq!(busy.1, before.1 + 32, "threads serving 32 silent clients");
    drop(silent);
    assert_eq!(
        held_once(|now| now == before),
        before,
        "(descriptors, threads) after 32 silent clients left"
    );
    cluster.shutdown();
    assert_eq!(
        held_after_joins(warm.1),
        warm,
        "(descriptors, threads) after spawn_log_cluster, join_ordering, shutdown"
    );

    let ids = sparse_ids(4, 42);
    // The lossy WAN profile of experiment T13.
    let plan = LinkPlan::new(42).with_default(LinkSpec {
        latency: Duration::from_millis(2),
        jitter: Duration::from_millis(1),
        loss_ppm: 20_000,
        bandwidth: Some(256 * 1024),
    });
    let lossy = ClusterSpec {
        wan: Some(Arc::new(LinkShaping::new(plan, None))),
        ..ClusterSpec::default()
    };
    let members = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| EarlyConsensus::new(id, (i % 2) as u64));
    let run = lossy
        .run(members, config, |_| NoopTracer, |_| None)
        .expect("lossy cluster runs");
    assert_eq!(run.reports.len(), 4);
    assert_eq!(
        held_after_joins(warm.1),
        warm,
        "(descriptors, threads) after a lossy-profile cluster"
    );
}
