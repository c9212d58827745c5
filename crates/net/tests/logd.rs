//! End-to-end `logd` service tests: a real 3-node TCP cluster under
//! client load, checked for the service's core promise — **every acked
//! submission appears exactly once in exactly one shard's finalized
//! prefix, and all nodes agree on every shard's prefix** (DESIGN.md §12).
//! Small records, and 8 KiB ones whose rounds outgrow any fixed buffer.
//!
//! Plus the scripted client conversations: a submit while an ordering
//! round is in flight, duplicate-submit dedup re-acking the original
//! slot, and a read of a not-yet-finalized prefix; and a many-shard
//! cluster whose honest traffic must stay inside the ingress quota.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::thread;
use std::time::Duration;

use uba_net::{
    check_exactly_once, closed_loop, shard_of, spawn_log_cluster, LogClient, LogCluster, NetConfig,
    Record,
};
use uba_sim::{sparse_ids, NodeId};
use uba_trace::{NoopTracer, SharedRuntimeMetrics};

/// Service config for tests: generous timeouts (decisions, not latency),
/// and a round pace wide enough that client submissions reliably land
/// inside the ingest window on a loaded CI machine.
fn service_config() -> NetConfig {
    NetConfig {
        round_timeout: Duration::from_secs(10),
        setup_timeout: Duration::from_secs(30),
        max_rounds: 500,
        round_pace: Duration::from_millis(20),
        ..NetConfig::default()
    }
}

fn spawn(seed: u64, nodes: usize, shards: u32, ingest_until: u64) -> LogCluster<NoopTracer> {
    let ids = sparse_ids(nodes, seed);
    spawn_log_cluster(
        &ids,
        shards,
        ingest_until,
        service_config(),
        |_| NoopTracer,
        |_| None,
    )
    .expect("cluster spawns")
}

/// Submits `count` records, the `i`-th carrying `payload(i)`, round-robin
/// across every node's client listener; returns the acked `(shard, key,
/// payload)` slots. Stops early (without failing) if ingest closes mid-way
/// — the invariant under test is about *acked* submissions only.
fn submit_load(
    cluster: &LogCluster<NoopTracer>,
    count: usize,
    keys: usize,
    payload: impl Fn(usize) -> Vec<u8>,
) -> Vec<(u32, String, Vec<u8>)> {
    let addrs: Vec<_> = cluster.client_addrs().values().copied().collect();
    let mut clients: Vec<LogClient> = addrs
        .iter()
        .map(|addr| LogClient::connect(addr).expect("client connects"))
        .collect();
    let mut acked = Vec::new();
    for i in 0..count {
        let key = format!("key-{}", i % keys);
        let payload = payload(i);
        let slot = i % clients.len();
        let client = &mut clients[slot];
        match client.submit(&key, &payload).expect("submit I/O") {
            Some((shard, _seq)) => acked.push((shard, key, payload)),
            None => break,
        }
    }
    acked
}

/// Reads every shard's sealed prefix from every node and asserts all
/// nodes serve identical prefixes; returns the agreed prefixes.
fn sealed_prefixes(cluster: &LogCluster<NoopTracer>, shards: u32) -> Vec<Vec<Record>> {
    let mut agreed: Vec<Option<Vec<Record>>> = vec![None; shards as usize];
    for (id, addr) in cluster.client_addrs() {
        let mut client = LogClient::connect(addr).expect("reader connects");
        for shard in 0..shards {
            let prefix = client
                .read_sealed_prefix(shard, Duration::from_secs(60))
                .expect("prefix seals");
            match &agreed[shard as usize] {
                None => agreed[shard as usize] = Some(prefix),
                Some(first) => {
                    assert_eq!(
                        first, &prefix,
                        "node {id} disagrees on shard {shard}'s finalized prefix"
                    );
                }
            }
        }
    }
    agreed.into_iter().map(|p| p.expect("read")).collect()
}

/// Every acked submission is in exactly one shard's prefix exactly once,
/// in the shard `shard_of` promised; nothing unacked sneaks in.
fn assert_exactly_once(acked: &[(u32, String, Vec<u8>)], prefixes: &[Vec<Record>], shards: u32) {
    let mut counts: BTreeMap<(String, Vec<u8>), usize> = BTreeMap::new();
    for (shard, prefix) in prefixes.iter().enumerate() {
        for record in prefix {
            assert_eq!(
                shard_of(&record.key, shards),
                shard as u32,
                "record {:?} landed in the wrong shard",
                record.key
            );
            *counts
                .entry((record.key.clone(), record.payload.clone()))
                .or_default() += 1;
        }
    }
    for (shard, key, payload) in acked {
        let n = counts.remove(&(key.clone(), payload.clone())).unwrap_or(0);
        assert_eq!(
            n, 1,
            "acked submission {key:?} (shard {shard}) appears {n} times in the finalized log"
        );
    }
    assert!(
        counts.is_empty(),
        "unacked records in the finalized log: {:?}",
        counts.keys().take(5).collect::<Vec<_>>()
    );
}

/// Runs a 3-node cluster under `count` submissions (the `i`-th carrying
/// `payload(i)`) and checks agreement and exactly-once on what clients read
/// back; returns how many submissions were acked.
fn run_end_to_end(
    seed: u64,
    shards: u32,
    count: usize,
    payload: impl Fn(usize) -> Vec<u8>,
) -> usize {
    let mut cluster = spawn(seed, 3, shards, 30);
    let acked = submit_load(&cluster, count, 24, payload);
    assert!(
        !acked.is_empty(),
        "the ingest window closed before any submission was acked"
    );
    let reports = cluster.join_ordering().expect("ordering completes");
    assert_eq!(reports.len(), 3, "every member reports");

    // The members' own outputs agree shard by shard.
    let outputs: Vec<_> = reports.values().map(|r| r.output.clone()).collect();
    for output in &outputs {
        assert_eq!(output, &outputs[0], "member outputs diverge");
    }

    // What clients read over the wire matches, node against node...
    let prefixes = sealed_prefixes(&cluster, shards);
    // ...and matches the members' outputs.
    assert_eq!(
        prefixes,
        outputs[0].clone().expect("members terminated"),
        "served prefixes diverge from the ordering output"
    );
    assert_exactly_once(&acked, &prefixes, shards);
    cluster.shutdown();
    acked.len()
}

fn small_payload(i: usize) -> Vec<u8> {
    format!("payload-{i}").into_bytes()
}

#[test]
fn three_nodes_one_shard_exactly_once() {
    run_end_to_end(7, 1, 60, small_payload);
}

#[test]
fn three_nodes_four_shards_exactly_once() {
    run_end_to_end(11, 4, 60, small_payload);
}

/// Records of 8 KiB, each a distinct byte pattern: every consensus wave
/// carries its batch in its messages, so a round puts well over 8 KiB on
/// each link, and every payload crosses the codec as one byte vector on
/// the way in, between the members and on the way out. Exactly-once
/// compares the payloads clients read back with the acked ones byte for
/// byte.
#[test]
fn three_nodes_one_shard_order_eight_kib_records_exactly_once() {
    let payload = |i: usize| (0..8 * 1024).map(|j| (i * 131 + j * 7) as u8).collect();
    let acked = run_end_to_end(13, 1, 48, payload);
    assert!(acked >= 40, "only {acked} of 48 large records were acked");
}

#[test]
fn scripted_client_conversation() {
    // A long ingest window so the scripted conversation happens while
    // ordering rounds are demonstrably in flight.
    let mut cluster = spawn(5, 3, 2, 40);
    let addr = *cluster.client_addrs().values().next().expect("a node");
    let mut client = LogClient::connect(addr).expect("client connects");

    // Read of a not-yet-finalized prefix: answered immediately (no block),
    // unsealed, and without the submission we have not even made yet.
    let page = client.read_prefix(0, 0).expect("read answers");
    assert!(
        !page.sealed,
        "prefix cannot be sealed inside the ingest window"
    );

    // Submit during an in-flight round: acked with the key's shard.
    let (shard, seq) = client
        .submit("alpha", b"one")
        .expect("submit I/O")
        .expect("ingest open");
    assert_eq!(shard, shard_of("alpha", 2));

    // Duplicate submit: re-acked with the *same* slot, not a new one.
    let dup = client
        .submit("alpha", b"one")
        .expect("submit I/O")
        .expect("duplicates are re-acked");
    assert_eq!(dup, (shard, seq), "duplicate got a fresh slot");

    // Same key, new payload: a fresh slot on the same shard.
    let (shard2, seq2) = client
        .submit("alpha", b"two")
        .expect("submit I/O")
        .expect("ingest open");
    assert_eq!(shard2, shard);
    assert_ne!(seq2, seq);

    // The unfinalized read again, now racing the ordering rounds: whatever
    // it serves must be a prefix of the final log.
    let early = client.read_prefix(shard, 0).expect("read answers");

    let _ = cluster.join_ordering().expect("ordering completes");
    let sealed = client
        .read_sealed_prefix(shard, Duration::from_secs(60))
        .expect("prefix seals");
    assert!(
        early.records.len() <= sealed.len() && early.records[..] == sealed[..early.records.len()],
        "an early read served something the final log rewrote"
    );
    // Exactly one record per acked slot, duplicate folded in.
    let alphas: Vec<&Record> = sealed.iter().filter(|r| r.key == "alpha").collect();
    assert_eq!(alphas.len(), 2, "two distinct payloads, duplicate deduped");
    cluster.shutdown();
}

/// Many shards, with paced clients at every member: a round's traffic
/// between two honest members must stay inside the ingress quota. The
/// quota is lowered to 64 frames so that a short run is enough: when every
/// member ran one instance per shard and every message travelled as a
/// frame of its own, 16 busy shards put more than 64 frames on a link in
/// one round, and the members charged each other `flood` strikes and
/// evicted each other. Now a member runs one instance whatever the shard
/// count and sends a round's traffic to a peer in a bundle.
#[test]
fn many_busy_shards_stay_inside_the_ingress_quota() {
    let shards = 16;
    let ids = sparse_ids(4, 44);
    let registries: BTreeMap<NodeId, SharedRuntimeMetrics> = ids
        .iter()
        .map(|&id| (id, SharedRuntimeMetrics::new()))
        .collect();
    let config = NetConfig {
        max_frames_per_round: 64,
        ..service_config()
    };
    let mut cluster = spawn_log_cluster(
        &ids,
        shards,
        30,
        config,
        |_| NoopTracer,
        |id| Some(registries[&id].clone()),
    )
    .expect("cluster spawns");
    let stop = AtomicBool::new(false);
    let acked: Vec<_> = thread::scope(|scope| {
        let clients: Vec<_> = cluster
            .client_addrs()
            .values()
            .enumerate()
            .map(|(i, &addr)| {
                let stop = &stop;
                let pace = Some(Duration::from_millis(3));
                scope.spawn(move || closed_loop(addr, i, 150, 512, pace, stop))
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|client| client.join().expect("client thread").expect("submit I/O").0)
            .collect()
    });
    assert!(!acked.is_empty(), "no submission was acked");
    let reports = cluster.join_ordering().expect("ordering completes");

    for (id, registry) in &registries {
        let snapshot = registry.snapshot();
        let strikes: Vec<_> = snapshot
            .counters()
            .filter(|(name, _)| name.starts_with("net_misbehavior_total"))
            .collect();
        assert!(
            strikes.is_empty(),
            "member {id} charged honest peers with misbehavior: {strikes:?}"
        );
    }
    let outputs: Vec<_> = reports.values().map(|r| r.output.clone()).collect();
    assert_eq!(outputs.len(), ids.len(), "every member reports");
    for output in &outputs {
        assert_eq!(output, &outputs[0], "member outputs diverge");
    }
    let prefixes = outputs[0].clone().expect("members terminated");
    check_exactly_once(&acked, &prefixes, shards).expect("every acked record ordered once");
    cluster.shutdown();
}
