//! `logd` — run a localhost `uba-net` log-service cluster.
//!
//! Every node runs one total-ordering instance whose records `--shards`
//! key shards partition (DESIGN.md §12), accepts client submissions over
//! the wire, and serves finalized per-shard prefixes. Drive it with the `loadgen` binary from
//! another terminal. Exit code 0 means every member terminated and all
//! members finalized identical per-shard prefixes; 1 means they diverged;
//! 2 is a usage or transport error.
//!
//! ```text
//! logd [--nodes N] [--shards S] [--seed SEED] [--ingest-rounds R]
//!      [--pace-ms MS] [--timeout-ms MS] [--max-rounds R]
//!      [--metrics-addr HOST:PORT] [--linger-ms MS]
//! ```
//!
//! The service accepts submissions for `--ingest-rounds` rounds, each
//! paced to `--pace-ms` so client traffic lands between round barriers,
//! then runs the ordering out to its horizon and seals. Client listener
//! addresses are printed one per line as `client: NODE ADDR` — `loadgen`
//! takes the addresses. After sealing, the listeners keep serving reads
//! for `--linger-ms` so late readers can fetch the final prefixes.
//!
//! With `--metrics-addr HOST:PORT`, the member with the i-th smallest id
//! serves its wall-clock runtime metrics on `PORT + i` — the transport
//! families (`net_*`) plus the per-shard service families
//! (`logd_submits_total{shard=..}`, `logd_batches_total{shard=..}`,
//! `logd_batch_records_total{shard=..}`, `logd_prefix_records{shard=..}`,
//! `logd_reads_total{shard=..}`), and `logd_hidden_items_total` once a
//! member hid a message naming a batch it could not resolve — which no
//! honest cluster does. `cluster scrape` works against them.

use std::process::ExitCode;
use std::time::Duration;

use uba_bench::cli::{Argv, CliError};
use uba_net::{serve_cluster_metrics, spawn_log_cluster, NetConfig};
use uba_sim::sparse_ids;
use uba_trace::NoopTracer;

struct Args {
    nodes: u64,
    shards: u32,
    seed: u64,
    ingest_rounds: u64,
    pace_ms: u64,
    timeout_ms: u64,
    max_rounds: u64,
    metrics_addr: Option<String>,
    linger_ms: u64,
}

const USAGE: &str = "usage: logd [--nodes N] [--shards S] [--seed SEED] [--ingest-rounds R]\n\
     \x20           [--pace-ms MS] [--timeout-ms MS] [--max-rounds R]\n\
     \x20           [--metrics-addr HOST:PORT] [--linger-ms MS]";

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, CliError> {
    let mut argv = Argv::new(argv, USAGE);
    let mut args = Args {
        nodes: 3,
        shards: 4,
        seed: 42,
        ingest_rounds: 50,
        pace_ms: 50,
        timeout_ms: 5_000,
        max_rounds: 10_000,
        metrics_addr: None,
        linger_ms: 2_000,
    };
    while let Some(flag) = argv.next_arg()? {
        match flag.as_str() {
            "--nodes" => args.nodes = argv.parse_min(2)?,
            "--shards" => args.shards = argv.parse_min(1)?,
            "--seed" => args.seed = argv.parse()?,
            "--ingest-rounds" => args.ingest_rounds = argv.parse_min(1)?,
            "--pace-ms" => args.pace_ms = argv.parse()?,
            "--timeout-ms" => args.timeout_ms = argv.parse()?,
            "--max-rounds" => args.max_rounds = argv.parse()?,
            "--metrics-addr" => args.metrics_addr = Some(argv.value()?),
            "--linger-ms" => args.linger_ms = argv.parse()?,
            _ => return Err(argv.unknown()),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<bool, String> {
    let ids = sparse_ids(args.nodes as usize, args.seed);
    let config = NetConfig {
        round_timeout: Duration::from_millis(args.timeout_ms),
        max_rounds: args.max_rounds,
        round_pace: Duration::from_millis(args.pace_ms),
        ..NetConfig::default()
    };

    // One runtime registry + exposition endpoint per member, the `cluster`
    // binary's port convention: i-th smallest id on base port + i.
    let metrics = args
        .metrics_addr
        .as_deref()
        .map(|addr| serve_cluster_metrics(addr, &ids))
        .transpose()
        .map_err(|e| format!("--metrics-addr: {e}"))?;

    let mut cluster = spawn_log_cluster(
        &ids,
        args.shards,
        args.ingest_rounds,
        config,
        |_| NoopTracer,
        |id| metrics.as_ref()?.members.get(&id).cloned(),
    )
    .map_err(|e| format!("spawning the cluster: {e}"))?;
    println!(
        "logd: {} nodes x {} shards, ingesting for {} rounds at {}ms/round",
        args.nodes, args.shards, args.ingest_rounds, args.pace_ms
    );
    for (id, addr) in cluster.client_addrs() {
        println!("client: {id} {addr}");
    }

    let reports = cluster
        .join_ordering()
        .map_err(|e| format!("cluster run failed: {e}"))?;

    // Agreement: every member finalized the same per-shard prefixes.
    let outputs: Vec<_> = reports.values().map(|r| r.output.clone()).collect();
    let agreed = outputs.iter().all(|o| o == &outputs[0]);
    if let Some(Some(prefixes)) = outputs.first() {
        let total: usize = prefixes.iter().map(Vec::len).sum();
        for (shard, prefix) in prefixes.iter().enumerate() {
            println!("shard {shard}: {} records finalized", prefix.len());
        }
        let rounds = reports.values().map(|r| r.rounds).max().unwrap_or(0);
        println!("logd: {total} records ordered in {rounds} rounds");
    }
    println!(
        "prefixes: {}",
        if agreed {
            "MATCH (all nodes finalized identical shard prefixes)"
        } else {
            "MISMATCH (shard prefixes diverged across nodes)"
        }
    );

    // Keep serving sealed reads for late readers, then tear down.
    std::thread::sleep(Duration::from_millis(args.linger_ms));
    cluster.shutdown();
    if let Some(metrics) = metrics {
        metrics.shutdown();
    }
    Ok(agreed)
}

fn main() -> ExitCode {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|err| err.exit());
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
