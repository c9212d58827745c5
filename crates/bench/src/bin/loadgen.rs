//! `loadgen` — drive a running `logd` cluster with client load and check
//! the service's exactly-once promise from the outside.
//!
//! Spawns `--clients` concurrent clients, each connected to one of the
//! `--addr` endpoints round-robin, submitting `--count` records total
//! spread over `--keys` distinct keys. Closed-loop by default (each client
//! submits as fast as its acks return); `--rate R` switches to an open
//! loop paced at R submissions/second across all clients. When the
//! service closes ingest, clients stop cleanly — the check covers *acked*
//! submissions only, which is exactly the service's promise.
//!
//! After the load, every endpoint's sealed per-shard prefixes are read
//! back and checked: all endpoints agree on every shard, and every acked
//! submission appears exactly once in exactly one shard. Exit code 0
//! means the check passed; 1 means it failed; 2 is a usage or I/O error.
//!
//! ```text
//! loadgen --addr HOST:PORT[,HOST:PORT...] [--clients C] [--keys K]
//!         [--count N] [--rate R] [--seal-timeout-ms MS]
//! ```

use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use uba_bench::cli::{Argv, CliError};
use uba_net::{check_exactly_once, closed_loop, shard_of, LogClient, Record};

struct Args {
    addrs: Vec<String>,
    clients: usize,
    keys: usize,
    count: usize,
    rate: u64,
    seal_timeout_ms: u64,
}

const USAGE: &str = "usage: loadgen --addr HOST:PORT[,HOST:PORT...] [--clients C] [--keys K]\n\
     \x20              [--count N] [--rate R] [--seal-timeout-ms MS]\n\
     rate 0 (the default) is closed-loop: submit as fast as acks return";

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, CliError> {
    let mut argv = Argv::new(argv, USAGE);
    let mut args = Args {
        addrs: Vec::new(),
        clients: 4,
        keys: 64,
        count: 1_000,
        rate: 0,
        seal_timeout_ms: 120_000,
    };
    while let Some(flag) = argv.next_arg()? {
        match flag.as_str() {
            "--addr" => {
                args.addrs = argv
                    .value()?
                    .split(',')
                    .filter(|a| !a.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--clients" => args.clients = argv.parse_min(1)?,
            "--keys" => args.keys = argv.parse_min(1)?,
            "--count" => args.count = argv.parse()?,
            "--rate" => args.rate = argv.parse()?,
            "--seal-timeout-ms" => args.seal_timeout_ms = argv.parse()?,
            _ => return Err(argv.unknown()),
        }
    }
    if args.addrs.is_empty() {
        return Err(argv.error("--addr is required"));
    }
    Ok(args)
}

/// Reads the sealed prefixes of shards `0..shards` from one endpoint (a
/// shard the endpoint does not have reads as empty).
fn read_prefixes(addr: &str, shards: u32, timeout: Duration) -> Result<Vec<Vec<Record>>, String> {
    let mut client =
        LogClient::connect(addr).map_err(|e| format!("reader: connect {addr}: {e}"))?;
    (0..shards)
        .map(|shard| {
            client
                .read_sealed_prefix(shard, timeout)
                .map_err(|e| format!("reader: shard {shard} via {addr}: {e}"))
        })
        .collect()
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank]
}

fn run(args: &Args) -> Result<bool, String> {
    let pace = (args.rate > 0).then(|| {
        // Per-client pace: the global rate spread over the client count.
        Duration::from_secs_f64(args.clients as f64 / args.rate as f64)
    });
    let stop = Arc::new(AtomicBool::new(false));
    let quota = args.count.div_ceil(args.clients);
    let started = Instant::now();
    let workers: Vec<_> = (0..args.clients)
        .map(|i| {
            let addr = args.addrs[i % args.addrs.len()].clone();
            let stop = Arc::clone(&stop);
            let keys = args.keys;
            thread::spawn(move || {
                closed_loop(&addr, i, quota, keys, pace, &stop)
                    .map_err(|e| format!("client {i} via {addr}: {e}"))
            })
        })
        .collect();
    let mut acked = Vec::new();
    let mut latencies = Vec::new();
    for worker in workers {
        let (a, l) = worker.join().map_err(|_| "client thread panicked")??;
        acked.extend(a);
        latencies.extend(l);
    }
    let elapsed = started.elapsed();

    latencies.sort_unstable();
    let mean = latencies
        .iter()
        .sum::<u64>()
        .checked_div(latencies.len() as u64)
        .unwrap_or(0);
    println!(
        "load: {} acked in {:.2}s ({:.0} submissions/s), ack latency mean {}us p50 {}us p99 {}us",
        acked.len(),
        elapsed.as_secs_f64(),
        acked.len() as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
        mean,
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
    );
    if acked.is_empty() {
        println!("check: SKIPPED (no submission was acked — nothing promised)");
        return Ok(true);
    }

    // The shard count is not on the wire: take the smallest one, past the
    // highest shard an ack named, that maps every acked key to its shard.
    let named = acked.iter().map(|(_, _, s)| *s).max().unwrap_or(0) + 1;
    let explains = |n: &u32| acked.iter().all(|(key, _, s)| shard_of(key, *n) == *s);
    let shards = (named..named.saturating_mul(64))
        .find(explains)
        .unwrap_or(named);
    let timeout = Duration::from_millis(args.seal_timeout_ms);
    let mut all_prefixes = Vec::new();
    for addr in &args.addrs {
        all_prefixes.push((addr.clone(), read_prefixes(addr, shards, timeout)?));
    }
    let (first_addr, reference) = &all_prefixes[0];
    let mut ok = true;
    for (addr, prefixes) in &all_prefixes[1..] {
        if prefixes != reference {
            eprintln!("check: {addr} and {first_addr} disagree on the finalized prefixes");
            ok = false;
        }
    }

    if let Err(why) = check_exactly_once(&acked, reference, shards) {
        eprintln!("check: {why}");
        ok = false;
    }
    for (shard, prefix) in reference.iter().enumerate() {
        println!("shard {shard}: {} records", prefix.len());
    }
    println!(
        "check: {}",
        if ok {
            "PASS (every acked submission ordered exactly once, all endpoints agree)"
        } else {
            "FAIL"
        }
    );
    Ok(ok)
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
