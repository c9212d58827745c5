//! `cluster` — run an n-node localhost TCP cluster and check it against
//! the simulator.
//!
//! Spawns `--nodes` members of the chosen algorithm over real sockets,
//! runs the *same* seeded configuration on the in-process `SyncEngine`,
//! and asserts the two executions decide identically. Exit code 0 means
//! the decisions matched; 1 means they diverged (a transport bug); 2 is a
//! usage error.
//!
//! ```text
//! cluster [--nodes N] [--algo consensus|reliable|approx] [--seed S]
//!         [--timeout-ms MS] [--max-rounds R] [--trace-out PREFIX]
//!         [--kill ROUND] [--restart-at ROUND] [--victim IDX]
//!         [--journal-dir DIR] [--tear-journal]
//!         [--metrics-addr HOST:PORT] [--history-rounds N]
//! cluster scrape --addr HOST:PORT --nodes N [--interval-ms MS] [--count K]
//! ```
//!
//! With `--metrics-addr HOST:PORT`, every member serves its wall-clock
//! runtime metrics (phase timing histograms, per-peer byte/frame counters,
//! reconnect/backfill/omission counters) in the Prometheus text format:
//! the member with the i-th smallest id listens on `PORT + i`. The
//! `scrape` helper polls those endpoints from another terminal and renders
//! a live per-node table (`--count 0` polls until interrupted).
//!
//! With `--trace-out PREFIX`, each member's trace is written to
//! `PREFIX-N<id>.jsonl` — the same JSONL vocabulary the simulator's soak
//! runner dumps, plus the `net_*` transport events.
//!
//! With `--kill ROUND`, the crash-recovery drill (experiment T12): every
//! member keeps a durable round journal under `--journal-dir`, the victim
//! (by default the first member; `--victim` picks another index) is killed
//! at the start of that round, rebuilt from its journal, and rejoins over
//! the backfill protocol. `--restart-at R2` (default: the kill round)
//! holds the victim down for `(R2 - ROUND) * timeout` before it recovers;
//! an immediate restart is the byte-identical case. `--tear-journal`
//! truncates the journal mid-line first, exercising torn-tail recovery.
//! The decisions are still compared against the *uninterrupted* simulator
//! run: MATCH means the crash was invisible to the protocol's outcome.
//!
//! With `--wan-profile geo|lossy|partition` (or a custom `--link-plan
//! KEY=VAL,...`), every member is fronted by the deterministic WAN fault
//! proxy (DESIGN.md §11): seeded per-link latency/jitter/loss/bandwidth
//! shaping and round-keyed partitions, applied between the sockets and
//! the framed codec. Under an impairing plan the sim-twin comparison
//! becomes informational and the exit code instead asserts the protocol's
//! own guarantee — every member decided, and the decisions agree. A
//! zero-impairment `--link-plan` keeps the strict byte-identity check and
//! proves the proxy invisible. With `--trace-out`, the proxy's
//! `net_link_*` events land in `PREFIX-links.jsonl`; with
//! `--metrics-addr`, its per-link counters are served on base port +
//! nodes.
//!
//! With `--byzantine F`, `F` of the `--nodes` members are replaced by
//! scripted hostile [`ByzantineNode`](uba_net::ByzantineNode)s (the
//! population is split exactly like the experiment harness, so `--nodes 7
//! --byzantine 2` is the classic `n = 3f + 1` grid). `--attack
//! NAME[,NAME...]` picks the scripts (default `equivocate`); the cluster
//! runs once per attack and prints a verdict table attributing **malice**
//! (misbehavior strikes, evictions) separately from **omission** (barrier
//! timeouts). The sim twin does not model wire attacks, so the exit code
//! asserts the honest members' own guarantee: every honest member decided,
//! on one value — the `HONEST-AGREEMENT` verdict. With `--trace-out`, each
//! honest member's trace lands in `PREFIX-<attack>-<id>.jsonl` and the
//! merged misbehavior counters in `PREFIX-<attack>-misbehavior.prom`
//! (Prometheus text format), the postmortem artifacts the `byz-smoke` CI
//! job uploads. Requires `n > 3f`; not offered together with `--kill` and
//! the WAN proxy flags (the harness composes all three, this command line
//! does not yet).

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use uba_core::approx::ApproxAgreement;
use uba_core::consensus::EarlyConsensus;
use uba_core::harness::Setup;
use uba_core::reliable::ReliableBroadcast;
use uba_net::{
    decisions, family_sum, member_port, scrape_metrics, series_value, serve_metrics, AttackKind,
    AttackPlan, ClusterRun, ClusterSpec, KillSpec, LinkPlan, LinkSpec, MetricsServer, NetConfig,
    ProxySpec, RetryPolicy, RunSummary, WanProfile, Wire,
};
use uba_sim::{sparse_ids, NodeId, Process, SyncEngine};
use uba_trace::{JsonlTracer, SharedRuntimeMetrics, Tracer};

/// Parsed command line.
struct Args {
    nodes: u64,
    algo: Algo,
    seed: u64,
    timeout_ms: u64,
    max_rounds: u64,
    trace_out: Option<String>,
    kill: Option<u64>,
    restart_at: Option<u64>,
    victim: usize,
    journal_dir: Option<PathBuf>,
    tear_journal: bool,
    metrics_addr: Option<String>,
    history_rounds: Option<usize>,
    link_plan: Option<String>,
    wan_profile: Option<WanProfile>,
    byzantine: u64,
    attacks: Vec<AttackKind>,
}

#[derive(Clone, Copy, PartialEq)]
enum Algo {
    Consensus,
    Reliable,
    Approx,
}

fn usage() -> String {
    "usage: cluster [--nodes N] [--algo consensus|reliable|approx] [--seed S]\n\
     \x20              [--timeout-ms MS] [--max-rounds R] [--trace-out PREFIX]\n\
     \x20              [--kill ROUND] [--restart-at ROUND] [--victim IDX]\n\
     \x20              [--journal-dir DIR] [--tear-journal]\n\
     \x20              [--metrics-addr HOST:PORT] [--history-rounds N]\n\
     \x20              [--wan-profile geo|lossy|partition | --link-plan KEY=VAL,...]\n\
     \x20              [--byzantine F [--attack NAME[,NAME...]]]\n\
     \x20      cluster scrape --addr HOST:PORT --nodes N [--interval-ms MS] [--count K]\n\
     link-plan keys: seed=S latency-ms=L jitter-ms=J loss-ppm=P\n\
     \x20               bandwidth=BYTES_PER_SEC partition=FROM..TO\n\
     attacks: equivocate replay corrupt oversize flood stall backfill-spam"
        .to_string()
}

/// Parses `--link-plan KEY=VAL,...` (commas or whitespace between
/// entries) into a [`LinkPlan`] over `ids`: a uniform default spec plus
/// an optional round-window partition severing the first half of the
/// sorted ids from the second.
fn parse_link_plan(spec: &str, default_seed: u64, ids: &[NodeId]) -> Result<LinkPlan, String> {
    let mut seed = default_seed;
    let mut link = LinkSpec::zero();
    let mut partition = None;
    for pair in spec
        .split(|c: char| c == ',' || c.is_whitespace())
        .filter(|p| !p.is_empty())
    {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("invalid --link-plan entry {pair:?} (expected KEY=VAL)"))?;
        let parse_u64 = |what: &str| {
            value
                .parse::<u64>()
                .map_err(|e| format!("invalid --link-plan {what}: {e}"))
        };
        match key {
            "seed" => seed = parse_u64("seed")?,
            "latency-ms" => {
                link = link.with_latency(Duration::from_millis(parse_u64("latency-ms")?))
            }
            "jitter-ms" => link = link.with_jitter(Duration::from_millis(parse_u64("jitter-ms")?)),
            "loss-ppm" => {
                let ppm = parse_u64("loss-ppm")?;
                if ppm >= 1_000_000 {
                    return Err("--link-plan loss-ppm must be below 1000000".into());
                }
                link = link.with_loss_ppm(ppm as u32);
            }
            "bandwidth" => {
                let bps = parse_u64("bandwidth")?;
                if bps == 0 {
                    return Err("--link-plan bandwidth must be positive".into());
                }
                link = link.with_bandwidth(bps);
            }
            "partition" => {
                let (from, to) = value.split_once("..").ok_or_else(|| {
                    "invalid --link-plan partition (expected FROM..TO)".to_string()
                })?;
                let from: u64 = from
                    .parse()
                    .map_err(|e| format!("invalid --link-plan partition start: {e}"))?;
                let to: u64 = to
                    .parse()
                    .map_err(|e| format!("invalid --link-plan partition end: {e}"))?;
                if from >= to {
                    return Err("--link-plan partition window is empty".into());
                }
                partition = Some(from..to);
            }
            other => return Err(format!("unknown --link-plan key {other:?}\n{}", usage())),
        }
    }
    let mut sorted: Vec<NodeId> = ids.to_vec();
    sorted.sort_unstable();
    let mut plan = LinkPlan::new(seed).with_default(link);
    if let Some(rounds) = partition {
        let side: Vec<NodeId> = sorted[..sorted.len() / 2].to_vec();
        plan = plan.with_partition(rounds, side);
    }
    Ok(plan)
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        nodes: 4,
        algo: Algo::Consensus,
        seed: 42,
        timeout_ms: 2_000,
        max_rounds: 200,
        trace_out: None,
        kill: None,
        restart_at: None,
        victim: 0,
        journal_dir: None,
        tear_journal: false,
        metrics_addr: None,
        history_rounds: None,
        link_plan: None,
        wan_profile: None,
        byzantine: 0,
        attacks: Vec::new(),
    };
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| {
            argv.next()
                .ok_or_else(|| format!("missing value for {flag}\n{}", usage()))
        };
        match flag.as_str() {
            "--nodes" => {
                args.nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("invalid --nodes: {e}"))?;
                if args.nodes < 2 {
                    return Err("--nodes must be at least 2".to_string());
                }
            }
            "--algo" => {
                args.algo = match value("--algo")?.as_str() {
                    "consensus" => Algo::Consensus,
                    "reliable" => Algo::Reliable,
                    "approx" => Algo::Approx,
                    other => {
                        return Err(format!(
                            "invalid --algo {other:?} (expected consensus, reliable or approx)"
                        ))
                    }
                };
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("invalid --seed: {e}"))?;
            }
            "--timeout-ms" => {
                args.timeout_ms = value("--timeout-ms")?
                    .parse()
                    .map_err(|e| format!("invalid --timeout-ms: {e}"))?;
            }
            "--max-rounds" => {
                args.max_rounds = value("--max-rounds")?
                    .parse()
                    .map_err(|e| format!("invalid --max-rounds: {e}"))?;
            }
            "--trace-out" => {
                args.trace_out = Some(value("--trace-out")?);
            }
            "--kill" => {
                let round: u64 = value("--kill")?
                    .parse()
                    .map_err(|e| format!("invalid --kill: {e}"))?;
                if round < 2 {
                    return Err("--kill must be at least 2 (round 1 has no journal yet)".into());
                }
                args.kill = Some(round);
            }
            "--restart-at" => {
                args.restart_at = Some(
                    value("--restart-at")?
                        .parse()
                        .map_err(|e| format!("invalid --restart-at: {e}"))?,
                );
            }
            "--victim" => {
                args.victim = value("--victim")?
                    .parse()
                    .map_err(|e| format!("invalid --victim: {e}"))?;
            }
            "--journal-dir" => {
                args.journal_dir = Some(PathBuf::from(value("--journal-dir")?));
            }
            "--tear-journal" => {
                args.tear_journal = true;
            }
            "--metrics-addr" => {
                args.metrics_addr = Some(value("--metrics-addr")?);
            }
            "--history-rounds" => {
                let depth: usize = value("--history-rounds")?
                    .parse()
                    .map_err(|e| format!("invalid --history-rounds: {e}"))?;
                if depth == 0 {
                    return Err("--history-rounds must be at least 1".into());
                }
                args.history_rounds = Some(depth);
            }
            "--link-plan" => {
                args.link_plan = Some(value("--link-plan")?);
            }
            "--wan-profile" => {
                let name = value("--wan-profile")?;
                args.wan_profile = Some(WanProfile::parse(&name).ok_or_else(|| {
                    format!("invalid --wan-profile {name:?} (expected geo, lossy or partition)")
                })?);
            }
            "--byzantine" => {
                args.byzantine = value("--byzantine")?
                    .parse()
                    .map_err(|e| format!("invalid --byzantine: {e}"))?;
                if args.byzantine == 0 {
                    return Err("--byzantine must be at least 1".into());
                }
            }
            "--attack" => {
                for name in value("--attack")?.split(',').filter(|n| !n.is_empty()) {
                    args.attacks.push(AttackKind::parse(name).ok_or_else(|| {
                        format!(
                            "invalid --attack {name:?} (expected one of {})",
                            AttackKind::all_names().join(", ")
                        )
                    })?);
                }
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if args.kill.is_none() && (args.restart_at.is_some() || args.tear_journal) {
        return Err("--restart-at/--tear-journal require --kill".into());
    }
    if let (Some(kill), Some(restart)) = (args.kill, args.restart_at) {
        if restart < kill {
            return Err("--restart-at must not precede --kill".into());
        }
    }
    if args.victim as u64 >= args.nodes {
        return Err("--victim index out of range".into());
    }
    if args.link_plan.is_some() && args.wan_profile.is_some() {
        return Err("--link-plan and --wan-profile are mutually exclusive".into());
    }
    if !args.attacks.is_empty() && args.byzantine == 0 {
        return Err("--attack requires --byzantine".into());
    }
    if args.byzantine > 0 {
        if args.kill.is_some() || args.link_plan.is_some() || args.wan_profile.is_some() {
            return Err("--byzantine is incompatible with --kill and the WAN proxy flags".into());
        }
        if args.nodes <= 3 * args.byzantine {
            return Err(format!(
                "--byzantine {} needs --nodes > {} (the n > 3f resilience bound)",
                args.byzantine,
                3 * args.byzantine
            ));
        }
        if args.attacks.is_empty() {
            args.attacks
                .push(AttackKind::parse("equivocate").expect("known attack"));
        }
    }
    Ok(args)
}

/// Parsed `cluster scrape` command line.
struct ScrapeArgs {
    addr: String,
    nodes: u16,
    interval_ms: u64,
    count: u64,
}

fn parse_scrape_args(mut argv: impl Iterator<Item = String>) -> Result<ScrapeArgs, String> {
    let mut args = ScrapeArgs {
        addr: String::new(),
        nodes: 0,
        interval_ms: 1_000,
        count: 1,
    };
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| {
            argv.next()
                .ok_or_else(|| format!("missing value for {flag}\n{}", usage()))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--nodes" => {
                args.nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("invalid --nodes: {e}"))?;
            }
            "--interval-ms" => {
                args.interval_ms = value("--interval-ms")?
                    .parse()
                    .map_err(|e| format!("invalid --interval-ms: {e}"))?;
            }
            "--count" => {
                args.count = value("--count")?
                    .parse()
                    .map_err(|e| format!("invalid --count: {e}"))?;
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if args.addr.is_empty() || args.nodes == 0 {
        return Err(format!("scrape requires --addr and --nodes\n{}", usage()));
    }
    Ok(args)
}

/// One row of the scrape table, folded from a node's exposition body.
struct ScrapeRow {
    endpoint: String,
    rounds: u64,
    mean_us: u64,
    frames_tx: u64,
    bytes_tx: u64,
    frames_rx: u64,
    reconnects: u64,
    omissions: u64,
    backfill: u64,
}

impl ScrapeRow {
    fn from_body(endpoint: String, body: &str) -> Self {
        let sum = series_value(body, "net_round_micros_sum").unwrap_or(0);
        let count = series_value(body, "net_round_micros_count").unwrap_or(0);
        ScrapeRow {
            endpoint,
            rounds: series_value(body, "net_rounds_total").unwrap_or(0),
            mean_us: sum.checked_div(count).unwrap_or(0),
            frames_tx: family_sum(body, "net_frames_sent_total"),
            bytes_tx: family_sum(body, "net_bytes_sent_total"),
            frames_rx: family_sum(body, "net_frames_received_total"),
            reconnects: family_sum(body, "net_reconnects_total"),
            omissions: family_sum(body, "net_omission_timeouts_total"),
            backfill: family_sum(body, "net_backfill_frames_served_total"),
        }
    }
}

/// Polls every node's exposition endpoint and renders a per-node table,
/// `count` times (0 = forever), `interval_ms` apart. Unreachable endpoints
/// render as `down` rather than aborting the sweep: during startup and
/// after decision some nodes are legitimately absent.
fn run_scrape(args: &ScrapeArgs) -> Result<(), String> {
    let (host, port) = args
        .addr
        .rsplit_once(':')
        .ok_or_else(|| format!("invalid --addr {:?} (expected HOST:PORT)", args.addr))?;
    let port: u16 = port.parse().map_err(|e| format!("invalid port: {e}"))?;
    // Reject a wrapping port range up front instead of scraping whatever
    // unrelated service lives at the wrapped-around port.
    if member_port(port, u64::from(args.nodes) - 1).is_none() {
        return Err(format!(
            "--addr port {port} + {} nodes exceeds port 65535",
            args.nodes
        ));
    }

    let mut pass = 0u64;
    loop {
        pass += 1;
        println!(
            "{:<22} {:>7} {:>9} {:>9} {:>10} {:>9} {:>6} {:>5} {:>9}",
            "endpoint",
            "rounds",
            "mean_us",
            "frames_tx",
            "bytes_tx",
            "frames_rx",
            "reconn",
            "omiss",
            "backfill"
        );
        for i in 0..args.nodes {
            let member = member_port(port, u64::from(i)).expect("range validated above");
            let endpoint = format!("{host}:{member}");
            let resolved = endpoint
                .parse()
                .map_err(|e| format!("invalid endpoint {endpoint}: {e}"))?;
            match scrape_metrics(resolved) {
                Ok(body) => {
                    let row = ScrapeRow::from_body(endpoint, &body);
                    println!(
                        "{:<22} {:>7} {:>9} {:>9} {:>10} {:>9} {:>6} {:>5} {:>9}",
                        row.endpoint,
                        row.rounds,
                        row.mean_us,
                        row.frames_tx,
                        row.bytes_tx,
                        row.frames_rx,
                        row.reconnects,
                        row.omissions,
                        row.backfill
                    );
                }
                Err(err) => println!("{:<22} down ({err})", endpoint),
            }
        }
        if args.count != 0 && pass >= args.count {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(args.interval_ms));
        println!();
    }
}

/// Runs the same processes in the simulator and over TCP, compares the
/// decisions, and prints the verdict.
///
/// The returned flag is what the exit code asserts. Without impairments
/// it is strict simulator equality; under an impairing `--wan-profile` /
/// `--link-plan` the sim twin becomes informational (impairments are
/// faults the simulator run does not model) and the flag instead asserts
/// that every member decided and that the decisions satisfy `agrees` —
/// the algorithm's own agreement property.
fn run_twin<P, F>(
    args: &Args,
    factory: F,
    agrees: impl Fn(&BTreeMap<NodeId, P::Output>) -> bool,
) -> Result<bool, String>
where
    P: Process + Send,
    P::Msg: Wire,
    P::Output: Send + PartialEq + Debug,
    F: Fn() -> Vec<P>,
{
    // The in-process twin: the reference execution.
    let mut engine = SyncEngine::builder().correct_many(factory()).build();
    let sim = engine
        .run_to_completion(args.max_rounds)
        .map_err(|e| format!("simulator twin failed: {e}"))?;

    // The WAN emulation script, if any.
    let member_ids: Vec<NodeId> = factory().iter().map(|p| p.id()).collect();
    let plan: Option<LinkPlan> = match (&args.wan_profile, &args.link_plan) {
        (Some(profile), _) => Some(profile.plan(args.seed, &member_ids)),
        (None, Some(spec)) => Some(parse_link_plan(spec, args.seed, &member_ids)?),
        (None, None) => None,
    };
    let impaired = plan.as_ref().is_some_and(|p| !p.is_zero_impairment());
    match (&args.wan_profile, &plan) {
        (Some(profile), Some(plan)) => {
            println!("wan: profile {} (seed {})", profile.name(), plan.seed());
        }
        (None, Some(plan)) => println!("wan: custom link plan (seed {})", plan.seed()),
        _ => {}
    }

    // The real thing.
    let mut config = NetConfig {
        round_timeout: Duration::from_millis(args.timeout_ms),
        retry: RetryPolicy::default(),
        max_rounds: args.max_rounds,
        ..NetConfig::default()
    };
    if let Some(depth) = args.history_rounds {
        config.history_rounds = depth;
    }

    // One runtime-metrics registry and exposition endpoint per member: the
    // member with the i-th smallest id answers scrapes on base port + i.
    // Under a link plan, one extra registry at base port + nodes publishes
    // the proxy's per-link counters.
    let mut registries: BTreeMap<NodeId, SharedRuntimeMetrics> = BTreeMap::new();
    let mut link_registry: Option<SharedRuntimeMetrics> = None;
    let mut servers: Vec<MetricsServer> = Vec::new();
    if let Some(base) = &args.metrics_addr {
        let (host, port) = base
            .rsplit_once(':')
            .ok_or_else(|| format!("invalid --metrics-addr {base:?} (expected HOST:PORT)"))?;
        let port: u16 = port
            .parse()
            .map_err(|e| format!("invalid --metrics-addr port: {e}"))?;
        // Validate the whole consecutive range up front — the arithmetic
        // must not silently wrap past 65535 onto unrelated ports. The last
        // index is the proxy's link endpoint when a plan is in force.
        let last_index = args.nodes - u64::from(plan.is_none());
        if member_port(port, last_index).is_none() {
            return Err(format!(
                "--metrics-addr port {port} + {} endpoints exceeds port 65535",
                last_index + 1
            ));
        }
        let mut ids = member_ids.clone();
        ids.sort_unstable();
        for (i, id) in ids.into_iter().enumerate() {
            let registry = SharedRuntimeMetrics::new();
            let member = member_port(port, i as u64).expect("range validated above");
            let addr = format!("{host}:{member}");
            let server = serve_metrics(addr.as_str(), registry.clone())
                .map_err(|e| format!("binding metrics endpoint {addr}: {e}"))?;
            println!("metrics: node {id} on http://{}/metrics", server.addr());
            registries.insert(id, registry);
            servers.push(server);
        }
        if plan.is_some() {
            let registry = SharedRuntimeMetrics::new();
            let link = member_port(port, args.nodes).expect("range validated above");
            let addr = format!("{host}:{link}");
            let server = serve_metrics(addr.as_str(), registry.clone())
                .map_err(|e| format!("binding link metrics endpoint {addr}: {e}"))?;
            println!("metrics: links on http://{}/metrics", server.addr());
            link_registry = Some(registry);
            servers.push(server);
        }
    } else if plan.is_some() {
        // No endpoint, but still collect the per-link counters for the
        // final summary line.
        link_registry = Some(SharedRuntimeMetrics::new());
    }
    let kill = args.kill.map(|kill_at| {
        let victim = member_ids[args.victim];
        // `--restart-at R2` approximates "back around round R2" by holding
        // the victim down one barrier timeout per round.
        let down_ms = args.timeout_ms * args.restart_at.map_or(0, |r| r - kill_at);
        let journal_dir = args.journal_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("uba-cluster-{}", std::process::id()))
        });
        println!(
            "kill: node {victim} at round {kill_at}, down {down_ms}ms{}, journals in {}",
            if args.tear_journal {
                ", journal tail torn"
            } else {
                ""
            },
            journal_dir.display()
        );
        KillSpec {
            victim,
            reborn: factory()
                .into_iter()
                .find(|p| p.id() == victim)
                .expect("factory covers every id"),
            kill_at,
            restart_delay: Duration::from_millis(down_ms),
            journal_dir,
            tear_journal: args.tear_journal,
        }
    });
    let spec = ClusterSpec {
        proxy: plan.clone().map(|plan| ProxySpec {
            plan,
            link_metrics: link_registry.clone(),
        }),
        kill,
        hostile: None,
    };
    let ClusterRun {
        reports,
        link_events,
        ..
    } = spec
        .run(
            factory(),
            config,
            |_| JsonlTracer::in_memory(),
            |id| registries.get(&id).cloned(),
        )
        .map_err(|e| format!("cluster run failed: {e}"))?;

    if let Some(prefix) = &args.trace_out {
        for (id, report) in &reports {
            let path = format!("{prefix}-{id}.jsonl");
            std::fs::write(&path, report.tracer.to_jsonl())
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
        if plan.is_some() {
            // The proxy's own view of the run: drops, delays, partitions
            // and heals, in the same JSONL vocabulary as the node traces.
            let mut tracer = JsonlTracer::in_memory();
            for event in &link_events {
                tracer.record(event.clone());
            }
            let path = format!("{prefix}-links.jsonl");
            std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
        }
    }

    let net = decisions(&reports);
    let matched = compare(&sim.outputs, &net);

    let summary = RunSummary::of(&reports);
    println!(
        "cluster: {} nodes, {} rounds, {} barrier timeouts, round latency mean {}us max {}us",
        args.nodes, summary.rounds, summary.timeouts, summary.mean_us, summary.max_us
    );
    if let Some(registry) = &link_registry {
        let links = registry.snapshot();
        println!(
            "links: {} frames forwarded, {} dropped, {} severed, {} throttled ({} trace events)",
            links.family_sum("net_link_frames_forwarded_total"),
            links.family_sum("net_link_frames_dropped_total"),
            links.family_sum("net_link_frames_severed_total"),
            links.family_sum("net_link_frames_throttled_total"),
            link_events.len(),
        );
    }
    let ok = if impaired {
        // Impairments are faults the unimpaired simulator twin does not
        // model, so the sim comparison is informational; what the exit
        // code asserts is the protocol's own guarantee: every member
        // decided, and the decisions agree.
        let agreed = net.len() as u64 == args.nodes && agrees(&net);
        println!(
            "decisions: {}",
            if agreed {
                "AGREEMENT (all members decided compatibly under impairment)"
            } else {
                "DISAGREEMENT (agreement/termination violated under impairment)"
            }
        );
        println!(
            "sim twin: {} (informational under impairment)",
            if matched { "match" } else { "diverged" }
        );
        agreed
    } else {
        println!(
            "decisions: {}",
            if matched {
                "MATCH (network == simulator)"
            } else {
                "MISMATCH (network != simulator)"
            }
        );
        matched
    };

    // Final per-node transport totals from the runtime registries, then
    // release the scrape endpoints.
    for (id, registry) in &registries {
        let snapshot = registry.snapshot();
        println!(
            "metrics: node {id}: {} rounds, {} frames / {} bytes sent",
            snapshot.counter("net_rounds_total"),
            snapshot.family_sum("net_frames_sent_total"),
            snapshot.family_sum("net_bytes_sent_total"),
        );
    }
    for server in servers {
        server.shutdown();
    }
    Ok(ok)
}

/// Runs one adversarial cluster per requested attack and prints the
/// verdict table: per attack, the honest members' rounds, the malice
/// ledger (misbehavior strikes and evictions), the omission ledger
/// (barrier timeouts) — charged distinctly, so the table shows *why* a
/// hostile peer was written off — and the `HONEST-AGREEMENT` verdict the
/// exit code (and the `byz-smoke` CI job) asserts.
///
/// The sim twin does not model wire attacks, so there is no byte-identity
/// check here (experiment T15 locks that for the equivocation script);
/// the asserted property is the honest members' own guarantee.
fn run_byzantine<P, F>(
    args: &Args,
    factory: F,
    agrees: impl Fn(&BTreeMap<NodeId, P::Output>) -> bool,
) -> Result<bool, String>
where
    P: Process + Send,
    P::Msg: Wire,
    P::Output: Send + Debug,
    F: Fn(&[NodeId]) -> Vec<P>,
{
    let setup = Setup::new(
        (args.nodes - args.byzantine) as usize,
        args.byzantine as usize,
        args.seed,
    );
    println!(
        "byzantine: {} hostile of {} members (n > 3f holds): hostile ids {:?}",
        args.byzantine, args.nodes, setup.faulty
    );
    println!(
        "{:<14} {:>6} {:>8} {:>9} {:>8} {:>8}  verdict",
        "attack", "rounds", "strikes", "evictions", "timeouts", "decided"
    );
    let mut all_ok = true;
    for kind in &args.attacks {
        let mut config = NetConfig {
            round_timeout: Duration::from_millis(args.timeout_ms),
            retry: RetryPolicy::default(),
            max_rounds: args.max_rounds,
            // A quota the flood script (256 frames/round) must cross, far
            // above anything the honest protocols send per round.
            max_frames_per_round: 64,
            ..NetConfig::default()
        };
        if let Some(depth) = args.history_rounds {
            config.history_rounds = depth;
        } else if matches!(kind, AttackKind::Replay { .. }) {
            // Replays of round 1 only go stale once the window has moved
            // past them; a short window makes the strike observable.
            config.history_rounds = 2;
        }
        let registry = SharedRuntimeMetrics::new();
        let spec = ClusterSpec {
            hostile: Some(AttackPlan::new(
                args.seed,
                kind.clone(),
                setup.faulty.iter().copied(),
            )),
            ..ClusterSpec::default()
        };
        let honest = spec
            .run(
                factory(&setup.correct),
                config,
                |_| JsonlTracer::in_memory(),
                |_| Some(registry.clone()),
            )
            .map_err(|e| format!("byzantine cluster run ({}) failed: {e}", kind.name()))?
            .reports;

        let net = decisions(&honest);
        let ok = net.len() == setup.correct.len() && agrees(&net);
        all_ok &= ok;
        let summary = RunSummary::of(&honest);
        println!(
            "{:<14} {:>6} {:>8} {:>9} {:>8} {:>6}/{}  {}",
            kind.name(),
            summary.rounds,
            registry.snapshot().family_sum("net_misbehavior_total"),
            summary.evictions,
            summary.timeouts,
            net.len(),
            setup.correct.len(),
            if ok {
                "HONEST-AGREEMENT"
            } else {
                "HONEST-DISAGREEMENT"
            }
        );

        if let Some(prefix) = &args.trace_out {
            // The postmortem artifacts: each honest member's trace, plus
            // the merged misbehavior/eviction counters as a Prometheus
            // text-format snapshot.
            for (id, report) in &honest {
                let path = format!("{prefix}-{}-{id}.jsonl", kind.name());
                std::fs::write(&path, report.tracer.to_jsonl())
                    .map_err(|e| format!("writing {path}: {e}"))?;
            }
            let path = format!("{prefix}-{}-misbehavior.prom", kind.name());
            std::fs::write(&path, registry.render_prometheus())
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
    }
    println!(
        "byzantine verdict: {}",
        if all_ok {
            "HONEST-AGREEMENT (every attack)"
        } else {
            "HONEST-DISAGREEMENT"
        }
    );
    Ok(all_ok)
}

/// Runs `factory`'s processes (built over the honest members' ids) as the
/// command line asks: beside `--byzantine` hostile members, or as the plain
/// sim-twin check.
fn run<P, F>(
    args: &Args,
    factory: F,
    agrees: impl Fn(&BTreeMap<NodeId, P::Output>) -> bool,
) -> Result<bool, String>
where
    P: Process + Send,
    P::Msg: Wire,
    P::Output: Send + PartialEq + Debug,
    F: Fn(&[NodeId]) -> Vec<P>,
{
    if args.byzantine > 0 {
        return run_byzantine(args, factory, agrees);
    }
    let ids = sparse_ids(args.nodes as usize, args.seed);
    run_twin(args, || factory(&ids), agrees)
}

/// Prints any divergence between the two decision maps.
fn compare<O: PartialEq + Debug>(sim: &BTreeMap<NodeId, O>, net: &BTreeMap<NodeId, O>) -> bool {
    let mut matched = true;
    for (id, expected) in sim {
        match net.get(id) {
            Some(actual) if actual == expected => {}
            Some(actual) => {
                eprintln!("{id}: simulator decided {expected:?}, network decided {actual:?}");
                matched = false;
            }
            None => {
                eprintln!("{id}: simulator decided {expected:?}, network did not decide");
                matched = false;
            }
        }
    }
    for id in net.keys() {
        if !sim.contains_key(id) {
            eprintln!("{id}: network decided but simulator did not");
            matched = false;
        }
    }
    matched
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("scrape") {
        argv.next();
        return match parse_scrape_args(argv).and_then(|args| run_scrape(&args)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    // Exact-agreement algorithms must decide one common value; approximate
    // agreement legitimately decides near-but-unequal values, so under
    // impairment only termination is asserted for it (the sim comparison
    // still checks exactness on unimpaired runs).
    fn unanimous<O: PartialEq>(outputs: &BTreeMap<NodeId, O>) -> bool {
        let mut values = outputs.values();
        let Some(first) = values.next() else {
            return false;
        };
        values.all(|v| v == first)
    }
    let result = match args.algo {
        Algo::Consensus => run(
            &args,
            |ids| {
                ids.iter()
                    .enumerate()
                    .map(|(i, &id)| EarlyConsensus::new(id, (args.seed >> (i % 64)) & 1))
                    .collect()
            },
            unanimous,
        ),
        Algo::Reliable => run(
            &args,
            |ids| {
                // The designated sender is the first *honest* member: a
                // hostile sender is free to say nothing, which trivially
                // satisfies reliable broadcast.
                let sender = ids[0];
                let payload = format!("rb-{}", args.seed);
                ids.iter()
                    .map(|&id| {
                        let own = (id == sender).then(|| payload.clone());
                        ReliableBroadcast::new(id, sender, own).with_horizon(6)
                    })
                    .collect()
            },
            unanimous,
        ),
        Algo::Approx => run(
            &args,
            |ids| {
                ids.iter()
                    .enumerate()
                    .map(|(i, &id)| {
                        let input = ((args.seed % 97) as f64) + i as f64;
                        ApproxAgreement::new(id, input).with_iterations(3)
                    })
                    .collect()
            },
            |outputs| !outputs.is_empty(),
        ),
    };

    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
