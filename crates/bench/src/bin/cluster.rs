//! `cluster` — run an n-node localhost TCP cluster and check it against
//! the simulator.
//!
//! Spawns `--nodes` members of the chosen algorithm over real sockets,
//! runs the *same* seeded configuration on the in-process `SyncEngine`,
//! and asserts the two executions decide identically. Exit code 0 means
//! the decisions matched; 1 means they diverged (a transport bug); 2 is a
//! usage error.
//!
//! The command line describes one cell of the experiment grid
//! (`uba_bench::experiments::grid`, experiments T11–T15): populations,
//! twin runner and verdict are the grid's own. A flag that would have no
//! effect in the chosen mode is refused, not ignored.
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
//! member keeps a durable round journal under `--journal-dir` (without it,
//! in a scratch directory removed afterwards), the victim (by default the
//! first member; `--victim` picks another index) is killed at the start of
//! that round, rebuilt from its journal, and rejoins over the backfill
//! protocol. `--restart-at R2` (default: the kill round) holds the victim
//! down for `(R2 - ROUND) * timeout` before it recovers; an immediate
//! restart is the byte-identical case. `--tear-journal` truncates the
//! journal mid-line first, exercising torn-tail recovery. The decisions
//! are still compared against the *uninterrupted* simulator run: MATCH
//! means the crash was invisible to the protocol's outcome.
//!
//! With `--wan-profile geo|lossy|partition` (or a custom `--link-plan
//! KEY=VAL,...`), every member's links are shaped by a deterministic WAN
//! plan (DESIGN.md §11): seeded per-link latency/jitter/loss/bandwidth
//! shaping and round-keyed partitions, applied by each connection's
//! reader before a frame reaches the round driver. Under an impairing
//! plan the sim-twin comparison becomes informational and the exit code
//! instead asserts the protocol's own guarantee — every member decided,
//! and the decisions agree. A zero-impairment `--link-plan` keeps the
//! strict byte-identity check and proves the shaping invisible. A link's
//! `net_link_*` events and counters belong to the member it leads into:
//! they land in that member's `PREFIX-N<id>.jsonl` and on its metrics
//! endpoint.
//!
//! With `--byzantine F`, `F` of the `--nodes` members are replaced by
//! hostile [`ByzantineNode`](uba_net::ByzantineNode)s, which run the
//! honest round driver with an attack script and leave with the cluster.
//! The population is split exactly like the experiment harness, so
//! `--nodes 7 --byzantine 2` is the classic `n = 3f + 1` grid. `--attack
//! NAME[,NAME...]` picks the scripts (default `equivocate`); the cluster
//! runs once per attack and prints a verdict table attributing **malice**
//! (misbehavior strikes, evictions) separately from **omission** (barrier
//! timeouts). The sim twin does not model wire attacks, so the exit code
//! asserts the honest members' own guarantee: every honest member decided,
//! on one value — the `HONEST-AGREEMENT` verdict. With `--trace-out`, each
//! honest member's trace lands in `PREFIX-<attack>-<id>.jsonl` and the
//! merged misbehavior counters in `PREFIX-<attack>-misbehavior.prom`
//! (Prometheus text format), the postmortem artifacts the `byz-smoke` CI
//! job uploads. Requires `n > 3f`; not offered together with `--kill`, the
//! WAN flags and `--metrics-addr` (the harness composes the first three,
//! this command line does not yet).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use uba_bench::cli::{parse_value, Argv, CliError};
use uba_bench::experiments::grid::{
    run_twin_with, Duty, Hostile, Kill, Scenario, TwinCell, TwinOutcome, Wan,
};
use uba_bench::experiments::t10_faults::Algo;
use uba_net::{
    consecutive_endpoints, family_sum, scrape_metrics, series_value, serve_cluster_metrics,
    AttackKind, LinkSpec, NetConfig,
};
use uba_trace::{RingTracer, SharedRuntimeMetrics};

/// Parsed command line.
#[derive(Debug)]
struct Args {
    nodes: u64,
    algo: Algo,
    seed: u64,
    timeout_ms: u64,
    max_rounds: u64,
    trace_out: Option<String>,
    kill: Option<u64>,
    restart_at: Option<u64>,
    victim: Option<usize>,
    journal_dir: Option<PathBuf>,
    tear_journal: bool,
    metrics_addr: Option<String>,
    history_rounds: Option<usize>,
    wan: Option<Wan>,
    byzantine: u64,
    attacks: Vec<AttackKind>,
}

const USAGE: &str = "usage: cluster [--nodes N] [--algo consensus|reliable|approx] [--seed S]\n\
     \x20              [--timeout-ms MS] [--max-rounds R] [--trace-out PREFIX]\n\
     \x20              [--kill ROUND] [--restart-at ROUND] [--victim IDX]\n\
     \x20              [--journal-dir DIR] [--tear-journal]\n\
     \x20              [--metrics-addr HOST:PORT] [--history-rounds N]\n\
     \x20              [--wan-profile geo|lossy|partition | --link-plan KEY=VAL,...]\n\
     \x20              [--byzantine F [--attack NAME[,NAME...]]]\n\
     \x20      cluster scrape --addr HOST:PORT --nodes N [--interval-ms MS] [--count K]\n\
     link-plan keys: seed=S latency-ms=L jitter-ms=J loss-ppm=P\n\
     \x20               bandwidth=BYTES_PER_SEC partition=FROM..TO\n\
     attacks: equivocate replay corrupt oversize flood stall backfill-spam";

/// Parses `--link-plan KEY=VAL,...` (commas or whitespace between
/// entries): a uniform spec on every link plus an optional round-window
/// partition severing the first half of the sorted ids from the second.
fn parse_link_plan(spec: &str, default_seed: u64) -> Result<Wan, String> {
    let mut seed = default_seed;
    let mut link = LinkSpec::default();
    let mut partition = None;
    for pair in spec
        .split(|c: char| c == ',' || c.is_whitespace())
        .filter(|p| !p.is_empty())
    {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("--link-plan entry {pair:?} is not KEY=VAL"))?;
        let what = format!("--link-plan {key}");
        let number = |value: &str, min| parse_value::<u64>(&what, value, min);
        let millis = |value| number(value, None).map(Duration::from_millis);
        match key {
            "seed" => seed = number(value, None)?,
            "latency-ms" => link.latency = millis(value)?,
            "jitter-ms" => link.jitter = millis(value)?,
            "loss-ppm" => match u32::try_from(number(value, None)?) {
                Ok(ppm) if ppm < 1_000_000 => link.loss_ppm = ppm,
                _ => return Err(format!("{what} must be below 1000000")),
            },
            "bandwidth" => link.bandwidth = Some(number(value, Some(1))?),
            "partition" => {
                let (from, to) = value
                    .split_once("..")
                    .ok_or_else(|| format!("{what} {value:?} is not FROM..TO"))?;
                let (from, to) = (number(from, None)?, number(to, None)?);
                if from >= to {
                    return Err(format!("{what} window {value:?} is empty"));
                }
                partition = Some((from, to));
            }
            _ => return Err(format!("unknown --link-plan key {key:?}")),
        }
    }
    Ok(Wan::Custom {
        seed,
        link,
        partition,
    })
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, CliError> {
    let mut argv = Argv::new(argv, USAGE);
    let mut args = Args {
        nodes: 4,
        algo: Algo::Consensus,
        seed: 42,
        timeout_ms: 2_000,
        max_rounds: 200,
        trace_out: None,
        kill: None,
        restart_at: None,
        victim: None,
        journal_dir: None,
        tear_journal: false,
        metrics_addr: None,
        history_rounds: None,
        wan: None,
        byzantine: 0,
        attacks: Vec::new(),
    };
    let mut link_plan = None;
    let mut wan_profile = None;
    while let Some(flag) = argv.next_arg()? {
        match flag.as_str() {
            "--nodes" => args.nodes = argv.parse_min(2)?,
            "--algo" => {
                args.algo = match argv.value()?.as_str() {
                    "consensus" => Algo::Consensus,
                    "reliable" => Algo::Reliable,
                    "approx" => Algo::Approx,
                    other => {
                        return Err(argv.error(format!(
                            "invalid --algo {other:?} (expected consensus, reliable or approx)"
                        )))
                    }
                };
            }
            "--seed" => args.seed = argv.parse()?,
            "--timeout-ms" => args.timeout_ms = argv.parse()?,
            "--max-rounds" => args.max_rounds = argv.parse()?,
            "--trace-out" => args.trace_out = Some(argv.value()?),
            // Round 1 has no journal yet.
            "--kill" => args.kill = Some(argv.parse_min(2)?),
            "--restart-at" => args.restart_at = Some(argv.parse()?),
            "--victim" => args.victim = Some(argv.parse()?),
            "--journal-dir" => args.journal_dir = Some(PathBuf::from(argv.value()?)),
            "--tear-journal" => args.tear_journal = true,
            "--metrics-addr" => args.metrics_addr = Some(argv.value()?),
            "--history-rounds" => args.history_rounds = Some(argv.parse_min(1)?),
            "--link-plan" => link_plan = Some(argv.value()?),
            "--wan-profile" => {
                let name = argv.value()?;
                wan_profile = Some(Wan::parse(&name).ok_or_else(|| {
                    argv.error(format!(
                        "invalid --wan-profile {name:?} (expected geo, lossy or partition)"
                    ))
                })?);
            }
            "--byzantine" => args.byzantine = argv.parse_min(1)?,
            "--attack" => {
                for name in argv.value()?.split(',').filter(|n| !n.is_empty()) {
                    args.attacks.push(AttackKind::parse(name).ok_or_else(|| {
                        argv.error(format!(
                            "invalid --attack {name:?} (expected one of {})",
                            AttackKind::all_names().join(", ")
                        ))
                    })?);
                }
            }
            _ => return Err(argv.unknown()),
        }
    }
    let drill_only = args.restart_at.is_some()
        || args.tear_journal
        || args.journal_dir.is_some()
        || args.victim.is_some();
    if args.kill.is_none() && drill_only {
        return Err(argv.error("--restart-at/--tear-journal/--journal-dir/--victim require --kill"));
    }
    if let (Some(kill), Some(restart)) = (args.kill, args.restart_at) {
        if restart < kill {
            return Err(argv.error("--restart-at must not precede --kill"));
        }
    }
    if args
        .victim
        .is_some_and(|victim| victim as u64 >= args.nodes)
    {
        return Err(argv.error("--victim index out of range"));
    }
    args.wan = match (wan_profile, link_plan) {
        (Some(_), Some(_)) => {
            return Err(argv.error("--link-plan and --wan-profile are mutually exclusive"))
        }
        (Some(profile), None) => Some(profile),
        (None, Some(spec)) => Some(parse_link_plan(&spec, args.seed).map_err(|e| argv.error(e))?),
        (None, None) => None,
    };
    if !args.attacks.is_empty() && args.byzantine == 0 {
        return Err(argv.error("--attack requires --byzantine"));
    }
    if args.byzantine > 0 {
        if args.kill.is_some() || args.wan.is_some() {
            return Err(argv.error("--byzantine is incompatible with --kill and the WAN flags"));
        }
        if args.metrics_addr.is_some() {
            return Err(argv.error("--metrics-addr is not served with --byzantine"));
        }
        if args.nodes <= 3 * args.byzantine {
            return Err(argv.error(format!(
                "--byzantine {} needs --nodes > {} (the n > 3f resilience bound)",
                args.byzantine,
                3 * args.byzantine
            )));
        }
        if args.attacks.is_empty() {
            args.attacks
                .push(AttackKind::parse("equivocate").expect("known attack"));
        }
    }
    Ok(args)
}

impl Args {
    /// The grid cell this command line describes — under `attack`, one
    /// cell per `--attack` script.
    fn cell(&self, attack: Option<&AttackKind>) -> TwinCell {
        let mut config = NetConfig {
            round_timeout: Duration::from_millis(self.timeout_ms),
            max_rounds: self.max_rounds,
            ..NetConfig::default()
        };
        if attack.is_some() {
            // A quota the flood script (256 frames/round) must cross, far
            // above anything the honest protocols send per round.
            config.max_frames_per_round = 64;
        }
        match (self.history_rounds, attack) {
            (Some(depth), _) => config.history_rounds = depth,
            // Replays of round 1 only go stale once the window has moved
            // past them; a short window makes the strike observable.
            (None, Some(AttackKind::Replay { .. })) => config.history_rounds = 2,
            (None, _) => {}
        }
        let kill = self.kill.map(|at| Kill {
            at,
            victim_idx: self.victim.unwrap_or(0),
            torn: self.tear_journal,
            // `--restart-at R2` approximates "back around round R2" by
            // holding the victim down one barrier timeout per round.
            down: Duration::from_millis(self.timeout_ms * self.restart_at.map_or(0, |r| r - at)),
        });
        let hostile = attack.map(|kind| Hostile {
            attack: kind.name(),
            f: self.byzantine as usize,
        });
        let mut cell = TwinCell {
            algo: self.algo,
            n: (self.nodes - self.byzantine) as usize,
            seed: self.seed,
            scenario: Scenario {
                wan: self.wan,
                kill,
                hostile,
                config,
            },
            duty: Duty::EngineIdentical,
            extras: &[],
        };
        // Impairments and wire attacks are faults the engine twin does not
        // model: what the exit code asserts then is the protocol's own
        // guarantee, agreement.
        let impaired = cell
            .link_plan()
            .is_some_and(|plan| !plan.is_zero_impairment());
        if impaired || hostile.is_some() {
            cell.duty = Duty::Agreement;
        }
        cell
    }
}

/// Parsed `cluster scrape` command line.
struct ScrapeArgs {
    addr: String,
    nodes: u16,
    interval_ms: u64,
    count: u64,
}

fn parse_scrape_args(argv: impl IntoIterator<Item = String>) -> Result<ScrapeArgs, CliError> {
    let mut argv = Argv::new(argv, USAGE);
    let mut args = ScrapeArgs {
        addr: String::new(),
        nodes: 0,
        interval_ms: 1_000,
        count: 1,
    };
    while let Some(flag) = argv.next_arg()? {
        match flag.as_str() {
            "--addr" => args.addr = argv.value()?,
            "--nodes" => args.nodes = argv.parse()?,
            "--interval-ms" => args.interval_ms = argv.parse()?,
            "--count" => args.count = argv.parse()?,
            _ => return Err(argv.unknown()),
        }
    }
    if args.addr.is_empty() || args.nodes == 0 {
        return Err(argv.error("scrape requires --addr and --nodes"));
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
    // A wrapping port range is rejected up front instead of scraping
    // whatever unrelated service lives at the wrapped-around port.
    let endpoints = consecutive_endpoints(&args.addr, u64::from(args.nodes))
        .map_err(|e| format!("--addr: {e}"))?;
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
        for endpoint in &endpoints {
            let resolved = endpoint
                .parse()
                .map_err(|e| format!("invalid endpoint {endpoint}: {e}"))?;
            match scrape_metrics(resolved) {
                Ok(body) => {
                    let row = ScrapeRow::from_body(endpoint.clone(), &body);
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

/// Every member's trace, whole: a ring that never drops renders no
/// `window` line.
fn full_trace() -> RingTracer {
    RingTracer::new(usize::MAX)
}

fn write(path: &str, contents: String) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))
}

/// Runs the command line's one cell and prints its verdict: strict
/// simulator equality, or — under an impairing `--wan-profile` /
/// `--link-plan` — that every member decided in agreement, with the sim
/// twin informational (impairments are faults it does not model).
fn run_cell(args: &Args) -> Result<bool, String> {
    let cell = args.cell(None);
    let ids = cell.setup().correct;
    let plan = cell.link_plan();
    match (cell.scenario.wan, &plan) {
        (Some(Wan::Custom { .. }), Some(plan)) => {
            println!("wan: custom link plan (seed {})", plan.seed());
        }
        (Some(wan), Some(plan)) => println!("wan: profile {} (seed {})", wan.name(), plan.seed()),
        _ => {}
    }
    // One exposition endpoint per member.
    let endpoints = args
        .metrics_addr
        .as_deref()
        .map(|addr| serve_cluster_metrics(addr, &ids))
        .transpose()
        .map_err(|e| format!("--metrics-addr: {e}"))?;
    if let Some(kill) = cell.scenario.kill {
        println!(
            "kill: node {} at round {}, down {}ms{}, journals in {}",
            ids[kill.victim_idx],
            kill.at,
            kill.down.as_millis(),
            if kill.torn { ", journal tail torn" } else { "" },
            cell.journal_dir(args.journal_dir.as_deref()).display()
        );
    }

    let run = run_twin_with(
        &cell,
        args.journal_dir.as_deref(),
        |_| full_trace(),
        |id| {
            let served = endpoints.as_ref().and_then(|e| e.members.get(&id));
            served.cloned().unwrap_or_default()
        },
    )
    .map_err(|e| format!("cluster run failed: {e}"))?;

    if let Some(prefix) = &args.trace_out {
        for (id, tracer) in &run.tracers {
            write(&format!("{prefix}-{id}.jsonl"), tracer.to_jsonl())?;
        }
    }

    let summary = run.summary;
    println!(
        "cluster: {} nodes, {} rounds, {} barrier timeouts, round latency mean {}us max {}us",
        args.nodes, summary.rounds, summary.timeouts, summary.mean_us, summary.max_us
    );
    if plan.is_some() {
        let traced = run.tracers.values().flat_map(RingTracer::events);
        println!(
            "links: {} frames forwarded, {} dropped, {} severed, {} throttled ({} trace events)",
            run.forwarded,
            run.dropped,
            run.severed,
            run.metrics.family_sum("net_link_frames_throttled_total"),
            traced.filter(|e| e.kind().starts_with("net_link_")).count(),
        );
    }
    let ok = judged(&cell, &run);
    let (kept, broken) = match cell.duty {
        Duty::Agreement => (
            "AGREEMENT (all members decided compatibly under impairment)",
            "DISAGREEMENT (agreement/termination violated under impairment)",
        ),
        Duty::EngineIdentical => (
            "MATCH (network == simulator)",
            "MISMATCH (network != simulator)",
        ),
    };
    println!("decisions: {}", if ok { kept } else { broken });
    if cell.duty == Duty::Agreement {
        let twin = if run.engine_identical() {
            "match"
        } else {
            "diverged"
        };
        println!("sim twin: {twin} (informational under impairment)");
    }

    // Final per-node transport totals, then release the scrape endpoints.
    if let Some(endpoints) = endpoints {
        for (id, registry) in &endpoints.members {
            let snapshot = registry.snapshot();
            println!(
                "metrics: node {id}: {} rounds, {} frames / {} bytes sent",
                snapshot.counter("net_rounds_total"),
                snapshot.family_sum("net_frames_sent_total"),
                snapshot.family_sum("net_bytes_sent_total"),
            );
        }
        endpoints.shutdown();
    }
    Ok(ok)
}

/// Runs one adversarial cluster per requested attack and prints the
/// verdict table: per attack, the honest members' rounds, the malice
/// ledger (misbehavior strikes and evictions), the omission ledger
/// (barrier timeouts) — charged distinctly, so the table shows *why* a
/// hostile peer was written off — and the `HONEST-AGREEMENT` verdict the
/// exit code (and the `byz-smoke` CI job) asserts.
fn run_attacks(args: &Args) -> Result<bool, String> {
    let cells: Vec<TwinCell> = args.attacks.iter().map(|a| args.cell(Some(a))).collect();
    println!(
        "byzantine: {} hostile of {} members (n > 3f holds): hostile ids {:?}",
        args.byzantine,
        args.nodes,
        cells[0].setup().faulty
    );
    println!(
        "{:<14} {:>6} {:>8} {:>9} {:>8} {:>8}  verdict",
        "attack", "rounds", "strikes", "evictions", "timeouts", "decided"
    );
    let mut all_ok = true;
    for (cell, kind) in cells.iter().zip(&args.attacks) {
        let attack = kind.name();
        let run = run_twin_with(
            cell,
            None,
            |_| full_trace(),
            |_| SharedRuntimeMetrics::new(),
        )
        .map_err(|e| format!("byzantine cluster run ({attack}) failed: {e}"))?;
        let ok = judged(cell, &run);
        all_ok &= ok;
        let verdict = if ok {
            "HONEST-AGREEMENT"
        } else {
            "HONEST-DISAGREEMENT"
        };
        println!(
            "{:<14} {:>6} {:>8} {:>9} {:>8} {:>6}/{}  {verdict}",
            attack,
            run.summary.rounds,
            run.strikes,
            run.summary.evictions,
            run.summary.timeouts,
            run.net.len(),
            cell.n,
        );

        if let Some(prefix) = &args.trace_out {
            // The postmortem artifacts: each honest member's trace, plus
            // the merged misbehavior/eviction counters as a Prometheus
            // text-format snapshot.
            for (id, tracer) in &run.tracers {
                write(&format!("{prefix}-{attack}-{id}.jsonl"), tracer.to_jsonl())?;
            }
            let path = format!("{prefix}-{attack}-misbehavior.prom");
            write(&path, run.metrics.render_prometheus())?;
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

/// The cell's obligation, with what broke on stderr.
fn judged(cell: &TwinCell, run: &TwinOutcome<RingTracer>) -> bool {
    match cell.judge(run) {
        Ok(_) => true,
        Err((verdict, why)) => {
            eprintln!("{verdict}: {why}");
            false
        }
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.next_if_eq("scrape").is_some() {
        let args = parse_scrape_args(argv).unwrap_or_else(|err| err.exit());
        return match run_scrape(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::from(2)
            }
        };
    }
    let args = parse_args(argv).unwrap_or_else(|err| err.exit());
    let result = if args.byzantine > 0 {
        run_attacks(&args)
    } else {
        run_cell(&args)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, CliError> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_describe_the_plain_twin_cell() {
        let args = parse(&[]).expect("empty argv parses");
        let cell = args.cell(None);
        assert_eq!((cell.algo, cell.n, cell.seed), (Algo::Consensus, 4, 42));
        assert!(cell.scenario.wan.is_none() && cell.scenario.kill.is_none());
        assert_eq!(cell.duty, Duty::EngineIdentical);
        assert_eq!(cell.scenario.config.round_timeout, Duration::from_secs(2));
        assert_eq!(cell.scenario.config.max_rounds, 200);
    }

    #[test]
    fn help_is_the_usage_text() {
        for help in ["--help", "-h"] {
            assert_eq!(parse(&[help]).unwrap_err().to_string(), USAGE);
        }
    }

    #[test]
    fn flags_without_effect_in_their_mode_are_refused() {
        for argv in [
            &[
                "--byzantine",
                "2",
                "--nodes",
                "7",
                "--metrics-addr",
                "127.0.0.1:9850",
            ][..],
            &["--journal-dir", "journals"],
            &["--victim", "1"],
            &["--restart-at", "5"],
            &["--tear-journal"],
            &["--attack", "flood"],
        ] {
            assert!(parse(argv).is_err(), "{argv:?} must be refused");
        }
        let err = parse(&["--nodes", "7", "--byzantine", "2", "--metrics-addr", "x:1"]);
        assert_eq!(
            err.unwrap_err().message(),
            Some("--metrics-addr is not served with --byzantine")
        );
    }

    #[test]
    fn the_byzantine_mode_keeps_its_input_validation() {
        for argv in [
            &["--nodes", "7", "--byzantine", "2", "--kill", "3"][..],
            &["--nodes", "7", "--byzantine", "2", "--wan-profile", "geo"],
            &["--nodes", "6", "--byzantine", "2"],
            &["--nodes", "7", "--byzantine", "2", "--attack", "teleport"],
        ] {
            assert!(parse(argv).is_err(), "{argv:?} must be refused");
        }
        let args = parse(&[
            "--nodes",
            "7",
            "--byzantine",
            "2",
            "--attack",
            "replay,flood",
        ])
        .expect("parses");
        let cells: Vec<TwinCell> = args.attacks.iter().map(|a| args.cell(Some(a))).collect();
        assert_eq!(cells.len(), 2);
        for cell in &cells {
            assert_eq!((cell.n, cell.duty), (5, Duty::Agreement));
            assert_eq!(cell.scenario.config.max_frames_per_round, 64);
        }
        assert_eq!(cells[0].scenario.config.history_rounds, 2, "replay window");
        assert_ne!(cells[1].scenario.config.history_rounds, 2);
    }

    #[test]
    fn the_kill_drill_reads_its_flags() {
        let args = parse(&[
            "--kill",
            "3",
            "--restart-at",
            "5",
            "--victim",
            "2",
            "--timeout-ms",
            "100",
        ])
        .expect("parses");
        let kill = args.cell(None).scenario.kill.expect("a kill");
        assert_eq!((kill.at, kill.victim_idx, kill.torn), (3, 2, false));
        assert_eq!(kill.down, Duration::from_millis(200));
        assert!(parse(&["--kill", "1"]).is_err(), "round 1 has no journal");
        assert!(parse(&["--kill", "3", "--restart-at", "2"]).is_err());
        assert!(parse(&["--kill", "3", "--victim", "4"]).is_err());
    }

    #[test]
    fn only_an_impairing_plan_relaxes_the_duty_to_agreement() {
        let duty = |argv: &[&str]| parse(argv).expect("parses").cell(None).duty;
        assert_eq!(duty(&["--wan-profile", "lossy"]), Duty::Agreement);
        assert_eq!(duty(&["--wan-profile", "geo"]), Duty::Agreement);
        assert_eq!(duty(&["--link-plan", "seed=9"]), Duty::EngineIdentical);
        assert_eq!(duty(&["--link-plan", "loss-ppm=5000"]), Duty::Agreement);
        assert_eq!(duty(&["--link-plan", "partition=3..5"]), Duty::Agreement);
        assert!(parse(&["--link-plan", "seed=1", "--wan-profile", "geo"]).is_err());
        assert!(parse(&["--link-plan", "partition=5..3"]).is_err());
        assert!(parse(&["--link-plan", "loss-ppm=1000000"]).is_err());
    }

    #[test]
    fn a_link_plan_takes_the_seed_given_anywhere_on_the_line() {
        let args = parse(&["--link-plan", "latency-ms=20", "--seed", "7"]).expect("parses");
        let plan = args.cell(None).link_plan().expect("a plan");
        assert_eq!(plan.seed(), 7);
    }

    #[test]
    fn the_algorithms_are_the_three_the_binary_offers() {
        let algo = |name: &str| parse(&["--algo", name]).map(|args| args.algo);
        assert_eq!(algo("consensus"), Ok(Algo::Consensus));
        assert_eq!(algo("reliable"), Ok(Algo::Reliable));
        assert_eq!(algo("approx"), Ok(Algo::Approx));
        assert!(algo("rotor").is_err());
    }
}
