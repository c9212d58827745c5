//! The two log-service workloads, `logd-small` and `logd-large`. One op is
//! one committed record: submitted on an open-loop schedule to the first
//! member, and complete when a `read_prefix` reply from the last member
//! first contains it.
//!
//! Open loop: one submitter thread on one connection sends at a fixed rate
//! whatever the service does, and each op is timed from its due time, so a
//! stall is charged to every submission it delays. The generator has one
//! more thread, the reader; with the 4-member cluster in the same process
//! that is what two cores carry.

use std::collections::BTreeMap;
use std::thread;
use std::time::{Duration, Instant};

use uba_net::{spawn_log_cluster, LogClient, LogCluster, NetConfig, Record};
use uba_sim::{derive, sparse_ids, NodeId};
use uba_trace::{NoopTracer, RuntimeMetrics, SharedRuntimeMetrics};

use crate::check::{check_log, op_id, Ack, Submission, Violation};
use crate::child;
use crate::json::Json;
use crate::netcost::{family_sum, NetCost};
use crate::outcome::{end_to_end, latency_percentiles, Outcome, RunCfg, Scale, Window};
use crate::probe;
use crate::procfs;
use crate::spec;
use crate::stats;
use crate::trace::{append_spans, unix_micros, Clock, OpSpans, Span};

const MEMBERS: usize = 4;
const ROUND_PACE: Duration = Duration::from_millis(5);
const KEYS: u64 = 1024;
/// Rounds the ingest window stays open past the load at the fastest pace:
/// 0.3 s for the client connects and a late generator. A
/// submission refused because the window closed is a failed op.
const INGEST_SLACK_ROUNDS: u64 = 60;
/// The reader sweeps every shard, then sleeps this long.
const TAIL_INTERVAL: Duration = Duration::from_millis(1);
const COLD_READ_INTERVAL: Duration = Duration::from_millis(500);

struct Shape {
    shards: u32,
    /// Submissions per second.
    rate: f64,
    payload_len: usize,
    /// Whether the reader also re-reads a whole shard from index 0 twice a
    /// second, putting large reads beside the writes on the ingress lock.
    cold_reads: bool,
}

/// The rates are about half of what this cluster sustains on two cores
/// (≈2,500 small or ≈350 large records/s put both cores at 90–95 %): near
/// capacity a cluster's median latency swung between 84 and 254 ms from one
/// cluster to the next, which no bound survives.
fn shape(workload: &str) -> Shape {
    if workload == spec::LOGD_SMALL {
        Shape {
            shards: 4,
            rate: 1250.0,
            payload_len: 64,
            cold_reads: true,
        }
    } else {
        Shape {
            shards: 1,
            rate: 175.0,
            payload_len: 8 * 1024,
            cold_reads: false,
        }
    }
}

/// One cluster's load in seconds. A cluster's p95 is set by its last, most
/// loaded second (round cost grows with the log), so the load per cluster
/// is fixed and `--seconds` buys more clusters, not longer ones.
const CLUSTER_LOAD_SECS: f64 = 2.4;

/// Fresh clusters an untraced run loads one after the other, each in a
/// process of its own: `--seconds` of load in all (each cluster's post-load
/// tail — finishing its fixed ingest window — comes on top). A cluster is
/// one window of the run ([`end_to_end`]).
fn clusters_per_run(cfg: &RunCfg) -> u64 {
    match cfg.scale {
        Scale::Full => ((cfg.seconds / CLUSTER_LOAD_SECS).round() as u64).max(1),
        Scale::Smoke => 1,
    }
}

/// 300 records at the smoke scale.
fn load_secs(scale: Scale, shape: &Shape) -> f64 {
    match scale {
        Scale::Full => CLUSTER_LOAD_SECS,
        Scale::Smoke => 300.0 / shape.rate,
    }
}

/// The workload's inputs, from the seed alone: keys drawn from 1,024, and
/// payloads that carry the op id followed by seeded filler.
pub fn generate(seed: u64, count: usize, payload_len: usize) -> Vec<Submission> {
    (0..count as u64)
        .map(|op| {
            let draw = derive(seed, op);
            let mut payload = Vec::with_capacity(payload_len);
            payload.extend_from_slice(&op.to_le_bytes());
            let mut word = draw;
            while payload.len() < payload_len {
                word = derive(word, 1);
                let room = payload_len - payload.len();
                payload.extend_from_slice(&word.to_le_bytes()[..room.min(8)]);
            }
            Submission {
                key: format!("key-{}", draw % KEYS),
                payload,
            }
        })
        .collect()
}

fn net_config() -> NetConfig {
    NetConfig {
        round_pace: ROUND_PACE,
        // As in net-clean-n16: nothing on loopback takes this long.
        round_timeout: Duration::from_secs(10),
        max_rounds: u64::MAX,
        ..NetConfig::default()
    }
}

struct AckTiming {
    ack: Ack,
    due: Instant,
    sent: Instant,
    acked: Instant,
}

struct Submitted {
    acks: Vec<AckTiming>,
    lag_max: Duration,
}

/// The open-loop generator: submission `i` is due at `start + i / rate` and
/// goes out then or, if the previous reply is late, as soon as it is in.
fn submit_all(
    mut client: LogClient,
    submissions: &[Submission],
    start: Instant,
    rate: f64,
) -> Result<Submitted, String> {
    let mut acks = Vec::with_capacity(submissions.len());
    let mut lag_max = Duration::ZERO;
    for (op, submission) in submissions.iter().enumerate() {
        let due = start + Duration::from_secs_f64(op as f64 / rate);
        thread::sleep(due.saturating_duration_since(Instant::now()));
        let sent = Instant::now();
        lag_max = lag_max.max(sent - due);
        let reply = client
            .submit(&submission.key, &submission.payload)
            .map_err(|e| format!("submit op {op}: {e}"))?;
        let Some((shard, seq)) = reply else {
            // Ingest closed: this and every later submission is refused.
            break;
        };
        acks.push(AckTiming {
            ack: Ack {
                op: op as u64,
                shard,
                seq,
            },
            due,
            sent,
            acked: Instant::now(),
        });
    }
    Ok(Submitted { acks, lag_max })
}

struct Tailed {
    /// Every shard's records in the order the reader received them.
    log: Vec<Vec<Record>>,
    /// When each op was first seen in a reply.
    commit_at: Vec<Option<Instant>>,
    /// The last reply that carried records, and the process CPU time then.
    last_commit: Option<(Instant, f64)>,
    sealed_at: Instant,
    read_tail_us: Vec<f64>,
    read_full_ms: Vec<f64>,
}

/// The reader: tails every shard with incremental reads until all are
/// sealed and drained.
fn tail_all(mut client: LogClient, shape: &Shape, ops: usize) -> Result<Tailed, String> {
    let shards = shape.shards as usize;
    let mut tailed = Tailed {
        log: vec![Vec::new(); shards],
        commit_at: vec![None; ops],
        last_commit: None,
        sealed_at: Instant::now(),
        read_tail_us: Vec::new(),
        read_full_ms: Vec::new(),
    };
    let mut last_cold = Instant::now();
    let mut cold_shard = 0usize;
    loop {
        let mut sealed = true;
        let mut last_reply = None;
        for shard in 0..shards {
            let from = tailed.log[shard].len() as u64;
            let asked = Instant::now();
            let page = client
                .read_prefix(shard as u32, from)
                .map_err(|e| format!("read shard {shard} from {from}: {e}"))?;
            let replied = Instant::now();
            tailed
                .read_tail_us
                .push((replied - asked).as_secs_f64() * 1e6);
            sealed &= page.sealed;
            if !page.records.is_empty() {
                last_reply = Some(replied);
            }
            for record in page.records {
                let op = op_id(&record.payload).map(|op| op as usize);
                if let Some(seen) = op.and_then(|op| tailed.commit_at.get_mut(op)) {
                    seen.get_or_insert(replied);
                }
                tailed.log[shard].push(record);
            }
        }
        if let Some(replied) = last_reply {
            tailed.last_commit = Some((replied, procfs::cpu_ms()));
        } else if sealed {
            tailed.sealed_at = Instant::now();
            return Ok(tailed);
        }
        if shape.cold_reads && last_cold.elapsed() >= COLD_READ_INTERVAL {
            let asked = Instant::now();
            let page = client
                .read_prefix(cold_shard as u32, 0)
                .map_err(|e| format!("cold read of shard {cold_shard}: {e}"))?;
            tailed
                .read_full_ms
                .push(asked.elapsed().as_secs_f64() * 1e3);
            if !page.records.starts_with(&tailed.log[cold_shard]) {
                return Err(Violation(format!(
                    "shard {cold_shard} read from 0 does not extend what was tailed from it"
                ))
                .to_string());
            }
            cold_shard = (cold_shard + 1) % shards;
            last_cold = Instant::now();
        }
        thread::sleep(TAIL_INTERVAL);
    }
}

/// A spawned cluster with a client connected to its first member (the
/// ingress) and one to its last, and how long both took.
struct Connected {
    cluster: LogCluster<NoopTracer>,
    submitter: LogClient,
    reader: LogClient,
    ingress: NodeId,
    /// One registry per member; attached only if `metrics` was asked for.
    registries: BTreeMap<NodeId, SharedRuntimeMetrics>,
    spawned: Instant,
    setup: Duration,
}

fn connect_cluster(shape: &Shape, ingest_until: u64, metrics: bool) -> Result<Connected, String> {
    let ids = sparse_ids(MEMBERS, 0x10_6d);
    let (ingress, egress) = (ids[0], ids[MEMBERS - 1]);
    let registries: BTreeMap<NodeId, SharedRuntimeMetrics> = ids
        .iter()
        .map(|&id| (id, SharedRuntimeMetrics::new()))
        .collect();

    let spawned = Instant::now();
    let cluster = spawn_log_cluster(
        &ids,
        shape.shards,
        ingest_until,
        net_config(),
        |_| NoopTracer,
        |id| metrics.then(|| registries[&id].clone()),
    )
    .map_err(|e| format!("spawn_log_cluster: {e}"))?;
    let connect = |id: NodeId| {
        LogClient::connect(cluster.client_addrs()[&id]).map_err(|e| format!("connect to {id}: {e}"))
    };
    let (submitter, reader) = (connect(ingress)?, connect(egress)?);
    let setup = spawned.elapsed();
    Ok(Connected {
        cluster,
        submitter,
        reader,
        ingress,
        registries,
        spawned,
        setup,
    })
}

/// Times one more set-up on an idle cluster, whose ingest window closes at
/// once so that it seals and is gone within two dozen rounds.
fn idle_setup(shape: &Shape) -> Result<Duration, String> {
    let Connected {
        mut cluster, setup, ..
    } = connect_cluster(shape, 1, false)?;
    cluster
        .join_ordering()
        .map_err(|e| format!("idle log cluster failed: {e}"))?;
    cluster.shutdown();
    Ok(setup)
}

/// Everything one cluster's life measured.
struct ClusterRun {
    /// `spawn_log_cluster` plus both client connects.
    setup: Duration,
    spawned: Instant,
    /// When the load's first op was due, and the process CPU time then.
    start: Instant,
    cpu_at_start: f64,
    submitted: Submitted,
    tailed: Tailed,
    /// The first member's per-round busy time (pacing sleep excluded).
    round_micros: Vec<u64>,
    timeouts: u64,
    /// The members' registries merged, if `metrics` attached them.
    totals: Option<RuntimeMetrics>,
}

/// One full load against a fresh cluster: spawn it and connect the two
/// clients (timed as set-up), run the generator threads until the log is
/// sealed, join the cluster, check its logs, shut it down.
fn run_cluster(
    shape: &Shape,
    submissions: &[Submission],
    load_secs: f64,
    metrics: bool,
) -> Result<ClusterRun, String> {
    let pace_rounds = (load_secs / ROUND_PACE.as_secs_f64()).ceil() as u64;
    let Connected {
        mut cluster,
        submitter,
        reader,
        ingress,
        registries,
        spawned,
        setup,
    } = connect_cluster(shape, pace_rounds + INGEST_SLACK_ROUNDS, metrics)?;

    let cpu_at_start = procfs::cpu_ms();
    let start = Instant::now() + Duration::from_millis(20);
    let (submitted, tailed) = thread::scope(|scope| {
        let submit = scope.spawn(|| submit_all(submitter, submissions, start, shape.rate));
        let tail = scope.spawn(|| tail_all(reader, shape, submissions.len()));
        (
            submit.join().expect("submitter thread panicked"),
            tail.join().expect("reader thread panicked"),
        )
    });
    let reports = cluster
        .join_ordering()
        .map_err(|e| format!("log cluster failed: {e}"))?;
    cluster.shutdown();
    let (submitted, tailed) = (submitted?, tailed?);

    let logs: BTreeMap<NodeId, Vec<Vec<Record>>> = reports
        .iter()
        .map(|(&id, report)| {
            let log = report.output.clone();
            log.map(|log| (id, log))
                .ok_or(format!("member {id} has no log"))
        })
        .collect::<Result<_, _>>()?;
    let acks: Vec<Ack> = submitted.acks.iter().map(|a| a.ack).collect();
    check_log(
        submissions,
        &acks,
        ingress.raw(),
        shape.shards,
        &logs,
        &tailed.log,
    )
    .map_err(|v| v.to_string())?;

    Ok(ClusterRun {
        setup,
        spawned,
        start,
        cpu_at_start,
        submitted,
        tailed,
        round_micros: reports[&ingress].round_micros.clone(),
        timeouts: reports.values().map(|r| r.timeouts).sum(),
        totals: metrics.then(|| {
            let mut totals = RuntimeMetrics::new();
            for registry in registries.values() {
                totals.merge(&registry.snapshot());
            }
            totals
        }),
    })
}

/// Per-op latencies (due time → first seen committed) of the completed
/// ops, in milliseconds, in op order.
fn latencies_ms(run: &ClusterRun) -> Vec<f64> {
    run.submitted
        .acks
        .iter()
        .filter_map(|a| {
            let committed = run.tailed.commit_at[a.ack.op as usize]?;
            Some((committed - a.due).as_secs_f64() * 1e3)
        })
        .collect()
}

/// Busy times (ms) of the first member's rounds that began within
/// `[from, to)` seconds of the load's start.
fn rounds_between(run: &ClusterRun, from: f64, to: f64) -> Vec<f64> {
    let offset = (run.start - run.spawned).as_secs_f64();
    let mut begins = 0.0;
    let mut picked = Vec::new();
    for &micros in &run.round_micros {
        let busy = micros as f64 / 1e6;
        if (from..to).contains(&(begins - offset)) {
            picked.push(busy * 1e3);
        }
        begins += busy.max(ROUND_PACE.as_secs_f64());
    }
    picked
}

/// The `cluster` subcommand's arguments: one loaded cluster in a process of
/// its own. The parent builds them, the child parses them back.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterArgs {
    pub workload: &'static str,
    /// The seed of this cluster's inputs.
    pub seed: u64,
    pub load_secs: f64,
}

impl ClusterArgs {
    fn to_argv(&self) -> [String; 7] {
        [
            "cluster".into(),
            "--workload".into(),
            self.workload.into(),
            "--seed".into(),
            self.seed.to_string(),
            "--load-secs".into(),
            self.load_secs.to_string(),
        ]
    }
}

/// Set-ups timed per cluster process: the loaded cluster's own, the first
/// thing the process does, then idle clusters'. A fresh process's first
/// set-up alone swung by 20 % between two sets of five runs.
const SETUPS_PER_PROCESS: usize = 3;

/// Loads one fresh cluster in this process and prints what it measured as
/// one JSON line.
pub fn cluster_worker(args: &ClusterArgs) -> Result<(), String> {
    let shape = shape(args.workload);
    let count = (shape.rate * args.load_secs).round() as usize;
    let submissions = generate(args.seed, count, shape.payload_len);
    let run = run_cluster(&shape, &submissions, args.load_secs, false)?;
    let latencies = latencies_ms(&run);
    let completed = latencies.len() as f64;
    let (last_commit, cpu_at_last_commit) = run
        .tailed
        .last_commit
        .ok_or_else(|| format!("{}: no record committed", args.workload))?;
    let (p50, p95) = latency_percentiles(latencies);
    let mut setups = vec![run.setup.as_secs_f64()];
    while setups.len() < SETUPS_PER_PROCESS {
        setups.push(idle_setup(&shape)?.as_secs_f64());
    }
    let line = Json::obj([
        ("attempted", Json::from(count as u64)),
        ("completed", completed.into()),
        (spec::P50, p50.into()),
        (spec::P95, p95.into()),
        (
            spec::OPS_PER_S,
            (completed / (last_commit - run.start).as_secs_f64()).into(),
        ),
        (
            spec::CPU_MS_PER_OP,
            ((cpu_at_last_commit - run.cpu_at_start) / completed).into(),
        ),
        (spec::PEAK_RSS_MB, procfs::peak_rss_mb().into()),
        (
            "setups_s",
            Json::Arr(setups.into_iter().map(Json::from).collect()),
        ),
    ]);
    println!("{}", line.render());
    Ok(())
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let shape = shape(cfg.workload);
    let load_secs = load_secs(cfg.scale, &shape);

    if !cfg.trace {
        // One process per cluster: what a cluster leaves behind (threads
        // parked on dead sockets, a fragmented heap) would otherwise reach
        // the next cluster's CPU time and the run's peak RSS.
        let mut windows = Vec::new();
        let (mut attempted, mut completed, mut peak_rss_mb) = (0.0, 0.0, 0.0f64);
        for cluster in 0..clusters_per_run(cfg) {
            let lines = child::json_lines(
                ClusterArgs {
                    workload: cfg.workload,
                    seed: derive(cfg.seed, cluster),
                    load_secs,
                }
                .to_argv(),
            )?;
            let line = lines.first().ok_or("cluster child printed nothing")?;
            let setups: Vec<f64> = line
                .get("setups_s")
                .and_then(Json::as_arr)
                .ok_or("no setups_s")?
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            attempted += line.num("attempted")?;
            completed += line.num("completed")?;
            peak_rss_mb = peak_rss_mb.max(line.num(spec::PEAK_RSS_MB)?);
            windows.push(Window {
                p50_ms: line.num(spec::P50)?,
                p95_ms: line.num(spec::P95)?,
                ops_per_s: line.num(spec::OPS_PER_S)?,
                cpu_ms_per_op: line.num(spec::CPU_MS_PER_OP)?,
                setup_s: stats::median(&setups),
            });
        }
        return Ok(Outcome::new(
            false,
            attempted as u64,
            (attempted - completed) as u64,
            end_to_end(&windows, peak_rss_mb),
        ));
    }

    // The reference for the overhead: the same load with registries off, in
    // a process of its own like every untraced cluster, so that both it and
    // the traced cluster below are the first cluster of a fresh process.
    let inputs = ClusterArgs {
        workload: cfg.workload,
        seed: derive(cfg.seed, 0),
        load_secs,
    };
    let reference = child::json_lines(inputs.to_argv())?;
    let reference_p50 = reference
        .first()
        .ok_or("cluster child printed nothing")?
        .num(spec::P50)?;

    let count = (shape.rate * load_secs).round() as usize;
    let submissions = generate(inputs.seed, count, shape.payload_len);
    let attempted = count as u64;

    let clock = Clock::since(unix_micros());
    let began = Instant::now();
    let run = run_cluster(&shape, &submissions, load_secs, true)?;
    let latencies = latencies_ms(&run);
    if latencies.is_empty() {
        return Err(format!("{}: no record committed", cfg.workload));
    }
    let completed = latencies.len() as f64;

    let mut spans = vec![Span::root(cfg.workload, clock.at(began), clock.now())];
    for a in &run.submitted.acks {
        let Some(committed) = run.tailed.commit_at[a.ack.op as usize] else {
            continue;
        };
        let mut op = OpSpans::new(a.ack.op, clock.at(a.due), clock.at(committed));
        let root = op.root();
        op.push(
            root,
            "submit→ack",
            None,
            clock.at(a.sent),
            clock.at(a.acked),
        );
        op.push(
            root,
            "ack→commit",
            None,
            clock.at(a.acked),
            clock.at(committed),
        );
        spans.append(&mut op.spans);
    }
    append_spans(&cfg.trace_path(), &spans).map_err(|e| format!("write trace: {e}"))?;

    let totals = run.totals.as_ref().expect("traced run has registries");
    let cost = NetCost::from_registry(totals);
    let acked_bytes: usize = run
        .submitted
        .acks
        .iter()
        .map(|a| submissions[a.ack.op as usize].payload.len())
        .sum();
    let ack_us = stats::sorted(
        run.submitted
            .acks
            .iter()
            .map(|a| (a.acked - a.sent).as_secs_f64() * 1e6)
            .collect(),
    );
    let window = (load_secs / 2.0).min(1.0);
    let first_rounds = rounds_between(&run, 0.0, window);
    let last_rounds = rounds_between(&run, load_secs - window, load_secs);
    let load_rounds = stats::sorted(rounds_between(&run, 0.0, load_secs));
    let round_ms_p50 = stats::percentile(&load_rounds, 0.5);
    let (p50, _) = latency_percentiles(latencies);
    let all_rounds = stats::sorted(run.round_micros.iter().map(|&us| us as f64 / 1e3).collect());
    let last_commit = run.tailed.last_commit.expect("records committed").0;
    let per_layer = [
        ("wire.frames_per_op", cost.frames() / completed),
        ("wire.bytes_per_op", cost.bytes() / completed),
        ("wire.amplification", cost.bytes() / acked_bytes as f64),
        ("conn.mesh_setup_ms_p50", run.setup.as_secs_f64() * 1e3),
        ("node.round_ms_p50", stats::percentile(&all_rounds, 0.50)),
        ("node.round_ms_p95", stats::percentile(&all_rounds, 0.95)),
        ("sync.timeouts", run.timeouts as f64),
        ("service.ack_us_p50", stats::percentile(&ack_us, 0.50)),
        ("service.ack_us_p99", stats::percentile(&ack_us, 0.99)),
        (
            "service.submit_ns",
            probe::submit_ns(&submissions, shape.shards),
        ),
        ("service.round_ms_p50", round_ms_p50),
        (
            "service.round_growth",
            stats::median(&last_rounds) / stats::median(&first_rounds),
        ),
        (
            "service.records_per_batch",
            family_sum(totals, "logd_batch_records_total")
                / family_sum(totals, "logd_batches_total"),
        ),
        (
            "service.commit_rounds_p50",
            p50 / round_ms_p50.max(ROUND_PACE.as_secs_f64() * 1e3),
        ),
        (
            "service.read_tail_us_p50",
            stats::median(&run.tailed.read_tail_us),
        ),
        (
            "service.read_full_ms_p50",
            stats::median(&run.tailed.read_full_ms),
        ),
        (
            "service.tail_s",
            (run.tailed.sealed_at - last_commit).as_secs_f64(),
        ),
        (
            "service.generator_lag_ms_max",
            run.submitted.lag_max.as_secs_f64() * 1e3,
        ),
        (
            "trace.metrics_overhead_pct",
            (p50 - reference_p50) / reference_p50 * 100.0,
        ),
    ];
    Ok(Outcome::new(
        true,
        attempted,
        attempted - completed as u64,
        per_layer
            .into_iter()
            .chain(cost.metrics())
            .chain(probe::codec().metrics()),
    ))
}
