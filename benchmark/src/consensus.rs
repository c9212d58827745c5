//! The two consensus workloads: `sim-byz-n64` on the simulator and
//! `net-clean-n16` over loopback TCP. One op is one consensus decision.
//!
//! A traced run alternates reference (untraced) and traced instances, so
//! the tracing overhead is a paired comparison inside one run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use uba_adversary::attacks::ConsensusEquivocator;
use uba_core::consensus::{ConsensusMsg, EarlyConsensus};
use uba_core::harness::Setup;
use uba_net::{run_local_cluster, run_local_cluster_with_metrics, NetConfig};
use uba_sim::{derive, sparse_ids, EngineError, NodeId, Process, SyncEngine};
use uba_trace::{NoopTracer, RuntimeMetrics, SharedRuntimeMetrics};

use crate::check::check_decisions;
use crate::child;
use crate::json::Json;
use crate::netcost::NetCost;
use crate::outcome::{end_to_end, latency_percentiles, Outcome, RunCfg, Scale, Window};
use crate::probe;
use crate::procfs;
use crate::stats;
use crate::trace::{append_spans, unix_micros, Clock, OpSpans, ProcCounts, Span, StepSink, Timed};

/// Round limit of one instance; both workloads decide in 12.
const MAX_ROUNDS: u64 = 400;

/// Split inputs: correct node `j` proposes `j % 2`.
fn input_of(index: usize) -> u64 {
    (index % 2) as u64
}

/// In a traced run, odd instances are traced and even ones are the
/// untraced reference.
fn is_traced(cfg_trace: bool, instance: u64) -> bool {
    cfg_trace && instance % 2 == 1
}

/// Instances in one window of a run. Every end-to-end metric is taken per
/// window and reported as its quiet quartile over the run's windows
/// ([`end_to_end`]); a run measures whole windows, at least one, until
/// `--seconds` have passed. A window is long enough for its p95 to have a
/// rank of its own and short beside the ~10 s on which a shared machine
/// changes speed. The smoke scale runs one window of 3 instances (3
/// reference/traced pairs when tracing).
fn window_len(full: u64, scale: Scale, trace: bool) -> u64 {
    match (scale, trace) {
        (Scale::Full, _) => full,
        (Scale::Smoke, false) => 3,
        (Scale::Smoke, true) => 6,
    }
}

const SIM_WINDOW: u64 = 20;
/// Three worker processes of [`PER_WORKER`] instances.
const NET_WINDOW: u64 = 24;

/// What a window's untraced instances measured, until it is closed.
#[derive(Default)]
struct OpenWindow {
    latencies_ms: Vec<f64>,
    setups_s: Vec<f64>,
    /// Wall time of the instances' calls and the process CPU time across
    /// them.
    wall_s: f64,
    cpu_ms: f64,
}

impl OpenWindow {
    /// `None` if no instance of the window completed.
    fn close(self) -> Option<Window> {
        let completed = self.latencies_ms.len() as f64;
        if completed == 0.0 {
            return None;
        }
        let (p50_ms, p95_ms) = latency_percentiles(self.latencies_ms);
        Some(Window {
            p50_ms,
            p95_ms,
            ops_per_s: completed / self.wall_s,
            cpu_ms_per_op: self.cpu_ms / completed,
            setup_s: stats::median(&self.setups_s),
        })
    }
}

fn sum_timing(metrics: &RuntimeMetrics, name: &str) -> f64 {
    metrics.timing(name).map_or(0.0, |h| h.sum() as f64)
}

fn overhead_pct(reference_ms: &[f64], traced_ms: &[f64]) -> f64 {
    let reference = stats::median(reference_ms);
    (stats::median(traced_ms) - reference) / reference * 100.0
}

// ---------------------------------------------------------------- sim-byz

/// `(correct, faulty)` node counts: f = ⌊(n−1)/3⌋ of n.
fn sim_shape(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (43, 21),
        Scale::Smoke => (3, 1),
    }
}

struct SimInstance {
    setup: Duration,
    latency: Duration,
    start: Instant,
    result: Result<uba_sim::Completion<u64>, EngineError>,
}

/// One instance: generate the population and build the processes (set-up),
/// then build the engine and run it to completion (the op).
fn sim_instance<P>(
    (correct, faulty): (usize, usize),
    seed: u64,
    wrap: impl Fn(EarlyConsensus<u64>) -> P,
    registry: Option<SharedRuntimeMetrics>,
) -> SimInstance
where
    P: Process<Msg = ConsensusMsg<u64>, Output = u64>,
{
    let start = Instant::now();
    let setup = Setup::new(correct, faulty, seed);
    let processes: Vec<P> = setup
        .correct
        .iter()
        .enumerate()
        .map(|(j, &id)| wrap(EarlyConsensus::new(id, input_of(j))))
        .collect();
    let setup_time = start.elapsed();

    let op_start = Instant::now();
    let mut builder = SyncEngine::builder()
        .correct_many(processes)
        .faulty_many(setup.faulty.iter().copied())
        .adversary(ConsensusEquivocator::new(0u64, 1u64));
    if let Some(registry) = registry {
        builder = builder.runtime_metrics(registry);
    }
    let mut engine = builder.build();
    let result = engine.run_to_completion(MAX_ROUNDS);
    SimInstance {
        setup: setup_time,
        latency: op_start.elapsed(),
        start,
        result,
    }
}

pub fn run_sim(cfg: &RunCfg) -> Result<Outcome, String> {
    let shape = sim_shape(cfg.scale);
    let clock = Clock::since(unix_micros());
    let registry = SharedRuntimeMetrics::new();
    let budget = Duration::from_secs_f64(cfg.seconds);

    let mut reference_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut step_ms = Vec::new();
    let mut rounds = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    let mut windows: Vec<Window> = Vec::new();
    let inputs: Vec<u64> = (0..shape.0).map(input_of).collect();
    let started = Instant::now();
    let mut instance = 0u64;
    loop {
        let mut window = OpenWindow::default();
        let window_started = Instant::now();
        let cpu_before = procfs::cpu_ms();
        for _ in 0..window_len(SIM_WINDOW, cfg.scale, cfg.trace) {
            let seed = derive(cfg.seed, instance);
            let traced = is_traced(cfg.trace, instance);
            let sink = StepSink::new(clock);
            let run = if traced {
                let wrap = |p| Timed::new(p, sink.clone());
                sim_instance(shape, seed, wrap, Some(registry.clone()))
            } else {
                sim_instance(shape, seed, |p| p, None)
            };
            instance += 1;
            // A traced run reports on its traced instances only.
            let reported = u64::from(traced == cfg.trace);
            attempted += reported;
            let Ok(done) = run.result else {
                failed += reported;
                continue;
            };
            check_decisions(&done.outputs, &inputs).map_err(|v| v.to_string())?;
            if done.outputs.len() != shape.0 {
                failed += reported;
                continue;
            }
            let latency_ms = run.latency.as_secs_f64() * 1e3;
            if traced {
                let steps = sink.take_steps();
                step_ms.push(steps.iter().map(|s| s.nanos).sum::<u64>() as f64 / 1e6);
                rounds.push(done.last_decided_round() as f64);
                traced_ms.push(latency_ms);
                let begin = clock.at(run.start);
                let op_begin = clock.at(run.start + run.setup);
                let end = clock.at(run.start + run.setup + run.latency);
                let mut op = OpSpans::new(instance - 1, begin, end);
                op.push(op.root(), "setup", None, begin, op_begin);
                op.push_rounds(steps, end);
                spans.append(&mut op.spans);
            } else {
                window.setups_s.push(run.setup.as_secs_f64());
                window.latencies_ms.push(latency_ms);
                reference_ms.push(latency_ms);
            }
        }
        window.wall_s = window_started.elapsed().as_secs_f64();
        window.cpu_ms = procfs::cpu_ms() - cpu_before;
        windows.extend(window.close());
        if started.elapsed() >= budget {
            break;
        }
    }
    let wall = started.elapsed();

    if !cfg.trace {
        if windows.is_empty() {
            return Err(format!("{}: no instance completed", cfg.workload));
        }
        return Ok(Outcome::new(
            false,
            attempted,
            failed,
            end_to_end(&windows, procfs::peak_rss_mb()),
        ));
    }

    if traced_ms.is_empty() || reference_ms.is_empty() {
        return Err(format!("{}: no traced instance completed", cfg.workload));
    }
    // How the op's time grows with n: the same instance at half the nodes.
    let half = (shape.0.div_ceil(2), shape.1 / 2);
    let half_ms: Vec<f64> = (0..3)
        .map(|k| sim_instance(half, derive(cfg.seed, u64::MAX - k), |p| p, None))
        .map(|run| run.latency.as_secs_f64() * 1e3)
        .collect();
    let scale_exponent = (stats::median(&reference_ms) / stats::median(&half_ms)).log2();

    spans.push(Span::root(
        cfg.workload,
        clock.at(started),
        clock.at(started + wall),
    ));
    append_spans(&cfg.trace_path(), &spans).map_err(|e| format!("write trace: {e}"))?;

    let ops = traced_ms.len() as f64;
    let totals = registry.snapshot();
    let deliver_us = sum_timing(&totals, "sim_round_phase_micros{phase=\"deliver\"}");
    let adversary_us = sum_timing(&totals, "sim_round_phase_micros{phase=\"adversary\"}");
    let envelopes = totals.counter("sim_envelopes_delivered_total") as f64;
    Ok(Outcome::new(
        true,
        attempted,
        failed,
        [
            ("core.step_ms_per_op", stats::median(&step_ms)),
            ("core.rounds_per_op", stats::median(&rounds)),
            ("sim.deliver_ms_per_op", deliver_us / 1e3 / ops),
            ("sim.adversary_ms_per_op", adversary_us / 1e3 / ops),
            ("sim.envelopes_per_op", envelopes / ops),
            ("sim.ns_per_envelope", deliver_us * 1e3 / envelopes),
            ("sim.scale_exponent", scale_exponent),
            (
                "trace.metrics_overhead_pct",
                overhead_pct(&reference_ms, &traced_ms),
            ),
        ],
    ))
}

// -------------------------------------------------------------- net-clean

fn net_nodes(scale: Scale) -> usize {
    match scale {
        Scale::Full => 16,
        Scale::Smoke => 4,
    }
}

/// Descriptors one n-member instance holds and then leaks: every node has a
/// listener and, per peer, a socket it cloned once for its reader thread.
fn fds_per_instance(nodes: usize) -> u64 {
    2 * (nodes * nodes) as u64
}

/// Instances one worker process runs at most.
const PER_WORKER: u64 = 8;

/// `run_local_cluster` neither closes its sockets nor joins its reader and
/// acceptor threads when it returns, so a process can only run so many
/// instances before it meets `RLIMIT_NOFILE`: how many one worker may run
/// under this process's limit ([`PER_WORKER`] at most), or a clear error if not
/// even one fits.
fn instances_per_worker(nodes: usize) -> Result<u64, String> {
    let limit = procfs::nofile_soft_limit();
    let spare = 64;
    let fit = limit.saturating_sub(spare) / fds_per_instance(nodes);
    if fit == 0 {
        return Err(format!(
            "RLIMIT_NOFILE soft limit is {limit}: one {nodes}-node instance needs {} descriptors. \
             Raise it (`ulimit -n`), or start the benchmark through benchmark/run.sh, which \
             raises the soft limit to the hard limit",
            fds_per_instance(nodes) + spare
        ));
    }
    Ok(fit.min(PER_WORKER))
}

fn net_config() -> NetConfig {
    NetConfig {
        // Nothing on loopback takes this long, so nothing times out: a
        // timeout charged is a failed op, not a tuning artefact.
        round_timeout: Duration::from_secs(10),
        ..NetConfig::default()
    }
}

/// Runs `worker` instances `[first, first + count)` in this process and
/// prints one JSON line per instance, then one summary line.
pub fn worker(args: &WorkerArgs) -> Result<(), String> {
    let clock = Clock::since(args.epoch_us);
    let mut spans: Vec<Span> = Vec::new();
    let cpu_before = procfs::cpu_ms();
    for instance in args.first..args.first + args.count {
        let seed = derive(args.seed, instance);
        let ids = sparse_ids(args.nodes, seed);
        let traced = is_traced(args.trace_out.is_some(), instance);
        let sink = StepSink::new(clock);
        let registries: BTreeMap<NodeId, SharedRuntimeMetrics> = ids
            .iter()
            .map(|&id| (id, SharedRuntimeMetrics::new()))
            .collect();
        let members = ids
            .iter()
            .enumerate()
            .map(|(j, &id)| EarlyConsensus::new(id, input_of(j)));

        let before = traced.then(ProcCounts::read);
        let start = Instant::now();
        let result = if traced {
            let timed = members.enumerate().map(|(j, p)| {
                let timed = Timed::new(p, sink.clone());
                if j == 0 {
                    timed.probing()
                } else {
                    timed
                }
            });
            run_local_cluster_with_metrics(
                timed,
                net_config(),
                |_| NoopTracer,
                |id| registries.get(&id).cloned(),
            )
        } else {
            run_local_cluster(members, net_config(), |_| NoopTracer)
        };
        let call = start.elapsed();
        let after = traced.then(ProcCounts::read);

        let mut line = vec![
            ("instance", Json::from(instance)),
            ("traced", traced.into()),
            ("call_us", (call.as_micros() as u64).into()),
        ];
        let reports = match result {
            Ok(reports) => reports,
            Err(err) => {
                line.push(("completed", false.into()));
                line.push(("error", Json::str(err.to_string())));
                println!("{}", Json::obj(line).render());
                continue;
            }
        };
        let decisions = uba_net::decisions(&reports);
        let inputs: Vec<u64> = (0..args.nodes).map(input_of).collect();
        check_decisions(&decisions, &inputs).map_err(|v| v.to_string())?;
        let timeouts: u64 = reports.values().map(|r| r.timeouts).sum();
        let completed = decisions.len() == args.nodes && timeouts == 0;
        // Decision latency: the slowest member's time from its first round
        // to the round it decided in. Rounds: its time in all rounds, so
        // that call − rounds is mesh set-up plus teardown.
        let decision_us = reports
            .values()
            .map(|r| {
                let decided = r.decided_round.unwrap_or(r.rounds) as usize;
                r.round_micros.iter().take(decided).sum::<u64>()
            })
            .max()
            .unwrap_or(0);
        let rounds_us = reports
            .values()
            .map(|r| r.round_micros.iter().sum::<u64>())
            .max()
            .unwrap_or(0);
        line.extend([
            ("completed", completed.into()),
            ("timeouts", timeouts.into()),
            ("decision_us", decision_us.into()),
            ("rounds_us", rounds_us.into()),
        ]);

        if traced {
            let mut totals = RuntimeMetrics::new();
            for registry in registries.values() {
                totals.merge(&registry.snapshot());
            }
            let steps = sink.take_steps();
            let round_us: Vec<Json> = reports
                .values()
                .flat_map(|r| r.round_micros.iter().map(|&us| us.into()))
                .collect();
            let (before, after) = (before.expect("traced"), after.expect("traced"));
            let mid = sink.mid_run().unwrap_or(after);
            let decided_round = reports.values().filter_map(|r| r.decided_round).max();
            line.extend([
                ("decided_round", decided_round.unwrap_or(0).into()),
                ("step_ns", steps.iter().map(|s| s.nanos).sum::<u64>().into()),
                ("round_us", Json::Arr(round_us)),
                ("fds_peak", mid.fds.saturating_sub(before.fds).into()),
                (
                    "threads_peak",
                    mid.threads.saturating_sub(before.threads).into(),
                ),
                ("fds_leaked", after.fds.saturating_sub(before.fds).into()),
                (
                    "threads_leaked",
                    after.threads.saturating_sub(before.threads).into(),
                ),
            ]);
            line.extend(
                NetCost::from_registry(&totals)
                    .fields()
                    .map(|(name, value)| (name, value.into())),
            );
            let begin = clock.at(start);
            let end = clock.at(start + call);
            let mut op = OpSpans::new(instance, begin, end);
            let first_step = steps.iter().map(|s| s.start_us).min().unwrap_or(end);
            op.push(op.root(), "setup", None, begin, first_step);
            op.push_rounds(steps, end);
            spans.append(&mut op.spans);
        }
        println!("{}", Json::obj(line).render());
    }
    let summary = Json::obj([
        ("cpu_ms", Json::from(procfs::cpu_ms() - cpu_before)),
        ("peak_rss_mb", procfs::peak_rss_mb().into()),
    ]);
    if let Some(path) = &args.trace_out {
        append_spans(path, &spans).map_err(|e| format!("write trace: {e}"))?;
    }
    println!("{}", summary.render());
    Ok(())
}

/// The `worker` subcommand's arguments; the parent builds them, the child
/// parses them back.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerArgs {
    pub seed: u64,
    pub nodes: usize,
    pub first: u64,
    pub count: u64,
    pub epoch_us: u64,
    /// Where a traced run's worker appends its spans; `None` runs untraced.
    pub trace_out: Option<std::path::PathBuf>,
}

impl WorkerArgs {
    fn to_argv(&self) -> Vec<String> {
        let mut argv = vec![
            "worker".to_string(),
            "--seed".into(),
            self.seed.to_string(),
            "--nodes".into(),
            self.nodes.to_string(),
            "--first".into(),
            self.first.to_string(),
            "--count".into(),
            self.count.to_string(),
            "--epoch-us".into(),
            self.epoch_us.to_string(),
        ];
        if let Some(path) = &self.trace_out {
            argv.push("--trace-out".into());
            argv.push(path.display().to_string());
        }
        argv
    }
}

pub fn run_net(cfg: &RunCfg) -> Result<Outcome, String> {
    let nodes = net_nodes(cfg.scale);
    let per_worker = instances_per_worker(nodes)?;
    let budget = Duration::from_secs_f64(cfg.seconds);
    let epoch_us = unix_micros();
    let clock = Clock::since(epoch_us);

    let flag = |op: &Json, key: &str| op.get(key).and_then(Json::as_bool).unwrap_or(false);
    let mut ops: Vec<Json> = Vec::new();
    let mut windows: Vec<Window> = Vec::new();
    let mut peak_rss_mb = procfs::peak_rss_mb();
    let started = Instant::now();
    let mut next = 0u64;
    loop {
        let mut window = OpenWindow::default();
        let mut left = window_len(NET_WINDOW, cfg.scale, cfg.trace);
        while left > 0 {
            let count = left.min(per_worker);
            let mut lines = child::json_lines(
                WorkerArgs {
                    seed: cfg.seed,
                    nodes,
                    first: next,
                    count,
                    epoch_us,
                    trace_out: cfg.trace.then(|| cfg.trace_path()),
                }
                .to_argv(),
            )?;
            let summary = lines.pop().ok_or("worker printed nothing")?;
            if lines.len() as u64 != count {
                return Err(format!("worker ran {} of {count} instances", lines.len()));
            }
            peak_rss_mb = peak_rss_mb.max(summary.num("peak_rss_mb")?);
            window.cpu_ms += summary.num("cpu_ms")?;
            for op in &lines {
                let call_us = op.num("call_us")?;
                window.wall_s += call_us / 1e6;
                if flag(op, "completed") && !flag(op, "traced") {
                    window.latencies_ms.push(op.num("decision_us")? / 1e3);
                    window.setups_s.push((call_us - op.num("rounds_us")?) / 1e6);
                }
            }
            ops.append(&mut lines);
            next += count;
            left -= count;
        }
        windows.extend(window.close());
        if started.elapsed() >= budget {
            break;
        }
    }
    let wall = started.elapsed();

    // The ops this run reports on: all of them untraced, the traced half of
    // a traced run.
    let reported: Vec<&Json> = ops
        .iter()
        .filter(|op| flag(op, "traced") == cfg.trace)
        .collect();
    let attempted = reported.len() as u64;
    let done: Vec<&Json> = reported
        .iter()
        .copied()
        .filter(|op| flag(op, "completed"))
        .collect();
    let failed = attempted - done.len() as u64;
    if done.is_empty() {
        return Err(format!("{}: no instance completed", cfg.workload));
    }
    let column = |ops: &[&Json], key: &str| -> Result<Vec<f64>, String> {
        ops.iter().map(|op| op.num(key)).collect()
    };
    let total =
        |ops: &[&Json], key: &str| -> Result<f64, String> { Ok(column(ops, key)?.iter().sum()) };
    let setup_ms: Vec<f64> = done
        .iter()
        .map(|op| Ok((op.num("call_us")? - op.num("rounds_us")?) / 1e3))
        .collect::<Result<_, String>>()?;
    let latency_ms: Vec<f64> = column(&done, "decision_us")?
        .iter()
        .map(|us| us / 1e3)
        .collect();
    let completed = done.len() as f64;

    if !cfg.trace {
        return Ok(Outcome::new(
            false,
            attempted,
            failed,
            end_to_end(&windows, peak_rss_mb),
        ));
    }

    append_spans(
        &cfg.trace_path(),
        [&Span::root(
            cfg.workload,
            clock.at(started),
            clock.at(started + wall),
        )],
    )
    .map_err(|e| format!("write trace: {e}"))?;

    let reference_ms: Vec<f64> = ops
        .iter()
        .filter(|op| !flag(op, "traced") && flag(op, "completed"))
        .map(|op| Ok(op.num("decision_us")? / 1e3))
        .collect::<Result<_, String>>()?;
    if reference_ms.is_empty() {
        return Err(format!("{}: no reference instance completed", cfg.workload));
    }
    let mut round_ms: Vec<f64> = Vec::new();
    for op in &done {
        let rounds = op
            .get("round_us")
            .and_then(Json::as_arr)
            .ok_or("no round_us")?;
        round_ms.extend(rounds.iter().filter_map(Json::as_f64).map(|us| us / 1e3));
    }
    let round_ms = stats::sorted(round_ms);
    let cost = NetCost::from_fields(|name| total(&done, name))?;
    let per_layer = [
        (
            "core.step_ms_per_op",
            total(&done, "step_ns")? / 1e6 / completed,
        ),
        (
            "core.rounds_per_op",
            stats::median(&column(&done, "decided_round")?),
        ),
        (
            "wire.frames_per_op",
            stats::median(&column(&done, "frames")?),
        ),
        ("wire.bytes_per_op", stats::median(&column(&done, "bytes")?)),
        ("conn.mesh_setup_ms_p50", stats::median(&setup_ms)),
        (
            "conn.fds_per_instance",
            stats::median(&column(&done, "fds_peak")?),
        ),
        (
            "conn.threads_per_instance",
            stats::median(&column(&done, "threads_peak")?),
        ),
        (
            "conn.fds_leaked_per_instance",
            stats::median(&column(&done, "fds_leaked")?),
        ),
        (
            "conn.threads_leaked_per_instance",
            stats::median(&column(&done, "threads_leaked")?),
        ),
        ("node.round_ms_p50", stats::percentile(&round_ms, 0.50)),
        ("node.round_ms_p95", stats::percentile(&round_ms, 0.95)),
        ("sync.timeouts", total(&done, "timeouts")?),
        (
            "trace.metrics_overhead_pct",
            overhead_pct(&reference_ms, &latency_ms),
        ),
    ];
    Ok(Outcome::new(
        true,
        attempted,
        failed,
        per_layer
            .into_iter()
            .chain(cost.metrics())
            .chain(probe::codec().metrics()),
    ))
}
