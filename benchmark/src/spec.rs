//! The one table of workloads and metrics. `--list`, the result tables,
//! `compare` and `/BENCHMARK.json` (`manifest`) are all generated from it,
//! so they cannot drift; the smoke test pins the committed file to it.

use crate::json::Json;

/// Seconds one run measures when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 24;

/// The driver's command line for one run (it appends `--workload`,
/// `--seed`, `--seconds` and `--trace`).
pub const COMMAND: &[&str] = &["bash", "benchmark/run.sh"];

pub const PATHS: &[&str] = &["benchmark"];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const SIM_BYZ: &str = "sim-byz-n64";
pub const NET_CLEAN: &str = "net-clean-n16";
pub const LOGD_SMALL: &str = "logd-small";
pub const LOGD_LARGE: &str = "logd-large";

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: SIM_BYZ,
        why: "the paper's setting (unknown n=64, f=21 equivocating) on the simulator: sim delivery and core step do all the work, no sockets; the fault-injected run",
    },
    Workload {
        name: NET_CLEAN,
        why: "fault-free 16-node TCP consensus on loopback: net conn/wire/sync/node do >99% of the work, protocol step <1%; the mirror image of sim-byz-n64",
    },
    Workload {
        name: LOGD_SMALL,
        why: "open-loop 1250 rec/s of 64-byte records into 4 members x 4 shards, cold reads beside the writes: per-round, per-frame and per-record costs dominate",
    },
    Workload {
        name: LOGD_LARGE,
        why: "open-loop 175 rec/s of 8 KiB records into 4 members x 1 shard: the same layers by bytes, so codec, payload clones and socket writes dominate",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before `compare` (and the driver) call it a regression.
    /// Per-layer metrics carry none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const P50: &str = "op_latency_ms_p50";
pub const P95: &str = "op_latency_ms_p95";
pub const OPS_PER_S: &str = "ops_per_s";
pub const CPU_MS_PER_OP: &str = "cpu_ms_per_op";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
pub const SETUP_S: &str = "setup_s";

/// Measured with tracing and registries off. The bounds are from the
/// calibration in `README.md`: on a machine that alternates between full
/// speed and ≈1.6× slower, ten runs of a timing spread by up to 12 % of
/// their median and two sets of ten shifted by up to 15 %; the contract
/// caps a bound at 25 %. `failed_share` is not here:
/// it is 0 on a healthy run (a bound as a share of 0 is meaningless), so it
/// travels as `attempted`/`failed` beside the metrics and any increase is a
/// regression in `compare`.
pub const END_TO_END: &[Metric] = &[
    e2e(P50, "ms", Better::Lower, 0.25),
    e2e(P95, "ms", Better::Lower, 0.25),
    e2e(OPS_PER_S, "1/s", Better::Higher, 0.25),
    e2e(CPU_MS_PER_OP, "ms", Better::Lower, 0.25),
    e2e(PEAK_RSS_MB, "MB", Better::Lower, 0.15),
    e2e(SETUP_S, "s", Better::Lower, 0.25),
];

/// Measured in the traced run only, named `layer.metric`. A metric whose
/// layer a workload does not use reads 0 there (the predicted-no-change
/// control).
pub const PER_LAYER: &[Metric] = &[
    layer("core.step_ms_per_op", "ms", Better::Lower),
    layer("core.rounds_per_op", "count", Better::Lower),
    layer("sim.deliver_ms_per_op", "ms", Better::Lower),
    layer("sim.adversary_ms_per_op", "ms", Better::Lower),
    layer("sim.envelopes_per_op", "count", Better::Lower),
    layer("sim.ns_per_envelope", "ns", Better::Lower),
    layer("sim.scale_exponent", "ratio", Better::Lower),
    layer("wire.frames_per_op", "count", Better::Lower),
    layer("wire.bytes_per_op", "B", Better::Lower),
    layer("wire.amplification", "ratio", Better::Lower),
    layer("wire.encode_ns_per_frame", "ns", Better::Lower),
    layer("wire.decode_ns_per_frame", "ns", Better::Lower),
    layer("wire.codec_mb_per_s", "MB/s", Better::Higher),
    layer("conn.mesh_setup_ms_p50", "ms", Better::Lower),
    layer("conn.fds_per_instance", "count", Better::Lower),
    layer("conn.threads_per_instance", "count", Better::Lower),
    layer("conn.fds_leaked_per_instance", "count", Better::Lower),
    layer("conn.threads_leaked_per_instance", "count", Better::Lower),
    layer("node.round_ms_p50", "ms", Better::Lower),
    layer("node.round_ms_p95", "ms", Better::Lower),
    layer("node.step_share", "ratio", Better::Lower),
    layer("node.send_share", "ratio", Better::Lower),
    layer("node.deliver_share", "ratio", Better::Lower),
    layer("node.barrier_share", "ratio", Better::Lower),
    layer("node.journal_share", "ratio", Better::Lower),
    layer("node.send_us_per_frame", "us", Better::Lower),
    layer("sync.barrier_ms_per_round", "ms", Better::Lower),
    layer("sync.timeouts", "count", Better::Lower),
    layer("service.ack_us_p50", "us", Better::Lower),
    layer("service.ack_us_p99", "us", Better::Lower),
    layer("service.submit_ns", "ns", Better::Lower),
    layer("service.round_ms_p50", "ms", Better::Lower),
    layer("service.round_growth", "ratio", Better::Lower),
    layer("service.records_per_batch", "count", Better::Higher),
    layer("service.commit_rounds_p50", "count", Better::Lower),
    layer("service.read_tail_us_p50", "us", Better::Lower),
    layer("service.read_full_ms_p50", "ms", Better::Lower),
    layer("service.tail_s", "s", Better::Lower),
    layer("service.generator_lag_ms_max", "ms", Better::Lower),
    layer("trace.metrics_overhead_pct", "%", Better::Lower),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The metrics one run reports: end-to-end untraced, per-layer traced.
pub fn metrics_for(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// `/BENCHMARK.json`, rendered from the table.
pub fn manifest() -> Json {
    let metric = |m: &Metric| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            fields.push(("bound", bound.into()));
        }
        Json::obj(fields)
    };
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strings(COMMAND)),
        ("paths", strings(PATHS)),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

/// The `--list` text: every workload and metric name with its unit.
pub fn list() -> String {
    let mut out = String::from("workloads:\n");
    for w in WORKLOADS {
        out.push_str(&format!("  {:<16} {}\n", w.name, w.why));
    }
    out.push_str("end-to-end metrics (untraced run):\n");
    for m in END_TO_END {
        out.push_str(&format!(
            "  {:<36} {:<6} {} is better, bound {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics are bounded"),
        ));
    }
    out.push_str("per-layer metrics (traced run):\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "  {:<36} {:<6} {} is better\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out
}
