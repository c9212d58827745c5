//! What one run of one workload is configured with and what it reports.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::json::Json;
use crate::spec::{self, Metric};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the workloads are named after.
    Full,
    /// n=4, 3 instances, 300 records: seconds in total, for tests.
    Smoke,
}

impl Scale {
    pub fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "full" => Ok(Scale::Full),
            "smoke" => Ok(Scale::Smoke),
            other => Err(format!("unknown scale {other:?} (full or smoke)")),
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: &'static str,
    pub seed: u64,
    /// How long the run measures. Consensus workloads run windows of
    /// instances until it has passed; the log workloads load one fresh
    /// cluster per 2.4 s of it.
    pub seconds: f64,
    /// Off: end-to-end metrics, registries and spans off. On: per-layer
    /// metrics, with spans written to `out_dir/trace-<workload>.jsonl`.
    pub trace: bool,
    pub scale: Scale,
    pub out_dir: PathBuf,
}

impl RunCfg {
    pub fn trace_path(&self) -> PathBuf {
        self.out_dir.join(format!("trace-{}.jsonl", self.workload))
    }
}

/// The result of one run: the contract's `attempted`/`failed` and one value
/// per metric of the run's kind (end-to-end untraced, per-layer traced).
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Builds an outcome, checking that `values` names exactly the metrics
    /// `trace` calls for (per-layer metrics a workload's layers do not
    /// produce default to 0, the no-change control).
    pub fn new(
        trace: bool,
        attempted: u64,
        failed: u64,
        values: impl IntoIterator<Item = (&'static str, f64)>,
    ) -> Outcome {
        let declared = spec::metrics_for(trace);
        let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, value) in values {
            assert!(
                declared.iter().any(|m| m.name == name),
                "{name} is not a declared {} metric",
                if trace { "per-layer" } else { "end-to-end" }
            );
            assert!(value.is_finite(), "{name} is {value}");
            metrics.insert(name, value);
        }
        for metric in declared {
            if trace {
                metrics.entry(metric.name).or_insert(0.0);
            } else {
                assert!(metrics.contains_key(metric.name), "{} missing", metric.name);
            }
        }
        Outcome {
            attempted,
            failed,
            metrics,
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The one-line result object the driver reads from the last line of
    /// standard output.
    pub fn to_json(&self, trace: bool) -> Json {
        let metrics = spec::metrics_for(trace).iter().map(|m: &Metric| {
            let value = Json::obj([
                ("value", self.metrics[m.name].into()),
                ("unit", Json::str(m.unit)),
            ]);
            (m.name, value)
        });
        Json::obj([
            ("correct", true.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::obj(metrics)),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Outcome, String> {
        let count = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("result has no count {key:?}"))
        };
        let mut metrics = BTreeMap::new();
        for (name, value) in doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("result has no metrics")?
        {
            let metric = spec::metric(name).ok_or_else(|| format!("unknown metric {name:?}"))?;
            metrics.insert(metric.name, value.num("value")?);
        }
        Ok(Outcome {
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// p50 and p95 of per-op latencies in milliseconds.
pub fn latency_percentiles(latencies_ms: Vec<f64>) -> (f64, f64) {
    let sorted = stats::sorted(latencies_ms);
    (
        stats::percentile(&sorted, 0.50),
        stats::percentile(&sorted, 0.95),
    )
}

/// What one window of an untraced run measured. A window is a stretch of
/// consecutive ops short beside the ~10 s on which a shared machine changes
/// speed: 20 sim instances, 24 net instances (three worker processes), one
/// loaded log cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub ops_per_s: f64,
    pub cpu_ms_per_op: f64,
    /// The median of the set-ups timed in the window.
    pub setup_s: f64,
}

/// A run's end-to-end metrics from its windows: each timing is its quiet
/// quartile over the windows ([`stats::quiet_quartile`]), so that stretches
/// in which a neighbour slowed the machine do not set the run's numbers as
/// long as a quarter of its windows escaped them. A p95 over all ops of the
/// run, by contrast, reads the slow stretch as soon as it covers a
/// twentieth of the run.
pub fn end_to_end(windows: &[Window], peak_rss_mb: f64) -> [(&'static str, f64); 6] {
    let quiet = |metric: &'static str, value: fn(&Window) -> f64| {
        let better = spec::metric(metric).expect("declared").better;
        let values: Vec<f64> = windows.iter().map(value).collect();
        (metric, stats::quiet_quartile(&values, better))
    };
    [
        quiet(spec::P50, |w| w.p50_ms),
        quiet(spec::P95, |w| w.p95_ms),
        quiet(spec::OPS_PER_S, |w| w.ops_per_s),
        quiet(spec::CPU_MS_PER_OP, |w| w.cpu_ms_per_op),
        (spec::PEAK_RSS_MB, peak_rss_mb),
        quiet(spec::SETUP_S, |w| w.setup_s),
    ]
}
