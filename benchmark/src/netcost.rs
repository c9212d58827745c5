//! Where a TCP member's round time went, from the `net_*` families of the
//! members' runtime registries. Both TCP workload modules report these, so
//! the one rule that needs care — what counts as barrier wait — lives here.

use uba_trace::RuntimeMetrics;

/// The raw sums, in [`FIELDS`] order. A worker process sends them to its
/// parent under those names, and the parent adds them up over instances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetCost([f64; 9]);

pub const FIELDS: [&str; 9] = [
    "phase_step_us",
    "phase_send_us",
    "phase_deliver_us",
    "phase_barrier_us",
    "phase_journal_us",
    "round_total_us",
    "member_rounds",
    "frames",
    "bytes",
];

impl NetCost {
    /// Sums over every member merged into `totals`.
    pub fn from_registry(totals: &RuntimeMetrics) -> NetCost {
        let timing = |name: &str| totals.timing(name).map_or(0.0, |h| h.sum() as f64);
        let phase = |name: &str| timing(&format!("net_round_phase_micros{{phase=\"{name}\"}}"));
        NetCost([
            phase("step"),
            phase("send"),
            phase("deliver"),
            phase("barrier"),
            phase("journal"),
            timing("net_round_micros"),
            totals.counter("net_rounds_total") as f64,
            family_sum(totals, "net_frames_sent_total"),
            family_sum(totals, "net_bytes_sent_total"),
        ])
    }

    pub fn fields(&self) -> impl Iterator<Item = (&'static str, f64)> {
        FIELDS.into_iter().zip(self.0)
    }

    /// Rebuilds the sums from wherever `get` finds each field.
    pub fn from_fields(get: impl Fn(&str) -> Result<f64, String>) -> Result<NetCost, String> {
        let mut values = [0.0; 9];
        for (value, name) in values.iter_mut().zip(FIELDS) {
            *value = get(name)?;
        }
        Ok(NetCost(values))
    }

    pub fn frames(&self) -> f64 {
        self.0[7]
    }

    pub fn bytes(&self) -> f64 {
        self.0[8]
    }

    /// The `node.*` and `sync.barrier_ms_per_round` per-layer metrics.
    pub fn metrics(&self) -> [(&'static str, f64); 7] {
        let [step, send, deliver, barrier, journal, round, rounds, frames, _] = self.0;
        // The barrier wait as the node times it includes handing received
        // frames to the synchronizer, which it also times as `deliver`; take
        // that out so the five phases partition the round.
        let barrier = barrier - deliver;
        [
            ("node.step_share", step / round),
            ("node.send_share", send / round),
            ("node.deliver_share", deliver / round),
            ("node.barrier_share", barrier / round),
            ("node.journal_share", journal / round),
            ("node.send_us_per_frame", send / frames),
            ("sync.barrier_ms_per_round", barrier / 1e3 / rounds),
        ]
    }
}

/// Sums every counter of a labelled family.
pub fn family_sum(metrics: &RuntimeMetrics, family: &str) -> f64 {
    metrics
        .counters()
        .filter(|(name, _)| name.starts_with(family))
        .map(|(_, value)| value as f64)
        .sum()
}
