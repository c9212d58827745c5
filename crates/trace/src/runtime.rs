//! Wall-clock runtime metrics: a lap timer and a thread-safe registry.
//!
//! This module is the **second** registry of the crate, deliberately kept
//! apart from the deterministic [`Metrics`](crate::Metrics) registry that
//! folds the trace event stream. The event stream must stay byte-identical
//! per seed, so nothing in it may depend on the clock; runtime metrics are
//! the opposite — they exist *only* to measure wall-clock time and real
//! transport volume. The two never mix: a [`RuntimeMetrics`] is not a
//! [`Tracer`](crate::Tracer), cannot be fanned into the event stream, and
//! no engine writes trace events from it (DESIGN.md §10).
//!
//! The registry is shared across threads (a cluster node's round loop, its
//! reader threads, and an HTTP exposition endpoint all touch it), so the
//! working handle is [`SharedRuntimeMetrics`], a cheap-to-clone
//! `Arc<Mutex<_>>`. All series live in `BTreeMap`s keyed by the full
//! metric name (labels included), so rendering is deterministic given the
//! same contents.
//!
//! # Examples
//!
//! ```
//! use uba_trace::{Laps, SharedRuntimeMetrics};
//!
//! let rt = SharedRuntimeMetrics::new();
//! rt.inc("net_frames_sent_total{peer=\"5\"}");
//! rt.set_gauge("net_history_rounds_retained", 64);
//! let mut laps = Laps::start();
//! // ... timed work ...
//! rt.observe_micros("net_round_phase_micros{phase=\"send\"}", laps.lap());
//! let text = rt.render_prometheus();
//! assert!(text.contains("net_frames_sent_total{peer=\"5\"} 1"));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::metrics::Histogram;

/// Default bucket bounds for microsecond timing histograms: roughly
/// log-spaced from 10µs to 5s, matching localhost round latencies at the
/// low end and barrier timeouts at the high end.
pub const TIMING_BUCKETS_US: &[u64] = &[
    10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
    500_000, 1_000_000, 5_000_000,
];

/// One chain of laps over the monotonic clock: each [`lap`](Self::lap)
/// ends where the previous one (or the start) ended, so a driver that laps
/// through its phases times the whole of its round with no gap between
/// them. Every reading is kept as whole microseconds since the start, and a
/// lap is the difference of two such readings, so the laps of a chain add
/// up to its [`total`](Self::total) exactly, as integers.
///
/// # Examples
///
/// ```
/// use uba_trace::Laps;
///
/// let mut laps = Laps::start();
/// let first = laps.lap();
/// let second = laps.lap();
/// assert_eq!(first + second, laps.total());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Laps {
    started: Instant,
    /// Microseconds from `started` to the end of the last lap.
    total: u64,
}

impl Laps {
    /// Starts the chain: one clock reading.
    pub fn start() -> Self {
        Laps {
            started: Instant::now(),
            total: 0,
        }
    }

    /// The reading the chain started at, for deadlines counted from it.
    pub fn started(&self) -> Instant {
        self.started
    }

    /// Ends the current lap now (one clock reading) and returns its
    /// microseconds; the next lap starts where this one ends.
    pub fn lap(&mut self) -> u64 {
        self.lap_at(Instant::now())
    }

    /// Ends the current lap at `now`. A reading before the previous one
    /// makes a zero-length lap rather than a negative one.
    fn lap_at(&mut self, now: Instant) -> u64 {
        let total = micros(now.saturating_duration_since(self.started)).max(self.total);
        let lap = total - self.total;
        self.total = total;
        lap
    }

    /// Microseconds from the start to the end of the last lap: the sum of
    /// every lap so far. Reads no clock.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Whole microseconds of `elapsed`, saturated into `u64` (584 millennia of
/// headroom: the cast is for histogram convenience, not a real limit).
fn micros(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

/// Builds a full metric name from a base and label pairs, with Prometheus
/// label-value escaping (`\` → `\\`, `"` → `\"`, newline → `\n`) applied.
///
/// # Examples
///
/// ```
/// use uba_trace::metric_name;
///
/// assert_eq!(metric_name("up", &[]), "up");
/// assert_eq!(
///     metric_name("net_bytes_sent_total", &[("peer", "17")]),
///     "net_bytes_sent_total{peer=\"17\"}"
/// );
/// ```
pub fn metric_name(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut out = String::with_capacity(base.len() + 16 * labels.len());
    out.push_str(base);
    out.push('{');
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        push_escaped_label(&mut out, value);
        out.push('"');
    }
    out.push('}');
    out
}

/// Escapes a label value per the Prometheus text format 0.0.4.
fn push_escaped_label(out: &mut String, value: &str) {
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
}

/// Splits a full metric name into its base (family) and the inner label
/// list (without braces), if any.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.find('{') {
        Some(open) => {
            let labels = name[open + 1..].strip_suffix('}').unwrap_or("");
            (&name[..open], Some(labels))
        }
        None => (name, None),
    }
}

/// Wall-clock counters, gauges, and microsecond timing histograms.
///
/// Keys are full metric names — base plus optional `{label="value"}` pairs
/// built with [`metric_name`] — so one map holds every series of a family
/// and `BTreeMap` ordering makes [`render_prometheus`](Self::render_prometheus)
/// deterministic for a given registry state.
#[derive(Debug, Clone, Default)]
pub struct RuntimeMetrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    timings: BTreeMap<String, Histogram>,
}

impl RuntimeMetrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(slot) = self.counters.get_mut(name) {
            *slot = slot.saturating_add(delta);
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Increments the named counter by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: u64) {
        if let Some(slot) = self.gauges.get_mut(name) {
            *slot = value;
        } else {
            self.gauges.insert(name.to_string(), value);
        }
    }

    /// Records one microsecond sample into the named timing histogram
    /// (created on first use with [`TIMING_BUCKETS_US`]).
    pub fn observe_micros(&mut self, name: &str, micros: u64) {
        if let Some(histogram) = self.timings.get_mut(name) {
            histogram.record(micros);
        } else {
            let mut histogram = Histogram::new(TIMING_BUCKETS_US);
            histogram.record(micros);
            self.timings.insert(name.to_string(), histogram);
        }
    }

    /// Value of the named counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Value of the named gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// The named timing histogram, if any sample was recorded.
    pub fn timing(&self, name: &str) -> Option<&Histogram> {
        self.timings.get(name)
    }

    /// Iterates all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Sum over every series of a counter family — the series named
    /// `family` itself plus every `family{..labels..}` — e.g. total frames
    /// sent across peers. The in-process counterpart of summing the lines
    /// of one family in a Prometheus exposition.
    ///
    /// # Examples
    ///
    /// ```
    /// use uba_trace::RuntimeMetrics;
    ///
    /// let mut m = RuntimeMetrics::new();
    /// m.add("net_frames_sent_total{peer=\"1\"}", 2);
    /// m.add("net_frames_sent_total{peer=\"2\"}", 3);
    /// m.inc("net_frames_sent_total_elsewhere");
    /// assert_eq!(m.family_sum("net_frames_sent_total"), 5);
    /// assert_eq!(m.family_sum("missing"), 0);
    /// ```
    pub fn family_sum(&self, family: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(name, _)| split_labels(name).0 == family)
            .map(|(_, &value)| value)
            .sum()
    }

    /// Iterates all timing histograms in name order.
    pub fn timings(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.timings.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds another registry into this one: counters add, gauges take the
    /// other's value, histograms merge sample-by-sample via their bucket
    /// counts (both sides use [`TIMING_BUCKETS_US`], so bounds agree).
    pub fn merge(&mut self, other: &RuntimeMetrics) {
        for (name, &value) in &other.counters {
            self.add(name, value);
        }
        for (name, &value) in &other.gauges {
            self.set_gauge(name, value);
        }
        for (name, histogram) in &other.timings {
            let slot = self
                .timings
                .entry(name.clone())
                .or_insert_with(|| Histogram::new(TIMING_BUCKETS_US));
            slot.merge(histogram);
        }
    }

    /// Renders the registry in the Prometheus text exposition format 0.0.4:
    /// one `# TYPE` header per family, cumulative `le` buckets plus `_sum`
    /// and `_count` for histograms, series in lexicographic name order.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = "";
        for (name, &value) in &self.counters {
            let (family, _) = split_labels(name);
            if family != last_family {
                let _ = writeln!(out, "# TYPE {family} counter");
                last_family = family;
            }
            let _ = writeln!(out, "{name} {value}");
        }
        last_family = "";
        for (name, &value) in &self.gauges {
            let (family, _) = split_labels(name);
            if family != last_family {
                let _ = writeln!(out, "# TYPE {family} gauge");
                last_family = family;
            }
            let _ = writeln!(out, "{name} {value}");
        }
        last_family = "";
        for (name, histogram) in &self.timings {
            let (family, labels) = split_labels(name);
            if family != last_family {
                let _ = writeln!(out, "# TYPE {family} histogram");
                last_family = family;
            }
            let mut cumulative = 0u64;
            for (bound, count) in histogram.buckets() {
                cumulative += count;
                let le = match bound {
                    Some(b) => b.to_string(),
                    None => "+Inf".to_string(),
                };
                match labels {
                    Some(inner) if !inner.is_empty() => {
                        let _ =
                            writeln!(out, "{family}_bucket{{{inner},le=\"{le}\"}} {cumulative}");
                    }
                    _ => {
                        let _ = writeln!(out, "{family}_bucket{{le=\"{le}\"}} {cumulative}");
                    }
                }
            }
            let suffix = |s: &str| match labels {
                Some(inner) if !inner.is_empty() => format!("{family}{s}{{{inner}}}"),
                _ => format!("{family}{s}"),
            };
            let _ = writeln!(out, "{} {}", suffix("_sum"), histogram.sum());
            let _ = writeln!(out, "{} {}", suffix("_count"), histogram.count());
        }
        out
    }
}

/// A cheap-to-clone, thread-safe handle to a [`RuntimeMetrics`] registry.
///
/// Every writer (round loop, reader threads, engines) and every reader
/// (HTTP exposition, bench report) holds a clone; a poisoned lock is
/// recovered rather than propagated, because dropping metrics on a panic
/// elsewhere would only hide the postmortem.
#[derive(Debug, Clone, Default)]
pub struct SharedRuntimeMetrics(Arc<Mutex<RuntimeMetrics>>);

impl SharedRuntimeMetrics {
    /// Creates a handle to a fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with the registry locked.
    pub fn with<R>(&self, f: impl FnOnce(&mut RuntimeMetrics) -> R) -> R {
        let mut guard = self.0.lock().unwrap_or_else(|poison| poison.into_inner());
        f(&mut guard)
    }

    /// Adds `delta` to the named counter.
    pub fn add(&self, name: &str, delta: u64) {
        self.with(|m| m.add(name, delta));
    }

    /// Increments the named counter by one.
    pub fn inc(&self, name: &str) {
        self.with(|m| m.inc(name));
    }

    /// Sets the named gauge.
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.with(|m| m.set_gauge(name, value));
    }

    /// Records one microsecond sample into the named timing histogram.
    pub fn observe_micros(&self, name: &str, micros: u64) {
        self.with(|m| m.observe_micros(name, micros));
    }

    /// A point-in-time copy of the registry.
    pub fn snapshot(&self) -> RuntimeMetrics {
        self.with(|m| m.clone())
    }

    /// Renders the current registry state in Prometheus text format.
    pub fn render_prometheus(&self) -> String {
        self.with(|m| m.render_prometheus())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_timings_round_trip() {
        let mut m = RuntimeMetrics::new();
        m.inc("a_total");
        m.add("a_total", 2);
        m.set_gauge("g", 7);
        m.set_gauge("g", 9);
        m.observe_micros("t_micros", 40);
        assert_eq!(m.counter("a_total"), 3);
        assert_eq!(m.gauge("g"), Some(9));
        assert_eq!(m.timing("t_micros").unwrap().count(), 1);
        assert_eq!(m.counter("never"), 0);
    }

    #[test]
    fn metric_name_escapes_label_values() {
        let name = metric_name("m", &[("k", "a\\b\"c\nd")]);
        assert_eq!(name, "m{k=\"a\\\\b\\\"c\\nd\"}");
        let mut m = RuntimeMetrics::new();
        m.inc(&name);
        let text = m.render_prometheus();
        assert!(text.contains("m{k=\"a\\\\b\\\"c\\nd\"} 1"), "got: {text}");
    }

    #[test]
    fn prometheus_counters_share_one_type_header_per_family() {
        let mut m = RuntimeMetrics::new();
        m.inc(&metric_name("net_frames_sent_total", &[("peer", "2")]));
        m.inc(&metric_name("net_frames_sent_total", &[("peer", "1")]));
        m.inc("net_reconnects_total");
        let text = m.render_prometheus();
        assert_eq!(
            text.matches("# TYPE net_frames_sent_total counter").count(),
            1
        );
        assert_eq!(
            text.matches("# TYPE net_reconnects_total counter").count(),
            1
        );
        // Label sets are rendered in deterministic (sorted) order.
        let one = text.find("peer=\"1\"").unwrap();
        let two = text.find("peer=\"2\"").unwrap();
        assert!(one < two);
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative_with_inf() {
        let mut m = RuntimeMetrics::new();
        // TIMING_BUCKETS_US starts 10, 25, 50, ...
        m.observe_micros("t_micros", 5); // le=10
        m.observe_micros("t_micros", 11); // le=25
        m.observe_micros("t_micros", 9_999_999); // overflow
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE t_micros histogram"));
        assert!(text.contains("t_micros_bucket{le=\"10\"} 1"), "got: {text}");
        assert!(text.contains("t_micros_bucket{le=\"25\"} 2"));
        assert!(text.contains("t_micros_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("t_micros_sum 10000015"));
        assert!(text.contains("t_micros_count 3"));
    }

    #[test]
    fn prometheus_histogram_with_labels_splices_le() {
        let mut m = RuntimeMetrics::new();
        m.observe_micros(&metric_name("phase_micros", &[("phase", "send")]), 3);
        let text = m.render_prometheus();
        assert!(
            text.contains("phase_micros_bucket{phase=\"send\",le=\"10\"} 1"),
            "got: {text}"
        );
        assert!(text.contains("phase_micros_sum{phase=\"send\"} 3"));
        assert!(text.contains("phase_micros_count{phase=\"send\"} 1"));
    }

    #[test]
    fn rendering_is_deterministic_and_insertion_order_independent() {
        let mut a = RuntimeMetrics::new();
        let mut b = RuntimeMetrics::new();
        for m in [&mut a, &mut b] {
            m.observe_micros("t_micros", 100);
        }
        a.inc("x_total");
        a.inc("b_total");
        b.inc("b_total");
        b.inc("x_total");
        assert_eq!(a.render_prometheus(), b.render_prometheus());
        assert_eq!(a.render_prometheus(), a.render_prometheus());
    }

    #[test]
    fn merge_adds_counters_and_merges_histograms() {
        let mut a = RuntimeMetrics::new();
        let mut b = RuntimeMetrics::new();
        a.add("c_total", 2);
        b.add("c_total", 3);
        a.observe_micros("t_micros", 5);
        b.observe_micros("t_micros", 500);
        b.set_gauge("g", 1);
        a.merge(&b);
        assert_eq!(a.counter("c_total"), 5);
        assert_eq!(a.timing("t_micros").unwrap().count(), 2);
        assert_eq!(a.timing("t_micros").unwrap().sum(), 505);
        assert_eq!(a.gauge("g"), Some(1));
    }

    #[test]
    fn laps_telescope_to_the_total() {
        let mut laps = Laps::start();
        let t0 = laps.started();
        // Sub-microsecond remainders carry into the next lap instead of
        // being dropped: 0.6 + 0.6 + 0.6 µs reads as 0 + 1 + 0.
        let readings = [600, 1_200, 1_800, 2_500_400].map(Duration::from_nanos);
        let laps_taken: Vec<u64> = readings.iter().map(|&at| laps.lap_at(t0 + at)).collect();
        assert_eq!(laps_taken, [0, 1, 0, 2_499]);
        assert_eq!(laps_taken.iter().sum::<u64>(), laps.total());
        assert_eq!(laps.total(), 2_500);

        let mut live = Laps::start();
        let sum: u64 = (0..4).map(|_| live.lap()).sum();
        assert_eq!(sum, live.total());
    }

    #[test]
    fn laps_may_be_empty_and_never_run_backwards() {
        let mut laps = Laps::start();
        assert_eq!(laps.total(), 0);
        let t0 = laps.started();
        assert_eq!(laps.lap_at(t0), 0);
        assert_eq!(laps.lap_at(t0 + Duration::from_micros(7)), 7);
        assert_eq!(laps.lap_at(t0 + Duration::from_micros(7)), 0);
        // An earlier reading is a zero-length lap, not a negative one.
        assert_eq!(laps.lap_at(t0), 0);
        assert_eq!(laps.total(), 7);
    }

    #[test]
    fn lap_micros_saturate_instead_of_panicking() {
        assert_eq!(micros(Duration::MAX), u64::MAX);
        assert_eq!(micros(Duration::from_micros(u64::MAX)), u64::MAX);
        assert_eq!(micros(Duration::from_nanos(1_999)), 1);
    }

    #[test]
    fn shared_handle_is_usable_across_threads() {
        let rt = SharedRuntimeMetrics::new();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let rt = rt.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        rt.inc("hits_total");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(rt.snapshot().counter("hits_total"), 400);
    }
}
