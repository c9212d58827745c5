//! # uba-trace — deterministic event tracing and metrics
//!
//! A zero-dependency observability layer for the `uba` engine and its TCP
//! transport. The crate provides five things:
//!
//! 1. **An event vocabulary** ([`TraceEvent`]): round boundaries, sends,
//!    deliveries, duplicate drops, adversary activity, churn, injected
//!    faults, monitor verdicts, per-node algorithm state transitions
//!    ([`NodeSnapshot`]), and transport-level events from real network
//!    transports ([`NetEventKind`]: connects, dial retries, barrier
//!    timeouts, round advances). Node ids are raw `u64`s so the vocabulary
//!    stays below the simulator in the dependency graph.
//! 2. **Tracers** ([`Tracer`]): the no-op default ([`NoopTracer`], free on
//!    the hot path), a bounded ring-buffer collector ([`RingTracer`],
//!    keeping the last *N* events of a long run and rendering them as
//!    JSONL), plus the [`Fanout`] and [`SharedTracer`] combinators used to
//!    wire one event stream into several consumers.
//! 3. **A metrics registry** ([`Metrics`]): counters per event kind and
//!    fixed-bucket [`Histogram`]s (deliveries per round, `n_v` growth,
//!    rounds to decide) folded directly from the event stream.
//! 4. **A durable round journal** ([`RoundJournal`]): an append-only,
//!    fsync-on-commit JSONL record of a networked node's per-round state,
//!    with crash-safe torn-tail recovery — the persistence half of the
//!    `uba-net` crash-recovery rejoin protocol.
//! 5. **A wall-clock runtime registry** ([`RuntimeMetrics`] behind the
//!    thread-safe [`SharedRuntimeMetrics`] handle): monotonic-clock timing
//!    histograms in microseconds plus transport counters and gauges,
//!    rendered in the Prometheus text exposition format. Round drivers time
//!    their phases with one [`Laps`] chain per round, so the phases
//!    partition the round and their microseconds sum to its total.
//!
//! Everything in the **event stream** is deterministic for a fixed seed:
//! events carry no wall-clock timestamps, maps are ordered, and the JSONL
//! encoding uses a fixed key order — two runs of the same seeded experiment
//! produce byte-identical traces, so `diff` localises divergence. The
//! runtime registry is the one deliberate exception: it measures wall-clock
//! time and real transport volume, and for exactly that reason it is **not**
//! a [`Tracer`] and never feeds the event stream — the two registries must
//! never mix (DESIGN.md §10).
//!
//! ## Example
//!
//! ```
//! use uba_trace::{Fanout, Metrics, RingTracer, SharedTracer, TraceEvent, Tracer};
//!
//! // A postmortem window and a metrics registry fed from one stream.
//! let handle = SharedTracer::new(Fanout(RingTracer::new(1024), Metrics::new()));
//! let mut tracer = handle.clone(); // this clone goes to the engine
//!
//! tracer.record(TraceEvent::RoundBegin { round: 1 });
//! tracer.record(TraceEvent::RoundEnd { round: 1, deliveries: 6 });
//!
//! handle.with(|fan| {
//!     assert_eq!(fan.0.len(), 2);
//!     assert_eq!(fan.1.counter("round_end"), 1);
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod journal;
mod json;
mod metrics;
mod runtime;
mod tracer;

pub use event::{NetEventKind, NodeSnapshot, TraceEvent};
pub use journal::{JournalEntry, JournalRecovery, RoundJournal};
pub use json::to_json;
pub use metrics::{Histogram, Metrics};
pub use runtime::{metric_name, Laps, RuntimeMetrics, SharedRuntimeMetrics, TIMING_BUCKETS_US};
pub use tracer::{Fanout, NoopTracer, RingTracer, SharedTracer, Tracer};
