//! # uba-net — a real TCP round-transport for the `uba` protocol stack
//!
//! Runs any [`uba_sim::Process`] — unchanged — over localhost TCP instead
//! of the simulator: the same synchronous-round semantics (messages sent in
//! round `r` delivered at the start of round `r + 1`, per-round
//! `(sender, payload)` duplicate suppression, broadcast self-delivery,
//! sender-id-ordered inboxes), enforced by a **round synchronizer** over
//! length-prefixed frames instead of by a central engine loop.
//!
//! The crate is `std`-only by design (threads + `std::net`, no async
//! runtime), matching the workspace's no-external-dependencies policy.
//!
//! ## Layers
//!
//! * [`wire`] — the [`Wire`] codec trait and the length-prefixed [`Frame`]
//!   transport format (`Hello` handshake, `Data`, `Done` barrier marker);
//! * [`codec`] — `Wire` impls for the `uba-core` protocol payloads, so the
//!   bundled algorithms run over TCP out of the box;
//! * `conn` (private but for [`Server`]) — dialing with retry/backoff, the
//!   one handshake that pins each connection to a sender id, the one
//!   tracked set of jobs that serves every connection in the crate (mesh
//!   links both ways on pooled threads, log clients and metrics scrapes),
//!   the generation-guarded writer table that makes reconnects safe, the
//!   one stoppable accept loop every listener runs, and the teardown that
//!   gives a finished node's or listener's sockets and threads back;
//! * `sync` (private) — the round synchronizer, a pure state machine
//!   enforcing the send/deliver barrier (unit-testable without sockets);
//! * [`node`] — [`NetNode`], one cluster member: a process plus the round
//!   driver — one session per run, one wait loop (`pump`) for mesh setup,
//!   barrier and pace window, one ledger record per peer, one place where
//!   misbehavior is charged — with [`uba_trace`] observability throughout;
//! * [`cluster`] — [`ClusterSpec`], the one harness that starts, runs and
//!   stops a localhost cluster (see *Starting a cluster* below; the
//!   `cluster` binary wraps it on the command line);
//! * [`wan`] — deterministic WAN emulation: a seeded [`LinkPlan`] of
//!   per-link latency/jitter/loss/bandwidth and scheduled partitions, which
//!   a [`LinkShaping`] hands to every member and each connection's reader
//!   applies to its inbound link before the frame reaches the round driver
//!   (a zero-impairment plan is invisible — DESIGN.md §11);
//! * [`service`] — the ordering stack productized as a long-lived,
//!   key-sharded "log as a service": [`ShardedLog`] runs one
//!   [`TotalOrdering`](uba_core::ordering::TotalOrdering) instance whose
//!   records the shards partition by key, sending each round's traffic
//!   for a destination as one bundle, [`serve_clients`] answers the client frames
//!   (`Submit`/`SubmitAck`, `ReadPrefix`/`PrefixChunk`), and
//!   [`spawn_log_cluster`] stands up a whole `logd` cluster (the
//!   `uba-bench` crate's `logd` and `loadgen` binaries wrap it). The
//!   service observes itself through the runtime registry only: its
//!   `logd_*{shard}` families, no trace events (DESIGN.md §12);
//! * [`metrics_http`] — [`serve_metrics`], a tiny Prometheus text-format
//!   exposition endpoint publishing a node's wall-clock
//!   [`SharedRuntimeMetrics`](uba_trace::SharedRuntimeMetrics) registry
//!   (phase timings, per-peer byte/frame counters) to live scrapes — a
//!   member's peer ledger merges its per-peer families once per round, so
//!   a scrape lags the wire by at most one round — and
//!   [`serve_cluster_metrics`], one such endpoint per cluster member on
//!   consecutive ports;
//! * [`byzantine`] — [`ByzantineNode`], a hostile member: a [`NetNode`]
//!   on the same round driver as the honest ones, whose process and
//!   per-round wire hook play a seeded [`AttackPlan`] (the simulator's own
//!   `ConsensusEquivocator`, replay, corruption, floods, stalls, backfill
//!   abuse) — the T15 experiment and the threat model in DESIGN.md §13
//!   build on it.
//!
//! ## Starting a cluster
//!
//! There is one way: fill in a [`ClusterSpec`] and call
//! [`run`](ClusterSpec::run) (or [`spawn`](ClusterSpec::spawn), then
//! [`join`](RunningCluster::join) later — what [`spawn_log_cluster`] does).
//! Its three options are orthogonal and all off by default:
//!
//! * `wan` — shape every member's links by one [`LinkShaping`];
//! * `kill` — the crash-recovery drill: durable journals, one scripted
//!   crash, rejoin over the backfill protocol ([`KillSpec`]);
//! * `hostile` — [`ByzantineNode`]s beside the honest members, on the
//!   same round driver, leaving with the cluster.
//!
//! The result is one [`ClusterRun`]: the honest members' reports, the
//! links' shaping events, the hostile members' summaries. The harness binds
//! every listener before any thread starts, guards every member thread
//! against panics ([`NetError::MemberPanicked`]), and holds no descriptor
//! or thread once `run` returns: every node tears its own mesh down
//! however its run ends (DESIGN.md §8 gives the order).
//! [`run_local_cluster`] and [`run_local_cluster_with_metrics`] are the
//! default spec spelled as functions.
//!
//! ## Timeouts are omissions
//!
//! A real network cannot guarantee the synchronous model's delivery bound,
//! so the transport *imposes* one: a peer that misses the round barrier
//! deadline is treated as silent for that round, and its late frames are
//! dropped. Both effects are **omission faults**, which the paper's
//! Byzantine fault model already subsumes — a mistimed timeout can cost
//! liveness (more rounds) but never safety, so the agreement checks the
//! harnesses run on a cluster's decisions apply to networked runs
//! unchanged. DESIGN.md §8 develops this mapping.
//!
//! ## Equivalence with the simulator
//!
//! For a fault-free cluster, a networked run is not merely "similar" to a
//! [`SyncEngine`](uba_sim::SyncEngine) run of the same processes — it
//! delivers byte-identical inboxes in the same order, so decisions match
//! exactly. The `tests/equivalence.rs` suite and the T11 experiment
//! (`cargo bench-bin -- run t11`, see EXPERIMENTS.md) hold this property
//! under seed randomization, and the `cluster` binary re-checks it on
//! every invocation against an in-process twin run.
//!
//! ## Example
//!
//! ```no_run
//! use uba_core::consensus::EarlyConsensus;
//! use uba_net::{decisions, run_local_cluster, NetConfig};
//! use uba_sim::sparse_ids;
//! use uba_trace::NoopTracer;
//!
//! // Four nodes agree over real sockets, no node knowing n or f.
//! let ids = sparse_ids(4, 7);
//! let members = ids.iter().enumerate().map(|(i, &id)| {
//!     EarlyConsensus::new(id, (i % 2) as u64)
//! });
//! let reports = run_local_cluster(members, NetConfig::default(), |_| NoopTracer)?;
//! let decided = decisions(&reports);
//! assert_eq!(decided.len(), 4, "every member decided");
//! # Ok::<(), uba_net::NetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod byzantine;
pub mod cluster;
pub mod codec;
mod conn;
pub mod metrics_http;
pub mod node;
pub mod service;
mod sync;
pub mod wan;
pub mod wire;

pub use byzantine::{AttackKind, AttackPlan, ByzReport, ByzantineNode};
pub use cluster::{
    decisions, run_local_cluster, run_local_cluster_with_metrics, ClusterRun, ClusterSpec,
    KillSpec, RunSummary, RunningCluster,
};
pub use conn::Server;
pub use metrics_http::{
    consecutive_endpoints, family_sum, scrape_metrics, series_value, serve_cluster_metrics,
    serve_metrics, ClusterMetrics,
};
pub use node::{NetConfig, NetError, NetNode, NetReport, MAX_BYTES_PER_ROUND, STRIKE_LIMIT};
pub use service::{
    check_exactly_once, closed_loop, serve_clients, service_horizon, shard_of, spawn_log_cluster,
    Batch, LogClient, LogCluster, LogIngress, PrefixPage, Record, ShardedLog,
};
pub use wan::{LinkPlan, LinkShaping, LinkSpec};
pub use wire::{read_frame, write_frame, Frame, FrameFault, Wire, MAX_FRAME};
