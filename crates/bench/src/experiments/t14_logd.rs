//! T14 — log-service throughput: the ordering stack productized as a
//! key-sharded "log as a service" (DESIGN.md §12), at two shard counts.
//!
//! Claims validated:
//! - a ≥3-node `logd` cluster under real-TCP client load orders **every
//!   acked submission exactly once**, in the shard the ack named, with
//!   **identical per-shard prefixes on every node** — the service-level
//!   restatement of the paper's agreement property;
//! - the shard count changes where a record lands, not how it is ordered:
//!   each member runs one instance and seals one batch per round whatever
//!   the shard count, so both cells order every record in the same rounds
//!   and throughput does not depend on the shard count;
//! - the per-shard service metric families (`logd_submits_total{shard=..}`,
//!   `logd_batches_total{shard=..}`, ...) land in the same runtime
//!   registries the Prometheus endpoints expose.
//!
//! Protocol facts (submitted/acked/ordered counts, agreement, exactly-once)
//! are deterministic reproduction targets and `bench-report` commits them;
//! wall-clock ack latencies and per-record costs vary by machine and are
//! only reported, in the second table. The two cells are registered in
//! `grid::GRID`; the runner is this module's own — a
//! log cluster under client load is a different shape from a sim/net twin.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::thread;
use std::time::{Duration, Instant};

use uba_net::{check_exactly_once, closed_loop, spawn_log_cluster, NetConfig, Record};
use uba_sim::sparse_ids;
use uba_trace::{NoopTracer, SharedRuntimeMetrics};

use super::grid::{Cell, GRID};
use crate::Table;

/// One service cell: a cluster shape under a fixed closed-loop load.
pub(crate) struct LogSpec {
    pub n: usize,
    pub shards: u32,
    pub seed: u64,
    /// Closed-loop submissions, spread over one client per node.
    pub submissions: usize,
}

impl LogSpec {
    pub(crate) fn name(&self) -> String {
        format!(
            "t14-logd-n{}-shards{}-seed{}",
            self.n, self.shards, self.seed
        )
    }
}

/// The service cells of the grid, in grid order.
fn cells() -> impl Iterator<Item = &'static LogSpec> {
    GRID.iter().filter_map(|cell| match cell {
        Cell::Logd(spec) => Some(spec),
        Cell::Twin(_) => None,
    })
}

/// Outcome of one service cell.
pub(crate) struct LogCell {
    /// Submissions attempted by the load.
    pub submitted: u64,
    /// Submissions the service acked (its promise).
    pub acked: u64,
    /// Records in the finalized per-shard prefixes, summed.
    pub ordered: u64,
    /// Every member finalized identical per-shard prefixes.
    pub agreement: bool,
    /// Every acked submission appears exactly once, in the acked shard.
    pub exactly_once: bool,
    /// Rounds to seal, max across members.
    pub rounds: u64,
    /// Wall-clock of the submission phase, microseconds.
    pub load_micros: u64,
    /// Wall-clock from spawn to seal, microseconds.
    pub run_micros: u64,
    /// Ack round-trip mean / p99 microseconds.
    pub ack_mean_us: u64,
    pub ack_p99_us: u64,
    /// Batches sealed across nodes and shards (from the runtime metrics).
    pub batches: u64,
    /// The rendered Prometheus exposition of one member's registry.
    pub exposition: String,
}

impl LogCell {
    /// Ordered records per second of total run time (throughput).
    pub(crate) fn records_per_sec(&self) -> u64 {
        if self.run_micros == 0 {
            return 0;
        }
        self.ordered * 1_000_000 / self.run_micros
    }

    /// Microseconds of run time per ordered record.
    pub(crate) fn micros_per_record(&self) -> u64 {
        if self.ordered == 0 {
            return 0;
        }
        self.run_micros / self.ordered
    }

    /// The service's obligation, stated once for the verdict column and
    /// the lock test: everything submitted was acked, everything acked was
    /// ordered exactly once in its shard, every node finalized identical
    /// prefixes, and the per-shard service families show up in the same
    /// registries the Prometheus endpoints serve. `Err` says what broke.
    pub(crate) fn judge(&self) -> Result<(), String> {
        if !self.agreement {
            return Err("members finalized divergent prefixes".into());
        }
        if !self.exactly_once {
            return Err("exactly-once violated".into());
        }
        if self.acked != self.submitted {
            return Err(format!(
                "the ingest window closed under the load: acked {} of {}",
                self.acked, self.submitted
            ));
        }
        if self.ordered != self.acked {
            return Err(format!(
                "ordered {} records != acked {} submissions",
                self.ordered, self.acked
            ));
        }
        for family in [
            "logd_submits_total",
            "logd_batches_total",
            "logd_batch_records_total",
            "logd_prefix_records",
        ] {
            if !self
                .exposition
                .contains(&format!("{family}{{shard=\"0\"}}"))
            {
                return Err(format!(
                    "family {family} missing a per-shard series:\n{}",
                    self.exposition
                ));
            }
        }
        Ok(())
    }
}

/// Ingest window in rounds: generous against the closed-loop load so every
/// submission is acked even on a slow CI machine — the submitted/acked
/// counts are *exact* reproduction targets, not best-effort.
const INGEST_ROUNDS: u64 = 80;

fn service_config() -> NetConfig {
    NetConfig {
        round_timeout: Duration::from_secs(10),
        setup_timeout: Duration::from_secs(30),
        max_rounds: 2_000,
        round_pace: Duration::from_millis(15),
        ..NetConfig::default()
    }
}

/// Runs one cell: spawn the cluster, drive it closed-loop over real TCP
/// with one client thread per node, read back and cross-check.
pub(crate) fn run_log(spec: &LogSpec) -> LogCell {
    let ids = sparse_ids(spec.n, spec.seed);
    let registries: BTreeMap<_, _> = ids
        .iter()
        .map(|&id| (id, SharedRuntimeMetrics::new()))
        .collect();
    let started = Instant::now();
    let mut cluster = spawn_log_cluster(
        &ids,
        spec.shards,
        INGEST_ROUNDS,
        service_config(),
        |_| NoopTracer,
        |id| registries.get(&id).cloned(),
    )
    .expect("service cluster spawns");

    // Closed-loop load: one client per node, each submitting its share as
    // fast as the acks return.
    let addrs: Vec<_> = cluster.client_addrs().values().copied().collect();
    let quota = spec.submissions.div_ceil(addrs.len());
    let stop = &AtomicBool::new(false);
    let load_started = Instant::now();
    let mut acked = Vec::new();
    let mut latencies = Vec::new();
    thread::scope(|scope| {
        let client = |(c, &addr)| scope.spawn(move || closed_loop(addr, c, quota, 48, None, stop));
        let workers: Vec<_> = addrs.iter().enumerate().map(client).collect();
        for worker in workers {
            let (a, l) = worker.join().expect("client thread").expect("client I/O");
            acked.extend(a);
            latencies.extend(l);
        }
    });
    let load_micros = load_started.elapsed().as_micros() as u64;

    let reports = cluster.join_ordering().expect("ordering completes");
    let run_micros = started.elapsed().as_micros() as u64;
    cluster.shutdown();

    // Agreement across members' outputs.
    let outputs: Vec<_> = reports.values().map(|r| r.output.clone()).collect();
    let agreement = outputs.iter().all(|o| o.is_some() && o == &outputs[0]);
    let prefixes: Vec<Vec<Record>> = outputs[0].clone().unwrap_or_default();
    let ordered: u64 = prefixes.iter().map(|p| p.len() as u64).sum();

    let exactly_once = check_exactly_once(&acked, &prefixes, spec.shards).is_ok();

    latencies.sort_unstable();
    let ack_mean_us = latencies
        .iter()
        .sum::<u64>()
        .checked_div(latencies.len() as u64)
        .unwrap_or(0);
    let ack_p99_us = latencies
        .get(((latencies.len().saturating_sub(1)) as f64 * 0.99).round() as usize)
        .copied()
        .unwrap_or(0);

    let batches = registries
        .values()
        .map(|r| r.snapshot().family_sum("logd_batches_total"))
        .sum();
    let exposition = registries
        .values()
        .next()
        .map(|r| r.render_prometheus())
        .unwrap_or_default();

    LogCell {
        submitted: (quota * addrs.len()) as u64,
        acked: acked.len() as u64,
        ordered,
        agreement,
        exactly_once,
        rounds: reports.values().map(|r| r.rounds).max().unwrap_or(0),
        load_micros,
        run_micros,
        ack_mean_us,
        ack_p99_us,
        batches,
        exposition,
    }
}

/// Runs experiment T14.
pub fn run() -> Vec<Table> {
    let mut service = Table::new(
        "T14 — log service: 3-node logd cluster under closed-loop TCP load; every acked \
         submission ordered exactly once, identical shard prefixes on every node",
        &[
            "n",
            "shards",
            "seed",
            "submitted",
            "acked",
            "ordered",
            "rounds",
            "batches",
            "verdict",
        ],
    );
    let mut perf = Table::new(
        "T14 — throughput/latency vs shard count (wall-clock; shape, not numbers, is the \
         target: per-round capacity scales with shards)",
        &[
            "shards",
            "records/s",
            "us/record",
            "ack mean us",
            "ack p99 us",
            "load ms",
            "run ms",
        ],
    );
    for spec in cells() {
        let cell = run_log(spec);
        let verdict = cell.judge().map_or("VIOLATION", |()| "exactly-once");
        service.row(&[
            spec.n.to_string(),
            spec.shards.to_string(),
            spec.seed.to_string(),
            cell.submitted.to_string(),
            cell.acked.to_string(),
            cell.ordered.to_string(),
            cell.rounds.to_string(),
            cell.batches.to_string(),
            verdict.to_string(),
        ]);
        perf.row(&[
            spec.shards.to_string(),
            cell.records_per_sec().to_string(),
            cell.micros_per_record().to_string(),
            cell.ack_mean_us.to_string(),
            cell.ack_p99_us.to_string(),
            (cell.load_micros / 1_000).to_string(),
            (cell.run_micros / 1_000).to_string(),
        ]);
    }
    vec![service, perf]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Locks the service's promise and the observability claim at both
    /// shard counts, one cluster run per cell.
    #[test]
    fn t14_every_cell_orders_exactly_once_with_agreement() {
        for spec in cells() {
            if let Err(why) = run_log(spec).judge() {
                panic!("{}: {why}", spec.name());
            }
        }
    }
}
