//! T12 — crash-recovery rejoin: a killed node replays its journal and
//! decides as if it never died.
//!
//! Claims validated (DESIGN.md §9):
//! - a cluster member killed at the start of a round and immediately
//!   restarted from its durable round journal rejoins over the
//!   `SyncRequest`/`Backfill` protocol and decides **byte-identically** to
//!   the *uninterrupted* simulator run — the crash is invisible to the
//!   protocol's outcome;
//! - the simulator's churn-schedule `Restart` action is a faithful twin of
//!   that rejoin: replaying a fresh process through the recorded inbox
//!   history reproduces the same outputs and decision rounds;
//! - recovery tolerates a torn final journal line (the crash interrupted
//!   the append): the victim resumes one round earlier, re-collects the
//!   missing round from peer backfill, and still converges identically.
//!
//! Every cell runs the configuration three ways — plain engine, engine
//! with a scripted `Restart`, TCP cluster with a scripted kill — and all
//! three must agree on every output and on the last decision round.

use std::collections::BTreeMap;
use std::time::Duration;

use uba_net::{decisions, ClusterSpec, KillSpec, RunSummary, Wire};
use uba_sim::{ChurnSchedule, NodeId, Process, SyncEngine};
use uba_trace::NoopTracer;

use crate::experiments::t11_net::{consensus_cluster, net_config, reliable_cluster, render};
use crate::Table;

/// One rejoin cell: which algorithm, how big, who dies when, and whether
/// the journal's final line is torn before recovery.
struct CellSpec {
    algo: &'static str,
    n: usize,
    seed: u64,
    kill_at: u64,
    victim_idx: usize,
    torn: bool,
}

/// The deterministic rejoin cells. Kill rounds precede every decision
/// round, so the crash always actually happens; the torn cell needs
/// `kill_at ≥ 3` so at least one journal entry survives the tear.
const CELLS: [CellSpec; 4] = [
    CellSpec {
        algo: "consensus",
        n: 4,
        seed: 42,
        kill_at: 3,
        victim_idx: 0,
        torn: false,
    },
    CellSpec {
        algo: "consensus",
        n: 7,
        seed: 1,
        kill_at: 3,
        victim_idx: 2,
        torn: false,
    },
    CellSpec {
        algo: "reliable bcast",
        n: 5,
        seed: 11,
        kill_at: 2,
        victim_idx: 1,
        torn: false,
    },
    CellSpec {
        algo: "consensus",
        n: 4,
        seed: 42,
        kill_at: 3,
        victim_idx: 0,
        torn: true,
    },
];

/// Outcome of one cell: the three executions' outputs and last decision
/// rounds, rendered via `Debug` so one table covers both algorithms.
struct Cell {
    reference_outputs: BTreeMap<NodeId, String>,
    reference_rounds: u64,
    restart_outputs: BTreeMap<NodeId, String>,
    restart_rounds: u64,
    net_outputs: BTreeMap<NodeId, String>,
    net_rounds: u64,
}

impl Cell {
    fn matches(&self) -> bool {
        self.reference_outputs == self.restart_outputs
            && self.reference_outputs == self.net_outputs
            && self.reference_rounds == self.restart_rounds
            && self.reference_rounds == self.net_rounds
    }
}

/// Runs one cell's three executions over `factory()`'s processes.
fn run_cell<P, F>(spec: &CellSpec, tag: usize, factory: F) -> Cell
where
    P: Process + Send,
    P::Msg: Wire,
    P::Output: Send,
    F: Fn() -> Vec<P>,
{
    let ids: Vec<NodeId> = factory().iter().map(|p| p.id()).collect();
    let victim = ids[spec.victim_idx];

    // 1. The uninterrupted engine run: the reference execution.
    let mut engine = SyncEngine::builder().correct_many(factory()).build();
    let reference = engine
        .run_to_completion(200)
        .expect("reference twin must complete");

    // 2. The engine with the same crash scripted as a churn `Restart`.
    let fresh = || factory().swap_remove(spec.victim_idx);
    let mut churn = ChurnSchedule::new();
    churn.restart(spec.kill_at, fresh());
    let mut engine = SyncEngine::builder()
        .correct_many(factory())
        .churn(churn)
        .build();
    let restarted = engine
        .run_to_completion(200)
        .expect("restart twin must complete");

    // 3. The TCP cluster with the kill for real: journals on disk, victim
    // killed at the round start, restarted immediately, rejoined via
    // backfill. The journal directory is per-process and per-cell, and
    // removed afterwards.
    let journal_dir =
        std::env::temp_dir().join(format!("uba-t12-{}-cell{tag}", std::process::id()));
    let drill = ClusterSpec {
        kill: Some(KillSpec {
            victim,
            reborn: fresh(),
            kill_at: spec.kill_at,
            restart_delay: Duration::ZERO,
            journal_dir: journal_dir.clone(),
            tear_journal: spec.torn,
        }),
        ..ClusterSpec::default()
    };
    let reports = drill
        .run(factory(), net_config(), |_| NoopTracer, |_| None)
        .expect("network run must complete")
        .reports;
    let _ = std::fs::remove_dir_all(&journal_dir);
    let net = decisions(&reports);

    Cell {
        reference_outputs: render(&reference.outputs),
        reference_rounds: reference.decided_round.values().copied().max().unwrap_or(0),
        restart_outputs: render(&restarted.outputs),
        restart_rounds: restarted.decided_round.values().copied().max().unwrap_or(0),
        net_outputs: render(&net),
        net_rounds: RunSummary::of(&reports).decided_round,
    }
}

/// Runs one cell by index (shared with the tests).
fn run_indexed(tag: usize, spec: &CellSpec) -> Cell {
    match spec.algo {
        "consensus" => run_cell(spec, tag, || consensus_cluster(spec.seed, spec.n)),
        "reliable bcast" => run_cell(spec, tag, || reliable_cluster(spec.seed, spec.n)),
        other => panic!("unknown T12 algorithm {other:?}"),
    }
}

/// Runs experiment T12.
pub fn run() -> Vec<Table> {
    let mut table = Table::new(
        "T12 — crash-recovery rejoin: kill at round start, journal replay + backfill, vs the uninterrupted engine and the churn-Restart engine",
        &[
            "algorithm",
            "n",
            "seed",
            "kill@",
            "victim",
            "torn tail",
            "sim rounds",
            "net rounds",
            "decisions",
        ],
    );
    for (tag, spec) in CELLS.iter().enumerate() {
        let cell = run_indexed(tag, spec);
        table.row(&[
            spec.algo.to_string(),
            spec.n.to_string(),
            spec.seed.to_string(),
            spec.kill_at.to_string(),
            spec.victim_idx.to_string(),
            if spec.torn { "yes" } else { "no" }.to_string(),
            cell.reference_rounds.to_string(),
            cell.net_rounds.to_string(),
            if cell.matches() { "match" } else { "MISMATCH" }.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Locks the three-way equivalence: uninterrupted engine, churn-Restart
    /// engine, and killed-and-rejoined cluster all decide identically.
    #[test]
    fn t12_every_cell_survives_the_kill_identically() {
        for (tag, spec) in CELLS.iter().enumerate() {
            let cell = run_indexed(tag, spec);
            assert!(
                cell.matches(),
                "{} n={} seed={} kill@{} torn={}: reference {:?} (round {}) vs \
                 restart-sim {:?} (round {}) vs net {:?} (round {})",
                spec.algo,
                spec.n,
                spec.seed,
                spec.kill_at,
                spec.torn,
                cell.reference_outputs,
                cell.reference_rounds,
                cell.restart_outputs,
                cell.restart_rounds,
                cell.net_outputs,
                cell.net_rounds
            );
        }
    }
}
