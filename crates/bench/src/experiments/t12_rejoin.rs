//! T12 — crash-recovery rejoin: a killed node replays its journal and
//! decides as if it never died.
//!
//! Claims validated (DESIGN.md §9):
//! - a cluster member killed at the start of a round and immediately
//!   restarted from its durable round journal rejoins over the
//!   `SyncRequest`/`Backfill` protocol and decides **byte-identically** to
//!   the *uninterrupted* simulator run — the crash is invisible to the
//!   protocol's outcome;
//! - recovery tolerates a torn final journal line (the crash interrupted
//!   the append): the victim resumes one round earlier, re-collects the
//!   missing round from peer backfill, and still converges identically.
//!
//! Every cell runs the configuration twice — the uninterrupted engine and
//! a TCP cluster with a scripted kill — and the two must agree on every
//! output and on every decision round (the `EngineIdentical` duty of
//! `grid`, where the cells live).

use super::grid::{last_round, run_twin, twins, Family};
use crate::Table;

/// Runs experiment T12.
pub fn run() -> Vec<Table> {
    let mut table = Table::new(
        "T12 — crash-recovery rejoin: kill at round start, journal replay + backfill, vs the uninterrupted engine",
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
    for cell in twins(Family::T12) {
        let kill = cell.scenario.kill.expect("every T12 cell kills a member");
        let run = run_twin(cell);
        let sim_rounds = run.engine.as_ref().map_or(0, |e| last_round(&e.outcomes));
        table.row(&[
            cell.algo.name().to_string(),
            cell.n.to_string(),
            cell.seed.to_string(),
            kill.at.to_string(),
            kill.victim_idx.to_string(),
            if kill.torn { "yes" } else { "no" }.to_string(),
            sim_rounds.to_string(),
            run.summary.decided_round.to_string(),
            cell.verdict(&run).to_string(),
        ]);
    }
    vec![table]
}
