//! T11 — sim-vs-net equivalence: the TCP transport reproduces the engine.
//!
//! Claims validated:
//! - for fault-free runs, a localhost TCP cluster (`uba-net`) decides
//!   **identically** to a [`SyncEngine`](uba_sim::SyncEngine) run of the
//!   same seeded processes — same outputs, same decision rounds — because
//!   the round synchronizer reproduces the engine's delivery semantics
//!   exactly (DESIGN.md §8);
//! - the synchronous-round abstraction is cheap on a real (localhost)
//!   network: barrier-enforced rounds complete in well under a millisecond,
//!   so the model's round counts translate directly into wall-clock time.
//!
//! The equivalence table is deterministic; the latency table reports
//! measured wall-clock numbers and naturally varies between machines (its
//! *shape* — sub-millisecond rounds, growing mildly with `n` — is the
//! reproduction target). The cells, the runner and the obligation live in
//! `grid`.

use super::grid::{last_round, run_twin, twins, Family};
use crate::Table;

/// Runs experiment T11.
pub fn run() -> Vec<Table> {
    let mut equivalence = Table::new(
        "T11 — sim-vs-net equivalence: localhost TCP cluster vs SyncEngine, same seeded processes",
        &[
            "algorithm",
            "n",
            "seed",
            "sim rounds",
            "net rounds",
            "decisions",
        ],
    );
    let mut latency = Table::new(
        "T11 — measured localhost round latency (wall-clock; shape, not numbers, is the target)",
        &["algorithm", "n", "rounds", "mean us/round", "max us/round"],
    );
    for cell in twins(Family::T11) {
        let run = run_twin(cell);
        let sim_rounds = run.engine.as_ref().map_or(0, |e| last_round(&e.outcomes));
        equivalence.row(&[
            cell.algo.name().to_string(),
            cell.n.to_string(),
            cell.seed.to_string(),
            sim_rounds.to_string(),
            run.summary.decided_round.to_string(),
            cell.verdict(&run).to_string(),
        ]);
        latency.row(&[
            cell.algo.name().to_string(),
            cell.n.to_string(),
            run.summary.decided_round.to_string(),
            run.summary.mean_us.to_string(),
            run.summary.max_us.to_string(),
        ]);
    }
    vec![equivalence, latency]
}
