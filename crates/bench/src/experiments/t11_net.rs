//! T11 — sim-vs-net equivalence: the TCP transport reproduces the engine.
//!
//! Claims validated:
//! - for fault-free runs, a localhost TCP cluster (`uba-net`) decides
//!   **identically** to a [`SyncEngine`] run of the same seeded processes —
//!   same outputs, same decision rounds — because the round synchronizer
//!   reproduces the engine's delivery semantics exactly (DESIGN.md §8);
//! - the synchronous-round abstraction is cheap on a real (localhost)
//!   network: barrier-enforced rounds complete in well under a millisecond,
//!   so the model's round counts translate directly into wall-clock time.
//!
//! The equivalence table is deterministic; the latency table reports
//! measured wall-clock numbers and naturally varies between machines (its
//! *shape* — sub-millisecond rounds, growing mildly with `n` — is the
//! reproduction target).

use std::collections::BTreeMap;
use std::time::Duration;

use uba_core::consensus::EarlyConsensus;
use uba_core::reliable::ReliableBroadcast;
use uba_net::{decisions, run_local_cluster, NetConfig, RunSummary, Wire};
use uba_sim::{sparse_ids, NodeId, Process, SyncEngine};
use uba_trace::NoopTracer;

use crate::Table;

/// Transport config for experiment runs: generous timeouts (the claim is
/// about decisions, not deadlines) and a round budget matching the twin.
pub(crate) fn net_config() -> NetConfig {
    NetConfig {
        round_timeout: Duration::from_secs(10),
        setup_timeout: Duration::from_secs(30),
        max_rounds: 200,
        ..NetConfig::default()
    }
}

/// Outcome of one sim-vs-net cell.
struct Cell {
    sim_outputs: BTreeMap<NodeId, String>,
    sim_rounds: u64,
    net_outputs: BTreeMap<NodeId, String>,
    net: RunSummary,
}

impl Cell {
    fn matches(&self) -> bool {
        self.sim_outputs == self.net_outputs && self.sim_rounds == self.net.decided_round
    }
}

/// Runs `factory()`'s processes both ways and compares (outputs rendered
/// via `Debug`, so one table covers heterogeneous output types).
fn run_cell<P, F>(factory: F) -> Cell
where
    P: Process + Send,
    P::Msg: Wire,
    P::Output: Send,
    F: Fn() -> Vec<P>,
{
    let mut engine = SyncEngine::builder().correct_many(factory()).build();
    let sim = engine
        .run_to_completion(200)
        .expect("simulator twin must complete");
    let reports = run_local_cluster(factory(), net_config(), |_| NoopTracer)
        .expect("network run must complete");
    Cell {
        sim_outputs: render(&sim.outputs),
        sim_rounds: sim.decided_round.values().copied().max().unwrap_or(0),
        net_outputs: render(&decisions(&reports)),
        net: RunSummary::of(&reports),
    }
}

/// Outputs rendered via `Debug`, so one comparison covers every algorithm.
pub(crate) fn render<O: std::fmt::Debug>(
    outputs: &BTreeMap<NodeId, O>,
) -> BTreeMap<NodeId, String> {
    outputs
        .iter()
        .map(|(&id, o)| (id, format!("{o:?}")))
        .collect()
}

pub(crate) fn consensus_cluster(seed: u64, n: usize) -> Vec<EarlyConsensus<u64>> {
    let ids = sparse_ids(n, seed);
    ids.iter()
        .enumerate()
        .map(|(i, &id)| EarlyConsensus::new(id, (seed >> (i % 64)) & 1))
        .collect()
}

pub(crate) fn reliable_cluster(seed: u64, n: usize) -> Vec<ReliableBroadcast<u64>> {
    let ids = sparse_ids(n, seed);
    let sender = ids[0];
    ids.iter()
        .map(|&id| {
            let own = (id == sender).then_some(seed);
            ReliableBroadcast::new(id, sender, own).with_horizon(6)
        })
        .collect()
}

/// The deterministic equivalence cells: `(algorithm, n, seed)`.
pub(crate) const CONSENSUS_CELLS: [(usize, u64); 3] = [(4, 42), (4, 7), (7, 1)];
pub(crate) const RELIABLE_CELLS: [(usize, u64); 2] = [(4, 42), (5, 11)];

/// Runs one equivalence cell by name (shared with the tests).
fn run_named(algo: &str, n: usize, seed: u64) -> Cell {
    match algo {
        "consensus" => run_cell(|| consensus_cluster(seed, n)),
        "reliable bcast" => run_cell(|| reliable_cluster(seed, n)),
        other => panic!("unknown T11 algorithm {other:?}"),
    }
}

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
    let cells = CONSENSUS_CELLS
        .iter()
        .map(|&(n, seed)| ("consensus", n, seed))
        .chain(
            RELIABLE_CELLS
                .iter()
                .map(|&(n, seed)| ("reliable bcast", n, seed)),
        );
    for (algo, n, seed) in cells {
        let cell = run_named(algo, n, seed);
        equivalence.row(&[
            algo.to_string(),
            n.to_string(),
            seed.to_string(),
            cell.sim_rounds.to_string(),
            cell.net.decided_round.to_string(),
            if cell.matches() { "match" } else { "MISMATCH" }.to_string(),
        ]);
        latency.row(&[
            algo.to_string(),
            n.to_string(),
            cell.net.decided_round.to_string(),
            cell.net.mean_us.to_string(),
            cell.net.max_us.to_string(),
        ]);
    }
    vec![equivalence, latency]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Locks the equivalence claim only — latency is machine-dependent and
    /// deliberately unasserted.
    #[test]
    fn t11_every_cell_matches_the_engine() {
        for &(n, seed) in &CONSENSUS_CELLS {
            let cell = run_named("consensus", n, seed);
            assert!(
                cell.matches(),
                "consensus n={n} seed={seed}: sim {:?} (round {}) vs net {:?} (round {})",
                cell.sim_outputs,
                cell.sim_rounds,
                cell.net_outputs,
                cell.net.decided_round
            );
        }
        for &(n, seed) in &RELIABLE_CELLS {
            let cell = run_named("reliable bcast", n, seed);
            assert!(cell.matches(), "reliable n={n} seed={seed} diverged");
        }
    }
}
