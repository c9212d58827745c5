//! T13 — WAN fault soaks: the protocols survive deterministic link
//! impairment on real sockets.
//!
//! Claims validated (DESIGN.md §11):
//! - under **zero impairment** link shaping ([`uba_net::wan`]) is
//!   invisible: a cluster whose readers shape every link decides
//!   byte-identically to both the unshaped run and the
//!   [`SyncEngine`](uba_sim::SyncEngine) twin (the T11 claim survives the
//!   shapers);
//! - under the **geo** profile (latency + jitter, no loss) decisions are
//!   *still* engine-identical — latency inside the round budget only
//!   stretches wall-clock, never outcomes;
//! - under the **lossy** and **partition** profiles (T10-class omission
//!   faults, now injected on the wire instead of in the engine) every
//!   member still terminates and the safety monitors' agreement/validity
//!   obligations hold: impairment costs rounds and timeouts, not safety;
//! - a member killed and rejoined over shaped links (T12's drill under
//!   WAN emulation) still converges engine-identically, because the
//!   reborn member shapes its links by the same plan.
//!
//! The fault table is deterministic per seed — drops, severed frames, and
//! decisions are pure functions of the [`LinkPlan`](uba_net::LinkPlan) seed
//! (splitmix64 per directed link and frame index), so the table is a
//! reproduction target, not a flaky soak. Drop/sever counts are
//! wall-clock-adjacent all the same (a slow machine's reconnects could
//! reshuffle the frame indices the loss draws key on), so the cells'
//! obligations in `grid` only require them to be non-zero
//! and `bench-report` commits just the lossy/partition cells' decisions.
//! Wall-clock latency columns vary by machine; their *shape* (geo ≫ clean,
//! partition paying one round-timeout per severed barrier) is the target.

use super::grid::{run_twin, twins, Family};
use crate::Table;

/// Runs experiment T13.
pub fn run() -> Vec<Table> {
    let mut faults = Table::new(
        "T13 — WAN fault soaks: seeded link impairment (shaped links) vs the SyncEngine twin; \
         clean/geo must match the engine, lossy/partition must keep agreement",
        &[
            "profile",
            "algorithm",
            "n",
            "seed",
            "rounds",
            "timeouts",
            "forwarded",
            "dropped",
            "severed",
            "verdict",
        ],
    );
    let mut latency = Table::new(
        "T13 — decision latency under impairment (wall-clock; shape, not numbers, is the target)",
        &["profile", "algorithm", "n", "mean us/round", "max us/round"],
    );
    let mut rejoin = Table::new(
        "T13 — kill/rejoin over shaped links: T12's drill under a zero-impairment plan",
        &["algorithm", "n", "seed", "kill@", "rounds", "decisions"],
    );
    for cell in twins(Family::T13) {
        let run = run_twin(cell);
        let [algo, n, seed] = [
            cell.algo.name().to_string(),
            cell.n.to_string(),
            cell.seed.to_string(),
        ];
        let rounds = run.summary.decided_round.to_string();
        let verdict = cell.verdict(&run).to_string();
        if let Some(kill) = cell.scenario.kill {
            rejoin.row(&[algo, n, seed, kill.at.to_string(), rounds, verdict]);
            continue;
        }
        let wan = cell
            .scenario
            .wan
            .expect("every T13 cell runs under a link plan");
        let profile = wan.name().to_string();
        latency.row(&[
            profile.clone(),
            algo.clone(),
            n.clone(),
            run.summary.mean_us.to_string(),
            run.summary.max_us.to_string(),
        ]);
        faults.row(&[
            profile,
            algo,
            n,
            seed,
            rounds,
            run.summary.timeouts.to_string(),
            run.forwarded.to_string(),
            run.dropped.to_string(),
            run.severed.to_string(),
            verdict,
        ]);
    }
    vec![faults, latency, rejoin]
}
