//! T15 — Byzantine members on the real wire: scripted hostile peers
//! against hardened honest nodes.
//!
//! Claims validated (DESIGN.md §13):
//! - under **equivocation** (the simulator's own
//!   [`ConsensusEquivocator`](uba_adversary::attacks::ConsensusEquivocator),
//!   run by the hostile member on the wire) the honest members of a mixed cluster decide **byte-identically** to a
//!   [`SyncEngine`](uba_sim::SyncEngine) run with the same seeded
//!   population and the same adversary — model-allowed lying is absorbed
//!   by `n > 3f`, with zero strikes and zero evictions;
//! - **detectable wire malice** (stale-round replay, corrupt frames,
//!   oversize length prefixes, floods past the ingress quota, backfill
//!   abuse) is attributed per peer, striked, and escalated to
//!   disconnect-and-ignore, after which the honest remainder still agrees;
//! - **silence is never malice**: a stalling hostile peer costs barrier
//!   timeouts and an omission give-up (`peer_gone`), never a strike or an
//!   eviction — the attribution split the verdict table locks;
//! - a flooding or stalling member delays honest progress by at most the
//!   configured omission budget before the cluster routes around it.
//!
//! Agreement verdicts, the equivocation cell's sim-identity and the
//! eviction ledgers the threat model pins (none for lying and silence, one
//! per honest member for the flood) are seed-deterministic reproduction
//! targets and `bench-report` commits them; strike and timeout totals are
//! timing-dependent (a slow machine can reshuffle how many violating frames
//! land before the eviction cuts the link), so the cells' obligations in
//! `grid` bound them and this table reports them.

use super::grid::{run_twin, twins, Extra, Family};
use crate::Table;

/// What the threat model says the defense should do with a script, read
/// off the cell's obligation: evict it (wire-detectable malice), charge it
/// as an omission (silence), or tolerate it (model-allowed lying).
fn discipline(extras: &[Extra]) -> &'static str {
    if extras.contains(&Extra::Evicted) || extras.contains(&Extra::EvictedByAll) {
        "evict"
    } else if extras.contains(&Extra::Timeouts) {
        "omission"
    } else {
        "tolerate"
    }
}

/// Runs experiment T15.
pub fn run() -> Vec<Table> {
    let mut verdicts = Table::new(
        "T15 — Byzantine members on the wire: per-attack honest agreement, with \
         malice (strikes/evictions) attributed separately from omission (timeouts)",
        &[
            "attack",
            "n",
            "f",
            "seed",
            "rounds",
            "strikes",
            "evictions",
            "timeouts",
            "discipline",
            "verdict",
        ],
    );
    let mut latency = Table::new(
        "T15 — honest wall-clock under attack (shape, not numbers, is the target)",
        &[
            "attack",
            "n",
            "f",
            "byz frames",
            "mean us/round",
            "max us/round",
        ],
    );
    for cell in twins(Family::T15) {
        let hostile = cell.scenario.hostile.expect("every T15 cell is attacked");
        let run = run_twin(cell);
        let [attack, n, f] = [
            hostile.attack.to_string(),
            (cell.n + hostile.f).to_string(),
            hostile.f.to_string(),
        ];
        verdicts.row(&[
            attack.clone(),
            n.clone(),
            f.clone(),
            cell.seed.to_string(),
            run.summary.decided_round.to_string(),
            run.strikes.to_string(),
            run.summary.evictions.to_string(),
            run.summary.timeouts.to_string(),
            discipline(cell.extras).to_string(),
            cell.verdict(&run).to_string(),
        ]);
        latency.row(&[
            attack,
            n,
            f,
            run.byz_frames.to_string(),
            run.summary.mean_us.to_string(),
            run.summary.max_us.to_string(),
        ]);
    }
    vec![verdicts, latency]
}
