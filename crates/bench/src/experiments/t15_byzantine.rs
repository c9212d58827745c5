//! T15 — Byzantine members on the real wire: scripted hostile peers
//! against hardened honest nodes.
//!
//! Claims validated (DESIGN.md §13):
//! - under **rushing equivocation** (the wire twin of
//!   [`ConsensusEquivocator`]) the honest members of a mixed cluster decide
//!   **byte-identically** to a [`SyncEngine`] run with the same seeded
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
//! Agreement verdicts, eviction ledgers, and the equivocation cell's
//! sim-identity are seed-deterministic reproduction targets; misbehavior
//! strike totals and wall-clock columns ride in `bench-report`'s
//! tolerance-checked measured fields.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use uba_adversary::attacks::ConsensusEquivocator;
use uba_core::consensus::EarlyConsensus;
use uba_core::harness::Setup;
use uba_net::{AttackKind, AttackPlan, ClusterSpec, NetConfig, RunSummary};
use uba_sim::{NodeId, SyncEngine};
use uba_trace::{NoopTracer, SharedRuntimeMetrics};

use crate::experiments::t11_net::net_config;
use crate::Table;

/// One adversarial cell: which attack script, over which population.
pub(crate) struct CellSpec {
    pub attack: &'static str,
    pub n_correct: usize,
    pub f: usize,
    pub seed: u64,
}

/// The deterministic attack grid: every script in the wire adversary's
/// vocabulary. The equivocation cell uses the classic `n = 3f + 1` tight
/// population; the single-attacker cells keep the honest majority ample so
/// the verdict isolates attribution, not resilience margins.
pub(crate) const CELLS: [CellSpec; 7] = [
    CellSpec {
        attack: "equivocate",
        n_correct: 5,
        f: 2,
        seed: 42,
    },
    CellSpec {
        attack: "replay",
        n_correct: 4,
        f: 1,
        seed: 42,
    },
    CellSpec {
        attack: "corrupt",
        n_correct: 4,
        f: 1,
        seed: 42,
    },
    CellSpec {
        attack: "oversize",
        n_correct: 4,
        f: 1,
        seed: 42,
    },
    CellSpec {
        attack: "flood",
        n_correct: 4,
        f: 1,
        seed: 42,
    },
    CellSpec {
        attack: "stall",
        n_correct: 4,
        f: 1,
        seed: 42,
    },
    CellSpec {
        attack: "backfill-spam",
        n_correct: 4,
        f: 1,
        seed: 42,
    },
];

/// Outcome of one adversarial cell.
pub(crate) struct ByzCell {
    /// Honest outputs, rendered via `Debug`, with decision rounds.
    net_outcomes: BTreeMap<NodeId, (String, u64)>,
    /// The sim twin's outcomes (equivocation cell only).
    sim_outcomes: Option<BTreeMap<NodeId, (String, u64)>>,
    /// Honest members that produced an output.
    pub decided: u64,
    /// Last honest decision round.
    pub rounds: u64,
    /// Evictions summed across honest members (malice verdicts).
    pub evictions: u64,
    /// Barrier timeouts summed across honest members (omission verdicts).
    pub timeouts: u64,
    /// `net_misbehavior_total` strikes summed over all kinds and peers.
    pub misbehavior: u64,
    /// Frames (incl. raw poison writes) the hostile members sent.
    pub byz_frames: u64,
    /// Mean / max per-round wall-clock microseconds across honest members.
    pub mean_us: u64,
    pub max_us: u64,
}

impl ByzCell {
    /// Safety obligation: every honest member decided, on one value.
    pub(crate) fn agreement(&self) -> bool {
        self.decided == self.net_outcomes.len() as u64
            && self
                .net_outcomes
                .values()
                .map(|(out, _)| out)
                .collect::<BTreeSet<_>>()
                .len()
                <= 1
    }

    /// Equivocation-cell obligation: the wire run reproduced the engine
    /// twin exactly — same outputs, same decision rounds, per member.
    pub(crate) fn matches_sim(&self) -> bool {
        self.sim_outcomes.as_ref() == Some(&self.net_outcomes)
    }
}

/// Transport config per attack: the base experiment config, tightened
/// where the script needs a specific defense to trip deterministically.
///
/// The equivocation cell keeps the generous T11 deadlines — the attacker
/// stays in lockstep there, so nothing ever waits. Every evicting script
/// instead shortens the omission budget: once the victim cuts the hostile
/// link, the attacker lags behind the cluster and each honest barrier
/// eats a full `round_timeout` waiting for its `Done` until the give-up
/// writes it off, so the budget *is* the cell's wall-clock.
fn config_for(attack: &str) -> NetConfig {
    let evicting = NetConfig {
        round_timeout: Duration::from_millis(500),
        give_up_after: 3,
        ..net_config()
    };
    match attack {
        "equivocate" => net_config(),
        // The flood script sends 256 frames per round; a 16-frame quota
        // guarantees the third strike (and the eviction) lands inside the
        // first flooded round.
        "flood" => NetConfig {
            max_frames_per_round: 16,
            ..evicting
        },
        // Replays of round 1 stay benignly "late" while the round window
        // covers them; a 2-round window makes them stale (and striked)
        // from round 4 on.
        "replay" => NetConfig {
            history_rounds: 2,
            ..evicting
        },
        // The staller never trips a strike, only the omission budget: a
        // short deadline and give-up keep the cell fast while proving the
        // delay is bounded by `round_timeout * give_up_after`.
        "stall" => NetConfig {
            round_timeout: Duration::from_millis(300),
            give_up_after: 2,
            ..net_config()
        },
        _ => evicting,
    }
}

/// The honest processes of one cell: `EarlyConsensus` over the correct
/// half of the seeded population, inputs alternating 0/1 — exactly the
/// simulator-side equivocation harness, so the sim twin is comparable.
fn honest_members(setup: &Setup) -> Vec<EarlyConsensus<u64>> {
    setup
        .correct
        .iter()
        .enumerate()
        .map(|(i, &id)| EarlyConsensus::new(id, (i % 2) as u64))
        .collect()
}

/// Runs one adversarial cell: the mixed honest/hostile cluster, plus the
/// engine twin where the attack has a simulator counterpart.
pub(crate) fn run_spec(spec: &CellSpec) -> ByzCell {
    let setup = Setup::new(spec.n_correct, spec.f, spec.seed);
    let kind = AttackKind::parse(spec.attack)
        .unwrap_or_else(|| panic!("unknown T15 attack {:?}", spec.attack));

    let sim_outcomes = (spec.attack == "equivocate").then(|| {
        let mut engine = SyncEngine::builder()
            .correct_many(honest_members(&setup))
            .faulty_many(setup.faulty.iter().copied())
            .adversary(ConsensusEquivocator::new(0u64, 1u64))
            .build();
        let done = engine
            .run_to_completion(400)
            .expect("engine twin must terminate under equivocation");
        done.outputs
            .iter()
            .map(|(&id, out)| {
                let round = done.decided_round.get(&id).copied().unwrap_or(0);
                (id, (format!("{out:?}"), round))
            })
            .collect::<BTreeMap<_, _>>()
    });

    let registry = SharedRuntimeMetrics::new();
    let attacked = ClusterSpec {
        hostile: Some(AttackPlan::new(
            spec.seed,
            kind,
            setup.faulty.iter().copied(),
        )),
        ..ClusterSpec::default()
    };
    let run = attacked
        .run(
            honest_members(&setup),
            config_for(spec.attack),
            |_| NoopTracer,
            |_| Some(registry.clone()),
        )
        .expect("honest members must survive the attack");

    let summary = RunSummary::of(&run.reports);
    ByzCell {
        decided: run.reports.values().filter(|r| r.output.is_some()).count() as u64,
        rounds: summary.decided_round,
        evictions: summary.evictions,
        timeouts: summary.timeouts,
        misbehavior: registry.snapshot().family_sum("net_misbehavior_total"),
        byz_frames: run.byzantine.values().map(|r| r.frames_sent).sum(),
        mean_us: summary.mean_us,
        max_us: summary.max_us,
        net_outcomes: run
            .reports
            .iter()
            .filter_map(|(&id, r)| {
                let out = r.output.as_ref()?;
                Some((id, (format!("{out:?}"), r.decided_round.unwrap_or(0))))
            })
            .collect(),
        sim_outcomes,
    }
}

/// What the threat model says the defense should do with this script:
/// tolerate it (model-allowed lying), evict it (wire-detectable malice),
/// or charge it as an omission (silence).
fn expected_discipline(attack: &str) -> &'static str {
    match attack {
        "equivocate" => "tolerate",
        "stall" => "omission",
        _ => "evict",
    }
}

/// The cell's verdict: sim identity for the equivocation cell (the engine
/// twin is exact there), agreement for every other script.
fn verdict(spec: &CellSpec, cell: &ByzCell) -> &'static str {
    if spec.attack == "equivocate" {
        if cell.matches_sim() {
            "sim-identical"
        } else {
            "MISMATCH"
        }
    } else if cell.agreement() {
        "agreement"
    } else {
        "DISAGREEMENT"
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
    for spec in &CELLS {
        let cell = run_spec(spec);
        verdicts.row(&[
            spec.attack.to_string(),
            (spec.n_correct + spec.f).to_string(),
            spec.f.to_string(),
            spec.seed.to_string(),
            cell.rounds.to_string(),
            cell.misbehavior.to_string(),
            cell.evictions.to_string(),
            cell.timeouts.to_string(),
            expected_discipline(spec.attack).to_string(),
            verdict(spec, &cell).to_string(),
        ]);
        latency.row(&[
            spec.attack.to_string(),
            (spec.n_correct + spec.f).to_string(),
            spec.f.to_string(),
            cell.byz_frames.to_string(),
            cell.mean_us.to_string(),
            cell.max_us.to_string(),
        ]);
    }
    vec![verdicts, latency]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell_for(attack: &str) -> (&CellSpec, ByzCell) {
        let spec = CELLS
            .iter()
            .find(|s| s.attack == attack)
            .expect("attack in grid");
        (spec, run_spec(spec))
    }

    /// Locks the tentpole claim: the rushing-equivocation cell is
    /// byte-identical to the sim twin running the same seeded population
    /// and adversary — and the lying costs the attackers nothing, because
    /// the model already admits it (no strikes, no evictions).
    #[test]
    fn t15_equivocation_on_the_wire_is_sim_identical_and_tolerated() {
        let (_, cell) = cell_for("equivocate");
        assert!(
            cell.matches_sim(),
            "sim {:?} vs net {:?}",
            cell.sim_outcomes,
            cell.net_outcomes
        );
        assert_eq!(cell.evictions, 0, "model-allowed lying is never evicted");
        assert_eq!(
            cell.misbehavior, 0,
            "equivocation by value draws no strikes"
        );
    }

    /// Locks the attribution split (omission vs malice): a stalling member
    /// is charged timeouts and given up on, never striked or evicted.
    #[test]
    fn t15_stall_is_charged_as_omission_never_as_malice() {
        let (_, cell) = cell_for("stall");
        assert!(cell.agreement(), "honest members agree around the staller");
        assert_eq!(cell.evictions, 0, "silence must never read as malice");
        assert_eq!(cell.misbehavior, 0, "silence draws no strikes");
        assert!(cell.timeouts > 0, "the staller costs omission timeouts");
    }

    /// Locks the flood verdict: every honest member independently strikes
    /// the flooder past the ingress quota and evicts it, and agreement
    /// among the remainder holds.
    #[test]
    fn t15_flood_is_evicted_by_every_honest_member() {
        let (spec, cell) = cell_for("flood");
        assert!(cell.agreement(), "honest members agree around the flooder");
        assert_eq!(
            cell.evictions, spec.n_correct as u64,
            "each honest member evicts the flooder exactly once"
        );
        assert!(cell.misbehavior > 0, "quota strikes precede the eviction");
    }

    /// Every cell keeps the safety obligation, and every wire-detectable
    /// script (everything but value equivocation and silence) draws
    /// strikes; the per-victim scripts also land their eviction.
    #[test]
    fn t15_every_cell_keeps_agreement_with_the_expected_discipline() {
        for spec in &CELLS {
            let cell = run_spec(spec);
            if spec.attack == "equivocate" {
                assert!(cell.matches_sim(), "{}: sim mismatch", spec.attack);
            }
            assert!(
                cell.agreement(),
                "{}: decided {}/{} outcomes {:?}",
                spec.attack,
                cell.decided,
                spec.n_correct,
                cell.net_outcomes
            );
            match expected_discipline(spec.attack) {
                "tolerate" | "omission" => {
                    assert_eq!(cell.evictions, 0, "{}: spurious eviction", spec.attack);
                }
                _ => {
                    assert!(cell.misbehavior > 0, "{}: no strikes recorded", spec.attack);
                    assert!(cell.evictions >= 1, "{}: malice not evicted", spec.attack);
                }
            }
        }
    }
}
