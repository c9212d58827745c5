//! The cell grid: every real-socket experiment cell, and the one runner
//! that executes a cell both ways.
//!
//! T11–T13 and T15 each restate one claim as *"the TCP cluster decides what
//! the [`SyncEngine`] twin decides"*, and `bench-report` commits the
//! seed-determined facts of the same runs. They all read this module:
//!
//! - a **cell** is `(family, algo, n, seed, scenario)`;
//! - its **scenario** is [`ClusterSpec`]`{ proxy, kill, hostile }` written
//!   down as data, plus the [`NetConfig`] the surroundings need;
//! - its **obligation** is what must hold of the outcome — a [`Duty`]
//!   (engine identity, or agreement only where faults sever deliveries the
//!   engine performs) plus per-cell [`Extra`]s ("the lossy profile must
//!   actually drop frames"). [`TwinCell::judge`] is the only statement of
//!   it: the tables' verdict columns and the lock test both call it.
//!
//! [`run_twin`] runs a cell; each experiment's `run()` projects the
//! outcomes onto its columns, and `report.rs` projects them onto exact
//! fields. T14's log-service cells sit in the same [`GRID`] (so the
//! committed record has one order) but keep their own runner — a log
//! cluster under client load is a different shape.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use uba_adversary::attacks::ConsensusEquivocator;
use uba_core::consensus::EarlyConsensus;
use uba_core::harness::Setup;
use uba_core::reliable::ReliableBroadcast;
use uba_net::{
    AttackKind, AttackPlan, ClusterSpec, KillSpec, LinkPlan, NetConfig, ProxySpec, RunSummary,
    WanProfile, Wire,
};
use uba_sim::{Adversary, ChurnSchedule, EngineBuilder, NodeId, Process, SyncEngine};
use uba_trace::{NoopTracer, SharedRuntimeMetrics};

use crate::experiments::t10_faults::Algo;
use crate::experiments::t14_logd::LogSpec;
use Duty::{Agreement, EngineIdentical};

/// Which experiment's tables a twin cell feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Family {
    T11,
    T12,
    T13,
    T15,
}

/// Link shaping through the [`uba_net::FaultProxy`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Wan {
    /// The zero-impairment control: the relay hop alone.
    Clean,
    /// A named impairment profile.
    Profile(WanProfile),
}

impl Wan {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Wan::Clean => "clean",
            Wan::Profile(profile) => profile.name(),
        }
    }

    fn plan(self, seed: u64, ids: &[NodeId]) -> LinkPlan {
        match self {
            Wan::Clean => LinkPlan::new(seed),
            Wan::Profile(profile) => profile.plan(seed, ids),
        }
    }
}

/// The crash drill: who dies at which round start, and whether the
/// journal's final line is torn before recovery.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Kill {
    pub at: u64,
    pub victim_idx: usize,
    pub torn: bool,
}

/// `f` scripted hostile members, all running the named
/// [`AttackKind`] script.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hostile {
    pub attack: &'static str,
    pub f: usize,
}

/// What surrounds the honest members: the three orthogonal options of
/// [`ClusterSpec`] as data, and the transport config that goes with them.
#[derive(Clone, Copy)]
pub(crate) struct Scenario {
    pub wan: Option<Wan>,
    pub kill: Option<Kill>,
    pub hostile: Option<Hostile>,
    pub config: fn() -> NetConfig,
}

/// The safety obligation of a cell. Agreement — every honest member
/// decided, all on one value — is owed by every cell; identity is owed
/// where the scenario preserves every delivery the engine performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Duty {
    /// Outputs and decision rounds equal the engine twin's, member by
    /// member (and the churn-`Restart` twin's, when there is a kill).
    EngineIdentical,
    /// Loss, partitions and wire malice sever deliveries the engine twin
    /// performs, so only the safety obligation is comparable.
    Agreement,
}

/// What else a cell owes: that its fault actually happened, and that the
/// defense attributed it the way the threat model says (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Extra {
    /// The loss model ate at least one frame.
    Drops,
    /// The scheduled partition severed at least one frame.
    Severs,
    /// Severed barriers and silent peers cost omission timeouts.
    Timeouts,
    /// Wire-detectable malice draws strikes…
    Strikes,
    /// …model-allowed lying and silence draw none.
    NoStrikes,
    /// At least one honest member evicted the attacker.
    Evicted,
    /// Nobody evicted anybody: lying within the model and silence must
    /// never read as malice.
    NoEvictions,
    /// Every honest member evicted the attacker, exactly once each.
    EvictedByAll,
}

/// One cell of the twin grid.
#[derive(Clone, Copy)]
pub(crate) struct TwinCell {
    pub family: Family,
    pub algo: Algo,
    /// Honest members (the scenario's hostile members come on top).
    pub n: usize,
    pub seed: u64,
    pub scenario: Scenario,
    pub duty: Duty,
    pub extras: &'static [Extra],
    /// Whether `bench-report` commits the cell's exact fields.
    pub recorded: bool,
}

/// One cell of the grid: a sim/net twin, or a T14 log-service run.
pub(crate) enum Cell {
    Twin(TwinCell),
    Logd(LogSpec),
}

impl Cell {
    /// The cell's name: its `bench-report` workload and, in failure
    /// messages, the cell itself.
    pub(crate) fn name(&self) -> String {
        match self {
            Cell::Twin(twin) => twin.name(),
            Cell::Logd(spec) => spec.name(),
        }
    }
}

/// Transport config for experiment runs: generous timeouts (the claim is
/// about decisions, not deadlines) and a round budget matching the twin.
fn net_config() -> NetConfig {
    NetConfig {
        round_timeout: Duration::from_secs(10),
        setup_timeout: Duration::from_secs(30),
        max_rounds: 200,
        ..NetConfig::default()
    }
}

/// The partition cells: the severed rounds each cost one barrier timeout
/// per side, so the deadline is short, and the give-up budget is deep
/// enough that nobody declares a severed peer gone.
fn partition_config() -> NetConfig {
    NetConfig {
        round_timeout: Duration::from_millis(250),
        give_up_after: 10,
        ..net_config()
    }
}

/// Every evicting script shortens the omission budget: once the victim
/// cuts the hostile link, the attacker lags behind the cluster and each
/// honest barrier eats a full `round_timeout` waiting for its `Done` until
/// the give-up writes it off, so the budget *is* the cell's wall-clock.
/// (The equivocation cell keeps [`net_config`]: the attacker stays in
/// lockstep there, so nothing ever waits.)
fn evicting_config() -> NetConfig {
    NetConfig {
        round_timeout: Duration::from_millis(500),
        give_up_after: 3,
        ..net_config()
    }
}

/// The flood script sends 256 frames per round; a 16-frame quota
/// guarantees the third strike (and the eviction) lands inside the first
/// flooded round.
fn flood_config() -> NetConfig {
    NetConfig {
        max_frames_per_round: 16,
        ..evicting_config()
    }
}

/// Replays of round 1 stay benignly "late" while the round window covers
/// them; a 2-round window makes them stale (and striked) from round 4 on.
fn replay_config() -> NetConfig {
    NetConfig {
        history_rounds: 2,
        ..evicting_config()
    }
}

/// The staller never trips a strike, only the omission budget: a short
/// deadline and give-up keep the cell fast while proving the delay is
/// bounded by `round_timeout * give_up_after`.
fn stall_config() -> NetConfig {
    NetConfig {
        round_timeout: Duration::from_millis(300),
        give_up_after: 2,
        ..net_config()
    }
}

const PLAIN: Scenario = Scenario {
    wan: None,
    kill: None,
    hostile: None,
    config: net_config,
};

/// A direct, fault-free, unrecorded cell that owes engine identity; the
/// family constructors below override what their scenario changes.
const fn twin(family: Family, algo: Algo, n: usize, seed: u64) -> TwinCell {
    TwinCell {
        family,
        algo,
        n,
        seed,
        scenario: PLAIN,
        duty: EngineIdentical,
        extras: &[],
        recorded: false,
    }
}

/// T11: the fault-free equivalence cells.
const fn t11(algo: Algo, n: usize, seed: u64) -> Cell {
    Cell::Twin(TwinCell {
        recorded: true,
        ..twin(Family::T11, algo, n, seed)
    })
}

/// T12: kill rounds precede every decision round, so the crash always
/// actually happens; the torn cell needs `at ≥ 3` so at least one journal
/// entry survives the tear.
const fn t12(algo: Algo, n: usize, seed: u64, kill: Kill) -> Cell {
    let kill = Some(kill);
    Cell::Twin(TwinCell {
        scenario: Scenario { kill, ..PLAIN },
        ..twin(Family::T12, algo, n, seed)
    })
}

/// T13: `clean` is the control and must match the engine exactly; `geo`
/// (latency inside the round budget) must too; `lossy` and `partition` are
/// the fault soaks `bench-report` commits.
const fn t13(wan: Wan, algo: Algo, n: usize, seed: u64, kill: Option<Kill>) -> Cell {
    let (impaired, extras): (bool, &'static [Extra]) = match wan {
        Wan::Clean | Wan::Profile(WanProfile::Geo) => (false, &[]),
        Wan::Profile(WanProfile::Lossy) => (true, &[Extra::Drops]),
        Wan::Profile(WanProfile::Partition) => (true, &[Extra::Severs, Extra::Timeouts]),
    };
    let config: fn() -> NetConfig = match wan {
        Wan::Profile(WanProfile::Partition) => partition_config,
        _ => net_config,
    };
    let wan = Some(wan);
    Cell::Twin(TwinCell {
        scenario: Scenario {
            wan,
            kill,
            config,
            ..PLAIN
        },
        duty: if impaired { Agreement } else { EngineIdentical },
        extras,
        recorded: impaired,
        ..twin(Family::T13, algo, n, seed)
    })
}

/// T15: consensus over `n` honest members plus `f` hostile ones at seed
/// 42. The equivocation cell uses the classic `n = 3f + 1` tight
/// population; the single-attacker cells keep the honest majority ample so
/// the verdict isolates attribution, not resilience margins.
const fn t15(
    attack: &'static str,
    n: usize,
    f: usize,
    config: fn() -> NetConfig,
    duty: Duty,
    extras: &'static [Extra],
) -> Cell {
    let hostile = Some(Hostile { attack, f });
    Cell::Twin(TwinCell {
        scenario: Scenario {
            hostile,
            config,
            ..PLAIN
        },
        duty,
        extras,
        recorded: true,
        ..twin(Family::T15, Algo::Consensus, n, 42)
    })
}

const fn kill(at: u64, victim_idx: usize, torn: bool) -> Kill {
    Kill {
        at,
        victim_idx,
        torn,
    }
}

const GEO: Wan = Wan::Profile(WanProfile::Geo);
const LOSSY: Wan = Wan::Profile(WanProfile::Lossy);
const PARTITION: Wan = Wan::Profile(WanProfile::Partition);
/// The T15 disciplines. Model-allowed lying is tolerated…
const TOLERATE: &[Extra] = &[Extra::NoEvictions, Extra::NoStrikes];
/// …silence is charged as omission, never as malice…
const OMISSION: &[Extra] = &[Extra::NoEvictions, Extra::NoStrikes, Extra::Timeouts];
/// …and wire-detectable malice is striked and evicted: by its victim at
/// least, by every honest member when it floods them all.
const EVICT: &[Extra] = &[Extra::Strikes, Extra::Evicted];
const EVICT_BY_ALL: &[Extra] = &[Extra::Strikes, Extra::EvictedByAll];

/// T14: the acceptance shape for the service — ≥3 nodes, ≥2 shard counts,
/// the same closed-loop load on both.
const fn t14(shards: u32) -> Cell {
    Cell::Logd(LogSpec {
        n: 3,
        shards,
        seed: 7,
        submissions: 180,
    })
}

/// Every cell, in presentation order (which is also the committed order of
/// `BENCH_net.json`).
pub(crate) static GRID: [Cell; 27] = [
    t11(Algo::Consensus, 4, 42),
    t11(Algo::Consensus, 4, 7),
    t11(Algo::Consensus, 7, 1),
    t11(Algo::Reliable, 4, 42),
    t11(Algo::Reliable, 5, 11),
    t12(Algo::Consensus, 4, 42, kill(3, 0, false)),
    t12(Algo::Consensus, 7, 1, kill(3, 2, false)),
    t12(Algo::Reliable, 5, 11, kill(2, 1, false)),
    t12(Algo::Consensus, 4, 42, kill(3, 0, true)),
    t13(Wan::Clean, Algo::Consensus, 4, 42, None),
    t13(GEO, Algo::Consensus, 4, 42, None),
    t13(LOSSY, Algo::Consensus, 4, 42, None),
    t13(PARTITION, Algo::Consensus, 4, 42, None),
    t13(Wan::Clean, Algo::Reliable, 4, 42, None),
    t13(GEO, Algo::Reliable, 4, 42, None),
    t13(LOSSY, Algo::Reliable, 4, 42, None),
    t13(PARTITION, Algo::Reliable, 5, 11, None),
    // T12's drill behind the relay: the rejoiner dials outward and the
    // relay fronts stay fixed, so the kill is still invisible.
    t13(Wan::Clean, Algo::Consensus, 4, 42, Some(kill(3, 0, false))),
    t14(1),
    t14(4),
    t15("equivocate", 5, 2, net_config, EngineIdentical, TOLERATE),
    t15("replay", 4, 1, replay_config, Agreement, EVICT),
    t15("corrupt", 4, 1, evicting_config, Agreement, EVICT),
    t15("oversize", 4, 1, evicting_config, Agreement, EVICT),
    t15("flood", 4, 1, flood_config, Agreement, EVICT_BY_ALL),
    t15("stall", 4, 1, stall_config, Agreement, OMISSION),
    t15("backfill-spam", 4, 1, evicting_config, Agreement, EVICT),
];

/// The twin cells of one experiment, in grid order.
pub(crate) fn twins(family: Family) -> impl Iterator<Item = &'static TwinCell> {
    GRID.iter().filter_map(move |cell| match cell {
        Cell::Twin(twin) if twin.family == family => Some(twin),
        _ => None,
    })
}

/// Each decided member's output (rendered via `Debug`, so one comparison
/// covers every algorithm) and decision round.
pub(crate) type Outcomes = BTreeMap<NodeId, (String, u64)>;

/// The last round in which anybody decided (0 if nobody did).
pub(crate) fn last_round(outcomes: &Outcomes) -> u64 {
    outcomes
        .values()
        .map(|&(_, round)| round)
        .max()
        .unwrap_or(0)
}

/// One [`SyncEngine`] execution of a cell's population.
pub(crate) struct EngineRun {
    pub outcomes: Outcomes,
    pub envelopes_delivered: u64,
    pub duplicate_drops: u64,
}

/// A cell run both ways.
pub(crate) struct TwinOutcome {
    /// The engine twin; `None` where the attack script has no simulator
    /// counterpart.
    pub engine: Option<EngineRun>,
    /// The engine with the scenario's kill scripted as a churn `Restart`.
    pub restart_engine: Option<EngineRun>,
    /// The honest members of the TCP cluster.
    pub net: Outcomes,
    pub summary: RunSummary,
    /// `net_*` counter families summed over the honest members…
    pub frames_sent: u64,
    pub bytes_sent: u64,
    pub strikes: u64,
    /// …and `net_link_*` over the proxy's directed links.
    pub forwarded: u64,
    pub dropped: u64,
    pub severed: u64,
    /// Frames (incl. raw poison writes) the hostile members sent.
    pub byz_frames: u64,
}

impl TwinOutcome {
    /// Every one of `n` honest members decided, all on one value.
    pub(crate) fn agreement(&self, n: usize) -> bool {
        let values: BTreeSet<&String> = self.net.values().map(|(out, _)| out).collect();
        self.net.len() == n && values.len() <= 1
    }

    /// The cluster reproduced the engine twin (and the churn-`Restart`
    /// twin, if the scenario kills) member by member: same outputs, same
    /// decision rounds.
    pub(crate) fn engine_identical(&self) -> bool {
        let mut twins = [&self.engine, &self.restart_engine].into_iter().flatten();
        self.engine.is_some() && twins.all(|twin| twin.outcomes == self.net)
    }
}

/// Generous against every cell: the twins decide within 12 rounds.
const ENGINE_ROUNDS: u64 = 400;

fn engine_run<P: Process, A: Adversary<P::Msg>>(builder: EngineBuilder<P, A>) -> EngineRun {
    let registry = SharedRuntimeMetrics::new();
    let done = builder
        .runtime_metrics(registry.clone())
        .build()
        .run_to_completion(ENGINE_ROUNDS)
        .expect("engine twin must complete");
    let metrics = registry.snapshot();
    EngineRun {
        outcomes: done
            .outputs
            .iter()
            .map(|(&id, out)| {
                let round = done.decided_round.get(&id).copied().unwrap_or(0);
                (id, (format!("{out:?}"), round))
            })
            .collect(),
        envelopes_delivered: metrics.counter("sim_envelopes_delivered_total"),
        duplicate_drops: metrics.counter("sim_duplicate_drops_total"),
    }
}

/// Runs one cell: the engine twin(s) the scenario has, then the cluster.
pub(crate) fn run_twin(cell: &TwinCell) -> TwinOutcome {
    let hostile = cell.scenario.hostile;
    let setup = Setup::new(cell.n, hostile.map_or(0, |h| h.f), cell.seed);
    let attack =
        hostile.map(|h| AttackKind::parse(h.attack).expect("the grid names known attack scripts"));
    match cell.algo {
        Algo::Consensus => {
            // Without hostile members, one seed bit per position; with
            // them, inputs alternate 0/1 — exactly the simulator-side
            // equivocation harness, so the engine twin is comparable.
            let input = |i: usize| match hostile {
                None => (cell.seed >> (i % 64)) & 1,
                Some(_) => (i % 2) as u64,
            };
            let members = || -> Vec<EarlyConsensus<u64>> {
                let ids = setup.correct.iter().enumerate();
                ids.map(|(i, &id)| EarlyConsensus::new(id, input(i)))
                    .collect()
            };
            // Value equivocation is the one script the simulator's
            // adversary vocabulary also has.
            let honest = || SyncEngine::builder().correct_many(members());
            let engine = match attack {
                None => Some(engine_run(honest())),
                Some(AttackKind::Equivocate { a, b }) => Some(engine_run(
                    honest()
                        .faulty_many(setup.faulty.iter().copied())
                        .adversary(ConsensusEquivocator::new(a, b)),
                )),
                Some(_) => None,
            };
            run_both(cell, &setup, attack, engine, members)
        }
        Algo::Reliable => {
            let sender = setup.correct[0];
            let members = || -> Vec<ReliableBroadcast<u64>> {
                let ids = setup.correct.iter();
                ids.map(|&id| {
                    let own = (id == sender).then_some(cell.seed);
                    ReliableBroadcast::new(id, sender, own).with_horizon(6)
                })
                .collect()
            };
            let engine = attack
                .is_none()
                .then(|| engine_run(SyncEngine::builder().correct_many(members())));
            run_both(cell, &setup, attack, engine, members)
        }
        Algo::Approx | Algo::Rotor => {
            unreachable!("no grid cell runs {}", cell.algo.name())
        }
    }
}

/// The algorithm-independent rest of [`run_twin`]: the churn-`Restart`
/// twin, then `members()` inside the scenario's [`ClusterSpec`].
fn run_both<P, F>(
    cell: &TwinCell,
    setup: &Setup,
    attack: Option<AttackKind>,
    engine: Option<EngineRun>,
    members: F,
) -> TwinOutcome
where
    P: Process + Send,
    P::Msg: Wire,
    P::Output: Send,
    F: Fn() -> Vec<P>,
{
    let Scenario {
        wan, kill, config, ..
    } = cell.scenario;
    let reborn = |kill: Kill| members().swap_remove(kill.victim_idx);
    let restart_engine = kill.map(|kill| {
        let mut churn = ChurnSchedule::new();
        churn.restart(kill.at, reborn(kill));
        engine_run(SyncEngine::builder().correct_many(members()).churn(churn))
    });

    // One registry for the honest members and the proxy's links: their
    // counter families do not overlap, and only family sums are read.
    let registry = SharedRuntimeMetrics::new();
    let everyone: Vec<NodeId> = setup.correct.iter().chain(&setup.faulty).copied().collect();
    // Journals on disk, per process and per cell, removed afterwards.
    let journal_dir =
        std::env::temp_dir().join(format!("uba-{}-{}", cell.name(), std::process::id()));
    let spec = ClusterSpec {
        proxy: wan.map(|wan| ProxySpec {
            plan: wan.plan(cell.seed, &everyone),
            link_metrics: Some(registry.clone()),
        }),
        kill: kill.map(|kill| KillSpec {
            victim: setup.correct[kill.victim_idx],
            reborn: reborn(kill),
            kill_at: kill.at,
            restart_delay: Duration::ZERO,
            journal_dir: journal_dir.clone(),
            tear_journal: kill.torn,
        }),
        hostile: attack.map(|kind| AttackPlan::new(cell.seed, kind, setup.faulty.iter().copied())),
    };
    let run = spec
        .run(
            members(),
            config(),
            |_| NoopTracer,
            |_| Some(registry.clone()),
        )
        .expect("the honest members must complete the run");
    let _ = std::fs::remove_dir_all(&journal_dir);

    let metrics = registry.snapshot();
    TwinOutcome {
        engine,
        restart_engine,
        net: run
            .reports
            .iter()
            .filter_map(|(&id, report)| {
                let out = report.output.as_ref()?;
                Some((id, (format!("{out:?}"), report.decided_round.unwrap_or(0))))
            })
            .collect(),
        summary: RunSummary::of(&run.reports),
        frames_sent: metrics.family_sum("net_frames_sent_total"),
        bytes_sent: metrics.family_sum("net_bytes_sent_total"),
        strikes: metrics.family_sum("net_misbehavior_total"),
        forwarded: metrics.family_sum("net_link_frames_forwarded_total"),
        dropped: metrics.family_sum("net_link_frames_dropped_total"),
        severed: metrics.family_sum("net_link_frames_severed_total"),
        byz_frames: run.byzantine.values().map(|r| r.frames_sent).sum(),
    }
}

impl TwinCell {
    /// The name says what surrounds the members, in the spelling the
    /// committed workloads have always had.
    pub(crate) fn name(&self) -> String {
        let Scenario {
            wan, kill, hostile, ..
        } = self.scenario;
        if let Some(Hostile { attack, f }) = hostile {
            return format!("t15-{attack}-n{}-f{f}-seed{}", self.n + f, self.seed);
        }
        let mut name = format!("{}-n{}-seed{}", self.algo.slug(), self.n, self.seed);
        if let Some(kill) = kill {
            let torn = if kill.torn { "-torn" } else { "" };
            name = format!("{name}-kill{}{torn}", kill.at);
        }
        match wan {
            Some(wan) => format!("t13-{}-{name}", wan.name()),
            None if kill.is_some() => format!("t12-{name}"),
            None => name,
        }
    }

    /// The cell's obligation, stated once: `Ok` with the verdict the
    /// tables print, or the failing verdict and what exactly broke.
    pub(crate) fn judge(&self, run: &TwinOutcome) -> Result<&'static str, (&'static str, String)> {
        if self.duty == EngineIdentical && !run.engine_identical() {
            let twins =
                [&run.engine, &run.restart_engine].map(|twin| twin.as_ref().map(|t| &t.outcomes));
            return Err((
                "MISMATCH",
                format!("engines {twins:?} vs net {:?}", run.net),
            ));
        }
        if !run.agreement(self.n) {
            return Err((
                "DISAGREEMENT",
                format!("decided {}/{} with {:?}", run.net.len(), self.n, run.net),
            ));
        }
        let RunSummary {
            evictions,
            timeouts,
            ..
        } = run.summary;
        for &extra in self.extras {
            let holds = match extra {
                Extra::Drops => run.dropped > 0,
                Extra::Severs => run.severed > 0,
                Extra::Timeouts => timeouts > 0,
                Extra::Strikes => run.strikes > 0,
                Extra::NoStrikes => run.strikes == 0,
                Extra::Evicted => evictions >= 1,
                Extra::NoEvictions => evictions == 0,
                Extra::EvictedByAll => evictions == self.n as u64,
            };
            if !holds {
                return Err((
                    "VIOLATION",
                    format!(
                        "{extra:?} does not hold: {} dropped, {} severed, {timeouts} timeouts, \
                         {} strikes, {evictions} evictions by {} honest members",
                        run.dropped, run.severed, run.strikes, self.n
                    ),
                ));
            }
        }
        Ok(match (self.duty, self.scenario.hostile) {
            (EngineIdentical, None) => "match",
            (EngineIdentical, Some(_)) => "sim-identical",
            (Agreement, _) => "agreement",
        })
    }

    /// The verdict column: [`judge`](Self::judge) without the reason.
    pub(crate) fn verdict(&self, run: &TwinOutcome) -> &'static str {
        self.judge(run).unwrap_or_else(|(verdict, _)| verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lock on T11, T12, T13 and T15: every twin cell runs once and
    /// keeps its whole obligation — engine identity or agreement, that its
    /// fault actually happened, and the attribution the threat model
    /// assigns it. Latency is machine-dependent and deliberately
    /// unasserted.
    #[test]
    fn every_twin_cell_keeps_its_obligation() {
        let broken: Vec<String> = GRID
            .iter()
            .filter_map(|cell| match cell {
                Cell::Twin(twin) => Some(twin),
                Cell::Logd(_) => None,
            })
            .filter_map(|cell| {
                let (verdict, why) = cell.judge(&run_twin(cell)).err()?;
                Some(format!("{}: {verdict}: {why}", cell.name()))
            })
            .collect();
        assert!(broken.is_empty(), "{}", broken.join("\n"));
    }

    #[test]
    fn cell_names_are_unique() {
        let names: BTreeSet<String> = GRID.iter().map(Cell::name).collect();
        assert_eq!(names.len(), GRID.len());
    }
}
