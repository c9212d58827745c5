//! The cell grid: every real-socket experiment cell, and the one runner
//! that executes a cell both ways.
//!
//! T11–T13 and T15 each restate one claim as *"the TCP cluster decides what
//! the [`SyncEngine`] twin decides"*, `bench-report` commits the
//! seed-determined facts of the same runs, and the `cluster` binary runs one
//! cell read off its command line. They all read this module:
//!
//! - a **cell** ([`TwinCell`]) is `(algo, n, seed, scenario)` plus its
//!   obligation; the grid files it under the experiment whose tables it
//!   feeds;
//! - its **scenario** is [`ClusterSpec`]`{ wan, kill, hostile }` written
//!   down as data, plus the [`NetConfig`] the surroundings need;
//! - its **obligation** is what must hold of the outcome — a [`Duty`]
//!   (engine identity, or agreement only where faults sever deliveries the
//!   engine performs) plus per-cell [`Extra`]s ("the lossy profile must
//!   actually drop frames"). [`TwinCell::judge`] is the only statement of
//!   it: the tables' verdict columns, the lock test and the binary's exit
//!   code all call it.
//!
//! [`run_twin`] runs a cell; each experiment's `run()` projects the
//! outcomes onto its columns, and `report.rs` projects them onto exact
//! fields. T14's log-service cells sit in the same `GRID` (so the
//! committed record has one order) but keep their own runner — a log
//! cluster under client load is a different shape.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::{Arc, LazyLock};
use std::time::Duration;

use uba_adversary::attacks::ConsensusEquivocator;
use uba_core::approx::ApproxAgreement;
use uba_core::consensus::EarlyConsensus;
use uba_core::harness::Setup;
use uba_core::reliable::ReliableBroadcast;
use uba_net::{
    AttackKind, AttackPlan, ClusterSpec, KillSpec, LinkPlan, LinkSpec, NetConfig, NetError,
    RunSummary, Wire,
};
use uba_sim::{Adversary, EngineBuilder, NodeId, Process, SyncEngine};
use uba_trace::{NoopTracer, RuntimeMetrics, SharedRuntimeMetrics, Tracer};

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

/// The WAN plan every member's links are shaped by ([`uba_net::wan`]).
/// The three named profiles are the `cluster` binary's `--wan-profile`
/// values; their numbers are in EXPERIMENTS.md (T13's profile tables),
/// sized so a smoke run finishes in seconds while still exercising every
/// impairment path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wan {
    /// The zero-impairment control: the shapers alone.
    Clean,
    /// A three-region geo-distribution: members are assigned to regions
    /// round-robin (in id order); intra-region links are fast, inter-region
    /// links carry 10–25ms of latency plus proportional jitter. No loss —
    /// a geo run under a sufficient round timeout stays byte-identical to
    /// the simulator.
    Geo,
    /// A uniformly bad network: small latency and jitter, 2% `Data` loss,
    /// and a 256 KiB/s bandwidth cap per link.
    Lossy,
    /// A clean network with one scheduled cut: the first half of the
    /// members (in id order) is partitioned from the second half for
    /// rounds 3 and 4, then the cut heals.
    Partition,
    /// A hand-written plan (the `cluster` binary's `--link-plan`): one spec
    /// on every link and, over a round window, a partition of the lower
    /// half of the sorted ids from the upper half.
    Custom {
        /// The seed of the loss and jitter draws.
        seed: u64,
        /// The impairment of every link.
        link: LinkSpec,
        /// The partitioned rounds, `from..to`.
        partition: Option<(u64, u64)>,
    },
}

impl Wan {
    /// Parses a named profile as the `cluster` binary's `--wan-profile`
    /// flag spells it.
    pub fn parse(name: &str) -> Option<Self> {
        [Wan::Geo, Wan::Lossy, Wan::Partition]
            .into_iter()
            .find(|wan| wan.name() == name)
    }

    /// The plan's name in cell names.
    pub fn name(self) -> &'static str {
        match self {
            Wan::Clean => "clean",
            Wan::Geo => "geo",
            Wan::Lossy => "lossy",
            Wan::Partition => "partition",
            Wan::Custom { .. } => "custom",
        }
    }

    /// The plan over `ids`: the region assignment and the partition cut
    /// follow the sorted id order.
    fn plan(self, seed: u64, ids: &[NodeId]) -> LinkPlan {
        let ms = Duration::from_millis;
        match self {
            Wan::Clean => LinkPlan::new(seed),
            Wan::Geo => {
                // Latency between regions r0..r2, in milliseconds; the
                // diagonal is the intra-region delay.
                const LATENCY_MS: [[u64; 3]; 3] = [[2, 10, 25], [10, 2, 15], [25, 15, 2]];
                let mut sorted = ids.to_vec();
                sorted.sort_unstable();
                let mut plan = LinkPlan::new(seed);
                for (i, &from) in sorted.iter().enumerate() {
                    for (j, &to) in sorted.iter().enumerate() {
                        if i == j {
                            continue;
                        }
                        let latency = LATENCY_MS[i % 3][j % 3];
                        let spec = LinkSpec {
                            latency: ms(latency),
                            jitter: ms(latency / 5),
                            ..LinkSpec::default()
                        };
                        plan = plan.with_link(from, to, spec);
                    }
                }
                plan
            }
            Wan::Lossy => Wan::Custom {
                seed,
                link: LinkSpec {
                    latency: ms(2),
                    jitter: ms(1),
                    loss_ppm: 20_000,
                    bandwidth: Some(256 * 1024),
                },
                partition: None,
            }
            .plan(seed, ids),
            Wan::Partition => Wan::Custom {
                seed,
                link: LinkSpec {
                    latency: ms(2),
                    ..LinkSpec::default()
                },
                partition: Some((3, 5)),
            }
            .plan(seed, ids),
            Wan::Custom {
                seed,
                link,
                partition,
            } => {
                let plan = LinkPlan::new(seed).with_default(link);
                let Some((from, to)) = partition else {
                    return plan;
                };
                let mut sorted = ids.to_vec();
                sorted.sort_unstable();
                let side = sorted[..sorted.len() / 2].to_vec();
                plan.with_partition(from..to, side)
            }
        }
    }
}

/// The crash drill: who dies at which round start, whether the journal's
/// final line is torn before recovery, and how long the victim stays down.
#[derive(Debug, Clone, Copy)]
pub struct Kill {
    /// The round at whose start the victim dies.
    pub at: u64,
    /// The victim's position among the honest members, by ascending id.
    pub victim_idx: usize,
    /// Whether the journal's final line is torn before recovery.
    pub torn: bool,
    /// How long the victim stays down; past one `round_timeout`, peers
    /// charge it omissions.
    pub down: Duration,
}

/// `f` scripted hostile members, all running the named
/// [`AttackKind`] script.
#[derive(Debug, Clone, Copy)]
pub struct Hostile {
    /// The [`AttackKind`] name.
    pub attack: &'static str,
    /// How many hostile members there are.
    pub f: usize,
}

/// What surrounds the honest members: the three orthogonal options of
/// [`ClusterSpec`] as data, and the transport config that goes with them.
#[derive(Clone)]
pub struct Scenario {
    /// The WAN plan on every member's links, if any.
    pub wan: Option<Wan>,
    /// The crash drill, if any.
    pub kill: Option<Kill>,
    /// The hostile members, if any.
    pub hostile: Option<Hostile>,
    /// Every member's transport config.
    pub config: NetConfig,
}

/// The safety obligation of a cell. Agreement — every honest member
/// decided, all on one value — is owed by every cell; identity is owed
/// where the scenario preserves every delivery the engine performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Duty {
    /// Outputs and decision rounds equal the engine twin's, member by
    /// member; a killed member's rejoined incarnation included.
    EngineIdentical,
    /// Loss, partitions and wire malice sever deliveries the engine twin
    /// performs, so only the safety obligation is comparable.
    Agreement,
}

/// What else a cell owes: that its fault actually happened, and that the
/// defense attributed it the way the threat model says (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extra {
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

/// One cell of the twin grid: what runs, and what it owes.
#[derive(Clone)]
pub struct TwinCell {
    /// The protocol every honest member runs.
    pub algo: Algo,
    /// Honest members (the scenario's hostile members come on top).
    pub n: usize,
    /// Seeds the ids, the inputs and every scripted fault.
    pub seed: u64,
    /// What surrounds the honest members.
    pub scenario: Scenario,
    /// The safety obligation.
    pub duty: Duty,
    /// Further obligations.
    pub extras: &'static [Extra],
}

/// A twin cell as the grid holds it: the cell, plus which experiment's
/// tables it feeds and whether `bench-report` commits its exact fields. It
/// dereferences to the cell, which is all the runner and the judge read.
pub(crate) struct GridTwin {
    pub family: Family,
    pub cell: TwinCell,
    pub recorded: bool,
}

impl Deref for GridTwin {
    type Target = TwinCell;

    fn deref(&self) -> &TwinCell {
        &self.cell
    }
}

/// One cell of the grid: a sim/net twin, or a T14 log-service run.
// 27 cells in one static table: their size does not matter.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Cell {
    Twin(GridTwin),
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

fn plain() -> Scenario {
    Scenario {
        wan: None,
        kill: None,
        hostile: None,
        config: net_config(),
    }
}

/// A direct, fault-free cell that owes engine identity; the family
/// constructors below override what their scenario changes.
fn direct(algo: Algo, n: usize, seed: u64) -> TwinCell {
    TwinCell {
        algo,
        n,
        seed,
        scenario: plain(),
        duty: EngineIdentical,
        extras: &[],
    }
}

fn grid_twin(family: Family, cell: TwinCell, recorded: bool) -> Cell {
    Cell::Twin(GridTwin {
        family,
        cell,
        recorded,
    })
}

/// T11: the fault-free equivalence cells.
fn t11(algo: Algo, n: usize, seed: u64) -> Cell {
    grid_twin(Family::T11, direct(algo, n, seed), true)
}

/// T12: kill rounds precede every decision round, so the crash always
/// actually happens; the torn cell needs `at ≥ 3` so at least one journal
/// entry survives the tear.
fn t12(algo: Algo, n: usize, seed: u64, kill: Kill) -> Cell {
    let kill = Some(kill);
    let cell = TwinCell {
        scenario: Scenario { kill, ..plain() },
        ..direct(algo, n, seed)
    };
    grid_twin(Family::T12, cell, false)
}

/// T13: `clean` is the control and must match the engine exactly; `geo`
/// (latency inside the round budget) must too; `lossy` and `partition` are
/// the fault soaks `bench-report` commits.
fn t13(wan: Wan, algo: Algo, n: usize, seed: u64, kill: Option<Kill>) -> Cell {
    let (impaired, extras): (bool, &'static [Extra]) = match wan {
        Wan::Lossy => (true, &[Extra::Drops]),
        Wan::Partition => (true, &[Extra::Severs, Extra::Timeouts]),
        _ => (false, &[]),
    };
    let config = match wan {
        Wan::Partition => partition_config(),
        _ => net_config(),
    };
    let wan = Some(wan);
    let cell = TwinCell {
        scenario: Scenario {
            wan,
            kill,
            config,
            ..plain()
        },
        duty: if impaired { Agreement } else { EngineIdentical },
        extras,
        ..direct(algo, n, seed)
    };
    grid_twin(Family::T13, cell, impaired)
}

/// T15: consensus over `n` honest members plus `f` hostile ones at seed
/// 42. The equivocation cell uses the classic `n = 3f + 1` tight
/// population; the single-attacker cells keep the honest majority ample so
/// the verdict isolates attribution, not resilience margins.
fn t15(
    attack: &'static str,
    n: usize,
    f: usize,
    config: NetConfig,
    duty: Duty,
    extras: &'static [Extra],
) -> Cell {
    let hostile = Some(Hostile { attack, f });
    let cell = TwinCell {
        scenario: Scenario {
            hostile,
            config,
            ..plain()
        },
        duty,
        extras,
        ..direct(Algo::Consensus, n, 42)
    };
    grid_twin(Family::T15, cell, true)
}

/// An immediate restart: the grid's kills are invisible to the protocol.
const fn kill(at: u64, victim_idx: usize, torn: bool) -> Kill {
    Kill {
        at,
        victim_idx,
        torn,
        down: Duration::ZERO,
    }
}

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
pub(crate) static GRID: LazyLock<[Cell; 27]> = LazyLock::new(|| {
    [
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
        t13(Wan::Geo, Algo::Consensus, 4, 42, None),
        t13(Wan::Lossy, Algo::Consensus, 4, 42, None),
        t13(Wan::Partition, Algo::Consensus, 4, 42, None),
        t13(Wan::Clean, Algo::Reliable, 4, 42, None),
        t13(Wan::Geo, Algo::Reliable, 4, 42, None),
        t13(Wan::Lossy, Algo::Reliable, 4, 42, None),
        t13(Wan::Partition, Algo::Reliable, 5, 11, None),
        // T12's drill over shaped links: the reborn member shapes its links
        // by the same plan, so the kill is still invisible.
        t13(Wan::Clean, Algo::Consensus, 4, 42, Some(kill(3, 0, false))),
        t14(1),
        t14(4),
        t15("equivocate", 5, 2, net_config(), EngineIdentical, TOLERATE),
        t15("replay", 4, 1, replay_config(), Agreement, EVICT),
        t15("corrupt", 4, 1, evicting_config(), Agreement, EVICT),
        t15("oversize", 4, 1, evicting_config(), Agreement, EVICT),
        t15("flood", 4, 1, flood_config(), Agreement, EVICT_BY_ALL),
        t15("stall", 4, 1, stall_config(), Agreement, OMISSION),
        t15("backfill-spam", 4, 1, evicting_config(), Agreement, EVICT),
    ]
});

/// The twin cells of one experiment, in grid order.
pub(crate) fn twins(family: Family) -> impl Iterator<Item = &'static TwinCell> {
    GRID.iter().filter_map(move |cell| match cell {
        Cell::Twin(twin) if twin.family == family => Some(&twin.cell),
        _ => None,
    })
}

/// Each decided member's output (rendered via `Debug`, so one comparison
/// covers every algorithm) and decision round.
pub type Outcomes = BTreeMap<NodeId, (String, u64)>;

/// The last round in which anybody decided (0 if nobody did).
pub(crate) fn last_round(outcomes: &Outcomes) -> u64 {
    outcomes
        .values()
        .map(|&(_, round)| round)
        .max()
        .unwrap_or(0)
}

/// One [`SyncEngine`] execution of a cell's population.
pub struct EngineRun {
    /// Each decided member's output and decision round.
    pub outcomes: Outcomes,
    /// `sim_envelopes_delivered_total`.
    pub envelopes_delivered: u64,
    /// `sim_duplicate_drops_total`.
    pub duplicate_drops: u64,
}

/// A cell run both ways.
pub struct TwinOutcome<T = NoopTracer> {
    /// The engine twin; `None` where the attack script has no simulator
    /// counterpart.
    pub engine: Option<EngineRun>,
    /// The honest members of the TCP cluster.
    pub net: Outcomes,
    /// The figures of the honest members' reports.
    pub summary: RunSummary,
    /// Every runtime registry the run was handed, folded into one.
    pub metrics: RuntimeMetrics,
    /// `net_frames_sent_total`, over every peer of every honest member.
    pub frames_sent: u64,
    /// `net_bytes_sent_total`, likewise.
    pub bytes_sent: u64,
    /// `net_misbehavior_total`, likewise.
    pub strikes: u64,
    /// `net_link_frames_forwarded_total`, over the shaped directed links
    /// into honest members.
    pub forwarded: u64,
    /// `net_link_frames_dropped_total`, likewise.
    pub dropped: u64,
    /// `net_link_frames_severed_total`, likewise.
    pub severed: u64,
    /// Frames (incl. raw poison writes) the hostile members sent.
    pub byz_frames: u64,
    /// Each honest member's tracer, out of its report; a shaped link's
    /// events are in its receiving member's.
    pub tracers: BTreeMap<NodeId, T>,
}

impl<T> TwinOutcome<T> {
    /// The cluster reproduced the engine twin member by member: same
    /// outputs, same decision rounds.
    pub fn engine_identical(&self) -> bool {
        self.engine
            .as_ref()
            .is_some_and(|twin| twin.outcomes == self.net)
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

/// Runs one cell as the grid does: untraced, into fresh registries, with
/// its journals in a scratch directory.
///
/// # Panics
///
/// If an honest member fails its run.
pub fn run_twin(cell: &TwinCell) -> TwinOutcome {
    run_twin_with(cell, None, |_| NoopTracer, |_| SharedRuntimeMetrics::new())
        .expect("the honest members must complete the run")
}

/// Runs one cell: the engine twin(s) the scenario has, then the cluster.
///
/// `tracer_for` and `metrics_for` equip each honest member as in
/// [`ClusterSpec::run`]. The outcome's counters are summed over every
/// registry handed out, so each call must hand out a registry of its own.
/// The crash drill's journals go to [`TwinCell::journal_dir`]: a directory
/// the caller named is kept, a scratch one is removed after the run.
///
/// # Errors
///
/// The honest members' failure, as [`ClusterSpec::run`] reports it.
pub fn run_twin_with<T: Tracer + Send + 'static>(
    cell: &TwinCell,
    journal_dir: Option<&Path>,
    tracer_for: impl FnMut(NodeId) -> T,
    metrics_for: impl FnMut(NodeId) -> SharedRuntimeMetrics,
) -> Result<TwinOutcome<T>, NetError> {
    let setup = cell.setup();
    let attack = cell.attack();
    match cell.algo {
        Algo::Consensus => {
            // Without hostile members, one seed bit per position; with
            // them, inputs alternate 0/1 — exactly the simulator-side
            // equivocation harness, so the engine twin is comparable.
            let input = |i: usize| match attack {
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
            run_both(cell, engine, members, journal_dir, tracer_for, metrics_for)
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
            run_both(cell, engine, members, journal_dir, tracer_for, metrics_for)
        }
        Algo::Approx => {
            let members = || -> Vec<ApproxAgreement> {
                let ids = setup.correct.iter().enumerate();
                ids.map(|(i, &id)| {
                    let input = (cell.seed % 97) as f64 + i as f64;
                    ApproxAgreement::new(id, input).with_iterations(3)
                })
                .collect()
            };
            let engine = attack
                .is_none()
                .then(|| engine_run(SyncEngine::builder().correct_many(members())));
            run_both(cell, engine, members, journal_dir, tracer_for, metrics_for)
        }
        Algo::Rotor => unreachable!("no cell runs {}", cell.algo.name()),
    }
}

/// The algorithm-independent rest of [`run_twin_with`]: `members()`
/// inside the scenario's [`ClusterSpec`].
fn run_both<P, T>(
    cell: &TwinCell,
    engine: Option<EngineRun>,
    members: impl Fn() -> Vec<P>,
    journal_dir: Option<&Path>,
    tracer_for: impl FnMut(NodeId) -> T,
    mut metrics_for: impl FnMut(NodeId) -> SharedRuntimeMetrics,
) -> Result<TwinOutcome<T>, NetError>
where
    P: Process + Send,
    P::Msg: Wire,
    P::Output: Send + Debug,
    T: Tracer + Send + 'static,
{
    let Scenario { kill, .. } = cell.scenario;

    let setup = cell.setup();
    let journals = cell.journal_dir(journal_dir);
    let spec = ClusterSpec {
        wan: cell.link_plan().map(Arc::new),
        kill: kill.map(|kill| KillSpec {
            victim: setup.correct[kill.victim_idx],
            reborn: members().swap_remove(kill.victim_idx),
            kill_at: kill.at,
            restart_delay: kill.down,
            journal_dir: journals.clone(),
            tear_journal: kill.torn,
        }),
        hostile: cell
            .attack()
            .map(|kind| AttackPlan::new(cell.seed, kind, setup.faulty.iter().copied())),
    };
    let mut handed = Vec::new();
    let run = spec.run(members(), cell.scenario.config.clone(), tracer_for, |id| {
        let registry = metrics_for(id);
        handed.push(registry.clone());
        Some(registry)
    });
    if kill.is_some() && journal_dir.is_none() {
        let _ = std::fs::remove_dir_all(&journals);
    }
    let run = run?;

    let mut metrics = RuntimeMetrics::new();
    for registry in &handed {
        metrics.merge(&registry.snapshot());
    }
    let sum = |family| metrics.family_sum(family);
    let mut outcome = TwinOutcome {
        engine,
        net: Outcomes::new(),
        summary: RunSummary::of(&run.reports),
        frames_sent: sum("net_frames_sent_total"),
        bytes_sent: sum("net_bytes_sent_total"),
        strikes: sum("net_misbehavior_total"),
        forwarded: sum("net_link_frames_forwarded_total"),
        dropped: sum("net_link_frames_dropped_total"),
        severed: sum("net_link_frames_severed_total"),
        byz_frames: run.byzantine.values().map(|r| r.frames_sent).sum(),
        metrics,
        tracers: BTreeMap::new(),
    };
    for (id, report) in run.reports {
        if let Some(out) = &report.output {
            let round = report.decided_round.unwrap_or(0);
            outcome.net.insert(id, (format!("{out:?}"), round));
        }
        outcome.tracers.insert(id, report.tracer);
    }
    Ok(outcome)
}

impl TwinCell {
    /// The name says what surrounds the members, in the spelling the
    /// committed workloads have always had.
    pub fn name(&self) -> String {
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

    /// The honest and the hostile members' ids.
    pub fn setup(&self) -> Setup {
        let f = self.scenario.hostile.map_or(0, |h| h.f);
        Setup::new(self.n, f, self.seed)
    }

    fn attack(&self) -> Option<AttackKind> {
        let hostile = self.scenario.hostile?;
        Some(AttackKind::parse(hostile.attack).expect("cells name known attack scripts"))
    }

    /// The link plan over every member, honest and hostile.
    pub fn link_plan(&self) -> Option<LinkPlan> {
        let Setup { correct, faulty } = self.setup();
        let everyone = [correct, faulty].concat();
        Some(self.scenario.wan?.plan(self.seed, &everyone))
    }

    /// Where the crash drill journals: `named`, or a scratch directory of
    /// this cell and process.
    pub fn journal_dir(&self, named: Option<&Path>) -> PathBuf {
        named.map_or_else(
            || std::env::temp_dir().join(format!("uba-{}-{}", self.name(), std::process::id())),
            Path::to_path_buf,
        )
    }

    /// Every honest member decided — all on one value, except under
    /// approximate agreement, whose outputs legitimately differ.
    pub fn agreement<T>(&self, run: &TwinOutcome<T>) -> bool {
        let values: BTreeSet<&String> = run.net.values().map(|(out, _)| out).collect();
        run.net.len() == self.n && (self.algo == Algo::Approx || values.len() <= 1)
    }

    /// The cell's obligation, stated once: `Ok` with the verdict the
    /// tables print, or the failing verdict and what exactly broke.
    ///
    /// # Errors
    ///
    /// `MISMATCH`, `DISAGREEMENT` or `VIOLATION`, with the reason.
    pub fn judge<T>(&self, run: &TwinOutcome<T>) -> Result<&'static str, (&'static str, String)> {
        if self.duty == EngineIdentical && !run.engine_identical() {
            let twin = run.engine.as_ref().map(|t| &t.outcomes);
            return Err(("MISMATCH", format!("engine {twin:?} vs net {:?}", run.net)));
        }
        if !self.agreement(run) {
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
    pub(crate) fn verdict<T>(&self, run: &TwinOutcome<T>) -> &'static str {
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
    fn wan_profiles_parse_and_materialize() {
        for wan in [Wan::Geo, Wan::Lossy, Wan::Partition] {
            assert_eq!(Wan::parse(wan.name()), Some(wan));
        }
        for name in ["dialup", "clean", "custom"] {
            assert_eq!(Wan::parse(name), None, "{name}");
        }

        let ids: Vec<NodeId> = (1..=4).map(NodeId::new).collect();
        let geo = Wan::Geo.plan(1, &ids);
        // Nodes 1 and 4 share region 0 (round-robin of 4 over 3 regions);
        // 1 -> 2 crosses regions 0 -> 1.
        assert_eq!(geo.spec(ids[0], ids[3]).latency, Duration::from_millis(2));
        assert_eq!(geo.spec(ids[0], ids[1]).latency, Duration::from_millis(10));
        assert!(!geo.is_zero_impairment());

        let lossy = Wan::Lossy.plan(1, &ids);
        assert_eq!(lossy.spec(ids[0], ids[1]).loss_ppm, 20_000);

        let partition = Wan::Partition.plan(1, &ids);
        assert!(partition.severed(ids[0], ids[2], 3));
        assert!(!partition.severed(ids[0], ids[1], 3), "same side");
        assert!(!partition.severed(ids[0], ids[2], 5), "healed");
    }

    /// FNV-1a over `bytes`: a digest fixed by its definition.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The plan of every impaired T13 cell, rendered with `{:?}` over the
    /// cell's ids and seed, is pinned: the links, their specs, the cut
    /// and the heal round are all in the rendering.
    #[test]
    fn t13_link_plans_are_pinned() {
        let pinned: &[(&str, u64)] = &[
            ("t13-geo-consensus-n4-seed42", 16_105_919_256_118_050_091),
            ("t13-lossy-consensus-n4-seed42", 11_861_405_020_729_151_036),
            (
                "t13-partition-consensus-n4-seed42",
                1_541_624_170_121_733_828,
            ),
            ("t13-geo-reliable-n4-seed42", 16_105_919_256_118_050_091),
            ("t13-lossy-reliable-n4-seed42", 11_861_405_020_729_151_036),
            (
                "t13-partition-reliable-n5-seed11",
                3_015_921_960_134_043_168,
            ),
        ];
        let rendered: Vec<(String, u64)> = twins(Family::T13)
            .filter(|cell| cell.scenario.wan.is_some_and(|wan| wan.name() != "clean"))
            .map(|cell| {
                let plan = format!("{:?}", cell.link_plan().expect("a T13 cell has a plan"));
                (cell.name(), fnv1a(plan.as_bytes()))
            })
            .collect();
        let pinned: Vec<(String, u64)> = pinned
            .iter()
            .map(|&(name, digest)| (name.to_string(), digest))
            .collect();
        assert_eq!(rendered, pinned);
    }

    #[test]
    fn cell_names_are_unique() {
        let names: BTreeSet<String> = GRID.iter().map(Cell::name).collect();
        assert_eq!(names.len(), GRID.len());
    }
}
