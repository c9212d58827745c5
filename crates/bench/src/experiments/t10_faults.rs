//! T10 — fault-injection soak: sampled fault plans + online monitors.
//!
//! Paper claims validated:
//! - within the `n > 3f` budget, benign faults (crash-stop, crash-recovery,
//!   omission, lossy links) sampled by [`FaultPlan::sample`] and composed
//!   with each algorithm's strongest Byzantine attack never violate an
//!   online invariant — over ≥ 100 sampled plans per algorithm;
//! - once `f ≥ n/3`, the online monitors catch the violation and pinpoint
//!   its **first** round, and the greedy schedule shrinker reduces the
//!   sampled plan to a minimal reproduction (usually the empty plan: the
//!   Byzantine nodes alone already break the guarantee).
//!
//! Every case is reproducible from `(algorithm, sweep, seed)` alone; the
//! `soak` binary re-runs any subset from the command line.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use uba_adversary::attacks::{ApproxExtremist, ConsensusEquivocator, RotorSplitAdversary};
use uba_core::approx::ApproxAgreement;
use uba_core::consensus::EarlyConsensus;
use uba_core::harness::Setup;
use uba_core::monitor::{
    AgreementMonitor, ApproxMonitor, RelayMonitor, UnforgeabilityMonitor, ValidityMonitor,
};
use uba_core::observe;
use uba_core::reliable::{RbMsg, ReliableBroadcast};
use uba_core::rotor::RotorCoordinator;
use uba_core::spec;
use uba_sim::{
    Adversary, AdversaryOutbox, AdversaryView, EngineError, FaultPlan, FaultUniverse, FnAdversary,
    MonitorSet, NodeId, Process, SyncEngine,
};
use uba_trace::{Fanout, Metrics, RingTracer, SharedTracer};

use crate::Table;

/// The algorithms the soak exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Early-terminating consensus (Algorithm 3) vs the equivocator.
    Consensus,
    /// Reliable broadcast (Algorithm 1) vs an echo forger.
    Reliable,
    /// Approximate agreement (Algorithm 4) vs the extremist.
    Approx,
    /// The rotor-coordinator (Algorithm 2) vs the candidate splitter.
    Rotor,
}

impl Algo {
    /// All soaked algorithms, in presentation order.
    pub const ALL: [Algo; 4] = [Algo::Consensus, Algo::Reliable, Algo::Approx, Algo::Rotor];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Consensus => "consensus",
            Algo::Reliable => "reliable bcast",
            Algo::Approx => "approx",
            Algo::Rotor => "rotor",
        }
    }

    /// File-name-safe identifier (no spaces), also the CLI token.
    pub fn slug(self) -> &'static str {
        match self {
            Algo::Consensus => "consensus",
            Algo::Reliable => "reliable",
            Algo::Approx => "approx",
            Algo::Rotor => "rotor",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Algo> {
        match s {
            "consensus" => Some(Algo::Consensus),
            "reliable" => Some(Algo::Reliable),
            "approx" => Some(Algo::Approx),
            "rotor" => Some(Algo::Rotor),
            _ => None,
        }
    }

    /// Distinct seed base so no two algorithms share a node population.
    fn seed_base(self) -> u64 {
        match self {
            Algo::Consensus => 10_000,
            Algo::Reliable => 20_000,
            Algo::Approx => 30_000,
            Algo::Rotor => 40_000,
        }
    }

    /// Horizon (last round) for injected faults: long enough to hit the
    /// algorithm's whole critical window.
    fn fault_horizon(self) -> u64 {
        match self {
            Algo::Consensus => 12,
            Algo::Reliable => 6,
            Algo::Approx => 5,
            Algo::Rotor => 12,
        }
    }

    /// First round eligible for faults. Consensus freezes its participant
    /// estimate in round 3; a node crashed across that window can never
    /// rejoin the instance (that scenario is churn, not crash-recovery), so
    /// its faults start afterwards.
    fn fault_onset(self) -> u64 {
        match self {
            Algo::Consensus => 4,
            _ => 1,
        }
    }
}

/// One point of the sweep grid: how many correct, Byzantine and
/// benign-faulted nodes a case uses.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    /// Number of correct nodes (pristine + benign victims).
    pub correct: usize,
    /// Number of Byzantine nodes.
    pub byzantine: usize,
    /// Number of correct nodes the fault plan may touch.
    pub victims: usize,
}

impl Sweep {
    /// The in-budget sweep: `n = 10`, `b + |victims| = 3 = ⌊(n−1)/3⌋`.
    pub const HEALTHY: Sweep = Sweep {
        correct: 9,
        byzantine: 1,
        victims: 2,
    };

    /// The over-budget sweep: `n = 12` with 4 Byzantine nodes, so
    /// `f ≥ n/3` even before any benign fault is charged.
    pub const BROKEN: Sweep = Sweep {
        correct: 8,
        byzantine: 4,
        victims: 2,
    };

    /// Total node count.
    pub fn n(&self) -> usize {
        self.correct + self.byzantine
    }

    /// The fault budget the sweep consumes (Byzantine + benign victims).
    pub fn f(&self) -> usize {
        self.byzantine + self.victims
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        if self.n() > 3 * self.f() {
            "healthy"
        } else {
            "broken"
        }
    }
}

/// The sampled node population of one case.
struct Topology {
    setup: Setup,
    /// Correct nodes the plan never touches; all invariants are over these.
    pristine: Vec<NodeId>,
    /// Correct nodes the plan may fault.
    victims: Vec<NodeId>,
}

fn topology(algo: Algo, sweep: &Sweep, seed: u64) -> Topology {
    let setup = Setup::new(sweep.correct, sweep.byzantine, algo.seed_base() + seed);
    let split = sweep.correct - sweep.victims;
    Topology {
        pristine: setup.correct[..split].to_vec(),
        victims: setup.correct[split..].to_vec(),
        setup,
    }
}

/// Samples the case's fault plan (a pure function of `(algo, sweep, seed)`).
pub fn build_plan(algo: Algo, sweep: &Sweep, seed: u64) -> FaultPlan {
    let topo = topology(algo, sweep, seed);
    let mut population = topo.setup.correct.clone();
    population.extend(topo.setup.faulty.iter().copied());
    let universe = FaultUniverse::new(topo.victims, population, algo.fault_horizon())
        .starting_at(algo.fault_onset());
    FaultPlan::sample(seed, &universe)
}

/// The scripted crash→recover family: every benign victim crashes partway
/// into the algorithm's fault window and recovers two rounds later, all
/// composed with the algorithm's strongest Byzantine attack. A
/// deterministic complement to [`build_plan`]'s sampling, which may or may
/// not draw a crash/recover pair — this family guarantees the recovery
/// path is exercised on every run.
pub fn build_crash_recover_plan(algo: Algo, sweep: &Sweep, seed: u64) -> FaultPlan {
    let topo = topology(algo, sweep, seed);
    let onset = algo.fault_onset();
    let horizon = algo.fault_horizon();
    // Latest eligible crash round keeping `recover = crash + 2 ≤ horizon`.
    let span = horizon.saturating_sub(onset + 2).max(1);
    let mut plan = FaultPlan::new();
    for (i, &victim) in topo.victims.iter().enumerate() {
        let crash_round = onset + (seed + i as u64) % span;
        plan.crash(crash_round, victim);
        plan.recover(crash_round + 2, victim);
    }
    plan
}

/// Why one soak case failed.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// First violating round, when an online monitor caught it; `None` for
    /// post-hoc failures (liveness, missing good round).
    pub round: Option<u64>,
    /// Name of the monitor (property) that fired, when one did.
    pub monitor: Option<String>,
    /// Ids of the offending nodes, when blame is attributable.
    pub nodes: Vec<NodeId>,
    /// Human-readable description.
    pub detail: String,
}

impl CaseFailure {
    fn post_hoc(detail: String) -> Self {
        CaseFailure {
            round: None,
            monitor: None,
            nodes: Vec::new(),
            detail,
        }
    }

    fn post_hoc_blaming(nodes: Vec<NodeId>, detail: String) -> Self {
        CaseFailure {
            nodes,
            ..CaseFailure::post_hoc(detail)
        }
    }
}

fn engine_failure(err: EngineError) -> CaseFailure {
    let (round, monitor, nodes) = match &err {
        EngineError::InvariantViolated(report) => (
            Some(report.round),
            Some(report.spec.clone()),
            report.nodes.clone(),
        ),
        EngineError::FaultedNodeActed { round, node }
        | EngineError::MissingNode { round, node } => (Some(*round), None, vec![*node]),
        EngineError::AcquaintanceViolation { round, from, to } => {
            (Some(*round), None, vec![*from, *to])
        }
        EngineError::MaxRoundsExceeded { undecided, .. } => (None, None, undecided.clone()),
    };
    CaseFailure {
        round,
        monitor,
        nodes,
        detail: err.to_string(),
    }
}

/// Drives `engine` until every pristine node decided or `budget` rounds
/// elapsed, returning the pristine outputs.
fn drive<P, A>(
    engine: &mut SyncEngine<P, A>,
    budget: u64,
    pristine: &[NodeId],
) -> Result<BTreeMap<NodeId, P::Output>, CaseFailure>
where
    P: Process,
    A: Adversary<P::Msg>,
{
    for _ in 0..budget {
        engine.try_run_round().map_err(engine_failure)?;
        let outputs = engine.outputs();
        if pristine.iter().all(|id| outputs.contains_key(id)) {
            return Ok(outputs
                .into_iter()
                .filter(|(id, _)| pristine.contains(id))
                .collect());
        }
    }
    let outputs = engine.outputs();
    let stuck: Vec<NodeId> = pristine
        .iter()
        .copied()
        .filter(|id| !outputs.contains_key(id))
        .collect();
    Err(CaseFailure::post_hoc_blaming(
        stuck.clone(),
        format!("liveness: {stuck:?} undecided after {budget} rounds"),
    ))
}

fn consensus_case(
    sweep: &Sweep,
    seed: u64,
    plan: &FaultPlan,
    tracer: Option<&CaseTracer>,
) -> Option<CaseFailure> {
    let topo = topology(Algo::Consensus, sweep, seed);
    let inputs: BTreeMap<NodeId, u64> = topo
        .setup
        .correct
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, (i % 2) as u64))
        .collect();
    let monitors = MonitorSet::new()
        .with(AgreementMonitor::new(topo.pristine.iter().copied()))
        .with(ValidityMonitor::new(inputs.clone()));
    let mut builder = SyncEngine::builder()
        .correct_many(
            topo.setup
                .correct
                .iter()
                .map(|&id| EarlyConsensus::new(id, inputs[&id])),
        )
        .faulty_many(topo.setup.faulty.iter().copied())
        .adversary(ConsensusEquivocator::new(0u64, 1u64))
        .faults(plan.clone())
        .monitor(monitors);
    if let Some(handle) = tracer {
        builder = builder.tracer(handle.clone()).observe(observe::probe);
    }
    let mut engine = builder.build();
    let budget = 2 + 5 * (topo.setup.n() as u64 + 4);
    drive(&mut engine, budget, &topo.pristine).err()
}

fn reliable_case(
    sweep: &Sweep,
    seed: u64,
    plan: &FaultPlan,
    tracer: Option<&CaseTracer>,
) -> Option<CaseFailure> {
    let topo = topology(Algo::Reliable, sweep, seed);
    let healthy = sweep.n() > 3 * sweep.f();
    // Healthy sweep: a pristine sender broadcasts and the relay property is
    // monitored. Broken sweep: the sender stays silent and the forger tries
    // to sneak an acceptance past the unforgeability monitor.
    let sender = topo.pristine[0];
    let payload: u64 = 7;
    let forger = FnAdversary::new(
        move |view: &AdversaryView<'_, RbMsg<u64>>, out: &mut AdversaryOutbox<RbMsg<u64>>| {
            for &b in view.faulty.iter() {
                out.broadcast(b, RbMsg::Echo(99));
                if view.round > 1 {
                    out.broadcast(b, RbMsg::Echo(payload));
                }
            }
        },
    );
    let mut monitors = MonitorSet::new().with(RelayMonitor::new(topo.pristine.iter().copied()));
    if !healthy {
        monitors =
            MonitorSet::new().with(UnforgeabilityMonitor::new(topo.pristine.iter().copied()));
    }
    let mut builder = SyncEngine::builder()
        .correct_many(topo.setup.correct.iter().map(|&id| {
            let m = (healthy && id == sender).then_some(payload);
            ReliableBroadcast::new(id, sender, m).with_horizon(8)
        }))
        .faulty_many(topo.setup.faulty.iter().copied())
        .adversary(forger)
        .faults(plan.clone())
        .monitor(monitors);
    if let Some(handle) = tracer {
        builder = builder.tracer(handle.clone()).observe(observe::probe);
    }
    let mut engine = builder.build();
    let outputs = match drive(&mut engine, 10, &topo.pristine) {
        Ok(outputs) => outputs,
        Err(fail) => return Some(fail),
    };
    if healthy {
        for (id, accepted) in &outputs {
            if !accepted.contains_key(&payload) {
                return Some(CaseFailure::post_hoc(format!(
                    "correctness: {id} never accepted the pristine sender's payload"
                )));
            }
        }
    }
    None
}

fn approx_case(
    sweep: &Sweep,
    seed: u64,
    plan: &FaultPlan,
    tracer: Option<&CaseTracer>,
) -> Option<CaseFailure> {
    let topo = topology(Algo::Approx, sweep, seed);
    const ITERATIONS: u32 = 2;
    let inputs: BTreeMap<NodeId, f64> = topo
        .setup
        .correct
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i as f64))
        .collect();
    let mut builder = SyncEngine::builder()
        .correct_many(
            topo.setup.correct.iter().map(|&id| {
                ApproxAgreement::new(id, inputs[&id]).with_iterations(ITERATIONS as u64)
            }),
        )
        .faulty_many(topo.setup.faulty.iter().copied())
        .adversary(ApproxExtremist::new(1e9))
        .faults(plan.clone())
        .monitor(
            ApproxMonitor::new(inputs.clone(), ITERATIONS).watched(topo.pristine.iter().copied()),
        );
    if let Some(handle) = tracer {
        builder = builder.tracer(handle.clone()).observe(observe::probe);
    }
    let mut engine = builder.build();
    let outputs = match drive(&mut engine, 10, &topo.pristine) {
        Ok(outputs) => outputs,
        Err(fail) => return Some(fail),
    };
    // Contraction over the pristine outputs (the monitor only checks it
    // when every watched node terminates, which crashed victims never do).
    let report = spec::approx_contraction(&inputs, &outputs, ITERATIONS);
    if !report.holds() {
        return Some(CaseFailure::post_hoc(report.violations.join("; ")));
    }
    None
}

fn rotor_case(
    sweep: &Sweep,
    seed: u64,
    plan: &FaultPlan,
    tracer: Option<&CaseTracer>,
) -> Option<CaseFailure> {
    let topo = topology(Algo::Rotor, sweep, seed);
    let mut builder = SyncEngine::builder()
        .correct_many(
            topo.setup
                .correct
                .iter()
                .map(|&id| RotorCoordinator::new(id, id.raw())),
        )
        .faulty_many(topo.setup.faulty.iter().copied())
        .adversary(RotorSplitAdversary::new())
        .faults(plan.clone());
    if let Some(handle) = tracer {
        builder = builder.tracer(handle.clone()).observe(observe::probe);
    }
    let mut engine = builder.build();
    let outputs = match drive(&mut engine, 60, &topo.pristine) {
        Ok(outputs) => outputs,
        Err(fail) => return Some(fail),
    };
    // The rotor's existential guarantee: some selection round is *good* —
    // every pristine node selected the same pristine coordinator.
    let pristine_set: BTreeSet<NodeId> = topo.pristine.iter().copied().collect();
    let mut iter = outputs.values();
    let first = iter.next().expect("at least one pristine node");
    let mut common: BTreeSet<(u64, NodeId)> = first
        .selections
        .iter()
        .copied()
        .filter(|(_, c)| pristine_set.contains(c))
        .collect();
    for outcome in iter {
        let theirs: BTreeSet<(u64, NodeId)> = outcome.selections.iter().copied().collect();
        common = common.intersection(&theirs).copied().collect();
    }
    if common.is_empty() {
        return Some(CaseFailure::post_hoc(
            "no good round: pristine nodes never unanimously selected a pristine coordinator"
                .to_string(),
        ));
    }
    None
}

/// The tracer stack a traced case installs: a bounded ring of the last
/// events, fanned out with the metrics registry, behind a shared handle so
/// the harness can read both back after the engine is done.
pub type CaseTracer = SharedTracer<Fanout<RingTracer, Metrics>>;

/// Runs one case: a single algorithm under a single fault plan.
pub fn run_case(algo: Algo, sweep: &Sweep, seed: u64, plan: &FaultPlan) -> Option<CaseFailure> {
    run_case_with(algo, sweep, seed, plan, None)
}

fn run_case_with(
    algo: Algo,
    sweep: &Sweep,
    seed: u64,
    plan: &FaultPlan,
    tracer: Option<&CaseTracer>,
) -> Option<CaseFailure> {
    match algo {
        Algo::Consensus => consensus_case(sweep, seed, plan, tracer),
        Algo::Reliable => reliable_case(sweep, seed, plan, tracer),
        Algo::Approx => approx_case(sweep, seed, plan, tracer),
        Algo::Rotor => rotor_case(sweep, seed, plan, tracer),
    }
}

/// One case re-run with full tracing: the outcome plus the captured event
/// window and derived metrics.
#[derive(Debug, Clone)]
pub struct TracedCase {
    /// The case's outcome (identical to the untraced run — tracing never
    /// perturbs the schedule).
    pub failure: Option<CaseFailure>,
    /// The retained trace window (`--trace-last-n` events); its JSONL is
    /// byte-identical across runs for a fixed `(algo, sweep, seed, plan)`.
    pub trace: RingTracer,
    /// Metrics derived from the full event stream (dropped events included).
    pub metrics: Metrics,
}

/// Re-runs one case with the [`CaseTracer`] stack installed, keeping the
/// last `last_n` events.
pub fn run_case_traced(
    algo: Algo,
    sweep: &Sweep,
    seed: u64,
    plan: &FaultPlan,
    last_n: usize,
) -> TracedCase {
    let handle: CaseTracer = SharedTracer::new(Fanout(RingTracer::new(last_n), Metrics::default()));
    let failure = run_case_with(algo, sweep, seed, plan, Some(&handle));
    let (trace, metrics) = handle.with(|fan| (fan.0.clone(), fan.1.clone()));
    TracedCase {
        failure,
        trace,
        metrics,
    }
}

/// Where a sweep's postmortem dump goes: `dir` joined with
/// `soak-postmortem-<algo>-<sweep>-seed<seed>.jsonl` (a name CI can glob).
pub fn postmortem_path(dir: &Path, algo: Algo, sweep: &Sweep, seed: u64) -> PathBuf {
    dir.join(format!(
        "soak-postmortem-{}-{}-seed{}.jsonl",
        algo.slug(),
        sweep.name(),
        seed
    ))
}

/// Re-runs a shrunk reproduction with tracing and writes the full JSONL
/// next to the report, plus the derived metrics registry as a sibling
/// `.metrics.json` document ([`Metrics::to_json`]: schema-versioned,
/// sorted keys) so a postmortem carries its aggregate shape — counters and
/// histograms — alongside the raw event window. Returns the traced case
/// and the JSONL path written.
pub fn write_postmortem(
    dir: &Path,
    algo: Algo,
    sweep: &Sweep,
    repro: &FailureRepro,
    last_n: usize,
) -> std::io::Result<(TracedCase, PathBuf)> {
    let traced = run_case_traced(algo, sweep, repro.seed, &repro.plan, last_n);
    std::fs::create_dir_all(dir)?;
    let path = postmortem_path(dir, algo, sweep, repro.seed);
    std::fs::write(&path, traced.trace.to_jsonl())?;
    std::fs::write(
        path.with_extension("metrics.json"),
        traced.metrics.to_json(),
    )?;
    Ok((traced, path))
}

/// Greedy schedule shrinker: repeatedly drops single events whose removal
/// keeps the case failing, until no single removal does.
pub fn shrink_plan<F: Fn(&FaultPlan) -> Option<CaseFailure>>(
    still_fails: F,
    plan: &FaultPlan,
) -> FaultPlan {
    let mut current = plan.clone();
    'outer: loop {
        for i in 0..current.len() {
            let candidate = current.without_event(i);
            if still_fails(&candidate).is_some() {
                current = candidate;
                continue 'outer;
            }
        }
        return current;
    }
}

/// A minimal reproduction of the sweep's first failure.
#[derive(Debug, Clone)]
pub struct FailureRepro {
    /// Seed of the failing case.
    pub seed: u64,
    /// First violating round, when an online monitor pinpointed one.
    pub round: Option<u64>,
    /// Name of the monitor that fired, when one did.
    pub monitor: Option<String>,
    /// Offending nodes, when blame is attributable.
    pub nodes: Vec<NodeId>,
    /// Failure description (after shrinking).
    pub detail: String,
    /// The shrunk, minimal fault plan that still reproduces the failure.
    pub plan: FaultPlan,
}

impl FailureRepro {
    /// Compact single-line rendering (the format documented in
    /// EXPERIMENTS.md). The detail is clipped to the first listed violation;
    /// the `soak` binary prints the full report.
    pub fn render(&self) -> String {
        let round = self
            .round
            .map(|r| r.to_string())
            .unwrap_or_else(|| "-".to_string());
        let events: Vec<String> = self
            .plan
            .events()
            .map(|(r, f)| format!("{f}@{r}"))
            .collect();
        let detail = self.detail.split("; ").next().unwrap_or(&self.detail);
        format!(
            "seed={} round={} plan={{{}}} {}",
            self.seed,
            round,
            events.join(", "),
            detail
        )
    }
}

/// Aggregate result of soaking one algorithm over one sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The soaked algorithm.
    pub algo: Algo,
    /// The sweep grid point.
    pub sweep: Sweep,
    /// Number of sampled fault plans run.
    pub cases: u64,
    /// Number of failing cases.
    pub failures: u64,
    /// Shrunk reproduction of the first failure, if any.
    pub first_failure: Option<Box<FailureRepro>>,
}

/// Soaks `algo` over `seeds` sampled fault plans on the given sweep.
pub fn soak(algo: Algo, sweep: Sweep, seeds: u64) -> SweepReport {
    soak_jobs(algo, sweep, seeds, 1)
}

/// Like [`soak`], running the independent seed trials on up to `jobs`
/// worker threads. Every trial is a pure function of
/// `(algo, sweep, seed)`; results are merged in seed order and the shrink
/// pass runs once on the smallest failing seed, so the report is
/// byte-identical to the sequential run.
pub fn soak_jobs(algo: Algo, sweep: Sweep, seeds: u64, jobs: usize) -> SweepReport {
    sweep_report(algo, sweep, seeds, jobs, |seed| {
        build_plan(algo, &sweep, seed)
    })
}

/// Runs `algo` on `sweep` under `plan_of(seed)` for every seed below
/// `seeds` (on up to `jobs` workers), counts the failing seeds and shrinks
/// the smallest one into the report's [`FailureRepro`].
fn sweep_report(
    algo: Algo,
    sweep: Sweep,
    seeds: u64,
    jobs: usize,
    plan_of: impl Fn(u64) -> FaultPlan + Sync,
) -> SweepReport {
    let results = crate::runner::run_indexed(jobs, seeds as usize, |i| {
        let seed = i as u64;
        let plan = plan_of(seed);
        run_case(algo, &sweep, seed, &plan).map(|failure| (seed, plan, failure))
    });
    let failing: Vec<_> = results.into_iter().flatten().collect();
    let failures = failing.len() as u64;
    let first_failure = failing.into_iter().next().map(|(seed, plan, failure)| {
        let shrunk = shrink_plan(|p| run_case(algo, &sweep, seed, p), &plan);
        let after = run_case(algo, &sweep, seed, &shrunk).unwrap_or(failure);
        Box::new(FailureRepro {
            seed,
            round: after.round,
            monitor: after.monitor,
            nodes: after.nodes,
            detail: after.detail,
            plan: shrunk,
        })
    });
    SweepReport {
        algo,
        sweep,
        cases: seeds,
        failures,
        first_failure,
    }
}

/// Seeds per algorithm in the healthy sweep of [`run`].
pub const HEALTHY_SEEDS: u64 = 100;
/// Seeds per algorithm in the broken sweep of [`run`].
pub const BROKEN_SEEDS: u64 = 25;
/// Seeds per algorithm in the crash→recover family of [`run`].
pub const CRASH_RECOVER_SEEDS: u64 = 50;

/// Soaks `algo` over the scripted crash→recover family on the healthy
/// sweep: `seeds` deterministic plans from [`build_crash_recover_plan`],
/// each run against the algorithm's attack with the monitors installed.
pub fn crash_recover_family(algo: Algo, seeds: u64) -> SweepReport {
    let sweep = Sweep::HEALTHY;
    sweep_report(algo, sweep, seeds, 1, |seed| {
        build_crash_recover_plan(algo, &sweep, seed)
    })
}

/// Runs experiment T10.
pub fn run() -> Vec<Table> {
    run_with_postmortem(None)
}

/// Like [`run`], but when `postmortem` supplies `(directory, last_n)` every
/// sweep's first failure is re-run with tracing and dumped as JSONL via
/// [`write_postmortem`] (the `--trace-out` / `--trace-last-n` flags).
pub fn run_with_postmortem(postmortem: Option<(&Path, usize)>) -> Vec<Table> {
    let mut table = Table::new(
        "T10 — fault-injection soak: sampled fault plans composed with each algorithm's attack, online monitors on the pristine nodes",
        &["algorithm", "sweep", "n", "f", "cases", "violations", "first repro (shrunk)"],
    );
    for (sweep, seeds) in [
        (Sweep::HEALTHY, HEALTHY_SEEDS),
        (Sweep::BROKEN, BROKEN_SEEDS),
    ] {
        for algo in Algo::ALL {
            let report = soak(algo, sweep, seeds);
            if let (Some((dir, last_n)), Some(first)) =
                (postmortem, report.first_failure.as_deref())
            {
                match write_postmortem(dir, algo, &sweep, first, last_n) {
                    Ok((_, path)) => eprintln!("postmortem trace: {}", path.display()),
                    Err(err) => eprintln!("postmortem trace write failed: {err}"),
                }
            }
            table.row(&[
                algo.name().to_string(),
                sweep.name().to_string(),
                sweep.n().to_string(),
                sweep.f().to_string(),
                report.cases.to_string(),
                report.failures.to_string(),
                report
                    .first_failure
                    .as_deref()
                    .map(FailureRepro::render)
                    .unwrap_or_default(),
            ]);
        }
    }
    let mut family = Table::new(
        "T10 — scripted crash→recover family: every victim crashes mid-window and recovers two rounds later, composed with the attack (healthy sweep)",
        &["algorithm", "n", "f", "cases", "violations", "first repro (shrunk)"],
    );
    for algo in Algo::ALL {
        let report = crash_recover_family(algo, CRASH_RECOVER_SEEDS);
        family.row(&[
            algo.name().to_string(),
            report.sweep.n().to_string(),
            report.sweep.f().to_string(),
            report.cases.to_string(),
            report.failures.to_string(),
            report
                .first_failure
                .as_deref()
                .map(FailureRepro::render)
                .unwrap_or_default(),
        ]);
    }
    vec![table, family]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t10_healthy_sweep_is_clean() {
        for algo in Algo::ALL {
            let report = soak(algo, Sweep::HEALTHY, 30);
            assert_eq!(
                report.failures,
                0,
                "{} failed in-budget: {}",
                algo.name(),
                report
                    .first_failure
                    .as_deref()
                    .map(FailureRepro::render)
                    .unwrap_or_default()
            );
        }
    }

    #[test]
    fn t10_crash_recover_family_is_clean() {
        for algo in Algo::ALL {
            let report = crash_recover_family(algo, 20);
            assert_eq!(
                report.failures,
                0,
                "{} violated an invariant under scripted crash→recover: {}",
                algo.name(),
                report
                    .first_failure
                    .as_deref()
                    .map(FailureRepro::render)
                    .unwrap_or_default()
            );
        }
    }

    #[test]
    fn t10_broken_sweep_pinpoints_the_first_round() {
        let report = soak(Algo::Consensus, Sweep::BROKEN, 10);
        assert!(report.failures > 0, "equivocator too weak at f >= n/3");
        let first = report.first_failure.expect("a failure was recorded");
        assert!(
            first.round.is_some(),
            "the monitor pinpoints the first violating round: {}",
            first.render()
        );
    }

    #[test]
    fn t10_shrinker_reaches_a_fixpoint() {
        let report = soak(Algo::Consensus, Sweep::BROKEN, 3);
        let first = report.first_failure.expect("a failure was recorded");
        // Every single-event removal from the shrunk plan must repair the
        // case — otherwise the shrinker stopped early.
        for i in 0..first.plan.len() {
            let candidate = first.plan.without_event(i);
            assert!(
                run_case(Algo::Consensus, &Sweep::BROKEN, first.seed, &candidate).is_some(),
                "shrunk plan is not minimal: event {i} is removable"
            );
        }
    }
}
