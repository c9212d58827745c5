//! Property tests: the shared-payload (`Arc`/`MsgRef`) delivery path is
//! observationally identical to the per-recipient-clone path it replaced.
//!
//! The fixed-case anchors live in `tests/golden_traces.rs` (byte-exact
//! JSONL pinned **before** the refactor) and `tests/trace_determinism.rs`;
//! these properties extend the claim across *random fault plans*: for any
//! sampled plan, the engine's `Stats`, acquaintance sets, and JSONL traces
//! are a pure function of `(algorithm, sweep, seed, plan)` — and tracing
//! itself (which clones payloads into trace records) never perturbs the
//! schedule that payload sharing produces.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use uba_adversary::attacks::ConsensusEquivocator;
use uba_bench::cli::DEFAULT_TRACE_LAST_N;
use uba_bench::experiments::t10_faults::{build_plan, run_case_traced, Algo, Sweep};
use uba_core::consensus::EarlyConsensus;
use uba_core::harness::Setup;
use uba_sim::{FaultPlan, FaultUniverse, NodeId, Stats, SyncEngine};
use uba_trace::{to_json, RingTracer, SharedTracer};

/// Everything one consensus run exposes to an observer.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observation {
    outcome: String,
    stats: Stats,
    acquaintance: BTreeMap<NodeId, BTreeSet<NodeId>>,
    jsonl: Option<String>,
}

/// Runs early-terminating consensus (n = 10, one equivocator) under the
/// sampled fault plan, optionally traced.
fn run_consensus(seed: u64, plan: &FaultPlan, traced: bool) -> Observation {
    let setup = Setup::new(9, 1, 5_000 + seed);
    let builder = SyncEngine::builder()
        .correct_many(
            setup
                .correct
                .iter()
                .enumerate()
                .map(|(i, &id)| EarlyConsensus::new(id, (i % 2) as u64)),
        )
        .faulty_many(setup.faulty.iter().copied())
        .adversary(ConsensusEquivocator::new(0u64, 1u64))
        .faults(plan.clone());
    let handle = traced.then(|| SharedTracer::new(RingTracer::new(DEFAULT_TRACE_LAST_N)));
    let mut engine = match &handle {
        Some(h) => builder.tracer(h.clone()).build(),
        None => builder.build(),
    };
    let outcome = format!("{:?}", engine.run_to_completion(120));
    Observation {
        outcome,
        stats: engine.stats().clone(),
        acquaintance: engine.acquaintance(),
        jsonl: handle
            .map(|h| h.with(|ring| ring.events().map(to_json).collect::<Vec<_>>().join("\n"))),
    }
}

/// The fault-plan universe mirroring the soak's healthy consensus sweep:
/// 2 of the 9 correct nodes are fault victims, faults in rounds 4..=12
/// (consensus freezes its participant estimate in round 3; a node crashed
/// across that window can never rejoin the instance).
fn sample_plan(seed: u64) -> FaultPlan {
    let setup = Setup::new(9, 1, 5_000 + seed);
    let victims = setup.correct[7..].to_vec();
    let mut population = setup.correct.clone();
    population.extend(setup.faulty.iter().copied());
    let universe = FaultUniverse::new(victims, population, 12).starting_at(4);
    FaultPlan::sample(seed, &universe)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Stats, acquaintance sets and the JSONL trace are identical across
    /// repeated runs of the same random fault plan, and an untraced run
    /// observes exactly the same stats and acquaintance — so sharing
    /// payloads introduced no run-to-run or trace-dependent divergence.
    #[test]
    fn shared_delivery_is_observationally_deterministic(seed in 0u64..10_000) {
        let plan = sample_plan(seed);
        let first = run_consensus(seed, &plan, true);
        let second = run_consensus(seed, &plan, true);
        prop_assert_eq!(&first, &second, "traced runs diverged (seed {})", seed);
        prop_assert!(first.jsonl.as_deref().is_some_and(|j| !j.is_empty()));

        let untraced = run_consensus(seed, &plan, false);
        prop_assert_eq!(&untraced.outcome, &first.outcome);
        prop_assert_eq!(&untraced.stats, &first.stats, "tracing perturbed stats");
        prop_assert_eq!(&untraced.acquaintance, &first.acquaintance);
        // Deliveries replayed from the trace match the engine's own counters.
        prop_assert!(first.stats.deliveries > 0);
    }

    /// The soak's own traced cases — every algorithm, random plans — render
    /// byte-identical JSONL across runs, and folding the event stream back
    /// into counters reproduces a consistent `Stats` view.
    #[test]
    fn soak_cases_trace_identically_across_random_plans(
        algo_idx in 0usize..4,
        seed in 0u64..10_000,
    ) {
        let algo = Algo::ALL[algo_idx];
        let plan = build_plan(algo, &Sweep::HEALTHY, seed);
        let first = run_case_traced(algo, &Sweep::HEALTHY, seed, &plan, DEFAULT_TRACE_LAST_N);
        let second = run_case_traced(algo, &Sweep::HEALTHY, seed, &plan, DEFAULT_TRACE_LAST_N);
        prop_assert_eq!(
            first.trace.to_jsonl(),
            second.trace.to_jsonl(),
            "{} seed {}: trace not reproducible",
            algo.name(),
            seed
        );
        prop_assert_eq!(
            Stats::from_events(first.trace.events()),
            Stats::from_events(second.trace.events())
        );
    }
}
