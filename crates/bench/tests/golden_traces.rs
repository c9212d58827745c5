//! Golden-trace pins for the delivery path.
//!
//! The JSONL trace of a healthy soak case is a complete, byte-exact record
//! of what the engine delivered, deduplicated, and observed. The files under
//! `tests/golden/` were generated **before** the shared-payload (`MsgRef`)
//! delivery refactor; this test re-runs the same `(algorithm, sweep, seed)`
//! cases and requires the refactored engine to reproduce those traces byte
//! for byte — same dedup decisions, same delivery order, same stats.
//!
//! Regenerate (only for an intentional, semantics-changing engine change)
//! with:
//!
//! ```text
//! UBA_BLESS=1 cargo test -p uba-bench --test golden_traces
//! ```

use std::path::PathBuf;

use uba_bench::experiments::t10_faults::{build_plan, run_case_traced, Algo, Sweep};
use uba_sim::Stats;

/// Window large enough that no healthy case ever drops an event.
const WINDOW: usize = uba_bench::cli::DEFAULT_TRACE_LAST_N;

/// One pinned case per soaked algorithm.
const CASES: &[(Algo, u64)] = &[
    (Algo::Consensus, 3),
    (Algo::Reliable, 1),
    (Algo::Approx, 5),
    (Algo::Rotor, 2),
];

fn golden_path(algo: Algo, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}-healthy-seed{seed}.jsonl", algo.slug()))
}

#[test]
fn delivery_reproduces_pinned_pre_refactor_traces() {
    let bless = std::env::var_os("UBA_BLESS").is_some();
    for &(algo, seed) in CASES {
        let plan = build_plan(algo, &Sweep::HEALTHY, seed);
        let traced = run_case_traced(algo, &Sweep::HEALTHY, seed, &plan, WINDOW);
        assert!(
            traced.failure.is_none(),
            "{} seed {seed}: healthy pinned case failed: {:?}",
            algo.name(),
            traced.failure
        );
        assert_eq!(traced.trace.dropped(), 0, "window must hold the whole run");
        let jsonl = traced.trace.to_jsonl();
        let path = golden_path(algo, seed);
        if bless {
            std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
            std::fs::write(&path, &jsonl).expect("write golden");
            continue;
        }
        let pinned = std::fs::read_to_string(&path).unwrap_or_else(|err| {
            panic!(
                "missing golden trace {} ({err}); run with UBA_BLESS=1 to generate",
                path.display()
            )
        });
        assert_eq!(
            jsonl,
            pinned,
            "{} seed {seed}: delivery trace drifted from the pinned pre-refactor golden",
            algo.name()
        );
        // A trace that matches the pin byte-for-byte implies the same dedup
        // decisions and the same delivery counts; make the latter explicit by
        // folding the stream back into counters and sanity-checking it is
        // non-trivial.
        let replayed = Stats::from_events(traced.trace.events());
        assert!(replayed.rounds > 0 && replayed.deliveries > 0);
    }
}
