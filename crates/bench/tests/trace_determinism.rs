//! PR-2 acceptance tests for the tracing subsystem:
//!
//! - the trace of a case is **byte-identical** across two runs of the same
//!   `(algorithm, sweep, seed, plan)` — for one consensus and one
//!   approximate-agreement algorithm;
//! - a forced invariant violation produces a postmortem JSONL whose final
//!   events identify the violating round, the monitor, and the offending
//!   node ids.

use uba_bench::experiments::t10_faults::{
    build_plan, postmortem_path, run_case_traced, soak, write_postmortem, Algo, Sweep,
};
use uba_sim::TraceEvent;

fn assert_deterministic(algo: Algo, sweep: Sweep, seed: u64) {
    let plan = build_plan(algo, &sweep, seed);
    let first = run_case_traced(
        algo,
        &sweep,
        seed,
        &plan,
        uba_bench::cli::DEFAULT_TRACE_LAST_N,
    );
    let second = run_case_traced(
        algo,
        &sweep,
        seed,
        &plan,
        uba_bench::cli::DEFAULT_TRACE_LAST_N,
    );
    let a = first.trace.to_jsonl();
    let b = second.trace.to_jsonl();
    assert!(
        !a.is_empty(),
        "{}: traced run produced no events",
        algo.name()
    );
    assert_eq!(
        a,
        b,
        "{}: same seed + plan must yield identical JSONL",
        algo.name()
    );
    assert!(
        first.trace.events().any(|e| e.kind() == "round_begin"),
        "round structure reaches the trace"
    );
    assert!(
        first.trace.events().any(|e| e.kind() == "node_state"),
        "the observe hook reaches the trace"
    );
    assert_eq!(
        first.metrics.summary(),
        second.metrics.summary(),
        "{}: derived metrics must be deterministic too",
        algo.name()
    );
}

#[test]
fn consensus_trace_is_byte_identical_across_runs() {
    assert_deterministic(Algo::Consensus, Sweep::HEALTHY, 3);
}

#[test]
fn approx_trace_is_byte_identical_across_runs() {
    assert_deterministic(Algo::Approx, Sweep::HEALTHY, 5);
}

#[test]
fn forced_violation_postmortem_identifies_round_monitor_and_nodes() {
    // The over-budget sweep forces a violation; the shrunk repro is re-run
    // with tracing exactly as the soak binary would on failure.
    let report = soak(Algo::Consensus, Sweep::BROKEN, 3);
    let repro = report.first_failure.expect("the broken sweep fails");
    assert!(repro.monitor.is_some(), "an online monitor caught it");
    assert!(!repro.nodes.is_empty(), "blame is attributed to nodes");

    let dir = std::env::temp_dir().join(format!("uba-trace-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (traced, path) = write_postmortem(
        &dir,
        Algo::Consensus,
        &Sweep::BROKEN,
        &repro,
        uba_bench::cli::DEFAULT_TRACE_LAST_N,
    )
    .expect("dump");
    assert_eq!(
        path,
        postmortem_path(&dir, Algo::Consensus, &Sweep::BROKEN, repro.seed)
    );

    // The violation is the final event of the aborted run.
    let last = traced.trace.events().last().expect("non-empty trace");
    let TraceEvent::MonitorVerdict {
        round,
        monitor,
        ok,
        nodes,
        ..
    } = last
    else {
        panic!("final trace event is {}, not monitor_verdict", last.kind());
    };
    assert!(!ok);
    assert_eq!(
        Some(*round),
        repro.round,
        "verdict names the violating round"
    );
    assert_eq!(Some(monitor.as_str()), repro.monitor.as_deref());
    let expected: Vec<u64> = repro.nodes.iter().map(|id| id.raw()).collect();
    assert_eq!(nodes, &expected, "verdict names the offending nodes");

    // And the JSONL on disk ends with that verdict, machine-readable.
    let jsonl = std::fs::read_to_string(&path).expect("postmortem file");
    let final_line = jsonl.lines().last().expect("non-empty postmortem");
    assert!(
        final_line.contains("\"ev\":\"monitor_verdict\""),
        "{final_line}"
    );
    assert!(final_line.contains("\"ok\":false"), "{final_line}");
    assert!(final_line.contains(monitor.as_str()), "{final_line}");
    for id in &expected {
        assert!(final_line.contains(&id.to_string()), "{final_line}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
