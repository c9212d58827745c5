//! Fault-injection soak runner (experiment T10, standalone).
//!
//! Samples deterministic fault plans, composes them with each algorithm's
//! strongest Byzantine attack, and checks the paper's invariants online via
//! the engine's monitor hook. On failure it prints a greedily shrunk,
//! minimal reproducing fault plan, re-runs it with full tracing, writes the
//! postmortem JSONL next to the report, and exits non-zero naming the
//! violated monitor and the offending nodes.
//!
//! Usage:
//! ```text
//! cargo run -p uba-bench --release --bin soak                    # full soak
//! cargo run -p uba-bench --release --bin soak -- --seeds 10      # quick smoke
//! cargo run -p uba-bench --release --bin soak -- --broken        # include f >= n/3
//! cargo run -p uba-bench --release --bin soak -- consensus rotor # algorithm subset
//! cargo run -p uba-bench --release --bin soak -- --trace-out target  # dump dir
//! cargo run -p uba-bench --release --bin soak -- --trace-last-n 500  # window size
//! cargo run -p uba-bench --release --bin soak -- --jobs 4        # parallel seeds
//! ```
//!
//! Every case is reproducible from `(algorithm, sweep, seed)` alone, the
//! postmortem trace is byte-identical across re-runs of the same case, and
//! `--jobs N` only changes wall-clock time: reports are merged in seed order
//! and match the sequential output byte for byte.

use std::process::ExitCode;

use uba_bench::cli::{parse_soak_args, SoakArgs};
use uba_bench::experiments::t10_faults::{soak_jobs, write_postmortem, Algo, FailureRepro, Sweep};
use uba_sim::NodeId;

fn main() -> ExitCode {
    let SoakArgs {
        seeds,
        broken,
        mut algos,
        trace_out,
        trace_last_n,
        jobs,
    } = parse_soak_args(std::env::args().skip(1)).unwrap_or_else(|err| err.exit());
    if algos.is_empty() {
        algos = Algo::ALL.to_vec();
    }

    let mut healthy_failure: Option<(Algo, FailureRepro)> = None;
    let mut sweeps = vec![Sweep::HEALTHY];
    if broken {
        sweeps.push(Sweep::BROKEN);
    }
    for sweep in sweeps {
        for &algo in &algos {
            let report = soak_jobs(algo, sweep, seeds, jobs);
            println!(
                "{:<14} {:<8} n={:<3} f={:<2} cases={:<4} violations={}",
                algo.name(),
                sweep.name(),
                sweep.n(),
                sweep.f(),
                report.cases,
                report.failures,
            );
            if let Some(first) = report.first_failure.as_deref() {
                print_repro(first);
                match write_postmortem(&trace_out, algo, &sweep, first, trace_last_n) {
                    Ok((traced, path)) => {
                        println!("  postmortem trace: {}", path.display());
                        println!(
                            "  postmortem metrics: {}",
                            path.with_extension("metrics.json").display()
                        );
                        for line in traced.metrics.summary().lines() {
                            println!("  metrics: {line}");
                        }
                    }
                    Err(err) => eprintln!("  postmortem trace write failed: {err}"),
                }
                if sweep.name() == "healthy" && healthy_failure.is_none() {
                    healthy_failure = Some((algo, first.clone()));
                }
            }
        }
    }
    if let Some((algo, first)) = healthy_failure {
        eprintln!(
            "FAIL: invariant violated within the n > 3f budget: \
             {} seed {}: monitor '{}' blames nodes {}",
            algo.name(),
            first.seed,
            first.monitor.as_deref().unwrap_or("post-hoc check"),
            render_nodes(&first.nodes),
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn render_nodes(nodes: &[NodeId]) -> String {
    if nodes.is_empty() {
        return "(none attributed)".to_string();
    }
    let names: Vec<String> = nodes.iter().map(NodeId::to_string).collect();
    names.join(", ")
}

fn print_repro(repro: &FailureRepro) {
    println!("  first failure: seed={}", repro.seed);
    match repro.round {
        Some(round) => println!("  first violating round: {round}"),
        None => println!("  post-hoc failure (no single violating round)"),
    }
    if let Some(monitor) = repro.monitor.as_deref() {
        println!("  monitor: {monitor}");
    }
    println!("  offending nodes: {}", render_nodes(&repro.nodes));
    println!("  detail: {}", repro.detail);
    if repro.plan.is_empty() {
        println!("  minimal plan: (empty — the Byzantine nodes alone suffice)");
    } else {
        println!("  minimal plan ({} events):", repro.plan.len());
        for (round, fault) in repro.plan.events() {
            println!("    round {round}: {fault}");
        }
    }
}
