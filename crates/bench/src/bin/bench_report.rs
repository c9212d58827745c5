//! `bench-report` — regenerate or check the committed exact record.
//!
//! ```text
//! bench-report              # run the recorded cells, print both tables
//! bench-report --write      # also rewrite BENCH_sim.json / BENCH_net.json
//! bench-report --check      # compare a fresh run with the committed files
//! ```
//!
//! The documents hold only seed-determined facts, so `--check` is a byte
//! compare: it exits 1 and prints the differing lines when a fresh render
//! is not the committed file, 2 on a usage error or a missing committed
//! file. `cargo run --release -p uba-bench --bin bench-report -- --write`
//! is the reproducible invocation behind the committed numbers.

use std::process::ExitCode;

use uba_bench::cli::{parse_bench_report_args, BenchReportMode};
use uba_bench::report::{bench_path, run_reports};

fn main() -> ExitCode {
    let mode = parse_bench_report_args(std::env::args().skip(1)).unwrap_or_else(|err| err.exit());
    let mut drifted = false;
    for report in run_reports() {
        println!("{}", report.table());
        let path = bench_path(report.kind);
        match mode {
            BenchReportMode::Print => {}
            BenchReportMode::Write => {
                if let Err(err) = std::fs::write(&path, report.to_json()) {
                    eprintln!("writing {}: {err}", path.display());
                    return ExitCode::from(2);
                }
                println!("wrote {}", path.display());
            }
            BenchReportMode::Check => {
                let committed = match std::fs::read_to_string(&path) {
                    Ok(committed) => committed,
                    Err(err) => {
                        eprintln!(
                            "check: cannot read {}: {err} (run with --write first)",
                            path.display()
                        );
                        return ExitCode::from(2);
                    }
                };
                let differing = report.check_against(&committed);
                if differing.is_empty() {
                    println!("check: {} OK against {}", report.kind, path.display());
                } else {
                    drifted = true;
                    eprintln!("check: {} DIFFERS from {}:", report.kind, path.display());
                    for line in differing {
                        eprintln!("  - {line}");
                    }
                }
            }
        }
        println!();
    }
    if drifted {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
