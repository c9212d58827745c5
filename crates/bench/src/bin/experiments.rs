//! Regenerates every table and figure of EXPERIMENTS.md.
//!
//! Usage:
//! ```text
//! cargo run -p uba-bench --release --bin experiments            # all experiments
//! cargo run -p uba-bench --release --bin experiments t3 f1     # a selection
//! cargo run -p uba-bench --release --bin experiments t10 -- --trace-out target
//! cargo run -p uba-bench --release --bin experiments -- --jobs 4
//! ```
//!
//! `--trace-out DIR` (with optional `--trace-last-n N`) makes T10 re-run
//! each sweep's first failure with tracing and write the postmortem JSONL
//! into `DIR`; other experiments ignore the flags. `--jobs N` runs the
//! selected experiments on up to `N` worker threads; tables are printed in
//! selection order regardless, so stdout is byte-identical to a sequential
//! run (stderr progress lines may interleave).

use uba_bench::cli::{parse_experiments_args, ExperimentsArgs};
use uba_bench::experiments::t10_faults;
use uba_bench::runner::run_indexed;
use uba_bench::{run_experiment, Table, EXPERIMENTS};

fn main() {
    let ExperimentsArgs {
        mut selected,
        trace_out,
        trace_last_n,
        jobs,
    } = parse_experiments_args(std::env::args().skip(1)).unwrap_or_else(|err| err.exit());
    if selected.is_empty() {
        selected = EXPERIMENTS.iter().map(|(id, _)| id.to_string()).collect();
    }
    let tables: Vec<Vec<Table>> = run_indexed(jobs, selected.len(), |i| {
        let id = &selected[i];
        eprintln!("running {id}…");
        match (id.as_str(), trace_out.as_deref()) {
            ("t10", Some(dir)) => t10_faults::run_with_postmortem(Some((dir, trace_last_n))),
            _ => run_experiment(id),
        }
    });
    for tables in tables {
        for table in tables {
            println!("{table}");
        }
    }
}
