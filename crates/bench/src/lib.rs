//! # uba-bench — the experiment harness
//!
//! Regenerates every table and figure of EXPERIMENTS.md. The paper is
//! theory-only, so each experiment empirically validates one theorem or
//! complexity claim; the mapping is documented in DESIGN.md §4 and
//! EXPERIMENTS.md.
//!
//! - `cargo run -p uba-bench --bin experiments` prints every table;
//!   `--bin experiments t3` prints a single one.
//! - `cargo run -p uba-bench --bin bench-report -- --check` re-runs the
//!   recorded cells of the T11–T15 grid and compares the seed-determined
//!   facts (rounds, envelopes, frames, bytes, verdicts) byte for byte with
//!   the committed `BENCH_sim.json` / `BENCH_net.json` (see [`report`]);
//!   `--write` regenerates the committed files.
//!
//! All experiments are deterministic per seed and run in seconds on a
//! laptop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod report;
pub mod runner;
pub mod table;

pub use table::Table;

/// One experiment: its id and the function that regenerates its tables.
pub type Experiment = (&'static str, fn() -> Vec<Table>);

/// Every experiment, in presentation order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("t1", experiments::t1_reliable::run),
    ("t2", experiments::t2_rotor::run),
    ("t3", experiments::t3_consensus::run),
    ("f1", experiments::f1_approx::run),
    ("t4", experiments::t4_parallel::run),
    ("t5", experiments::t5_ordering::run),
    ("f2", experiments::f2_synchrony::run),
    ("t6", experiments::t6_resiliency::run),
    ("t7", experiments::t7_baselines::run),
    ("t8", experiments::t8_extensions::run),
    ("t9", experiments::t9_ablation::run_experiment),
    ("t10", experiments::t10_faults::run),
    ("t11", experiments::t11_net::run),
    ("t12", experiments::t12_rejoin::run),
    ("t13", experiments::t13_wan::run),
    ("t14", experiments::t14_logd::run),
    ("t15", experiments::t15_byzantine::run),
];

/// Runs one experiment by id, returning its tables.
///
/// # Panics
///
/// Panics on an unknown id (valid ids are in [`EXPERIMENTS`]; the
/// `experiments` bin rejects unknown ids while parsing its arguments).
pub fn run_experiment(id: &str) -> Vec<Table> {
    let (_, run) = EXPERIMENTS
        .iter()
        .find(|(known, _)| *known == id)
        .unwrap_or_else(|| panic!("unknown experiment id {id:?}"));
    run()
}
