//! Command-line parsing for the `experiments`, `soak` and `bench-report`
//! bins.
//!
//! The first two take the same tracing and parallelism flags; parsing lives
//! here so the defaults exist exactly once and the error paths are
//! unit-testable without spawning a process. A flag given as the *last*
//! argument with no value is reported as "missing value", not smuggled
//! through as `""`.

use std::fmt;
use std::path::PathBuf;

use crate::experiments::t10_faults::{Algo, HEALTHY_SEEDS};
use crate::EXPERIMENTS;

/// Default postmortem ring window (`--trace-last-n`): large enough to keep
/// every event of a shrunk minimal case, small enough that a pathological
/// run stays bounded. Shared by both bins — the only definition.
pub const DEFAULT_TRACE_LAST_N: usize = 65_536;

/// Why the command line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A flag that requires a value was the last argument.
    MissingValue {
        /// The flag missing its value.
        flag: &'static str,
    },
    /// A flag's value failed to parse or was out of range.
    InvalidValue {
        /// The offending flag.
        flag: &'static str,
        /// The value as given.
        value: String,
        /// What the flag expects.
        expected: &'static str,
    },
    /// An argument that is neither a known flag nor a known positional.
    Unknown {
        /// The argument as given.
        arg: String,
        /// What positionals/flags this bin accepts.
        expected: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingValue { flag } => write!(f, "missing value for {flag}"),
            CliError::InvalidValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag} expects {expected}, got {value:?}"),
            CliError::Unknown { arg, expected } => {
                write!(f, "unknown argument {arg:?}; expected {expected}")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// Pulls the value of `flag` from the argument stream, rejecting a missing
/// (or empty) value explicitly.
fn require_value(
    flag: &'static str,
    args: &mut impl Iterator<Item = String>,
) -> Result<String, CliError> {
    match args.next() {
        Some(v) if !v.is_empty() => Ok(v),
        _ => Err(CliError::MissingValue { flag }),
    }
}

/// Parses a `--trace-last-n` value: a positive event count (a zero-length
/// postmortem window would silently drop every event).
fn parse_trace_last_n(value: &str) -> Result<usize, CliError> {
    match value.parse::<usize>() {
        Ok(0) | Err(_) => Err(CliError::InvalidValue {
            flag: "--trace-last-n",
            value: value.to_string(),
            expected: "a positive event count (0 would drop every event)",
        }),
        Ok(n) => Ok(n),
    }
}

/// Parses a `--jobs` value: a positive worker count.
fn parse_jobs(value: &str) -> Result<usize, CliError> {
    match value.parse::<usize>() {
        Ok(0) | Err(_) => Err(CliError::InvalidValue {
            flag: "--jobs",
            value: value.to_string(),
            expected: "a positive worker count",
        }),
        Ok(n) => Ok(n),
    }
}

/// Parsed command line of the `soak` bin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoakArgs {
    /// Sampled fault plans per `(algorithm, sweep)`.
    pub seeds: u64,
    /// Whether to include the over-budget (`f >= n/3`) sweep.
    pub broken: bool,
    /// Algorithm subset (empty = all).
    pub algos: Vec<Algo>,
    /// Directory for postmortem trace dumps.
    pub trace_out: PathBuf,
    /// Postmortem ring window size.
    pub trace_last_n: usize,
    /// Worker threads for the seed sweep.
    pub jobs: usize,
}

impl Default for SoakArgs {
    fn default() -> Self {
        SoakArgs {
            seeds: HEALTHY_SEEDS,
            broken: false,
            algos: Vec::new(),
            trace_out: PathBuf::from("."),
            trace_last_n: DEFAULT_TRACE_LAST_N,
            jobs: 1,
        }
    }
}

/// Parses the `soak` bin's arguments (pass `std::env::args().skip(1)`).
pub fn parse_soak_args(mut args: impl Iterator<Item = String>) -> Result<SoakArgs, CliError> {
    let mut parsed = SoakArgs::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                let value = require_value("--seeds", &mut args)?;
                parsed.seeds = value.parse().map_err(|_| CliError::InvalidValue {
                    flag: "--seeds",
                    value,
                    expected: "a number",
                })?;
            }
            "--broken" => parsed.broken = true,
            "--trace-out" => {
                parsed.trace_out = PathBuf::from(require_value("--trace-out", &mut args)?);
            }
            "--trace-last-n" => {
                let value = require_value("--trace-last-n", &mut args)?;
                parsed.trace_last_n = parse_trace_last_n(&value)?;
            }
            "--jobs" => {
                let value = require_value("--jobs", &mut args)?;
                parsed.jobs = parse_jobs(&value)?;
            }
            other => match Algo::parse(other) {
                Some(algo) => parsed.algos.push(algo),
                None => {
                    return Err(CliError::Unknown {
                        arg: other.to_string(),
                        expected: "--seeds N, --broken, --trace-out DIR, \
                                   --trace-last-n N, --jobs N, or an algorithm \
                                   (consensus, reliable, approx, rotor)"
                            .to_string(),
                    });
                }
            },
        }
    }
    Ok(parsed)
}

/// Parsed command line of the `experiments` bin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentsArgs {
    /// Experiment ids to run (empty = all, in presentation order).
    pub selected: Vec<String>,
    /// Postmortem dump directory for T10, if any.
    pub trace_out: Option<PathBuf>,
    /// Postmortem ring window size.
    pub trace_last_n: usize,
    /// Worker threads across the selected experiments.
    pub jobs: usize,
}

impl Default for ExperimentsArgs {
    fn default() -> Self {
        ExperimentsArgs {
            selected: Vec::new(),
            trace_out: None,
            trace_last_n: DEFAULT_TRACE_LAST_N,
            jobs: 1,
        }
    }
}

/// Parses the `experiments` bin's arguments (pass `std::env::args().skip(1)`).
pub fn parse_experiments_args(
    mut args: impl Iterator<Item = String>,
) -> Result<ExperimentsArgs, CliError> {
    let mut parsed = ExperimentsArgs::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--" => {}
            "--trace-out" => {
                parsed.trace_out = Some(PathBuf::from(require_value("--trace-out", &mut args)?));
            }
            "--trace-last-n" => {
                let value = require_value("--trace-last-n", &mut args)?;
                parsed.trace_last_n = parse_trace_last_n(&value)?;
            }
            "--jobs" => {
                let value = require_value("--jobs", &mut args)?;
                parsed.jobs = parse_jobs(&value)?;
            }
            other if EXPERIMENTS.iter().any(|(id, _)| *id == other) => {
                parsed.selected.push(other.to_string());
            }
            other => {
                let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
                return Err(CliError::Unknown {
                    arg: other.to_string(),
                    expected: format!(
                        "--trace-out DIR, --trace-last-n N, --jobs N, \
                         or an experiment id ({})",
                        ids.join(", ")
                    ),
                });
            }
        }
    }
    Ok(parsed)
}

/// What the `bench-report` bin does with the fresh exact record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchReportMode {
    /// Print the tables only.
    Print,
    /// Also rewrite `BENCH_sim.json` / `BENCH_net.json`.
    Write,
    /// Compare byte for byte with the committed files.
    Check,
}

/// Parses the `bench-report` bin's arguments (pass
/// `std::env::args().skip(1)`): at most one of `--write` and `--check`.
pub fn parse_bench_report_args(
    args: impl Iterator<Item = String>,
) -> Result<BenchReportMode, CliError> {
    let mut mode = BenchReportMode::Print;
    for arg in args {
        mode = match (arg.as_str(), mode) {
            ("--write", BenchReportMode::Print) => BenchReportMode::Write,
            ("--check", BenchReportMode::Print) => BenchReportMode::Check,
            _ => {
                return Err(CliError::Unknown {
                    arg,
                    expected: "--write or --check, at most one of them".to_string(),
                });
            }
        };
    }
    Ok(mode)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv<'a>(args: &'a [&'a str]) -> impl Iterator<Item = String> + 'a {
        args.iter().map(|s| s.to_string())
    }

    #[test]
    fn soak_defaults() {
        let parsed = parse_soak_args(argv(&[])).expect("empty argv parses");
        assert_eq!(parsed, SoakArgs::default());
        assert_eq!(parsed.seeds, HEALTHY_SEEDS);
        assert_eq!(parsed.trace_last_n, DEFAULT_TRACE_LAST_N);
        assert_eq!(parsed.jobs, 1);
    }

    #[test]
    fn soak_full_argv() {
        let parsed = parse_soak_args(argv(&[
            "--seeds",
            "10",
            "--broken",
            "--trace-out",
            "dumps",
            "--trace-last-n",
            "512",
            "--jobs",
            "4",
            "consensus",
            "rotor",
        ]))
        .expect("parses");
        assert_eq!(parsed.seeds, 10);
        assert!(parsed.broken);
        assert_eq!(parsed.trace_out, PathBuf::from("dumps"));
        assert_eq!(parsed.trace_last_n, 512);
        assert_eq!(parsed.jobs, 4);
        assert_eq!(parsed.algos, vec![Algo::Consensus, Algo::Rotor]);
    }

    #[test]
    fn soak_trailing_flag_reports_missing_value() {
        for flag in ["--seeds", "--trace-out", "--trace-last-n", "--jobs"] {
            let err = parse_soak_args(argv(&[flag])).expect_err("must reject");
            assert_eq!(
                err,
                CliError::MissingValue {
                    flag: err_flag(&err)
                }
            );
            assert_eq!(err.to_string(), format!("missing value for {flag}"));
        }
    }

    #[test]
    fn soak_rejects_zero_window_and_zero_jobs() {
        let err = parse_soak_args(argv(&["--trace-last-n", "0"])).expect_err("reject 0");
        assert!(matches!(
            err,
            CliError::InvalidValue {
                flag: "--trace-last-n",
                ..
            }
        ));
        let err = parse_soak_args(argv(&["--jobs", "0"])).expect_err("reject 0");
        assert!(matches!(err, CliError::InvalidValue { flag: "--jobs", .. }));
    }

    #[test]
    fn soak_rejects_unknown_argument() {
        let err = parse_soak_args(argv(&["paxos"])).expect_err("reject");
        assert!(matches!(err, CliError::Unknown { .. }));
        assert!(err.to_string().contains("unknown argument \"paxos\""));
    }

    #[test]
    fn soak_rejects_bad_seed_count() {
        let err = parse_soak_args(argv(&["--seeds", "many"])).expect_err("reject");
        assert_eq!(
            err,
            CliError::InvalidValue {
                flag: "--seeds",
                value: "many".to_string(),
                expected: "a number",
            }
        );
    }

    #[test]
    fn experiments_defaults_and_selection() {
        let parsed = parse_experiments_args(argv(&[])).expect("parses");
        assert_eq!(parsed, ExperimentsArgs::default());
        let parsed =
            parse_experiments_args(argv(&["t3", "--", "f1", "--jobs", "2"])).expect("parses");
        assert_eq!(parsed.selected, vec!["t3", "f1"]);
        assert_eq!(parsed.jobs, 2);
    }

    #[test]
    fn experiments_trailing_flag_reports_missing_value() {
        for flag in ["--trace-out", "--trace-last-n", "--jobs"] {
            let err = parse_experiments_args(argv(&[flag])).expect_err("must reject");
            assert!(matches!(err, CliError::MissingValue { .. }));
            assert_eq!(err.to_string(), format!("missing value for {flag}"));
        }
    }

    #[test]
    fn experiments_rejects_unknown_id_and_zero_window() {
        let err = parse_experiments_args(argv(&["t99"])).expect_err("reject");
        assert!(matches!(err, CliError::Unknown { .. }));
        let err = parse_experiments_args(argv(&["--trace-last-n", "0"])).expect_err("reject 0");
        assert!(matches!(
            err,
            CliError::InvalidValue {
                flag: "--trace-last-n",
                ..
            }
        ));
    }

    #[test]
    fn bench_report_takes_at_most_one_known_flag() {
        use BenchReportMode::{Check, Print, Write};
        assert_eq!(parse_bench_report_args(argv(&[])), Ok(Print));
        assert_eq!(parse_bench_report_args(argv(&["--write"])), Ok(Write));
        assert_eq!(parse_bench_report_args(argv(&["--check"])), Ok(Check));
        for bad in [
            &["--write", "--check"][..],
            &["--check", "--write"],
            &["--check", "--check"],
            &["--help"],
            &["sim"],
        ] {
            let err = parse_bench_report_args(argv(bad)).expect_err("must reject");
            let last = bad[bad.len() - 1];
            assert!(
                matches!(&err, CliError::Unknown { arg, .. } if arg == last),
                "{bad:?}: {err}"
            );
        }
    }

    fn err_flag(err: &CliError) -> &'static str {
        match err {
            CliError::MissingValue { flag } | CliError::InvalidValue { flag, .. } => flag,
            CliError::Unknown { .. } => panic!("expected a flag error"),
        }
    }
}
