//! The one command-line reader of every binary in this crate:
//! `experiments`, `soak`, `bench-report`, `cluster`, `logd`, `loadgen` and
//! `uba-demo`.
//!
//! [`Argv`] walks the arguments, takes the value of the flag it just read
//! and parses it, optionally with a lower bound. `--help` and `-h` are
//! recognised wherever they stand. Every rejection is a [`CliError`]: the
//! reason, then the binary's usage, once. [`CliError::exit`] prints it and
//! exits 2, the usage-error code of every binary. A flag given as the
//! *last* argument with no value is reported as "missing value", not
//! smuggled through as `""`.
//!
//! The parsers of the three harness binaries live here too, so their
//! defaults exist exactly once and their error paths are unit-testable
//! without spawning a process.

use std::fmt::{self, Display};
use std::path::PathBuf;
use std::str::FromStr;

use crate::experiments::t10_faults::{Algo, HEALTHY_SEEDS};
use crate::EXPERIMENTS;

/// Default postmortem ring window (`--trace-last-n`): large enough to keep
/// every event of a shrunk minimal case, small enough that a pathological
/// run stays bounded. Shared by both bins — the only definition.
pub const DEFAULT_TRACE_LAST_N: usize = 65_536;

/// A rejected command line: what was wrong (nothing, when the usage was
/// asked for), followed by the binary's usage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    message: Option<String>,
    usage: String,
}

impl CliError {
    /// What was wrong; `None` for `--help` / `-h`.
    pub fn message(&self) -> Option<&str> {
        self.message.as_deref()
    }

    /// Prints the error on stderr and exits with the usage-error code, 2.
    pub fn exit(&self) -> ! {
        eprintln!("{self}");
        std::process::exit(2)
    }
}

impl Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(message) = &self.message {
            writeln!(f, "{message}")?;
        }
        f.write_str(&self.usage)
    }
}

impl std::error::Error for CliError {}

/// Parses `value` of `what` — a flag, or one `KEY=VAL` entry of a flag —
/// as a `T` no smaller than `min`. Every number on every command line is
/// read here.
pub fn parse_value<T>(what: &str, value: &str, min: Option<T>) -> Result<T, String>
where
    T: FromStr + PartialOrd + Display,
    T::Err: Display,
{
    let parsed: T = value
        .parse()
        .map_err(|e| format!("invalid {what} {value:?}: {e}"))?;
    match min {
        Some(min) if parsed < min => Err(format!("{what} must be at least {min}")),
        _ => Ok(parsed),
    }
}

/// A command line being read, one argument at a time.
#[derive(Debug)]
pub struct Argv {
    args: std::vec::IntoIter<String>,
    usage: String,
    /// The argument [`next_arg`](Self::next_arg) returned last: the flag
    /// a value belongs to.
    current: String,
}

impl Argv {
    /// Reads `args` — the process arguments after the program name — for
    /// a binary whose usage text is `usage`.
    pub fn new(args: impl IntoIterator<Item = String>, usage: impl Into<String>) -> Self {
        Argv {
            args: args.into_iter().collect::<Vec<_>>().into_iter(),
            usage: usage.into(),
            current: String::new(),
        }
    }

    /// The next argument, `None` past the last one; `--help` and `-h`
    /// are the [`help`](Self::help) error.
    pub fn next_arg(&mut self) -> Result<Option<String>, CliError> {
        let Some(arg) = self.args.next() else {
            return Ok(None);
        };
        if arg == "--help" || arg == "-h" {
            return Err(self.help());
        }
        self.current.clone_from(&arg);
        Ok(Some(arg))
    }

    /// The value of the flag just read; a missing or empty one is an
    /// error.
    pub fn value(&mut self) -> Result<String, CliError> {
        match self.args.next() {
            Some(value) if !value.is_empty() => Ok(value),
            _ => Err(self.error(format!("missing value for {}", self.current))),
        }
    }

    /// The value of the flag just read, parsed as a `T`.
    pub fn parse<T>(&mut self) -> Result<T, CliError>
    where
        T: FromStr + PartialOrd + Display,
        T::Err: Display,
    {
        let value = self.value()?;
        parse_value(&self.current, &value, None).map_err(|message| self.error(message))
    }

    /// The value of the flag just read, parsed as a `T` of at least `min`.
    pub fn parse_min<T>(&mut self, min: T) -> Result<T, CliError>
    where
        T: FromStr + PartialOrd + Display,
        T::Err: Display,
    {
        let value = self.value()?;
        parse_value(&self.current, &value, Some(min)).map_err(|message| self.error(message))
    }

    /// The usage, asked for.
    pub fn help(&self) -> CliError {
        CliError {
            message: None,
            usage: self.usage.clone(),
        }
    }

    /// The command line is wrong as a whole: `message` (a cross-flag
    /// check), then the usage.
    pub fn error(&self, message: impl Into<String>) -> CliError {
        CliError {
            message: Some(message.into()),
            usage: self.usage.clone(),
        }
    }

    /// The argument just read is neither a flag nor a positional this
    /// binary knows.
    pub fn unknown(&self) -> CliError {
        self.error(format!("unknown argument {:?}", self.current))
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

const SOAK_USAGE: &str =
    "usage: soak [--seeds N] [--broken] [--trace-out DIR] [--trace-last-n N] [--jobs N]\n\
     \x20           [consensus|reliable|approx|rotor ...]";

/// Parses the `soak` bin's arguments.
pub fn parse_soak_args(args: impl IntoIterator<Item = String>) -> Result<SoakArgs, CliError> {
    let mut argv = Argv::new(args, SOAK_USAGE);
    let mut parsed = SoakArgs::default();
    while let Some(arg) = argv.next_arg()? {
        match arg.as_str() {
            "--seeds" => parsed.seeds = argv.parse()?,
            "--broken" => parsed.broken = true,
            "--trace-out" => parsed.trace_out = PathBuf::from(argv.value()?),
            // A zero-length postmortem window would drop every event.
            "--trace-last-n" => parsed.trace_last_n = argv.parse_min(1)?,
            "--jobs" => parsed.jobs = argv.parse_min(1)?,
            other => parsed
                .algos
                .push(Algo::parse(other).ok_or_else(|| argv.unknown())?),
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

/// Parses the `experiments` bin's arguments.
pub fn parse_experiments_args(
    args: impl IntoIterator<Item = String>,
) -> Result<ExperimentsArgs, CliError> {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    let usage = format!(
        "usage: experiments [--trace-out DIR] [--trace-last-n N] [--jobs N] [ID ...]\n\
         ids: {}",
        ids.join(", ")
    );
    let mut argv = Argv::new(args, usage);
    let mut parsed = ExperimentsArgs::default();
    while let Some(arg) = argv.next_arg()? {
        match arg.as_str() {
            "--" => {}
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(argv.value()?)),
            "--trace-last-n" => parsed.trace_last_n = argv.parse_min(1)?,
            "--jobs" => parsed.jobs = argv.parse_min(1)?,
            id if ids.contains(&id) => parsed.selected.push(arg),
            _ => return Err(argv.unknown()),
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

/// Parses the `bench-report` bin's arguments: at most one of `--write`
/// and `--check`.
pub fn parse_bench_report_args(
    args: impl IntoIterator<Item = String>,
) -> Result<BenchReportMode, CliError> {
    let mut argv = Argv::new(args, "usage: bench-report [--write | --check]");
    let mut mode = BenchReportMode::Print;
    while let Some(arg) = argv.next_arg()? {
        mode = match (arg.as_str(), mode) {
            ("--write", BenchReportMode::Print) => BenchReportMode::Write,
            ("--check", BenchReportMode::Print) => BenchReportMode::Check,
            _ => return Err(argv.unknown()),
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

    fn message(err: &CliError) -> &str {
        err.message().expect("a reason, not the usage")
    }

    #[test]
    fn values_parse_against_their_bound() {
        assert_eq!(parse_value("--n", "3", Some(2u64)), Ok(3));
        assert_eq!(parse_value::<u64>("--n", "3", None), Ok(3));
        assert_eq!(
            parse_value("--n", "1", Some(2u64)),
            Err("--n must be at least 2".to_string())
        );
        let err = parse_value::<u64>("--plan seed", "x", None).unwrap_err();
        assert!(err.starts_with("invalid --plan seed \"x\": "), "{err}");
    }

    #[test]
    fn an_error_renders_its_reason_then_the_usage_once() {
        let mut reader = Argv::new(argv(&["--n"]), "usage: t [--n N]");
        assert_eq!(reader.next_arg(), Ok(Some("--n".to_string())));
        let err = reader.parse::<u64>().expect_err("no value");
        assert_eq!(err.to_string(), "missing value for --n\nusage: t [--n N]");
        for help in ["--help", "-h"] {
            let err = Argv::new(argv(&[help]), "usage: t").next_arg().unwrap_err();
            assert_eq!((err.message(), err.to_string()), (None, "usage: t".into()));
        }
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
            assert_eq!(message(&err), format!("missing value for {flag}"));
            assert!(err.to_string().ends_with(SOAK_USAGE));
        }
    }

    #[test]
    fn soak_rejects_zero_window_and_zero_jobs() {
        let err = parse_soak_args(argv(&["--trace-last-n", "0"])).expect_err("reject 0");
        assert_eq!(message(&err), "--trace-last-n must be at least 1");
        let err = parse_soak_args(argv(&["--jobs", "0"])).expect_err("reject 0");
        assert_eq!(message(&err), "--jobs must be at least 1");
    }

    #[test]
    fn soak_rejects_unknown_argument() {
        let err = parse_soak_args(argv(&["paxos"])).expect_err("reject");
        assert_eq!(message(&err), "unknown argument \"paxos\"");
    }

    #[test]
    fn soak_rejects_bad_seed_count() {
        let err = parse_soak_args(argv(&["--seeds", "many"])).expect_err("reject");
        assert!(message(&err).starts_with("invalid --seeds \"many\": "));
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
            assert_eq!(message(&err), format!("missing value for {flag}"));
        }
    }

    #[test]
    fn experiments_rejects_unknown_id_and_zero_window() {
        let err = parse_experiments_args(argv(&["t99"])).expect_err("reject");
        assert_eq!(message(&err), "unknown argument \"t99\"");
        assert!(err.to_string().contains("t1, t2"), "lists the ids: {err}");
        let err = parse_experiments_args(argv(&["--trace-last-n", "0"])).expect_err("reject 0");
        assert_eq!(message(&err), "--trace-last-n must be at least 1");
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
            &["sim"],
        ] {
            let err = parse_bench_report_args(argv(bad)).expect_err("must reject");
            let last = bad[bad.len() - 1];
            assert_eq!(message(&err), format!("unknown argument {last:?}"));
        }
        let err = parse_bench_report_args(argv(&["--help"])).expect_err("usage");
        assert_eq!(err.to_string(), "usage: bench-report [--write | --check]");
    }
}
