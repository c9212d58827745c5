//! ```text
//! uba-benchmark run [--seed S] [--seconds N] [--scale full|smoke] [--out DIR]
//!                   [--only WORKLOAD] [--repeat R]      the ladder: table + results.json
//! uba-benchmark run --workload W --trace 0|1 [...]      one run; last line is the result object
//! uba-benchmark compare A.json B.json                   apply the bounds; exit 1 on a regression
//! uba-benchmark --list | manifest                       the metric table | BENCHMARK.json
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use uba_benchmark::compare::{self, Verdict};
use uba_benchmark::consensus::{self, WorkerArgs};
use uba_benchmark::logd::{self, ClusterArgs};
use uba_benchmark::outcome::{RunCfg, Scale};
use uba_benchmark::run::{self, LadderCfg};
use uba_benchmark::spec;

const USAGE: &str =
    "usage: uba-benchmark run [--seed S] [--seconds N] [--scale full|smoke] [--out DIR]\n\
    \x20                        [--only WORKLOAD] [--repeat R]\n\
    \x20      uba-benchmark run --workload WORKLOAD --trace 0|1 [--seed S] [--seconds N] ...\n\
    \x20      uba-benchmark compare A.json B.json\n\
    \x20      uba-benchmark --list | manifest";

/// `--flag value` pairs, each taken at most once.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn take(&mut self, flag: &str) -> Option<String> {
        let at = self.0.iter().position(|(f, _)| f == flag)?;
        Some(self.0.remove(at).1)
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.take(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value {v:?} for {flag}"))
            })
            .transpose()
    }

    /// A flag the parent process always passes to a child.
    fn require<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        self.take_parsed(flag)?
            .ok_or_else(|| format!("missing {flag}"))
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            Some((flag, _)) => Err(format!("unknown flag {flag}\n{USAGE}")),
            None => Ok(()),
        }
    }
}

fn workload_name(name: &str) -> Result<&'static str, String> {
    spec::workload(name).map(|w| w.name).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {})", known.join(", "))
    })
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let mut flags = Flags::parse(args)?;
    let seed = flags.take_parsed("--seed")?.unwrap_or(1);
    let scale = flags
        .take("--scale")
        .map_or(Ok(Scale::Full), |s| Scale::parse(&s))?;
    // The smoke scale runs fixed small counts, not for a time.
    let seconds: f64 = flags.take_parsed("--seconds")?.unwrap_or(match scale {
        Scale::Full => spec::RUN_SECONDS as f64,
        Scale::Smoke => 0.0,
    });
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds {seconds} is not a duration"));
    }
    let out_dir = flags
        .take("--out")
        .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from);

    if let Some(workload) = flags.take("--workload") {
        let trace = match flags.take("--trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        };
        flags.finish()?;
        let cfg = RunCfg {
            workload: workload_name(&workload)?,
            seed,
            seconds,
            trace,
            scale,
            out_dir,
        };
        let outcome = run::run_workload(&cfg)?;
        println!("{}", outcome.to_json(trace).render());
        return Ok(ExitCode::SUCCESS);
    }

    let only = flags
        .take("--only")
        .map(|w| workload_name(&w))
        .transpose()?;
    let repeat = flags.take_parsed("--repeat")?.unwrap_or(1);
    flags.finish()?;
    run::run_ladder(&LadderCfg {
        seed,
        seconds,
        scale,
        only,
        repeat,
        out_dir,
    })?;
    Ok(ExitCode::SUCCESS)
}

fn worker_command(args: &[String]) -> Result<ExitCode, String> {
    let mut flags = Flags::parse(args)?;
    let worker = WorkerArgs {
        seed: flags.require("--seed")?,
        nodes: flags.require("--nodes")?,
        first: flags.require("--first")?,
        count: flags.require("--count")?,
        epoch_us: flags.require("--epoch-us")?,
        trace_out: flags.take("--trace-out").map(PathBuf::from),
    };
    flags.finish()?;
    consensus::worker(&worker)?;
    Ok(ExitCode::SUCCESS)
}

fn cluster_command(args: &[String]) -> Result<ExitCode, String> {
    let mut flags = Flags::parse(args)?;
    let cluster = ClusterArgs {
        workload: workload_name(&flags.require::<String>("--workload")?)?,
        seed: flags.require("--seed")?,
        load_secs: flags.require("--load-secs")?,
    };
    flags.finish()?;
    logd::cluster_worker(&cluster)?;
    Ok(ExitCode::SUCCESS)
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(format!("compare takes two results files\n{USAGE}"));
    };
    let rows = compare::compare(
        &run::read_results(Path::new(a))?,
        &run::read_results(Path::new(b))?,
    );
    print!("{}", compare::render(&rows));
    let regressed = rows.iter().any(|r| r.verdict == Verdict::Regressed);
    Ok(if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run_command(rest),
        Some((cmd, rest)) if cmd == "worker" => worker_command(rest),
        Some((cmd, rest)) if cmd == "cluster" => cluster_command(rest),
        Some((cmd, rest)) if cmd == "compare" => compare_command(rest),
        Some((cmd, [])) if cmd == "--list" => {
            print!("{}", spec::list());
            Ok(ExitCode::SUCCESS)
        }
        Some((cmd, [])) if cmd == "manifest" => {
            print!("{}", spec::manifest().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
