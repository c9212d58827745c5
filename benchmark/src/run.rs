//! Running workloads: one run of one workload in this process, and the
//! ladder — every workload untraced, then traced, each in a child process
//! of its own so that one workload's leftover threads cannot tax the next.

use std::path::Path;

use crate::child;
use crate::consensus;
use crate::json::Json;
use crate::logd;
use crate::outcome::{Outcome, RunCfg, Scale};
use crate::spec::{self, Metric};
use crate::stats;

/// How far the five `node.*_share` metrics of a TCP workload may sum from
/// 1 before the traced run fails: the phases are meant to partition the
/// round, and a budget table that does not add up steers nothing.
const SHARE_TOLERANCE: f64 = 0.05;

/// Runs one workload once in this process.
pub fn run_workload(cfg: &RunCfg) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("create {}: {e}", cfg.out_dir.display()))?;
    if cfg.trace {
        // Spans are appended (by worker processes too): start clean.
        match std::fs::remove_file(cfg.trace_path()) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("remove {}: {e}", cfg.trace_path().display()))
            }
            _ => {}
        }
    }
    let outcome = match cfg.workload {
        spec::SIM_BYZ => consensus::run_sim(cfg)?,
        spec::NET_CLEAN => consensus::run_net(cfg)?,
        _ => logd::run(cfg)?,
    };
    if cfg.trace && cfg.workload != spec::SIM_BYZ {
        let shares: f64 = ["step", "send", "deliver", "barrier", "journal"]
            .iter()
            .map(|phase| outcome.metrics[format!("node.{phase}_share").as_str()])
            .sum();
        if (shares - 1.0).abs() > SHARE_TOLERANCE {
            return Err(format!(
                "{}: node phase shares sum to {shares:.3}, not 1 ± {SHARE_TOLERANCE}",
                cfg.workload
            ));
        }
        let timeouts = outcome.metrics["sync.timeouts"];
        if timeouts != 0.0 {
            return Err(format!("{}: {timeouts} barrier timeouts", cfg.workload));
        }
    }
    Ok(outcome)
}

/// Runs one workload once in a child process and parses the result line.
fn run_in_child(cfg: &RunCfg) -> Result<Outcome, String> {
    let seed = cfg.seed.to_string();
    let seconds = cfg.seconds.to_string();
    let out_dir = cfg.out_dir.display().to_string();
    let lines = child::json_lines([
        "run",
        "--workload",
        cfg.workload,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        if cfg.trace { "1" } else { "0" },
        "--scale",
        cfg.scale.as_str(),
        "--out",
        &out_dir,
    ])?;
    Outcome::from_json(lines.last().ok_or("child printed no result")?)
}

pub struct LadderCfg {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// Restrict the ladder to one workload.
    pub only: Option<&'static str>,
    /// Untraced runs per workload; more than one gives `compare` a spread.
    pub repeat: usize,
    pub out_dir: std::path::PathBuf,
}

/// One workload's ladder results.
pub struct Rung {
    pub workload: &'static str,
    pub untraced: Vec<Outcome>,
    pub traced: Outcome,
}

/// Runs the ladder, prints every metric by name with its unit, and writes
/// `results.json`.
pub fn run_ladder(cfg: &LadderCfg) -> Result<(), String> {
    let mut rungs = Vec::new();
    for workload in spec::WORKLOADS
        .iter()
        .filter(|w| cfg.only.is_none_or(|only| only == w.name))
    {
        let run = |trace| {
            eprintln!(
                "running {} ({})",
                workload.name,
                if trace { "traced" } else { "untraced" }
            );
            run_in_child(&RunCfg {
                workload: workload.name,
                seed: cfg.seed,
                seconds: cfg.seconds,
                trace,
                scale: cfg.scale,
                out_dir: cfg.out_dir.clone(),
            })
        };
        let untraced = (0..cfg.repeat.max(1))
            .map(|_| run(false))
            .collect::<Result<Vec<_>, _>>()?;
        rungs.push(Rung {
            workload: workload.name,
            untraced,
            traced: run(true)?,
        });
    }
    print!("{}", table(&rungs));
    let path = cfg.out_dir.join("results.json");
    std::fs::write(&path, results_json(cfg, &rungs).render_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// The median over a workload's untraced runs of one end-to-end metric.
fn median_of(runs: &[Outcome], metric: &str) -> f64 {
    stats::median(&runs.iter().map(|r| r.metrics[metric]).collect::<Vec<_>>())
}

/// A table cell: four decimals, or four significant digits for a value
/// too small to show in them (sim-byz-n64's set-up is 15 µs).
fn cell(value: f64) -> String {
    if value != 0.0 && value.abs() < 0.01 {
        format!("{value:.3e}")
    } else {
        format!("{value:.4}")
    }
}

fn table(rungs: &[Rung]) -> String {
    let mut out = String::new();
    let mut section = |title: &str, metrics: &[Metric], value: &dyn Fn(&Rung, &Metric) -> f64| {
        out.push_str(&format!("\n{title}\n{:<34}{:<7}", "metric", "unit"));
        for rung in rungs {
            out.push_str(&format!("{:>16}", rung.workload));
        }
        out.push('\n');
        for metric in metrics {
            out.push_str(&format!("{:<34}{:<7}", metric.name, metric.unit));
            for rung in rungs {
                out.push_str(&format!("{:>16}", cell(value(rung, metric))));
            }
            out.push('\n');
        }
    };
    section(
        "end-to-end (untraced run; median over repeats)",
        spec::END_TO_END,
        &|rung, metric| median_of(&rung.untraced, metric.name),
    );
    section(
        "per-layer (traced run)",
        spec::PER_LAYER,
        &|rung, metric| rung.traced.metrics[metric.name],
    );
    out.push_str(&format!("\n{:<41}", "failed_share (failed / attempted)"));
    for rung in rungs {
        let failed: u64 = rung.untraced.iter().map(|r| r.failed).sum();
        let attempted: u64 = rung.untraced.iter().map(|r| r.attempted).sum();
        out.push_str(&format!("{:>16}", format!("{failed} / {attempted}")));
    }
    out.push('\n');
    out
}

fn results_json(cfg: &LadderCfg, rungs: &[Rung]) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::obj([
        ("schema", Json::str("uba-benchmark-v1")),
        ("seed", cfg.seed.into()),
        ("seconds", cfg.seconds.into()),
        ("scale", Json::str(cfg.scale.as_str())),
        ("nproc", nproc.into()),
        (
            "workloads",
            Json::Arr(
                rungs
                    .iter()
                    .map(|rung| {
                        Json::obj([
                            ("name", Json::str(rung.workload)),
                            (
                                "untraced",
                                Json::Arr(rung.untraced.iter().map(|o| o.to_json(false)).collect()),
                            ),
                            ("traced", rung.traced.to_json(true)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Reads a `results.json` back: each workload's untraced runs.
pub fn read_results(path: &Path) -> Result<Vec<(String, Vec<Outcome>)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no workloads", path.display()))?
        .iter()
        .map(|workload| {
            let name = workload
                .get("name")
                .and_then(Json::as_str)
                .ok_or("workload without a name")?;
            let runs = workload
                .get("untraced")
                .and_then(Json::as_arr)
                .ok_or("workload without untraced runs")?
                .iter()
                .map(Outcome::from_json)
                .collect::<Result<Vec<_>, _>>()?;
            Ok((name.to_string(), runs))
        })
        .collect()
}
