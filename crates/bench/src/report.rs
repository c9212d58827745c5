//! `bench-report` — the committed exact record.
//!
//! Re-runs the recorded cells of the experiment grid
//! ([`experiments::grid`](crate::experiments)) — the T11 equivalence cells,
//! the impaired T13 profiles, the T14 log-service cells and the T15 attack
//! grid — and renders what is **seed-determined** about them into two JSON
//! documents at the repository root: `BENCH_sim.json` (the engine twin:
//! rounds to decide, deciders, envelopes delivered, duplicate drops) and
//! `BENCH_net.json` (the TCP cluster: rounds, deciders, frames and bytes on
//! the wire of a healthy run, agreement/exactly-once verdicts, and the
//! eviction ledgers the threat model pins). These are the cost measures the
//! literature itself reports; a change in any of them is a behavioural
//! change, never noise.
//!
//! Because nothing else is recorded, every byte of a document is a function
//! of the seeds, and the documents are **golden files**: `--check` renders
//! a fresh run and compares it byte for byte with the committed file, the
//! way `tests/golden_traces.rs` does for traces. There is no tolerance and
//! no parser. Wall-clock lives elsewhere — `benchmark/` measures it
//! (`benchmark/out/results.json`), the `experiments` latency tables show
//! it — and so do the timing-dependent counters (strikes, timeouts, drops,
//! severs): the `experiments` tables report them and the cells' obligations
//! bound them.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::experiments::grid::{
    last_round, run_twin, Cell, Duty, Extra, TwinCell, TwinOutcome, GRID,
};
use crate::experiments::t14_logd::run_log;
use crate::Table;

/// Schema tag of the committed documents; bump on field changes.
pub const BENCH_SCHEMA: &str = "uba-bench-v2";

/// The exact fields of one workload, sorted for stable JSON.
type Fields = BTreeMap<&'static str, u64>;

/// One recorded cell: its name and its seed-determined fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Cell name, e.g. `consensus-n4-seed42`.
    pub name: String,
    /// Seed-determined fields, compared exactly.
    pub exact: Fields,
}

/// A full report: one kind (`sim` or `net`), many workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchReport {
    /// Which side of the stack was recorded: `"sim"` or `"net"`.
    pub kind: &'static str,
    /// The workloads, in grid order.
    pub workloads: Vec<Workload>,
}

/// The repository root, resolved from this crate's manifest.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The committed document path for one report kind.
pub fn bench_path(kind: &str) -> PathBuf {
    repo_root().join(format!("BENCH_{kind}.json"))
}

/// Runs every recorded cell of the grid once and returns the `sim` and the
/// `net` report: a twin cell's engine run feeds the first, its cluster run
/// the second.
pub fn run_reports() -> [BenchReport; 2] {
    let (mut sim, mut net) = (Vec::new(), Vec::new());
    for cell in GRID.iter() {
        let workload = |exact| Workload {
            name: cell.name(),
            exact,
        };
        match cell {
            Cell::Twin(twin) if twin.recorded => {
                let (engine_side, net_side) = exact_fields(twin, &run_twin(twin));
                sim.extend(engine_side.map(workload));
                net.push(workload(net_side));
            }
            Cell::Twin(_) => {}
            Cell::Logd(spec) => {
                let log = run_log(spec);
                net.push(workload(Fields::from([
                    ("submitted", log.submitted),
                    ("acked", log.acked),
                    ("ordered", log.ordered),
                    ("agreement", u64::from(log.agreement)),
                    ("exactly_once", u64::from(log.exactly_once)),
                ])));
            }
        }
    }
    let report = |kind, workloads| BenchReport { kind, workloads };
    [report("sim", sim), report("net", net)]
}

/// What is seed-determined about one twin run: the engine side (healthy
/// cells only) and the cluster side.
///
/// A healthy engine-identical cell records its cost — rounds, and
/// envelopes on the engine, frames and bytes on the wire. An impaired or
/// attacked cell's traffic depends on when links die, so it records its
/// verdicts instead: everyone decided, on one value, engine-identically
/// where the attack has a simulator twin, and the eviction count where the
/// cell's obligation pins it to an exact number.
fn exact_fields(cell: &TwinCell, run: &TwinOutcome) -> (Option<Fields>, Fields) {
    let mut net = Fields::from([("decided", run.net.len() as u64)]);
    let identical = cell.duty == Duty::EngineIdentical;
    let healthy = identical && cell.scenario.hostile.is_none();
    if healthy {
        net.insert("rounds", run.summary.rounds);
        net.insert("frames_sent", run.frames_sent);
        net.insert("bytes_sent", run.bytes_sent);
    } else {
        net.insert("agreement", u64::from(cell.agreement(run)));
        if identical {
            net.insert("sim_match", u64::from(run.engine_identical()));
        }
    }
    if cell
        .extras
        .iter()
        .any(|extra| matches!(extra, Extra::NoEvictions | Extra::EvictedByAll))
    {
        net.insert("evictions", run.summary.evictions);
    }
    let engine = run.engine.as_ref().filter(|_| healthy).map(|engine| {
        Fields::from([
            ("decided", engine.outcomes.len() as u64),
            ("rounds", last_round(&engine.outcomes)),
            ("envelopes_delivered", engine.envelopes_delivered),
            ("duplicate_drops", engine.duplicate_drops),
        ])
    });
    (engine, net)
}

impl BenchReport {
    /// Renders the committed JSON document: sorted keys inside each
    /// workload, workloads in grid order, two-space indent, trailing
    /// newline — byte-stable across regenerations.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{BENCH_SCHEMA}\",");
        let _ = writeln!(out, "  \"kind\": \"{}\",", self.kind);
        out.push_str("  \"workloads\": [\n");
        for (i, w) in self.workloads.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"name\": \"{}\",", w.name);
            out.push_str("      \"exact\": {");
            for (i, (field, value)) in w.exact.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{field}\": {value}");
            }
            out.push_str("}\n");
            out.push_str(if i + 1 == self.workloads.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The human-readable table of one report.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            format!("bench-report ({})", self.kind),
            &["workload", "field", "value"],
        );
        for w in &self.workloads {
            for (field, value) in &w.exact {
                table.row(&[w.name.as_str(), field, &value.to_string()]);
            }
        }
        table
    }

    /// Compares `self` (a fresh run) with a committed document, byte for
    /// byte. Returns the differing lines, each under the workload it
    /// belongs to (empty = identical).
    pub fn check_against(&self, committed: &str) -> Vec<String> {
        let fresh = self.to_json();
        if fresh == committed {
            return Vec::new();
        }
        let (old, new) = (owned_lines(committed), owned_lines(&fresh));
        let only_in =
            |side, (workload, line): &(String, String)| format!("{workload}: {side} has {line}");
        let mut differing: Vec<String> =
            (old.difference(&new).map(|l| only_in("committed file", l)))
                .chain(new.difference(&old).map(|l| only_in("fresh run", l)))
                .collect();
        differing.sort();
        if differing.is_empty() {
            differing.push("same lines, different bytes (order, whitespace or punctuation)".into());
        }
        differing
    }
}

/// The `"key": value` lines of a document, each paired with the workload
/// whose `"name"` line precedes it (`document` for the header).
fn owned_lines(doc: &str) -> BTreeSet<(String, String)> {
    let mut owner = "document";
    let mut lines = BTreeSet::new();
    for line in doc.lines().map(str::trim) {
        if let Some(name) = line.strip_prefix("\"name\": \"") {
            owner = name.trim_end_matches(['"', ',']);
        }
        if line.contains(':') {
            lines.insert((owner.to_string(), line.to_string()));
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(name: &str, rounds: u64) -> Workload {
        Workload {
            name: name.into(),
            exact: Fields::from([("rounds", rounds), ("decided", 4)]),
        }
    }

    fn sample() -> BenchReport {
        BenchReport {
            kind: "net",
            workloads: vec![
                workload("consensus-n4-seed42", 12),
                workload("consensus-n4-seed7", 7),
            ],
        }
    }

    #[test]
    fn check_passes_against_its_own_output_and_rendering_is_byte_stable() {
        let report = sample();
        let json = report.to_json();
        assert_eq!(json, report.to_json());
        assert_eq!(report.check_against(&json), Vec::<String>::new());
    }

    #[test]
    fn a_changed_exact_value_names_its_workload_line() {
        let mut fresh = sample();
        let committed = fresh.to_json();
        fresh.workloads[1].exact.insert("rounds", 9);
        assert_eq!(
            fresh.check_against(&committed),
            [
                "consensus-n4-seed7: committed file has \"exact\": {\"decided\": 4, \"rounds\": 7}",
                "consensus-n4-seed7: fresh run has \"exact\": {\"decided\": 4, \"rounds\": 9}",
            ]
        );
    }

    #[test]
    fn missing_and_extra_workloads_name_their_lines() {
        let full = sample();
        let mut short = sample();
        short.workloads.pop();
        // The committed file lacks a workload the fresh run has…
        let missing = full.check_against(&short.to_json());
        assert_eq!(missing.len(), 2, "{missing:?}");
        assert!(missing
            .iter()
            .all(|line| line.starts_with("consensus-n4-seed7: fresh run has ")));
        assert!(missing[1].ends_with("\"name\": \"consensus-n4-seed7\","));
        // …or still lists one that no longer runs.
        let extra = short.check_against(&full.to_json());
        assert_eq!(extra.len(), 2, "{extra:?}");
        assert!(extra
            .iter()
            .all(|line| line.starts_with("consensus-n4-seed7: committed file has ")));
    }

    /// A `v1` document carried a second, wall-clock object per workload.
    #[test]
    fn a_v1_document_fails_on_the_schema_and_on_every_workload() {
        let report = sample();
        let v1 = report
            .to_json()
            .replace(BENCH_SCHEMA, "uba-bench-v1")
            .replace(
                "}\n    }",
                "},\n      \"wall_clock\": {\"micros\": 400}\n    }",
            );
        let differing = report.check_against(&v1);
        let has = |line: &str| differing.iter().any(|l| l == line);
        assert!(
            has("document: committed file has \"schema\": \"uba-bench-v1\","),
            "{differing:?}"
        );
        for w in &report.workloads {
            let stale = format!(
                "{}: committed file has \"wall_clock\": {{\"micros\": 400}}",
                w.name
            );
            assert!(has(&stale), "{differing:?}");
        }
    }

    #[test]
    fn a_document_of_the_other_kind_or_layout_fails() {
        let report = sample();
        let sim = BenchReport {
            kind: "sim",
            ..sample()
        };
        assert_eq!(
            sim.check_against(&report.to_json()),
            [
                "document: committed file has \"kind\": \"net\",",
                "document: fresh run has \"kind\": \"sim\",",
            ]
        );
        let reindented = report.to_json().replace("      ", "\t");
        assert_eq!(report.check_against(&reindented).len(), 1);
        assert!(!report.check_against("").is_empty());
    }

    /// Without running a cluster: the committed documents are `v2`, and
    /// the net one names exactly the recorded cells, in grid order.
    #[test]
    fn committed_documents_name_exactly_the_recorded_cells() {
        let committed = |kind| std::fs::read_to_string(bench_path(kind)).expect("committed file");
        let recorded: Vec<String> = GRID
            .iter()
            .filter(|cell| !matches!(cell, Cell::Twin(twin) if !twin.recorded))
            .map(Cell::name)
            .collect();
        let net = committed("net");
        let named: Vec<&str> = net
            .lines()
            .filter_map(|line| line.trim().strip_prefix("\"name\": \""))
            .map(|name| name.trim_end_matches(['"', ',']))
            .collect();
        assert_eq!(named, recorded);
        for doc in [net.as_str(), &committed("sim")] {
            assert!(doc.contains(&format!("\"schema\": \"{BENCH_SCHEMA}\"")));
        }
    }
}
