//! `bench-report` — the committed performance trajectory.
//!
//! Re-runs the T11-class workloads (the deterministic sim/net equivalence
//! cells) with the wall-clock runtime registry attached, folds the
//! resulting metrics into two schema-versioned JSON documents —
//! `BENCH_sim.json` (engine-side) and `BENCH_net.json` (transport-side) at
//! the repository root — and compares fresh runs against the committed
//! documents with explicit tolerances.
//!
//! Every workload records two kinds of fields, and the split is the whole
//! design:
//!
//! * **exact** — seed-determined protocol facts (rounds to decide, deciders,
//!   envelopes delivered, duplicate drops, frames/bytes on the wire for a
//!   healthy run). A mismatch is a behavioural change, never noise, and
//!   fails the check outright.
//! * **measured** — wall-clock microseconds. Machine- and load-dependent,
//!   so the check only fails on an order-of-magnitude regression
//!   (`new > old * 10 + 1000`); committed values are a trajectory to read,
//!   not a contract to pin.
//!
//! The JSON is hand-rolled and hand-parsed like everything else in the
//! workspace (no dependencies): sorted keys, no floats, so regenerating on
//! the same machine produces byte-stable diffs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use uba_net::run_local_cluster_with_metrics;
use uba_sim::{NodeId, Process, SyncEngine};
use uba_trace::{NoopTracer, RuntimeMetrics, SharedRuntimeMetrics};

use crate::experiments::t11_net::{
    consensus_cluster, net_config, reliable_cluster, CONSENSUS_CELLS, RELIABLE_CELLS,
};
use crate::experiments::t13_wan;
use crate::experiments::t14_logd;
use crate::experiments::t15_byzantine;
use crate::Table;

/// Schema tag of the committed documents; bump on field changes.
pub const BENCH_SCHEMA: &str = "uba-bench-v1";

/// Measured (wall-clock) fields may regress this far before the check
/// fails: an order of magnitude, plus an absolute floor so microsecond
/// jitter on near-zero values never trips it.
const MEASURED_FACTOR: u64 = 10;
const MEASURED_SLACK_US: u64 = 1_000;

/// One benchmarked workload: a named cell plus its exact and measured
/// fields (both sorted for stable JSON).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Cell name, e.g. `consensus-n4-seed42`.
    pub name: String,
    /// Seed-determined fields, compared exactly.
    pub exact: BTreeMap<&'static str, u64>,
    /// Wall-clock fields, compared with tolerance.
    pub measured: BTreeMap<&'static str, u64>,
}

/// A full report: one kind (`sim` or `net`), many workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchReport {
    /// Which side of the stack was measured: `"sim"` or `"net"`.
    pub kind: &'static str,
    /// The workloads, in cell order.
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

/// The deterministic workload cells: `(algo, n, seed)` — the same cells
/// experiment T11 locks against the engine.
fn cells() -> Vec<(&'static str, usize, u64)> {
    CONSENSUS_CELLS
        .iter()
        .map(|&(n, seed)| ("consensus", n, seed))
        .chain(
            RELIABLE_CELLS
                .iter()
                .map(|&(n, seed)| ("reliable", n, seed)),
        )
        .collect()
}

/// Runs every cell on the [`SyncEngine`] with the runtime registry attached
/// and folds the `sim_*` metrics into a report.
pub fn run_sim_report() -> BenchReport {
    let workloads = cells()
        .into_iter()
        .map(|(algo, n, seed)| {
            let registry = SharedRuntimeMetrics::new();
            let (decided, rounds) = match algo {
                "consensus" => run_sim_cell(consensus_cluster(seed, n), &registry),
                "reliable" => run_sim_cell(reliable_cluster(seed, n), &registry),
                other => unreachable!("unknown algo {other}"),
            };
            let snapshot = registry.snapshot();
            let mut exact = BTreeMap::new();
            exact.insert("decided", decided);
            exact.insert("rounds", rounds);
            exact.insert(
                "envelopes_delivered",
                snapshot.counter("sim_envelopes_delivered_total"),
            );
            exact.insert(
                "duplicate_drops",
                snapshot.counter("sim_duplicate_drops_total"),
            );
            Workload {
                name: format!("{algo}-n{n}-seed{seed}"),
                exact,
                measured: timing_fields(&snapshot, "sim_round_micros"),
            }
        })
        .collect();
    BenchReport {
        kind: "sim",
        workloads,
    }
}

fn run_sim_cell<P: Process>(processes: Vec<P>, registry: &SharedRuntimeMetrics) -> (u64, u64) {
    let mut engine = SyncEngine::builder()
        .correct_many(processes)
        .runtime_metrics(registry.clone())
        .build();
    let completion = engine
        .run_to_completion(200)
        .expect("bench workload must complete");
    (
        completion.outputs.len() as u64,
        completion.last_decided_round(),
    )
}

/// Runs every cell over localhost TCP with one registry per member and
/// folds the merged `net_*` metrics into a report. The T11 equivalence
/// cells come first; the T13 fault-soak cells (seeded WAN impairment
/// through the [`FaultProxy`](uba_net::FaultProxy)) follow, committing the
/// decision-latency trajectory under loss and partitions.
pub fn run_net_report() -> BenchReport {
    let mut workloads: Vec<Workload> = cells()
        .into_iter()
        .map(|(algo, n, seed)| {
            let (merged, decided, rounds) = match algo {
                "consensus" => run_net_cell(|| consensus_cluster(seed, n)),
                "reliable" => run_net_cell(|| reliable_cluster(seed, n)),
                other => unreachable!("unknown algo {other}"),
            };
            let mut exact = BTreeMap::new();
            exact.insert("decided", decided);
            exact.insert("rounds", rounds);
            exact.insert("frames_sent", merged.family_sum("net_frames_sent_total"));
            exact.insert("bytes_sent", merged.family_sum("net_bytes_sent_total"));
            Workload {
                name: format!("{algo}-n{n}-seed{seed}"),
                exact,
                measured: timing_fields(&merged, "net_round_micros"),
            }
        })
        .collect();
    workloads.extend(run_t13_workloads());
    workloads.extend(run_t14_workloads());
    workloads.extend(run_t15_workloads());
    BenchReport {
        kind: "net",
        workloads,
    }
}

/// The T13 fault-soak workloads: the impaired profiles of the T13 grid.
/// Protocol facts (everyone decided, on one value) are exact; drop and
/// sever counts ride with the wall-clock fields because a slow machine's
/// reconnects could reshuffle the per-link frame indices the loss draws
/// key on.
fn run_t13_workloads() -> Vec<Workload> {
    t13_wan::CELLS
        .iter()
        .filter(|spec| matches!(spec.profile, "lossy" | "partition"))
        .map(|spec| {
            let cell = t13_wan::run_spec(spec);
            let algo = if spec.algo == "consensus" {
                "consensus"
            } else {
                "reliable"
            };
            let mut exact = BTreeMap::new();
            exact.insert("decided", cell.decided);
            exact.insert("agreement", u64::from(cell.agreement()));
            let mut measured = BTreeMap::new();
            measured.insert("round_micros_mean", cell.mean_us);
            measured.insert("round_micros_max", cell.max_us);
            measured.insert("frames_dropped", cell.dropped);
            measured.insert("frames_severed", cell.severed);
            Workload {
                name: format!("t13-{}-{algo}-n{}-seed{}", spec.profile, spec.n, spec.seed),
                exact,
                measured,
            }
        })
        .collect()
}

/// The T14 log-service workloads: the full shard grid of the T14 cells.
/// The service's promise (every submission acked, every ack ordered
/// exactly once, identical prefixes everywhere) is exact; ack latencies
/// and per-record run cost are wall-clock and ride in the tolerance-
/// checked measured fields.
fn run_t14_workloads() -> Vec<Workload> {
    t14_logd::CELLS
        .iter()
        .map(|spec| {
            let cell = t14_logd::run_spec(spec);
            let mut exact = BTreeMap::new();
            exact.insert("submitted", cell.submitted);
            exact.insert("acked", cell.acked);
            exact.insert("ordered", cell.ordered);
            exact.insert("agreement", u64::from(cell.agreement));
            exact.insert("exactly_once", u64::from(cell.exactly_once));
            let mut measured = BTreeMap::new();
            measured.insert("ack_micros_mean", cell.ack_mean_us);
            measured.insert("ack_micros_p99", cell.ack_p99_us);
            measured.insert("micros_per_record", cell.micros_per_record());
            measured.insert("load_micros", cell.load_micros);
            Workload {
                name: format!(
                    "t14-logd-n{}-shards{}-seed{}",
                    spec.n, spec.shards, spec.seed
                ),
                exact,
                measured,
            }
        })
        .collect()
}

/// The T15 Byzantine workloads: the full attack grid of the T15 cells.
/// The defense's promise — every honest member decided on one value, the
/// equivocation cell sim-identical, evictions exactly where the threat
/// model places them (zero for tolerated/omission scripts, one per honest
/// member for the flood) — is exact; strike totals and wall-clock ride in
/// the tolerance-checked measured fields (a slow machine can reshuffle how
/// many violating frames land before the eviction cuts the link).
fn run_t15_workloads() -> Vec<Workload> {
    t15_byzantine::CELLS
        .iter()
        .map(|spec| {
            let cell = t15_byzantine::run_spec(spec);
            let mut exact = BTreeMap::new();
            exact.insert("decided", cell.decided);
            exact.insert("agreement", u64::from(cell.agreement()));
            match spec.attack {
                "equivocate" => {
                    exact.insert("sim_match", u64::from(cell.matches_sim()));
                    exact.insert("evictions", cell.evictions);
                }
                "stall" => {
                    exact.insert("evictions", cell.evictions);
                }
                "flood" => {
                    exact.insert("evictions", cell.evictions);
                }
                _ => {}
            }
            let mut measured = BTreeMap::new();
            measured.insert("round_micros_mean", cell.mean_us);
            measured.insert("round_micros_max", cell.max_us);
            measured.insert("strikes", cell.misbehavior);
            measured.insert("timeouts", cell.timeouts);
            if !matches!(spec.attack, "equivocate" | "stall" | "flood") {
                measured.insert("evictions", cell.evictions);
            }
            Workload {
                name: format!(
                    "t15-{}-n{}-f{}-seed{}",
                    spec.attack,
                    spec.n_correct + spec.f,
                    spec.f,
                    spec.seed
                ),
                exact,
                measured,
            }
        })
        .collect()
}

fn run_net_cell<P, F>(factory: F) -> (RuntimeMetrics, u64, u64)
where
    P: Process + Send,
    P::Msg: uba_net::Wire,
    P::Output: Send,
    F: Fn() -> Vec<P>,
{
    let registries: BTreeMap<NodeId, SharedRuntimeMetrics> = factory()
        .iter()
        .map(|p| (p.id(), SharedRuntimeMetrics::new()))
        .collect();
    let reports = run_local_cluster_with_metrics(
        factory(),
        net_config(),
        |_| NoopTracer,
        |id| registries.get(&id).cloned(),
    )
    .expect("bench cluster must complete");
    let mut merged = RuntimeMetrics::new();
    for registry in registries.values() {
        merged.merge(&registry.snapshot());
    }
    let decided = reports.values().filter(|r| r.output.is_some()).count() as u64;
    let rounds = reports.values().map(|r| r.rounds).max().unwrap_or(0);
    (merged, decided, rounds)
}

/// `{base}_mean` / `{base}_max` from one timing histogram (0s if absent).
fn timing_fields(metrics: &RuntimeMetrics, base: &str) -> BTreeMap<&'static str, u64> {
    let mut fields = BTreeMap::new();
    let (mean, max) = metrics.timing(base).map_or((0, 0), |h| {
        let mean = if h.count() == 0 {
            0
        } else {
            h.sum() / h.count()
        };
        (mean, h.max())
    });
    fields.insert("round_micros_mean", mean);
    fields.insert("round_micros_max", max);
    fields
}

impl BenchReport {
    /// Renders the committed JSON document: sorted keys inside each
    /// workload, workloads in cell order, two-space indent, trailing
    /// newline — byte-stable across regenerations of identical data.
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
            push_fields(&mut out, &w.exact);
            out.push_str("},\n");
            out.push_str("      \"measured\": {");
            push_fields(&mut out, &w.measured);
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
            for (field, value) in &w.measured {
                table.row(&[
                    w.name.as_str(),
                    &format!("{field} (measured)"),
                    &value.to_string(),
                ]);
            }
        }
        table
    }

    /// Compares `self` (a fresh run) against a committed JSON document.
    /// Exact fields must match; measured fields may drift but not regress
    /// past the order-of-magnitude tolerance. Returns the list of
    /// violations (empty = pass).
    ///
    /// # Errors
    ///
    /// Returns `Err` when the committed document cannot be parsed at all
    /// (corrupt JSON, wrong schema tag, wrong kind).
    pub fn check_against(&self, committed: &str) -> Result<Vec<String>, String> {
        let doc = parse_report(committed)?;
        if doc.kind != self.kind {
            return Err(format!(
                "committed kind {:?} does not match fresh run {:?}",
                doc.kind, self.kind
            ));
        }
        let mut violations = Vec::new();
        let committed_by_name: BTreeMap<&str, &ParsedWorkload> =
            doc.workloads.iter().map(|w| (w.name.as_str(), w)).collect();
        for fresh in &self.workloads {
            let Some(old) = committed_by_name.get(fresh.name.as_str()) else {
                violations.push(format!(
                    "workload {:?} missing from committed file",
                    fresh.name
                ));
                continue;
            };
            for (&field, &new) in &fresh.exact {
                match old.exact.get(field) {
                    Some(&expected) if expected == new => {}
                    Some(&expected) => violations.push(format!(
                        "{}: exact field {field} changed: committed {expected}, fresh {new}",
                        fresh.name
                    )),
                    None => violations.push(format!(
                        "{}: exact field {field} missing from committed file",
                        fresh.name
                    )),
                }
            }
            for (&field, &new) in &fresh.measured {
                match old.measured.get(field) {
                    Some(&expected) if new <= expected * MEASURED_FACTOR + MEASURED_SLACK_US => {}
                    Some(&expected) => violations.push(format!(
                        "{}: measured field {field} regressed: committed {expected}us, \
                         fresh {new}us (> {MEASURED_FACTOR}x + {MEASURED_SLACK_US}us)",
                        fresh.name
                    )),
                    None => violations.push(format!(
                        "{}: measured field {field} missing from committed file",
                        fresh.name
                    )),
                }
            }
        }
        for name in committed_by_name.keys() {
            if !self.workloads.iter().any(|w| w.name == *name) {
                violations.push(format!("committed workload {name:?} no longer runs"));
            }
        }
        Ok(violations)
    }
}

fn push_fields(out: &mut String, fields: &BTreeMap<&'static str, u64>) {
    for (i, (field, value)) in fields.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{field}\": {value}");
    }
}

/// A committed workload as parsed back from disk (owned field names).
#[derive(Debug)]
struct ParsedWorkload {
    name: String,
    exact: BTreeMap<String, u64>,
    measured: BTreeMap<String, u64>,
}

#[derive(Debug)]
struct ParsedReport {
    kind: String,
    workloads: Vec<ParsedWorkload>,
}

/// Strict parser for exactly the subset of JSON [`BenchReport::to_json`]
/// emits: objects, arrays, strings without escapes, and unsigned integers.
/// Same hand-rolled-cursor idiom as the trace crate's journal parser.
fn parse_report(text: &str) -> Result<ParsedReport, String> {
    let mut cur = Cursor {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let root = cur.value()?;
    cur.skip_ws();
    if cur.pos != cur.bytes.len() {
        return Err(format!("trailing bytes at offset {}", cur.pos));
    }
    let Value::Object(root) = root else {
        return Err("root is not an object".into());
    };
    match root.get("schema") {
        Some(Value::String(s)) if s == BENCH_SCHEMA => {}
        other => return Err(format!("unsupported schema {other:?}")),
    }
    let kind = match root.get("kind") {
        Some(Value::String(s)) => s.clone(),
        other => return Err(format!("missing kind, found {other:?}")),
    };
    let Some(Value::Array(items)) = root.get("workloads") else {
        return Err("missing workloads array".into());
    };
    let mut workloads = Vec::new();
    for item in items {
        let Value::Object(fields) = item else {
            return Err("workload is not an object".into());
        };
        let name = match fields.get("name") {
            Some(Value::String(s)) => s.clone(),
            other => return Err(format!("workload without name: {other:?}")),
        };
        workloads.push(ParsedWorkload {
            name,
            exact: number_map(fields.get("exact"))?,
            measured: number_map(fields.get("measured"))?,
        });
    }
    Ok(ParsedReport { kind, workloads })
}

fn number_map(value: Option<&Value>) -> Result<BTreeMap<String, u64>, String> {
    let Some(Value::Object(fields)) = value else {
        return Err(format!("expected an object of numbers, found {value:?}"));
    };
    fields
        .iter()
        .map(|(k, v)| match v {
            Value::Number(n) => Ok((k.clone(), *n)),
            other => Err(format!("field {k:?} is not a number: {other:?}")),
        })
        .collect()
}

/// The minimal JSON value tree the parser produces.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Value {
    String(String),
    Number(u64),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}",
                byte as char, self.pos
            ))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'"' => {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?
                        .to_string();
                    self.pos += 1;
                    return Ok(s);
                }
                // The writer never emits escapes (names are ascii idents);
                // reject rather than mis-parse.
                b'\\' => return Err(format!("unsupported escape at offset {}", self.pos)),
                _ => self.pos += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse()
            .map(Value::Number)
            .map_err(|e| format!("bad number at offset {start}: {e}"))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => return Err(format!("expected , or ] but found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.insert(key, self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => return Err(format!("expected , or }} but found {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            kind: "net",
            workloads: vec![Workload {
                name: "consensus-n4-seed42".into(),
                exact: BTreeMap::from([("rounds", 7), ("decided", 4)]),
                measured: BTreeMap::from([("round_micros_mean", 400)]),
            }],
        }
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let report = sample();
        let json = report.to_json();
        let parsed = parse_report(&json).expect("parses");
        assert_eq!(parsed.kind, "net");
        assert_eq!(parsed.workloads.len(), 1);
        assert_eq!(parsed.workloads[0].exact.get("rounds"), Some(&7));
        assert_eq!(
            parsed.workloads[0].measured.get("round_micros_mean"),
            Some(&400)
        );
        // Identical data renders byte-identically.
        assert_eq!(json, report.to_json());
    }

    #[test]
    fn check_passes_against_its_own_output() {
        let report = sample();
        let violations = report.check_against(&report.to_json()).expect("parses");
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn check_fails_on_exact_drift_and_measured_regression() {
        let mut fresh = sample();
        let committed = fresh.to_json();
        fresh.workloads[0].exact.insert("rounds", 9);
        fresh.workloads[0].measured.insert(
            "round_micros_mean",
            400 * MEASURED_FACTOR + MEASURED_SLACK_US + 1,
        );
        let violations = fresh.check_against(&committed).expect("parses");
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].contains("exact field rounds changed"));
        assert!(violations[1].contains("regressed"));
    }

    #[test]
    fn check_tolerates_measured_improvement_and_drift_within_tolerance() {
        let mut fresh = sample();
        let committed = fresh.to_json();
        fresh.workloads[0].measured.insert("round_micros_mean", 1); // much faster
        assert!(fresh.check_against(&committed).unwrap().is_empty());
        fresh.workloads[0]
            .measured
            .insert("round_micros_mean", 4_000); // 10x window
        assert!(fresh.check_against(&committed).unwrap().is_empty());
    }

    #[test]
    fn check_rejects_wrong_schema_or_kind() {
        let report = sample();
        assert!(report
            .check_against("{\"schema\": \"uba-bench-v0\", \"kind\": \"net\", \"workloads\": []}")
            .is_err());
        let sim = BenchReport {
            kind: "sim",
            workloads: vec![],
        };
        assert!(sim.check_against(&report.to_json()).is_err());
    }

    #[test]
    fn missing_and_extra_workloads_are_violations() {
        let report = sample();
        let empty = BenchReport {
            kind: "net",
            workloads: vec![],
        };
        let against_empty = report.check_against(&empty.to_json()).unwrap();
        assert!(against_empty[0].contains("missing from committed file"));
        let against_full = empty.check_against(&report.to_json()).unwrap();
        assert!(against_full[0].contains("no longer runs"));
    }
}
