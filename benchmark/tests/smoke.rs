//! The benchmark at the smoke scale (n=4, 3 instances, 300 records), run
//! through the real binary, plus the checks fed with corrupted outputs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use uba_benchmark::check::{check_decisions, check_log, Ack, Submission};
use uba_benchmark::json::Json;
use uba_benchmark::logd::generate;
use uba_benchmark::spec;
use uba_net::{shard_of, Record};
use uba_sim::NodeId;

/// Runs the smoke ladder into a fresh directory and returns `results.json`.
fn smoke_ladder(seed: u64, tag: &str) -> Json {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    let _ = std::fs::remove_dir_all(&out);
    let status = Command::new(env!("CARGO_BIN_EXE_uba-benchmark"))
        .args(["run", "--scale", "smoke", "--seed", &seed.to_string()])
        .arg("--out")
        .arg(&out)
        .status()
        .expect("spawn the benchmark");
    assert!(status.success(), "smoke ladder failed: {status}");
    for workload in spec::WORKLOADS {
        let trace = out.join(format!("trace-{}.jsonl", workload.name));
        let spans = std::fs::read_to_string(&trace).expect("traced run wrote its spans");
        let roots = spans
            .lines()
            .map(|line| Json::parse(line).expect("span is JSON"))
            .filter(|span| span.get("parent") == Some(&Json::Null))
            .count();
        assert_eq!(roots, 1, "{}: one root span", workload.name);
    }
    let text = std::fs::read_to_string(out.join("results.json")).expect("results.json written");
    Json::parse(&text).expect("results.json parses")
}

/// `results[workload][run]`'s metrics as name → (value, unit).
fn metrics(run: &Json) -> BTreeMap<String, (f64, String)> {
    run.get("metrics")
        .and_then(Json::as_obj)
        .expect("run has metrics")
        .iter()
        .map(|(name, m)| {
            let value = m.num("value").expect("metric has a value");
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .expect("metric has a unit");
            (name.clone(), (value, unit.to_string()))
        })
        .collect()
}

fn workload<'a>(results: &'a Json, name: &str) -> &'a Json {
    results
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("results list workloads")
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        .unwrap_or_else(|| panic!("results have no {name}"))
}

#[test]
fn smoke_ladder_reports_every_declared_metric_and_repeats_its_exact_counters() {
    let first = smoke_ladder(1, "a");
    let second = smoke_ladder(1, "b");
    for spec_workload in spec::WORKLOADS {
        let name = spec_workload.name;
        let rung = workload(&first, name);
        let untraced = &rung
            .get("untraced")
            .and_then(Json::as_arr)
            .expect("untraced runs")[0];
        let traced = rung.get("traced").expect("traced run");
        for (run, declared) in [(untraced, spec::END_TO_END), (traced, spec::PER_LAYER)] {
            assert_eq!(run.get("failed").and_then(Json::as_u64), Some(0), "{name}");
            assert!(run.get("attempted").and_then(Json::as_u64).unwrap() >= 3);
            let reported = metrics(run);
            assert_eq!(
                reported.len(),
                declared.len(),
                "{name}: exactly the declared metrics"
            );
            for metric in declared {
                let (value, unit) = &reported[metric.name];
                assert!(value.is_finite(), "{name} {}", metric.name);
                assert_eq!(unit, metric.unit, "{name} {}", metric.name);
            }
        }
        for metric in spec::END_TO_END {
            // CPU time ticks at 10 ms, more than three n=4 instances burn.
            let may_be_zero = metric.name == spec::CPU_MS_PER_OP;
            let value = metrics(untraced)[metric.name].0;
            assert!(value > 0.0 || may_be_zero, "{name} {} is 0", metric.name);
        }

        let traced = metrics(traced);
        if name != spec::SIM_BYZ {
            let shares: f64 = ["step", "send", "deliver", "barrier", "journal"]
                .iter()
                .map(|phase| traced[&format!("node.{phase}_share")].0)
                .sum();
            assert!(
                (shares - 1.0).abs() <= 0.05,
                "{name}: shares sum to {shares}"
            );
            assert_eq!(traced["sync.timeouts"].0, 0.0, "{name}");
        }
        // Seed-determined protocol facts repeat bit for bit.
        let again = metrics(workload(&second, name).get("traced").unwrap());
        let exact: &[&str] = match name {
            spec::SIM_BYZ => &["core.rounds_per_op", "sim.envelopes_per_op"],
            spec::NET_CLEAN => &[
                "core.rounds_per_op",
                "wire.frames_per_op",
                "wire.bytes_per_op",
            ],
            _ => &[],
        };
        for counter in exact {
            assert!(traced[*counter].0 > 0.0, "{name} {counter}");
            assert_eq!(
                traced[*counter], again[*counter],
                "{name} {counter} repeats"
            );
        }
    }
}

#[test]
fn inputs_come_from_the_seed() {
    assert_eq!(generate(7, 50, 64), generate(7, 50, 64));
    assert_ne!(generate(7, 50, 64), generate(8, 50, 64));
    assert!(generate(7, 50, 64).iter().all(|s| s.payload.len() == 64));
    assert_ne!(uba_sim::sparse_ids(4, 7), uba_sim::sparse_ids(4, 8));
}

#[test]
fn committed_manifest_is_the_table_and_meets_the_contract() {
    let manifest = spec::manifest();
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&committed).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        Json::parse(&text).expect("BENCHMARK.json parses"),
        manifest,
        "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
    );
    assert!(text.len() <= 64 * 1024);

    let name_ok = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |unit: &str| {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names: Vec<&str> = Vec::new();
    assert!((2..=8).contains(&spec::WORKLOADS.len()));
    for w in spec::WORKLOADS {
        assert!(name_ok(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        names.push(w.name);
    }
    assert!((1..=16).contains(&spec::END_TO_END.len()));
    assert!((1..=128).contains(&spec::PER_LAYER.len()));
    for m in spec::END_TO_END.iter().chain(spec::PER_LAYER) {
        assert!(name_ok(m.name), "{}", m.name);
        assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
        names.push(m.name);
    }
    for m in spec::END_TO_END {
        let bound = m.bound.expect("end-to-end metrics are bounded");
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
    }
    assert!(spec::PER_LAYER.iter().all(|m| m.bound.is_none()));
    let setup = spec::metric(spec::SETUP_S).expect("setup_s is declared");
    assert_eq!((setup.unit, setup.better), ("s", spec::Better::Lower));
    let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "a name is used once");
    assert!((1..=60).contains(&spec::RUN_SECONDS));
}

type MemberLogs = BTreeMap<NodeId, Vec<Vec<Record>>>;

/// A sealed two-shard log of four acked ops, as every member reports it.
fn healthy_log() -> (Vec<Submission>, Vec<Ack>, MemberLogs) {
    let submissions = generate(3, 4, 16);
    let mut log: Vec<Vec<Record>> = vec![Vec::new(); 2];
    let mut acks = Vec::new();
    for (op, s) in submissions.iter().enumerate() {
        let shard = shard_of(&s.key, 2);
        let seq = log[shard as usize].len() as u64;
        log[shard as usize].push(Record {
            key: s.key.clone(),
            payload: s.payload.clone(),
            node: 9,
            seq,
        });
        acks.push(Ack {
            op: op as u64,
            shard,
            seq,
        });
    }
    let members = (1..=3).map(|id| (NodeId::new(id), log.clone())).collect();
    (submissions, acks, members)
}

#[test]
fn log_check_fails_on_a_corrupted_prefix() {
    let (submissions, acks, members) = healthy_log();
    let tailed = members[&NodeId::new(1)].clone();
    let check = |members: &MemberLogs, tailed: &[Vec<Record>]| {
        check_log(&submissions, &acks, 9, 2, members, tailed)
    };
    assert_eq!(check(&members, &tailed), Ok(()));

    let busy_shard = tailed.iter().position(|s| !s.is_empty()).unwrap();

    // One member's prefix differs.
    let mut diverged = members.clone();
    diverged.get_mut(&NodeId::new(2)).unwrap()[busy_shard][0].payload[9] ^= 1;
    assert!(check(&diverged, &tailed)
        .unwrap_err()
        .0
        .contains("differ between members"));

    // Every member lost an acked record.
    let mut lost = members.clone();
    for log in lost.values_mut() {
        log[busy_shard].pop();
    }
    let lost_tail = lost[&NodeId::new(1)].clone();
    assert!(check(&lost, &lost_tail).unwrap_err().0.contains("missing"));

    // Every member holds a record twice.
    let mut doubled = members.clone();
    for log in doubled.values_mut() {
        let again = log[busy_shard][0].clone();
        log[busy_shard].push(again);
    }
    let doubled_tail = doubled[&NodeId::new(1)].clone();
    assert!(check(&doubled, &doubled_tail)
        .unwrap_err()
        .0
        .contains("more than once"));

    // Every member holds a record outside the shard its ack named.
    let mut misplaced = members.clone();
    for log in misplaced.values_mut() {
        let record = log[busy_shard].remove(0);
        log[1 - busy_shard].push(record);
    }
    let misplaced_tail = misplaced[&NodeId::new(1)].clone();
    assert!(check(&misplaced, &misplaced_tail).is_err());

    // What was read over the wire is not the sealed log.
    let mut torn = tailed.clone();
    torn[busy_shard].clear();
    assert!(check(&members, &torn)
        .unwrap_err()
        .0
        .contains("read over the wire"));
}

#[test]
fn decision_check_fails_on_disagreement() {
    let mut decisions: BTreeMap<NodeId, u64> = (1..=4).map(|id| (NodeId::new(id), 1)).collect();
    assert_eq!(check_decisions(&decisions, &[0, 1]), Ok(Some(1)));
    decisions.insert(NodeId::new(3), 0);
    assert!(check_decisions(&decisions, &[0, 1]).is_err());
}
