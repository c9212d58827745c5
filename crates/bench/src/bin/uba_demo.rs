//! `uba-demo` — run any protocol of the paper from the command line.
//!
//! ```text
//! uba-demo consensus --nodes 10 --faulty 3 --adversary equivocate --seed 7
//! uba-demo broadcast --nodes 7  --faulty 2 --adversary forge
//! uba-demo approx    --nodes 9  --faulty 2 --iterations 5
//! uba-demo rotor     --nodes 7  --faulty 2
//! uba-demo ordering  --nodes 5  --rounds 50
//! uba-demo renaming  --nodes 8  --faulty 2
//! uba-demo trap      --patience 4
//! ```
//!
//! Every run is deterministic per `--seed`. `--help`, a missing or unknown
//! command and a malformed option print the usage and exit 2; a failed run
//! exits 1.

use std::collections::BTreeMap;
use std::process::ExitCode;

use uba_adversary::attacks::{ApproxExtremist, ConsensusEquivocator, RotorSplitAdversary};
use uba_adversary::{MirrorAdversary, ScriptedAdversary, SplitMirrorAdversary};
use uba_bench::cli::{Argv, CliError};
use uba_core::approx::ApproxAgreement;
use uba_core::consensus::{ConsensusMsg, EarlyConsensus};
use uba_core::harness::Setup;
use uba_core::lower_bounds::{delay_sweep, TimeoutConsensus};
use uba_core::ordering::TotalOrdering;
use uba_core::reliable::{RbMsg, ReliableBroadcast};
use uba_core::renaming::{RenameMsg, Renaming};
use uba_core::rotor::RotorCoordinator;
use uba_sim::{Adversary, AdversaryOutbox, AdversaryView, FnAdversary, NoAdversary, SyncEngine};

const USAGE: &str = "\
uba-demo — Byzantine agreement with unknown participants and failures

USAGE:
    uba-demo <consensus|broadcast|approx|rotor|ordering|renaming|trap> [OPTIONS]

OPTIONS (defaults in parentheses):
    --nodes <N>       correct nodes (7)
    --faulty <F>      Byzantine nodes (2)
    --seed <S>        deterministic seed (42)
    --adversary <A>   consensus: none|vanish|mirror|split-mirror|equivocate (equivocate)
                      broadcast: none|vanish|forge (forge)
    --iterations <K>  approx iterations (4)
    --rounds <R>      ordering horizon (40)
    --patience <P>    trap timeout parameter (4)";

/// A command: runs one protocol as the options say.
type Command = fn(&Args) -> Result<(), String>;

/// The commands, one per protocol, with the `--adversary` names each
/// takes (its default first).
const COMMANDS: [(&str, Command, &[&str]); 7] = [
    (
        "consensus",
        run_consensus,
        &["equivocate", "none", "vanish", "mirror", "split-mirror"],
    ),
    ("broadcast", run_broadcast, &["forge", "none", "vanish"]),
    ("approx", run_approx, &[]),
    ("rotor", run_rotor, &[]),
    ("ordering", run_ordering, &[]),
    ("renaming", run_renaming, &[]),
    ("trap", run_trap, &[]),
];

struct Args {
    command: &'static str,
    run: Command,
    nodes: usize,
    faulty: usize,
    seed: u64,
    adversary: String,
    iterations: u64,
    rounds: u64,
    patience: u64,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, CliError> {
    let mut argv = Argv::new(argv, USAGE);
    let name = argv.next_arg()?.ok_or_else(|| argv.help())?;
    let (command, run, adversaries) = COMMANDS
        .into_iter()
        .find(|(command, ..)| *command == name)
        .ok_or_else(|| argv.unknown())?;
    let mut args = Args {
        command,
        run,
        nodes: 7,
        faulty: 2,
        seed: 42,
        adversary: String::new(),
        iterations: 4,
        rounds: 40,
        patience: 4,
    };
    while let Some(flag) = argv.next_arg()? {
        match flag.as_str() {
            "--nodes" => args.nodes = argv.parse_min(1)?,
            "--faulty" => args.faulty = argv.parse()?,
            "--seed" => args.seed = argv.parse()?,
            "--adversary" => args.adversary = argv.value()?,
            "--iterations" => args.iterations = argv.parse()?,
            "--rounds" => args.rounds = argv.parse()?,
            "--patience" => args.patience = argv.parse()?,
            _ => return Err(argv.unknown()),
        }
    }
    if args.adversary.is_empty() {
        args.adversary = adversaries.first().map_or("", |name| name).to_string();
    } else if !adversaries.is_empty() && !adversaries.contains(&args.adversary.as_str()) {
        return Err(argv.error(format!(
            "unknown {} adversary {}",
            args.command, args.adversary
        )));
    }
    Ok(args)
}

fn banner(setup: &Setup) {
    println!(
        "population: {} correct + {} Byzantine = {} nodes (n > 3f: {})",
        setup.correct.len(),
        setup.f(),
        setup.n(),
        setup.satisfies_resiliency()
    );
    if !setup.satisfies_resiliency() {
        println!("WARNING: n ≤ 3f — the paper's guarantees do not apply; expect failures.");
    }
}

fn run_consensus(args: &Args) -> Result<(), String> {
    let setup = Setup::new(args.nodes, args.faulty, args.seed);
    banner(&setup);
    let inputs: Vec<u64> = (0..args.nodes).map(|i| (i % 2) as u64).collect();
    println!("inputs (by id order): {inputs:?}");
    let adversary: Box<dyn Adversary<ConsensusMsg<u64>>> = match args.adversary.as_str() {
        "equivocate" => Box::new(ConsensusEquivocator::new(0u64, 1u64)),
        "none" => Box::new(NoAdversary),
        "vanish" => Box::new(ScriptedAdversary::announce_then_vanish(
            ConsensusMsg::RotorInit,
        )),
        "mirror" => Box::new(MirrorAdversary::new()),
        "split-mirror" => Box::new(SplitMirrorAdversary::new()),
        other => unreachable!("parse_args admits no consensus adversary {other}"),
    };
    let mut engine = SyncEngine::builder()
        .correct_many(
            setup
                .correct
                .iter()
                .zip(&inputs)
                .map(|(&id, &x)| EarlyConsensus::new(id, x)),
        )
        .faulty_many(setup.faulty.iter().copied())
        .adversary(adversary)
        .build();
    let budget = 2 + 5 * (setup.n() as u64 + 6);
    match engine.run_to_completion(budget) {
        Ok(done) => {
            for (id, v) in &done.outputs {
                println!("  {id} decided {v} in round {}", done.decided_round[id]);
            }
            println!(
                "done in {} rounds, {} sends ({} adversarial)",
                done.last_decided_round(),
                done.stats.correct_sends + done.stats.adversary_sends,
                done.stats.adversary_sends
            );
            Ok(())
        }
        Err(e) => Err(format!("run failed: {e}")),
    }
}

fn run_broadcast(args: &Args) -> Result<(), String> {
    let setup = Setup::new(args.nodes, args.faulty, args.seed);
    banner(&setup);
    let sender = setup.correct[0];
    println!("designated sender: {sender}");
    let adversary: Box<dyn Adversary<RbMsg<&'static str>>> = match args.adversary.as_str() {
        "forge" => Box::new(FnAdversary::new(
            |view: &AdversaryView<'_, RbMsg<&'static str>>,
             out: &mut AdversaryOutbox<RbMsg<&'static str>>| {
                for &b in view.faulty.iter() {
                    out.broadcast(b, RbMsg::Echo("forged"));
                }
            },
        )),
        "none" => Box::new(NoAdversary),
        "vanish" => Box::new(ScriptedAdversary::announce_then_vanish(RbMsg::Present)),
        other => unreachable!("parse_args admits no broadcast adversary {other}"),
    };
    let mut engine = SyncEngine::builder()
        .correct_many(setup.correct.iter().map(|&id| {
            ReliableBroadcast::new(id, sender, (id == sender).then_some("payload")).with_horizon(8)
        }))
        .faulty_many(setup.faulty.iter().copied())
        .adversary(adversary)
        .build();
    let done = engine.run_to_completion(10).map_err(|e| e.to_string())?;
    for (id, accepted) in &done.outputs {
        match accepted.get("payload") {
            Some(r) => println!("  {id} accepted the payload in round {r}"),
            None => println!("  {id} accepted NOTHING"),
        }
        if accepted.contains_key("forged") {
            println!("  {id} accepted a FORGED message (resiliency violated)");
        }
    }
    Ok(())
}

fn run_approx(args: &Args) -> Result<(), String> {
    let setup = Setup::new(args.nodes, args.faulty, args.seed);
    banner(&setup);
    let inputs: Vec<f64> = (0..args.nodes).map(|i| i as f64).collect();
    println!(
        "inputs: 0.0..={:.1}, extremist adversary ±1e9",
        (args.nodes - 1) as f64
    );
    let mut engine = SyncEngine::builder()
        .correct_many(
            setup
                .correct
                .iter()
                .zip(&inputs)
                .map(|(&id, &x)| ApproxAgreement::new(id, x).with_iterations(args.iterations)),
        )
        .faulty_many(setup.faulty.iter().copied())
        .adversary(ApproxExtremist::new(1e9))
        .build();
    let done = engine
        .run_to_completion(args.iterations + 3)
        .map_err(|e| e.to_string())?;
    let lo = done.outputs.values().cloned().fold(f64::INFINITY, f64::min);
    let hi = done
        .outputs
        .values()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    for (id, v) in &done.outputs {
        println!("  {id} -> {v:.6}");
    }
    println!(
        "output range {:.6} after {} iterations (input range {:.1})",
        hi - lo,
        args.iterations,
        (args.nodes - 1) as f64
    );
    Ok(())
}

fn run_rotor(args: &Args) -> Result<(), String> {
    let setup = Setup::new(args.nodes, args.faulty, args.seed);
    banner(&setup);
    let mut engine = SyncEngine::builder()
        .correct_many(
            setup
                .correct
                .iter()
                .map(|&id| RotorCoordinator::new(id, id.raw())),
        )
        .faulty_many(setup.faulty.iter().copied())
        .adversary(RotorSplitAdversary::new())
        .build();
    let done = engine
        .run_to_completion(3 + 2 * setup.n() as u64 + 8)
        .map_err(|e| e.to_string())?;
    let sample = done.outputs.values().next().expect("outputs");
    println!("coordinator schedule (one node's view):");
    for (round, p) in &sample.selections {
        let kind = if setup.correct.contains(p) {
            "correct"
        } else {
            "faulty/ghost"
        };
        println!("  round {round}: {p} ({kind})");
    }
    println!("terminated in round {}", done.last_decided_round());
    Ok(())
}

fn run_ordering(args: &Args) -> Result<(), String> {
    let setup = Setup::new(args.nodes, 0, args.seed);
    banner(&setup);
    let mut engine = SyncEngine::builder()
        .correct_many(setup.correct.iter().enumerate().map(|(i, &id)| {
            TotalOrdering::genesis(id)
                .with_events((2..args.rounds / 2).map(move |r| (r, 100 * i as u64 + r)))
                .with_horizon(args.rounds)
        }))
        .build();
    let done = engine
        .run_to_completion(args.rounds + 2)
        .map_err(|e| e.to_string())?;
    let chain = done.outputs.values().next().expect("outputs");
    println!("final chain ({} events):", chain.len());
    for e in chain.iter().take(20) {
        println!("  wave {:>3}  {}  {}", e.wave, e.origin, e.value);
    }
    if chain.len() > 20 {
        println!("  … {} more", chain.len() - 20);
    }
    let identical = done.outputs.values().all(|c| c == chain);
    println!("all replicas identical: {identical}");
    Ok(())
}

fn run_renaming(args: &Args) -> Result<(), String> {
    let setup = Setup::new(args.nodes, args.faulty, args.seed);
    banner(&setup);
    let adversary: Box<dyn Adversary<RenameMsg>> = if args.faulty > 0 {
        Box::new(ScriptedAdversary::announce_then_vanish(RenameMsg::Init))
    } else {
        Box::new(NoAdversary)
    };
    let mut engine = SyncEngine::builder()
        .correct_many(setup.correct.iter().map(|&id| Renaming::new(id)))
        .faulty_many(setup.faulty.iter().copied())
        .adversary(adversary)
        .build();
    let done = engine
        .run_to_completion(4 * (setup.f() as u64 + 3) + 10)
        .map_err(|e| e.to_string())?;
    let last = done.last_decided_round();
    let outputs: BTreeMap<_, _> = done.outputs;
    for (id, outcome) in &outputs {
        println!("  {id} -> new id {}", outcome.my_rank);
    }
    println!("terminated in round {last}");
    Ok(())
}

fn run_trap(args: &Args) -> Result<(), String> {
    let ids = uba_sim::sparse_ids(args.nodes.max(2), args.seed);
    let half = ids.len() / 2;
    let horizon = TimeoutConsensus::decision_horizon(args.patience);
    println!(
        "two groups of {} vs {}, patience {}, decision horizon {} ticks",
        half,
        ids.len() - half,
        args.patience,
        horizon
    );
    println!("cross-delay | outcome");
    for point in delay_sweep(&ids[..half], &ids[half..], args.patience, 1..=horizon + 3) {
        println!(
            "{:>11} | {}",
            point.cross_delay,
            if point.disagreement {
                "DISAGREEMENT"
            } else {
                "agreement"
            }
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|err| err.exit());
    match (args.run)(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
