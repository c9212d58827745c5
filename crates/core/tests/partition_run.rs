//! Pins [`partition_run`], the construction behind experiment F2 and the
//! `asynchrony_trap` example: over a grid of group splits, patience values
//! and cross-partition delays, every node's decision, the disagreement
//! flag and the tick count of each run, plus the error of a run whose tick
//! budget runs out first. The outcomes are rendered one line per run and
//! hashed (FNV-1a) into one literal, so any change in how the partition
//! is staged that changes any run's decisions or timing fails here.

use std::fmt::Write as _;

use uba_core::lower_bounds::{partition_run, TimeoutConsensus};
use uba_sim::{sparse_ids, EngineError};

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn partition_outcomes_are_pinned() {
    let mut text = String::new();
    let mut runs = 0;
    for (a, b) in [(4, 4), (3, 4), (1, 2)] {
        let ids = sparse_ids(a + b, 7 + a as u64);
        let (group_a, group_b) = ids.split_at(a);
        for patience in 1..=8 {
            let horizon = TimeoutConsensus::decision_horizon(patience);
            for cross_delay in 0..=horizon + 4 {
                let budget = 4 * (patience + cross_delay + 4);
                let outcome = partition_run(group_a, group_b, patience, cross_delay, budget)
                    .expect("timeout consensus decides within its budget");
                writeln!(
                    text,
                    "{a}/{b} p{patience} d{cross_delay}: ticks {} disagreement {} {:?}",
                    outcome.ticks, outcome.disagreement, outcome.decisions
                )
                .unwrap();
                runs += 1;
            }
        }
    }
    assert_eq!(runs, 3 * (7..=14).sum::<usize>());
    assert_eq!(
        format!("{:016x}", fnv1a(&text)),
        "85de0e7d1fd66231",
        "\n{text}"
    );
}

#[test]
fn an_exhausted_tick_budget_is_pinned() {
    // Alone, each group decides at tick patience + 2 = 6; the budget stops
    // the run after tick 5 with every node still undecided.
    let ids = sparse_ids(7, 11);
    let err = partition_run(&ids[..3], &ids[3..], 4, 9, 5).unwrap_err();
    assert_eq!(
        err,
        EngineError::MaxRoundsExceeded {
            round: 5,
            undecided: ids.clone(),
        }
    );
}
