//! The shape of the `sim-byz-n64` benchmark workload, pinned without a
//! clock: 43 correct `EarlyConsensus` nodes with split inputs and 21
//! `ConsensusEquivocator` members, populations drawn by `Setup::new`.
//!
//! The benchmark's traced run reports two per-op counters for this
//! workload, `core.rounds_per_op` (12) and `sim.envelopes_per_op`
//! (370,154). Both are seed-invariant, and so is the decision: value 0,
//! taken by 21 correct nodes in round 7 (the first phase) and by the other
//! 22 in round 12 (measured over 200 seeds). The populations differ only in
//! which sparse ids the 64 nodes get, and the protocol's traffic does not
//! depend on id values. This test holds the same facts over several seeds,
//! so a change to the protocol step that alters what is sent, or when a
//! node decides, fails here and not only in a traced benchmark run.

use std::collections::BTreeMap;

use uba_adversary::attacks::ConsensusEquivocator;
use uba_core::consensus::EarlyConsensus;
use uba_core::harness::{assert_agreement, Setup};
use uba_sim::{derive, SyncEngine};

/// Correct and faulty node counts: f = ⌊(n − 1)/3⌋ of n = 64.
const CORRECT: usize = 43;
const FAULTY: usize = 21;

#[test]
fn every_seed_has_decided_by_round_12_after_370154_deliveries() {
    for instance in 0..6 {
        let seed = derive(51, instance);
        let setup = Setup::new(CORRECT, FAULTY, seed);
        let inputs: Vec<u64> = (0..CORRECT).map(|j| (j % 2) as u64).collect();
        let mut engine = SyncEngine::builder()
            .correct_many(
                setup
                    .correct
                    .iter()
                    .zip(&inputs)
                    .map(|(&id, &x)| EarlyConsensus::new(id, x)),
            )
            .faulty_many(setup.faulty.iter().copied())
            .adversary(ConsensusEquivocator::new(0u64, 1u64))
            .build();
        let done = engine
            .run_to_completion(400)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));

        assert_eq!(
            done.outputs.len(),
            CORRECT,
            "seed {seed}: every node decides"
        );
        let decided = assert_agreement(&done.outputs);
        assert_eq!(decided, 0, "seed {seed}: the input of the lower half");
        let mut by_round = BTreeMap::<u64, usize>::new();
        for &round in done.decided_round.values() {
            *by_round.entry(round).or_default() += 1;
        }
        assert_eq!(
            by_round,
            BTreeMap::from([(7, 21), (12, 22)]),
            "seed {seed}: nodes deciding per round"
        );
        assert_eq!(done.stats.rounds, 12, "seed {seed}");
        assert_eq!(done.stats.deliveries, 370_154, "seed {seed}");
    }
}
