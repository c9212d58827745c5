//! Synchrony is necessary — executable versions of the paper's
//! impossibility arguments.
//!
//! The paper proves that when nodes know neither `n` nor `f`, consensus is
//! impossible — even with probabilistic termination — in asynchronous
//! systems (unbounded delays) *and* in semi-synchronous systems (delays
//! bounded by an unknown `Δ`). Both proofs are indistinguishability
//! arguments: partition the nodes, delay all cross-partition messages past
//! each side's decision point, and each side behaves exactly as if it were
//! the whole system — deciding its own input and disagreeing.
//!
//! An impossibility result cannot be "run" directly, so this module runs the
//! *construction*: [`TimeoutConsensus`] is the canonical algorithm one would
//! write without synchrony (gossip values, wait until the participant set is
//! quiet for a patience window, decide the majority — with unknown `n` there
//! is nothing else to wait for), and [`partition_run`] executes it under the
//! adversarial delay assignment of the proofs, staged on the synchronous
//! engine as lost messages (its docs say why that is the same run). The
//! experiment sweep (EXPERIMENTS.md, F2) shows the predicted sharp
//! transition: agreement whenever the cross-partition delay is below the
//! decision horizon, guaranteed disagreement the moment it exceeds it — for
//! *every* patience parameter, which is exactly the paper's statement that
//! no choice of timeout can help.

use std::collections::{BTreeMap, BTreeSet};

use uba_sim::{Context, FaultPlan, NodeId, Process, SyncEngine};

/// A plausible consensus attempt for unknown-`n` systems without synchrony.
///
/// Every tick the node broadcasts its input; once it has seen no new
/// participant for `patience` consecutive ticks it decides the majority of
/// the values it knows (ties toward the smaller value). With unbounded or
/// unknown-bound delays this is exactly the kind of algorithm the paper
/// proves cannot work; under a partition it demonstrably disagrees.
#[derive(Clone, Debug)]
pub struct TimeoutConsensus {
    me: NodeId,
    input: u8,
    patience: u64,
    known: BTreeMap<NodeId, u8>,
    quiet_ticks: u64,
    decided: Option<u8>,
}

impl TimeoutConsensus {
    /// Creates a node with binary `input` and the given patience window.
    pub fn new(me: NodeId, input: u8, patience: u64) -> Self {
        TimeoutConsensus {
            me,
            input,
            patience,
            known: BTreeMap::new(),
            quiet_ticks: 0,
            decided: None,
        }
    }

    /// The largest cross-partition delay at which two groups of
    /// mutually-1-tick-connected nodes still merge their views in time: an
    /// isolated group decides at tick `patience + 2` (broadcast, hear
    /// everyone, `patience` quiet ticks), and a message sent at tick 1 with
    /// delay `patience + 1` arrives exactly then — any later and each group
    /// decides alone.
    pub fn decision_horizon(patience: u64) -> u64 {
        patience + 1
    }
}

impl Process for TimeoutConsensus {
    type Msg = u8;
    type Output = u8;

    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, ctx: &mut Context<'_, u8>) {
        let mut new_participant = false;
        for env in ctx.inbox() {
            if self.known.insert(env.from, *env.msg()).is_none() {
                new_participant = true;
            }
        }
        if new_participant || ctx.round() == 1 {
            self.quiet_ticks = 0;
        } else {
            self.quiet_ticks += 1;
        }
        ctx.broadcast(self.input);
        if self.quiet_ticks >= self.patience && self.decided.is_none() {
            // Majority of known values (including our own — present in
            // `known` via self-delivery, or seeded here before any
            // broadcast came back), ties toward 0.
            let mut counts: BTreeMap<u8, usize> = BTreeMap::new();
            if !self.known.contains_key(&self.me) {
                *counts.entry(self.input).or_insert(0) += 1;
            }
            for v in self.known.values() {
                *counts.entry(*v).or_insert(0) += 1;
            }
            let (&v, _) = counts
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                .expect("at least the own value");
            self.decided = Some(v);
        }
    }

    fn output(&self) -> Option<u8> {
        self.decided
    }
}

/// The result of one partitioned execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionOutcome {
    /// Every node's decision.
    pub decisions: BTreeMap<NodeId, u8>,
    /// Whether two correct nodes decided differently.
    pub disagreement: bool,
    /// Ticks until the last decision.
    pub ticks: u64,
}

/// Runs [`TimeoutConsensus`] under the proofs' delay assignment: two groups
/// (inputs 1 and 0), intra-group delay 1, cross-group delay `cross_delay`.
///
/// Per the paper's argument, `cross_delay >
/// TimeoutConsensus::decision_horizon(patience)` forces disagreement: each
/// group decides before hearing from the other, exactly as in the
/// indistinguishable single-group system.
///
/// The run is staged on the synchronous [`SyncEngine`], with a
/// [`FaultPlan`] that drops every cross-group message sent in ticks
/// `1..cross_delay`. For a process that rebroadcasts the same value every
/// tick, as [`TimeoutConsensus`] does, that is the same run as delaying each
/// cross-group message by `cross_delay` ticks:
///
/// - only the first message a node gets from each sender changes its
///   state, and with either construction that first cross-group message
///   arrives in tick `cross_delay + 1` (a delay below 1 counts as 1);
/// - every node of both groups therefore follows the same timeline, so all
///   of them decide in the same tick;
/// - a decided node is never stepped again, so the later traffic, which
///   does differ between the two constructions, is never seen.
///
/// The plan holds `2·|A|·|B|` dropped links for each tick before
/// `cross_delay`.
///
/// # Errors
///
/// Returns the engine error if some node has not decided after `max_ticks`
/// (cannot happen for `max_ticks > decision_horizon`).
///
/// # Examples
///
/// ```
/// use uba_core::lower_bounds::{partition_run, TimeoutConsensus};
/// use uba_sim::sparse_ids;
///
/// let ids = sparse_ids(6, 3);
/// let patience = 3;
/// let horizon = TimeoutConsensus::decision_horizon(patience);
///
/// // Slow cross-partition messages: both sides decide alone => disagreement.
/// let split = partition_run(&ids[..3], &ids[3..], patience, horizon + 1, 100)?;
/// assert!(split.disagreement);
///
/// // Fast cross-partition messages: everyone hears everyone => agreement.
/// let joined = partition_run(&ids[..3], &ids[3..], patience, 1, 100)?;
/// assert!(!joined.disagreement);
/// # Ok::<(), uba_sim::EngineError>(())
/// ```
pub fn partition_run(
    group_a: &[NodeId],
    group_b: &[NodeId],
    patience: u64,
    cross_delay: u64,
    max_ticks: u64,
) -> Result<PartitionOutcome, uba_sim::EngineError> {
    let mut cut = FaultPlan::new();
    for tick in 1..cross_delay {
        for &a in group_a {
            for &b in group_b {
                cut.drop_link(tick, a, b).drop_link(tick, b, a);
            }
        }
    }
    let nodes = group_a
        .iter()
        .map(|&id| TimeoutConsensus::new(id, 1, patience))
        .chain(
            group_b
                .iter()
                .map(|&id| TimeoutConsensus::new(id, 0, patience)),
        );
    let mut engine = SyncEngine::builder()
        .correct_many(nodes)
        .faults(cut)
        .build();
    let done = engine.run_to_completion(max_ticks)?;
    Ok(PartitionOutcome {
        disagreement: done.outputs.values().collect::<BTreeSet<_>>().len() > 1,
        ticks: done.last_decided_round(),
        decisions: done.outputs,
    })
}

/// One point of the delay sweep of experiment F2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepPoint {
    /// Cross-partition delay used.
    pub cross_delay: u64,
    /// Whether the execution disagreed.
    pub disagreement: bool,
}

/// Sweeps the cross-partition delay and records where disagreement starts.
///
/// The paper predicts a sharp threshold at the decision horizon: below it
/// the two groups merge their views in time; above it they are
/// indistinguishable from isolated systems and must disagree.
pub fn delay_sweep(
    group_a: &[NodeId],
    group_b: &[NodeId],
    patience: u64,
    delays: impl IntoIterator<Item = u64>,
) -> Vec<SweepPoint> {
    delays
        .into_iter()
        .map(|d| {
            let outcome = partition_run(group_a, group_b, patience, d, 10 * (patience + d + 4))
                .expect("timeout consensus always decides");
            SweepPoint {
                cross_delay: d,
                disagreement: outcome.disagreement,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_sim::sparse_ids;

    #[test]
    fn fast_network_agrees() {
        let ids = sparse_ids(6, 1);
        let outcome = partition_run(&ids[..3], &ids[3..], 4, 1, 100).expect("decides");
        assert!(!outcome.disagreement);
        // Majority of {1, 1, 1, 0, 0, 0} with ties toward 0.
        assert!(outcome.decisions.values().all(|&v| v == 0));
    }

    #[test]
    fn partitioned_network_disagrees() {
        let ids = sparse_ids(6, 2);
        let patience = 3;
        let horizon = TimeoutConsensus::decision_horizon(patience);
        let outcome =
            partition_run(&ids[..3], &ids[3..], patience, horizon + 1, 100).expect("decides");
        assert!(outcome.disagreement, "both groups decide their own input");
    }

    #[test]
    fn sweep_shows_sharp_threshold() {
        let ids = sparse_ids(4, 5);
        let patience = 2;
        let horizon = TimeoutConsensus::decision_horizon(patience);
        let sweep = delay_sweep(&ids[..2], &ids[2..], patience, 1..=(horizon + 3));
        for point in &sweep {
            assert_eq!(
                point.disagreement,
                point.cross_delay > horizon,
                "threshold at the decision horizon: {point:?}"
            );
        }
    }

    #[test]
    fn raising_patience_never_helps() {
        // The semi-synchronous argument: for EVERY patience value there is a
        // delay (unknown to the nodes) that forces disagreement.
        let ids = sparse_ids(4, 8);
        for patience in [1, 2, 5, 9] {
            let horizon = TimeoutConsensus::decision_horizon(patience);
            let outcome =
                partition_run(&ids[..2], &ids[2..], patience, horizon + 1, 400).expect("decides");
            assert!(outcome.disagreement, "patience {patience} still fails");
        }
    }
}
