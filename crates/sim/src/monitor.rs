//! Online invariant monitoring.
//!
//! The executable specs in `uba-core::spec` check run *outputs* — they can
//! only say that a finished run ended in a bad state. A [`RoundMonitor`]
//! instead rides inside the engine: after every round it sees the partial
//! state of every present process and can flag the **first** round in which
//! a property breaks, which is what makes fault-plan sweeps debuggable
//! (the violating round plus a shrunk plan is a minimal reproduction).
//!
//! The monitor interface lives in `uba-sim` so the engine can call it, but
//! deliberately knows nothing about concrete properties; the monitors that
//! evaluate the paper's predicates on partial state are in
//! `uba-core::monitor`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use uba_trace::TraceEvent;

use crate::id::NodeId;
use crate::process::Process;

/// A property violation observed by a monitor, with the round it first
/// appeared in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationReport {
    /// First round at the end of which the property did not hold.
    pub round: u64,
    /// Name of the violated property (e.g. `"consensus agreement"`).
    pub spec: String,
    /// Ids of the offending nodes, when the monitor attributes blame;
    /// empty when the property is global (e.g. a round bound).
    pub nodes: Vec<NodeId>,
    /// Human-readable details, one entry per offending node or message.
    pub violations: Vec<String>,
}

impl ViolationReport {
    /// The [`TraceEvent::MonitorVerdict`] of this violation — the final
    /// event of the aborted run, so a postmortem trace ends with what went
    /// wrong.
    pub fn verdict_event(&self) -> TraceEvent {
        TraceEvent::MonitorVerdict {
            round: self.round,
            monitor: self.spec.clone(),
            ok: false,
            nodes: self.nodes.iter().map(|n| n.raw()).collect(),
            details: self.violations.clone(),
        }
    }
}

impl fmt::Display for ViolationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} violated at round {}", self.spec, self.round)?;
        if !self.nodes.is_empty() {
            let names: Vec<String> = self.nodes.iter().map(NodeId::to_string).collect();
            write!(f, " (nodes: {})", names.join(", "))?;
        }
        write!(f, ": {}", self.violations.join("; "))
    }
}

/// What a [`RoundMonitor`] observes at the end of each round.
#[derive(Debug)]
pub struct MonitorView<'m, P: Process> {
    /// The round that just finished executing.
    pub round: u64,
    /// Every present correct process, including terminated and currently
    /// crashed ones, keyed by id.
    pub processes: BTreeMap<NodeId, &'m P>,
    /// Termination rounds of the present correct nodes that have decided.
    pub decided_rounds: BTreeMap<NodeId, u64>,
    /// Present Byzantine node ids.
    pub faulty: &'m BTreeSet<NodeId>,
    /// Nodes currently crash-faulted by the engine's fault plan.
    pub crashed: &'m BTreeSet<NodeId>,
}

impl<P: Process> MonitorView<'_, P> {
    /// Outputs produced so far by the present correct nodes.
    pub fn outputs(&self) -> BTreeMap<NodeId, P::Output> {
        self.processes
            .iter()
            .filter_map(|(&id, p)| p.output().map(|o| (id, o)))
            .collect()
    }

    /// The process of node `id`, if it is a present correct node.
    pub fn process(&self, id: NodeId) -> Option<&P> {
        self.processes.get(&id).copied()
    }
}

/// An online invariant checker, invoked by the engine after every round.
///
/// Returning `Err` aborts the run with
/// [`EngineError::InvariantViolated`](crate::EngineError::InvariantViolated);
/// the report pinpoints the first offending round.
pub trait RoundMonitor<P: Process> {
    /// Checks the invariants on the partial state after one round.
    ///
    /// # Errors
    ///
    /// Returns the violation to abort the run with.
    fn check(&mut self, view: &MonitorView<'_, P>) -> Result<(), ViolationReport>;
}

impl<P: Process, F> RoundMonitor<P> for F
where
    F: FnMut(&MonitorView<'_, P>) -> Result<(), ViolationReport>,
{
    fn check(&mut self, view: &MonitorView<'_, P>) -> Result<(), ViolationReport> {
        self(view)
    }
}

/// Runs several monitors in sequence; the first violation wins.
///
/// # Examples
///
/// ```
/// use uba_sim::{MonitorSet, MonitorView, RoundMonitor, ViolationReport};
/// use uba_sim::testutil::Idle;
///
/// let mut set: MonitorSet<Idle> = MonitorSet::new();
/// set.push(|view: &MonitorView<'_, Idle>| {
///     if view.round > 3 {
///         Err(ViolationReport {
///             round: view.round,
///             spec: "round bound".into(),
///             nodes: vec![],
///             violations: vec!["ran past round 3".into()],
///         })
///     } else {
///         Ok(())
///     }
/// });
/// # let _ = set;
/// ```
pub struct MonitorSet<P: Process> {
    monitors: Vec<Box<dyn RoundMonitor<P>>>,
}

impl<P: Process> Default for MonitorSet<P> {
    fn default() -> Self {
        MonitorSet {
            monitors: Vec::new(),
        }
    }
}

impl<P: Process> MonitorSet<P> {
    /// Creates an empty set (checks nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a monitor to the sequence.
    pub fn push<M: RoundMonitor<P> + 'static>(&mut self, monitor: M) -> &mut Self {
        self.monitors.push(Box::new(monitor));
        self
    }

    /// Adds a monitor, builder-style.
    pub fn with<M: RoundMonitor<P> + 'static>(mut self, monitor: M) -> Self {
        self.monitors.push(Box::new(monitor));
        self
    }

    /// Number of monitors in the set.
    pub fn len(&self) -> usize {
        self.monitors.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.monitors.is_empty()
    }
}

impl<P: Process> fmt::Debug for MonitorSet<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonitorSet")
            .field("monitors", &self.monitors.len())
            .finish()
    }
}

impl<P: Process> RoundMonitor<P> for MonitorSet<P> {
    fn check(&mut self, view: &MonitorView<'_, P>) -> Result<(), ViolationReport> {
        for monitor in &mut self.monitors {
            monitor.check(view)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Idle;

    fn view<'m>(
        round: u64,
        faulty: &'m BTreeSet<NodeId>,
        crashed: &'m BTreeSet<NodeId>,
    ) -> MonitorView<'m, Idle> {
        MonitorView {
            round,
            processes: BTreeMap::new(),
            decided_rounds: BTreeMap::new(),
            faulty,
            crashed,
        }
    }

    #[test]
    fn monitor_set_reports_first_failure() {
        let mut set: MonitorSet<Idle> = MonitorSet::new();
        set.push(|_: &MonitorView<'_, Idle>| Ok(()));
        set.push(|view: &MonitorView<'_, Idle>| {
            Err(ViolationReport {
                round: view.round,
                spec: "second".into(),
                nodes: vec![],
                violations: vec!["boom".into()],
            })
        });
        set.push(|_: &MonitorView<'_, Idle>| {
            panic!("unreachable: the previous monitor already failed")
        });
        let faulty = BTreeSet::new();
        let crashed = BTreeSet::new();
        let err = set.check(&view(4, &faulty, &crashed)).unwrap_err();
        assert_eq!(err.spec, "second");
        assert_eq!(err.round, 4);
    }

    #[test]
    fn violation_report_displays_round_and_spec() {
        let report = ViolationReport {
            round: 9,
            spec: "agreement".into(),
            nodes: vec![],
            violations: vec!["a".into(), "b".into()],
        };
        assert_eq!(report.to_string(), "agreement violated at round 9: a; b");
    }

    #[test]
    fn violation_report_names_offending_nodes() {
        let report = ViolationReport {
            round: 9,
            spec: "agreement".into(),
            nodes: vec![NodeId::new(3), NodeId::new(9)],
            violations: vec!["split".into()],
        };
        assert_eq!(
            report.to_string(),
            "agreement violated at round 9 (nodes: N3, N9): split"
        );
    }
}
