//! Run statistics: rounds executed and messages transferred.
//!
//! The paper's complexity claims are about rounds and messages, so the engine
//! counts both exactly. A broadcast to `k` present nodes counts as `k`
//! message deliveries (that is how message complexity is accounted in the
//! cited literature, e.g. the polynomial message complexity of the king
//! algorithm), and the number of *send operations* is tracked separately.
//!
//! The same information flows through the structured trace stream
//! (`uba-trace`): [`Stats::from_events`] folds an event stream back into a
//! `Stats` value, and the engine guarantees the two views agree — the
//! counters are a cheap projection of the trace, kept hot because tracing
//! is usually disabled.

use uba_trace::TraceEvent;

/// Statistics collected by an engine over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Rounds fully executed.
    pub rounds: u64,
    /// Message deliveries to correct nodes plus faulty nodes (a broadcast to
    /// `k` present nodes counts `k`).
    pub deliveries: u64,
    /// Deliveries originating from correct nodes.
    pub correct_deliveries: u64,
    /// Deliveries originating from the adversary.
    pub adversary_deliveries: u64,
    /// Send operations performed by correct nodes (a broadcast counts 1).
    pub correct_sends: u64,
    /// Send operations performed by the adversary (a broadcast counts 1).
    pub adversary_sends: u64,
    /// Deliveries per round, indexed by round - 1. A delivery is attributed
    /// to the round its message was **sent** in (it physically arrives one
    /// round later).
    pub deliveries_by_round: Vec<u64>,
}

impl Stats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn begin_round(&mut self) {
        self.rounds += 1;
        self.deliveries_by_round.push(0);
    }

    /// Counts `count` deliveries of one send (a broadcast's whole fan-out
    /// at once), attributed to the current round.
    pub(crate) fn record_deliveries(&mut self, from_adversary: bool, count: u64) {
        self.deliveries += count;
        if from_adversary {
            self.adversary_deliveries += count;
        } else {
            self.correct_deliveries += count;
        }
        // A delivery before the first `begin_round` has no round to be
        // attributed to; silently dropping it from the per-round breakdown
        // would desynchronise `deliveries_by_round` from `deliveries`.
        debug_assert!(
            !self.deliveries_by_round.is_empty(),
            "record_deliveries called before begin_round: \
             the deliveries cannot be attributed to any round"
        );
        if let Some(last) = self.deliveries_by_round.last_mut() {
            *last += count;
        }
    }

    pub(crate) fn record_send(&mut self, from_adversary: bool) {
        if from_adversary {
            self.adversary_sends += 1;
        } else {
            self.correct_sends += 1;
        }
    }

    /// Folds a trace event stream back into run statistics.
    ///
    /// For a traced engine run this reproduces the engine's own [`Stats`]
    /// exactly: the counters are a projection of the trace (rounds from
    /// `RoundBegin`, sends from `Send`, deliveries from `Deliver`, with the
    /// same sent-in-round attribution).
    pub fn from_events<'a, I>(events: I) -> Self
    where
        I: IntoIterator<Item = &'a TraceEvent>,
    {
        let mut stats = Stats::new();
        for event in events {
            match event {
                TraceEvent::RoundBegin { .. } => stats.begin_round(),
                TraceEvent::Send { adversary, .. } => stats.record_send(*adversary),
                TraceEvent::Deliver { adversary, .. } => stats.record_deliveries(*adversary, 1),
                _ => {}
            }
        }
        stats
    }
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} rounds, {} sends ({} adversarial), {} deliveries",
            self.rounds,
            self.correct_sends + self.adversary_sends,
            self.adversary_sends,
            self.deliveries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.begin_round();
        s.record_send(false);
        s.record_deliveries(false, 1);
        s.record_deliveries(true, 1);
        s.begin_round();
        s.record_deliveries(false, 1);
        assert_eq!(s.rounds, 2);
        assert_eq!(s.deliveries, 3);
        assert_eq!(s.correct_deliveries, 2);
        assert_eq!(s.adversary_deliveries, 1);
        assert_eq!(s.deliveries_by_round, vec![2, 1]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "record_deliveries called before begin_round")]
    fn delivery_before_first_round_is_rejected() {
        let mut s = Stats::new();
        s.record_deliveries(false, 1);
    }

    #[test]
    fn from_events_replays_the_engine_attribution() {
        let events = vec![
            TraceEvent::RoundBegin { round: 1 },
            TraceEvent::Send {
                round: 1,
                from: 1,
                to: None,
                payload: "a".into(),
                adversary: false,
            },
            TraceEvent::Deliver {
                round: 1,
                from: 1,
                to: 2,
                payload: "a".into(),
                adversary: false,
            },
            TraceEvent::Deliver {
                round: 1,
                from: 9,
                to: 2,
                payload: "b".into(),
                adversary: true,
            },
            TraceEvent::RoundBegin { round: 2 },
            TraceEvent::Send {
                round: 2,
                from: 9,
                to: Some(2),
                payload: "c".into(),
                adversary: true,
            },
            TraceEvent::Deliver {
                round: 2,
                from: 9,
                to: 2,
                payload: "c".into(),
                adversary: true,
            },
        ];
        let s = Stats::from_events(&events);
        assert_eq!(s.rounds, 2);
        assert_eq!(s.correct_sends, 1);
        assert_eq!(s.adversary_sends, 1);
        assert_eq!(s.deliveries, 3);
        assert_eq!(s.correct_deliveries, 1);
        assert_eq!(s.adversary_deliveries, 2);
        assert_eq!(s.deliveries_by_round, vec![2, 1]);
    }

    #[test]
    fn display_is_compact_and_non_empty() {
        let mut s = Stats::new();
        s.begin_round();
        s.record_send(false);
        s.record_send(true);
        s.record_deliveries(false, 1);
        assert_eq!(
            s.to_string(),
            "1 rounds, 2 sends (1 adversarial), 1 deliveries"
        );
    }
}
