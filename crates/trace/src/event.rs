//! The trace event vocabulary.
//!
//! One [`TraceEvent`] is emitted for every observable step of an engine run:
//! round boundaries, message traffic (sends, deliveries, duplicate drops),
//! adversary activity, churn, injected faults, monitor verdicts, and
//! per-node algorithm state transitions. Node identifiers appear as raw
//! `u64` values so the vocabulary stays independent of the simulator crate;
//! payloads are carried as their `Debug` rendering, produced only when a
//! tracer is actually attached.

use std::fmt::Debug;

/// A point-in-time snapshot of one node's algorithm state, reported through
/// the engine's observe hook (see `uba-core::observe`).
///
/// Every field is optional: an algorithm reports whatever it has. The engine
/// diffs consecutive snapshots per node and emits a
/// [`TraceEvent::NodeState`] only when something changed, so the trace
/// records *transitions*, not steady state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeSnapshot {
    /// Protocol-level phase counter (e.g. consensus phases executed,
    /// approximate-agreement iterations completed).
    pub phase: Option<u64>,
    /// The node's current estimate/opinion, rendered via `Debug`.
    pub estimate: Option<String>,
    /// The node's participant estimate `n_v`, once frozen/known.
    pub n_v: Option<u64>,
    /// The node's final output, rendered via `Debug`, once decided.
    pub decided: Option<String>,
}

impl NodeSnapshot {
    /// An empty snapshot (nothing reported yet).
    pub fn new() -> Self {
        Self::default()
    }
}

/// One structured event of an engine run.
///
/// Rounds are 1-based engine rounds. A delivery is attributed to the round
/// its message was *sent* in — it physically arrives at the start of the
/// next round — matching the round-attribution of the engine's statistics.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A round started executing (after churn and fault application).
    RoundBegin {
        /// The 1-based round.
        round: u64,
    },
    /// A round finished executing.
    RoundEnd {
        /// The 1-based round.
        round: u64,
        /// Deliveries recorded during the round (messages sent this round
        /// that will arrive next round).
        deliveries: u64,
    },
    /// A node performed one send operation (broadcast or point-to-point).
    /// The message may still be suppressed by a fault before delivery; a
    /// send records intent, not receipt.
    Send {
        /// Round of the send.
        round: u64,
        /// Sender id.
        from: u64,
        /// Destination id; `None` means broadcast to every present node.
        to: Option<u64>,
        /// `Debug` rendering of the payload.
        payload: String,
        /// Whether the sender was adversary-controlled.
        adversary: bool,
    },
    /// A message was accepted for delivery at the start of the next round.
    Deliver {
        /// Round the message was sent in.
        round: u64,
        /// Sender id.
        from: u64,
        /// Recipient id.
        to: u64,
        /// `Debug` rendering of the payload.
        payload: String,
        /// Whether the sender was adversary-controlled.
        adversary: bool,
    },
    /// A duplicate `(sender, payload)` pair addressed to the same recipient
    /// within one round was discarded, as the model demands.
    DuplicateDrop {
        /// Round of the duplicate send.
        round: u64,
        /// Sender id.
        from: u64,
        /// Recipient id.
        to: u64,
        /// `Debug` rendering of the discarded payload.
        payload: String,
    },
    /// The rushing adversary committed its traffic for the round.
    Adversary {
        /// Round of the adversary step.
        round: u64,
        /// Number of send operations the adversary performed.
        sends: u64,
    },
    /// A node joined the system through the churn schedule.
    ChurnJoin {
        /// Round of the join.
        round: u64,
        /// The joining node.
        node: u64,
        /// Whether it joined as an adversary-controlled node.
        faulty: bool,
    },
    /// A node left the system through the churn schedule.
    ChurnLeave {
        /// Round of the leave.
        round: u64,
        /// The leaving node.
        node: u64,
    },
    /// A benign fault from the fault plan fired.
    Fault {
        /// Round the fault applies to.
        round: u64,
        /// Fault kind: `crash`, `recover`, `silence-send`, `drop-inbound`,
        /// `drop-link`, or `byzantine_evict` (a peer disconnected for
        /// attributable wire misbehavior, as opposed to the
        /// omission-charged silence of a timeout).
        kind: &'static str,
        /// The node the fault is charged to.
        node: u64,
        /// The second endpoint, for link faults.
        peer: Option<u64>,
    },
    /// An online monitor reached a verdict. Engines emit this only on
    /// violation (a passing round is the steady state); it is therefore the
    /// final event of a run aborted by an invariant violation.
    MonitorVerdict {
        /// Round the verdict applies to.
        round: u64,
        /// Name of the monitored property (e.g. `"consensus agreement"`).
        monitor: String,
        /// Whether the property held.
        ok: bool,
        /// Ids of the offending nodes, when the monitor attributes blame.
        nodes: Vec<u64>,
        /// Human-readable details, one entry per violation.
        details: Vec<String>,
    },
    /// A node's observed algorithm state changed (see [`NodeSnapshot`]).
    NodeState {
        /// Round at the end of which the new state was observed.
        round: u64,
        /// The node.
        node: u64,
        /// The new snapshot.
        state: NodeSnapshot,
    },
    /// A transport-level event from a real network transport (`uba-net`):
    /// connection management and round-synchronizer progress. The simulator
    /// engines never emit this variant; it exists so a networked run and a
    /// simulated run share one trace vocabulary and one metrics pipeline.
    Net {
        /// Round (or connection-setup pseudo-round 0) the event belongs to.
        round: u64,
        /// What happened on the transport.
        kind: NetEventKind,
        /// The reporting node.
        node: u64,
        /// The peer involved, when the event concerns one.
        peer: Option<u64>,
        /// Free-form detail: an address, an attempt count, a frame round.
        /// Empty when there is nothing to add.
        info: String,
    },
}

/// The transport-level event kinds a real network transport reports (the
/// [`TraceEvent::Net`] variant): a member's round driver and the link
/// shaping in its connection readers, each stamping the round it is in.
/// The `logd` service layer above them emits none; its client and batch
/// activity is wall-clock-ordered and goes to the runtime registry only
/// (DESIGN.md §10, §12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEventKind {
    /// A connection to a peer was established (dialed or accepted).
    Connect,
    /// A dial attempt failed and will be retried after a backoff.
    Retry,
    /// The round barrier timed out waiting for a peer; the peer is treated
    /// as silent for the round (an omission, in the fault model's terms).
    Timeout,
    /// A frame for an already-advanced round arrived and was dropped (the
    /// networked analogue of a message lost to a receive omission).
    LateDrop,
    /// The round barrier released and the node advanced to the next round.
    RoundAdvance,
    /// A peer was presumed gone (connection closed or too many consecutive
    /// silent rounds) and removed from the barrier's expectations.
    PeerGone,
    /// A node came back from a crash: it recovered its round journal and
    /// resumed the round loop at the recorded round (the `info` field says
    /// whether the journal tail was torn).
    Resume,
    /// A `SyncRequest` frame was sent (a recovering node asking its peers to
    /// backfill the rounds it missed) or received (a peer about to answer).
    SyncRequest,
    /// A `SyncTips` frame was received: the responding peer's view of the
    /// cluster position (its current round, the oldest round it can still
    /// backfill, and whether it already decided).
    SyncTips,
    /// A `Backfill` frame was sent or applied: one round's worth of the
    /// responder's own past traffic replayed to a recovering peer.
    Backfill,
    /// A previously silent or declared-gone peer was re-admitted to the
    /// barrier's expectations after it announced itself with a
    /// `SyncRequest`.
    Rejoin,
    /// A shaped link dropped one frame, per its seeded loss draw (the
    /// networked analogue of a `drop-link` fault for a single message).
    /// Delay and bandwidth throttling are wall-clock observations and
    /// trace nothing: they live in the runtime metrics only.
    LinkDrop,
    /// A scheduled partition severed a link for a round: every `Data`/`Done`
    /// frame of that round was discarded. Emitted once per (link, round) in
    /// the partition window.
    LinkPartition,
    /// The first frame crossed a link again after a partition window ended —
    /// the heal, observed by the receiving end's connection reader.
    LinkHeal,
    /// A peer violated the wire protocol in a way no honest node can
    /// (malformed/oversized frame, out-of-window round, post-`Done` data
    /// injection, barrier equivocation, ingress-quota flood, backfill
    /// abuse); the `info` field names the misbehavior kind and the strike
    /// count. Distinct from [`Timeout`](Self::Timeout): this is attributable
    /// malice, not silence.
    Misbehavior,
    /// A peer exhausted its strike budget and was evicted: link torn down,
    /// removed from the barrier's expectations, all further traffic from it
    /// ignored. Distinct from [`PeerGone`](Self::PeerGone), which charges
    /// benign silence.
    ByzEvict,
}

impl TraceEvent {
    /// A [`Send`](Self::Send) of `payload` (`to`: `None` for a broadcast).
    /// With [`deliver`](Self::deliver) and
    /// [`duplicate_drop`](Self::duplicate_drop) the one place a payload is
    /// rendered — with `{:?}` — so every engine and transport traces one
    /// message as the same bytes. Rendering allocates: call behind
    /// [`Tracer::enabled`](crate::Tracer::enabled).
    pub fn send(
        round: u64,
        from: u64,
        to: Option<u64>,
        payload: &dyn Debug,
        adversary: bool,
    ) -> Self {
        TraceEvent::Send {
            round,
            from,
            to,
            payload: format!("{payload:?}"),
            adversary,
        }
    }

    /// A [`Deliver`](Self::Deliver) of `payload`, sent in `round`.
    pub fn deliver(round: u64, from: u64, to: u64, payload: &dyn Debug, adversary: bool) -> Self {
        TraceEvent::Deliver {
            round,
            from,
            to,
            payload: format!("{payload:?}"),
            adversary,
        }
    }

    /// A [`DuplicateDrop`](Self::DuplicateDrop) of `payload`.
    pub fn duplicate_drop(round: u64, from: u64, to: u64, payload: &dyn Debug) -> Self {
        TraceEvent::DuplicateDrop {
            round,
            from,
            to,
            payload: format!("{payload:?}"),
        }
    }

    /// Short machine-readable event kind (the `ev` field of the JSONL
    /// encoding).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RoundBegin { .. } => "round_begin",
            TraceEvent::RoundEnd { .. } => "round_end",
            TraceEvent::Send { .. } => "send",
            TraceEvent::Deliver { .. } => "deliver",
            TraceEvent::DuplicateDrop { .. } => "duplicate_drop",
            TraceEvent::Adversary { .. } => "adversary",
            TraceEvent::ChurnJoin { .. } => "churn_join",
            TraceEvent::ChurnLeave { .. } => "churn_leave",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::MonitorVerdict { .. } => "monitor_verdict",
            TraceEvent::NodeState { .. } => "node_state",
            TraceEvent::Net { kind, .. } => match kind {
                NetEventKind::Connect => "net_connect",
                NetEventKind::Retry => "net_retry",
                NetEventKind::Timeout => "net_timeout",
                NetEventKind::LateDrop => "net_late_drop",
                NetEventKind::RoundAdvance => "net_round_advance",
                NetEventKind::PeerGone => "net_peer_gone",
                NetEventKind::Resume => "net_resume",
                NetEventKind::SyncRequest => "net_sync_request",
                NetEventKind::SyncTips => "net_sync_tips",
                NetEventKind::Backfill => "net_backfill",
                NetEventKind::Rejoin => "net_rejoin",
                NetEventKind::LinkDrop => "net_link_drop",
                NetEventKind::LinkPartition => "net_link_partition",
                NetEventKind::LinkHeal => "net_link_heal",
                NetEventKind::Misbehavior => "net_byz_misbehavior",
                NetEventKind::ByzEvict => "net_byz_evict",
            },
        }
    }

    /// The round the event belongs to.
    pub fn round(&self) -> u64 {
        match *self {
            TraceEvent::RoundBegin { round }
            | TraceEvent::RoundEnd { round, .. }
            | TraceEvent::Send { round, .. }
            | TraceEvent::Deliver { round, .. }
            | TraceEvent::DuplicateDrop { round, .. }
            | TraceEvent::Adversary { round, .. }
            | TraceEvent::ChurnJoin { round, .. }
            | TraceEvent::ChurnLeave { round, .. }
            | TraceEvent::Fault { round, .. }
            | TraceEvent::MonitorVerdict { round, .. }
            | TraceEvent::NodeState { round, .. }
            | TraceEvent::Net { round, .. } => round,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_and_round_are_consistent() {
        let ev = TraceEvent::Deliver {
            round: 4,
            from: 1,
            to: 2,
            payload: "x".into(),
            adversary: false,
        };
        assert_eq!(ev.kind(), "deliver");
        assert_eq!(ev.round(), 4);
        let ev = TraceEvent::MonitorVerdict {
            round: 9,
            monitor: "agreement".into(),
            ok: false,
            nodes: vec![1, 2],
            details: vec!["split".into()],
        };
        assert_eq!(ev.kind(), "monitor_verdict");
        assert_eq!(ev.round(), 9);
    }

    #[test]
    fn net_kinds_have_distinct_event_names() {
        use std::collections::BTreeSet;
        let kinds = [
            NetEventKind::Connect,
            NetEventKind::Retry,
            NetEventKind::Timeout,
            NetEventKind::LateDrop,
            NetEventKind::RoundAdvance,
            NetEventKind::PeerGone,
            NetEventKind::Resume,
            NetEventKind::SyncRequest,
            NetEventKind::SyncTips,
            NetEventKind::Backfill,
            NetEventKind::Rejoin,
            NetEventKind::LinkDrop,
            NetEventKind::LinkPartition,
            NetEventKind::LinkHeal,
            NetEventKind::Misbehavior,
            NetEventKind::ByzEvict,
        ];
        let names: BTreeSet<&str> = kinds
            .iter()
            .map(|&kind| {
                TraceEvent::Net {
                    round: 1,
                    kind,
                    node: 1,
                    peer: None,
                    info: String::new(),
                }
                .kind()
            })
            .collect();
        assert_eq!(names.len(), kinds.len(), "one counter per net kind");
        assert!(names.iter().all(|n| n.starts_with("net_")));
    }

    #[test]
    fn snapshot_diffing_uses_equality() {
        let a = NodeSnapshot {
            phase: Some(1),
            ..NodeSnapshot::new()
        };
        let b = NodeSnapshot {
            phase: Some(1),
            ..NodeSnapshot::new()
        };
        assert_eq!(a, b);
        let c = NodeSnapshot {
            phase: Some(2),
            ..NodeSnapshot::new()
        };
        assert_ne!(a, c);
    }
}
