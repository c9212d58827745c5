//! [`NetNode`]: one cluster member — a [`Process`] plus the machinery that
//! drives it over TCP in lock-step rounds.
//!
//! The run loop mirrors the simulator's `SyncEngine` exactly, one node at a
//! time: deliver the previous round's inbox, step the process, flush its
//! outbox to every peer, publish the `Done` barrier marker, wait at the
//! barrier, advance. A peer that misses the barrier deadline is charged
//! with an **omission** for the round (its traffic, if any, arrives too
//! late and is dropped) — precisely a fault the paper's model already
//! accounts for, which is why correctness does not depend on tuning the
//! timeout and why `uba-core`'s monitors attach unchanged.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::thread;
use std::time::{Duration, Instant};

use uba_sim::{
    Context, Dest, Envelope, MonitorView, MsgRef, NodeId, Outbox, Process, RoundMonitor,
    ViolationReport,
};
use uba_trace::{
    metric_name, JournalEntry, JournalRecovery, NetEventKind, NoopTracer, RoundJournal,
    SharedRuntimeMetrics, TraceEvent, Tracer,
};

use crate::conn::{LinkEvent, Links, Mesh, RetryPolicy};
use crate::sync::{DataOutcome, DoneOutcome, RoundSynchronizer};
use crate::wire::{Frame, FrameFault, Wire};

/// Tuning knobs of a networked node.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// How long to wait at the round barrier before charging the missing
    /// peers with an omission for the round.
    pub round_timeout: Duration,
    /// Backoff schedule for dialing peers (initial mesh setup and
    /// mid-run redials).
    pub retry: RetryPolicy,
    /// Additional budget for the initial full-mesh setup: peers of a
    /// just-launched cluster come up in arbitrary order.
    pub setup_timeout: Duration,
    /// Abort with [`NetError::RoundLimit`] if no decision was reached after
    /// this many rounds (safety net against livelock, like the engine's
    /// `run_to_completion` bound).
    pub max_rounds: u64,
    /// After this many *consecutive* missed barriers a peer is declared
    /// gone and dropped from the barrier, so one dead peer costs bounded
    /// waiting instead of a timeout every round forever.
    pub give_up_after: u64,
    /// How many completed rounds of own traffic the node retains for
    /// answering [`Frame::SyncRequest`] backfills. A rejoiner that was down
    /// longer than this (at one barrier timeout per round) simply misses
    /// the pruned rounds — an omission, which the model tolerates. Larger
    /// windows buy longer tolerated downtimes at the price of memory
    /// proportional to the retained traffic.
    pub history_rounds: usize,
    /// Minimum wall-clock duration of one round. Zero (the default) keeps
    /// rounds as fast as the barrier allows — the right choice for one-shot
    /// agreement runs. A long-lived ordering service (`logd`) paces its
    /// rounds instead, so client submissions arriving between barriers have
    /// a window to land in the next batch; throughput then scales as
    /// shards × batch size × round rate rather than being a race against
    /// the barrier.
    pub round_pace: Duration,
    /// Per-peer ingress quota: frames accepted from one peer within one
    /// round before further frames are dropped and a flood strike is
    /// charged. Sized far above any honest burst (a full backfill catch-up
    /// is `history_rounds` frames plus live traffic), so only a flooder
    /// ever trips it — DESIGN.md §13.
    pub max_frames_per_round: u64,
    /// Per-peer ingress quota: bytes accepted from one peer within one
    /// round (same strike semantics as `max_frames_per_round`).
    pub max_bytes_per_round: u64,
    /// Misbehavior strikes (quota floods, malformed/oversized frames,
    /// out-of-window rounds, post-`Done` injections, barrier equivocation,
    /// backfill abuse) a peer may accumulate before it is evicted:
    /// disconnected, removed from the barrier, and ignored for the rest of
    /// the run. Omission timeouts are *not* strikes — silence stays
    /// governed by `give_up_after`.
    pub strike_limit: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            round_timeout: Duration::from_secs(2),
            retry: RetryPolicy::default(),
            setup_timeout: Duration::from_secs(10),
            max_rounds: 10_000,
            give_up_after: 5,
            history_rounds: 64,
            round_pace: Duration::ZERO,
            max_frames_per_round: 1024,
            max_bytes_per_round: 32 * 1024 * 1024,
            strike_limit: 3,
        }
    }
}

/// Why a networked run ended without producing a report.
#[derive(Debug)]
pub enum NetError {
    /// Transport-level failure (listener died, no peer ever reachable).
    Io(io::Error),
    /// The round limit elapsed without the cluster reaching a decision.
    RoundLimit(u64),
    /// An attached [`RoundMonitor`] flagged an invariant violation.
    InvariantViolated(ViolationReport),
    /// The node was killed by fault injection ([`NetNode::kill_at_round`])
    /// at the start of the given round: sockets are shut down, peers see
    /// EOF, and the process can later be rebuilt from its journal via
    /// [`NetNode::resume`].
    Killed(u64),
    /// A cluster member's thread panicked. Reported by the
    /// [`ClusterSpec`](crate::ClusterSpec) harness, which converts the
    /// panic into this typed error, keeps draining the
    /// surviving members, and flips their abort flag so they shut down
    /// promptly instead of grinding out their give-up budgets.
    MemberPanicked {
        /// The member whose thread panicked.
        id: NodeId,
    },
    /// The run was aborted through [`NetNode::with_abort_flag`] — the
    /// harness pulled the plug (e.g. because another member panicked), so
    /// this node shut its sockets down and stopped mid-run.
    Aborted,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(err) => write!(f, "transport error: {err}"),
            NetError::RoundLimit(limit) => {
                write!(f, "no decision within the {limit}-round limit")
            }
            NetError::InvariantViolated(report) => write!(f, "{report}"),
            NetError::Killed(round) => {
                write!(f, "killed by fault injection at the start of round {round}")
            }
            NetError::MemberPanicked { id } => {
                write!(f, "cluster member {id}'s thread panicked")
            }
            NetError::Aborted => write!(f, "run aborted by the harness"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(err: io::Error) -> Self {
        NetError::Io(err)
    }
}

/// What one node's networked run produced.
#[derive(Debug)]
pub struct NetReport<O, T> {
    /// The process's output, if it decided.
    pub output: Option<O>,
    /// The round the process decided in, if it did.
    pub decided_round: Option<u64>,
    /// Rounds executed (including the shutdown round).
    pub rounds: u64,
    /// Barrier timeouts charged over the whole run.
    pub timeouts: u64,
    /// Wall-clock duration of each round, in microseconds — the raw data
    /// behind the T11 latency table.
    pub round_micros: Vec<u64>,
    /// The tracer handed in via [`NetNode::with_tracer`], returned so the
    /// caller can inspect or dump the collected events.
    pub tracer: T,
    /// Peers this node evicted for wire misbehavior (raw ids, in eviction
    /// order) — charged distinctly from the omission timeouts above, so a
    /// verdict table can separate malice from silence.
    pub evicted: Vec<u64>,
}

/// Who a retained outgoing payload was addressed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SentTo {
    /// Broadcast: every present node.
    All,
    /// Point-to-point to one peer.
    One(NodeId),
}

/// One round of this node's *own* outgoing traffic, kept for backfill.
/// Only own traffic: a backfill must be as unforgeable as live traffic, so
/// a node never relays third-party payloads (the reader attributes every
/// frame — live or backfilled — to the connection's handshaken sender).
#[derive(Debug, Default)]
struct RoundHistory {
    /// Encoded payloads in send order, with their destination.
    sends: Vec<(SentTo, Vec<u8>)>,
    /// The `decided` flag of the `Done` marker, once published.
    done: Option<bool>,
}

/// Per-peer ingress accounting and the strike ledger (DESIGN.md §13).
/// Frame/byte counters reset at every round advance; strikes never reset —
/// a peer that keeps misbehaving runs out of budget and is evicted.
#[derive(Debug, Default)]
struct PeerDiscipline {
    /// Frames received from the peer within the current round.
    frames_this_round: u64,
    /// Approximate wire bytes received from the peer within the current
    /// round (payload sizes plus small per-frame overhead).
    bytes_this_round: u64,
    /// Lifetime misbehavior strikes.
    strikes: u32,
}

/// Cheap upper-bound estimate of a frame's wire size, for quota accounting
/// on the hot receive path (no throwaway encode — payload length plus a
/// small constant covers tags, rounds and flags for every variant).
fn frame_quota_len(frame: &Frame) -> u64 {
    let payload = match frame {
        Frame::Data { payload, .. } => payload.len(),
        Frame::Backfill { payloads, .. } => payloads.iter().map(|p| p.len() + 4).sum(),
        Frame::Submit { key, payload } => key.len() + payload.len(),
        Frame::PrefixChunk { records, .. } => records.iter().map(|r| r.len() + 4).sum(),
        _ => 0,
    };
    32 + payload as u64
}

/// One member of a networked cluster: a [`Process`] driven over TCP.
///
/// Generic over the process and the attached [`Tracer`] (default: none).
/// The process's payload type must implement [`Wire`] — the impls for all
/// `uba-core` payloads ship in [`crate::codec`].
///
/// See [`ClusterSpec`](crate::ClusterSpec) for the one-call way to run a
/// whole localhost cluster; `NetNode` is the building block when each
/// member runs in its own OS process. However a run ends, the node closes
/// its sockets, stops its accept loop and waits for its readers on the way
/// out ([`crate::conn`] documents the order).
pub struct NetNode<P: Process, T: Tracer = NoopTracer> {
    process: P,
    config: NetConfig,
    tracer: T,
    runtime: Option<SharedRuntimeMetrics>,
    monitor: Option<Box<dyn RoundMonitor<P> + Send>>,
    journal: Option<RoundJournal>,
    kill_at: Option<u64>,
    abort: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    history: BTreeMap<u64, RoundHistory>,
    /// Per-peer ingress quotas and strike ledger.
    discipline: BTreeMap<NodeId, PeerDiscipline>,
    /// Peers evicted for misbehavior: links torn down, frames ignored,
    /// reconnects refused.
    banned: BTreeSet<NodeId>,
    /// Peers we sent a `SyncRequest` to (resume path): the only senders a
    /// `Backfill` frame is accepted from — anyone else pushing unsolicited
    /// backfill is abusing the rejoin path.
    backfill_ok: BTreeSet<NodeId>,
    /// Round at which each peer was last served a backfill, to refuse
    /// repeat `SyncRequest`s within one round.
    sync_served: BTreeMap<NodeId, u64>,
    /// Raw ids of evicted peers, in eviction order (for the report).
    evicted: Vec<u64>,
}

impl<P: Process> NetNode<P, NoopTracer> {
    /// Wraps `process` with the given transport configuration.
    pub fn new(process: P, config: NetConfig) -> Self {
        NetNode {
            process,
            config,
            tracer: NoopTracer,
            runtime: None,
            monitor: None,
            journal: None,
            kill_at: None,
            abort: None,
            history: BTreeMap::new(),
            discipline: BTreeMap::new(),
            banned: BTreeSet::new(),
            backfill_ok: BTreeSet::new(),
            sync_served: BTreeMap::new(),
            evicted: Vec::new(),
        }
    }
}

impl<P: Process, T: Tracer> NetNode<P, T> {
    /// Attaches a tracer; it receives both the engine-style events
    /// (round boundaries, sends, deliveries, duplicate drops) and the
    /// transport-level [`TraceEvent::Net`] events.
    pub fn with_tracer<T2: Tracer>(self, tracer: T2) -> NetNode<P, T2> {
        NetNode {
            process: self.process,
            config: self.config,
            tracer,
            runtime: self.runtime,
            monitor: self.monitor,
            journal: self.journal,
            kill_at: self.kill_at,
            abort: self.abort,
            history: self.history,
            discipline: self.discipline,
            banned: self.banned,
            backfill_ok: self.backfill_ok,
            sync_served: self.sync_served,
            evicted: self.evicted,
        }
    }

    /// Attaches a wall-clock runtime metrics registry: per-round phase
    /// timings, per-peer byte/frame counters, reconnect/backfill/omission
    /// counters, and the retained-history gauge. Strictly separate from the
    /// deterministic tracer — runtime metrics read the monotonic clock and
    /// never feed the trace event stream, so attaching one cannot perturb
    /// byte-identical traces or decisions (DESIGN.md §10). Share one clone
    /// with a [`crate::serve_metrics`] endpoint to expose it live.
    pub fn with_runtime_metrics(mut self, runtime: SharedRuntimeMetrics) -> Self {
        self.runtime = Some(runtime);
        self
    }

    /// Attaches an online invariant monitor, checked after every round
    /// against this node's local state (a single-process
    /// [`MonitorView`]; global properties such as agreement need a view of
    /// the whole cluster and are checked by the harness after the run).
    pub fn with_monitor(mut self, monitor: impl RoundMonitor<P> + Send + 'static) -> Self {
        self.monitor = Some(Box::new(monitor));
        self
    }

    /// Attaches a durable round journal: every committed round appends its
    /// barrier-released inbox (fsync'd) before the node proceeds, so a
    /// crashed node can be rebuilt deterministically via [`resume`].
    ///
    /// [`resume`]: Self::resume
    pub fn with_journal(mut self, journal: RoundJournal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Arms fault injection: at the start of the given round the node shuts
    /// down every socket and returns [`NetError::Killed`] — indistinguishable,
    /// from the peers' side, from the OS process dying.
    pub fn kill_at_round(mut self, round: u64) -> Self {
        self.kill_at = Some(round);
        self
    }

    /// Attaches a harness-controlled abort flag: once it reads `true`, the
    /// node shuts its sockets down and returns [`NetError::Aborted`] at the
    /// next round boundary or barrier poll (the barrier wait degrades to
    /// short poll slices while a flag is attached, so the reaction time is
    /// bounded by tens of milliseconds, not by `round_timeout`). The
    /// cluster harness uses this to tear down survivors after one member's
    /// thread panicked.
    pub fn with_abort_flag(mut self, flag: std::sync::Arc<std::sync::atomic::AtomicBool>) -> Self {
        self.abort = Some(flag);
        self
    }

    /// Whether the attached abort flag (if any) has been raised.
    fn aborted(&self) -> bool {
        self.abort
            .as_ref()
            .is_some_and(|flag| flag.load(std::sync::atomic::Ordering::Relaxed))
    }
}

/// How often a node with an abort flag re-checks it while parked at the
/// round barrier. Coarse enough to cost nothing, fine enough that a
/// harness teardown never waits a full `round_timeout`.
const ABORT_POLL: Duration = Duration::from_millis(25);

impl<P, T> NetNode<P, T>
where
    P: Process,
    P::Msg: Wire,
    T: Tracer,
{
    /// Runs the node to completion: sets up the mesh, executes rounds until
    /// the whole cluster has decided (or until `max_rounds`), and reports.
    ///
    /// `listener` must already be bound to this node's address in `roster`;
    /// binding before spawning is what makes cluster startup race-free.
    /// `roster` maps every member (including this node) to its address.
    ///
    /// # Errors
    ///
    /// [`NetError::RoundLimit`] if the cluster never decides,
    /// [`NetError::InvariantViolated`] from an attached monitor, or
    /// [`NetError::Io`] if the transport fails outright.
    pub fn run(
        mut self,
        listener: TcpListener,
        roster: &BTreeMap<NodeId, SocketAddr>,
    ) -> Result<NetReport<P::Output, T>, NetError> {
        let me = self.process.id();
        let peers: Vec<NodeId> = roster.keys().copied().filter(|&p| p != me).collect();
        let mut sync = RoundSynchronizer::<P::Msg>::new(me, peers.iter().copied())
            .with_round_window(self.config.history_rounds as u64);

        // Dial every peer with a larger id; smaller ids dial us.
        let larger = peers.iter().copied().filter(|&p| p > me);
        let (mesh, unreachable) = self.open_mesh(Some(listener), roster, larger, 0)?;
        if let Some((_, err)) = unreachable.into_iter().next() {
            return Err(err.into());
        }

        // Wait for the full mesh. Fast peers may already be sending round-1
        // traffic while we wait, so frames are processed, not discarded.
        let mut connected: BTreeSet<NodeId> = BTreeSet::new();
        let setup_deadline = Instant::now() + self.config.setup_timeout;
        while !peers.iter().all(|p| connected.contains(p)) {
            let remaining = setup_deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            let Some(event) = mesh.next_event(remaining) else {
                break;
            };
            self.handle_link_event(event, &mut sync, &mut connected, me, &mesh.links);
        }
        for &peer in peers.iter().filter(|p| !connected.contains(p)) {
            // Never came up: run without it, as if it crashed before round 1.
            sync.peer_gone(peer);
            trace(&mut self.tracer, || TraceEvent::Net {
                round: 0,
                kind: NetEventKind::PeerGone,
                node: me.raw(),
                peer: Some(peer.raw()),
                info: "unreachable during setup".to_string(),
            });
        }

        self.run_rounds(sync, mesh, connected, Vec::new(), None)
    }

    /// Rebuilds a crashed node from its recovered journal and re-enters the
    /// cluster: replays the journaled inboxes through the fresh process (no
    /// sends — the originals already happened before the crash), dials
    /// every peer, announces itself with [`Frame::SyncRequest`], collects
    /// the missed rounds from the peers' backfills, and falls back into the
    /// lock-step barrier at the first round after the journal.
    ///
    /// The process handed to [`NetNode::new`] must be in its *initial*
    /// state, built with the same arguments as the crashed incarnation —
    /// determinism of `on_round` does the rest. Attach a fresh journal
    /// (from [`RoundJournal::resume`]) to keep the run crash-safe.
    ///
    /// Unlike [`run`](Self::run), a resuming node does not listen: nobody
    /// dials a rejoiner — re-entry is announced by dialing the peers.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] with [`io::ErrorKind::InvalidData`] if the journal
    /// belongs to a different node, plus everything [`run`](Self::run) can
    /// return.
    pub fn resume(
        mut self,
        recovery: &JournalRecovery,
        roster: &BTreeMap<NodeId, SocketAddr>,
    ) -> Result<NetReport<P::Output, T>, NetError> {
        let me = self.process.id();
        if recovery.node != me.raw() {
            return Err(NetError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("journal belongs to node {}, not {me}", recovery.node),
            )));
        }

        // Deterministic replay: feed each journaled round its recorded
        // inbox and discard the outboxes.
        let mut inbox: Vec<Envelope<P::Msg>> = Vec::new();
        let mut decided_round: Option<u64> = None;
        for entry in &recovery.entries {
            if !self.process.terminated() {
                let mut outbox = Outbox::new();
                let mut ctx = Context::new(entry.round, &inbox, &mut outbox);
                self.process.on_round(&mut ctx);
                if decided_round.is_none() && self.process.terminated() {
                    decided_round = Some(entry.round);
                }
            }
            inbox = entry
                .inbox
                .iter()
                .filter_map(|(from, bytes)| {
                    P::Msg::from_bytes(bytes).map(|msg| Envelope::new(NodeId::new(*from), msg))
                })
                .collect();
        }
        let next_round = recovery.last_round().map_or(1, |r| r + 1);

        let peers: Vec<NodeId> = roster.keys().copied().filter(|&p| p != me).collect();
        let mut sync =
            RoundSynchronizer::<P::Msg>::resume_at(me, peers.iter().copied(), next_round)
                .with_round_window(self.config.history_rounds as u64);
        let (mesh, unreachable) =
            self.open_mesh(None, roster, peers.iter().copied(), next_round)?;
        for (peer, _) in unreachable {
            // Unreachable while we were down (it may have crashed too, or
            // finished and closed): rejoin without it.
            sync.peer_gone(peer);
            trace(&mut self.tracer, || TraceEvent::Net {
                round: next_round,
                kind: NetEventKind::PeerGone,
                node: me.raw(),
                peer: Some(peer.raw()),
                info: "unreachable during rejoin".to_string(),
            });
        }

        // Announce the rejoin: ask every reachable peer for the rounds we
        // slept through (their own sends only — see `RoundHistory`).
        let request = Frame::SyncRequest { since: next_round };
        for peer in sync.expected().collect::<Vec<_>>() {
            mesh.links.send(peer, &request);
            count_sent(&self.runtime, peer, &request);
            // Only the peers we asked may answer with Backfill frames;
            // unsolicited backfill from anyone else is rejoin-path abuse.
            self.backfill_ok.insert(peer);
        }
        trace(&mut self.tracer, || TraceEvent::Net {
            round: next_round,
            kind: NetEventKind::Resume,
            node: me.raw(),
            peer: None,
            info: format!(
                "replayed {} journaled rounds{}, rejoining at round {next_round}",
                recovery.entries.len(),
                if recovery.torn {
                    " (torn tail truncated)"
                } else {
                    ""
                },
            ),
        });

        self.run_rounds(sync, mesh, BTreeSet::new(), inbox, decided_round)
    }

    /// Opens this node's [`Mesh`] — accepting on `listener`, if it has one —
    /// and dials `targets`, tracing every retry against `round`. Each pair
    /// gets its own jitter stream so simultaneous (re)starts spread out.
    /// Returns the mesh and the targets that stayed unreachable for the
    /// whole retry budget, with the last error.
    fn open_mesh(
        &mut self,
        listener: Option<TcpListener>,
        roster: &BTreeMap<NodeId, SocketAddr>,
        targets: impl Iterator<Item = NodeId>,
        round: u64,
    ) -> io::Result<(Mesh, Vec<(NodeId, io::Error)>)> {
        let me = self.process.id();
        let mesh = Mesh::open(me, listener)?;
        let mut unreachable = Vec::new();
        for peer in targets {
            let retry = pair_retry(self.config.retry, me, peer);
            let dialed = mesh.dial(roster[&peer], peer, retry, |attempt| {
                if let Some(rt) = &self.runtime {
                    rt.inc("net_dial_retries_total");
                }
                trace(&mut self.tracer, || TraceEvent::Net {
                    round,
                    kind: NetEventKind::Retry,
                    node: me.raw(),
                    peer: Some(peer.raw()),
                    info: format!("dial attempt {attempt} failed"),
                });
            });
            if let Err(err) = dialed {
                unreachable.push((peer, err));
            }
        }
        Ok((mesh, unreachable))
    }

    /// The shared lock-step loop behind [`run`](Self::run) and
    /// [`resume`](Self::resume): step, flush, barrier, advance — until the
    /// whole cluster decided or a limit trips. Owns the `mesh`: whichever
    /// way the loop is left — decided, killed, aborted, an error — dropping
    /// it closes the sockets (peers read EOF), stops the acceptor and joins
    /// the readers. On the success path that is after the final round's
    /// `Done` markers were written, so peers still at that barrier get them.
    fn run_rounds(
        mut self,
        mut sync: RoundSynchronizer<P::Msg>,
        mesh: Mesh,
        mut connected: BTreeSet<NodeId>,
        mut inbox: Vec<Envelope<P::Msg>>,
        mut decided_round: Option<u64>,
    ) -> Result<NetReport<P::Output, T>, NetError> {
        let me = self.process.id();
        let links = &mesh.links;
        let mut timeouts: u64 = 0;
        let mut round_micros: Vec<u64> = Vec::new();
        if let Some(rt) = &self.runtime {
            rt.set_gauge(
                "net_history_rounds_limit",
                self.config.history_rounds as u64,
            );
        }

        loop {
            let round = sync.current_round();
            if self.aborted() {
                // Harness teardown (a sibling member panicked).
                return Err(NetError::Aborted);
            }
            if self.kill_at == Some(round) {
                // Injected crash: die like an OS process would — sockets
                // closed (peers read EOF), nothing flushed, no goodbye.
                return Err(NetError::Killed(round));
            }
            if round > self.config.max_rounds {
                return Err(NetError::RoundLimit(self.config.max_rounds));
            }
            let started = Instant::now();
            trace(&mut self.tracer, || TraceEvent::RoundBegin { round });

            // Step the process (terminated processes leave the computation
            // and send nothing, exactly as in the engine).
            let mut step_micros = 0u64;
            let mut send_micros = 0u64;
            if !self.process.terminated() {
                let phase = Instant::now();
                let mut outbox = Outbox::new();
                let mut ctx = Context::new(round, &inbox, &mut outbox);
                self.process.on_round(&mut ctx);
                if decided_round.is_none() && self.process.terminated() {
                    decided_round = Some(round);
                }
                step_micros = micros_since(phase);
                let phase = Instant::now();
                for outgoing in outbox.drain() {
                    self.dispatch(outgoing.dest, outgoing.msg, round, &mut sync, links, me);
                }
                send_micros = micros_since(phase);
            }

            // Publish the barrier marker: all our round-`round` data is out.
            let phase = Instant::now();
            let decided = self.process.terminated();
            let done = Frame::Done { round, decided };
            for &peer in sync.expected().collect::<Vec<_>>().iter() {
                links.send(peer, &done);
                count_sent(&self.runtime, peer, &done);
            }
            self.history.entry(round).or_default().done = Some(decided);
            send_micros += micros_since(phase);

            // Wait at the barrier. Time spent handing received frames to the
            // synchronizer is additionally accounted as the deliver phase.
            let phase = Instant::now();
            let mut deliver_micros = 0u64;
            let deadline = started + self.config.round_timeout;
            while !sync.barrier_complete() {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                // With an abort flag attached, wait in short slices so a
                // harness teardown is noticed mid-barrier; without one the
                // single full-length wait is preserved unchanged.
                let slice = if self.abort.is_some() {
                    remaining.min(ABORT_POLL)
                } else {
                    remaining
                };
                if let Some(event) = mesh.next_event(slice) {
                    let handling = Instant::now();
                    self.handle_link_event(event, &mut sync, &mut connected, me, links);
                    deliver_micros += micros_since(handling);
                } else if self.aborted() {
                    return Err(NetError::Aborted);
                }
                // A timed-out slice is not necessarily the deadline: the
                // loop head recomputes the remaining budget and exits when
                // it truly is.
            }
            let barrier_micros = micros_since(phase);

            // Charge whoever missed the deadline with an omission.
            let missed = sync.timed_out();
            if !missed.is_empty() {
                timeouts += missed.len() as u64;
                // Report the time actually spent at the barrier, not the
                // configured budget: under WAN delays (or a sliced abort
                // wait) the two diverge, and postmortems need the truth.
                let waited = started.elapsed().as_millis();
                if let Some(rt) = &self.runtime {
                    rt.observe_micros(
                        "net_omission_wait_micros",
                        started.elapsed().as_micros() as u64,
                    );
                }
                for &peer in &missed {
                    if let Some(rt) = &self.runtime {
                        rt.inc(&metric_name(
                            "net_omission_timeouts_total",
                            &[("peer", &peer.raw().to_string())],
                        ));
                    }
                    trace(&mut self.tracer, || TraceEvent::Net {
                        round,
                        kind: NetEventKind::Timeout,
                        node: me.raw(),
                        peer: Some(peer.raw()),
                        info: format!("silent at barrier after {waited}ms"),
                    });
                    if sync.silent_rounds(peer) >= self.config.give_up_after {
                        sync.peer_gone(peer);
                        trace(&mut self.tracer, || TraceEvent::Net {
                            round,
                            kind: NetEventKind::PeerGone,
                            node: me.raw(),
                            peer: Some(peer.raw()),
                            info: format!(
                                "missed {} consecutive barriers",
                                self.config.give_up_after
                            ),
                        });
                    }
                }
            }

            let finished = sync.all_decided(decided);
            let delivered = sync.advance();

            // The ingress quota window is one round: reset the per-peer
            // frame/byte counters (strikes are lifetime and stay).
            for discipline in self.discipline.values_mut() {
                discipline.frames_this_round = 0;
                discipline.bytes_this_round = 0;
            }

            // Commit the round durably before acting on it: the journal
            // entry holds the inbox the *next* round will consume, so a
            // crash at any later point replays to exactly this state.
            let phase = Instant::now();
            if let Some(journal) = self.journal.as_mut() {
                let entry = JournalEntry {
                    round,
                    decided,
                    inbox: delivered
                        .iter()
                        .map(|(from, msg)| (from.raw(), msg.get().to_bytes()))
                        .collect(),
                };
                journal.append(&entry)?;
            }
            let journal_micros = micros_since(phase);
            // Backfill history is bounded; rounds older than the window are
            // unrecoverable for rejoiners (an omission, which the model
            // already tolerates).
            while self.history.len() > self.config.history_rounds {
                self.history.pop_first();
            }

            trace(&mut self.tracer, || TraceEvent::RoundEnd {
                round,
                deliveries: delivered.len() as u64,
            });
            trace(&mut self.tracer, || TraceEvent::Net {
                round,
                kind: NetEventKind::RoundAdvance,
                node: me.raw(),
                peer: None,
                info: String::new(),
            });
            round_micros.push(started.elapsed().as_micros() as u64);
            if let Some(rt) = &self.runtime {
                let total = micros_since(started);
                let retained = self.history.len() as u64;
                rt.with(|m| {
                    m.inc("net_rounds_total");
                    m.observe_micros("net_round_micros", total);
                    m.observe_micros(PHASE_STEP, step_micros);
                    m.observe_micros(PHASE_SEND, send_micros);
                    m.observe_micros(PHASE_DELIVER, deliver_micros);
                    m.observe_micros(PHASE_BARRIER, barrier_micros);
                    m.observe_micros(PHASE_JOURNAL, journal_micros);
                    m.set_gauge("net_history_rounds_retained", retained);
                });
            }

            if let Some(monitor) = &mut self.monitor {
                let view = single_node_view(round, me, &self.process, decided_round);
                if let Err(report) = monitor.check(&view) {
                    trace(&mut self.tracer, || TraceEvent::MonitorVerdict {
                        round,
                        monitor: report.spec.clone(),
                        ok: false,
                        nodes: report.nodes.iter().map(|n| n.raw()).collect(),
                        details: report.violations.clone(),
                    });
                    return Err(NetError::InvariantViolated(report));
                }
            }

            if finished {
                return Ok(NetReport {
                    output: self.process.output(),
                    decided_round,
                    rounds: round,
                    timeouts,
                    round_micros,
                    tracer: self.tracer,
                    evicted: self.evicted,
                });
            }

            inbox = delivered
                .into_iter()
                .map(|(from, msg)| Envelope::from_shared(from, msg))
                .collect();

            // Pace the round if configured: sleep out the remainder of the
            // minimum round duration before starting the next round. Frames
            // arriving meanwhile queue on the event channel and are drained
            // at the next barrier wait (they belong to the next round, since
            // every peer paces identically). Sliced so an abort is noticed.
            if !self.config.round_pace.is_zero() {
                let mut remaining = self.config.round_pace.saturating_sub(started.elapsed());
                while !remaining.is_zero() {
                    if self.aborted() {
                        return Err(NetError::Aborted);
                    }
                    let slice = remaining.min(ABORT_POLL);
                    thread::sleep(slice);
                    remaining = remaining.saturating_sub(slice);
                }
            }
        }
    }

    /// Sends one outgoing message: encodes the payload once, fans it out to
    /// the addressed peers, and self-delivers where the model requires.
    fn dispatch(
        &mut self,
        dest: Dest,
        msg: P::Msg,
        round: u64,
        sync: &mut RoundSynchronizer<P::Msg>,
        links: &Links,
        me: NodeId,
    ) {
        let shared = MsgRef::new(msg);
        trace(&mut self.tracer, || TraceEvent::Send {
            round,
            from: me.raw(),
            to: match dest {
                Dest::Broadcast => None,
                Dest::To(to) => Some(to.raw()),
            },
            payload: format!("{:?}", shared.get()),
            adversary: false,
        });
        let bytes = shared.get().to_bytes();
        match dest {
            Dest::Broadcast => {
                // A broadcast reaches every present node including the
                // sender (the engine's self-delivery rule).
                self.history
                    .entry(round)
                    .or_default()
                    .sends
                    .push((SentTo::All, bytes.clone()));
                let frame = Frame::Data {
                    round,
                    payload: bytes,
                };
                for peer in sync.expected().collect::<Vec<_>>() {
                    links.send(peer, &frame);
                    count_sent(&self.runtime, peer, &frame);
                }
                sync.self_deliver(shared);
            }
            Dest::To(to) if to == me => {
                // Purely local: nothing for a rejoiner to backfill.
                sync.self_deliver(shared);
            }
            Dest::To(to) => {
                self.history
                    .entry(round)
                    .or_default()
                    .sends
                    .push((SentTo::One(to), bytes.clone()));
                let frame = Frame::Data {
                    round,
                    payload: bytes,
                };
                links.send(to, &frame);
                count_sent(&self.runtime, to, &frame);
            }
        }
    }

    /// Charges one misbehavior strike against `from`: bumps the
    /// `net_misbehavior_total{kind,peer}` counter, traces a
    /// `net_byz_misbehavior` event, and evicts the peer once its strike
    /// budget is spent. Idempotent for already-banned peers.
    fn misbehave(
        &mut self,
        from: NodeId,
        kind: &'static str,
        info: String,
        sync: &mut RoundSynchronizer<P::Msg>,
        links: &Links,
    ) {
        if self.banned.contains(&from) {
            return;
        }
        let strikes = {
            let discipline = self.discipline.entry(from).or_default();
            discipline.strikes = discipline.strikes.saturating_add(1);
            discipline.strikes
        };
        if let Some(rt) = &self.runtime {
            rt.inc(&metric_name(
                "net_misbehavior_total",
                &[("kind", kind), ("peer", &from.raw().to_string())],
            ));
        }
        let me = sync.id();
        let round = sync.current_round();
        let limit = self.config.strike_limit;
        trace(&mut self.tracer, || TraceEvent::Net {
            round,
            kind: NetEventKind::Misbehavior,
            node: me.raw(),
            peer: Some(from.raw()),
            info: format!("{kind} (strike {strikes}/{limit}): {info}"),
        });
        if strikes >= limit {
            self.evict(from, sync, links);
        }
    }

    /// Evicts `from` for misbehavior: tears its link down, stops expecting
    /// it at barriers, and ignores all of its traffic (including redials)
    /// for the rest of the run. Charged as a `fault/byzantine_evict` —
    /// attributable malice — in contrast to the omission accounting of a
    /// barrier timeout ([`NetEventKind::Timeout`] / `PeerGone`).
    fn evict(&mut self, from: NodeId, sync: &mut RoundSynchronizer<P::Msg>, links: &Links) {
        if !self.banned.insert(from) {
            return;
        }
        links.shutdown_peer(from);
        sync.peer_gone(from);
        self.evicted.push(from.raw());
        if let Some(rt) = &self.runtime {
            rt.inc(&metric_name(
                "net_byz_evictions_total",
                &[("peer", &from.raw().to_string())],
            ));
        }
        let me = sync.id();
        let round = sync.current_round();
        trace(&mut self.tracer, || TraceEvent::Net {
            round,
            kind: NetEventKind::ByzEvict,
            node: me.raw(),
            peer: Some(from.raw()),
            info: "strike budget exhausted; link torn down".to_string(),
        });
        trace(&mut self.tracer, || TraceEvent::Fault {
            round,
            kind: "byzantine_evict",
            node: me.raw(),
            peer: Some(from.raw()),
        });
    }

    /// Feeds one link event into the synchronizer, tracing what happened.
    /// `links` is needed to answer rejoin handshakes ([`Frame::SyncRequest`])
    /// with tips and backfills.
    fn handle_link_event(
        &mut self,
        event: LinkEvent,
        sync: &mut RoundSynchronizer<P::Msg>,
        connected: &mut BTreeSet<NodeId>,
        me: NodeId,
        links: &Links,
    ) {
        match event {
            LinkEvent::Connected { peer, .. } => {
                if self.banned.contains(&peer) {
                    // An evicted peer redialed: refuse it — the ban is for
                    // the rest of the run, not for one socket's lifetime.
                    links.shutdown_peer(peer);
                    return;
                }
                let first_time = connected.insert(peer);
                if let Some(rt) = &self.runtime {
                    let name = if first_time {
                        "net_connects_total"
                    } else {
                        "net_reconnects_total"
                    };
                    rt.inc(&metric_name(name, &[("peer", &peer.raw().to_string())]));
                }
                trace(&mut self.tracer, || TraceEvent::Net {
                    round: sync.current_round(),
                    kind: NetEventKind::Connect,
                    node: me.raw(),
                    peer: Some(peer.raw()),
                    info: String::new(),
                });
            }
            LinkEvent::Closed { .. } => {
                // The writer table already dropped the link (generation
                // guarded). The peer may redial; if it stays silent the
                // barrier timeout and the give-up budget take over.
            }
            LinkEvent::Corrupt {
                peer, kind, info, ..
            } => {
                // The reader refused bytes no honest peer can produce.
                let strike = match kind {
                    FrameFault::Oversize(_) => "oversize_frame",
                    FrameFault::Malformed => "malformed_frame",
                };
                self.misbehave(peer, strike, info, sync, links);
            }
            LinkEvent::Frame { from, frame } => {
                if self.banned.contains(&from) {
                    // Frames already in flight when the eviction landed (or
                    // pushed through a fresh socket): ignored wholesale.
                    if let Some(rt) = &self.runtime {
                        rt.inc(&metric_name(
                            "net_banned_frames_dropped_total",
                            &[("peer", &from.raw().to_string())],
                        ));
                    }
                    return;
                }
                count_received(&self.runtime, from, &frame);
                // Per-peer ingress quota: one round's worth of frames and
                // bytes. Every frame past the quota is dropped and charged
                // as a flood strike, so a flooder burns through its strike
                // budget within the same round it floods.
                let over_quota = {
                    let discipline = self.discipline.entry(from).or_default();
                    discipline.frames_this_round += 1;
                    discipline.bytes_this_round += frame_quota_len(&frame);
                    discipline.frames_this_round > self.config.max_frames_per_round
                        || discipline.bytes_this_round > self.config.max_bytes_per_round
                };
                if over_quota {
                    let info = format!(
                        "ingress quota exceeded ({} frames max, {} bytes max per round)",
                        self.config.max_frames_per_round, self.config.max_bytes_per_round
                    );
                    self.misbehave(from, "flood", info, sync, links);
                    return;
                }
                match frame {
                    Frame::Hello { .. } => {} // handshake already consumed ours
                    Frame::Data { round, payload } => {
                        let Some(msg) = P::Msg::from_bytes(&payload) else {
                            // A payload the protocol codec refuses: no honest
                            // peer encodes one, so it is attributable malice,
                            // not line noise (TCP checksums the stream).
                            self.misbehave(
                                from,
                                "malformed_payload",
                                format!("undecodable Data payload for round {round}"),
                                sync,
                                links,
                            );
                            return;
                        };
                        let shared = MsgRef::new(msg);
                        let current = sync.current_round();
                        match sync.accept_data(from, round, MsgRef::clone(&shared)) {
                            DataOutcome::Delivered => {
                                trace(&mut self.tracer, || TraceEvent::Deliver {
                                    round,
                                    from: from.raw(),
                                    to: me.raw(),
                                    payload: format!("{:?}", shared.get()),
                                    adversary: false,
                                });
                            }
                            DataOutcome::Duplicate => {
                                trace(&mut self.tracer, || TraceEvent::DuplicateDrop {
                                    round,
                                    from: from.raw(),
                                    to: me.raw(),
                                    payload: format!("{:?}", shared.get()),
                                });
                            }
                            DataOutcome::Late => {
                                trace(&mut self.tracer, || TraceEvent::Net {
                                    round: current,
                                    kind: NetEventKind::LateDrop,
                                    node: me.raw(),
                                    peer: Some(from.raw()),
                                    info: format!("frame for past round {round}"),
                                });
                            }
                            DataOutcome::Stale => {
                                self.misbehave(
                                    from,
                                    "stale_replay",
                                    format!("round {round} replayed at round {current}"),
                                    sync,
                                    links,
                                );
                            }
                            DataOutcome::FarFuture => {
                                self.misbehave(
                                    from,
                                    "far_future",
                                    format!("round {round} pushed at round {current}"),
                                    sync,
                                    links,
                                );
                            }
                            DataOutcome::PostDone => {
                                self.misbehave(
                                    from,
                                    "post_done_data",
                                    format!("data for round {round} after its Done"),
                                    sync,
                                    links,
                                );
                            }
                        }
                    }
                    Frame::Done { round, decided } => {
                        let current = sync.current_round();
                        match sync.accept_done(from, round, decided) {
                            DoneOutcome::Accepted | DoneOutcome::Late => {}
                            DoneOutcome::OutOfWindow => {
                                self.misbehave(
                                    from,
                                    "done_out_of_window",
                                    format!("Done for round {round} at round {current}"),
                                    sync,
                                    links,
                                );
                            }
                            DoneOutcome::Conflict => {
                                self.misbehave(
                                    from,
                                    "done_conflict",
                                    format!(
                                        "conflicting decided flag for round {round} \
                                         (first marker stands)"
                                    ),
                                    sync,
                                    links,
                                );
                            }
                        }
                    }
                    Frame::SyncRequest { since } => {
                        let current = sync.current_round();
                        // One rejoin per peer per round: a crashed node asks
                        // once, so repeats within the same round are spam
                        // against the (relatively expensive) backfill path.
                        if self.sync_served.get(&from) == Some(&current) {
                            self.misbehave(
                                from,
                                "sync_spam",
                                format!("repeat SyncRequest within round {current}"),
                                sync,
                                links,
                            );
                            return;
                        }
                        self.sync_served.insert(from, current);
                        trace(&mut self.tracer, || TraceEvent::Net {
                            round: current,
                            kind: NetEventKind::SyncRequest,
                            node: me.raw(),
                            peer: Some(from.raw()),
                            info: format!("backfill requested since round {since}"),
                        });
                        // The requester crashed and came back: expect it at
                        // barriers again (even if the silence budget had given
                        // it up), with a clean slate.
                        sync.peer_rejoined(from);
                        trace(&mut self.tracer, || TraceEvent::Net {
                            round: current,
                            kind: NetEventKind::Rejoin,
                            node: me.raw(),
                            peer: Some(from.raw()),
                            info: "expected at barriers again".to_string(),
                        });
                        let oldest = self.history.keys().next().copied().unwrap_or(current);
                        let tips = Frame::SyncTips {
                            current_round: current,
                            oldest_retained: oldest,
                            decided: self.process.terminated(),
                        };
                        links.send(from, &tips);
                        count_sent(&self.runtime, from, &tips);
                        // Replay our own retained traffic addressed to the
                        // requester, round by round in send order — never
                        // third-party payloads, so backfilled frames stay as
                        // unforgeable as live ones. The response is hard-
                        // capped at `history_rounds` rounds regardless of
                        // what `since` claims.
                        for (&r, hist) in
                            self.history.range(since..).take(self.config.history_rounds)
                        {
                            let payloads: Vec<Vec<u8>> = hist
                                .sends
                                .iter()
                                .filter(|(dest, _)| {
                                    *dest == SentTo::All || *dest == SentTo::One(from)
                                })
                                .map(|(_, bytes)| bytes.clone())
                                .collect();
                            let (done, decided) = match hist.done {
                                Some(flag) => (true, flag),
                                None => (false, false),
                            };
                            let backfill = Frame::Backfill {
                                round: r,
                                done,
                                decided,
                                payloads,
                            };
                            links.send(from, &backfill);
                            count_sent(&self.runtime, from, &backfill);
                            if let Some(rt) = &self.runtime {
                                rt.inc("net_backfill_frames_served_total");
                            }
                            trace(&mut self.tracer, || TraceEvent::Net {
                                round: current,
                                kind: NetEventKind::Backfill,
                                node: me.raw(),
                                peer: Some(from.raw()),
                                info: format!("sent round {r}"),
                            });
                        }
                    }
                    Frame::SyncTips {
                        current_round,
                        oldest_retained,
                        decided,
                    } => {
                        // Informational: the peer's view of where the cluster
                        // is. Rounds below `oldest_retained` cannot be
                        // backfilled; they surface as omissions at our barrier.
                        trace(&mut self.tracer, || {
                            TraceEvent::Net {
                        round: sync.current_round(),
                        kind: NetEventKind::SyncTips,
                        node: me.raw(),
                        peer: Some(from.raw()),
                        info: format!(
                            "peer at round {current_round}, retains from {oldest_retained}, decided {decided}"
                        ),
                    }
                        });
                    }
                    Frame::Backfill {
                        round,
                        done,
                        decided,
                        payloads,
                    } => {
                        // Backfill is pull-only: it answers our SyncRequest.
                        // A peer pushing it unsolicited is abusing the
                        // rejoin path to inject traffic outside the live
                        // Data checks.
                        if !self.backfill_ok.contains(&from) {
                            self.misbehave(
                                from,
                                "unsolicited_backfill",
                                format!("backfill for round {round} never requested"),
                                sync,
                                links,
                            );
                            return;
                        }
                        if let Some(rt) = &self.runtime {
                            rt.inc("net_backfill_frames_received_total");
                        }
                        let current = sync.current_round();
                        let total = payloads.len();
                        let mut fresh = 0usize;
                        let mut malformed = false;
                        for payload in &payloads {
                            let Some(msg) = P::Msg::from_bytes(payload) else {
                                malformed = true; // charged once, below
                                continue;
                            };
                            if sync.accept_data(from, round, MsgRef::new(msg))
                                == DataOutcome::Delivered
                            {
                                fresh += 1;
                            }
                        }
                        if done {
                            sync.accept_done(from, round, decided);
                        }
                        if malformed {
                            self.misbehave(
                                from,
                                "malformed_payload",
                                format!("undecodable payload in backfill round {round}"),
                                sync,
                                links,
                            );
                        }
                        trace(&mut self.tracer, || TraceEvent::Net {
                            round: current,
                            kind: NetEventKind::Backfill,
                            node: me.raw(),
                            peer: Some(from.raw()),
                            info: format!("received round {round}: {fresh} of {total} delivered"),
                        });
                    }
                    // Client-protocol frames belong on the service's client
                    // listener ([`crate::service`]), not on an inter-node
                    // link. A peer that sends one here is confused or
                    // Byzantine either way; ignoring the frame is the same
                    // omission-shaped response as dropping a malformed
                    // payload.
                    Frame::Submit { .. }
                    | Frame::SubmitAck { .. }
                    | Frame::ReadPrefix { .. }
                    | Frame::PrefixChunk { .. } => {}
                }
            }
        }
    }
}

/// Builds the single-process [`MonitorView`] a networked node can offer.
fn single_node_view<'a, P: Process>(
    round: u64,
    me: NodeId,
    process: &'a P,
    decided_round: Option<u64>,
) -> MonitorView<'a, P> {
    static EMPTY: std::sync::OnceLock<BTreeSet<NodeId>> = std::sync::OnceLock::new();
    let empty = EMPTY.get_or_init(BTreeSet::new);
    let mut processes = BTreeMap::new();
    processes.insert(me, process);
    let mut decided_rounds = BTreeMap::new();
    if let Some(r) = decided_round {
        decided_rounds.insert(me, r);
    }
    MonitorView {
        round,
        processes,
        decided_rounds,
        faulty: empty,
        crashed: empty,
    }
}

/// Derives the per-(dialer, peer) retry policy: same base schedule, but a
/// jitter stream seeded from the pair, so a mass restart spreads its
/// redials instead of hammering every listener in lockstep.
pub(crate) fn pair_retry(base: RetryPolicy, me: NodeId, peer: NodeId) -> RetryPolicy {
    base.with_jitter_seed(base.jitter_seed ^ me.raw().rotate_left(32) ^ peer.raw())
}

/// Records an event only if the tracer is enabled, so a [`NoopTracer`]
/// costs neither the allocation nor the `Debug` formatting.
fn trace<T: Tracer>(tracer: &mut T, event: impl FnOnce() -> TraceEvent) {
    if tracer.enabled() {
        tracer.record(event());
    }
}

/// Runtime-metric names of the per-round phase timing histograms. Static
/// strings so the hot loop never formats a metric name.
const PHASE_STEP: &str = "net_round_phase_micros{phase=\"step\"}";
const PHASE_SEND: &str = "net_round_phase_micros{phase=\"send\"}";
const PHASE_DELIVER: &str = "net_round_phase_micros{phase=\"deliver\"}";
const PHASE_BARRIER: &str = "net_round_phase_micros{phase=\"barrier\"}";
const PHASE_JOURNAL: &str = "net_round_phase_micros{phase=\"journal\"}";

/// Counts one outgoing frame (frames and wire bytes, per peer) against the
/// runtime registry, if one is attached. The encode-for-length cost is paid
/// only in that case.
fn count_sent(runtime: &Option<SharedRuntimeMetrics>, peer: NodeId, frame: &Frame) {
    if let Some(rt) = runtime {
        let peer = peer.raw().to_string();
        let bytes = frame.encoded_len() as u64;
        rt.with(|m| {
            m.inc(&metric_name("net_frames_sent_total", &[("peer", &peer)]));
            m.add(
                &metric_name("net_bytes_sent_total", &[("peer", &peer)]),
                bytes,
            );
        });
    }
}

/// Counts one incoming frame against the runtime registry, if attached.
fn count_received(runtime: &Option<SharedRuntimeMetrics>, peer: NodeId, frame: &Frame) {
    if let Some(rt) = runtime {
        let peer = peer.raw().to_string();
        let bytes = frame.encoded_len() as u64;
        rt.with(|m| {
            m.inc(&metric_name(
                "net_frames_received_total",
                &[("peer", &peer)],
            ));
            m.add(
                &metric_name("net_bytes_received_total", &[("peer", &peer)]),
                bytes,
            );
        });
    }
}

/// Elapsed microseconds since `from`, saturated into `u64`.
fn micros_since(from: Instant) -> u64 {
    u64::try_from(from.elapsed().as_micros()).unwrap_or(u64::MAX)
}
