//! [`NetNode`]: one cluster member — a [`Process`] plus the machinery that
//! drives it over TCP in lock-step rounds.
//!
//! The run loop is the simulator's `SyncEngine` round, one node at a time:
//! [`Stepper::step`] on the previous round's inbox, its sends and then the
//! `Done` barrier marker queued on every peer's link, each link flushed
//! once, the barrier, advance. A peer that misses the barrier deadline is
//! charged with an **omission** for the round (its traffic, if any, arrives
//! too late and is dropped) — precisely a fault the paper's model already
//! accounts for, which is why correctness does not depend on tuning the
//! timeout.
//!
//! # The round driver
//!
//! `run`/`resume` wrap the node in one private `Session` (synchronizer,
//! `Mesh`, peer ledger, backfill history) whose round loop consumes it.
//! Waiting is `pump(deadline, timed, until)` — mesh setup, the barrier and
//! the `round_pace` window are one loop that never blocks longer than
//! `ABORT_POLL` and reads the abort flag every iteration (kill round and
//! round limit: once, at the head of a round). One `Laps` chain times each
//! round in four contiguous phases, step, send, barrier and journal, that
//! sum to the round's total (DESIGN.md §10). Per-peer state is one `Peer`
//! record per handshaken id, the only per-peer account: the ingress quota,
//! the sent tallies and the per-peer events reach the runtime registry in
//! one visit per round. Frame handlers return `Result<(), Strike>`, and the
//! one receiver of the `Err` charges it (DESIGN.md §8, §13).
//!
//! A hostile member ([`crate::byzantine`]) runs the same session; only the
//! send phase (its redials and its script's wire hook), a closed link (not
//! waited on until redialed) and a strike (it charges none) ask whether it
//! is.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use uba_sim::{Envelope, MsgRef, NodeId, Outgoing, Process, Stepper};
use uba_trace::{
    metric_name, JournalEntry, JournalRecovery, Laps, NetEventKind, NoopTracer, RoundJournal,
    RuntimeMetrics, SharedRuntimeMetrics, TraceEvent, Tracer,
};

use crate::byzantine::AttackKind;
use crate::conn::{LinkEvent, Mesh};
use crate::sync::{DataOutcome, DoneOutcome, RoundSynchronizer, DEFAULT_ROUND_WINDOW};
use crate::wan::LinkShaping;
use crate::wire::{Frame, FrameFault, Wire};

/// Per-peer ingress quota: bytes accepted from one peer within one round
/// (32 MiB; same strike semantics as [`NetConfig::max_frames_per_round`]).
/// A frame is charged the exact size its reader took off the wire — never
/// more than the `32 + payload bytes` estimate charged before, so no round
/// of traffic that fitted the quota then exceeds it now.
pub const MAX_BYTES_PER_ROUND: u64 = 32 * 1024 * 1024;

/// Misbehavior strikes (quota floods, malformed/oversized frames,
/// out-of-window rounds, post-`Done` injections, barrier equivocation,
/// backfill abuse) a peer may accumulate before it is evicted:
/// disconnected, removed from the barrier, and ignored for the rest of the
/// run. Omission timeouts are *not* strikes — silence stays governed by
/// [`NetConfig::give_up_after`].
pub const STRIKE_LIMIT: u32 = 3;

/// Tuning knobs of a networked node.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// How long to wait at the round barrier before charging the missing
    /// peers with an omission for the round.
    pub round_timeout: Duration,
    /// Budget for the initial full-mesh setup: peers of a just-launched
    /// cluster come up in arbitrary order. It also bounds the dials — at
    /// setup and on a rejoin, all of them together — to peers that are not
    /// accepting yet, which are retried with a jittered exponential backoff
    /// until then.
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
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            round_timeout: Duration::from_secs(2),
            setup_timeout: Duration::from_secs(10),
            max_rounds: 10_000,
            give_up_after: 5,
            history_rounds: DEFAULT_ROUND_WINDOW as usize,
            round_pace: Duration::ZERO,
            max_frames_per_round: 1024,
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

/// One round of this node's *own* outgoing traffic, kept for backfill.
/// Only own traffic: a backfill must be as unforgeable as live traffic, so
/// a node never relays third-party payloads (the reader attributes every
/// frame — live or backfilled — to the connection's handshaken sender).
#[derive(Debug, Default)]
struct RoundHistory {
    /// Encoded payloads in send order, each with the one peer it was
    /// addressed to (`None`: a broadcast, for every present node).
    sends: Vec<(Option<NodeId>, Vec<u8>)>,
    /// The `decided` flag of the `Done` marker, once published.
    done: Option<bool>,
}

/// The ledger entry of one peer (DESIGN.md §13), keyed by its handshaken
/// id — never by a socket, so a reconnect resets none of it. `round` starts
/// over at every round advance; the rest is for the whole run.
#[derive(Debug, Default)]
struct Peer {
    /// Handshaken before: setup waits for it, later ones are reconnects.
    seen: bool,
    /// The current round's account.
    round: PeerRound,
    /// Lifetime misbehavior strikes; [`STRIKE_LIMIT`] of them evict.
    strikes: u32,
    /// Evicted: link torn down, frames ignored, redials refused.
    banned: bool,
    /// We sent it a `SyncRequest` (resume path): the only senders a
    /// `Backfill` frame is accepted from.
    solicited: bool,
    /// Round in which its `SyncRequest` was last served (no repeats).
    served: Option<u64>,
}

impl Peer {
    /// Counts one event of the per-peer counter `family` (`kind`: the
    /// event's `kind` label) for the current round.
    fn count(&mut self, family: &'static str, kind: Option<&'static str>) {
        *self.round.events.entry((family, kind)).or_default() += 1;
    }
}

/// One peer's account of one round: the ingress quota's charges and
/// everything the runtime registry has not been told yet.
#[derive(Debug, Default)]
struct PeerRound {
    /// Frames received from the peer.
    frames: u64,
    /// Wire bytes received.
    bytes: u64,
    /// Frames queued for the peer; tallied only with a registry attached.
    sent_frames: u64,
    /// Wire bytes queued for the peer, likewise.
    sent_bytes: u64,
    /// Events by counter family and `kind` label: connects, reconnects,
    /// omission timeouts, banned-frame drops, evictions, misbehavior.
    events: BTreeMap<(&'static str, Option<&'static str>), u64>,
}

/// The peer ledger: one [`Peer`] per sender id ever heard of, and the only
/// per-peer account a session keeps. Its `net_*{peer}` families reach the
/// runtime registry in one visit per round, and once more when the ledger
/// is dropped — so a session that ends on any path, an error included,
/// leaves its last counts in the registry.
struct Ledger {
    peers: BTreeMap<NodeId, Peer>,
    runtime: Option<SharedRuntimeMetrics>,
}

impl Ledger {
    /// The entry of `id`, created on first mention.
    fn peer(&mut self, id: NodeId) -> &mut Peer {
        self.peers.entry(id).or_default()
    }

    /// Closes every peer's round: adds its counts to the registry, if one
    /// is attached, and starts the next round — the ingress quota window —
    /// from zero. A series appears once its first count does, as if every
    /// event had visited the registry itself.
    fn publish(&mut self) {
        let Some(runtime) = &self.runtime else {
            for peer in self.peers.values_mut() {
                peer.round = PeerRound::default();
            }
            return;
        };
        runtime.with(|m| {
            for (id, peer) in &mut self.peers {
                let round = std::mem::take(&mut peer.round);
                let peer = id.raw().to_string();
                let label = [("peer", peer.as_str())];
                let mut add = |family, value| m.add(&metric_name(family, &label), value);
                if round.frames > 0 {
                    add("net_frames_received_total", round.frames);
                    add("net_bytes_received_total", round.bytes);
                }
                if round.sent_frames > 0 {
                    add("net_frames_sent_total", round.sent_frames);
                    add("net_bytes_sent_total", round.sent_bytes);
                }
                for ((family, kind), n) in round.events {
                    let name = match kind {
                        Some(kind) => metric_name(family, &[("kind", kind), label[0]]),
                        None => metric_name(family, &label),
                    };
                    m.add(&name, n);
                }
            }
        });
    }
}

impl Drop for Ledger {
    fn drop(&mut self) {
        self.publish();
    }
}

/// One charge of wire misbehavior, as a frame handler reports it: the
/// `kind` label of `net_misbehavior_total{kind,peer}` and the trace text.
#[derive(Debug, PartialEq, Eq)]
struct Strike {
    kind: &'static str,
    info: String,
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
/// out, in the order DESIGN.md §8 gives.
pub struct NetNode<P: Process, T: Tracer = NoopTracer> {
    stepper: Stepper<P>,
    config: NetConfig,
    tracer: T,
    runtime: Option<SharedRuntimeMetrics>,
    journal: Option<RoundJournal>,
    kill_at: Option<u64>,
    abort: Option<Arc<AtomicBool>>,
    hostile: Option<Hostile>,
    wan: Option<Arc<LinkShaping>>,
}

/// What makes a session hostile: the script whose wire half it plays, the
/// addresses it redials, and the peers whose link closed (or was poisoned)
/// since its last send phase, to be redialed in the next one.
struct Hostile {
    kind: AttackKind,
    roster: BTreeMap<NodeId, SocketAddr>,
    closed: BTreeSet<NodeId>,
}

impl<P: Process> NetNode<P, NoopTracer> {
    /// Wraps `process` with the given transport configuration.
    pub fn new(process: P, config: NetConfig) -> Self {
        NetNode {
            stepper: Stepper::new(process),
            config,
            tracer: NoopTracer,
            runtime: None,
            journal: None,
            kill_at: None,
            abort: None,
            hostile: None,
            wan: None,
        }
    }
}

impl<P: Process, T: Tracer> NetNode<P, T> {
    /// Attaches a tracer; it receives both the engine-style events
    /// (round boundaries, sends, deliveries, duplicate drops) and the
    /// transport-level [`TraceEvent::Net`] events.
    pub fn with_tracer<T2: Tracer>(self, tracer: T2) -> NetNode<P, T2> {
        NetNode {
            stepper: self.stepper,
            config: self.config,
            tracer,
            runtime: self.runtime,
            journal: self.journal,
            kill_at: self.kill_at,
            abort: self.abort,
            hostile: self.hostile,
            wan: self.wan,
        }
    }

    /// Attaches a wall-clock runtime metrics registry: per-round phase
    /// timings, per-peer byte/frame counters, reconnect/backfill/omission
    /// counters, and the retained-history gauge. The per-peer families are
    /// merged from the peer ledger at every round advance and when the run
    /// ends, however it ends, so a live scrape lags them by at most one
    /// round. Strictly separate from the deterministic tracer — runtime
    /// metrics read the monotonic clock and never feed the trace event
    /// stream, so attaching one cannot perturb byte-identical traces or
    /// decisions (DESIGN.md §10). Share one clone with a
    /// [`crate::serve_metrics`] endpoint to expose it live.
    pub fn with_runtime_metrics(mut self, runtime: SharedRuntimeMetrics) -> Self {
        self.runtime = Some(runtime);
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
    /// node shuts its sockets down and returns [`NetError::Aborted`]. Every
    /// wait of the node — a dial's backoff, mesh setup, the round barrier,
    /// the `round_pace` window — re-reads the flag at least every few tens
    /// of milliseconds and after every link event, so the reaction time
    /// does not depend on `round_timeout` or on how much the peers are
    /// sending. The one exception is a dial's handshake: a peer that
    /// accepted the connection but does not answer `Hello` holds the node
    /// for up to the 10 s handshake bound, flag or not. The cluster harness
    /// uses this to tear down survivors after one member's thread panicked.
    pub fn with_abort_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.abort = Some(flag);
        self
    }

    /// Shapes every link into this node by `wan`'s plan: each connection's
    /// reader applies the link's impairments before the frame reaches the
    /// round driver ([`crate::wan`]). Hand every member of a cluster the
    /// same value.
    pub fn with_links(mut self, wan: Arc<LinkShaping>) -> Self {
        self.wan = Some(wan);
        self
    }

    /// Makes the node a hostile member playing `kind`'s wire half, which
    /// redials its peers at their `roster` addresses ([`crate::byzantine`]).
    pub(crate) fn with_attack(
        mut self,
        kind: AttackKind,
        roster: BTreeMap<NodeId, SocketAddr>,
    ) -> Self {
        self.hostile = Some(Hostile {
            kind,
            roster,
            closed: BTreeSet::new(),
        });
        self
    }

    /// This node's id.
    fn id(&self) -> NodeId {
        self.stepper.process().id()
    }

    /// [`NetError::Aborted`] once the attached abort flag (if any) is up.
    fn check_abort(&self) -> Result<(), NetError> {
        match &self.abort {
            Some(flag) if flag.load(Ordering::Relaxed) => Err(NetError::Aborted),
            _ => Ok(()),
        }
    }

    /// Sleeps for `wait`, re-reading the abort flag at least every
    /// [`ABORT_POLL`]; `false`, as soon as it reads the flag up.
    fn pause(&self, wait: Duration) -> bool {
        let until = Instant::now() + wait;
        while self.check_abort().is_ok() {
            match until.checked_duration_since(Instant::now()) {
                Some(left) if !left.is_zero() => thread::sleep(left.min(ABORT_POLL)),
                _ => return true,
            }
        }
        false
    }

    /// Runs `record` on the runtime registry, if one is attached (so metric
    /// names are formatted, and frames measured, only in that case).
    fn metrics(&self, record: impl FnOnce(&mut RuntimeMetrics)) {
        if let Some(rt) = &self.runtime {
            rt.with(record);
        }
    }

    /// Records one transport-level event, stamped with `round`. Nothing is
    /// formatted unless the tracer is enabled.
    fn net_event(
        &mut self,
        round: u64,
        kind: NetEventKind,
        peer: Option<NodeId>,
        info: impl FnOnce() -> String,
    ) {
        if self.tracer.enabled() {
            self.tracer.record(TraceEvent::Net {
                round,
                kind,
                node: self.id().raw(),
                peer: peer.map(NodeId::raw),
                info: info(),
            });
        }
    }
}

/// The longest a waiting node goes without re-reading its abort flag.
/// Coarse enough to cost nothing, fine enough that a harness teardown never
/// waits a full `round_timeout`.
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
    /// [`NetError::RoundLimit`] if the cluster never decides, or
    /// [`NetError::Io`] if the transport fails outright — a peer with a
    /// larger id that does not accept within `setup_timeout` among them.
    pub fn run(
        mut self,
        listener: TcpListener,
        roster: &BTreeMap<NodeId, SocketAddr>,
    ) -> Result<NetReport<P::Output, T>, NetError> {
        let id = self.id();
        let peers: Vec<NodeId> = roster.keys().copied().filter(|&p| p != id).collect();

        // Dial every peer with a larger id; smaller ids dial us. The dials
        // and the wait for the full mesh share one setup deadline.
        let deadline = Instant::now() + self.config.setup_timeout;
        let larger = peers.iter().copied().filter(|&p| p > id);
        let (mesh, unreachable) = self.open_mesh(Some(listener), roster, larger, 0, deadline)?;
        if let Some((_, err)) = unreachable.into_iter().next() {
            return Err(err.into());
        }
        let mut session = Session::new(self, mesh, &peers, 1);

        // Wait for the full mesh. Fast peers may already be sending round-1
        // traffic while we wait, so frames are processed, not discarded.
        session.pump(deadline, false, |s| {
            s.ledger.peers.values().all(|peer| peer.seen)
        })?;
        for peer in peers {
            if !session.ledger.peers[&peer].seen {
                // Never came up: run without it, as if it crashed before round 1.
                session.sync.peer_gone(peer);
                let info = || "unreachable during setup".to_string();
                session
                    .node
                    .net_event(0, NetEventKind::PeerGone, Some(peer), info);
            }
        }

        session.run_rounds(Vec::new())
    }

    /// Rebuilds a crashed node from its recovered journal and re-enters the
    /// cluster: [replays](Stepper::replay) the journaled inboxes, dials
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
    /// belongs to a different node or holds a payload the codec refuses (a
    /// torn tail never gets here — recovery drops the whole line — so that
    /// is corruption or version skew, and replaying a shorter inbox would
    /// rebuild a quietly different process), plus everything
    /// [`run`](Self::run) can return.
    pub fn resume(
        mut self,
        recovery: &JournalRecovery,
        roster: &BTreeMap<NodeId, SocketAddr>,
    ) -> Result<NetReport<P::Output, T>, NetError> {
        let id = self.id();
        if recovery.node != id.raw() {
            return Err(NetError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("journal belongs to node {}, not {id}", recovery.node),
            )));
        }

        // Entry r holds the inbox round r + 1 consumes: round r replays on
        // entry r - 1's inbox (the first round on nothing), and the last
        // entry's inbox is left over for the first live round.
        let mut inboxes: Vec<Vec<Envelope<P::Msg>>> = vec![Vec::new()];
        for entry in &recovery.entries {
            inboxes.push(journaled_inbox(entry)?);
        }
        let rounds = recovery.entries.iter().map(|entry| entry.round);
        self.stepper
            .replay(rounds.zip(inboxes.iter().map(Vec::as_slice)));
        let inbox = inboxes.pop().unwrap_or_default();
        let next_round = recovery.last_round().map_or(1, |r| r + 1);

        let peers: Vec<NodeId> = roster.keys().copied().filter(|&p| p != id).collect();
        let deadline = Instant::now() + self.config.setup_timeout;
        let (mesh, unreachable) =
            self.open_mesh(None, roster, peers.iter().copied(), next_round, deadline)?;
        let mut session = Session::new(self, mesh, &peers, next_round);
        for (peer, _) in unreachable {
            // Unreachable while we were down (it may have crashed too, or
            // finished and closed): rejoin without it.
            session.sync.peer_gone(peer);
            let info = || "unreachable during rejoin".to_string();
            session.net_event(NetEventKind::PeerGone, Some(peer), info);
        }

        // Announce the rejoin: ask every reachable peer for the rounds we
        // slept through (their own sends only — see `RoundHistory`). Only
        // the peers we asked may answer with Backfill frames.
        let request = Frame::SyncRequest { since: next_round };
        session.queue(None, &request);
        session.mesh.links().flush();
        for peer in session.sync.expected() {
            session.ledger.peer(peer).solicited = true;
        }
        session.net_event(NetEventKind::Resume, None, || {
            let torn = if recovery.torn {
                " (torn tail truncated)"
            } else {
                ""
            };
            let replayed = recovery.entries.len();
            format!("replayed {replayed} journaled rounds{torn}, rejoining at round {next_round}")
        });

        session.run_rounds(inbox)
    }

    /// Opens this node's [`Mesh`] — accepting on `listener`, if it has one —
    /// and dials `targets` by `deadline`, tracing every retry against
    /// `round`. Each dial gets what is left of the deadline and at least
    /// one connect attempt, and its backoff reads the abort flag. Returns
    /// the mesh and the targets that stayed unreachable, with the last
    /// error, or [`NetError::Aborted`].
    fn open_mesh(
        &mut self,
        listener: Option<TcpListener>,
        roster: &BTreeMap<NodeId, SocketAddr>,
        targets: impl Iterator<Item = NodeId>,
        round: u64,
        deadline: Instant,
    ) -> Result<(Mesh, Vec<(NodeId, io::Error)>), NetError> {
        let id = self.id();
        let mesh = Mesh::open(id, listener, self.wan.clone())?;
        let mut unreachable = Vec::new();
        for peer in targets {
            let dialed = mesh.dial(roster[&peer], peer, deadline, |attempt, backoff| {
                self.metrics(|m| m.inc("net_dial_retries_total"));
                let info = || format!("dial attempt {attempt} failed");
                self.net_event(round, NetEventKind::Retry, Some(peer), info);
                self.pause(backoff)
            });
            self.check_abort()?;
            if let Err(err) = dialed {
                unreachable.push((peer, err));
            }
        }
        Ok((mesh, unreachable))
    }
}

/// One run of a [`NetNode`]: the node plus the state that exists only while
/// it is on the wire. [`run_rounds`](Self::run_rounds) consumes it, and
/// whichever way that ends — decided, killed, aborted, an error — dropping
/// the session drops the `mesh`, which closes the sockets (peers read EOF),
/// stops the acceptor and joins the readers. On the success path that is
/// after the final round's `Done` markers were flushed, so peers still at
/// that barrier get them.
struct Session<P: Process, T: Tracer> {
    node: NetNode<P, T>,
    sync: RoundSynchronizer<P::Msg>,
    mesh: Mesh,
    ledger: Ledger,
    /// Raw ids of evicted peers, in eviction order (for the report).
    evicted: Vec<u64>,
    /// Own traffic of the last `history_rounds` rounds, for backfills.
    history: BTreeMap<u64, RoundHistory>,
}

impl<P, T> Session<P, T>
where
    P: Process,
    P::Msg: Wire,
    T: Tracer,
{
    /// A session of `node` over `mesh`, expecting `peers` at every barrier
    /// from `first_round` on.
    fn new(node: NetNode<P, T>, mesh: Mesh, peers: &[NodeId], first_round: u64) -> Self {
        let id = node.id();
        let sync = RoundSynchronizer::resume_at(id, peers.iter().copied(), first_round)
            .with_round_window(node.config.history_rounds as u64);
        let ledger = Ledger {
            peers: peers.iter().map(|&p| (p, Peer::default())).collect(),
            runtime: node.runtime.clone(),
        };
        Session {
            node,
            sync,
            mesh,
            ledger,
            evicted: Vec::new(),
            history: BTreeMap::new(),
        }
    }

    /// The one wait loop: hands link events to the session until `until`
    /// holds, or `deadline` has passed and no event is left queued (one
    /// that came while the node was busy, say dialing to the deadline, is
    /// as live as any), never blocking longer than [`ABORT_POLL`] and
    /// reading the abort flag on every iteration. With `timed`, returns the
    /// microseconds spent handling events (the round's deliver phase);
    /// otherwise 0, with no clock read per event.
    fn pump(
        &mut self,
        deadline: Instant,
        timed: bool,
        until: impl Fn(&Self) -> bool,
    ) -> Result<u64, NetError> {
        let mut handling_micros = 0;
        loop {
            self.node.check_abort()?;
            if until(self) {
                return Ok(handling_micros);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.mesh.next_event(remaining.min(ABORT_POLL)) {
                Some(event) => {
                    let handling = timed.then(Laps::start);
                    self.on_event(event);
                    handling_micros += handling.map_or(0, |mut laps| laps.lap());
                }
                None if remaining.is_zero() => return Ok(handling_micros),
                None => {}
            }
        }
    }

    /// The lock-step loop behind [`NetNode::run`] and [`NetNode::resume`]:
    /// step, queue, `Done`, flush, barrier, advance — until the whole
    /// cluster decided or a limit trips.
    fn run_rounds(
        mut self,
        mut inbox: Vec<Envelope<P::Msg>>,
    ) -> Result<NetReport<P::Output, T>, NetError> {
        let mut timeouts: u64 = 0;
        let mut round_micros: Vec<u64> = Vec::new();
        let history_rounds = self.node.config.history_rounds;
        self.node
            .metrics(|m| m.set_gauge("net_history_rounds_limit", history_rounds as u64));

        loop {
            let round = self.sync.current_round();
            // Harness teardown (a sibling member panicked).
            self.node.check_abort()?;
            if self.node.kill_at == Some(round) {
                // Injected crash: die like an OS process would — sockets
                // closed (peers read EOF), nothing flushed, no goodbye.
                return Err(NetError::Killed(round));
            }
            if round > self.node.config.max_rounds {
                return Err(NetError::RoundLimit(self.node.config.max_rounds));
            }
            // One lap chain times the round: each phase ends where the next
            // begins, so the four phases sum to the round's total.
            let mut laps = Laps::start();
            let started = laps.started();
            trace(&mut self.node.tracer, || TraceEvent::RoundBegin { round });

            let sends = self.node.stepper.step(round, &inbox);
            let step_micros = laps.lap();

            // Queue the round's data, publish the barrier marker behind it,
            // then put the round on the wire: one write per link. A hostile
            // member's script acts here instead, claiming `decided`.
            for outgoing in sends {
                self.dispatch(outgoing);
            }
            let decided = if self.node.hostile.is_none() {
                let decided = self.node.stepper.decided_round().is_some();
                self.queue(None, &Frame::Done { round, decided });
                self.mesh.links().flush();
                decided
            } else {
                self.play(round);
                true
            };
            self.history.entry(round).or_default().done = Some(decided);
            let send_micros = laps.lap();

            // Wait at the barrier, charge whoever missed it, and advance.
            // Time spent handing received frames to the synchronizer is
            // also accounted as the deliver phase, nested in this one.
            let deadline = started + self.node.config.round_timeout;
            let timed = self.node.runtime.is_some();
            let deliver_micros = self.pump(deadline, timed, |s| s.sync.barrier_complete())?;
            timeouts += self.charge_omissions(started);

            let finished = self.sync.all_decided(decided);
            let delivered = self.sync.advance();
            let barrier_micros = laps.lap();

            // The journal phase runs from here to the round's end. The
            // ingress quota window is one round: every peer's round account
            // closes into the registry (strikes are lifetime).
            self.ledger.publish();

            // Commit the round durably before acting on it: the journal
            // entry holds the inbox the *next* round will consume, so a
            // crash at any later point replays to exactly this state.
            if let Some(journal) = self.node.journal.as_mut() {
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
            // Backfill history is bounded; rounds older than the window are
            // unrecoverable for rejoiners (an omission, which the model
            // already tolerates).
            while self.history.len() > history_rounds {
                self.history.pop_first();
            }

            trace(&mut self.node.tracer, || TraceEvent::RoundEnd {
                round,
                deliveries: delivered.len() as u64,
            });
            self.node
                .net_event(round, NetEventKind::RoundAdvance, None, String::new);
            let journal_micros = laps.lap();
            round_micros.push(laps.total());
            self.node.metrics(|m| {
                m.inc("net_rounds_total");
                m.observe_micros("net_round_micros", laps.total());
                m.observe_micros(PHASE_STEP, step_micros);
                m.observe_micros(PHASE_SEND, send_micros);
                m.observe_micros(PHASE_DELIVER, deliver_micros);
                m.observe_micros(PHASE_BARRIER, barrier_micros);
                m.observe_micros(PHASE_JOURNAL, journal_micros);
                m.set_gauge("net_history_rounds_retained", self.history.len() as u64);
            });

            if finished {
                return Ok(NetReport {
                    output: self.node.stepper.process().output(),
                    decided_round: self.node.stepper.decided_round(),
                    rounds: round,
                    timeouts,
                    round_micros,
                    tracer: self.node.tracer,
                    evicted: self.evicted,
                });
            }

            inbox = delivered
                .into_iter()
                .map(|(from, msg)| Envelope::from_shared(from, msg))
                .collect();

            // Pace the round if configured: wait out the remainder of the
            // minimum round duration before starting the next round. Frames
            // arriving meanwhile belong to the next round (every peer paces
            // identically) and are handed to the synchronizer as they come —
            // it buffers by round. Outside every round timer.
            if !self.node.config.round_pace.is_zero() {
                self.pump(started + self.node.config.round_pace, false, |_| false)?;
            }
        }
    }

    /// Charges whoever missed the barrier deadline with an omission, and
    /// gives up on peers whose silence budget is spent. Returns the number
    /// of omissions charged.
    fn charge_omissions(&mut self, started: Instant) -> u64 {
        let missed = self.sync.timed_out();
        if missed.is_empty() {
            return 0;
        }
        // Report the time actually spent at the barrier, not the configured
        // budget: under WAN delays the two diverge, and postmortems need
        // the truth.
        let waited = started.elapsed();
        self.node
            .metrics(|m| m.observe_micros("net_omission_wait_micros", waited.as_micros() as u64));
        let give_up_after = self.node.config.give_up_after;
        for &peer in &missed {
            self.ledger
                .peer(peer)
                .count("net_omission_timeouts_total", None);
            self.net_event(NetEventKind::Timeout, Some(peer), || {
                format!("silent at barrier after {}ms", waited.as_millis())
            });
            if self.sync.silent_rounds(peer) >= give_up_after {
                self.sync.peer_gone(peer);
                self.net_event(NetEventKind::PeerGone, Some(peer), || {
                    format!("missed {give_up_after} consecutive barriers")
                });
            }
        }
        missed.len() as u64
    }

    /// Sends one outgoing message: encodes the payload once, queues it for
    /// the addressed peers (on the wire at the round's flush), and
    /// self-delivers where the model requires.
    fn dispatch(&mut self, outgoing: Outgoing<P::Msg>) {
        let round = self.sync.current_round();
        let id = self.sync.id();
        trace(&mut self.node.tracer, || {
            outgoing.send_event(round, id, false)
        });
        let to = outgoing.dest.recipient();
        let shared = MsgRef::new(outgoing.msg);
        if to == Some(id) {
            // Purely local: nothing for a rejoiner to backfill.
            self.sync.self_deliver(shared);
            return;
        }
        let payload = shared.get().to_bytes();
        let sends = &mut self.history.entry(round).or_default().sends;
        sends.push((to, payload.clone()));
        self.queue(to, &Frame::Data { round, payload });
        if to.is_none() {
            // A broadcast reaches every present node including the sender
            // (the engine's self-delivery rule).
            self.sync.self_deliver(shared);
        }
    }

    /// Queues one frame on the link of `to` — `None`: of every peer
    /// expected at the barrier — without writing to a socket; the links'
    /// `flush` does that. With a runtime registry attached the frame is
    /// tallied in the ledger per addressed peer, link or no link.
    fn queue(&mut self, to: Option<NodeId>, frame: &Frame) {
        // `to` alone, or everyone expected when there is no `to`.
        let addressed = || {
            let everyone = self.sync.expected().filter(move |_| to.is_none());
            to.into_iter().chain(everyone)
        };
        let bytes = self.mesh.links().queue(addressed(), frame) as u64;
        if self.ledger.runtime.is_some() {
            for peer in addressed() {
                let round = &mut self.ledger.peer(peer).round;
                round.sent_frames += 1;
                round.sent_bytes += bytes;
            }
        }
    }

    /// Records one transport-level event at the synchronizer's current
    /// round.
    fn net_event(
        &mut self,
        kind: NetEventKind,
        peer: Option<NodeId>,
        info: impl FnOnce() -> String,
    ) {
        self.node
            .net_event(self.sync.current_round(), kind, peer, info);
    }

    /// Feeds one link event into the session — the one place a [`Strike`]
    /// is received and charged.
    fn on_event(&mut self, event: LinkEvent) {
        let (from, verdict) = match event {
            LinkEvent::Connected { peer, .. } => return self.on_connected(peer),
            // The writer table already dropped the link (generation
            // guarded). The peer may redial; if it stays silent the barrier
            // timeout and the give-up budget take over.
            LinkEvent::Closed { peer, .. } => return self.link_closed(peer),
            LinkEvent::Corrupt {
                peer, kind, info, ..
            } => {
                // The reader refused bytes no honest peer can produce.
                let kind = match kind {
                    FrameFault::Oversize(_) => "oversize_frame",
                    FrameFault::Malformed => "malformed_frame",
                };
                (peer, Err(Strike { kind, info }))
            }
            LinkEvent::Frame {
                from,
                frame,
                wire_bytes,
            } => (from, self.on_frame(from, frame, wire_bytes as u64)),
        };
        if let Err(strike) = verdict {
            self.misbehave(from, strike);
        }
    }

    /// A connection to `peer` completed its handshake.
    fn on_connected(&mut self, peer: NodeId) {
        let entry = self.ledger.peer(peer);
        if entry.banned {
            // An evicted peer redialed: refuse it — the ban is for the rest
            // of the run, not for one socket's lifetime.
            self.mesh.links().shutdown_peer(peer);
            return;
        }
        let seen_before = std::mem::replace(&mut entry.seen, true);
        let family = if seen_before {
            "net_reconnects_total"
        } else {
            "net_connects_total"
        };
        entry.count(family, None);
        self.net_event(NetEventKind::Connect, Some(peer), String::new);
    }

    /// One frame from `from`, read off the wire as `wire_bytes` bytes: the
    /// ban and ingress-quota gate every frame passes, then the handler of
    /// its kind.
    fn on_frame(&mut self, from: NodeId, frame: Frame, wire_bytes: u64) -> Result<(), Strike> {
        let max_frames = self.node.config.max_frames_per_round;
        let peer = self.ledger.peer(from);
        if peer.banned {
            // Frames already in flight when the eviction landed (or pushed
            // through a fresh socket): ignored wholesale.
            peer.count("net_banned_frames_dropped_total", None);
            return Ok(());
        }
        // Per-peer ingress quota: one round's worth of frames and bytes.
        // Every frame past the quota is dropped and charged as a flood
        // strike, so a flooder burns through its strike budget within the
        // same round it floods.
        let round = &mut peer.round;
        round.frames += 1;
        round.bytes += wire_bytes;
        if round.frames > max_frames || round.bytes > MAX_BYTES_PER_ROUND {
            let info = format!(
                "ingress quota exceeded ({max_frames} frames max, \
                 {MAX_BYTES_PER_ROUND} bytes max per round)"
            );
            return Err(Strike {
                kind: "flood",
                info,
            });
        }
        match frame {
            Frame::Data { round, payload } => self.on_data(from, round, &payload),
            Frame::Done { round, decided } => self.on_done(from, round, decided),
            Frame::SyncRequest { since } => self.on_sync_request(from, since),
            Frame::Backfill {
                round,
                done,
                decided,
                payloads,
            } => self.on_backfill(from, round, done.then_some(decided), &payloads),
            Frame::SyncTips {
                current_round,
                oldest_retained,
                decided,
            } => {
                // Informational: the peer's view of where the cluster is.
                // Rounds below `oldest_retained` cannot be backfilled; they
                // surface as omissions at our barrier.
                self.net_event(NetEventKind::SyncTips, Some(from), || {
                    format!(
                        "peer at round {current_round}, retains from {oldest_retained}, decided {decided}"
                    )
                });
                Ok(())
            }
            // The handshake already consumed the link's `Hello`. Client-
            // protocol frames belong on the service's client listener
            // ([`crate::service`]), not on an inter-node link; a peer that
            // sends one here is confused or Byzantine either way, and
            // ignoring the frame is the same omission-shaped response as
            // dropping a malformed payload.
            Frame::Hello { .. }
            | Frame::Submit { .. }
            | Frame::SubmitAck { .. }
            | Frame::ReadPrefix { .. }
            | Frame::PrefixChunk { .. } => Ok(()),
        }
    }

    /// A `Data { round }` frame: one protocol message for `round`'s inbox.
    fn on_data(&mut self, from: NodeId, round: u64, payload: &[u8]) -> Result<(), Strike> {
        let Some(msg) = P::Msg::from_bytes(payload) else {
            // A payload the protocol codec refuses: no honest peer encodes
            // one, so it is attributable malice, not line noise (TCP
            // checksums the stream).
            return Err(Strike {
                kind: "malformed_payload",
                info: format!("undecodable Data payload for round {round}"),
            });
        };
        let shared = MsgRef::new(msg);
        let current = self.sync.current_round();
        let to = self.sync.id().raw();
        let outcome = self.sync.accept_data(from, round, MsgRef::clone(&shared));
        if let Some(kind) = outcome.strike() {
            let info = match outcome {
                DataOutcome::Stale => format!("round {round} replayed at round {current}"),
                DataOutcome::FarFuture => format!("round {round} pushed at round {current}"),
                _ => format!("data for round {round} after its Done"),
            };
            return Err(Strike { kind, info });
        }
        match outcome {
            DataOutcome::Delivered => trace(&mut self.node.tracer, || {
                TraceEvent::deliver(round, from.raw(), to, &shared, false)
            }),
            DataOutcome::Duplicate => trace(&mut self.node.tracer, || {
                TraceEvent::duplicate_drop(round, from.raw(), to, &shared)
            }),
            _ => self.net_event(NetEventKind::LateDrop, Some(from), || {
                format!("frame for past round {round}")
            }),
        }
        Ok(())
    }

    /// A `Done { round }` barrier marker.
    fn on_done(&mut self, from: NodeId, round: u64, decided: bool) -> Result<(), Strike> {
        let current = self.sync.current_round();
        let outcome = self.sync.accept_done(from, round, decided);
        let Some(kind) = outcome.strike() else {
            return Ok(());
        };
        let info = match outcome {
            DoneOutcome::OutOfWindow => format!("Done for round {round} at round {current}"),
            _ => format!("conflicting decided flag for round {round} (first marker stands)"),
        };
        Err(Strike { kind, info })
    }

    /// A `SyncRequest { since }`: `from` crashed and came back. Answers
    /// with our tips and a backfill of our own retained traffic.
    fn on_sync_request(&mut self, from: NodeId, since: u64) -> Result<(), Strike> {
        let current = self.sync.current_round();
        // One rejoin per peer per round: a crashed node asks once, so
        // repeats within the same round are spam against the (relatively
        // expensive) backfill path.
        let peer = self.ledger.peer(from);
        if peer.served == Some(current) {
            return Err(Strike {
                kind: "sync_spam",
                info: format!("repeat SyncRequest within round {current}"),
            });
        }
        peer.served = Some(current);
        self.net_event(NetEventKind::SyncRequest, Some(from), || {
            format!("backfill requested since round {since}")
        });
        // Expect the requester at barriers again (even if the silence
        // budget had given it up), with a clean slate.
        self.sync.peer_rejoined(from);
        self.net_event(NetEventKind::Rejoin, Some(from), || {
            "expected at barriers again".to_string()
        });
        let tips = Frame::SyncTips {
            current_round: current,
            oldest_retained: self.history.keys().next().copied().unwrap_or(current),
            decided: self.node.stepper.decided_round().is_some(),
        };
        self.queue(Some(from), &tips);
        // Replay our own retained traffic addressed to the requester, round
        // by round in send order — never third-party payloads, so
        // backfilled frames stay as unforgeable as live ones. The response
        // is hard-capped at `history_rounds` rounds regardless of what
        // `since` claims.
        let cap = self.node.config.history_rounds;
        let retained = self.history.range(since..).take(cap);
        for round in retained.map(|(&round, _)| round).collect::<Vec<_>>() {
            let hist = &self.history[&round];
            let backfill = Frame::Backfill {
                round,
                done: hist.done.is_some(),
                decided: hist.done.unwrap_or(false),
                payloads: hist
                    .sends
                    .iter()
                    .filter(|(to, _)| to.is_none_or(|to| to == from))
                    .map(|(_, bytes)| bytes.clone())
                    .collect(),
            };
            self.queue(Some(from), &backfill);
            self.node
                .metrics(|m| m.inc("net_backfill_frames_served_total"));
            let info = || format!("sent round {round}");
            self.node
                .net_event(current, NetEventKind::Backfill, Some(from), info);
        }
        // The whole reply goes out together; nothing else is queued while
        // the node waits in `pump`.
        self.mesh.links().flush();
        Ok(())
    }

    /// A `Backfill` frame: one missed round of `from`'s own traffic, with
    /// its `Done` flag (`done`) if it had published one. Backfill is
    /// pull-only — it answers our `SyncRequest`; a peer pushing it
    /// unsolicited is abusing the rejoin path to inject traffic outside the
    /// live `Data` checks.
    fn on_backfill(
        &mut self,
        from: NodeId,
        round: u64,
        done: Option<bool>,
        payloads: &[Vec<u8>],
    ) -> Result<(), Strike> {
        if !self
            .ledger
            .peers
            .get(&from)
            .is_some_and(|peer| peer.solicited)
        {
            return Err(Strike {
                kind: "unsolicited_backfill",
                info: format!("backfill for round {round} never requested"),
            });
        }
        self.node
            .metrics(|m| m.inc("net_backfill_frames_received_total"));
        let total = payloads.len();
        let mut fresh = 0usize;
        let mut malformed = false;
        for payload in payloads {
            let Some(msg) = P::Msg::from_bytes(payload) else {
                malformed = true; // charged once, below
                continue;
            };
            if self.sync.accept_data(from, round, MsgRef::new(msg)) == DataOutcome::Delivered {
                fresh += 1;
            }
        }
        if let Some(decided) = done {
            self.sync.accept_done(from, round, decided);
        }
        self.net_event(NetEventKind::Backfill, Some(from), || {
            format!("received round {round}: {fresh} of {total} delivered")
        });
        if malformed {
            let info = format!("undecodable payload in backfill round {round}");
            return Err(Strike {
                kind: "malformed_payload",
                info,
            });
        }
        Ok(())
    }

    /// Charges one misbehavior strike against `from`: counts it for
    /// `net_misbehavior_total{kind,peer}`, traces a
    /// `net_byz_misbehavior` event, and evicts the peer once its strike
    /// budget ([`STRIKE_LIMIT`]) is spent. A no-op for an evicted peer, and
    /// for a hostile member, which strikes nobody.
    fn misbehave(&mut self, from: NodeId, Strike { kind, info }: Strike) {
        let peer = self.ledger.peer(from);
        if peer.banned || self.node.hostile.is_some() {
            return;
        }
        peer.strikes = peer.strikes.saturating_add(1);
        peer.count("net_misbehavior_total", Some(kind));
        let strikes = peer.strikes;
        self.net_event(NetEventKind::Misbehavior, Some(from), || {
            format!("{kind} (strike {strikes}/{STRIKE_LIMIT}): {info}")
        });
        if strikes >= STRIKE_LIMIT {
            self.evict(from);
        }
    }

    /// A hostile member lost its link to `peer` (not one a redial replaced):
    /// it stops expecting the peer until its next send phase redials it, so
    /// it never waits on a `Done` the closed link lost.
    fn link_closed(&mut self, peer: NodeId) {
        let Some(hostile) = &mut self.node.hostile else {
            return;
        };
        let expected = self.sync.expected().any(|p| p == peer);
        if expected && !self.mesh.links().connected().contains(&peer) {
            self.sync.peer_gone(peer);
            hostile.closed.insert(peer);
        }
    }

    /// A hostile member's send phase. It redials, once and without retries,
    /// every peer whose link closed since the last round (a poison victim
    /// needs a fresh link; a peer that finished stays written off), then
    /// queues its script's frames, `Done` claiming `decided`, one flush and
    /// the poison in a write of its own — or, for a stall, nothing at all.
    /// The victim is the lowest-id expected peer.
    fn play(&mut self, round: u64) {
        let Some(hostile) = &mut self.node.hostile else {
            return;
        };
        for peer in std::mem::take(&mut hostile.closed) {
            match self
                .mesh
                .dial(hostile.roster[&peer], peer, Instant::now(), |_, _| false)
            {
                Ok(()) => self.sync.peer_rejoined(peer),
                Err(_) => self.sync.peer_gone(peer),
            }
        }
        let victim = self.sync.expected().next();
        let Some((frames, poison)) = hostile.kind.wire_act(round, victim) else {
            return;
        };
        // The poison costs the victim this link: the next send phase
        // redials it whether or not the close has been seen by then.
        let poisoned = victim.filter(|_| !poison.is_empty());
        hostile.closed.extend(poisoned);
        for (to, frame) in frames {
            self.queue(to, &frame);
        }
        let decided = true;
        self.queue(None, &Frame::Done { round, decided });
        self.mesh.links().flush();
        if let Some(victim) = poisoned {
            if self.mesh.links().send_raw(victim, poison) {
                self.node.metrics(|m| m.inc(POISON_WRITES));
            }
        }
    }

    /// Evicts `from` for misbehavior: tears its link down, stops expecting
    /// it at barriers, and ignores all of its traffic (including redials)
    /// for the rest of the run. Charged as a `fault/byzantine_evict` —
    /// attributable malice — in contrast to the omission accounting of a
    /// barrier timeout ([`NetEventKind::Timeout`] / `PeerGone`).
    fn evict(&mut self, from: NodeId) {
        let peer = self.ledger.peer(from);
        peer.banned = true;
        peer.count("net_byz_evictions_total", None);
        self.mesh.links().shutdown_peer(from);
        self.sync.peer_gone(from);
        self.evicted.push(from.raw());
        self.net_event(NetEventKind::ByzEvict, Some(from), || {
            "strike budget exhausted; link torn down".to_string()
        });
        let (round, node) = (self.sync.current_round(), self.sync.id().raw());
        trace(&mut self.node.tracer, || TraceEvent::Fault {
            round,
            kind: "byzantine_evict",
            node,
            peer: Some(from.raw()),
        });
    }
}

/// Decodes the inbox a journal entry recorded for the round after its own.
fn journaled_inbox<M: Wire + std::hash::Hash>(
    entry: &JournalEntry,
) -> io::Result<Vec<Envelope<M>>> {
    let decode = |(from, bytes): &(u64, Vec<u8>)| {
        let msg = M::from_bytes(bytes).ok_or_else(|| {
            let round = entry.round;
            let info = format!("journal round {round}: payload from node {from} does not decode");
            io::Error::new(io::ErrorKind::InvalidData, info)
        })?;
        Ok(Envelope::new(NodeId::new(*from), msg))
    };
    entry.inbox.iter().map(decode).collect()
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
/// The runtime counter of the raw poison writes a hostile session made.
pub(crate) const POISON_WRITES: &str = "net_poison_writes_total";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_frame;
    use uba_sim::Context;

    /// A process that never sends and never decides.
    struct Idle(NodeId);

    impl Process for Idle {
        type Msg = u64;
        type Output = u64;

        fn id(&self) -> NodeId {
            self.0
        }

        fn on_round(&mut self, _: &mut Context<'_, u64>) {}

        fn output(&self) -> Option<u64> {
            None
        }
    }

    /// `frame` as the reader of `from`'s link reports it.
    fn received(from: NodeId, frame: Frame) -> LinkEvent {
        let wire_bytes = encode_frame(&frame).unwrap().len();
        LinkEvent::Frame {
            from,
            frame,
            wire_bytes,
        }
    }

    #[test]
    fn backfill_is_accepted_only_from_peers_the_ledger_marks_solicited() {
        let (me, asked, other) = (NodeId::new(1), NodeId::new(2), NodeId::new(3));
        let node = NetNode::new(Idle(me), NetConfig::default());
        let mesh = Mesh::open(me, None, None).unwrap();
        let mut session = Session::new(node, mesh, &[asked, other], 5);
        // What `resume` does for every peer it sends a SyncRequest to.
        session.ledger.peer(asked).solicited = true;

        let backfill = |from| {
            let frame = Frame::Backfill {
                round: 5,
                done: true,
                decided: false,
                payloads: vec![7u64.to_bytes()],
            };
            received(from, frame)
        };
        session.on_event(backfill(asked));
        session.on_event(backfill(other));
        assert_eq!(session.ledger.peers[&asked].strikes, 0);
        assert_eq!(
            session.ledger.peers[&other].strikes, 1,
            "unsolicited_backfill"
        );
        // Only the solicited peer's round made it into the synchronizer.
        assert_eq!(session.sync.missing(), vec![other]);
        assert_eq!(session.sync.advance().len(), 1);

        // The one field decides: flip it and the same frame is welcome.
        session.ledger.peer(other).solicited = true;
        let next = Frame::Backfill {
            round: 6,
            done: false,
            decided: false,
            payloads: Vec::new(),
        };
        session.on_event(received(other, next));
        assert_eq!(session.ledger.peers[&other].strikes, 1, "no further strike");
    }

    #[test]
    fn the_quota_charges_the_wire_size_which_the_old_estimate_bounded() {
        // Every frame kind a peer link carries. The ledger used to charge
        // `32 + payload bytes` (+4 per backfilled payload); the exact size
        // must never exceed that, or a round that fitted the quota could
        // newly trip it.
        let payload = vec![0xab; 100];
        let frames = [
            (
                Frame::Data {
                    round: 5,
                    payload: payload.clone(),
                },
                32 + 100,
            ),
            (
                Frame::Done {
                    round: 5,
                    decided: true,
                },
                32,
            ),
            (Frame::SyncRequest { since: 5 }, 32),
            (
                Frame::SyncTips {
                    current_round: 5,
                    oldest_retained: 1,
                    decided: false,
                },
                32,
            ),
            (
                Frame::Backfill {
                    round: 5,
                    done: true,
                    decided: false,
                    payloads: vec![payload.clone(), payload],
                },
                32 + 2 * (100 + 4),
            ),
        ];
        let (me, peer) = (NodeId::new(1), NodeId::new(2));
        let node = NetNode::new(Idle(me), NetConfig::default());
        let mut session = Session::new(node, Mesh::open(me, None, None).unwrap(), &[peer], 5);
        let mut charged = 0;
        for (frame, old_estimate) in frames {
            let exact = encode_frame(&frame).unwrap().len() as u64;
            assert!(exact <= old_estimate, "{frame:?}: {exact} > {old_estimate}");
            session.on_event(received(peer, frame));
            charged += exact;
            assert_eq!(session.ledger.peers[&peer].round.bytes, charged);
        }
    }

    /// Counts the `true`s it hears and decides in round 2.
    struct Flags {
        id: NodeId,
        heard: u64,
        done: Option<u64>,
    }

    impl Process for Flags {
        type Msg = bool;
        type Output = u64;

        fn id(&self) -> NodeId {
            self.id
        }

        fn on_round(&mut self, ctx: &mut Context<'_, bool>) {
            self.heard += ctx.inbox().iter().filter(|env| *env.msg()).count() as u64;
            if ctx.round() == 2 {
                self.done = Some(self.heard);
            }
        }

        fn output(&self) -> Option<u64> {
            self.done
        }
    }

    /// Recovers a one-entry journal whose only payload is the hex byte
    /// `payload`, and resumes a lone `Flags` node from it (no peers, so no
    /// sockets: replay precedes dialing).
    fn resume_from(name: &str, payload: &str) -> Result<NetReport<u64, NoopTracer>, NetError> {
        let me = NodeId::new(1);
        let path = std::env::temp_dir().join(format!("uba-{name}-{}.jsonl", std::process::id()));
        let journal = format!(
            "{{\"v\":1,\"node\":1}}\n\
             {{\"round\":1,\"decided\":false,\"inbox\":[[2,\"{payload}\"]]}}\n"
        );
        std::fs::write(&path, journal).unwrap();
        let recovery = RoundJournal::recover(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!((recovery.entries.len(), recovery.torn), (1, false));
        let flags = Flags {
            id: me,
            heard: 0,
            done: None,
        };
        let roster = BTreeMap::from([(me, "127.0.0.1:1".parse().unwrap())]);
        NetNode::new(flags, NetConfig::default()).resume(&recovery, &roster)
    }

    #[test]
    fn resume_feeds_the_last_journaled_inbox_to_the_first_live_round() {
        let report = resume_from("resume-intact", "01").expect("an intact journal resumes");
        assert_eq!(report.decided_round, Some(2));
        assert_eq!(report.output, Some(1), "entry 1's inbox is round 2's");
    }

    #[test]
    fn resume_refuses_a_journal_whose_payload_does_not_decode() {
        // One payload byte changed: 0x02 is not a canonical bool. Replaying
        // round 2 on an inbox without it would rebuild a different process.
        match resume_from("resume-corrupt", "02") {
            Err(NetError::Io(err)) => {
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                let text = err.to_string();
                assert!(
                    text.contains("round 1") && text.contains("node 2"),
                    "{text}"
                );
            }
            other => panic!("expected InvalidData, got {:?}", other.map(|r| r.output)),
        }
    }
}
