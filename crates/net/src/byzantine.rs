//! [`ByzantineNode`]: a scripted hostile cluster member for adversarial
//! deployments on the real wire.
//!
//! The simulator already has a first-class adversary suite
//! (`uba-adversary`): rushing equivocators, replayers and silencers that
//! exercise the paper's `n > 3f` resilience bound inside one process. This
//! module is its transport twin — a node that joins a **real** TCP cluster,
//! completes the `Hello` handshake like any honest member, and then runs a
//! seeded, replayable [`AttackPlan`] instead of a `Process`. The attack
//! vocabulary deliberately mirrors `crates/adversary/src/attacks.rs` so the
//! same hostile behavior is expressible in both worlds; for the
//! value-equivocation script the wire run is byte-identical to the sim twin
//! (experiment T15 locks this).
//!
//! # Attack vocabulary
//!
//! | [`AttackKind`]   | behavior on the wire                                   | honest response (DESIGN.md §13) |
//! |------------------|--------------------------------------------------------|---------------------------------|
//! | `Equivocate`     | split consensus values across the correct nodes, as `ConsensusEquivocator` | tolerated: `n > 3f` absorbs it |
//! | `Replay`         | burst stale-round `Data` frames every round            | `stale_replay` strikes → evict  |
//! | `Corrupt`        | append undecodable bytes after valid frames            | `malformed_frame` strikes → evict |
//! | `Oversize`       | write a 4 GiB length prefix                            | `oversize_frame` strikes → evict |
//! | `Flood`          | blast duplicate `Data` frames past the ingress quota   | `flood` strikes → evict         |
//! | `Stall`          | handshake, then withhold every `Done` barrier marker   | omission timeouts → `peer_gone` (no eviction: silence is not malice) |
//! | `BackfillSpam`   | repeat `SyncRequest`s within one round                 | `sync_spam` strikes → evict     |
//!
//! Except for `Stall`, the node stays barrier-synchronized: it publishes
//! `Done { decided: true }` every round (so honest shutdown-in-unison still
//! works) and advances only after collecting the honest `Done` markers —
//! exactly the lock-step discipline of [`NetNode`](crate::NetNode), minus
//! the process.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::time::Instant;

use uba_core::consensus::{phase_of_round, ConsensusMsg, INIT_ROUNDS};
use uba_sim::NodeId;

use crate::conn::{LinkEvent, Links, Mesh};
use crate::node::{pair_retry, NetConfig};
use crate::wire::{Frame, Wire};

/// One scripted hostile behavior, the wire-level mirror of the simulator's
/// adversary vocabulary (`crates/adversary/src/attacks.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackKind {
    /// Value equivocation, exactly `ConsensusEquivocator::new(a, b)`: round
    /// 1 broadcasts `RotorInit`, and every consensus phase round sends `a`
    /// to the lower half of the correct nodes (sorted by id) and `b` to the
    /// upper half. Model-allowed lying — honest nodes tolerate it via
    /// `n > 3f` rather than detect it, and the run is byte-identical to the
    /// sim twin executing the same plan.
    Equivocate {
        /// The value pushed to the lower half of the correct nodes.
        a: u64,
        /// The value pushed to the upper half.
        b: u64,
    },
    /// From round 2 on, re-send `burst` copies of the round-1 `Data` frame
    /// to the victim every round. Inside the receiver's round window the
    /// copies are harmless late traffic; once the window has moved past
    /// round 1 each copy is a `stale_replay` strike.
    Replay {
        /// Stale frames per round; [`STRIKE_LIMIT`](crate::STRIKE_LIMIT) of
        /// them in one round forces the eviction within that round.
        burst: u32,
    },
    /// After each round's honest-looking traffic, write bytes to the victim
    /// that no codec accepts (a valid length prefix followed by an invalid
    /// body). Each connection dies with one `malformed_frame` strike; the
    /// node redials and repeats until evicted.
    Corrupt,
    /// Like [`Corrupt`](Self::Corrupt), but the poison is a `0xFFFF_FFFF`
    /// (4 GiB) length prefix: the receiver must refuse it *before*
    /// allocating, charging an `oversize_frame` strike.
    Oversize,
    /// Send `frames_per_round` duplicate `Data` frames to every correct
    /// peer each round, blowing through the per-peer ingress quota
    /// (`flood` strikes, eviction within the flooded round).
    Flood {
        /// Frames per peer per round; must exceed the victim's
        /// `max_frames_per_round` plus [`STRIKE_LIMIT`](crate::STRIKE_LIMIT)
        /// to force the eviction inside one round.
        frames_per_round: u64,
    },
    /// Complete the handshake, then never send anything again — the
    /// barrier-withholding attack. Honest nodes charge omission timeouts
    /// and declare the peer gone after `give_up_after` silent rounds; no
    /// strikes, no eviction (silence is indistinguishable from a crash and
    /// is attributed as omission, not malice).
    Stall,
    /// Send `requests_per_round` identical `SyncRequest { since: 1 }`
    /// frames to the victim every round. The first per round is served (the
    /// legitimate rejoin path); every repeat is a `sync_spam` strike.
    BackfillSpam {
        /// Requests per round; repeats beyond the first strike.
        requests_per_round: u32,
    },
}

impl AttackKind {
    /// The attack's stable name, as used by `--attack` on the cluster
    /// binary and in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            AttackKind::Equivocate { .. } => "equivocate",
            AttackKind::Replay { .. } => "replay",
            AttackKind::Corrupt => "corrupt",
            AttackKind::Oversize => "oversize",
            AttackKind::Flood { .. } => "flood",
            AttackKind::Stall => "stall",
            AttackKind::BackfillSpam { .. } => "backfill-spam",
        }
    }

    /// Parses an attack name (as accepted by `--attack`) into its kind with
    /// default parameters. `None` for an unknown name.
    pub fn parse(name: &str) -> Option<AttackKind> {
        match name {
            "equivocate" => Some(AttackKind::Equivocate { a: 0, b: 1 }),
            "replay" => Some(AttackKind::Replay { burst: 3 }),
            "corrupt" => Some(AttackKind::Corrupt),
            "oversize" => Some(AttackKind::Oversize),
            "flood" => Some(AttackKind::Flood {
                frames_per_round: 256,
            }),
            "stall" => Some(AttackKind::Stall),
            "backfill-spam" | "backfill_spam" => Some(AttackKind::BackfillSpam {
                requests_per_round: 3,
            }),
            _ => None,
        }
    }

    /// Every parseable attack name, for `--help` text and exhaustive
    /// experiment sweeps.
    pub fn all_names() -> [&'static str; 7] {
        [
            "equivocate",
            "replay",
            "corrupt",
            "oversize",
            "flood",
            "stall",
            "backfill-spam",
        ]
    }
}

/// A seeded, replayable attack script: what to do, who the conspirators
/// are, and the seed making every randomized choice a pure function.
///
/// The same plan drives both worlds: handed to a [`ByzantineNode`] it runs
/// on real sockets; its `Equivocate` form corresponds 1:1 to the
/// simulator's `ConsensusEquivocator` so T15 can assert byte-identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackPlan {
    /// Seed for deterministic choices (victim rotation, jitter).
    pub seed: u64,
    /// The scripted behavior.
    pub kind: AttackKind,
    /// Every Byzantine member of the cluster (including the node executing
    /// this plan). Needed so conspirators agree on the *correct* set — the
    /// equivocation halves must match the sim adversary's view exactly.
    pub byzantine: BTreeSet<NodeId>,
}

impl AttackPlan {
    /// A plan for `kind` with the given conspirator set.
    pub fn new(seed: u64, kind: AttackKind, byzantine: impl IntoIterator<Item = NodeId>) -> Self {
        AttackPlan {
            seed,
            kind,
            byzantine: byzantine.into_iter().collect(),
        }
    }

    /// The correct (honest) members of `roster` under this plan, sorted by
    /// id — the same view the sim adversary's `view.correct` exposes.
    pub fn correct_of(&self, roster: &BTreeMap<NodeId, SocketAddr>) -> Vec<NodeId> {
        roster
            .keys()
            .copied()
            .filter(|id| !self.byzantine.contains(id))
            .collect()
    }
}

/// What a [`ByzantineNode`] run observed, for verdict tables and tests.
#[derive(Debug, Default, Clone)]
pub struct ByzReport {
    /// Rounds the script acted in before the cluster wound down.
    pub rounds: u64,
    /// Frames (plus raw poison writes) sent in total.
    pub frames_sent: u64,
    /// Honest peers whose links went permanently dead on us — evictions
    /// observed from the receiving end, or honest shutdowns.
    pub peers_lost: u64,
}

/// A scripted hostile cluster member: handshakes like an honest
/// [`NetNode`](crate::NetNode), then executes an [`AttackPlan`] against the
/// cluster instead of running a process.
///
/// The node follows the honest dialing convention (dial larger ids, accept
/// smaller ones), keeps the barrier cadence by publishing
/// `Done { decided: true }` every round, and terminates once every honest
/// peer has decided or dropped the link — so a cluster with Byzantine
/// members still shuts down in unison.
#[derive(Debug)]
pub struct ByzantineNode {
    me: NodeId,
    plan: AttackPlan,
    config: NetConfig,
}

/// Per-honest-peer bookkeeping for the barrier-following loop.
#[derive(Debug, Default)]
struct PeerTrack {
    /// Highest round the peer published `Done` for.
    done_round: u64,
    /// Whether that `Done` carried `decided: true`.
    decided: bool,
    /// Consecutive barrier timeouts charged to the peer.
    silent: u64,
    /// Closes observed with no replacement link (evictions look like this).
    closes: u32,
    /// Permanently written off: evicted us, decided and left, or dead.
    gone: bool,
}

impl ByzantineNode {
    /// A hostile member with identity `me` executing `plan`. The config
    /// supplies the timing knobs (`round_timeout`, `setup_timeout`,
    /// `give_up_after`, `max_rounds`, dial retry policy) — pass the same
    /// config as the honest members so the cadences line up.
    pub fn new(me: NodeId, plan: AttackPlan, config: NetConfig) -> Self {
        ByzantineNode { me, plan, config }
    }

    /// Joins the cluster on `listener` / `roster` and runs the script to
    /// completion. Returns what the script observed; a hostile node has no
    /// output and no invariants, so any transport failure simply ends the
    /// run early with the partial report.
    ///
    /// # Errors
    ///
    /// Only listener-level I/O failures surface; per-peer dial and write
    /// failures are the attack's problem and are swallowed (an evicted
    /// attacker losing its sockets is the expected outcome).
    pub fn run(
        self,
        listener: TcpListener,
        roster: &BTreeMap<NodeId, SocketAddr>,
    ) -> io::Result<ByzReport> {
        let me = self.me;
        let correct = self.plan.correct_of(roster);
        let mesh = Mesh::open(me, Some(listener))?;
        let links = &mesh.links;
        for (&peer, &addr) in roster {
            if peer > me {
                // Dial failures are fine: the peer may accept us later, or
                // never — a hostile node takes what it can get.
                let _ = mesh.dial(addr, peer, pair_retry(self.config.retry, me, peer), |_| {});
            }
        }

        let mut report = ByzReport::default();
        let mut track: BTreeMap<NodeId, PeerTrack> = correct
            .iter()
            .map(|&id| (id, PeerTrack::default()))
            .collect();

        // Setup: wait (bounded) until every honest peer has a live link, so
        // round-1 traffic lands inside every honest setup phase.
        let setup_deadline = Instant::now() + self.config.setup_timeout;
        while Instant::now() < setup_deadline {
            let connected: BTreeSet<NodeId> = links.connected().into_iter().collect();
            if correct.iter().all(|id| connected.contains(id)) {
                break;
            }
            let wait = setup_deadline.saturating_duration_since(Instant::now());
            let _ = mesh.next_event(self.config.round_timeout.min(wait));
        }

        if self.plan.kind == AttackKind::Stall {
            // The whole attack is silence: drain events until every honest
            // peer writes us off and closes, then leave.
            self.stall(&mesh, &mut track, &mut report);
            return Ok(report);
        }

        let mut round: u64 = 1;
        loop {
            report.rounds = round;
            let poison = self.act(round, &correct, roster, &mesh, &mut track, &mut report);

            // Publish the barrier marker; a Byzantine member always claims
            // `decided` so honest shutdown-in-unison is never blocked on us.
            let done = Frame::Done {
                round,
                decided: true,
            };
            for &peer in &correct {
                if !track.get(&peer).is_some_and(|t| t.gone) && links.send(peer, &done) {
                    report.frames_sent += 1;
                }
            }

            // Poison goes behind the honest-looking round, barrier marker
            // included: the victim's reader takes those first, so the victim
            // keeps pace with the cluster while its strike ledger fills.
            if let Some((victim, bytes)) = poison {
                report.frames_sent += u64::from(links.send_raw(victim, bytes));
            }

            self.barrier(round, &mesh, &mut track);

            let live: Vec<&PeerTrack> = track.values().filter(|t| !t.gone).collect();
            if live.is_empty() {
                break; // everyone evicted us or left
            }
            if links.connected().is_empty() {
                break; // every socket is gone — the cluster moved on without us
            }
            if live.iter().all(|t| t.decided && t.done_round >= round) {
                break; // honest cluster decided; it shuts down after this barrier
            }
            round += 1;
            if round > self.config.max_rounds {
                break;
            }
        }

        Ok(report) // dropping the mesh closes every socket
    }

    /// One round of scripted hostile framed traffic. Returns the raw bytes
    /// (and their victim) a poison script wants written behind the round's
    /// barrier marker.
    fn act(
        &self,
        round: u64,
        correct: &[NodeId],
        roster: &BTreeMap<NodeId, SocketAddr>,
        mesh: &Mesh,
        track: &mut BTreeMap<NodeId, PeerTrack>,
        report: &mut ByzReport,
    ) -> Option<(NodeId, &'static [u8])> {
        let links = &mesh.links;
        // The deterministic victim of the point-to-point attacks: the
        // lowest-id honest peer still talking to us.
        let victim = correct
            .iter()
            .copied()
            .find(|id| !track.get(id).is_some_and(|t| t.gone));
        // Poison attacks burn one connection per strike; redial first so
        // this round's strike has a socket to ride on.
        if matches!(self.plan.kind, AttackKind::Corrupt | AttackKind::Oversize) {
            if let Some(victim) = victim {
                self.redial_if_needed(victim, roster, mesh, track);
            }
        }

        match &self.plan.kind {
            AttackKind::Equivocate { a, b } => {
                for (peer, frame) in equivocation_frames(round, correct, *a, *b) {
                    if links.send(peer, &frame) {
                        report.frames_sent += 1;
                    }
                }
            }
            AttackKind::Replay { burst } => {
                if round == 1 {
                    report.frames_sent += broadcast(links, correct, &rotor_init_frame(1));
                } else if let Some(victim) = victim {
                    let stale = rotor_init_frame(1);
                    for _ in 0..*burst {
                        if links.send(victim, &stale) {
                            report.frames_sent += 1;
                        }
                    }
                }
            }
            AttackKind::Corrupt => {
                if round == 1 {
                    report.frames_sent += broadcast(links, correct, &rotor_init_frame(1));
                }
                // A malformed body behind a valid length prefix: tag 0xEE
                // exists in no codec.
                return victim.map(|v| (v, &[5, 0, 0, 0, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE][..]));
            }
            AttackKind::Oversize => {
                if round == 1 {
                    report.frames_sent += broadcast(links, correct, &rotor_init_frame(1));
                }
                // A 4 GiB length prefix. The hardened `read_frame` must
                // refuse it before allocating (satellite test in `wire.rs`),
                // so this costs the victim nothing but a strike entry.
                return victim.map(|v| (v, &[0xFF; 4][..]));
            }
            AttackKind::Flood { frames_per_round } => {
                let noise = rotor_init_frame(round);
                for &peer in correct {
                    if track.get(&peer).is_some_and(|t| t.gone) {
                        continue;
                    }
                    for _ in 0..*frames_per_round {
                        if !links.send(peer, &noise) {
                            break; // evicted mid-flood: socket is gone
                        }
                        report.frames_sent += 1;
                    }
                }
            }
            AttackKind::Stall => unreachable!("stall short-circuits before the round loop"),
            AttackKind::BackfillSpam { requests_per_round } => {
                if round == 1 {
                    report.frames_sent += broadcast(links, correct, &rotor_init_frame(1));
                }
                if let Some(victim) = victim {
                    let request = Frame::SyncRequest { since: 1 };
                    for _ in 0..*requests_per_round {
                        if links.send(victim, &request) {
                            report.frames_sent += 1;
                        }
                    }
                }
            }
        }
        None
    }

    /// Re-establishes the link to `peer` if a poison write burned it: each
    /// corrupt/oversize strike costs the connection, so the next strike
    /// needs a fresh one. Repeated dial failures (or eviction-shaped
    /// instant closes, counted by [`handle_event`]) write the peer off.
    fn redial_if_needed(
        &self,
        peer: NodeId,
        roster: &BTreeMap<NodeId, SocketAddr>,
        mesh: &Mesh,
        track: &mut BTreeMap<NodeId, PeerTrack>,
    ) {
        if mesh.links.connected().contains(&peer) {
            return;
        }
        let entry = track.entry(peer).or_default();
        if entry.gone {
            return;
        }
        let Some(&addr) = roster.get(&peer) else {
            entry.gone = true;
            return;
        };
        // A redial that keeps failing means the peer banned us (or died);
        // the close accounting in `handle_event` and the give-up budget in
        // `barrier` take it from there.
        let retry = pair_retry(self.config.retry, self.me, peer);
        if mesh.dial(addr, peer, retry, |_| {}).is_err() {
            entry.closes += 1;
            if entry.closes >= 2 {
                entry.gone = true;
            }
        }
    }

    /// Waits out one barrier: collects `Done` markers from the live honest
    /// peers, charging silence and link loss exactly like an honest node
    /// would (minus the attribution — an attacker keeps no ledger).
    fn barrier(&self, round: u64, mesh: &Mesh, track: &mut BTreeMap<NodeId, PeerTrack>) {
        let deadline = Instant::now() + self.config.round_timeout;
        loop {
            let satisfied = track
                .values()
                .filter(|t| !t.gone)
                .all(|t| t.done_round >= round);
            if satisfied {
                for t in track.values_mut() {
                    if !t.gone {
                        t.silent = 0;
                    }
                }
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                // Charge the silent peers and advance anyway — an attacker
                // that blocks on a dead victim stalls its own script.
                for t in track.values_mut() {
                    if !t.gone && t.done_round < round {
                        t.silent += 1;
                        if t.silent >= self.config.give_up_after {
                            t.gone = true;
                        }
                    }
                }
                return;
            }
            if let Some(event) = mesh.next_event(deadline - now) {
                handle_event(event, &mesh.links, track);
            }
        }
    }

    /// The `Stall` script: total silence until every honest peer writes us
    /// off (omission give-up) and the links die, or the cluster's worst-case
    /// run time elapses.
    fn stall(&self, mesh: &Mesh, track: &mut BTreeMap<NodeId, PeerTrack>, report: &mut ByzReport) {
        // Honest peers write a silent member off after `give_up_after`
        // barrier timeouts, then finish their run and close; a couple of
        // extra rounds of slack covers the decision tail.
        let budget = self.config.round_timeout * (self.config.give_up_after as u32 + 2)
            + self.config.setup_timeout;
        let deadline = Instant::now() + budget;
        while Instant::now() < deadline {
            if track.values().all(|t| t.gone) {
                break;
            }
            let wait = deadline.saturating_duration_since(Instant::now());
            if let Some(event) = mesh.next_event(self.config.round_timeout.min(wait)) {
                handle_event(event, &mesh.links, track);
            }
        }
        report.peers_lost = track.values().filter(|t| t.gone).count() as u64;
    }
}

/// Folds one link event into the peer ledger: `Done` markers advance the
/// barrier view, closes with no replacement link count toward writing the
/// peer off (that is what being evicted looks like from the attacker's
/// side).
fn handle_event(event: LinkEvent, links: &Links, track: &mut BTreeMap<NodeId, PeerTrack>) {
    match event {
        LinkEvent::Frame {
            from,
            frame: Frame::Done { round, decided },
            ..
        } => {
            if let Some(t) = track.get_mut(&from) {
                if round >= t.done_round {
                    t.done_round = round;
                    t.decided = decided;
                }
                t.silent = 0;
            }
        }
        // Honest Data / SyncTips / Backfill traffic is of no interest to a
        // scripted attacker; drain and drop.
        LinkEvent::Frame { .. } | LinkEvent::Corrupt { .. } => {}
        LinkEvent::Connected { peer, .. } => {
            if let Some(t) = track.get_mut(&peer) {
                t.closes = 0;
            }
        }
        LinkEvent::Closed { peer, .. } => {
            if !links.connected().contains(&peer) {
                if let Some(t) = track.get_mut(&peer) {
                    t.closes += 1;
                    // An evicted attacker sees its redials shut down on
                    // arrival; a decided peer never comes back at all.
                    if t.closes >= 2 {
                        t.gone = true;
                    }
                }
            }
        }
    }
}

/// Sends `frame` to every correct peer, returning the number delivered.
fn broadcast(links: &Links, correct: &[NodeId], frame: &Frame) -> u64 {
    correct
        .iter()
        .filter(|&&peer| links.send(peer, frame))
        .count() as u64
}

/// The `RotorInit` participation frame for `round` — the cheapest valid
/// consensus payload, used both as benign participation (so the attacker is
/// counted among the rotor candidates exactly like the sim adversary) and
/// as flood filler.
fn rotor_init_frame(round: u64) -> Frame {
    Frame::Data {
        round,
        payload: ConsensusMsg::<u64>::RotorInit.to_bytes(),
    }
}

/// The wire twin of `ConsensusEquivocator::act` for one Byzantine sender:
/// which `Data` frame goes to which correct peer in `round`. Round 1
/// broadcasts `RotorInit`; consensus phase rounds split `a` / `b` across
/// the sorted correct set exactly like the simulator's `split_send`, so a
/// cluster under this script is byte-identical to the sim twin.
pub fn equivocation_frames(round: u64, correct: &[NodeId], a: u64, b: u64) -> Vec<(NodeId, Frame)> {
    if round <= INIT_ROUNDS {
        if round == 1 {
            return correct
                .iter()
                .map(|&peer| (peer, rotor_init_frame(round)))
                .collect();
        }
        return Vec::new();
    }
    let (_phase, phase_round) = phase_of_round(round);
    let make: fn(u64) -> ConsensusMsg<u64> = match phase_round {
        1 => ConsensusMsg::Input,
        2 => ConsensusMsg::Prefer,
        3 => ConsensusMsg::StrongPrefer,
        4 => ConsensusMsg::Opinion,
        _ => return Vec::new(),
    };
    let half = correct.len() / 2;
    correct
        .iter()
        .enumerate()
        .map(|(i, &peer)| {
            let v = if i < half { a } else { b };
            (
                peer,
                Frame::Data {
                    round,
                    payload: make(v).to_bytes(),
                },
            )
        })
        .collect()
}
