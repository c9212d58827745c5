//! Hostile cluster members: the simulator's adversary on real sockets.
//!
//! A hostile member is a [`NetNode`] on the honest round driver with a
//! seeded [`AttackPlan`] for a process. The plan's protocol half is that
//! process (`equivocate` runs the simulator's own `ConsensusEquivocator`);
//! its wire half is one per-round hook the session calls behind the
//! process's sends, never for an honest member (DESIGN.md §13 tabulates
//! both). The session claims `decided` in every `Done`, never strikes or
//! evicts anyone, does not wait on a peer whose link closed until its next
//! send phase redials it (a failed redial writes the peer off), and leaves
//! when the whole cluster has decided.

use std::collections::{BTreeMap, BTreeSet};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use uba_adversary::attacks::ConsensusEquivocator;
use uba_core::consensus::ConsensusMsg;
use uba_sim::{Adversary, AdversaryOutbox, AdversaryView, Context, NodeId, Process};
use uba_trace::SharedRuntimeMetrics;

use crate::node::{NetConfig, NetNode, POISON_WRITES};
use crate::wan::LinkPlan;
use crate::wire::{Frame, Wire};

/// One scripted hostile behavior, the wire-level mirror of the simulator's
/// adversary vocabulary (`crates/adversary/src/attacks.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackKind {
    /// `ConsensusEquivocator::new(a, b)` acting for this member: round 1
    /// broadcasts `RotorInit`, each phase round sends `a` to the lower half
    /// of the correct nodes (by id) and `b` to the upper half — lying the
    /// model allows, absorbed by `n > 3f`. Not rushing (the member sees no
    /// honest traffic of the round), which this script never needs.
    Equivocate {
        /// The value pushed to the lower half of the correct nodes.
        a: u64,
        /// The value pushed to the upper half.
        b: u64,
    },
    /// From round 2 on, `burst` copies of the round-1 `Data` frame to the
    /// victim every round: late traffic inside its round window, a
    /// `stale_replay` strike each once the window moved past round 1.
    Replay {
        /// Copies per round.
        burst: u32,
    },
    /// Behind each round's `Done`, a valid length prefix and a body no
    /// codec accepts, to the victim: each costs the connection and one
    /// `malformed_frame` strike; the member redials until evicted.
    Corrupt,
    /// Like [`Corrupt`](Self::Corrupt) with a bare 4 GiB length prefix for
    /// poison: refused before any allocation, an `oversize_frame` strike.
    Oversize,
    /// `frames_per_round` duplicate `Data` frames to every correct peer
    /// each round, past the ingress quota (`flood` strikes).
    Flood {
        /// Above `max_frames_per_round` + [`STRIKE_LIMIT`](crate::STRIKE_LIMIT),
        /// the eviction lands inside the first round.
        frames_per_round: u64,
    },
    /// The handshake, then nothing at all: omission timeouts until
    /// `give_up_after`, never a strike (silence looks like a crash).
    Stall,
    /// `requests_per_round` `SyncRequest { since: 1 }`s to the victim each
    /// round: the first is served (rejoin), each repeat a `sync_spam` strike.
    BackfillSpam {
        /// Requests per round; repeats beyond the first strike.
        requests_per_round: u32,
    },
}

impl AttackKind {
    /// The attack's stable name, as `--attack` and the tables spell it.
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
        let name = name.replace('_', "-"); // `backfill_spam` too
        Self::DEFAULTS.into_iter().find(|kind| kind.name() == name)
    }

    /// Every parseable attack name, for `--help` text and sweeps.
    pub fn all_names() -> [&'static str; 7] {
        Self::DEFAULTS.map(|kind| kind.name())
    }

    /// Every script, with its default parameters.
    const DEFAULTS: [AttackKind; 7] = [
        AttackKind::Equivocate { a: 0, b: 1 },
        AttackKind::Replay { burst: 3 },
        AttackKind::Corrupt,
        AttackKind::Oversize,
        AttackKind::Flood {
            frames_per_round: 256,
        },
        AttackKind::Stall,
        AttackKind::BackfillSpam {
            requests_per_round: 3,
        },
    ];

    /// The script's wire half in `round`, given its `victim`: the frames
    /// to queue behind the process's sends (each for one peer, or `None`:
    /// every expected peer) and the raw bytes to write behind `Done` —
    /// `None` for a stall, which queues nothing and never flushes.
    pub(crate) fn wire_act(&self, round: u64, victim: Option<NodeId>) -> Option<WireRound> {
        let rotor_init = |round| Frame::Data {
            round,
            payload: ConsensusMsg::<u64>::RotorInit.to_bytes(),
        };
        let copies = |to, frame, n: u64| vec![(to, frame); n as usize];
        Some(match *self {
            AttackKind::Replay { burst } if round > 1 => {
                (copies(victim, rotor_init(1), burst.into()), &[])
            }
            AttackKind::Equivocate { .. } | AttackKind::Replay { .. } => (Vec::new(), &[]),
            // A valid length prefix before a tag that exists in no codec.
            AttackKind::Corrupt => (Vec::new(), &[5, 0, 0, 0, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE]),
            AttackKind::Oversize => (Vec::new(), &[0xFF; 4]),
            AttackKind::Flood { frames_per_round } => {
                (copies(None, rotor_init(round), frames_per_round), &[])
            }
            AttackKind::Stall => return None,
            AttackKind::BackfillSpam { requests_per_round } => {
                let request = Frame::SyncRequest { since: 1 };
                (copies(victim, request, requests_per_round.into()), &[])
            }
        })
    }
}

/// One round of a script's wire half ([`AttackKind::wire_act`]).
pub(crate) type WireRound = (Vec<(Option<NodeId>, Frame)>, &'static [u8]);

/// A seeded, replayable attack script: what to do, who the conspirators
/// are, and the seed making every randomized choice a pure function.
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
    fn correct_of(&self, roster: &BTreeMap<NodeId, SocketAddr>) -> Vec<NodeId> {
        roster
            .keys()
            .copied()
            .filter(|id| !self.byzantine.contains(id))
            .collect()
    }
}

/// What a [`ByzantineNode`] run sent, for verdict tables.
#[derive(Debug, Default, Clone)]
pub struct ByzReport {
    /// Its registry's `net_frames_sent_total`, plus raw poison writes.
    pub frames_sent: u64,
}

/// A hostile cluster member playing an [`AttackPlan`] ([module docs](self)).
#[derive(Debug)]
pub struct ByzantineNode {
    me: NodeId,
    plan: AttackPlan,
    config: NetConfig,
    abort: Option<Arc<AtomicBool>>,
    wan: Option<Arc<LinkPlan>>,
}

impl ByzantineNode {
    /// A hostile member with identity `me` executing `plan`; pass the
    /// honest members' config so the cadences line up.
    pub fn new(me: NodeId, plan: AttackPlan, config: NetConfig) -> Self {
        ByzantineNode {
            me,
            plan,
            config,
            abort: None,
            wan: None,
        }
    }

    /// Reads a harness abort flag, as [`NetNode::with_abort_flag`] does.
    pub fn with_abort_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.abort = Some(flag);
        self
    }

    /// Shapes the links into this member, as [`NetNode::with_links`] does.
    /// Their counters stay in the member's private registry and their
    /// events are not traced: a hostile member records no trace.
    pub fn with_links(mut self, wan: Arc<LinkPlan>) -> Self {
        self.wan = Some(wan);
        self
    }

    /// Joins the cluster on `listener` / `roster` and runs the script until
    /// the cluster decided, every correct peer is gone, the round limit
    /// trips or the abort flag rises. However the run ends — a transport
    /// failure included — it reports what it sent.
    pub fn run(self, listener: TcpListener, roster: &BTreeMap<NodeId, SocketAddr>) -> ByzReport {
        let (me, plan) = (self.me, self.plan);
        // Conspirators are not peers: the member expects, and addresses,
        // the correct members only.
        let mut roster = roster.clone();
        roster.retain(|id, _| *id == me || !plan.byzantine.contains(id));
        let script = Script {
            me,
            kind: plan.kind.clone(),
            correct: plan.correct_of(&roster).into_iter().collect(),
        };
        let registry = SharedRuntimeMetrics::new();
        let mut node = NetNode::new(script, self.config)
            .with_runtime_metrics(registry.clone())
            .with_attack(plan.kind, roster.clone());
        if let Some(flag) = self.abort {
            node = node.with_abort_flag(flag);
        }
        if let Some(wan) = self.wan {
            node = node.with_links(wan);
        }
        let _ = node.run(listener, &roster);
        let sent = registry.snapshot();
        ByzReport {
            frames_sent: sent.family_sum("net_frames_sent_total") + sent.counter(POISON_WRITES),
        }
    }
}

/// The protocol half of a plan: a hostile member's process, for which the
/// member itself is the adversary's one faulty node.
struct Script {
    me: NodeId,
    kind: AttackKind,
    correct: BTreeSet<NodeId>,
}

impl Process for Script {
    type Msg = ConsensusMsg<u64>;
    type Output = ();

    fn id(&self) -> NodeId {
        self.me
    }

    /// The simulator's equivocator for this member, or a round-1 candidacy
    /// like the sim adversary's (`flood` and `stall` announce nothing).
    fn on_round(&mut self, ctx: &mut Context<'_, ConsensusMsg<u64>>) {
        let AttackKind::Equivocate { a, b } = self.kind else {
            let silent = matches!(self.kind, AttackKind::Flood { .. } | AttackKind::Stall);
            if !silent && ctx.round() == 1 {
                ctx.broadcast(ConsensusMsg::RotorInit);
            }
            return;
        };
        let faulty = BTreeSet::from([self.me]);
        let view = AdversaryView {
            round: ctx.round(),
            correct: &self.correct,
            faulty: &faulty,
            correct_traffic: &[],
            faulty_inboxes: &BTreeMap::new(),
        };
        let mut out = AdversaryOutbox::new(&faulty);
        ConsensusEquivocator::new(a, b).act(&view, &mut out);
        for (_, outgoing) in out.into_items() {
            match outgoing.dest.recipient() {
                Some(to) => ctx.send(to, outgoing.msg),
                None => ctx.broadcast(outgoing.msg),
            }
        }
    }

    /// Never: a hostile member leaves when the cluster has decided.
    fn output(&self) -> Option<()> {
        None
    }
}
