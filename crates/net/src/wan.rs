//! Deterministic WAN emulation: per-link latency, jitter, loss, bandwidth
//! caps and scheduled partitions over real TCP.
//!
//! A [`LinkPlan`] scripts what the network does to each *directed* link,
//! and every member of a cluster holds the same plan
//! ([`NetNode::with_links`](crate::NetNode::with_links)). The plan is
//! applied where a frame arrives: the reader thread of each connection
//! decodes a frame of `peer -> me`, passes it through that link's shaper —
//! sever, seeded `Data` loss, bandwidth queue, then latency plus jitter —
//! and reports the survivors to its node once their delivery instant has
//! come. What the plan does to `peer -> me` is an observation of `me`: the
//! link's `net_link_*` counters go to `me`'s runtime registry, and its
//! drop, partition and heal events to `me`'s trace. Everything above the
//! reader runs unmodified, and the bytes reach the codec exactly as the
//! sender wrote them, so a [`LinkPlan`] with zero impairment is invisible,
//! which is what lets experiments T11/T12 run unchanged under one. Without
//! a plan a reader pays one `Option` branch per frame.
//!
//! # Determinism
//!
//! Every random decision is a pure splitmix64 draw ([`uba_sim::derive`])
//! from `(plan seed, directed link, frame counter)` — the same vocabulary
//! as the dial jitter and the simulator's `FaultPlan` sampling. Which `Data`
//! frames a lossy link drops is therefore a function of the seed and the
//! (deterministic) frame sequence, not of wall-clock timing. Combined with
//! two structural rules — loss applies to `Data` frames only (`Done`
//! barrier markers and sync control frames always get through, as TCP's
//! retransmission would guarantee), and partitions are keyed on *round
//! numbers*, not wall-clock windows — a lossy run never times out at a
//! barrier, so its decisions replay exactly like a simulator run under the
//! equivalent `drop-link` faults (DESIGN.md §11). Latency, jitter and
//! bandwidth shaping delay frames but never reorder them (each directed
//! link has one reader, a single FIFO thread), so they perturb wall-clock
//! distributions — the thing T13 measures — without touching the decision
//! path as long as delays stay under the round timeout.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

use uba_sim::{derive, NodeId};
use uba_trace::{metric_name, NetEventKind, SharedRuntimeMetrics};

use crate::conn::LinkEvent;
use crate::wire::Frame;

/// The golden-ratio increment splitmix64 itself uses; decorrelates the
/// per-frame draw streams from the per-link seeds.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Impairment of one *directed* link (the two directions of a connection
/// are shaped independently, so asymmetric links are expressible).
///
/// The default is zero impairment: no latency, no jitter, no loss, no
/// bandwidth cap — a frame is delivered as soon as it decodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkSpec {
    /// Fixed one-way delay added to every frame.
    pub latency: Duration,
    /// Upper bound of the per-frame jitter, drawn uniformly (and
    /// deterministically) from `[0, jitter]` on top of `latency`.
    pub jitter: Duration,
    /// Probability of dropping a [`Frame::Data`], in parts per million
    /// (`20_000` = 2%). Only protocol messages are lossy; `Done` markers
    /// and sync control frames always get through — see the module docs
    /// for why that keeps lossy runs deterministic.
    pub loss_ppm: u32,
    /// Bandwidth cap in bytes per second: each frame occupies the link for
    /// `wire_bytes / bandwidth`, and frames queue behind each other
    /// (head-of-line, like a real pipe). `None` = uncapped.
    pub bandwidth: Option<u64>,
}

impl LinkSpec {
    /// Whether this spec impairs nothing.
    fn is_zero(&self) -> bool {
        *self == Self::default()
    }
}

/// One scheduled partition window: links crossing the cut (one endpoint in
/// `side`, the other outside it) are severed for `Data` and `Done` frames
/// whose round falls in `rounds`. Keying on round numbers instead of
/// wall-clock windows is what keeps the schedule deterministic; the heal
/// is the end of the range.
#[derive(Debug, Clone)]
struct Partition {
    /// Rounds (half-open) during which the cut is in force.
    rounds: Range<u64>,
    /// One side of the cut; every link to a node outside it is severed.
    side: BTreeSet<NodeId>,
}

impl Partition {
    /// Whether this window severs the directed link `from -> to` at
    /// `round`.
    fn severs(&self, from: NodeId, to: NodeId, round: u64) -> bool {
        self.rounds.contains(&round) && (self.side.contains(&from) != self.side.contains(&to))
    }
}

/// The full WAN emulation script: a per-link impairment matrix plus
/// scheduled partitions, seeded for deterministic draws.
///
/// `LinkPlan` is to the transport what `FaultPlan` is to the simulator: a
/// declarative, seed-deterministic fault script. The two compose — a
/// lossy `LinkPlan` *is* a family of per-message `drop-link` faults, and a
/// partition window is a round-scoped bidirectional link cut (DESIGN.md
/// §11 gives the exact correspondence).
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use uba_net::{LinkPlan, LinkSpec};
/// use uba_sim::NodeId;
///
/// let (a, b) = (NodeId::new(1), NodeId::new(2));
/// let slow = LinkSpec {
///     latency: Duration::from_millis(5),
///     ..LinkSpec::default()
/// };
/// let lossy = LinkSpec {
///     loss_ppm: 20_000,
///     ..LinkSpec::default()
/// };
/// let plan = LinkPlan::new(42)
///     .with_default(slow)
///     .with_link(a, b, lossy)
///     .with_partition(3..5, [a]);
/// assert!(plan.severed(a, b, 3) && !plan.severed(a, b, 5));
/// ```
#[derive(Debug, Clone)]
pub struct LinkPlan {
    seed: u64,
    default: LinkSpec,
    links: BTreeMap<(NodeId, NodeId), LinkSpec>,
    partitions: Vec<Partition>,
}

impl LinkPlan {
    /// A zero-impairment plan: every link delivers at full speed, nothing
    /// is dropped, nothing is partitioned. Invisible to the nodes (see the
    /// module docs).
    pub fn new(seed: u64) -> Self {
        LinkPlan {
            seed,
            default: LinkSpec::default(),
            links: BTreeMap::new(),
            partitions: Vec::new(),
        }
    }

    /// Sets the impairment applied to every link without an explicit
    /// override.
    pub fn with_default(mut self, spec: LinkSpec) -> Self {
        self.default = spec;
        self
    }

    /// Overrides the impairment of one directed link.
    pub fn with_link(mut self, from: NodeId, to: NodeId, spec: LinkSpec) -> Self {
        self.links.insert((from, to), spec);
        self
    }

    /// Schedules a partition: links between `side` and its complement are
    /// severed for rounds in `rounds` (half-open), then heal.
    pub fn with_partition(
        mut self,
        rounds: Range<u64>,
        side: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        self.partitions.push(Partition {
            rounds,
            side: side.into_iter().collect(),
        });
        self
    }

    /// The seed every loss/jitter draw derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The impairment of the directed link `from -> to`.
    pub fn spec(&self, from: NodeId, to: NodeId) -> LinkSpec {
        self.links.get(&(from, to)).copied().unwrap_or(self.default)
    }

    /// Whether a scheduled partition severs `from -> to` at `round`.
    pub fn severed(&self, from: NodeId, to: NodeId, round: u64) -> bool {
        self.partitions.iter().any(|p| p.severs(from, to, round))
    }

    /// Whether the plan impairs nothing at all — the byte-identity case.
    pub fn is_zero_impairment(&self) -> bool {
        self.default.is_zero()
            && self.links.values().all(LinkSpec::is_zero)
            && self.partitions.is_empty()
    }

    /// The deterministic draw stream seed of one directed link.
    fn link_seed(&self, from: NodeId, to: NodeId) -> u64 {
        derive(self.seed ^ from.raw().rotate_left(32) ^ to.raw(), 0)
    }
}

/// The shaping of one directed link `from -> to`, run by the reader of
/// the link's receiving end: deterministic draw counters, the bandwidth
/// queue, and the once-per-round trace dedup. It reports to the receiving
/// member: counters into its registry, events over its link-event channel.
pub(crate) struct Shaper {
    plan: Arc<LinkPlan>,
    /// The receiving member's registry, if it has one.
    metrics: Option<SharedRuntimeMetrics>,
    /// The receiving member's link-event channel.
    events: Sender<LinkEvent>,
    from: NodeId,
    to: NodeId,
    spec: LinkSpec,
    link_seed: u64,
    /// The `link` label of the metric families, `"from->to"`.
    label: String,
    /// `Data` frames seen on this link — the loss draw counter.
    data_index: u64,
    /// All shaped frames — the jitter draw counter.
    frame_index: u64,
    /// When the link's serialization queue drains (bandwidth cap).
    busy_until: Instant,
    /// Whether the previous round-carrying frame was severed (drives the
    /// one heal event per window).
    severing: bool,
    /// Round of the last emitted partition event, so a severed round
    /// traces once.
    traced_partition: Option<u64>,
}

impl Shaper {
    /// The shaper of `from -> to` under `plan`, reporting to the member
    /// `to` through its registry `metrics` and its channel `events`.
    pub(crate) fn new(
        plan: Arc<LinkPlan>,
        metrics: Option<SharedRuntimeMetrics>,
        events: Sender<LinkEvent>,
        from: NodeId,
        to: NodeId,
    ) -> Self {
        Shaper {
            spec: plan.spec(from, to),
            link_seed: plan.link_seed(from, to),
            plan,
            metrics,
            events,
            from,
            to,
            label: format!("{}->{}", from.raw(), to.raw()),
            data_index: 0,
            frame_index: 0,
            busy_until: Instant::now(),
            severing: false,
            traced_partition: None,
        }
    }

    /// Applies the plan to one frame, read off the wire as `wire_bytes`
    /// bytes: `None` if the frame is lost (loss draw or severed by a
    /// partition), else the instant it may be delivered.
    pub(crate) fn shape(&mut self, frame: &Frame, wire_bytes: u64) -> Option<Instant> {
        let round = frame_round(frame);
        let label = &self.label;

        // Scheduled partitions: sever round traffic crossing the cut.
        if let Some(r) = round {
            if self.plan.severed(self.from, self.to, r) {
                self.count("net_link_frames_severed_total");
                if self.traced_partition != Some(r) {
                    self.traced_partition = Some(r);
                    self.record(r, NetEventKind::LinkPartition, || {
                        format!("round {r} severed on {label}")
                    });
                }
                self.severing = true;
                return None;
            }
            if self.severing {
                self.severing = false;
                self.record(r, NetEventKind::LinkHeal, || {
                    format!("round {r} crossing {label} again")
                });
            }
        }

        // Seeded loss, Data frames only (see the module docs for why).
        if matches!(frame, Frame::Data { .. }) {
            let index = self.data_index;
            self.data_index += 1;
            if self.spec.loss_ppm > 0 && loss_draw(self.link_seed, index) < self.spec.loss_ppm {
                self.count("net_link_frames_dropped_total");
                let r = round.unwrap_or(0);
                self.record(r, NetEventKind::LinkDrop, || {
                    format!("data frame {index} of round {r} lost on {label}")
                });
                return None;
            }
        }

        // Delay: serialization under the bandwidth cap (frames queue behind
        // each other), then the fixed latency, then the jitter draw.
        let arrival = Instant::now();
        let start = self.busy_until.max(arrival);
        let tx = self.spec.bandwidth.map_or(Duration::ZERO, |bps| {
            Duration::from_nanos(wire_bytes.saturating_mul(1_000_000_000) / bps.max(1))
        });
        self.busy_until = start + tx;
        let jitter = jitter_draw(self.link_seed, self.frame_index, self.spec.jitter);
        self.frame_index += 1;
        let deliver_at = self.busy_until + self.spec.latency + jitter;

        self.count("net_link_frames_forwarded_total");
        if let Some(rt) = &self.metrics {
            let delay = deliver_at.saturating_duration_since(arrival).as_micros();
            rt.observe_micros(
                "net_link_delay_micros",
                u64::try_from(delay).unwrap_or(u64::MAX),
            );
        }
        if !self.spec.latency.is_zero() || !self.spec.jitter.is_zero() {
            self.count("net_link_frames_delayed_total");
        }
        if start > arrival {
            // The cap actually queued this frame behind an earlier one.
            self.count("net_link_frames_throttled_total");
        }
        Some(deliver_at)
    }

    /// Adds one to this link's series of a counter family, if a registry
    /// is attached.
    fn count(&self, family: &str) {
        if let Some(rt) = &self.metrics {
            rt.add(&metric_name(family, &[("link", &self.label)]), 1);
        }
    }

    /// Reports one `net_link_*` trace event of this link to the receiving
    /// member, which records it as its own (DESIGN.md §11).
    fn record(&self, round: u64, kind: NetEventKind, info: impl FnOnce() -> String) {
        let _ = self.events.send(LinkEvent::Shaped {
            from: self.from,
            round,
            kind,
            info: info(),
        });
    }
}

/// The round a frame belongs to, for partition scheduling and trace
/// attribution. Control-plane frames (sync/backfill) return `None` and are
/// never severed: a rejoin negotiation may legitimately span a partition
/// window, and severing it would model a different fault (a crash) than
/// the scheduled cut.
fn frame_round(frame: &Frame) -> Option<u64> {
    match frame {
        Frame::Data { round, .. } | Frame::Done { round, .. } => Some(*round),
        _ => None,
    }
}

/// The seeded loss draw for the `index`-th `Data` frame of a link, in
/// parts per million.
fn loss_draw(link_seed: u64, index: u64) -> u32 {
    (derive(link_seed ^ index.wrapping_mul(GOLDEN), 0) % 1_000_000) as u32
}

/// The seeded jitter draw for the `index`-th frame of a link: uniform in
/// `[0, jitter]`.
fn jitter_draw(link_seed: u64, index: u64, jitter: Duration) -> Duration {
    let nanos = jitter.as_nanos() as u64;
    if nanos == 0 {
        return Duration::ZERO;
    }
    let draw = derive(link_seed ^ GOLDEN ^ index.wrapping_mul(GOLDEN), 0);
    Duration::from_nanos(draw % (nanos + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_impairment_plan_reports_itself() {
        assert!(LinkPlan::new(7).is_zero_impairment());
        let lossy = LinkPlan::new(7).with_default(LinkSpec {
            loss_ppm: 1,
            ..LinkSpec::default()
        });
        assert!(!lossy.is_zero_impairment());
        let partitioned = LinkPlan::new(7).with_partition(2..3, [NodeId::new(1)]);
        assert!(!partitioned.is_zero_impairment());
    }

    #[test]
    fn partitions_sever_only_crossing_links_inside_the_window() {
        let (a, b, c) = (NodeId::new(1), NodeId::new(2), NodeId::new(3));
        let plan = LinkPlan::new(0).with_partition(3..5, [a]);
        for round in 3..5 {
            assert!(plan.severed(a, b, round) && plan.severed(b, a, round));
        }
        assert!(!plan.severed(b, c, 3), "same-side links stay up");
        assert!(!plan.severed(a, b, 2) && !plan.severed(a, b, 5));
    }

    #[test]
    fn loss_draws_are_deterministic_and_roughly_calibrated() {
        let plan = LinkPlan::new(42);
        let seed = plan.link_seed(NodeId::new(1), NodeId::new(2));
        let first: Vec<u32> = (0..64).map(|i| loss_draw(seed, i)).collect();
        let second: Vec<u32> = (0..64).map(|i| loss_draw(seed, i)).collect();
        assert_eq!(first, second, "pure function of (seed, index)");
        // A 10% threshold over 10_000 draws lands near 1_000 hits; the
        // draw is a fixed function, so this bound is exact, not flaky.
        let hits = (0..10_000)
            .filter(|&i| loss_draw(seed, i) < 100_000)
            .count();
        assert!((700..1_300).contains(&hits), "got {hits} hits");
        // Different links decorrelate.
        let other = plan.link_seed(NodeId::new(2), NodeId::new(1));
        assert_ne!(seed, other);
    }

    #[test]
    fn jitter_draw_is_bounded_and_deterministic() {
        let window = Duration::from_millis(10);
        for index in 0..128 {
            let a = jitter_draw(9, index, window);
            assert_eq!(a, jitter_draw(9, index, window));
            assert!(a <= window);
        }
        assert_eq!(jitter_draw(9, 0, Duration::ZERO), Duration::ZERO);
    }
}
