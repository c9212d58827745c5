//! Deterministic WAN fault proxy: per-link latency, jitter, loss,
//! bandwidth caps and scheduled partitions over real TCP.
//!
//! A [`FaultProxy`] fronts every cluster member with its own listener.
//! Nodes dial the *fronts* instead of each other; each accepted connection
//! is relayed to the real member through a pair of per-direction shaping
//! threads that sit **between the sockets and the framed codec**: they
//! decode one [`Frame`] at a time, apply the [`LinkPlan`]'s impairments,
//! and re-encode. Because the codec is strictly canonical (decode rejects
//! any non-canonical body, `Data` payloads are carried opaquely), the
//! relay of an unimpaired frame is byte-identical to direct TCP — a
//! [`LinkPlan`] with zero impairment is provably invisible, which is what
//! lets experiments T11/T12 run unchanged through the proxy.
//!
//! # Determinism
//!
//! Every random decision is a pure splitmix64 draw from
//! `(plan seed, directed link, frame counter)` — the same vocabulary as
//! the dial jitter and the simulator's `FaultPlan` sampling. Which `Data`
//! frames a lossy link drops is therefore a function of the seed and the
//! (deterministic) frame sequence, not of wall-clock timing. Combined with
//! two structural rules — loss applies to `Data` frames only (`Done`
//! barrier markers and sync control frames always get through, as TCP's
//! retransmission would guarantee), and partitions are keyed on *round
//! numbers*, not wall-clock windows — a lossy run never times out at a
//! barrier, so its decisions replay exactly like a simulator run under the
//! equivalent `drop-link` faults (DESIGN.md §11). Latency, jitter and
//! bandwidth shaping delay frames but never reorder them (each direction
//! is a single FIFO thread), so they perturb wall-clock distributions —
//! the thing T13 measures — without touching the decision path as long as
//! delays stay under the round timeout.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use uba_sim::NodeId;
use uba_trace::{metric_name, NetEventKind, SharedRuntimeMetrics, TraceEvent};

use crate::conn::{accept_loop, splitmix64, AcceptLoop};
use crate::wire::{read_sized_frame, write_frame, Frame};

/// The golden-ratio increment splitmix64 itself uses; decorrelates the
/// per-frame draw streams from the per-link seeds.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Impairment of one *directed* link (the two directions of a connection
/// are shaped independently, so asymmetric links are expressible).
///
/// The default is zero impairment: no latency, no jitter, no loss, no
/// bandwidth cap — a frame is relayed as soon as it decodes.
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
    /// Zero impairment (the default): relay at full speed.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Sets the fixed one-way latency.
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the jitter window.
    pub fn with_jitter(mut self, jitter: Duration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the `Data`-frame loss probability in parts per million.
    pub fn with_loss_ppm(mut self, ppm: u32) -> Self {
        self.loss_ppm = ppm;
        self
    }

    /// Sets the bandwidth cap in bytes per second.
    pub fn with_bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.bandwidth = Some(bytes_per_sec);
        self
    }

    /// Whether this spec impairs nothing.
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }
}

/// One scheduled partition window: links crossing the cut (one endpoint in
/// `side`, the other outside it) are severed for `Data` and `Done` frames
/// whose round falls in `rounds`. Keying on round numbers instead of
/// wall-clock windows is what keeps the schedule deterministic; the heal
/// is the end of the range.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Rounds (half-open) during which the cut is in force.
    pub rounds: Range<u64>,
    /// One side of the cut; every link to a node outside it is severed.
    pub side: BTreeSet<NodeId>,
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
/// let plan = LinkPlan::new(42)
///     .with_default(LinkSpec::zero().with_latency(Duration::from_millis(5)))
///     .with_link(a, b, LinkSpec::zero().with_loss_ppm(20_000))
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
    /// A zero-impairment plan: every link relays at full speed, nothing is
    /// dropped, nothing is partitioned. Provably byte-identical to direct
    /// TCP (see the module docs).
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

    /// The impairment of the directed link `from -> to` (an endpoint is
    /// `None` until the connection's `Hello` has identified it; such
    /// frames get the default spec).
    pub fn spec(&self, from: Option<NodeId>, to: Option<NodeId>) -> LinkSpec {
        match (from, to) {
            (Some(f), Some(t)) => self.links.get(&(f, t)).copied().unwrap_or(self.default),
            _ => self.default,
        }
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
    fn link_seed(&self, from: Option<NodeId>, to: Option<NodeId>) -> u64 {
        let f = from.map_or(u64::MAX, NodeId::raw);
        let t = to.map_or(u64::MAX, NodeId::raw);
        splitmix64(self.seed ^ f.rotate_left(32) ^ t)
    }
}

/// Canned WAN profiles for the `cluster` binary and experiment T13. The
/// exact numbers are documented in EXPERIMENTS.md (T13's profile tables);
/// they are sized so a smoke run finishes in seconds while still
/// exercising every impairment path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WanProfile {
    /// A three-region geo-distribution: members are assigned to regions
    /// round-robin (in id order); intra-region links are fast, inter-region
    /// links carry 10–25ms of latency plus proportional jitter. No loss —
    /// a geo run under a sufficient round timeout stays byte-identical to
    /// the simulator.
    Geo,
    /// A uniformly bad network: small latency and jitter, 2% `Data` loss,
    /// and a 256 KiB/s bandwidth cap per link.
    Lossy,
    /// A clean network with one scheduled cut: the first half of the
    /// members (in id order) is partitioned from the second half for
    /// rounds 3 and 4, then the cut heals.
    Partition,
}

impl WanProfile {
    /// Parses a profile name as the `cluster` binary's `--wan-profile`
    /// flag spells it.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "geo" => Some(WanProfile::Geo),
            "lossy" => Some(WanProfile::Lossy),
            "partition" => Some(WanProfile::Partition),
            _ => None,
        }
    }

    /// The flag spelling of this profile.
    pub fn name(self) -> &'static str {
        match self {
            WanProfile::Geo => "geo",
            WanProfile::Lossy => "lossy",
            WanProfile::Partition => "partition",
        }
    }

    /// Materializes the profile into a [`LinkPlan`] over `ids` (the region
    /// assignment and the partition cut follow the sorted id order).
    pub fn plan(self, seed: u64, ids: &[NodeId]) -> LinkPlan {
        let mut sorted: Vec<NodeId> = ids.to_vec();
        sorted.sort_unstable();
        match self {
            WanProfile::Geo => {
                // Latency between regions r0..r2, in milliseconds; the
                // diagonal is the intra-region delay.
                const LATENCY_MS: [[u64; 3]; 3] = [[2, 10, 25], [10, 2, 15], [25, 15, 2]];
                let region = |node: NodeId| sorted.iter().position(|&n| n == node).unwrap_or(0) % 3;
                let mut plan = LinkPlan::new(seed);
                for &from in &sorted {
                    for &to in &sorted {
                        if from == to {
                            continue;
                        }
                        let ms = LATENCY_MS[region(from)][region(to)];
                        let spec = LinkSpec::zero()
                            .with_latency(Duration::from_millis(ms))
                            .with_jitter(Duration::from_millis(ms / 5));
                        plan = plan.with_link(from, to, spec);
                    }
                }
                plan
            }
            WanProfile::Lossy => LinkPlan::new(seed).with_default(
                LinkSpec::zero()
                    .with_latency(Duration::from_millis(2))
                    .with_jitter(Duration::from_millis(1))
                    .with_loss_ppm(20_000)
                    .with_bandwidth(256 * 1024),
            ),
            WanProfile::Partition => {
                let side: Vec<NodeId> = sorted[..sorted.len() / 2].to_vec();
                LinkPlan::new(seed)
                    .with_default(LinkSpec::zero().with_latency(Duration::from_millis(2)))
                    .with_partition(3..5, side)
            }
        }
    }
}

/// Shared state of one proxy mesh: the plan, the optional runtime-metrics
/// registry, and the collected `net_link_*` trace events.
struct ProxyShared {
    plan: LinkPlan,
    metrics: Option<SharedRuntimeMetrics>,
    events: Mutex<Vec<TraceEvent>>,
}

/// A running WAN fault proxy mesh: one front listener per cluster member.
///
/// Build the real (inner) roster first, then [`spawn`](Self::spawn) the
/// proxy over it and hand [`roster`](Self::roster) — the front addresses —
/// to the nodes. Connections transit the front of whichever member was
/// dialed; the two directions of each connection are shaped independently
/// according to the plan's directed-link specs.
///
/// Dropping the proxy without [`shutdown`](Self::shutdown) leaves its
/// fronts accepting until the process exits (harmless for tests, same
/// contract as [`crate::MetricsServer`]).
pub struct FaultProxy {
    fronts: BTreeMap<NodeId, SocketAddr>,
    shared: Arc<ProxyShared>,
    acceptors: Vec<AcceptLoop>,
}

impl FaultProxy {
    /// Binds one front listener per member of `inner` (the real roster)
    /// and starts relaying according to `plan`. Per-link counters land in
    /// `metrics` (families `net_link_frames_{forwarded,delayed,dropped,`
    /// `severed,throttled}_total{link="a->b"}` plus the
    /// `net_link_delay_micros` histogram), if attached.
    ///
    /// # Errors
    ///
    /// Propagates listener bind failures.
    pub fn spawn(
        inner: &BTreeMap<NodeId, SocketAddr>,
        plan: LinkPlan,
        metrics: Option<SharedRuntimeMetrics>,
    ) -> io::Result<FaultProxy> {
        let shared = Arc::new(ProxyShared {
            plan,
            metrics,
            events: Mutex::new(Vec::new()),
        });
        let mut fronts = BTreeMap::new();
        let mut acceptors = Vec::new();
        for (&owner, &target) in inner {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            fronts.insert(owner, listener.local_addr()?);
            let shared = Arc::clone(&shared);
            acceptors.push(accept_loop(listener, move |client| {
                relay(client, owner, target, &shared);
            })?);
        }
        Ok(FaultProxy {
            fronts,
            shared,
            acceptors,
        })
    }

    /// The proxied roster: each member's *front* address. Hand this to the
    /// nodes in place of the real roster; everything else runs unmodified.
    pub fn roster(&self) -> &BTreeMap<NodeId, SocketAddr> {
        &self.fronts
    }

    /// Stops accepting, waits for the accept loops to end, and returns the
    /// `net_link_*` trace events collected (one direction's events are in
    /// order; the interleaving across links follows wall-clock observation
    /// order). Established relays drain on their own when their endpoints
    /// close.
    pub fn shutdown(self) -> Vec<TraceEvent> {
        for acceptor in self.acceptors {
            acceptor.stop();
        }
        std::mem::take(&mut *self.shared.events.lock().expect("proxy events lock"))
    }
}

/// One inbound connection on `owner`'s front: relay it to the member's
/// real address through a pair of shaping threads.
fn relay(client: TcpStream, owner: NodeId, target: SocketAddr, shared: &Arc<ProxyShared>) {
    if client.set_nodelay(true).is_err() {
        return;
    }
    let Ok(upstream) = TcpStream::connect(target) else {
        return; // member already gone; the dialer sees the close
    };
    if upstream.set_nodelay(true).is_err() {
        return;
    }
    // The dialer identifies itself in its first frame (`Hello`); both
    // directions share the discovery. The node behind this front never
    // sends protocol traffic before the handshake completes, and the
    // handshake completes only after the inbound `Hello` passed through
    // (and filled this cell) — so the outbound direction always knows the
    // dialer by the time attribution matters.
    let dialer: Arc<OnceLock<NodeId>> = Arc::new(OnceLock::new());
    let (Ok(client_r), Ok(upstream_r)) = (client.try_clone(), upstream.try_clone()) else {
        return;
    };
    {
        let (dialer, shared) = (Arc::clone(&dialer), Arc::clone(shared));
        thread::spawn(move || pump(client_r, upstream, owner, true, dialer, shared));
    }
    let shared = Arc::clone(shared);
    thread::spawn(move || pump(upstream_r, client, owner, false, dialer, shared));
}

/// What the shaper decided for one frame.
enum Verdict {
    /// Drop the frame (loss draw or severed by a partition).
    Drop,
    /// Forward the frame no earlier than the given instant.
    Forward(Instant),
}

/// Per-direction shaping state: deterministic draw counters, the
/// bandwidth queue, and the once-per-round trace dedup.
struct Shaper {
    /// `Data` frames seen on this direction — the loss draw counter.
    data_index: u64,
    /// All shaped frames — the jitter draw counter.
    frame_index: u64,
    /// When the link's serialization queue drains (bandwidth cap).
    busy_until: Instant,
    /// Whether the previous round-carrying frame was severed (drives the
    /// one heal event per window).
    severing: bool,
    /// Round of the last emitted delay / throttle / partition event, so
    /// per-frame impairments trace at most once per round.
    traced_delay: Option<u64>,
    traced_throttle: Option<u64>,
    traced_partition: Option<u64>,
}

impl Shaper {
    fn new() -> Self {
        Shaper {
            data_index: 0,
            frame_index: 0,
            busy_until: Instant::now(),
            severing: false,
            traced_delay: None,
            traced_throttle: None,
            traced_partition: None,
        }
    }
}

/// The round a frame belongs to, for partition scheduling and trace
/// attribution. Control-plane frames (`Hello`, sync/backfill) return
/// `None` and are never severed: a rejoin negotiation may legitimately
/// span a partition window, and severing it would model a different fault
/// (a crash) than the scheduled cut.
fn frame_round(frame: &Frame) -> Option<u64> {
    match frame {
        Frame::Data { round, .. } | Frame::Done { round, .. } => Some(*round),
        _ => None,
    }
}

/// One relay direction: read frames off `reader`, shape them, forward the
/// survivors over `writer` in order. EOF/error on either side propagates
/// as a half-close so the endpoints observe exactly what direct TCP would
/// show them.
fn pump(
    reader: TcpStream,
    mut writer: TcpStream,
    owner: NodeId,
    inbound: bool,
    dialer: Arc<OnceLock<NodeId>>,
    shared: Arc<ProxyShared>,
) {
    let mut reader = BufReader::new(reader);
    let mut shaper = Shaper::new();
    while let Ok(Some((frame, wire_bytes))) = read_sized_frame(&mut reader) {
        if let Frame::Hello { node } = frame {
            // The connection preamble: exempt from shaping (it models the
            // TCP handshake, which the impairments sit on top of).
            if inbound {
                let _ = dialer.set(node);
            }
            if write_frame(&mut writer, &frame).is_err() {
                break;
            }
            continue;
        }
        let peer = dialer.get().copied();
        let (from, to) = if inbound {
            (peer, Some(owner))
        } else {
            (Some(owner), peer)
        };
        match shape(&frame, wire_bytes as u64, from, to, &mut shaper, &shared) {
            Verdict::Drop => continue,
            Verdict::Forward(deliver_at) => {
                let now = Instant::now();
                if deliver_at > now {
                    thread::sleep(deliver_at - now);
                }
                if write_frame(&mut writer, &frame).is_err() {
                    break;
                }
            }
        }
    }
    let _ = writer.shutdown(Shutdown::Write);
}

/// Applies the plan to one frame of the directed link `from -> to`, read
/// off the wire as `wire_bytes` bytes.
fn shape(
    frame: &Frame,
    wire_bytes: u64,
    from: Option<NodeId>,
    to: Option<NodeId>,
    shaper: &mut Shaper,
    shared: &ProxyShared,
) -> Verdict {
    let plan = &shared.plan;
    let spec = plan.spec(from, to);
    let link_seed = plan.link_seed(from, to);
    let label = link_label(from, to);
    let round = frame_round(frame);

    // Scheduled partitions: sever round traffic crossing the cut.
    if let (Some(f), Some(t), Some(r)) = (from, to, round) {
        if plan.severed(f, t, r) {
            count(shared, "net_link_frames_severed_total", &label, 1);
            if shaper.traced_partition != Some(r) {
                shaper.traced_partition = Some(r);
                record(shared, r, NetEventKind::LinkPartition, from, to, || {
                    format!("round {r} severed on {label}")
                });
            }
            shaper.severing = true;
            return Verdict::Drop;
        }
        if shaper.severing {
            shaper.severing = false;
            record(shared, r, NetEventKind::LinkHeal, from, to, || {
                format!("round {r} crossing {label} again")
            });
        }
    }

    // Seeded loss, Data frames only (see the module docs for why).
    if matches!(frame, Frame::Data { .. }) {
        let index = shaper.data_index;
        shaper.data_index += 1;
        if spec.loss_ppm > 0 && loss_draw(link_seed, index) < spec.loss_ppm {
            count(shared, "net_link_frames_dropped_total", &label, 1);
            let r = round.unwrap_or(0);
            record(shared, r, NetEventKind::LinkDrop, from, to, || {
                format!("data frame {index} of round {r} lost on {label}")
            });
            return Verdict::Drop;
        }
    }

    // Delay: serialization under the bandwidth cap (frames queue behind
    // each other), then the fixed latency, then the jitter draw.
    let arrival = Instant::now();
    let start = shaper.busy_until.max(arrival);
    let tx = spec.bandwidth.map_or(Duration::ZERO, |bps| {
        Duration::from_nanos(wire_bytes.saturating_mul(1_000_000_000) / bps.max(1))
    });
    shaper.busy_until = start + tx;
    let jitter = jitter_draw(link_seed, shaper.frame_index, spec.jitter);
    shaper.frame_index += 1;
    let deliver_at = shaper.busy_until + spec.latency + jitter;

    count(shared, "net_link_frames_forwarded_total", &label, 1);
    let delay = deliver_at.saturating_duration_since(arrival);
    if let Some(rt) = &shared.metrics {
        rt.observe_micros(
            "net_link_delay_micros",
            u64::try_from(delay.as_micros()).unwrap_or(u64::MAX),
        );
    }
    if !spec.latency.is_zero() || !spec.jitter.is_zero() {
        count(shared, "net_link_frames_delayed_total", &label, 1);
        if round.is_some() && shaper.traced_delay != round {
            shaper.traced_delay = round;
            let r = round.unwrap_or(0);
            record(shared, r, NetEventKind::LinkDelay, from, to, || {
                format!(
                    "round {r} delayed {}us on {label}",
                    u64::try_from(delay.as_micros()).unwrap_or(u64::MAX)
                )
            });
        }
    }
    if start > arrival {
        // The cap actually queued this frame behind an earlier one.
        count(shared, "net_link_frames_throttled_total", &label, 1);
        if round.is_some() && shaper.traced_throttle != round {
            shaper.traced_throttle = round;
            let r = round.unwrap_or(0);
            record(shared, r, NetEventKind::LinkThrottle, from, to, || {
                format!("round {r} queued behind the bandwidth cap on {label}")
            });
        }
    }
    Verdict::Forward(deliver_at)
}

/// The `link` label of a directed link, for metric families.
fn link_label(from: Option<NodeId>, to: Option<NodeId>) -> String {
    let fmt = |n: Option<NodeId>| n.map_or_else(|| "?".to_string(), |n| n.raw().to_string());
    format!("{}->{}", fmt(from), fmt(to))
}

/// Adds to a per-link counter family, if a registry is attached.
fn count(shared: &ProxyShared, family: &str, label: &str, n: u64) {
    if let Some(rt) = &shared.metrics {
        rt.add(&metric_name(family, &[("link", label)]), n);
    }
}

/// Records one `net_link_*` trace event. Only called for attributable
/// links (both endpoints known) or drops where attribution is partial; an
/// unknown endpoint is reported as node 0 with the label in `info`.
fn record(
    shared: &ProxyShared,
    round: u64,
    kind: NetEventKind,
    from: Option<NodeId>,
    to: Option<NodeId>,
    info: impl FnOnce() -> String,
) {
    let event = TraceEvent::Net {
        round,
        kind,
        node: from.map_or(0, NodeId::raw),
        peer: to.map(NodeId::raw),
        info: info(),
    };
    shared.events.lock().expect("proxy events lock").push(event);
}

/// The seeded loss draw for the `index`-th `Data` frame of a link, in
/// parts per million.
fn loss_draw(link_seed: u64, index: u64) -> u32 {
    (splitmix64(link_seed ^ index.wrapping_mul(GOLDEN)) % 1_000_000) as u32
}

/// The seeded jitter draw for the `index`-th frame of a link: uniform in
/// `[0, jitter]`.
fn jitter_draw(link_seed: u64, index: u64, jitter: Duration) -> Duration {
    let nanos = jitter.as_nanos() as u64;
    if nanos == 0 {
        return Duration::ZERO;
    }
    let draw = splitmix64(link_seed ^ GOLDEN ^ index.wrapping_mul(GOLDEN));
    Duration::from_nanos(draw % (nanos + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u64) -> Vec<NodeId> {
        (1..=n).map(NodeId::new).collect()
    }

    #[test]
    fn zero_impairment_plan_reports_itself() {
        assert!(LinkPlan::new(7).is_zero_impairment());
        let lossy = LinkPlan::new(7).with_default(LinkSpec::zero().with_loss_ppm(1));
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
        let seed = plan.link_seed(Some(NodeId::new(1)), Some(NodeId::new(2)));
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
        let other = plan.link_seed(Some(NodeId::new(2)), Some(NodeId::new(1)));
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

    #[test]
    fn wan_profiles_parse_and_materialize() {
        for profile in [WanProfile::Geo, WanProfile::Lossy, WanProfile::Partition] {
            assert_eq!(WanProfile::parse(profile.name()), Some(profile));
        }
        assert_eq!(WanProfile::parse("dialup"), None);

        let ids = ids(4);
        let geo = WanProfile::Geo.plan(1, &ids);
        // Nodes 1 and 4 share region 0 (round-robin of 4 over 3 regions);
        // 1 -> 2 crosses regions 0 -> 1.
        assert_eq!(
            geo.spec(Some(ids[0]), Some(ids[3])).latency,
            Duration::from_millis(2)
        );
        assert_eq!(
            geo.spec(Some(ids[0]), Some(ids[1])).latency,
            Duration::from_millis(10)
        );
        assert!(!geo.is_zero_impairment());

        let lossy = WanProfile::Lossy.plan(1, &ids);
        assert_eq!(lossy.spec(Some(ids[0]), Some(ids[1])).loss_ppm, 20_000);

        let partition = WanProfile::Partition.plan(1, &ids);
        assert!(partition.severed(ids[0], ids[2], 3));
        assert!(!partition.severed(ids[0], ids[1], 3), "same side");
        assert!(!partition.severed(ids[0], ids[2], 5), "healed");
    }
}
