//! Connection management: dialing with retry/backoff, the `Hello`
//! handshake, the crate's one way of serving a connection and its one
//! accept loop, per-link readers (which also apply a WAN
//! [`LinkPlan`](crate::LinkPlan) to their inbound link — [`crate::wan`]),
//! the shared writer table, and the `Mesh` that owns a node's sockets.
//!
//! Topology is a full mesh with a deterministic dialing convention: each
//! node **dials** every peer with a *larger* id and **accepts** from every
//! peer with a *smaller* id, so each unordered pair gets exactly one
//! connection and no tie-breaking is needed.
//!
//! Each established connection gets a **generation number**. A reader that
//! ends removes its link from the table only if the link still serves its
//! generation, so a connection that was already replaced by a reconnect
//! cannot tear down the fresh link.
//!
//! # Serving a connection
//!
//! Every connection the crate holds — a mesh link either way, a log
//! client, a metrics scrape — is a job of a [`Connections`] set: `serve`
//! keeps the socket under a ticket while a thread of its own (`run_job`)
//! runs the job, and drops it when the job ends, so a connection holds its
//! descriptor exactly as long as it is served. A listener — a node's mesh
//! listener, the log service's client port, the metrics endpoint — feeds
//! its set from one accept loop, which serves each accepted stream as a job
//! and so never waits on a peer. The loop is stopped by a flag and a
//! throwaway connection to the listener's own address that wakes the
//! blocked `accept`; it re-checks the flag after every wake, before
//! touching the stream, so the wake connection (or a real one racing it) is
//! never served once stop began. A [`Server`] is a listener with its set.
//!
//! # Teardown
//!
//! A `Mesh` gives everything back when it is dropped, on every exit path
//! of the code that owns it (return, `?`, panic unwind); a [`Server`] on
//! `shutdown`. Both run the set's teardown; the mesh first takes its links
//! out of the table (which then refuses new ones), so that the node thread
//! that filled the round buffers frees them, not the readers step 2 wakes
//! (freed there, they cost net-clean-n16 4.9 % peak RSS on 2 cores).
//!
//! 1. **stop the accept loop** and wait for it — no new job can appear;
//! 2. **shut every socket of the set down** (both directions), those still
//!    in their handshake included — peers read EOF, and the jobs parked on
//!    the sockets wake up;
//! 3. (mesh) **drop the links**: a reader holding a frame for a shaping
//!    delay waits on its link's wake channel, not on a timer, and dropping
//!    the link wakes it at once;
//! 4. **wait for the jobs to end**.
//!
//! Step 4 cannot hang because every socket a job may be parked on is in
//! the set (shut down in step 2), and every link is dropped by then — in
//! step 3, or earlier when it left the table (replaced by a reconnect,
//! failed write, eviction), and a handshake that ends during the teardown
//! installs none. A node must only drop its mesh after its last frame is
//! *flushed*: [`Links`] buffers what it is given, and teardown shuts the
//! sockets down without flushing (a killed node says no goodbye). What was
//! flushed before the drop reaches the peer ahead of the EOF.
//!
//! Descriptors go back to the OS. A mesh's threads go back to a
//! process-wide pool and serve the next mesh's connections: an n-node mesh
//! is n² short-lived blocking threads, and creating and exiting them costs
//! more than everything else in setting a mesh up and tearing it down
//! (DESIGN.md §8 has the n=16 numbers) — so a process keeps as many parked
//! threads as its busiest mesh moment needed. A [`Server`]'s threads end
//! with their jobs instead: its listener is open to anyone, and a pool
//! that never shrinks would let an outside client pin as many threads as
//! it once held connections open, for the life of the process.
//!
//! # Writing
//!
//! A link writes through a round buffer, and the flush belongs to the
//! *round*, not to the frame: a node queues the round's `Data` frames and
//! then its `Done` on each link (`Links::queue`) and hands every link's
//! bytes to its socket in one `write_all` (`Links::flush`) — n − 1 writes
//! per round however many frames, and however many bytes, the round
//! carried. The buffer starts empty and grows with the round; after a
//! flush it keeps at most 64 KiB of capacity (`RETAINED_ROUND_BYTES`), so
//! an idle link holds at most that much whatever its largest round was.
//! There are three flush points: after the round's `Done` is queued, at
//! the end of a `SyncTips` / `Backfill` reply, and in `Links::send_raw`,
//! whose raw bytes go out behind what the link had queued.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use uba_sim::{derive, NodeId};
use uba_trace::{NetEventKind, SharedRuntimeMetrics};

use crate::wan::{LinkPlan, Shaper};
use crate::wire::{encode_frame, read_frame, read_sized_frame, write_frame, Frame, FrameFault};

/// Delay before the second dial attempt; it doubles after each failure.
const INITIAL_BACKOFF: Duration = Duration::from_millis(10);

/// Ceiling of the per-attempt delay before jitter (the slept delay is at
/// most 1.5× this).
const MAX_BACKOFF: Duration = Duration::from_millis(500);

/// The delay actually slept for an attempt: the exponential `backoff` plus
/// a deterministic jitter in `[0, backoff/2]` drawn from `(seed, attempt)`
/// by [`derive`], the splitmix64 step the WAN links' loss and jitter draws
/// in [`crate::wan`] use too: every randomized decision of the crate is a
/// pure function of a seed and a counter.
fn jittered(backoff: Duration, seed: u64, attempt: u32) -> Duration {
    let nanos = backoff.as_nanos() as u64;
    if nanos == 0 {
        return backoff;
    }
    let draw = derive(
        seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        0,
    );
    backoff + Duration::from_nanos(draw % (nanos / 2 + 1))
}

/// Dials `addr` until it accepts or `deadline` passes. After each failed
/// attempt `pause(attempt, delay)` waits out the backoff before the next
/// one, or returns `false` to give up. The backoff doubles from
/// [`INITIAL_BACKOFF`] to [`MAX_BACKOFF`], plus a jitter drawn from
/// `jitter_seed`: dialers seed it from the (dialer, peer) pair, so that
/// many nodes restarting at once — the crash-recovery rejoin scenario —
/// spread their reconnect attempts instead of thundering-herding the
/// listener in lockstep. A delay that would run past `deadline` is cut to
/// end there, and the last attempt is made at the deadline.
///
/// # Errors
///
/// The last connection error once the deadline has passed or `pause` gave
/// up; the first attempt is made whenever the deadline is.
fn connect_with_retry(
    addr: SocketAddr,
    deadline: Instant,
    jitter_seed: u64,
    mut pause: impl FnMut(u32, Duration) -> bool,
) -> io::Result<TcpStream> {
    let mut backoff = INITIAL_BACKOFF;
    let mut attempt: u32 = 0;
    loop {
        let err = match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(err) => err,
        };
        let left = deadline.saturating_duration_since(Instant::now());
        attempt += 1;
        if left.is_zero() || !pause(attempt, jittered(backoff, jitter_seed, attempt).min(left)) {
            return Err(err);
        }
        backoff = (backoff * 2).min(MAX_BACKOFF);
    }
}

/// Events a connection's reader thread reports to the node's main loop.
#[derive(Debug)]
pub(crate) enum LinkEvent {
    /// A decoded frame from an established, handshaken connection.
    Frame {
        /// The peer the connection is pinned to (from its `Hello`).
        from: NodeId,
        /// The frame.
        frame: Frame,
        /// Bytes the frame occupied on the wire, length prefix included.
        wire_bytes: usize,
    },
    /// A fresh connection to `peer` completed its handshake.
    Connected {
        /// The peer.
        peer: NodeId,
    },
    /// A connection to `peer` ended (clean EOF or error). Its reader has
    /// already removed its own link from the [`Links`] table, and only its
    /// own: a reconnect may have replaced it.
    Closed {
        /// The peer.
        peer: NodeId,
    },
    /// The connection's reader hit a frame no honest peer can produce — an
    /// oversized length prefix or an undecodable body. TCP checksums make
    /// accidental corruption on a live stream vanishingly unlikely, so this
    /// is attributable misbehavior, reported *before* the trailing
    /// [`Closed`](Self::Closed) of the same connection.
    Corrupt {
        /// The peer the connection is pinned to.
        peer: NodeId,
        /// Which bound the bytes violated, as the decoder raised it.
        kind: FrameFault,
        /// The decoder's error message, for the trace.
        info: String,
    },
    /// The shaper of `from -> me` dropped, severed or healed the link: an
    /// event of the member's own trace, stamped with the frame's round.
    Shaped {
        /// The sending end of the shaped link.
        from: NodeId,
        /// The round of the frame the event is about.
        round: u64,
        /// `LinkDrop`, `LinkPartition` or `LinkHeal`.
        kind: NetEventKind,
        /// The trace text.
        info: String,
    },
}

/// The capacity a link's round buffer keeps across a flush. A round that
/// carried more grows the buffer for as long as it lasts and gives the
/// excess back at its flush, so an idle link holds at most this much.
const RETAINED_ROUND_BYTES: usize = 64 * 1024;

/// A link's outbound half: the socket, and the bytes queued on it for the
/// round ([module docs](self), "Writing"). The buffer starts empty and
/// grows to whatever the round carries, so the flush is one `write_all`
/// at any size.
pub(crate) struct RoundBuffer<W: Write> {
    socket: W,
    queued: Vec<u8>,
}

impl<W: Write> RoundBuffer<W> {
    pub(crate) fn new(socket: W) -> Self {
        RoundBuffer {
            socket,
            queued: Vec::new(),
        }
    }

    pub(crate) fn socket(&self) -> &W {
        &self.socket
    }

    /// Appends `bytes` to the round; nothing reaches the socket.
    pub(crate) fn queue(&mut self, bytes: &[u8]) {
        self.queued.extend_from_slice(bytes);
    }

    /// Hands the queued round to the socket in one `write_all` (none if
    /// nothing is queued) and shrinks the buffer back to
    /// [`RETAINED_ROUND_BYTES`]. The round is gone afterwards even if the
    /// write failed: the caller drops a link whose write failed.
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        let written = self.socket.write_all(&self.queued);
        self.queued.clear();
        self.queued.shrink_to(RETAINED_ROUND_BYTES);
        written
    }
}

struct Link {
    writer: RoundBuffer<TcpStream>,
    generation: u64,
    /// Held, never sent on: dropping the link disconnects the channel,
    /// which wakes its reader out of a shaping delay. `None` unshaped.
    _wake: Option<Sender<()>>,
}

impl Link {
    /// Shuts the socket down in both directions. `TcpStream::shutdown` acts
    /// on the underlying socket, so it also unblocks the reader parked on
    /// the same connection, and the peer observes EOF exactly as it would
    /// for a killed OS process.
    fn shutdown(&self) {
        let _ = self.writer.socket().shutdown(Shutdown::Both);
    }
}

#[derive(Default)]
struct Table {
    links: HashMap<NodeId, Link>,
    next_generation: u64,
    /// Set by [`Links::close`]: a handshake ending in the teardown installs
    /// no link.
    closed: bool,
}

impl Table {
    /// Installs (or replaces) the writer for `peer`, the link holding its
    /// reader's `wake`, and returns the new link's generation. A replaced
    /// link is shut down.
    fn insert(&mut self, peer: NodeId, stream: TcpStream, wake: Option<Sender<()>>) -> u64 {
        self.next_generation += 1;
        let link = Link {
            writer: RoundBuffer::new(stream),
            generation: self.next_generation,
            _wake: wake,
        };
        if let Some(replaced) = self.links.insert(peer, link) {
            replaced.shutdown();
        }
        self.next_generation
    }

    /// Runs `op` on `peer`'s writer. `false` if there is no live link or
    /// `op` failed; a failed link is shut down and dropped (its reader
    /// reports the close).
    fn write(
        &mut self,
        peer: NodeId,
        op: impl FnOnce(&mut RoundBuffer<TcpStream>) -> io::Result<()>,
    ) -> bool {
        let Some(link) = self.links.get_mut(&peer) else {
            return false;
        };
        if op(&mut link.writer).is_ok() {
            return true;
        }
        link.shutdown();
        self.links.remove(&peer);
        false
    }
}

/// The shared table of outbound halves of the mesh, one round buffer per
/// peer ([module docs](self), "Writing").
///
/// Write and flush failures mark the link dead (the reader on the same
/// socket reports `Closed` with the cause); the round loop then decides
/// between waiting for a reconnect and declaring the peer gone. A link that
/// leaves the table other than by its own reader ending or the teardown
/// (which shuts it down before the drop) is shut down on the way out.
#[derive(Clone, Default)]
pub(crate) struct Links {
    table: Arc<Mutex<Table>>,
}

impl Links {
    /// Every update leaves the table valid, so a lock poisoned by a
    /// panicking holder is still good — and `close` runs in `Drop`, which
    /// must not panic.
    fn table(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drops the writer for `peer` if (and only if) it still serves
    /// `generation`.
    fn remove(&self, peer: NodeId, generation: u64) {
        let mut table = self.table();
        if table
            .links
            .get(&peer)
            .is_some_and(|l| l.generation == generation)
        {
            table.links.remove(&peer);
        }
    }

    /// Queues `frame` on the link of every peer in `peers`: encoded once,
    /// its bytes appended to each link's round buffer under one table lock.
    /// Nothing reaches a socket before [`flush`](Self::flush). Every
    /// addressed link is dropped, as on a failed write, if the frame
    /// exceeds `MAX_FRAME`. Returns the frame's wire size (0 if refused).
    pub(crate) fn queue(&self, peers: impl IntoIterator<Item = NodeId>, frame: &Frame) -> usize {
        let encoded = encode_frame(frame);
        let mut table = self.table();
        for peer in peers {
            table.write(peer, |writer| {
                writer.queue(encoded.as_ref().map_err(|refused| refused.kind())?);
                Ok(())
            });
        }
        encoded.map_or(0, |bytes| bytes.len())
    }

    /// Hands every link's queued round to its socket: one `write_all` per
    /// link with anything queued, however large the round. A link whose
    /// flush fails is shut down and dropped (the reader on the same socket
    /// reports the close).
    pub(crate) fn flush(&self) {
        self.table().links.retain(|_, link| {
            let flushed = link.writer.flush().is_ok();
            if !flushed {
                link.shutdown();
            }
            flushed
        });
    }

    /// Writes `bytes` to `peer`'s socket as they are, bypassing the frame
    /// codec and its bounds — how a hostile member
    /// ([`crate::byzantine`]) poisons a stream. They go out behind the
    /// link's queued frames, in the same write, so they land exactly
    /// between two frames. `false` if no live link took them.
    pub(crate) fn send_raw(&self, peer: NodeId, bytes: &[u8]) -> bool {
        self.table().write(peer, |writer| {
            writer.queue(bytes);
            writer.flush()
        })
    }

    /// Takes every link out of the table, for the caller to drop, and
    /// refuses new ones ([module docs](self), "Teardown").
    fn close(&self) -> HashMap<NodeId, Link> {
        let mut table = self.table();
        table.closed = true;
        std::mem::take(&mut table.links)
    }

    /// Shuts down `peer`'s connection (any generation) and drops its
    /// writer: the eviction path for a misbehaving peer, who observes a
    /// hard close immediately.
    pub(crate) fn shutdown_peer(&self, peer: NodeId) {
        if let Some(link) = self.table().links.remove(&peer) {
            link.shutdown();
        }
    }

    /// The peers with a live link, in no particular order.
    pub(crate) fn connected(&self) -> Vec<NodeId> {
        self.table().links.keys().copied().collect()
    }
}

/// Performs the symmetric handshake on a fresh connection, dialed and
/// accepted alike: writes our `Hello`, reads the peer's within `timeout`
/// (the node's `setup_timeout`: a peer that cannot say `Hello` within the
/// time a dialer would itself keep retrying is not a peer, and holds
/// neither a pooled thread nor a dialing node longer), and returns the
/// peer's announced id.
///
/// # Errors
///
/// I/O errors (a peer silent past the timeout among them), a non-`Hello`
/// first frame, or a clean close before the peer's `Hello` (reported as
/// [`io::ErrorKind::InvalidData`] / [`io::ErrorKind::UnexpectedEof`]).
fn handshake(mut stream: &TcpStream, me: NodeId, timeout: Duration) -> io::Result<NodeId> {
    // Frames are small and latency-critical: round progress waits on
    // `Done` markers, so Nagle batching would put a ~40ms floor under
    // every barrier.
    stream.set_nodelay(true)?;
    // A socket refuses a zero read timeout; a zero budget waits the least
    // it takes.
    stream.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
    write_frame(&mut stream, &Frame::Hello { node: me })?;
    match read_frame(&mut stream)? {
        Some(Frame::Hello { node }) => stream.set_read_timeout(None).map(|()| node),
        Some(_) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "expected Hello as the first frame",
        )),
        None => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "peer closed before Hello",
        )),
    }
}

/// A link's inbound shaper and the wake channel its reader holds frames on.
/// Boxed, so that shaping does not grow the reader's stack frame: the n²
/// pooled readers of a mesh each pay for the stack pages they touch, shaped
/// or not (net-clean-n16's peak RSS rose 5.7 % with the state inline).
type Shaping = Box<(Shaper, Receiver<()>)>;

/// Splits `shaper` into the wake sender its link holds and the reader's
/// [`Shaping`].
fn shaping(shaper: Option<Shaper>) -> (Option<Sender<()>>, Option<Shaping>) {
    shaper
        .map(|shaper| {
            let (wake, woken) = mpsc::channel();
            (wake, Box::new((shaper, woken)))
        })
        .unzip()
}

/// What a mesh's connection jobs share: the node, its writer table, the
/// channel the readers report into, the WAN plan they apply and the
/// node's registry their shapers count into.
#[derive(Clone)]
struct Wiring {
    me: NodeId,
    /// The bound on every handshake of the mesh, dialed or accepted.
    handshake_timeout: Duration,
    links: Links,
    events: Sender<LinkEvent>,
    wan: Option<Arc<LinkPlan>>,
    metrics: Option<SharedRuntimeMetrics>,
}

impl Wiring {
    /// Makes the handshaken `stream` the link to `peer`: installs a writer
    /// on a clone of it (replacing an older link), reports
    /// [`LinkEvent::Connected`], and returns the link's generation and its
    /// reader's shaping. Fails if the clone does, and once the mesh is
    /// being torn down.
    fn install(&self, peer: NodeId, stream: &TcpStream) -> io::Result<(u64, Option<Shaping>)> {
        let writer = stream.try_clone()?;
        let shaper = self.wan.as_ref().map(|plan| {
            let (metrics, events) = (self.metrics.clone(), self.events.clone());
            Shaper::new(Arc::clone(plan), metrics, events, peer, self.me)
        });
        let (wake, shaping) = shaping(shaper);
        let generation = {
            let mut table = self.links.table();
            if table.closed {
                return Err(io::ErrorKind::NotConnected.into());
            }
            table.insert(peer, writer, wake)
        };
        let _ = self.events.send(LinkEvent::Connected { peer });
        Ok((generation, shaping))
    }

    /// The reader of an established connection: decodes frames into
    /// [`LinkEvent::Frame`]s until EOF or error, then reports
    /// [`LinkEvent::Closed`] and removes the link (generation-guarded).
    ///
    /// With `shaping`, each frame first passes the inbound link's shaper: a
    /// lost frame is skipped, a delayed one is held until its delivery
    /// instant — on the wake channel, so that the link leaving the table
    /// ends the wait, and the reader with it.
    fn read_link(
        &self,
        stream: &TcpStream,
        peer: NodeId,
        generation: u64,
        mut shaping: Option<Shaping>,
    ) {
        let mut reader = BufReader::new(stream);
        loop {
            match read_sized_frame(&mut reader) {
                Ok(Some((frame, wire_bytes))) => {
                    if let Some((shaper, wake)) = shaping.as_deref_mut() {
                        let Some(deliver_at) = shaper.shape(&frame, wire_bytes as u64) else {
                            continue; // lost or severed
                        };
                        let hold = deliver_at.saturating_duration_since(Instant::now());
                        if !hold.is_zero()
                            && wake.recv_timeout(hold) != Err(RecvTimeoutError::Timeout)
                        {
                            break; // the link is gone
                        }
                    }
                    let event = LinkEvent::Frame {
                        from: peer,
                        frame,
                        wire_bytes,
                    };
                    if self.events.send(event).is_err() {
                        break; // node loop is gone; stop pumping
                    }
                }
                Ok(None) => break, // clean EOF
                Err(err) => {
                    // The codec refusing bytes no honest peer can send:
                    // attribute it before closing.
                    if let Some(kind) = FrameFault::of(&err) {
                        let _ = self.events.send(LinkEvent::Corrupt {
                            peer,
                            kind,
                            info: err.to_string(),
                        });
                    }
                    break;
                }
            }
        }
        self.closed(peer, generation);
    }

    /// Ends `peer`'s link of `generation`: out of the table, unless a
    /// reconnect replaced it, and [`LinkEvent::Closed`] reported.
    fn closed(&self, peer: NodeId, generation: u64) {
        self.links.remove(peer, generation);
        let _ = self.events.send(LinkEvent::Closed { peer });
    }
}

/// A job of [`run_job`]; it hands back the sender whose drop marks it ended.
type Job = Box<dyn FnOnce() -> Sender<()> + Send>;

/// The parked threads of the process-wide pool, each waiting on its inbox.
static IDLE: Mutex<Vec<Sender<Job>>> = Mutex::new(Vec::new());

/// A job running on a thread of [`run_job`].
#[derive(Debug)]
pub(crate) struct Task {
    /// Disconnects once the job has ended, dropped everything it owned, and
    /// its thread is parked again or ending (or died of the job's panic).
    done: Receiver<()>,
}

impl Task {
    fn wait(self) {
        let _ = self.done.recv();
    }

    fn is_finished(&self) -> bool {
        matches!(self.done.try_recv(), Err(mpsc::TryRecvError::Disconnected))
    }
}

/// Runs `job` on a new thread that ends with it or, `pooled`, on a parked
/// thread of the pool (a new one if none is parked) that parks again when
/// the job ends ([module docs](self)). A panicking job takes only its own
/// thread down. Fails, dropping the job unrun, if no thread can start.
fn run_job(job: impl FnOnce() + Send + 'static, pooled: bool) -> io::Result<Task> {
    // Pushes and pops leave the list valid, so a poisoned lock is still good.
    let idle = || IDLE.lock().unwrap_or_else(PoisonError::into_inner);
    let (ended, done) = mpsc::channel();
    let job: Job = Box::new(move || {
        job();
        ended
    });
    let parked = if pooled { idle().pop() } else { None };
    match parked {
        // A parked thread is blocked on its inbox; it cannot have gone away.
        Some(parked) => parked.send(job).expect("parked pool thread is alive"),
        // Detached on purpose: a pool thread lives as long as the process,
        // any other as long as its job.
        None => drop(thread::Builder::new().spawn(move || {
            let (inbox, jobs) = mpsc::channel();
            let mut job = job;
            loop {
                let ended = job();
                if !pooled {
                    return;
                }
                idle().push(inbox.clone());
                drop(ended);
                let Ok(next) = jobs.recv() else { return };
                job = next;
            }
        })?),
    }
    Ok(Task { done })
}

/// A set of served connections, each one a job on a thread of its own
/// whose socket the set keeps until the job ends, and the accept loop
/// feeding the set, if it has one ([module docs](self)).
#[derive(Clone, Debug, Default)]
pub(crate) struct Connections {
    set: Arc<Mutex<Served>>,
    /// Whether the jobs run on the pool (a mesh's), not on threads that
    /// end with them (a [`Server`]'s).
    pooled: bool,
}

#[derive(Debug, Default)]
struct Served {
    next_ticket: u64,
    /// The socket of every running job, under its ticket.
    sockets: HashMap<u64, Arc<TcpStream>>,
    jobs: Vec<Task>,
    /// The accept loop's address, stop flag and task.
    acceptor: Option<(SocketAddr, Arc<AtomicBool>, Task)>,
}

/// How long an accept loop sleeps after a failed `accept` (descriptor
/// exhaustion is the realistic cause) before trying again, so a transient
/// failure neither kills the listener nor spins a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

impl Connections {
    /// Every update leaves the set valid, so a lock poisoned by a panicking
    /// holder is still good — and the mesh tears its set down in `Drop`.
    fn set(&self) -> MutexGuard<'_, Served> {
        self.set.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `job` on `stream` on a thread of its own, or closes `stream`
    /// if no thread can start. The set keeps the socket until the job
    /// ends, so that the teardown can wake the job; ended jobs are pruned
    /// here, so a long-lived listener's set holds only its live connections.
    fn serve(
        &self,
        stream: TcpStream,
        job: impl FnOnce(&TcpStream) + Send + 'static,
    ) -> io::Result<()> {
        let stream = Arc::new(stream);
        let mut set = self.set();
        set.next_ticket += 1;
        let ticket = set.next_ticket;
        set.sockets.insert(ticket, Arc::clone(&stream));
        let connections = self.clone();
        let job = move || {
            job(&stream);
            connections.set().sockets.remove(&ticket);
        };
        let task = run_job(job, self.pooled).inspect_err(|_| drop(set.sockets.remove(&ticket)))?;
        set.jobs.retain(|job| !job.is_finished());
        set.jobs.push(task);
        Ok(())
    }

    /// Serves every connection `listener` accepts as a job that runs
    /// `handler` on it, from one thread of its own, until the teardown (a
    /// connection no thread can start for is closed); returns the
    /// listener's address, or the failure to look it up or start the loop.
    fn accept(
        &self,
        listener: TcpListener,
        handler: impl Fn(&TcpStream) + Send + Sync + 'static,
    ) -> io::Result<SocketAddr> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (stopping, connections, handler) = (Arc::clone(&stop), self.clone(), Arc::new(handler));
        let accepting = move || {
            for stream in listener.incoming() {
                if stopping.load(Ordering::SeqCst) {
                    break;
                }
                let handler = Arc::clone(&handler);
                let served = stream
                    .and_then(|stream| connections.serve(stream, move |stream| handler(stream)));
                if served.is_err() {
                    thread::sleep(ACCEPT_BACKOFF);
                }
            }
        };
        let running = run_job(accepting, self.pooled)?;
        self.set().acceptor = Some((addr, stop, running));
        Ok(addr)
    }

    /// Steps 1 and 2 of the teardown ([module docs](self)); returns the
    /// jobs to wait for. Without a wake connection the loop is left to end
    /// at its next wake instead of blocking the caller forever.
    fn shut_down(&self) -> Vec<Task> {
        // Outside the lock: the loop takes it to serve what it accepted.
        let acceptor = self.set().acceptor.take();
        if let Some((addr, stop, running)) = acceptor {
            stop.store(true, Ordering::SeqCst);
            if TcpStream::connect(addr).is_ok() {
                running.wait();
            }
        }
        let (sockets, jobs) = {
            let mut set = self.set();
            (
                std::mem::take(&mut set.sockets),
                std::mem::take(&mut set.jobs),
            )
        };
        // Outside the lock: every woken job takes it to leave the set.
        for socket in sockets.values() {
            let _ = socket.shutdown(Shutdown::Both);
        }
        jobs
    }
}

/// A listener that serves every connection it accepts on a thread of its
/// own, holding its descriptor and its thread only while it is served: what
/// [`serve_clients`](crate::serve_clients) and
/// [`serve_metrics`](crate::serve_metrics) return. Dropping it without
/// [`shutdown`](Self::shutdown) leaves it serving until the process exits.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    connections: Connections,
}

impl Server {
    /// Runs `handler` on every connection `listener` accepts; fails only
    /// to look up the listener's address or to start the accept loop.
    pub(crate) fn start(
        listener: TcpListener,
        handler: impl Fn(&TcpStream) + Send + Sync + 'static,
    ) -> io::Result<Server> {
        let connections = Connections::default();
        let addr = connections.accept(listener, handler)?;
        Ok(Server { addr, connections })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, shuts every live connection down and waits for
    /// their handlers to end.
    pub fn shutdown(self) {
        for job in self.connections.shut_down() {
            job.wait();
        }
    }
}

/// One node's live transport: the writer table, the channel its readers
/// report into, the set its connections are served in, and the WAN plan
/// its readers apply, if any. Dropping it runs the teardown in the
/// [module docs](self).
pub(crate) struct Mesh {
    wiring: Wiring,
    events: Receiver<LinkEvent>,
    connections: Connections,
}

impl Mesh {
    /// Opens node `me`'s mesh. With a `listener`, every inbound connection
    /// is a job that handshakes and then reads the link it becomes — which
    /// is also how reconnects work: a peer that lost its socket simply
    /// dials again, and the fresh link replaces the dead one (whose reader,
    /// ending, removes only its own generation from the table). Without one
    /// (a rejoiner: nobody dials it) the mesh only dials. With `wan`, every
    /// link's reader shapes the link into `me`, counting into `me`'s
    /// registry `metrics` and reporting [`LinkEvent::Shaped`] on the mesh's
    /// channel. Every handshake, dialed or accepted, waits at most
    /// `handshake_timeout` for the peer's `Hello`.
    ///
    /// # Errors
    ///
    /// The listener's local-address lookup failure, or the failure to start
    /// its accept loop.
    pub(crate) fn open(
        me: NodeId,
        listener: Option<TcpListener>,
        wan: Option<Arc<LinkPlan>>,
        metrics: Option<SharedRuntimeMetrics>,
        handshake_timeout: Duration,
    ) -> io::Result<Mesh> {
        let (events_tx, events) = mpsc::channel();
        let wiring = Wiring {
            me,
            handshake_timeout,
            links: Links::default(),
            events: events_tx,
            wan,
            metrics,
        };
        let connections = Connections {
            pooled: true,
            ..Connections::default()
        };
        if let Some(listener) = listener {
            let wiring = wiring.clone();
            connections.accept(listener, move |stream| {
                let Ok(peer) = handshake(stream, me, wiring.handshake_timeout) else {
                    return; // not a protocol peer; drop the connection
                };
                if let Ok((generation, shaping)) = wiring.install(peer, stream) {
                    wiring.read_link(stream, peer, generation, shaping);
                }
            })?;
        }
        Ok(Mesh {
            wiring,
            events,
            connections,
        })
    }

    /// The outbound halves, one per connected peer.
    pub(crate) fn links(&self) -> &Links {
        &self.wiring.links
    }

    /// Dials `peer` at `addr` (retrying until `deadline`, with
    /// `pause(attempt, delay)` waiting out each backoff and a jitter stream
    /// of this (dialer, peer) pair), handshakes, verifies the announced id,
    /// and installs the connection as a link whose reader is a job of the
    /// mesh. The link is live when this returns.
    ///
    /// # Errors
    ///
    /// Connect/handshake I/O errors, or [`io::ErrorKind::InvalidData`] if
    /// the endpoint announces an id other than `peer` (a mis-wired address
    /// book — the transport refuses to attribute its frames).
    pub(crate) fn dial(
        &self,
        addr: SocketAddr,
        peer: NodeId,
        deadline: Instant,
        pause: impl FnMut(u32, Duration) -> bool,
    ) -> io::Result<()> {
        let me = self.wiring.me;
        let jitter_seed = me.raw().rotate_left(32) ^ peer.raw();
        let stream = connect_with_retry(addr, deadline, jitter_seed, pause)?;
        let announced = handshake(&stream, me, self.wiring.handshake_timeout)?;
        if announced != peer {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("dialed {peer} but endpoint announced {announced}"),
            ));
        }
        let (generation, shaping) = self.wiring.install(peer, &stream)?;
        let wiring = self.wiring.clone();
        // Without a reader to end the link, it is ended here.
        self.connections
            .serve(stream, move |stream| {
                wiring.read_link(stream, peer, generation, shaping)
            })
            .inspect_err(|_| self.wiring.closed(peer, generation))
    }

    /// The next link event, waiting at most `wait`. `None` is a timeout:
    /// the mesh holds a sender itself, so the channel cannot disconnect.
    pub(crate) fn next_event(&self, wait: Duration) -> Option<LinkEvent> {
        self.events.recv_timeout(wait).ok()
    }

    /// A link event already queued, if there is one, without a clock read.
    pub(crate) fn queued_event(&self) -> Option<LinkEvent> {
        self.events.try_recv().ok()
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        let links = self.wiring.links.close();
        let jobs = self.connections.shut_down();
        drop(links);
        for job in jobs {
            job.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default `setup_timeout`: the handshake bound of the meshes here.
    const SETUP: Duration = Duration::from_secs(10);

    /// The dial deadline of a node with the default `setup_timeout`.
    fn dial_deadline() -> Instant {
        Instant::now() + SETUP
    }

    /// A dial's `pause` that sleeps out every backoff.
    fn sleep(_attempt: u32, delay: Duration) -> bool {
        thread::sleep(delay);
        true
    }

    #[test]
    fn retry_backs_off_then_succeeds() {
        // Reserve a port, then keep it closed for the first attempts.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let opener = thread::spawn(move || {
            thread::sleep(Duration::from_millis(40));
            TcpListener::bind(addr).unwrap().accept().unwrap();
        });
        let mut retries = 0;
        let deadline = Instant::now() + Duration::from_secs(5);
        let stream = connect_with_retry(addr, deadline, 42, |attempt, delay| {
            retries += 1;
            sleep(attempt, delay)
        });
        assert!(stream.is_ok());
        assert!(retries >= 1, "the port was closed at first");
        opener.join().unwrap();
    }

    #[test]
    fn retry_budget_exhaustion_reports_the_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener); // nobody will ever listen here
        let started = Instant::now();
        let deadline = started + Duration::from_millis(30);
        assert!(connect_with_retry(addr, deadline, 7, sleep).is_err());
        // The last backoff is cut to end at the deadline, and tried there.
        assert!(started.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_attempt() {
        let base = Duration::from_millis(100);
        for attempt in 1..8 {
            assert_eq!(jittered(base, 1, attempt), jittered(base, 1, attempt));
        }
        // Different seeds decorrelate: at least one attempt in a short
        // window must differ (the draw space is ~50ms in nanoseconds, so a
        // full collision across 8 attempts would be astronomically odd —
        // and this check is deterministic, not flaky, either way).
        assert!((1..8).any(|a| jittered(base, 1, a) != jittered(base, 2, a)));
    }

    #[test]
    fn jitter_is_bounded_by_half_the_backoff() {
        for &ms in &[1u64, 5, 10, 100, 500] {
            let base = Duration::from_millis(ms);
            for seed in 0..16 {
                for attempt in 1..8 {
                    let d = jittered(base, seed, attempt);
                    assert!(d >= base, "jitter never shortens the backoff");
                    assert!(d <= base + base / 2, "jitter adds at most base/2");
                }
            }
        }
        assert_eq!(jittered(Duration::ZERO, 3, 1), Duration::ZERO);
    }

    #[test]
    fn close_shuts_every_link_down_and_clears_the_table() {
        let links = Links::default();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let b = TcpStream::connect(addr).unwrap();
        let (a_accepted, _) = listener.accept().unwrap();
        let (_b_accepted, _) = listener.accept().unwrap();
        links.table().insert(NodeId::new(1), a, None);
        links.table().insert(NodeId::new(2), b, None);
        drop(links.close());
        assert!(links.connected().is_empty());
        // The peer side of a shut-down socket reads EOF, like a dead process.
        let mut reader = BufReader::new(a_accepted);
        assert!(matches!(read_frame(&mut reader), Ok(None)));
    }

    /// A table with one installed link to `peer` (no reader thread), and
    /// the peer's end of the socket.
    fn linked(peer: NodeId) -> (Links, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let ours = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (theirs, _) = listener.accept().unwrap();
        let links = Links::default();
        links.table().insert(peer, ours, None);
        (links, theirs)
    }

    fn data(round: u64, value: u8) -> Frame {
        Frame::Data {
            round,
            payload: vec![value],
        }
    }

    const DONE: Frame = Frame::Done {
        round: 1,
        decided: false,
    };

    #[test]
    fn queued_frames_wait_for_the_flush_and_arrive_in_order() {
        let peer = NodeId::new(2);
        let (links, mut theirs) = linked(peer);
        let round: Vec<Frame> = (0..40).map(|i| data(1, i)).chain([DONE]).collect();
        for frame in &round {
            assert_eq!(
                links.queue([peer], frame),
                encode_frame(frame).unwrap().len()
            );
        }
        // No byte was handed to the socket, so there is nothing to wait out.
        theirs.set_nonblocking(true).unwrap();
        let err = theirs.peek(&mut [0u8; 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        theirs.set_nonblocking(false).unwrap();

        links.flush();
        for frame in &round {
            assert_eq!(read_frame(&mut theirs).unwrap().as_ref(), Some(frame));
        }
    }

    #[test]
    fn raw_bytes_land_behind_the_frames_queued_before_them() {
        let peer = NodeId::new(2);
        let (links, mut theirs) = linked(peer);
        links.queue([peer], &data(1, 9));
        links.queue([peer], &DONE);
        // An unknown tag behind a valid length prefix.
        assert!(links.send_raw(peer, &[1, 0, 0, 0, 0xEE]));
        assert_eq!(read_frame(&mut theirs).unwrap(), Some(data(1, 9)));
        assert_eq!(read_frame(&mut theirs).unwrap(), Some(DONE));
        let err = read_frame(&mut theirs).unwrap_err();
        assert_eq!(FrameFault::of(&err), Some(FrameFault::Malformed));
    }

    #[test]
    fn a_sent_frame_keeps_link_order_with_the_frames_queued_before_it() {
        let peer = NodeId::new(2);
        let (links, mut theirs) = linked(peer);
        links.queue([peer], &data(1, 1));
        links.queue([peer], &data(1, 2));
        let tips = Frame::SyncTips {
            current_round: 1,
            oldest_retained: 1,
            decided: false,
        };
        links.queue([peer], &tips);
        links.flush();
        for frame in [data(1, 1), data(1, 2), tips] {
            assert_eq!(read_frame(&mut theirs).unwrap(), Some(frame));
        }
    }

    #[test]
    fn a_broadcast_is_queued_on_every_addressed_link_and_no_other() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let links = Links::default();
        let mut theirs = Vec::new();
        for id in 1..=3 {
            links
                .table()
                .insert(NodeId::new(id), TcpStream::connect(addr).unwrap(), None);
            theirs.push(listener.accept().unwrap().0);
        }
        // Peer 4 has no link: skipped, as a failed `send` would be.
        links.queue([1, 2, 4].map(NodeId::new), &DONE);
        links.queue([NodeId::new(3)], &data(1, 3));
        links.flush();
        assert_eq!(read_frame(&mut theirs[0]).unwrap(), Some(DONE));
        assert_eq!(read_frame(&mut theirs[1]).unwrap(), Some(DONE));
        assert_eq!(read_frame(&mut theirs[2]).unwrap(), Some(data(1, 3)));
    }

    #[test]
    fn flushing_onto_a_link_the_peer_closed_drops_the_link() {
        let (gone, stays) = (NodeId::new(2), NodeId::new(3));
        let (links, theirs) = linked(gone);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        links.table().insert(
            stays,
            TcpStream::connect(listener.local_addr().unwrap()).unwrap(),
            None,
        );
        let (mut kept, _) = listener.accept().unwrap();
        drop(theirs);
        // The first write after the close can still succeed (the kernel
        // learns of the reset from it); one of the next must fail.
        let mut rounds = 0;
        while links.connected().contains(&gone) {
            rounds += 1;
            assert!(rounds < 1000, "writes to a closed peer keep succeeding");
            links.queue([gone, stays], &DONE);
            links.flush();
        }
        assert_eq!(links.connected(), vec![stays], "only the dead link went");
        // The next round reaches the live link alone.
        links.queue([gone, stays], &DONE);
        links.flush();
        for _ in 0..=rounds {
            assert_eq!(read_frame(&mut kept).unwrap(), Some(DONE));
        }
    }

    #[test]
    fn a_frame_over_max_frame_drops_the_link_like_a_failed_write() {
        let peer = NodeId::new(2);
        let (links, mut theirs) = linked(peer);
        let huge = Frame::Data {
            round: 1,
            payload: vec![0; crate::wire::MAX_FRAME as usize],
        };
        assert_eq!(links.queue([peer], &huge), 0);
        assert!(links.connected().is_empty());
        assert!(matches!(read_frame(&mut theirs), Ok(None)), "clean EOF");
    }

    #[test]
    fn a_link_keeps_at_most_the_cap_after_a_one_mib_round() {
        let peer = NodeId::new(2);
        let (links, theirs) = linked(peer);
        let round: Vec<Frame> = (0..128)
            .map(|i| Frame::Data {
                round: 1,
                payload: vec![i; 8 * 1024],
            })
            .chain([DONE])
            .collect();
        // The peer drains the round while it is written.
        let mut reader = BufReader::new(theirs);
        let frames = round.len();
        let reading = thread::spawn(move || -> Vec<_> {
            (0..frames)
                .map(|_| read_frame(&mut reader).unwrap())
                .collect()
        });
        for frame in &round {
            links.queue([peer], frame);
        }
        let retained = || links.table().links[&peer].writer.queued.capacity();
        assert!(retained() > 1 << 20, "the buffer grew to the round");
        links.flush();
        links.flush(); // the next round, with nothing queued
        assert!(retained() <= RETAINED_ROUND_BYTES, "{} kept", retained());
        let received: Vec<Frame> = reading.join().unwrap().into_iter().flatten().collect();
        assert!(received == round, "the round arrived whole and in order");
    }

    #[test]
    fn a_flushed_round_reaches_the_peer_ahead_of_the_teardown_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (alice, bob) = (NodeId::new(1), NodeId::new(2));
        let bob_mesh = Mesh::open(bob, Some(listener), None, None, SETUP).unwrap();
        let alice_mesh = Mesh::open(alice, None, None, None, SETUP).unwrap();
        alice_mesh.dial(addr, bob, dial_deadline(), sleep).unwrap();
        alice_mesh.links().queue([bob], &data(1, 5));
        alice_mesh.links().queue([bob], &DONE);
        alice_mesh.links().flush();
        alice_mesh.links().queue([bob], &data(2, 6)); // never flushed
        drop(alice_mesh);

        let mut seen = Vec::new();
        loop {
            match bob_mesh.next_event(Duration::from_secs(5)).unwrap() {
                LinkEvent::Connected { .. } => {}
                LinkEvent::Frame { frame, .. } => seen.push(frame),
                LinkEvent::Closed { peer, .. } => break assert_eq!(peer, alice),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seen, vec![data(1, 5), DONE], "what was flushed, no more");
    }

    #[test]
    fn dial_and_accept_handshake_and_exchange_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (alice, bob) = (NodeId::new(1), NodeId::new(2));
        let bob_mesh = Mesh::open(bob, Some(listener), None, None, SETUP).unwrap();
        let alice_mesh = Mesh::open(alice, None, None, None, SETUP).unwrap();
        alice_mesh.dial(addr, bob, dial_deadline(), sleep).unwrap();

        // Both sides report Connected with the right peer.
        let wait = Duration::from_secs(5);
        match alice_mesh.next_event(wait).unwrap() {
            LinkEvent::Connected { peer, .. } => assert_eq!(peer, bob),
            other => panic!("expected Connected, got {other:?}"),
        }
        match bob_mesh.next_event(wait).unwrap() {
            LinkEvent::Connected { peer, .. } => assert_eq!(peer, alice),
            other => panic!("expected Connected, got {other:?}"),
        }

        // Alice -> Bob through the writer table; Bob's reader attributes it.
        let done = Frame::Done {
            round: 1,
            decided: false,
        };
        alice_mesh.links().queue([bob], &done);
        alice_mesh.links().flush();
        match bob_mesh.next_event(wait).unwrap() {
            LinkEvent::Frame {
                from,
                frame,
                wire_bytes,
            } => {
                assert_eq!(from, alice);
                assert_eq!(frame, done);
                assert_eq!(wire_bytes, encode_frame(&done).unwrap().len());
            }
            other => panic!("expected Frame, got {other:?}"),
        }

        // Dropping Alice's mesh closes her sockets: Bob's reader sees EOF.
        drop(alice_mesh);
        match bob_mesh.next_event(wait).unwrap() {
            LinkEvent::Closed { peer, .. } => assert_eq!(peer, alice),
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn dialing_a_mislabeled_peer_is_refused() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _nine = Mesh::open(NodeId::new(9), Some(listener), None, None, SETUP).unwrap();
        let err = Mesh::open(NodeId::new(1), None, None, None, SETUP)
            .unwrap()
            // address book says 2, endpoint says 9
            .dial(addr, NodeId::new(2), dial_deadline(), sleep)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_stopped_accept_loop_releases_its_port_and_serves_nothing_more() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (served_tx, served) = mpsc::channel();
        let server = Server::start(listener, move |_| served_tx.send(()).unwrap()).unwrap();
        let addr = server.addr();
        TcpStream::connect(addr).unwrap();
        served.recv_timeout(Duration::from_secs(5)).unwrap();
        server.shutdown();
        assert!(served.try_recv().is_err(), "the wake was not served");
        assert!(TcpStream::connect(addr).is_err(), "the listener is closed");
    }

    #[test]
    fn stale_generation_close_does_not_remove_a_fresh_link() {
        let links = Links::default();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = NodeId::new(5);
        let a = TcpStream::connect(addr).unwrap();
        let b = TcpStream::connect(addr).unwrap();
        let old_generation = links.table().insert(peer, a, None);
        let new_generation = links.table().insert(peer, b, None); // reconnect replaced it
        assert_ne!(old_generation, new_generation);
        links.remove(peer, old_generation); // stale close: must be a no-op
        assert_eq!(links.connected(), vec![peer]);
        links.remove(peer, new_generation);
        assert!(links.connected().is_empty());
    }

    /// Every frame a reader reports travels as one `LinkEvent`, so a
    /// variant that grew the enum would grow every frame's message.
    #[test]
    fn a_link_event_is_64_bytes() {
        assert_eq!(std::mem::size_of::<LinkEvent>(), 64);
    }
}
