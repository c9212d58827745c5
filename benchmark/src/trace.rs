//! What the traced run records from outside the program: in-memory spans
//! at each boundary the benchmark can see, and [`Timed`], a [`Process`]
//! wrapper that times every `on_round` call.

use std::fs::OpenOptions;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use uba_sim::{Context, NodeId, Process};

use crate::json::Json;
use crate::procfs;

/// Microseconds since a workload's epoch. Worker processes are handed the
/// parent's epoch, so spans from several processes share one time axis.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    anchor: Instant,
    anchor_us: u64,
}

/// Wall-clock microseconds since the Unix epoch: the value a parent passes
/// to its workers as their [`Clock`] epoch.
pub fn unix_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock is past 1970")
        .as_micros() as u64
}

impl Clock {
    pub fn since(epoch_unix_us: u64) -> Clock {
        Clock {
            anchor: Instant::now(),
            anchor_us: unix_micros().saturating_sub(epoch_unix_us),
        }
    }

    pub fn at(&self, instant: Instant) -> u64 {
        self.anchor_us + instant.saturating_duration_since(self.anchor).as_micros() as u64
    }

    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }
}

/// The id of the workload's root span; every op span hangs off it.
pub const ROOT_SPAN: u64 = 0;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; `None` for the workload root.
    pub parent: Option<u64>,
    /// The op all spans of one operation share; `None` for the root.
    pub op: Option<u64>,
    pub name: String,
    /// The cluster member the span ran on, where there is one.
    pub node: Option<u64>,
    pub start_us: u64,
    pub end_us: u64,
}

impl Span {
    /// The workload's root span.
    pub fn root(workload: &str, start_us: u64, end_us: u64) -> Span {
        Span {
            id: ROOT_SPAN,
            parent: None,
            op: None,
            name: workload.to_string(),
            node: None,
            start_us,
            end_us,
        }
    }

    fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, Json::from);
        Json::obj([
            ("id", self.id.into()),
            ("parent", opt(self.parent)),
            ("op", opt(self.op)),
            ("name", Json::str(self.name.as_str())),
            ("node", opt(self.node)),
            ("start_us", self.start_us.into()),
            ("end_us", self.end_us.into()),
        ])
    }
}

/// Spans of one op, with ids drawn from the op's own range so that worker
/// processes never collide.
pub struct OpSpans {
    op: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl OpSpans {
    /// Opens the op's span; its id is returned by [`OpSpans::root`].
    pub fn new(op: u64, start_us: u64, end_us: u64) -> OpSpans {
        let mut spans = OpSpans {
            op,
            next: (op + 1) << 16,
            spans: Vec::new(),
        };
        spans.push(ROOT_SPAN, "op", None, start_us, end_us);
        spans
    }

    pub fn root(&self) -> u64 {
        (self.op + 1) << 16
    }

    pub fn push(
        &mut self,
        parent: u64,
        name: impl Into<String>,
        node: Option<u64>,
        start_us: u64,
        end_us: u64,
    ) -> u64 {
        let id = self.next;
        self.next += 1;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            op: Some(self.op),
            name: name.into(),
            node,
            start_us,
            end_us,
        });
        id
    }

    /// Adds `round r › step` spans from one instance's step samples: a
    /// round lasts from its first step to the next round's first step (the
    /// last one to `end_us`).
    pub fn push_rounds(&mut self, mut steps: Vec<StepSample>, end_us: u64) {
        steps.sort_by_key(|s| (s.round, s.start_us));
        let mut starts: Vec<(u64, u64)> = Vec::new();
        for step in &steps {
            if starts.last().map(|&(round, _)| round) != Some(step.round) {
                starts.push((step.round, step.start_us));
            }
        }
        let root = self.root();
        let mut steps = steps.into_iter().peekable();
        for (i, &(round, start)) in starts.iter().enumerate() {
            let end = starts.get(i + 1).map_or(end_us, |&(_, next)| next);
            let round_span = self.push(root, format!("round {round}"), None, start, end.max(start));
            while let Some(step) = steps.next_if(|s| s.round == round) {
                self.push(
                    round_span,
                    "step",
                    Some(step.node),
                    step.start_us,
                    step.end_us,
                );
            }
        }
    }
}

/// Appends spans to a JSONL file, one span per line.
pub fn append_spans<'a>(path: &Path, spans: impl IntoIterator<Item = &'a Span>) -> io::Result<()> {
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    let mut out = BufWriter::new(file);
    for span in spans {
        writeln!(out, "{}", span.to_json().render())?;
    }
    out.flush()
}

/// One timed `on_round` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepSample {
    pub node: u64,
    pub round: u64,
    pub start_us: u64,
    pub end_us: u64,
    /// The call's duration at full resolution: steps can be far shorter
    /// than the microsecond the span timestamps resolve.
    pub nanos: u64,
}

/// Open descriptors and threads of this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcCounts {
    pub fds: u64,
    pub threads: u64,
}

impl ProcCounts {
    pub fn read() -> ProcCounts {
        ProcCounts {
            fds: procfs::fd_count(),
            threads: procfs::thread_count(),
        }
    }
}

/// Where the [`Timed`] wrappers of one instance put their samples; shared
/// because a TCP instance steps its members on separate threads.
#[derive(Debug)]
pub struct StepSink {
    clock: Clock,
    steps: Mutex<Vec<StepSample>>,
    mid_run: Mutex<Option<ProcCounts>>,
}

impl StepSink {
    pub fn new(clock: Clock) -> Arc<StepSink> {
        Arc::new(StepSink {
            clock,
            steps: Mutex::new(Vec::new()),
            mid_run: Mutex::new(None),
        })
    }

    /// The samples recorded so far, leaving the sink empty.
    pub fn take_steps(&self) -> Vec<StepSample> {
        std::mem::take(&mut *self.steps.lock().expect("step sink lock poisoned"))
    }

    /// Descriptor and thread counts sampled while the instance ran (by the
    /// wrapper built with [`Timed::probing`]), if it got that far.
    pub fn mid_run(&self) -> Option<ProcCounts> {
        *self.mid_run.lock().expect("step sink lock poisoned")
    }
}

/// The round in which a probing wrapper samples `/proc/self/{fd,task}`:
/// the mesh is complete and every reader thread alive, so the counts are
/// the instance's peak.
const PROBE_ROUND: u64 = 2;

/// A [`Process`] that behaves exactly as `P` and records the wall time of
/// every `on_round` call into a [`StepSink`].
pub struct Timed<P> {
    inner: P,
    sink: Arc<StepSink>,
    probe: bool,
}

impl<P: Process> Timed<P> {
    pub fn new(inner: P, sink: Arc<StepSink>) -> Self {
        Timed {
            inner,
            sink,
            probe: false,
        }
    }

    /// Also samples the process's descriptor and thread counts once, in
    /// round [`PROBE_ROUND`]. One member per instance is enough.
    pub fn probing(mut self) -> Self {
        self.probe = true;
        self
    }
}

impl<P: Process> Process for Timed<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let round = ctx.round();
        let start = Instant::now();
        self.inner.on_round(ctx);
        let end = Instant::now();
        let sample = StepSample {
            node: self.inner.id().raw(),
            round,
            start_us: self.sink.clock.at(start),
            end_us: self.sink.clock.at(end),
            nanos: (end - start).as_nanos() as u64,
        };
        self.sink
            .steps
            .lock()
            .expect("step sink lock poisoned")
            .push(sample);
        if self.probe && round == PROBE_ROUND {
            *self.sink.mid_run.lock().expect("step sink lock poisoned") = Some(ProcCounts::read());
        }
    }

    fn output(&self) -> Option<Self::Output> {
        self.inner.output()
    }

    fn terminated(&self) -> bool {
        self.inner.terminated()
    }
}
