//! Tracer implementations: no-op and bounded ring buffer, and the
//! combinators engines and harnesses compose them with.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::event::TraceEvent;

/// A sink for [`TraceEvent`]s.
///
/// Engines call [`enabled`](Tracer::enabled) before constructing an event,
/// so a disabled tracer costs neither allocation nor `Debug` formatting on
/// the hot path; [`record`](Tracer::record) consumes the event.
pub trait Tracer {
    /// Whether the engine should construct and record events at all.
    /// Defaults to `true`; only [`NoopTracer`] returns `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event.
    fn record(&mut self, event: TraceEvent);
}

impl Tracer for Box<dyn Tracer> {
    fn enabled(&self) -> bool {
        self.as_ref().enabled()
    }

    fn record(&mut self, event: TraceEvent) {
        self.as_mut().record(event)
    }
}

/// The do-nothing tracer: [`enabled`](Tracer::enabled) is `false`, so
/// engines skip event construction entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: TraceEvent) {}
}

/// A bounded in-memory collector: keeps the **last** `capacity` events,
/// counting (but discarding) older ones.
///
/// This is the `--trace-last-n` backend: a long run keeps a fixed-size
/// postmortem window instead of an unbounded trace.
///
/// # Examples
///
/// ```
/// use uba_trace::{RingTracer, TraceEvent, Tracer};
///
/// let mut ring = RingTracer::new(2);
/// for round in 1..=3 {
///     ring.record(TraceEvent::RoundBegin { round });
/// }
/// assert_eq!(ring.len(), 2);
/// assert_eq!(ring.dropped(), 1);
/// assert_eq!(ring.events().next(), Some(&TraceEvent::RoundBegin { round: 2 }));
/// ```
#[derive(Debug, Clone)]
pub struct RingTracer {
    capacity: usize,
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingTracer {
    /// Creates a collector keeping the last `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        RingTracer {
            capacity: capacity.max(1),
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of events that fell out of the window.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the retained window as JSONL (one event per line, trailing
    /// newline after each). A dropped prefix is noted on the first line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(&format!(
                "{{\"ev\":\"window\",\"dropped\":{}}}\n",
                self.dropped
            ));
        }
        for event in &self.buf {
            out.push_str(&crate::json::to_json(event));
            out.push('\n');
        }
        out
    }
}

impl Tracer for RingTracer {
    fn record(&mut self, event: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }
}

/// Duplicates every event into two tracers (e.g. a postmortem collector and
/// a [`Metrics`](crate::Metrics) registry).
#[derive(Debug, Clone, Default)]
pub struct Fanout<A, B>(pub A, pub B);

impl<A: Tracer, B: Tracer> Tracer for Fanout<A, B> {
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }

    fn record(&mut self, event: TraceEvent) {
        if self.0.enabled() {
            self.0.record(event.clone());
        }
        if self.1.enabled() {
            self.1.record(event);
        }
    }
}

/// A cloneable handle around a tracer, so a harness can keep access to the
/// collected events after handing the tracer to an engine builder (which
/// takes ownership).
///
/// # Examples
///
/// ```
/// use uba_trace::{RingTracer, SharedTracer, TraceEvent, Tracer};
///
/// let handle = SharedTracer::new(RingTracer::new(16));
/// let mut for_engine = handle.clone();
/// for_engine.record(TraceEvent::RoundBegin { round: 1 });
/// assert_eq!(handle.with(|ring| ring.len()), 1);
/// ```
#[derive(Debug, Default)]
pub struct SharedTracer<T>(Rc<RefCell<T>>);

impl<T> Clone for SharedTracer<T> {
    fn clone(&self) -> Self {
        SharedTracer(Rc::clone(&self.0))
    }
}

impl<T: Tracer> SharedTracer<T> {
    /// Wraps `inner` in a shared handle.
    pub fn new(inner: T) -> Self {
        SharedTracer(Rc::new(RefCell::new(inner)))
    }

    /// Runs `f` with shared access to the inner tracer.
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly from within `record` (never happens in
    /// engine use: engines call `record` and return).
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.0.borrow())
    }
}

impl<T: Tracer> Tracer for SharedTracer<T> {
    fn enabled(&self) -> bool {
        self.0.borrow().enabled()
    }

    fn record(&mut self, event: TraceEvent) {
        self.0.borrow_mut().record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled() {
        let mut noop = NoopTracer;
        assert!(!noop.enabled());
        noop.record(TraceEvent::RoundBegin { round: 1 });
    }

    #[test]
    fn ring_keeps_the_last_n() {
        let mut ring = RingTracer::new(3);
        for round in 1..=10 {
            ring.record(TraceEvent::RoundBegin { round });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 7);
        let rounds: Vec<u64> = ring.events().map(TraceEvent::round).collect();
        assert_eq!(rounds, vec![8, 9, 10]);
    }

    #[test]
    fn ring_capacity_zero_is_clamped_to_one() {
        let mut ring = RingTracer::new(0);
        ring.record(TraceEvent::RoundBegin { round: 1 });
        ring.record(TraceEvent::RoundBegin { round: 2 });
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn ring_jsonl_writes_one_line_per_event() {
        let mut ring = RingTracer::new(usize::MAX);
        ring.record(TraceEvent::RoundBegin { round: 1 });
        ring.record(TraceEvent::RoundEnd {
            round: 1,
            deliveries: 4,
        });
        assert_eq!(
            ring.to_jsonl(),
            "{\"ev\":\"round_begin\",\"round\":1}\n{\"ev\":\"round_end\",\"round\":1,\"deliveries\":4}\n"
        );
    }

    #[test]
    fn ring_jsonl_notes_the_dropped_prefix() {
        let mut ring = RingTracer::new(1);
        ring.record(TraceEvent::RoundBegin { round: 1 });
        ring.record(TraceEvent::RoundBegin { round: 2 });
        let text = ring.to_jsonl();
        assert!(text.starts_with("{\"ev\":\"window\",\"dropped\":1}\n"));
        assert!(text.contains("\"round\":2"));
    }

    #[test]
    fn fanout_duplicates_and_shared_exposes() {
        let a = SharedTracer::new(RingTracer::new(8));
        let b = SharedTracer::new(RingTracer::new(8));
        let mut fan = Fanout(a.clone(), b.clone());
        fan.record(TraceEvent::RoundBegin { round: 1 });
        assert_eq!(a.with(RingTracer::len), 1);
        assert_eq!(b.with(RingTracer::len), 1);
    }

    #[test]
    fn boxed_tracer_forwards() {
        let shared = SharedTracer::new(RingTracer::new(4));
        let mut boxed: Box<dyn Tracer> = Box::new(shared.clone());
        assert!(boxed.enabled());
        boxed.record(TraceEvent::RoundBegin { round: 2 });
        assert_eq!(shared.with(RingTracer::len), 1);
    }
}
