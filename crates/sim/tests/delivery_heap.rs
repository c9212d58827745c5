//! Heap accounting for inbox storage, without a clock.
//!
//! In an all-to-all broadcast round every one of `n` nodes broadcasts once,
//! so `n²` envelopes are delivered. A broadcast that reaches everyone is
//! stored once, in a run every inbox shares (`uba_sim::Segment::Shared`), so
//! what a round allocates grows like `n` — the runs, one segment list per
//! recipient, the round's dedup map and outboxes — not like the `n²`
//! envelopes. Copying every broadcast into every inbox allocated `n²`
//! envelopes' worth per round.
//!
//! Measured bytes per steady-state round at `n = 64` → `256`: 228 KB →
//! 3.28 MB (14.4×) with a copy per recipient, 48 KB → 201 KB (4.2×) with
//! shared runs. The bound is 6×: quadratic storage reads 16×.
//!
//! One file, one test: the counter is per thread, and the one test's thread
//! is the only one that reads it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uba_sim::{sparse_ids, Context, NodeId, Process, SyncEngine};

thread_local! {
    /// Bytes requested from `alloc`/`realloc` by this thread. Const-initialised
    /// and without a destructor, so touching it never allocates.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// `Cell` and is not touched re-entrantly.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.with(|n| n.set(n.get() + new_size as u64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap bytes this thread requests while `work` runs.
fn bytes(work: impl FnOnce()) -> u64 {
    let before = BYTES.with(Cell::get);
    work();
    BYTES.with(Cell::get) - before
}

/// Broadcasts the round number every round and never terminates.
struct Shouter(NodeId);

impl Process for Shouter {
    type Msg = u64;
    type Output = ();

    fn id(&self) -> NodeId {
        self.0
    }

    fn on_round(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.broadcast(ctx.round());
    }

    fn output(&self) -> Option<()> {
        None
    }
}

/// Mean bytes one steady-state all-to-all round (rounds 3–6) allocates
/// at `n` nodes.
fn bytes_per_round(n: usize) -> u64 {
    let mut engine = SyncEngine::builder()
        .correct_many(sparse_ids(n, 5).into_iter().map(Shouter))
        .build();
    engine.run_rounds(2);
    let measured = bytes(|| engine.run_rounds(4));
    let fan_out = &engine.stats().deliveries_by_round[2..];
    assert_eq!(fan_out, [(n * n) as u64; 4], "all-to-all at n = {n}");
    measured / 4
}

#[test]
fn inbox_storage_grows_linearly_in_n() {
    let (small, large) = (bytes_per_round(64), bytes_per_round(256));
    assert!(
        large <= 6 * small,
        "{small} bytes per round at n = 64, {large} at n = 256 ({:.1}×): \
         4× the nodes may cost at most 6× the bytes",
        large as f64 / small as f64
    );
}
