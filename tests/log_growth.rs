//! Heap accounting for the log service's round, without a clock or a socket.
//!
//! A round of `ShardedLog` in which nothing new becomes final must cost the
//! same whatever the log already holds: the chain is appended to, and only
//! what it grew by is copied into the ingress prefix. Four members in a
//! `SyncEngine` order one batch submitted before round 1; the bytes the
//! thread allocates in a later, idle round are compared between a log of
//! eight records and one of 512 records of 1 KiB. (When every round rebuilt
//! the chain from the wave results and re-published the whole prefix, the
//! same round allocated 105,188 bytes at 8 records and 2,441,356 at 512; it
//! now allocates 39,680 at both, on x86-64 Linux.)
//!
//! One file, one test: the counter is per thread, and the one test's thread
//! is the only one that reads it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uba::net::{service_horizon, LogIngress, ShardedLog};
use uba::sim::{sparse_ids, SyncEngine};

thread_local! {
    /// Bytes this thread asked `alloc`/`realloc` for. Const-initialised and
    /// without a destructor, so touching it never allocates.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// `Cell` and is not touched re-entrantly.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + new_size as u64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Orders `records` 1 KiB records submitted at the first member before
/// round 1 and returns the bytes round 30 allocates — the batch is final by
/// round 17, the ingest window and the horizon are far off.
fn idle_round_bytes(records: usize) -> u64 {
    let ids = sparse_ids(4, 22);
    let ingest_until = 60;
    let horizon = service_horizon(ids.len(), ingest_until);
    let ingresses: Vec<LogIngress> = ids.iter().map(|_| LogIngress::new(1)).collect();
    for i in 0..records {
        ingresses[0]
            .submit(format!("key-{i}"), vec![i as u8; 1024], ids[0].raw())
            .expect("ingest open");
    }
    let members = ids
        .iter()
        .zip(&ingresses)
        .map(|(&id, ingress)| ShardedLog::new(id, ingress.clone(), ingest_until, horizon));
    let mut engine = SyncEngine::builder().correct_many(members).build();
    engine.run_rounds(29);
    for ingress in &ingresses {
        let (prefix, sealed) = ingress.prefix_from(0, 0);
        assert_eq!(
            (prefix.len(), sealed),
            (records, false),
            "final, not sealed"
        );
    }
    let before = ALLOCATED.with(Cell::get);
    engine.run_rounds(1);
    ALLOCATED.with(Cell::get) - before
}

#[test]
fn an_idle_round_costs_the_same_at_any_log_length() {
    let (short, long) = (idle_round_bytes(8), idle_round_bytes(512));
    assert!(
        long.abs_diff(short) <= 4096,
        "an idle round allocated {long} bytes behind a 512-record log and {short} behind an \
         8-record one; it must follow what is new, not what has accumulated"
    );
}
