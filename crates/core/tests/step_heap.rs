//! Heap accounting for the phase frame's echo counting, without a clock.
//!
//! The rotor makes every node reliably broadcast every candidate, so the
//! first phase round of `EarlyConsensus` at `n = 64` hands each node
//! `64 · 64` `RotorEcho` envelopes. The frame counts them in one bit matrix
//! (`crates/core/src/phase.rs`): what that round may allocate is the
//! matrix, the candidate index and the membership freeze — a few growing
//! vectors and map nodes, bounded here by `1 · n` allocations per node —
//! and an echo that is delivered again sets a bit that is already set.
//! (Measured: 28 per node, 1,792 for the 64 nodes; 36 while the freeze
//! cloned the membership's map. Counting in a set of sender ids per
//! candidate cost ≈ `n²/6` for the same round: 660 per node, 42,240 for the
//! 64.)
//!
//! A Byzantine member may echo ids nobody owns. Each is a row of the same
//! matrix and an entry of the candidate index, so 10,000 of them cost a
//! fraction of an allocation each (1,693 for the round; 11,667 when every
//! candidate had a heap object of its own).
//!
//! One file, one test: the counter is per thread, and the one test's thread
//! is the only one that reads it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uba_core::consensus::{ConsensusMsg, EarlyConsensus};
use uba_sim::{sparse_ids, NodeId, Process};

thread_local! {
    /// Calls into `alloc`/`realloc` made by this thread. Const-initialised
    /// and without a destructor, so touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// `Cell` and is not touched re-entrantly.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations this thread makes while `work` runs.
fn allocations(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

type Msg = ConsensusMsg<u64>;
type Wire = Vec<(NodeId, Msg)>;

/// Runs `round` at every node on `wire` and returns what they sent, with
/// the allocations of the steps alone.
fn round_of(nodes: &mut [EarlyConsensus<u64>], round: u64, wire: &Wire) -> (Wire, u64) {
    let mut next = Wire::new();
    let mut total = 0;
    for node in nodes.iter_mut() {
        let mut out = Vec::with_capacity(wire.len());
        total +=
            allocations(|| node.step(round, wire.iter().map(|(from, m)| (*from, m)), &mut out));
        next.extend(out.into_iter().map(|m| (node.id(), m)));
    }
    (next, total)
}

#[test]
fn echo_counting_allocates_per_node_not_per_echo() {
    const N: usize = 64;
    let ids = sparse_ids(N, 7);
    let mut nodes: Vec<EarlyConsensus<u64>> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| EarlyConsensus::new(id, (i % 2) as u64))
        .collect();
    let (inits, _) = round_of(&mut nodes, 1, &Wire::new());
    let (echoes, _) = round_of(&mut nodes, 2, &inits);
    assert_eq!(echoes.len(), N * N, "everyone echoes every initiator");

    // (a) The echo round: n² envelopes per node, at most 1·n allocations.
    let (inputs, in_round_3) = round_of(&mut nodes, 3, &echoes);
    assert_eq!(inputs.len(), N, "round 3 is the first phase round");
    assert!(
        in_round_3 <= (N * N) as u64,
        "{in_round_3} allocations for {N} nodes counting {} echoes each; \
         the bound is n per node",
        echoes.len()
    );

    // (b) The same echoes again, behind the next round's real traffic: every
    // bit is already set, so they cost nothing on top of that traffic.
    let mut twins = nodes.clone();
    let (_, plain) = round_of(&mut twins, 4, &inputs);
    let mut replayed = inputs.clone();
    replayed.extend(echoes.iter().cloned());
    let (_, with_replay) = round_of(&mut nodes, 4, &replayed);
    assert_eq!(
        with_replay, plain,
        "re-delivered echoes must not allocate (round 4 with and without them)"
    );

    // (c) One member echoes 10,000 ids nobody owns: rows of the one matrix,
    // amortised well under one allocation per row.
    const GHOSTS: u64 = 10_000;
    let flood: Wire = (0..GHOSTS)
        .map(|g| (ids[1], Msg::RotorEcho(NodeId::new(u64::MAX - g))))
        .collect();
    let node = &mut nodes[0];
    let mut out = Vec::new();
    let flooded = allocations(|| node.step(5, flood.iter().map(|(from, m)| (*from, m)), &mut out));
    assert!(
        flooded <= GHOSTS / 4,
        "{flooded} allocations for {GHOSTS} ghost candidates"
    );
}
