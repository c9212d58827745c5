//! Heap accounting for the rotor's re-echo flood, without a clock.
//!
//! In the rotor's first step (round 6 of `EarlyConsensus`) every correct
//! node accepts every initiator into `C_v` and re-echoes it, so round 7
//! hands each node `n · n` `RotorEcho` envelopes for candidates it has
//! already accepted. The rotor never reads their support again, and the
//! phase frame (`crates/core/src/phase.rs`) keeps their rows *closed*: an
//! echo for a closed row stops at the row lookup. What round 7 may
//! allocate is therefore what its other traffic needs — at most one
//! allocation per node, bounded here — and nothing per echo or per
//! candidate. (Measured at `n = 64`: 1 per node. When the frame counted
//! the re-echoes into fresh rows, the round cost 11 per node: the candidate
//! index rebuilt after every rotor step.)
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
fn the_re_echo_flood_allocates_at_most_one_per_node() {
    const N: usize = 64;
    let ids = sparse_ids(N, 7);
    let mut nodes: Vec<EarlyConsensus<u64>> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| EarlyConsensus::new(id, (i % 2) as u64))
        .collect();
    let mut wire = Wire::new();
    for round in 1..=6 {
        wire = round_of(&mut nodes, round, &wire).0;
    }
    let re_echoes = wire
        .iter()
        .filter(|(_, m)| matches!(m, Msg::RotorEcho(_)))
        .count();
    assert_eq!(re_echoes, N * N, "everyone re-echoes every candidate");

    let (_, in_round_7) = round_of(&mut nodes, 7, &wire);
    assert!(
        in_round_7 <= N as u64,
        "{in_round_7} allocations for {N} nodes counting {re_echoes} re-echoes each; \
         the bound is one per node"
    );
}
