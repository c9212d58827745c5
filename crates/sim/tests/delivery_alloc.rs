//! Work accounting for the delivery hot path, without a clock.
//!
//! Delivery decides everything that is a property of the *send* once per
//! send: the payload is wrapped in one `MsgRef` (hashed once, never
//! cloned) that the dedup key and every recipient's envelope share, and the
//! `(sender, payload)` dedup lookup runs once for the whole fan-out. So for
//! a payload that counts the calls into its own `Clone`, `Hash` and
//! `PartialEq`, a broadcast soak must read exactly:
//!
//! - `Clone` = 0 (it was `2·n` per broadcast before payload sharing),
//! - `Hash` = the number of send operations — never per recipient,
//! - `Eq` = 0 while no payload repeats, and at most one per *re-sent
//!   payload* when they do (it was one per duplicate envelope while every
//!   recipient kept its own dedup set).
//!
//! One file, one test, so no other test's calls can race the counters.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use uba_sim::{sparse_ids, Context, NodeId, Process, SyncEngine};

static CLONES: AtomicU64 = AtomicU64::new(0);
static HASHES: AtomicU64 = AtomicU64::new(0);
static EQS: AtomicU64 = AtomicU64::new(0);

/// Reads and resets the `(Clone, Hash, Eq)` call counts.
fn take_counts() -> (u64, u64, u64) {
    let take = |counter: &AtomicU64| counter.swap(0, Ordering::Relaxed);
    (take(&CLONES), take(&HASHES), take(&EQS))
}

/// A payload that counts every deep clone, hash and comparison of itself.
#[derive(Debug)]
struct Counted(u64);

impl Clone for Counted {
    fn clone(&self) -> Self {
        CLONES.fetch_add(1, Ordering::Relaxed);
        Counted(self.0)
    }
}

impl Hash for Counted {
    fn hash<H: Hasher>(&self, state: &mut H) {
        HASHES.fetch_add(1, Ordering::Relaxed);
        self.0.hash(state);
    }
}

impl PartialEq for Counted {
    fn eq(&self, other: &Self) -> bool {
        EQS.fetch_add(1, Ordering::Relaxed);
        self.0 == other.0
    }
}

impl Eq for Counted {}

/// Broadcasts the round number `copies` times — each a fresh payload —
/// every round until the horizon.
#[derive(Debug)]
struct Broadcaster {
    id: NodeId,
    copies: u64,
    horizon: u64,
    done: bool,
}

impl Process for Broadcaster {
    type Msg = Counted;
    type Output = ();

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Counted>) {
        for _ in 0..self.copies {
            ctx.broadcast(Counted(ctx.round()));
        }
        if ctx.round() >= self.horizon {
            self.done = true;
        }
    }

    fn output(&self) -> Option<()> {
        self.done.then_some(())
    }
}

const N: usize = 16;
const ROUNDS: u64 = 8;

/// Runs the all-to-all soak with `copies` broadcasts per node and round;
/// returns the number of send operations.
fn soak(copies: u64) -> u64 {
    let ids = sparse_ids(N, 99);
    let mut engine = SyncEngine::builder()
        .correct_many(ids.iter().map(|&id| Broadcaster {
            id,
            copies,
            horizon: ROUNDS,
            done: false,
        }))
        .build();
    engine.run_to_completion(ROUNDS + 1).expect("horizon");
    // Every node decides at round `ROUNDS`, leaving the recipient set before
    // that round's broadcasts land — so full N² fan-out for ROUNDS − 1
    // rounds, however many copies were sent: repeats are dropped.
    assert_eq!(
        engine.stats().correct_deliveries,
        (N * N) as u64 * (ROUNDS - 1),
        "all-to-all fan-out actually happened"
    );
    engine.stats().correct_sends
}

#[test]
fn delivery_work_is_per_send_not_per_envelope() {
    let sends = soak(1);
    assert_eq!(sends, N as u64 * ROUNDS);
    let (clones, hashes, eqs) = take_counts();
    assert_eq!(clones, 0, "delivery must never deep-clone a payload");
    assert_eq!(hashes, sends, "one payload hash per send operation");
    assert_eq!(eqs, 0, "no payload repeats, so none is ever compared");

    // Every payload sent three times: two of each three sends are repeats,
    // each a duplicate at all N recipients.
    let sends = soak(3);
    assert_eq!(sends, 3 * N as u64 * ROUNDS);
    let (clones, hashes, eqs) = take_counts();
    assert_eq!(clones, 0, "delivery must never deep-clone a payload");
    assert_eq!(hashes, sends, "one payload hash per send operation");
    let resent = sends / 3 * 2;
    assert!(
        (1..=resent).contains(&eqs),
        "{eqs} payload comparisons for {resent} re-sent payloads: \
         a repeat is recognised once per send, not once per recipient"
    );
}
