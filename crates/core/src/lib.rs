//! # uba-core — Byzantine agreement with unknown participants and failures
//!
//! Implementations of every algorithm in *"Byzantine Agreement with Unknown
//! Participants and Failures"* (Khanchandani & Wattenhofer, PODC 2020) for
//! the *id-only* model: nodes know their own (non-consecutive) identifier
//! and nothing else — in particular neither the system size `n` nor the
//! failure bound `f` — yet achieve the optimal resiliency `n > 3f`:
//!
//! - [`reliable`] — reliable broadcast (Algorithm 1);
//! - [`rotor`] — the rotor-coordinator (Algorithm 2), the paper's key
//!   device for simulating `f + 1` coordinator rounds without knowing `f`;
//! - [`consensus`] — `O(f)`-round early-terminating consensus
//!   (Algorithm 3), plus the appendix's rotor-driven king consensus;
//! - [`approx`] — approximate agreement (Algorithm 4), one-shot and
//!   iterated;
//! - [`parallel`] — parallel consensus over an unknown set of instance
//!   identifiers (Algorithm 5);
//! - [`ordering`] — total ordering of events in dynamic networks
//!   (Algorithm 6);
//! - [`trb`], [`renaming`] — the appendix extensions (terminating reliable
//!   broadcast, Byzantine renaming);
//! - [`baselines`] — the classic known-`(n, f)` counterparts
//!   (Srikanth–Toueg broadcast, Dolev et al. approximate agreement, the
//!   phase-king consensus) used by the experiment harness to show that
//!   dropping the knowledge of `n` and `f` costs neither resiliency nor
//!   asymptotic complexity;
//! - [`lower_bounds`] — executable versions of the paper's impossibility
//!   arguments (synchrony is necessary);
//! - [`vector`] — vector consensus (interactive consistency), a composition
//!   of the primitives per the Discussion section;
//! - [`spec`] — the paper's problem definitions as executable property
//!   checkers;
//! - [`monitor`] — online (per-round) monitors of the same properties, for
//!   the engine's [`RoundMonitor`](uba_sim::RoundMonitor) hook;
//! - [`harness`] — convenience runners used by tests, examples and
//!   benchmarks.
//!
//! All protocols implement [`uba_sim::Process`] and run on the engine of
//! the [`uba_sim`] crate.
//!
//! Two things exist once for several algorithms. The three rotor-driven
//! agreements — Algorithm 3, the appendix king, Algorithm 5 — share one
//! crate-private *phase frame* (`phase.rs`: the two initialization rounds,
//! the freeze of `n_v`, the member filter, the embedded rotor step, the
//! coordinator-opinion pick) and its one *substitution tally* (the caption
//! of Algorithm 3); their modules hold only the message ladder, the
//! termination rule and the substitution fills that differ. The frame is
//! also the one place that counts the rotor's echoes — most of every inbox
//! — and it counts by *member slot* ([`tracker`]: ids numbered in
//! first-heard order): one membership lookup per run of envelopes from the
//! same sender (the slot after the previous sender's is tried first), one
//! bit per (candidate, member) in a single flat matrix, no count at all for
//! an echo of a candidate already in `C_v` (its row is closed), and a
//! tally's silent members read off a sender bitset. Slot numbers are
//! bookkeeping and never reach a message or a decision. And nesting has
//! one convention: a protocol that is ever embedded
//! ([`EarlyConsensus::step`](consensus::EarlyConsensus::step),
//! [`ParallelConsensusCore::step`](parallel::ParallelConsensusCore::step),
//! [`TotalOrdering::step`](ordering::TotalOrdering::step)) is a method over
//! borrowed `(sender, &message)` pairs with an out-vector, its `Process`
//! impl is the adapter, and a host ([`trb`], [`vector`], [`ordering`]'s
//! waves, the `uba-net` log service) projects its own inbox into it —
//! no payload is cloned or re-hashed on the way in.
//!
//! # Quickstart
//!
//! ```
//! use uba_core::consensus::EarlyConsensus;
//! use uba_sim::{sparse_ids, SyncEngine};
//!
//! // Seven nodes with split opinions agree on one of them, without any
//! // node ever knowing how many participants exist.
//! let ids = sparse_ids(7, 42);
//! let mut engine = SyncEngine::builder()
//!     .correct_many(ids.iter().enumerate().map(|(i, &id)| {
//!         EarlyConsensus::new(id, (i % 2) as u64)
//!     }))
//!     .build();
//! let done = engine.run_to_completion(100)?;
//! let mut decided: Vec<u64> = done.outputs.values().copied().collect();
//! decided.dedup();
//! assert_eq!(decided.len(), 1);
//! # Ok::<(), uba_sim::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod baselines;
pub mod consensus;
pub mod harness;
pub mod lower_bounds;
pub mod monitor;
pub mod observe;
pub mod ordering;
pub mod parallel;
mod phase;
pub mod quorum;
pub mod reliable;
pub mod renaming;
pub mod rotor;
pub mod spec;
pub mod tracker;
pub mod trb;
pub mod value;
pub mod vector;

pub use tracker::{FrozenMembership, ParticipantTracker};
pub use value::{OrderedF64, Value};
