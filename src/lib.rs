//! # uba — Byzantine Agreement with Unknown Participants and Failures
//!
//! A faithful, executable reproduction of *"Byzantine Agreement with
//! Unknown Participants and Failures"* (Khanchandani & Wattenhofer,
//! PODC 2020): agreement algorithms for the **id-only model**, where every
//! node knows its own (unique, non-consecutive) identifier and **nothing
//! else** — neither the number of participants `n` nor the failure bound
//! `f` — yet all the fundamental agreement problems are solved with the
//! optimal resiliency `n > 3f`.
//!
//! This facade re-exports the workspace crates:
//!
//! - [`sim`] ([`uba_sim`]) — the synchronous round engine, the
//!   full-information rushing Byzantine adversary interface, dynamic
//!   membership, and deterministic fault injection;
//! - [`core`] ([`uba_core`]) — the paper's algorithms: reliable broadcast,
//!   rotor-coordinator, `O(f)` consensus, approximate agreement, parallel
//!   consensus, total ordering in dynamic networks, the appendix extensions
//!   (terminating reliable broadcast, renaming, king consensus), the
//!   classic known-`(n, f)` baselines, and the impossibility constructions;
//! - [`adversary`] ([`uba_adversary`]) — Byzantine strategies, generic and
//!   protocol-aware;
//! - [`net`] ([`uba_net`]) — the real TCP transport: framed codec, round
//!   synchronizer, seeded WAN link shaping, and the key-sharded log service
//!   (`logd`/`loadgen`);
//! - [`trace`] ([`uba_trace`]) — deterministic event traces and wall-clock
//!   runtime metrics.
//!
//! # Example: consensus among strangers
//!
//! ```
//! use uba::core::consensus::EarlyConsensus;
//! use uba::sim::{sparse_ids, SyncEngine};
//!
//! let ids = sparse_ids(7, 1);
//! let mut engine = SyncEngine::builder()
//!     .correct_many(ids.iter().enumerate().map(|(i, &id)| {
//!         EarlyConsensus::new(id, (i % 2) as u64)
//!     }))
//!     .build();
//! let done = engine.run_to_completion(100)?;
//! let mut decided: Vec<u64> = done.outputs.values().copied().collect();
//! decided.dedup();
//! assert_eq!(decided.len(), 1, "agreement without knowing n or f");
//! # Ok::<(), uba::sim::EngineError>(())
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! EXPERIMENTS.md for the full reproduction of the paper's claims.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use uba_adversary as adversary;
pub use uba_core as core;
pub use uba_net as net;
pub use uba_sim as sim;
pub use uba_trace as trace;

/// Compiles and runs every fenced Rust block in `README.md` as a doctest,
/// so the quickstart snippet can never drift from the actual API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
