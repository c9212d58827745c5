//! # uba-sim — the *id-only* model as an executable substrate
//!
//! A deterministic simulator for the system model of *"Byzantine Agreement
//! with Unknown Participants and Failures"* (Khanchandani & Wattenhofer,
//! PODC 2020):
//!
//! - `n` nodes with unique, non-consecutive identifiers ([`NodeId`],
//!   [`IdAllocator`]); **no node knows `n` or `f`**;
//! - synchronous rounds ([`SyncEngine`]): messages sent in round `r` arrive
//!   in round `r + 1`; broadcasts reach every present node including the
//!   sender; duplicate `(sender, payload)` pairs within a round are
//!   discarded; point-to-point sends are only allowed toward nodes the
//!   sender has heard from;
//! - a full-information **rushing** Byzantine adversary ([`Adversary`])
//!   controlling up to `f` nodes, able to equivocate per recipient, stay
//!   silent toward arbitrary subsets, and lie about received messages —
//!   but unable to forge the sender id of a direct message;
//! - dynamic membership ([`ChurnSchedule`]) with adversary-chosen joins and
//!   leaves, and
//! - deterministic benign-fault injection ([`FaultPlan`]: crash-stop,
//!   crash-recovery, omission and lossy links) with online invariant
//!   monitoring ([`RoundMonitor`]).
//!
//! The paper's impossibility runs need no second engine: a cross-partition
//! delay of `d` rounds is a [`FaultPlan`] that drops every cross-partition
//! message sent before round `d` (`uba-core`'s `lower_bounds`).
//!
//! Protocols implement [`Process`] and are driven by the engine; the
//! algorithms themselves live in the `uba-core` crate. What one round does
//! to one process — receive what was sent to it in the previous round,
//! compute, queue its sends, and leave the computation once terminated — is
//! defined once, by [`Stepper`]: the engine and the `uba-net` transport
//! (live rounds and journal replay) step and replay through it, and add
//! only delivery, faults or sockets around it.
//!
//! # Example
//!
//! ```
//! use uba_sim::{sparse_ids, testutil::CollectAll, SyncEngine};
//!
//! // Three correct nodes broadcast their ids and everyone hears everyone.
//! let ids = sparse_ids(3, 42);
//! let mut engine = SyncEngine::builder()
//!     .correct_many(ids.iter().map(|&id| CollectAll::new(id, 2)))
//!     .build();
//! let done = engine.run_to_completion(4)?;
//! for heard in done.outputs.values() {
//!     assert_eq!(heard.len(), 3);
//! }
//! # Ok::<(), uba_sim::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The delivery hot path must share payloads explicitly (`MsgRef::clone` /
// `Arc::clone`), never hide a refcount bump behind a generic-looking
// `.clone()` that could silently become a deep clone after a refactor.
#![deny(clippy::clone_on_ref_ptr)]

mod adversary;
mod churn;
mod engine;
mod faults;
mod id;
mod message;
mod monitor;
mod process;
mod rng;
mod stats;
pub mod testutil;

pub use adversary::{Adversary, AdversaryOutbox, AdversaryView, FnAdversary, NoAdversary};
pub use churn::{ChurnAction, ChurnSchedule};
pub use engine::{Completion, EngineBuilder, EngineError, ObserveFn, SyncEngine};
pub use faults::{Fault, FaultPlan, FaultUniverse};
pub use id::{consecutive_ids, sparse_ids, IdAllocator, NodeId};
pub use message::{Dest, Envelope, Inbox, InboxIter, MsgRef, Outbox, Outgoing, Payload, Segment};
pub use monitor::{MonitorSet, MonitorView, RoundMonitor, ViolationReport};
pub use process::{Context, Process, Stepper};
pub use rng::{derive, seeded};
pub use stats::Stats;

/// The structured tracing vocabulary and tracers (re-exported from
/// [`uba_trace`]); install one via [`EngineBuilder::tracer`] and an observe
/// hook via [`EngineBuilder::observe`].
pub use uba_trace as trace;
pub use uba_trace::{NodeSnapshot, NoopTracer, TraceEvent, Tracer};
