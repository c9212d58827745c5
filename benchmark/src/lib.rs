//! The repo's benchmark: four workloads — `sim-byz-n64`, `net-clean-n16`,
//! `logd-small`, `logd-large` — measured end to end with tracing off and
//! layer by layer in a separate traced run. Everything is measured from
//! outside the program: by timing calls into public functions, wrapping
//! `Process` impls, reading public report fields and runtime registries,
//! and reading `/proc/self`. See `README.md` beside this crate.

pub mod check;
pub mod child;
pub mod compare;
pub mod consensus;
pub mod json;
pub mod logd;
pub mod netcost;
pub mod outcome;
pub mod probe;
pub mod procfs;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
