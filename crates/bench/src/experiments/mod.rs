//! One module per experiment of EXPERIMENTS.md.
//!
//! Every module exposes `run() -> Vec<Table>`; the tables' shapes (not
//! absolute timings) are the reproduction targets — who wins, by what
//! factor, and where thresholds fall. The real-socket experiments
//! (T11–T15) share one cell grid and one sim/net twin runner, `grid`.

pub mod f1_approx;
pub mod f2_synchrony;
pub mod grid;
pub mod t10_faults;
pub mod t11_net;
pub mod t12_rejoin;
pub mod t13_wan;
pub mod t14_logd;
pub mod t15_byzantine;
pub mod t1_reliable;
pub mod t2_rotor;
pub mod t3_consensus;
pub mod t4_parallel;
pub mod t5_ordering;
pub mod t6_resiliency;
pub mod t7_baselines;
pub mod t8_extensions;
pub mod t9_ablation;
