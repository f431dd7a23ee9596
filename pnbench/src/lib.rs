//! End-to-end and per-layer benchmark of the power-neutral campaign
//! stack, driven entirely through the crates' public APIs. See
//! `NOTES.md` beside this package for the workloads and metrics.

pub mod layers;
pub mod stats;
pub mod trace;
pub mod workloads;
