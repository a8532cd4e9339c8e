//! The `basbench` benchmark's modules; `src/main.rs` is the command line.

pub mod calib;
pub mod compare;
pub mod json;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;
