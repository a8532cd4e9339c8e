//! # bas-fleet — parallel fleets of building instances
//!
//! Scales the single-building scenario of `bas-core` out to a *fleet*:
//! N independent building instances, each a full kernel stack plus
//! plant with its own deterministic virtual clock and a per-instance
//! RNG seed derived from one root seed, executed across `std::thread`
//! workers and aggregated into one serializable [`FleetReport`].
//!
//! The load-bearing property is **determinism under parallelism**: the
//! report (and its [`report::FleetReport::to_json`] bytes) depends only
//! on the fleet configuration and root seed — never on worker count,
//! thread scheduling, or wall-clock time. Wall-clock throughput is
//! reported separately in [`engine::WallStats`].
//!
//! - [`seed`] — per-instance seed derivation (SplitMix64 over
//!   root + index·γ),
//! - [`instances`] — [`instances::InstancePool`], the snapshot/fork
//!   boot path: per-worker engine recycling against one shared
//!   [`bas_core::EngineSnapshot`],
//! - [`engine`] — [`engine::FleetConfig`] and [`engine::run_fleet`],
//!   which spreads contiguous per-worker batches over a [`WorkerPool`];
//!   each worker runs its instances one at a time on one recycled
//!   engine, so a worker's live heap does not grow with the fleet,
//! - [`report`] — [`FleetReport`] and friends, with hand-rolled
//!   deterministic JSON,
//! - [`json`] — the tiny ordered JSON writer the reports (and
//!   `bas-bench`) serialize through.
//!
//! ```no_run
//! use bas_core::scenario::Platform;
//! use bas_fleet::{run_fleet, FleetConfig};
//!
//! let run = run_fleet(&FleetConfig::benign(Platform::Minix, 16, 4));
//! assert_eq!(run.report.totals.critical_losses, 0);
//! println!("{}", run.report.to_json());
//! ```

pub mod engine;
pub mod instances;
pub mod json;
pub mod report;
pub mod seed;

pub use bas_sim::WorkerPool;
pub use engine::{
    run_fleet, run_fleet_with, BootMode, FleetConfig, FleetConfigError, FleetRun, WallStats,
    DEFAULT_MAX_RESIDENT,
};
pub use instances::InstancePool;
pub use json::Json;
pub use report::{FleetReport, FleetTotals, InstanceReport, LatencyHistogram, RequestStats};
pub use seed::instance_seed;
