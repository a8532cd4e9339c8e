//! The fleet runner: N independent buildings across worker threads.
//!
//! Each instance is a complete scenario — kernel stack plus plant —
//! booted and driven entirely on one worker thread (scenarios hold
//! `Rc<RefCell<…>>` plant state and never cross threads). The fleet is
//! split into *contiguous per-worker batches*: each [`WorkerPool`] job
//! runs its instances one after another on a single engine, checked out
//! of its [`InstancePool`], advanced to the horizon in one `run_for`,
//! reported, and recycled for the next index — so a worker's live heap
//! is one instance's, whatever the fleet size. Each report is written
//! once, into the worker's own chunk of one preallocated slot buffer, so
//! only the final join synchronizes. Thread scheduling decides only
//! *when* a batch computes, never *what* it computes: every per-instance
//! RNG seed derives from the root seed and instance index alone, which is
//! what makes the [`FleetReport`] deterministic under any worker count.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use bas_core::scenario::{Platform, ScenarioConfig};
use bas_core::EngineSnapshot;
use bas_sim::time::SimDuration;
use bas_sim::WorkerPool;

use crate::instances::InstancePool;
use crate::report::{FleetReport, InstanceReport};
use crate::seed::instance_seed;

/// How fleet instances come into existence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BootMode {
    /// Boot one warm template per fleet, fork instances from it and
    /// recycle idle engines in place (the default; byte-identical to
    /// [`BootMode::Cold`] by the `bas-core` snapshot soundness guards).
    #[default]
    Snapshot,
    /// Boot every instance from scratch (the pre-snapshot path; kept as
    /// the reference the byte-identity tests compare against).
    Cold,
}

/// A [`FleetConfig`] shape the validated constructors reject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetConfigError {
    /// `instances == 0`: a fleet needs at least one building.
    ZeroInstances,
}

impl std::fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetConfigError::ZeroInstances => {
                write!(f, "fleet needs at least one instance")
            }
        }
    }
}

impl std::error::Error for FleetConfigError {}

/// Configuration of one fleet run.
#[derive(Clone)]
pub struct FleetConfig {
    /// Platform every instance runs on.
    pub platform: Platform,
    /// Number of building instances.
    pub instances: usize,
    /// Worker threads (clamped to `1..=instances`).
    pub workers: usize,
    /// Root seed; instance `i` runs with
    /// [`instance_seed`]`(root_seed, i)`.
    pub root_seed: u64,
    /// Simulated horizon per instance.
    pub horizon: SimDuration,
    /// Scenario template for the instances (seed is overwritten per
    /// instance).
    pub template: ScenarioConfig,
    /// How the instances boot.
    pub boot: BootMode,
    /// Upper bound on the engines a worker keeps alive at once. The
    /// runner always keeps one — each worker runs its instances to the
    /// horizon one at a time and recycles the engine for the next — so
    /// every value of at least 1 is met.
    pub max_resident: usize,
}

/// Default for [`FleetConfig::max_resident`]: the cohort size callers
/// that hold several engines at once (such as the snapshot boot
/// benchmark in `exp_fleet_scale`) use.
pub const DEFAULT_MAX_RESIDENT: usize = 256;

impl FleetConfig {
    /// A benign fleet with the default quiet scenario and a 30-minute
    /// horizon.
    ///
    /// # Panics
    ///
    /// Panics when the shape is invalid (`instances == 0`); use
    /// [`FleetConfig::try_benign`] to handle that as a value.
    pub fn benign(platform: Platform, instances: usize, workers: usize) -> FleetConfig {
        FleetConfig::try_benign(platform, instances, workers).expect("valid benign fleet shape")
    }

    /// A benign fleet, validated at construction: rejects
    /// `instances == 0` and clamps `workers` into `1..=instances`.
    pub fn try_benign(
        platform: Platform,
        instances: usize,
        workers: usize,
    ) -> Result<FleetConfig, FleetConfigError> {
        if instances == 0 {
            return Err(FleetConfigError::ZeroInstances);
        }
        Ok(FleetConfig {
            platform,
            instances,
            workers: workers.clamp(1, instances),
            root_seed: 42,
            horizon: SimDuration::from_mins(30),
            template: ScenarioConfig::quiet(),
            boot: BootMode::default(),
            max_resident: DEFAULT_MAX_RESIDENT,
        })
    }

    /// Checks the invariants [`FleetConfig::try_benign`] establishes
    /// (fields are public, so hand-built configs can break them).
    pub fn validate(&self) -> Result<(), FleetConfigError> {
        if self.instances == 0 {
            return Err(FleetConfigError::ZeroInstances);
        }
        Ok(())
    }
}

/// Wall-clock throughput of a fleet run. Deliberately *outside*
/// [`FleetReport`]: timing and worker count vary run to run, the report
/// must not.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WallStats {
    /// Worker threads actually used.
    pub workers: usize,
    /// Instances per worker's contiguous range (the last may be
    /// smaller); each worker runs its range one instance at a time.
    pub batch_size: usize,
    /// Elapsed wall-clock seconds.
    pub wall_seconds: f64,
    /// Simulated seconds advanced per wall-clock second.
    pub sim_seconds_per_wall_second: f64,
    /// IPC messages delivered per wall-clock second.
    pub ipc_messages_per_wall_second: f64,
    /// Web requests completed per wall-clock second (0 for fleets
    /// without traffic; the E18 headline number).
    pub requests_per_wall_second: f64,
    /// Per-worker busy fraction (batch compute time / run wall time),
    /// one entry per worker; tail imbalance shows up here.
    pub worker_utilization: Vec<f64>,
}

/// A completed fleet run: the deterministic report plus wall-clock
/// throughput.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Simulation outcome (pure function of the configuration).
    pub report: FleetReport,
    /// Wall-clock throughput (varies run to run).
    pub wall: WallStats,
}

/// Runs the fleet on a [`WorkerPool`] of [`FleetConfig::workers`]
/// threads and aggregates the report.
pub fn run_fleet(config: &FleetConfig) -> FleetRun {
    run_fleet_with(&WorkerPool::new(config.workers), config)
}

/// Runs the fleet on an existing pool and aggregates the report.
///
/// Instances are split into contiguous batches — one [`WorkerPool::map`]
/// job per worker, each on its thread for the whole run — so the report
/// is a pure function of the configuration regardless of worker count
/// or pool size.
pub fn run_fleet_with(pool: &WorkerPool, config: &FleetConfig) -> FleetRun {
    // Degenerate shapes are rejected at construction (`try_benign`); a
    // hand-built empty config still gets an empty report, not a panic.
    if config.validate().is_err() {
        return FleetRun {
            report: FleetReport::aggregate(config.platform, config.root_seed, None, Vec::new()),
            wall: WallStats::default(),
        };
    }
    let workers = config.workers.clamp(1, config.instances).min(pool.size());
    let batch_size = config.instances.div_ceil(workers);
    // Rounding the batch size up can leave trailing workers nothing to
    // do (33 instances on 8 workers: 7 batches of 5 cover them all).
    let workers = config.instances.div_ceil(batch_size);
    // The warm template boots once per fleet; every worker forks its
    // instances from the same shared snapshot. Cold mode skips the
    // capture (its instances never touch it).
    let snapshot = match config.boot {
        BootMode::Snapshot => Some(Arc::new(EngineSnapshot::capture(
            config.platform,
            &config.template,
        ))),
        BootMode::Cold => None,
    };
    // One report slot per instance, allocated once: each worker writes
    // its contiguous range into its own disjoint chunk, so a report is
    // written once, in place, and never copied into a merged buffer.
    let mut slots: Vec<Option<InstanceReport>> = Vec::new();
    slots.resize_with(config.instances, || None);

    let start = Instant::now();
    // Job `w` takes chunk `w` exactly once; the lock is never contended
    // and only hands the `&mut` chunk across the `Fn` job boundary.
    let chunks: Vec<Mutex<&mut [Option<InstanceReport>]>> =
        slots.chunks_mut(batch_size).map(Mutex::new).collect();
    let busy = pool.map(workers, |w| {
        let mut chunk = chunks[w].lock().expect("each chunk has one job");
        run_batch(config, snapshot.clone(), w * batch_size, &mut chunk)
    });
    drop(chunks);

    let wall_seconds = start.elapsed().as_secs_f64();
    let worker_utilization = busy
        .into_iter()
        .map(|busy_seconds| (busy_seconds / wall_seconds.max(1e-9)).min(1.0))
        .collect();
    // `Option<InstanceReport>` has the report's size and alignment, so
    // the unwrap reuses the slot buffer instead of allocating another.
    let per_instance = slots
        .into_iter()
        .map(|slot| slot.expect("every instance reported"))
        .collect();

    let report = FleetReport::aggregate(config.platform, config.root_seed, None, per_instance);
    let denom = wall_seconds.max(1e-9);
    let wall = WallStats {
        workers,
        batch_size,
        wall_seconds,
        sim_seconds_per_wall_second: report.totals.sim_seconds / denom,
        ipc_messages_per_wall_second: report.totals.ipc_messages as f64 / denom,
        requests_per_wall_second: report.totals.requests as f64 / denom,
        worker_utilization,
    };
    FleetRun { report, wall }
}

/// One worker's whole run: instance `first + k` for each slot `k` of
/// `reports`, in order, on one engine drawn from the worker's
/// [`InstancePool`] and returned to it after its report, which is
/// written straight into its slot. Returns the busy seconds spent (for
/// [`WallStats::worker_utilization`]).
fn run_batch(
    config: &FleetConfig,
    snapshot: Option<Arc<EngineSnapshot>>,
    first: usize,
    reports: &mut [Option<InstanceReport>],
) -> f64 {
    let t0 = Instant::now();
    let mut pool = InstancePool::for_config(config, snapshot);
    for (k, slot) in reports.iter_mut().enumerate() {
        let index = first + k;
        let mut engine = pool.checkout(config, index);
        engine.run_for(config.horizon);
        let seed = instance_seed(config.root_seed, index);
        *slot = Some(InstanceReport::from_scenario(index, seed, engine.as_ref()));
        pool.checkin(engine);
    }
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_fleet_runs_and_aggregates() {
        let mut config = FleetConfig::benign(Platform::Minix, 3, 2);
        config.horizon = SimDuration::from_mins(5);
        let run = run_fleet(&config);
        assert_eq!(run.report.instances, 3);
        assert_eq!(run.report.per_instance.len(), 3);
        assert!(run.report.totals.ipc_messages > 0);
        assert_eq!(run.report.totals.critical_losses, 0);
        assert!(run.report.per_instance.iter().all(|r| r.critical_alive));
        // Indices are dense and ordered regardless of completion order.
        for (i, r) in run.report.per_instance.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.seed, instance_seed(config.root_seed, i));
            assert!((r.sim_seconds - 300.0).abs() < 1e-9);
        }
        assert!(run.wall.workers == 2);
        assert!(run.wall.sim_seconds_per_wall_second > 0.0);
    }

    #[test]
    fn chunked_claiming_covers_every_instance_exactly_once() {
        // Awkward instance/worker ratios must still produce dense,
        // ordered indices (chunk arithmetic cannot drop or double-run),
        // and every worker counted must have had instances to run.
        for (instances, workers, used) in [
            (1, 1, 1),
            (5, 2, 2),
            (5, 4, 3),
            (16, 3, 3),
            (17, 4, 4),
            (33, 8, 7),
        ] {
            let mut config = FleetConfig::benign(Platform::Minix, instances, workers);
            config.horizon = SimDuration::from_mins(1);
            let run = run_fleet(&config);
            assert_eq!(run.report.per_instance.len(), instances);
            assert_eq!(run.wall.workers, used, "{instances}x{workers}");
            assert_eq!(run.wall.worker_utilization.len(), used);
            for (i, r) in run.report.per_instance.iter().enumerate() {
                assert_eq!(r.index, i, "{instances}x{workers}");
                assert_eq!(r.seed, instance_seed(config.root_seed, i));
            }
        }
    }

    #[test]
    fn zero_instance_fleet_is_rejected_at_construction() {
        assert_eq!(
            FleetConfig::try_benign(Platform::Minix, 0, 4).err(),
            Some(FleetConfigError::ZeroInstances)
        );
        assert!(FleetConfigError::ZeroInstances
            .to_string()
            .contains("one instance"));
    }

    #[test]
    fn try_benign_clamps_workers_into_instance_range() {
        let config = FleetConfig::try_benign(Platform::Minix, 3, 99).expect("valid");
        assert_eq!(config.workers, 3);
        let config = FleetConfig::try_benign(Platform::Minix, 3, 0).expect("valid");
        assert_eq!(config.workers, 1);
    }

    #[test]
    fn degenerate_config_yields_empty_run_not_panic() {
        // Fields are public; a hand-built zero-instance config must not
        // bring down the runner.
        let mut config = FleetConfig::benign(Platform::Minix, 1, 1);
        config.instances = 0;
        let run = run_fleet(&config);
        assert_eq!(run.report.instances, 0);
        assert!(run.report.per_instance.is_empty());
    }

    #[test]
    fn snapshot_and_cold_boot_agree_across_recycling() {
        // Every instance after a worker's first runs on a recycled
        // engine; the reports must still be byte-identical.
        let mut config = FleetConfig::benign(Platform::Minix, 5, 2);
        config.horizon = SimDuration::from_mins(2);
        let snap = run_fleet(&config);
        config.boot = BootMode::Cold;
        let cold = run_fleet(&config);
        assert_eq!(snap.report.to_json(), cold.report.to_json());
    }

    #[test]
    fn chunked_advance_equals_one_shot_advance() {
        // Splitting a run into several calls must not change what an
        // instance computes.
        let mut config = FleetConfig::benign(Platform::Minix, 2, 1);
        config.horizon = SimDuration::from_mins(10);
        let mut pool = InstancePool::new(None);
        for index in 0..2 {
            let seed = instance_seed(config.root_seed, index);
            let mut chunked = pool.checkout(&config, index);
            for _ in 0..5 {
                chunked.run_for(SimDuration::from_mins(2));
            }
            let mut oneshot = pool.checkout(&config, index);
            oneshot.run_for(config.horizon);
            assert_eq!(
                InstanceReport::from_scenario(index, seed, chunked.as_ref()),
                InstanceReport::from_scenario(index, seed, oneshot.as_ref())
            );
        }
    }
}
