//! Per-worker instance pool: the fleet side of snapshot/fork boot.
//!
//! Cold-booting every instance of a 100k+ fleet repeats policy lowering
//! and kernel construction 100k times. An [`InstancePool`] owns one
//! worker's supply of engines: checked-out engines come from a recycling
//! freelist (reset in place to the boot image via
//! [`bas_core::EngineSnapshot::recycle`]) or, when the freelist is dry,
//! are forked fresh from the shared snapshot; checked-in engines return
//! to the freelist for the next instance. In [`BootMode::Cold`] the pool
//! degenerates to plain `boot_platform` per checkout and drops on
//! checkin, which is exactly the pre-snapshot fleet — the two modes
//! produce byte-identical reports (guarded by `tests/snapshot_fork.rs`).
//!
//! The pool is strictly thread-local (engines hold `Rc` plant state);
//! only the [`bas_core::EngineSnapshot`] behind the `Arc` is shared
//! across workers.

use std::sync::Arc;

use bas_core::scenario::Scenario;
use bas_core::EngineSnapshot;

use crate::engine::{BootMode, FleetConfig};
use crate::seed::instance_seed;

/// One worker's engine supply: a shared boot snapshot plus a local
/// freelist of idle engines awaiting recycling.
pub struct InstancePool {
    snapshot: Option<Arc<EngineSnapshot>>,
    free: Vec<Box<dyn Scenario>>,
    materialized: u64,
    recycled: u64,
}

impl InstancePool {
    /// A pool forking from `snapshot`; pass `None` for cold-boot mode.
    pub fn new(snapshot: Option<Arc<EngineSnapshot>>) -> InstancePool {
        InstancePool {
            snapshot,
            free: Vec::new(),
            materialized: 0,
            recycled: 0,
        }
    }

    /// Builds the pool a fleet worker should use under `config`:
    /// [`BootMode::Cold`] fleets get a cold pool, snapshot-mode fleets
    /// fork from `snapshot`.
    pub fn for_config(config: &FleetConfig, snapshot: Option<Arc<EngineSnapshot>>) -> InstancePool {
        match config.boot {
            BootMode::Snapshot => InstancePool::new(snapshot),
            BootMode::Cold => InstancePool::new(None),
        }
    }

    /// Produces the engine for fleet instance `index`, seeded with
    /// [`instance_seed`]`(config.root_seed, index)`: recycled from the
    /// freelist when possible, forked from the snapshot otherwise, and
    /// cold-booted when the pool has no snapshot.
    ///
    /// The engine comes with its kernel trace off: no report reads it,
    /// and it would grow with every kernel event. For a traced run of the
    /// same instance, [`EngineSnapshot::materialize`] (or
    /// `bas_core::boot_platform`) the same seed directly.
    pub fn checkout(&mut self, config: &FleetConfig, index: usize) -> Box<dyn Scenario> {
        let mut engine = self.engine_for(config, index);
        engine.disable_trace();
        engine
    }

    /// [`Self::checkout`]'s engine, before its trace is switched off.
    fn engine_for(&mut self, config: &FleetConfig, index: usize) -> Box<dyn Scenario> {
        let seed = instance_seed(config.root_seed, index);
        let Some(snapshot) = &self.snapshot else {
            self.materialized += 1;
            let mut scenario_cfg = config.template.clone();
            scenario_cfg.seed = seed;
            return bas_core::boot_platform(config.platform, &scenario_cfg);
        };
        while let Some(mut engine) = self.free.pop() {
            if snapshot.recycle(engine.as_mut(), seed) {
                self.recycled += 1;
                return engine;
            }
            // A non-forkable engine slipped into the freelist (custom
            // overrides); drop it and fall through to a fresh fork.
        }
        self.materialized += 1;
        snapshot.materialize(seed)
    }

    /// Returns an idle engine to the freelist for recycling. Cold pools
    /// drop it: without a snapshot there is no sound reset target.
    pub fn checkin(&mut self, engine: Box<dyn Scenario>) {
        if self.snapshot.is_some() {
            self.free.push(engine);
        }
    }

    /// Engines booted from scratch (cold boots plus snapshot forks).
    pub fn materialized(&self) -> u64 {
        self.materialized
    }

    /// Engines reused via in-place reset.
    pub fn recycled(&self) -> u64 {
        self.recycled
    }

    /// Idle engines currently awaiting recycling.
    pub fn idle(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use bas_core::scenario::Platform;

    use super::*;

    #[test]
    fn snapshot_pool_recycles_after_checkin() {
        let config = FleetConfig::benign(Platform::Minix, 4, 1);
        let snapshot = Arc::new(EngineSnapshot::capture(config.platform, &config.template));
        let mut pool = InstancePool::new(Some(snapshot));
        let a = pool.checkout(&config, 0);
        let b = pool.checkout(&config, 1);
        assert_eq!(pool.materialized(), 2);
        assert_eq!(pool.recycled(), 0);
        pool.checkin(a);
        pool.checkin(b);
        assert_eq!(pool.idle(), 2);
        let _c = pool.checkout(&config, 2);
        assert_eq!(pool.materialized(), 2);
        assert_eq!(pool.recycled(), 1);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn checked_out_engines_run_untraced() {
        // Forked, recycled and cold-booted engines alike: the plant's
        // device writes happen, but the kernel trace keeps none of them.
        let config = FleetConfig::benign(Platform::Sel4, 3, 1);
        let snapshot = Arc::new(EngineSnapshot::capture(config.platform, &config.template));
        for mut pool in [InstancePool::new(Some(snapshot)), InstancePool::new(None)] {
            for index in 0..3 {
                let mut engine = pool.checkout(&config, index);
                engine.run_for(bas_sim::time::SimDuration::from_mins(1));
                assert!(engine.metrics().ipc_messages > 0);
                assert_eq!(engine.trace_count("dev.write"), 0);
                pool.checkin(engine);
            }
        }
    }

    #[test]
    fn cold_pool_drops_on_checkin() {
        let config = FleetConfig::benign(Platform::Linux, 2, 1);
        let mut pool = InstancePool::new(None);
        let a = pool.checkout(&config, 0);
        pool.checkin(a);
        assert_eq!(pool.idle(), 0);
        let _b = pool.checkout(&config, 1);
        assert_eq!(pool.materialized(), 2);
        assert_eq!(pool.recycled(), 0);
    }
}
