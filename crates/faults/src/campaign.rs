//! The campaign runner: plans × platforms, deterministically parallel.
//!
//! Cells are indexed plan-major (`plan_idx * platforms + platform_idx`)
//! and scheduled through `bas_fleet::WorkerPool::map`, which preserves
//! index order in its output no matter how many workers claim tickets. Each
//! *plan* gets one SplitMix64-derived seed shared by all three
//! platforms, so a plan's rows differ only by platform behavior, never
//! by sensor noise. The report therefore renders byte-identically at
//! any worker count.

use bas_core::engine::{PlatformKernel, ScenarioEngine};
use bas_core::platform::linux::LinuxStack;
use bas_core::platform::minix::MinixStack;
use bas_core::platform::sel4::Sel4Stack;
use bas_core::scenario::{Platform, ScenarioConfig};
use bas_fleet::{instance_seed, Json, WorkerPool};
use bas_sim::time::SimDuration;

use crate::inject;
use crate::plan::FaultPlan;
use crate::score::{grade, Scorecard};

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Root seed; per-plan seeds derive from it via SplitMix64.
    pub root_seed: u64,
    /// Virtual run length per cell.
    pub horizon: SimDuration,
    /// Worker threads (results are identical at any count).
    pub workers: usize,
    /// Platforms to sweep, in report order.
    pub platforms: Vec<Platform>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            root_seed: 42,
            horizon: SimDuration::from_mins(30),
            workers: 1,
            platforms: vec![Platform::Linux, Platform::Minix, Platform::Sel4],
        }
    }
}

/// The finished matrix.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Root seed the campaign derived per-plan seeds from.
    pub root_seed: u64,
    /// Virtual run length per cell, seconds.
    pub horizon_s: u64,
    /// Platform labels, in cell order.
    pub platforms: Vec<String>,
    /// Plan names, in cell order.
    pub plan_names: Vec<String>,
    /// One scorecard per (plan, platform), plan-major.
    pub cells: Vec<Scorecard>,
}

impl CampaignReport {
    /// Deterministic JSON form (no wall-clock, no environment).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str("bas-faults/v1".to_string())),
            ("root_seed", Json::UInt(self.root_seed)),
            ("horizon_s", Json::UInt(self.horizon_s)),
            (
                "platforms",
                Json::Arr(
                    self.platforms
                        .iter()
                        .map(|p| Json::Str(p.clone()))
                        .collect(),
                ),
            ),
            (
                "plans",
                Json::Arr(
                    self.plan_names
                        .iter()
                        .map(|p| Json::Str(p.clone()))
                        .collect(),
                ),
            ),
            (
                "cells",
                Json::Arr(self.cells.iter().map(Scorecard::to_json).collect()),
            ),
        ])
    }
}

fn run_cell<K: PlatformKernel>(
    plan: &FaultPlan,
    seed: u64,
    horizon: SimDuration,
    overrides: K::Overrides,
) -> Scorecard {
    let mut config = ScenarioConfig::quiet();
    config.seed = seed;
    let band_c = config.plant.band_c;
    let mut engine = ScenarioEngine::<K>::boot(&config, overrides);
    let log = inject::run(&mut engine, plan, horizon);
    grade(plan.name(), seed, &engine, &log, band_c)
}

/// Runs every plan on every configured platform and assembles the
/// matrix. Deterministic: same plans + same config ⇒ byte-identical
/// [`CampaignReport::to_json`] regardless of `workers`.
pub fn run_campaign(plans: &[FaultPlan], config: &CampaignConfig) -> CampaignReport {
    let nplat = config.platforms.len();
    let cells = WorkerPool::new(config.workers).map(plans.len() * nplat, |index| {
        let plan = &plans[index / nplat];
        let platform = config.platforms[index % nplat];
        let seed = instance_seed(config.root_seed, index / nplat);
        match platform {
            // Each platform runs in its native availability posture:
            // MINIX with its reincarnation-style supervisor (the
            // self-repair story the paper leans on), Linux and seL4 with
            // nothing — they have no supervisor to turn on.
            Platform::Minix => run_cell::<MinixStack>(
                plan,
                seed,
                config.horizon,
                bas_core::platform::minix::MinixOverrides {
                    supervise: true,
                    ..Default::default()
                },
            ),
            Platform::Linux => {
                run_cell::<LinuxStack>(plan, seed, config.horizon, Default::default())
            }
            Platform::Sel4 => run_cell::<Sel4Stack>(plan, seed, config.horizon, Default::default()),
        }
    });
    CampaignReport {
        root_seed: config.root_seed,
        horizon_s: config.horizon.as_secs(),
        platforms: config.platforms.iter().map(|p| p.to_string()).collect(),
        plan_names: plans.iter().map(|p| p.name().to_string()).collect(),
        cells,
    }
}
