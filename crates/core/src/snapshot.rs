//! Warm-template engine snapshots: the snapshot/fork boot path.
//!
//! Cold-booting a [`Scenario`] repeats work that is byte-identical across
//! every benign instance of a (platform, scenario-template) pair: policy
//! lowering (the MINIX ACM, the CAmkES→CapDL compile), kernel
//! construction, and the boot-time process population. An
//! [`EngineSnapshot`] captures the *immutable* half of that boot once —
//! policy artifacts shared behind `Arc` — and materializes instances by
//! re-running only the cheap, template-deterministic population against a
//! fresh (or recycled) kernel, re-seeded per instance.
//!
//! ## Soundness
//!
//! Fork-boot must be byte-identical to cold-boot: every downstream
//! determinism gate (fleet byte-identity, fault/race replay, model-checker
//! cross-validation) relies on it. The argument has two halves:
//!
//! - **Shared state is never mutated in place.** The shared artifacts —
//!   ACM, CapDL spec, glue map — are either immutable for the kernel's
//!   lifetime (spec, glue) or copy-on-write behind [`Arc::make_mut`]
//!   (the MINIX ACM under runtime churn). Sharing is therefore
//!   unobservable to the instance.
//! - **Forked mutable state is pristine by construction.** Recycling goes
//!   through `reset_to_boot`, which restores every mutable structure
//!   (process tables, queues, timers, clock, arena, metrics, traces,
//!   quota usage) to its just-constructed value and then re-runs *the
//!   same population code* cold boot runs. An instance cannot distinguish
//!   a recycled kernel from a fresh one, so its whole run is identical.
//!
//! Stacks booted with one-shot overrides (attacker web factories, extra
//! capability grants) refuse to recycle; [`EngineSnapshot`] only captures
//! benign default-override templates, so that gate never fires here.

use std::sync::Arc;

use bas_acm::AccessControlMatrix;
use bas_camkes::codegen::{compile, GlueMap};
use bas_capdl::spec::CapDlSpec;

use crate::platform::linux::{build_linux, LinuxOverrides};
use crate::platform::minix::{build_minix, MinixOverrides};
use crate::platform::sel4::{build_sel4, Sel4Overrides};
use crate::policy;
use crate::scenario::{Platform, Scenario, ScenarioConfig};

/// The shared, immutable boot-time state of one (platform, template)
/// pair, plus the template itself. `Send + Sync`: one snapshot feeds
/// every worker thread of a fleet.
pub struct EngineSnapshot {
    platform: Platform,
    template: ScenarioConfig,
    artifacts: Artifacts,
}

/// Per-platform policy artifacts captured once and shared per instance.
enum Artifacts {
    /// The lowered ACM; each kernel holds an `Arc` clone and copies on
    /// write only under runtime churn.
    Minix { acm: Arc<AccessControlMatrix> },
    /// The compiled CapDL spec and glue map; each boot re-realizes them
    /// instead of re-running the CAmkES compiler.
    Sel4 {
        spec: Arc<CapDlSpec>,
        glue: Arc<GlueMap>,
    },
    /// The mq ACL plan is tiny and rebuilt inline; nothing to share.
    Linux,
}

// One snapshot is shared across fleet worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EngineSnapshot>();
};

impl EngineSnapshot {
    /// Captures the immutable boot-time state of `template` on
    /// `platform`, running each policy-lowering step exactly once.
    pub fn capture(platform: Platform, template: &ScenarioConfig) -> EngineSnapshot {
        let artifacts = match platform {
            Platform::Minix => Artifacts::Minix {
                acm: Arc::new(policy::scenario_acm()),
            },
            Platform::Sel4 => {
                let assembly = policy::scenario_assembly();
                let (spec, glue) = compile(&assembly).expect("scenario assembly is valid");
                Artifacts::Sel4 {
                    spec: Arc::new(spec),
                    glue: Arc::new(glue),
                }
            }
            Platform::Linux => Artifacts::Linux,
        };
        EngineSnapshot {
            platform,
            template: template.clone(),
            artifacts,
        }
    }

    /// The captured platform.
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// The captured scenario template (seed field is a placeholder;
    /// materialization overwrites it).
    pub fn template(&self) -> &ScenarioConfig {
        &self.template
    }

    /// The template with `seed` substituted.
    fn config_for(&self, seed: u64) -> ScenarioConfig {
        let mut config = self.template.clone();
        config.seed = seed;
        config
    }

    /// Boots a fresh instance against the shared artifacts — a fork:
    /// kernel construction and population run, policy lowering does not.
    pub fn materialize(&self, seed: u64) -> Box<dyn Scenario> {
        let config = self.config_for(seed);
        match &self.artifacts {
            Artifacts::Minix { acm } => Box::new(build_minix(
                &config,
                MinixOverrides {
                    acm: Some(acm.clone()),
                    ..MinixOverrides::default()
                },
            )),
            Artifacts::Sel4 { spec, glue } => Box::new(build_sel4(
                &config,
                Sel4Overrides {
                    compiled: Some((spec.clone(), glue.clone())),
                    ..Sel4Overrides::default()
                },
            )),
            Artifacts::Linux => Box::new(build_linux(&config, LinuxOverrides::default())),
        }
    }

    /// Recycles an idle instance in place for `seed`, reusing its live
    /// allocations. Returns `false` when the engine cannot guarantee
    /// cold-boot identity (the caller should [`Self::materialize`] a
    /// fresh one instead and drop this engine).
    pub fn recycle(&self, engine: &mut dyn Scenario, seed: u64) -> bool {
        engine.reset_to_boot(&self.config_for(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bas_sim::time::SimDuration;

    /// The whole soundness claim, concentrated: recycling a *used* engine
    /// replays a different seed byte-identically to a cold boot of that
    /// seed, on every platform.
    #[test]
    fn recycled_engine_matches_cold_boot() {
        let template = ScenarioConfig::quiet();
        let horizon = SimDuration::from_mins(2);
        for platform in [Platform::Minix, Platform::Sel4, Platform::Linux] {
            let snapshot = EngineSnapshot::capture(platform, &template);

            // Run a first incarnation to dirty every mutable structure.
            let mut engine = snapshot.materialize(7);
            engine.run_for(horizon);

            // Recycle for a different seed and replay.
            assert!(snapshot.recycle(engine.as_mut(), 1234), "{platform}");
            engine.run_for(horizon);

            let mut cold = {
                let mut config = template.clone();
                config.seed = 1234;
                crate::engine::boot_platform(platform, &config)
            };
            cold.run_for(horizon);

            assert_eq!(engine.now(), cold.now(), "{platform} clock diverged");
            let m = engine.metrics();
            let mc = cold.metrics();
            assert_eq!(m, mc, "{platform} metrics diverged");
            assert_eq!(
                engine.alive_names(),
                cold.alive_names(),
                "{platform} process table diverged"
            );
            assert_eq!(
                engine.web_responses(),
                cold.web_responses(),
                "{platform} web responses diverged"
            );
            let ps = crate::scenario::plant_snapshot(engine.as_ref());
            let ps_cold = crate::scenario::plant_snapshot(cold.as_ref());
            assert_eq!(ps, ps_cold, "{platform} plant diverged");
        }
    }

    /// The pristine fast path: recycling an engine that was *never
    /// stepped* (the fleet-boot benchmark pattern — checkout, checkin,
    /// checkout again) skips the kernel reset entirely, and must still be
    /// byte-identical to a cold boot of the new seed.
    #[test]
    fn pristine_recycle_matches_cold_boot() {
        let template = ScenarioConfig::quiet();
        let horizon = SimDuration::from_mins(2);
        for platform in [Platform::Minix, Platform::Sel4, Platform::Linux] {
            let snapshot = EngineSnapshot::capture(platform, &template);

            // Materialized for seed 7, recycled for seed 1234 without a
            // single step in between.
            let mut engine = snapshot.materialize(7);
            assert!(snapshot.recycle(engine.as_mut(), 1234), "{platform}");
            engine.run_for(horizon);

            let mut cold = {
                let mut config = template.clone();
                config.seed = 1234;
                crate::engine::boot_platform(platform, &config)
            };
            cold.run_for(horizon);

            assert_eq!(engine.now(), cold.now(), "{platform} clock diverged");
            assert_eq!(
                engine.metrics(),
                cold.metrics(),
                "{platform} metrics diverged"
            );
            assert_eq!(
                engine.alive_names(),
                cold.alive_names(),
                "{platform} process table diverged"
            );
            assert_eq!(
                engine.web_responses(),
                cold.web_responses(),
                "{platform} web responses diverged"
            );
            let ps = crate::scenario::plant_snapshot(engine.as_ref());
            let ps_cold = crate::scenario::plant_snapshot(cold.as_ref());
            assert_eq!(ps, ps_cold, "{platform} plant diverged");
        }
    }

    /// Materialized (never-run) instances are also cold-boot identical.
    #[test]
    fn materialized_engine_matches_cold_boot() {
        let template = ScenarioConfig::quiet();
        for platform in [Platform::Minix, Platform::Sel4, Platform::Linux] {
            let snapshot = EngineSnapshot::capture(platform, &template);
            let mut forked = snapshot.materialize(99);
            let mut cold = {
                let mut config = template.clone();
                config.seed = 99;
                crate::engine::boot_platform(platform, &config)
            };
            let horizon = SimDuration::from_mins(1);
            forked.run_for(horizon);
            cold.run_for(horizon);
            assert_eq!(forked.metrics(), cold.metrics(), "{platform}");
            assert_eq!(forked.now(), cold.now(), "{platform}");
        }
    }

    /// Attack-override stacks refuse to recycle (the byte-identity gate).
    #[test]
    fn overridden_stack_refuses_recycle() {
        use crate::platform::minix::{build_minix, MinixOverrides};
        use bas_minix::syscall::{Reply, Syscall};
        use bas_sim::script::Script;

        let config = ScenarioConfig::quiet();
        let overrides = MinixOverrides {
            web_factory: Some(Box::new(|| {
                Box::new(Script::<Syscall, Reply>::looping(vec![Syscall::Sleep {
                    duration: SimDuration::from_secs(3_600),
                }]))
            })),
            ..MinixOverrides::default()
        };
        let mut engine = build_minix(&config, overrides);
        let snapshot = EngineSnapshot::capture(Platform::Minix, &config);
        assert!(!snapshot.recycle(&mut engine, 1));
    }
}
