//! Seeded churn scenarios: live kernels under deterministic capability
//! mutation schedules.
//!
//! Each scenario boots the real five-process stack on one platform,
//! enables the kernel's capability-event stream, runs the lockstep
//! engine under a `bas-faults` schedule of [`FaultKind::CapChurn`]
//! events, and records the exact race kinds the detector must
//! (and must not) find. The catalog is deliberately asymmetric across
//! platforms, because the kernels *are*: a timed revoke between IPC
//! periods is clean on MINIX and seL4 (the next admission check denies
//! it) but races on Linux, where an mq descriptor opened before the
//! revoke stays usable forever — the DAC check happens only at
//! `mq_open`. Armed schedules (fire right after the Nth successful
//! admission check) land inside the check→use window deterministically
//! on every platform, which is what makes microsecond-wide rendezvous
//! TOCTOU reproducible in a seeded catalog.

use bas_core::engine::{PlatformKernel, ScenarioEngine};
use bas_core::platform::linux::LinuxStack;
use bas_core::platform::minix::MinixStack;
use bas_core::platform::sel4::Sel4Stack;
use bas_core::proto::names;
use bas_core::scenario::{Platform, ScenarioConfig};
use bas_faults::inject;
use bas_faults::plan::{FaultEvent, FaultKind, FaultPlan};
use bas_sim::caps::{CapChurnOp, CapTrace, ChurnKind};
use bas_sim::time::SimDuration;

use super::detect::RaceKind;

/// One seeded churn scenario with its expected detector outcome.
pub struct ChurnScenario {
    /// Stable id, `<platform-key>/<slug>`.
    pub name: String,
    /// The platform under churn.
    pub platform: Platform,
    /// The churn schedule, expressed as a regular fault plan.
    pub plan: FaultPlan,
    /// Virtual time to run.
    pub horizon: SimDuration,
    /// The exact *set* of race kinds the detector must report (empty =
    /// the trace must be race-free; the zero-false-positive half).
    pub expect: Vec<RaceKind>,
    /// Why the expectation is what it is.
    pub note: &'static str,
}

fn key(platform: Platform) -> &'static str {
    match platform {
        Platform::Linux => "linux",
        Platform::Minix => "minix",
        Platform::Sel4 => "sel4",
    }
}

fn churn(at: SimDuration, op: CapChurnOp) -> FaultEvent {
    FaultEvent::new(
        at,
        FaultKind::CapChurn {
            op,
            arm_after_checks: None,
        },
    )
}

fn armed(at: SimDuration, op: CapChurnOp, after_checks: u32) -> FaultEvent {
    FaultEvent::new(
        at,
        FaultKind::CapChurn {
            op,
            arm_after_checks: Some(after_checks),
        },
    )
}

/// Builds the full catalog (3 platforms × 7 shapes = 21 scenarios),
/// platform-major, in deterministic order.
pub fn churn_scenarios() -> Vec<ChurnScenario> {
    let s = SimDuration::from_secs;
    let mut out = Vec::new();
    for platform in [Platform::Linux, Platform::Minix, Platform::Sel4] {
        let k = key(platform);
        // Linux admission checks happen once, at boot-time `mq_open`;
        // MINIX and seL4 re-check every send. An armed op must target
        // the check stream the platform actually has.
        let arm_delay = if platform == Platform::Linux { 0 } else { 2 };

        // 1. Grant-only churn: a single widening write. Nothing is
        //    invalidated, one actor cannot conflict with itself.
        out.push(ChurnScenario {
            name: format!("{k}/grant-only"),
            platform,
            plan: FaultPlan::new(
                "grant-only",
                vec![churn(
                    s(60),
                    CapChurnOp::new(ChurnKind::Grant, names::SENSOR, names::CONTROL),
                )],
            ),
            horizon: SimDuration::from_mins(3),
            expect: vec![],
            note: "a widening write invalidates nothing: detector must stay silent",
        });

        // 2. Armed op whose window never opens: the alarm actuator
        //    never initiates IPC toward the sensor, so the admission
        //    check the op waits for never happens.
        out.push(ChurnScenario {
            name: format!("{k}/armed-never-fires"),
            platform,
            plan: FaultPlan::new(
                "armed-never-fires",
                vec![armed(
                    s(0),
                    CapChurnOp::new(ChurnKind::Revoke, names::ALARM, names::SENSOR),
                    0,
                )],
            ),
            horizon: SimDuration::from_mins(3),
            expect: vec![],
            note: "no matching admission check ever fires the armed op: no writes, no races",
        });

        // 3. Timed revoke + later regrant, landing *between* IPC
        //    periods. MINIX and seL4 re-check at every send, so the
        //    revocation is enforced cleanly; Linux keeps honoring the
        //    descriptor the sensor opened at boot.
        out.push(ChurnScenario {
            name: format!("{k}/timed-revoke-regrant"),
            platform,
            plan: FaultPlan::new(
                "timed-revoke-regrant",
                vec![
                    churn(
                        s(60),
                        CapChurnOp::new(ChurnKind::Revoke, names::SENSOR, names::CONTROL),
                    ),
                    churn(
                        s(120),
                        CapChurnOp::new(ChurnKind::Grant, names::SENSOR, names::CONTROL),
                    ),
                ],
            ),
            horizon: SimDuration::from_mins(3),
            expect: if platform == Platform::Linux {
                vec![RaceKind::Toctou]
            } else {
                vec![]
            },
            note: "per-send re-checking makes timed revocation clean; \
                   Linux's open-time-only check leaves a stale descriptor",
        });

        // 4. Armed revoke inside the admission window: the classic
        //    TOCTOU, deterministic on every platform.
        out.push(ChurnScenario {
            name: format!("{k}/armed-revoke-toctou"),
            platform,
            plan: FaultPlan::new(
                "armed-revoke-toctou",
                vec![
                    armed(
                        s(0),
                        CapChurnOp::new(ChurnKind::Revoke, names::SENSOR, names::CONTROL),
                        arm_delay,
                    ),
                    churn(
                        s(120),
                        CapChurnOp::new(ChurnKind::Grant, names::SENSOR, names::CONTROL),
                    ),
                ],
            ),
            horizon: SimDuration::from_mins(3),
            expect: vec![RaceKind::Toctou],
            note: "revoke lands after the check and before the delivery that trusts it",
        });

        // 5. Same armed revoke, performed by the victim itself: the
        //    write is program-ordered before the stale use, so this is
        //    an ordered use-after-revoke, not a concurrent TOCTOU.
        out.push(ChurnScenario {
            name: format!("{k}/self-revoke-uar"),
            platform,
            plan: FaultPlan::new(
                "self-revoke-uar",
                vec![
                    armed(
                        s(0),
                        CapChurnOp::new(ChurnKind::Revoke, names::SENSOR, names::CONTROL)
                            .by(names::SENSOR),
                        arm_delay,
                    ),
                    churn(
                        s(120),
                        CapChurnOp::new(ChurnKind::Grant, names::SENSOR, names::CONTROL)
                            .by(names::SENSOR),
                    ),
                ],
            ),
            horizon: SimDuration::from_mins(3),
            expect: vec![RaceKind::UseAfterRevoke],
            note: "the revoker and the stale user are one subject: happens-before \
                   orders write → use, the kernel honors the handle anyway",
        });

        // 6. Armed attenuation inside the window: the right narrows
        //    (MINIX keeps only acks, seL4 strips write, Linux strips
        //    the write bits) between check and delivery.
        out.push(ChurnScenario {
            name: format!("{k}/attenuate-window"),
            platform,
            plan: FaultPlan::new(
                "attenuate-window",
                vec![
                    armed(
                        s(0),
                        CapChurnOp::new(ChurnKind::Attenuate, names::SENSOR, names::CONTROL),
                        arm_delay,
                    ),
                    churn(
                        s(120),
                        CapChurnOp::new(ChurnKind::Grant, names::SENSOR, names::CONTROL),
                    ),
                ],
            ),
            horizon: SimDuration::from_mins(3),
            expect: vec![RaceKind::Toctou],
            note: "attenuation races the window exactly like revocation",
        });

        // 7. Two administrators churning the same right with no
        //    synchronization, plus an armed revoke: the storm shape the
        //    witness minimizer reduces back to single-event causes.
        out.push(ChurnScenario {
            name: format!("{k}/churn-storm"),
            platform,
            plan: FaultPlan::new(
                "churn-storm",
                vec![
                    armed(
                        s(0),
                        CapChurnOp::new(ChurnKind::Revoke, names::SENSOR, names::CONTROL),
                        arm_delay,
                    ),
                    churn(
                        s(60),
                        CapChurnOp::new(ChurnKind::Revoke, names::WEB, names::CONTROL).by("admin"),
                    ),
                    churn(
                        s(90),
                        CapChurnOp::new(ChurnKind::Grant, names::WEB, names::CONTROL).by("tenant"),
                    ),
                    churn(
                        s(150),
                        CapChurnOp::new(ChurnKind::Grant, names::SENSOR, names::CONTROL),
                    ),
                ],
            ),
            horizon: SimDuration::from_mins(4),
            expect: vec![RaceKind::Toctou, RaceKind::WriteWrite],
            note: "unsynchronized admins conflict on the web right while the armed \
                   revoke races the sensor window",
        });
    }
    out
}

/// Boots `platform`, enables capability tracing, runs for `horizon`
/// under `plan`, and returns the recorded trace. Fully deterministic:
/// the same plan always yields the same trace.
pub fn run_churn_plan(platform: Platform, plan: &FaultPlan, horizon: SimDuration) -> CapTrace {
    fn collect<K: PlatformKernel>(plan: &FaultPlan, horizon: SimDuration) -> CapTrace {
        let config = ScenarioConfig::default();
        let mut engine = ScenarioEngine::<K>::boot(&config, K::Overrides::default());
        // Tracing goes on before the first chunk: spawned processes
        // only execute once the kernel steps, so even boot-time opens
        // land in the stream.
        engine.stack.enable_cap_trace();
        inject::run(&mut engine, plan, horizon);
        engine.stack.cap_trace()
    }
    match platform {
        Platform::Minix => collect::<MinixStack>(plan, horizon),
        Platform::Sel4 => collect::<Sel4Stack>(plan, horizon),
        Platform::Linux => collect::<LinuxStack>(plan, horizon),
    }
}

/// Runs one catalog scenario and returns its trace.
pub fn run_scenario(sc: &ChurnScenario) -> CapTrace {
    run_churn_plan(sc.platform, &sc.plan, sc.horizon)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_platform_major_and_unique() {
        let ss = churn_scenarios();
        assert_eq!(ss.len(), 21);
        assert_eq!(ss[0].name, "linux/grant-only");
        assert_eq!(ss[7].name, "minix/grant-only");
        assert_eq!(ss[14].name, "sel4/grant-only");
        let names: std::collections::BTreeSet<&str> = ss.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), 21, "names are unique");
    }

    #[test]
    fn every_scenario_schedule_is_pure_churn() {
        for sc in churn_scenarios() {
            assert!(
                sc.plan
                    .events()
                    .iter()
                    .all(|e| matches!(e.kind, FaultKind::CapChurn { .. })),
                "{}: churn scenarios must not mix in other fault kinds",
                sc.name
            );
        }
    }
}
