//! The A3 recovery experiment, rebuilt on the fault layer.
//!
//! One plan — kill the heater driver three minutes in, while an
//! overheating episode ramps up — runs on *all three* platforms, so the
//! contrast the paper argues for is measured, not asserted: a
//! supervised MINIX stack re-forks the driver and rides out the
//! episode; Linux has no supervisor, so the driver stays dead and its
//! message queue backs up; seL4's static architecture leaves the
//! controller's blocking call to the dead driver wedged forever.

use bas_core::engine::{PlatformKernel, ScenarioEngine};
use bas_core::platform::linux::LinuxStack;
use bas_core::platform::minix::{MinixOverrides, MinixStack};
use bas_core::platform::sel4::Sel4Stack;
use bas_core::proto::names;
use bas_core::scenario::{critical_alive, Platform, Scenario, ScenarioConfig};
use bas_fleet::Json;
use bas_sim::time::SimDuration;

use crate::inject;
use crate::plan::{FaultEvent, FaultKind, FaultPlan};

/// The recovery schedule: one crash of `process` at `at`.
pub fn crash_plan(process: &str, at: SimDuration) -> FaultPlan {
    FaultPlan::new(
        format!("crash_{process}"),
        vec![FaultEvent::new(
            at,
            FaultKind::Crash {
                process: process.to_string(),
            },
        )],
    )
}

/// One point of the 3-minute-sampled temperature timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelinePoint {
    /// Virtual seconds since boot.
    pub t_s: u64,
    /// Room temperature.
    pub temp_c: f64,
    /// Fan commanded on.
    pub fan_on: bool,
    /// Alarm raised.
    pub alarm_on: bool,
}

/// What one recovery run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// The platform that actually ran (reports must name it).
    pub platform: Platform,
    /// Whether a supervisor watched the critical processes (MINIX only).
    pub supervised: bool,
    /// Fan actuations over the run.
    pub fan_switches: usize,
    /// Room temperature at the end.
    pub final_temp_c: f64,
    /// All critical processes alive at the end.
    pub critical_alive: bool,
    /// Processes created over the run (re-forks show up here).
    pub processes_created: u64,
    /// Safety oracle verdict.
    pub safe: bool,
    /// Temperature/actuator timeline, one point per 3 virtual minutes.
    pub timeline: Vec<TimelinePoint>,
}

impl RecoveryOutcome {
    /// JSON form (field order fixed).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("platform", Json::Str(self.platform.to_string())),
            ("supervised", Json::Bool(self.supervised)),
            ("fan_switches", Json::UInt(self.fan_switches as u64)),
            ("final_temp_c", Json::Num(self.final_temp_c)),
            ("critical_alive", Json::Bool(self.critical_alive)),
            ("processes_created", Json::UInt(self.processes_created)),
            ("safe", Json::Bool(self.safe)),
            (
                "timeline",
                Json::Arr(
                    self.timeline
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("t_s", Json::UInt(p.t_s)),
                                ("temp_c", Json::Num(p.temp_c)),
                                ("fan_on", Json::Bool(p.fan_on)),
                                ("alarm_on", Json::Bool(p.alarm_on)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn run_on<K: PlatformKernel>(
    overrides: K::Overrides,
    supervised: bool,
    quick: bool,
) -> RecoveryOutcome {
    let mut config = ScenarioConfig::quiet();
    // An overheating episode ramps up mid-run so the dead driver matters.
    config.plant.heat_schedule = vec![(
        SimDuration::from_secs(if quick { 600 } else { 1_200 }),
        150.0,
    )];
    let horizon = SimDuration::from_mins(if quick { 20 } else { 40 });

    let mut engine = ScenarioEngine::<K>::boot(&config, overrides);
    let plan = crash_plan(names::HEATER, SimDuration::from_secs(180));
    let log = inject::run(&mut engine, &plan, horizon);
    assert_eq!(log.fired_count(), 1, "the crash event must fire");

    let plant = engine.plant();
    let plant = plant.borrow();
    let mut timeline = Vec::new();
    let mut next_s = 0u64;
    for sample in plant.trace() {
        if sample.time.as_secs() >= next_s {
            timeline.push(TimelinePoint {
                t_s: sample.time.as_secs(),
                temp_c: sample.temp_c,
                fan_on: sample.fan_on,
                alarm_on: sample.alarm_on,
            });
            next_s += 180;
        }
    }

    RecoveryOutcome {
        platform: K::PLATFORM,
        supervised,
        fan_switches: plant.fan().switch_count(),
        final_temp_c: plant.temperature_c(),
        critical_alive: critical_alive(&engine),
        processes_created: engine.metrics().processes_created,
        safe: plant.safety_report().is_safe(),
        timeline,
    }
}

/// Runs the heater-crash recovery experiment on the named platform.
///
/// `supervise` is only meaningful on MINIX (the reincarnation-server
/// model the paper leans on); asking for it elsewhere is a harness bug.
///
/// # Panics
///
/// Panics if `supervise` is requested on a platform without a
/// supervisor (anything but MINIX).
pub fn run_recovery(platform: Platform, supervise: bool, quick: bool) -> RecoveryOutcome {
    assert!(
        !supervise || platform == Platform::Minix,
        "supervised recovery only exists on MINIX; {platform} has no supervisor"
    );
    match platform {
        Platform::Minix => run_on::<MinixStack>(
            MinixOverrides {
                supervise,
                ..Default::default()
            },
            supervise,
            quick,
        ),
        Platform::Linux => run_on::<LinuxStack>(Default::default(), false, quick),
        Platform::Sel4 => run_on::<Sel4Stack>(Default::default(), false, quick),
    }
}
