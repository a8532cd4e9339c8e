//! Self-repair on MINIX: fault injection plus the reincarnation-style
//! supervisor. The paper's reference [7] ("MINIX 3: A highly reliable,
//! self-repairing operating system") motivates choosing MINIX for
//! resilience; these tests exercise that story inside the scenario.
//!
//! Crashes are injected through [`PlatformKernel::apply_fault`], the
//! kernel path `bas-faults` campaigns fire from the fault calendar,
//! instead of the removed `heater_crash_after`-style build overrides, so
//! the victim dies at a scheduled virtual time rather than after a resume
//! count.

use bas_core::engine::PlatformKernel;
use bas_core::logic::web::WebAction;
use bas_core::platform::minix::{build_minix, MinixOverrides, MinixScenario};
use bas_core::proto::names;
use bas_core::scenario::{critical_alive, Scenario, ScenarioConfig};
use bas_sim::fault::FaultAction;
use bas_sim::time::{SimDuration, SimTime};

/// Crashes the process named `name`; returns whether it was alive.
fn crash(s: &mut MinixScenario, name: &str) -> bool {
    s.stack.apply_fault(FaultAction::Crash(name.to_string()))
}

/// Heater driver crashes mid-run; without supervision the fan freezes and
/// the controller can only escalate to the alarm.
#[test]
fn heater_crash_without_supervision_degrades_but_alarms() {
    let mut s = build_minix(&ScenarioConfig::quiet(), MinixOverrides::default());
    // Let the loop close, then crash the heater a few minutes in.
    s.run_for(SimDuration::from_mins(3));
    assert!(crash(&mut s, names::HEATER), "heater was alive");
    s.run_for(SimDuration::from_mins(12));
    assert!(
        !critical_alive(&s),
        "heater stays dead without a supervisor"
    );
    let switches_mid = s.plant().borrow().fan().switch_count();

    s.run_for(SimDuration::from_mins(15));
    let plant = s.plant();
    let plant = plant.borrow();
    // The fan is frozen in whatever state the driver died in; no further
    // actuation happens.
    assert_eq!(
        plant.fan().switch_count(),
        switches_mid,
        "fan no longer responds"
    );
    // The safety property itself still holds: either the frozen state
    // keeps the room in band, or the surviving controller escalates to
    // the alarm within the deadline.
    let report = plant.safety_report();
    assert!(
        report.is_safe(),
        "alarm escalation covers the frozen fan: {report:?}"
    );
    if (plant.temperature_c() - 22.0).abs() > 1.0 {
        assert!(plant.alarm().is_on(), "out of band requires the alarm");
    }
}

/// With the supervisor, the crashed heater is reincarnated and control
/// resumes fully.
#[test]
fn heater_crash_with_supervision_recovers_control() {
    let overrides = MinixOverrides {
        supervise: true,
        ..MinixOverrides::default()
    };
    let mut s = build_minix(&ScenarioConfig::quiet(), overrides);
    s.run_for(SimDuration::from_mins(3));
    assert!(crash(&mut s, names::HEATER), "heater was alive");
    s.run_for(SimDuration::from_mins(27));

    assert!(
        critical_alive(&s),
        "supervisor reincarnated the heater: {:?}",
        s.alive_names()
    );
    let plant = s.plant();
    let plant = plant.borrow();
    assert!(
        (21.0..=23.0).contains(&plant.temperature_c()),
        "control fully restored: temp {:.2}",
        plant.temperature_c()
    );
    assert!(plant.safety_report().is_safe());
    assert!(!plant.alarm().is_on(), "no lingering alarm after recovery");
}

/// Even the controller itself can crash and be reincarnated; the sensor
/// re-resolves the restarted controller's new endpoint generation and the
/// loop closes again.
#[test]
fn controller_crash_with_supervision_recovers() {
    let overrides = MinixOverrides {
        supervise: true,
        ..MinixOverrides::default()
    };
    let mut s = build_minix(&ScenarioConfig::quiet(), overrides);
    s.run_for(SimDuration::from_mins(2));
    assert!(crash(&mut s, names::CONTROL), "controller was alive");
    s.run_for(SimDuration::from_mins(28));

    assert!(
        critical_alive(&s),
        "controller reincarnated: {:?}",
        s.alive_names()
    );
    let plant = s.plant();
    let plant = plant.borrow();
    assert!(
        (21.0..=23.0).contains(&plant.temperature_c()),
        "regulation resumed: temp {:.2}",
        plant.temperature_c()
    );
    assert!(plant.safety_report().is_safe());
    // The fan kept cycling after the restart (the loop really closed).
    assert!(
        plant.fan().switch_count() >= 4,
        "fan cycles: {}",
        plant.fan().switch_count()
    );
}

/// The web interface re-resolves a reincarnated controller as the
/// sensor does. Its first request after the crash finds the dead
/// endpoint and fails; every later request reaches the new controller.
#[test]
fn web_reconnects_to_a_restarted_controller() {
    let at = |secs| SimTime::ZERO + SimDuration::from_secs(secs);
    let config = ScenarioConfig {
        web_schedule: vec![
            (at(600), WebAction::QueryStatus),
            (at(900), WebAction::SetSetpoint(23_000)),
            (at(1_200), WebAction::QueryStatus),
        ],
        ..ScenarioConfig::default()
    };
    let overrides = MinixOverrides {
        supervise: true,
        ..MinixOverrides::default()
    };
    let mut s = build_minix(&config, overrides);
    s.run_for(SimDuration::from_mins(2));
    assert!(crash(&mut s, names::CONTROL), "controller was alive");
    s.run_for(SimDuration::from_mins(28));

    let outcomes: Vec<_> = s
        .request_samples()
        .iter()
        .map(|r| (r.scheduled, r.ok))
        .collect();
    assert_eq!(
        outcomes,
        vec![(at(600), false), (at(900), true), (at(1_200), true)],
        "only the request that found the dead endpoint fails"
    );
}

/// The supervisor does not fight healthy processes: with no fault
/// injected, a supervised run is byte-equivalent in behavior to the
/// baseline (no spurious restarts).
#[test]
fn supervisor_is_quiescent_when_everything_is_healthy() {
    let overrides = MinixOverrides {
        supervise: true,
        ..MinixOverrides::default()
    };
    let mut s = build_minix(&ScenarioConfig::quiet(), overrides);
    s.run_for(SimDuration::from_mins(10));

    // 6 processes created at boot (5 scenario + loader) + the supervisor;
    // nothing more.
    assert_eq!(
        s.metrics().processes_created,
        7,
        "no spurious reincarnations"
    );
    assert!(critical_alive(&s));
    let names: Vec<String> = s.alive_names();
    assert!(names.contains(&"supervisor".to_string()));
    assert!(names.contains(&names::CONTROL.to_string()));
}

/// The supervisor itself is killable only through authorized channels —
/// and since the web interface has no KILL row to PM, even a root-level
/// compromise cannot disable self-repair.
#[test]
fn supervisor_survives_and_keeps_watching_under_repeated_faults() {
    // Crash the heater, let the supervisor fix it; the re-forked driver
    // runs clean (transient-fault model), so one reincarnation suffices —
    // but the supervisor keeps polling without churning processes.
    let overrides = MinixOverrides {
        supervise: true,
        ..MinixOverrides::default()
    };
    let mut s = build_minix(&ScenarioConfig::quiet(), overrides);
    s.run_for(SimDuration::from_mins(3));
    assert!(crash(&mut s, names::HEATER), "heater was alive");
    s.run_for(SimDuration::from_mins(57));

    assert!(critical_alive(&s));
    assert!(s.alive_names().contains(&"supervisor".to_string()));
    // Exactly one reincarnation: boot (6) + supervisor (1) + re-forked
    // heater (1) = 8 creations over a full hour.
    assert_eq!(s.metrics().processes_created, 8, "no restart loops");
    let plant = s.plant();
    assert!(plant.borrow().safety_report().is_safe());
}

/// A crash injected against a name that is not alive reports failure
/// instead of silently succeeding.
#[test]
fn inject_crash_unknown_name_is_reported() {
    let mut s = build_minix(&ScenarioConfig::quiet(), MinixOverrides::default());
    s.run_for(SimDuration::from_mins(1));
    assert!(!crash(&mut s, "no_such_process"));
    // PM is not a user process and cannot be crashed through the hook.
    assert!(!crash(&mut s, "pm"));
}
