//! E1 (Fig. 2) end-to-end: the benign scenario regulates temperature on
//! all three platforms — control converges, no safety violation, the
//! administrator's web session works.

use bas_core::platform::linux::{build_linux, LinuxOverrides};
use bas_core::platform::minix::{build_minix, MinixOverrides};
use bas_core::platform::sel4::{build_sel4, Sel4Overrides};
use bas_core::proto::BasMsg;
use bas_core::scenario::{critical_alive, Scenario, ScenarioConfig};
use bas_sim::kernel::Kernel;
use bas_sim::time::SimDuration;

fn assert_baseline_healthy(scenario: &mut dyn Scenario) {
    scenario.run_for(SimDuration::from_mins(30));

    let plant = scenario.plant();
    let plant = plant.borrow();

    // The controller regulates: final temperature inside the band.
    let temp = plant.temperature_c();
    assert!(
        (21.0..=23.0).contains(&temp),
        "[{}] temperature {temp:.2}°C escaped the band",
        scenario.platform()
    );

    // The fan actually cycled (equilibria are 33°C fan-off / 21°C fan-on,
    // so holding 22°C requires switching).
    assert!(
        plant.fan().switch_count() >= 2,
        "[{}] fan never cycled",
        scenario.platform()
    );

    // No alarm and no safety violation in the benign run.
    let report = plant.safety_report();
    assert!(
        report.is_safe(),
        "[{}] safety violated: {report:?}",
        scenario.platform()
    );
    assert!(
        !plant.alarm().is_on(),
        "[{}] spurious alarm",
        scenario.platform()
    );

    // All critical processes alive.
    assert!(
        critical_alive(scenario),
        "[{}] lost a critical process",
        scenario.platform()
    );

    // Messages flowed.
    assert!(
        scenario.metrics().ipc_messages > 100,
        "[{}] ipc starved",
        scenario.platform()
    );
}

#[test]
fn minix_baseline_regulates_and_stays_safe() {
    let mut s = build_minix(&ScenarioConfig::quiet(), MinixOverrides::default());
    assert_baseline_healthy(&mut s);
    // No denials in a benign run.
    assert_eq!(s.trace_count("acm.deny"), 0);
}

#[test]
fn sel4_baseline_regulates_and_stays_safe() {
    let mut s = build_sel4(&ScenarioConfig::quiet(), Sel4Overrides::default());
    assert_baseline_healthy(&mut s);
    assert_eq!(s.trace_count("cap.deny"), 0);
}

#[test]
fn linux_baseline_regulates_and_stays_safe() {
    let mut s = build_linux(&ScenarioConfig::quiet(), LinuxOverrides::default());
    assert_baseline_healthy(&mut s);
    assert_eq!(s.trace_count("dac.deny"), 0);
}

#[test]
fn minix_web_session_changes_setpoint() {
    let config = ScenarioConfig::default(); // setpoint 24°C at t=1200s, query at 2400s
    let mut s = build_minix(&config, MinixOverrides::default());
    s.run_for(SimDuration::from_secs(2_700));

    let responses = s.web_responses();
    assert!(
        responses.contains(&BasMsg::Ack { code: 0 }),
        "setpoint change acknowledged: {responses:?}"
    );
    let status = responses.iter().find_map(|r| match r {
        BasMsg::Status {
            setpoint_milli_c, ..
        } => Some(*setpoint_milli_c),
        _ => None,
    });
    assert_eq!(status, Some(24_000), "status reflects the new setpoint");

    // The plant converged toward the new 24°C reference.
    let plant = s.plant();
    let temp = plant.borrow().temperature_c();
    assert!(
        (23.0..=25.0).contains(&temp),
        "temp {temp:.2} near new setpoint"
    );
    assert!(plant.borrow().safety_report().is_safe());
}

#[test]
fn sel4_web_session_changes_setpoint() {
    let config = ScenarioConfig::default();
    let mut s = build_sel4(&config, Sel4Overrides::default());
    s.run_for(SimDuration::from_secs(2_700));

    let responses = s.web_responses();
    assert!(
        responses.contains(&BasMsg::Ack { code: 0 }),
        "{responses:?}"
    );
    let status = responses.iter().find_map(|r| match r {
        BasMsg::Status {
            setpoint_milli_c, ..
        } => Some(*setpoint_milli_c),
        _ => None,
    });
    assert_eq!(status, Some(24_000));
    let plant = s.plant();
    let temp = plant.borrow().temperature_c();
    assert!((23.0..=25.0).contains(&temp), "temp {temp:.2}");
}

#[test]
fn linux_web_session_changes_setpoint() {
    let config = ScenarioConfig::default();
    let mut s = build_linux(&config, LinuxOverrides::default());
    s.run_for(SimDuration::from_secs(2_700));

    let responses = s.web_responses();
    assert!(
        responses.contains(&BasMsg::Ack { code: 0 }),
        "{responses:?}"
    );
    let status = responses.iter().find_map(|r| match r {
        BasMsg::Status {
            setpoint_milli_c, ..
        } => Some(*setpoint_milli_c),
        _ => None,
    });
    assert_eq!(status, Some(24_000));
    let plant = s.plant();
    let temp = plant.borrow().temperature_c();
    assert!((23.0..=25.0).contains(&temp), "temp {temp:.2}");
}

#[test]
fn out_of_range_setpoint_rejected_everywhere() {
    use bas_core::logic::web::WebAction;
    use bas_sim::time::SimTime;

    let mut config = ScenarioConfig::quiet();
    config.web_schedule = vec![(
        SimTime::ZERO + SimDuration::from_secs(60),
        WebAction::SetSetpoint(95_000),
    )];

    let mut minix = build_minix(&config, MinixOverrides::default());
    minix.run_for(SimDuration::from_secs(300));
    assert!(
        minix.web_responses().contains(&BasMsg::Ack { code: 1 }),
        "minix rejects"
    );

    let mut sel4 = build_sel4(&config, Sel4Overrides::default());
    sel4.run_for(SimDuration::from_secs(300));
    assert!(
        sel4.web_responses().contains(&BasMsg::Ack { code: 1 }),
        "sel4 rejects"
    );

    let mut linux = build_linux(&config, LinuxOverrides::default());
    linux.run_for(SimDuration::from_secs(300));
    assert!(
        linux.web_responses().contains(&BasMsg::Ack { code: 1 }),
        "linux rejects"
    );

    // And the physical world stayed regulated at 22°C on all three.
    for (name, plant) in [
        ("minix", minix.plant()),
        ("sel4", sel4.plant()),
        ("linux", linux.plant()),
    ] {
        let temp = plant.borrow().temperature_c();
        assert!((21.0..=23.0).contains(&temp), "{name}: temp {temp:.2}");
    }
}

#[test]
fn sel4_boot_verifies_against_capdl_and_stays_clean() {
    use bas_capdl::verify::verify;

    let mut s = build_sel4(&ScenarioConfig::quiet(), Sel4Overrides::default());
    s.run_for(SimDuration::from_mins(5));
    // After five minutes of serving RPCs, the live capability state still
    // matches the compiled CapDL spec exactly: no capability drift.
    let issues = verify(&s.stack.spec, &s.stack.kernel, &s.stack.sys);
    assert_eq!(issues, vec![], "capability state drifted during operation");
}

#[test]
fn hardened_linux_baseline_also_works() {
    use bas_core::platform::linux::UidScheme;
    let overrides = LinuxOverrides {
        uid_scheme: UidScheme::PerProcessHardened,
        ..LinuxOverrides::default()
    };
    let mut s = build_linux(&ScenarioConfig::quiet(), overrides);
    s.run_for(SimDuration::from_mins(10));
    assert!(critical_alive(&s));
    let plant = s.plant();
    let temp = plant.borrow().temperature_c();
    assert!((21.0..=23.0).contains(&temp), "temp {temp:.2}");
    assert_eq!(
        s.trace_count("dac.deny"),
        0,
        "legitimate flows all pass the hardened modes"
    );
}

#[test]
fn minix_controller_writes_environment_log() {
    // §IV-A: "At the end of the while loop, environment information will
    // be written in a log file." The controller keeps a status snapshot
    // in its (grant-capable) memory buffer; inspect it post-run.
    use bas_core::platform::minix::CONTROL_LOG_SIZE;
    use bas_minix::grant::BufId;

    let mut s = build_minix(&ScenarioConfig::quiet(), MinixOverrides::default());
    s.run_for(SimDuration::from_mins(10));

    let ctrl_ep = s
        .stack
        .kernel
        .endpoint_of(bas_core::proto::names::CONTROL)
        .expect("controller alive");
    let log = s
        .stack
        .kernel
        .read_process_buffer(ctrl_ep, BufId(0), 0, CONTROL_LOG_SIZE)
        .expect("log buffer exists");

    let t_secs = u32::from_le_bytes(log[0..4].try_into().unwrap());
    let reading = i32::from_le_bytes(log[4..8].try_into().unwrap());
    let setpoint = i32::from_le_bytes(log[8..12].try_into().unwrap());
    assert!(t_secs >= 540, "recent snapshot (t={t_secs}s)");
    assert!(
        (21_000..=23_000).contains(&reading),
        "logged reading {reading}"
    );
    assert_eq!(setpoint, 22_000);
}

#[test]
fn soak_eight_simulated_hours_stays_regulated() {
    // Long-horizon stability: no drift, no resource runaway, no spurious
    // alarms over 8 simulated hours of quiet operation.
    let mut s = build_minix(&ScenarioConfig::quiet(), MinixOverrides::default());
    s.run_for(SimDuration::from_mins(8 * 60));
    let plant = s.plant();
    let plant = plant.borrow();
    assert!((21.0..=23.0).contains(&plant.temperature_c()));
    assert!(plant.safety_report().is_safe());
    assert!(plant.safety_report().in_band_fraction > 0.99);
    assert!(critical_alive(&s));
    assert_eq!(
        s.stack.kernel.trace().dropped(),
        0,
        "trace stayed within capacity"
    );
    assert_eq!(s.metrics().processes_created, 6, "no process churn");
}
