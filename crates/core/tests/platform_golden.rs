//! Golden pin of every platform stack's observable run.
//!
//! Each configuration boots the scenario, runs 30 simulated minutes on a
//! web schedule with same-tick bursts and one out-of-range setpoint, and
//! compares the exact kernel counters, the web interface's responses, the
//! stamped request samples and the plant's safety snapshot with values
//! recorded before the platform adapters were folded onto the shared role
//! cores. Any change to a syscall sequence moves at least one counter, so
//! a refactor of the adapters must leave these strings untouched.

use std::fmt::Write as _;

use bas_core::engine::ScenarioEngine;
use bas_core::logic::web::WebAction;
use bas_core::platform::linux::{LinuxOverrides, LinuxStack, UidScheme};
use bas_core::platform::minix::{MinixOverrides, MinixStack};
use bas_core::platform::sel4::Sel4Stack;
use bas_core::scenario::{plant_snapshot, Scenario, ScenarioConfig};
use bas_sim::time::{SimDuration, SimTime};

fn at(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// The pinned schedule: two same-tick bursts of three, one of two, an
/// out-of-range setpoint and a lone status poll.
fn config() -> ScenarioConfig {
    ScenarioConfig {
        web_schedule: vec![
            (at(60), WebAction::QueryStatus),
            (at(60), WebAction::SetSetpoint(24_000)),
            (at(60), WebAction::QueryStatus),
            (at(300), WebAction::SetSetpoint(95_000)),
            (at(600), WebAction::SetSetpoint(23_000)),
            (at(600), WebAction::QueryStatus),
            (at(1_200), WebAction::QueryStatus),
            (at(1_500), WebAction::SetSetpoint(22_500)),
            (at(1_500), WebAction::QueryStatus),
            (at(1_500), WebAction::QueryStatus),
        ],
        ..ScenarioConfig::default()
    }
}

/// Runs `s` for 30 simulated minutes and renders everything pinned.
fn describe(mut s: impl Scenario) -> String {
    s.run_for(SimDuration::from_mins(30));
    let mut out = String::new();
    writeln!(out, "metrics {:?}", s.metrics()).unwrap();
    for r in s.web_responses() {
        writeln!(out, "response {r:?}").unwrap();
    }
    for r in s.request_samples() {
        writeln!(
            out,
            "request {} {} {:?} {}",
            r.scheduled.as_nanos(),
            r.completed.as_nanos(),
            r.action,
            r.ok
        )
        .unwrap();
    }
    writeln!(out, "plant {:?}", plant_snapshot(&s)).unwrap();
    out
}

#[test]
fn minix_plain_is_pinned() {
    let s = ScenarioEngine::<MinixStack>::boot(&config(), MinixOverrides::default());
    assert_eq!(describe(s), MINIX_PLAIN);
}

#[test]
fn minix_supervised_is_pinned() {
    let overrides = MinixOverrides {
        supervise: true,
        ..MinixOverrides::default()
    };
    let s = ScenarioEngine::<MinixStack>::boot(&config(), overrides);
    assert_eq!(describe(s), MINIX_SUPERVISED);
}

#[test]
fn sel4_is_pinned() {
    let s = ScenarioEngine::<Sel4Stack>::boot(&config(), Default::default());
    assert_eq!(describe(s), SEL4);
}

#[test]
fn linux_shared_account_is_pinned() {
    let s = ScenarioEngine::<LinuxStack>::boot(&config(), LinuxOverrides::default());
    assert_eq!(describe(s), LINUX_SHARED);
}

#[test]
fn linux_hardened_is_pinned() {
    let overrides = LinuxOverrides {
        uid_scheme: UidScheme::PerProcessHardened,
        ..LinuxOverrides::default()
    };
    let s = ScenarioEngine::<LinuxStack>::boot(&config(), overrides);
    assert_eq!(describe(s), LINUX_HARDENED);
}

const MINIX_PLAIN: &str = r#"metrics KernelMetrics { context_switches: 8044, kernel_entries: 11508, ipc_messages: 2035, ipc_bytes: 130240, access_denied: 0, syscall_errors: 0, processes_created: 6, processes_reaped: 1, hot_path_allocs: 0, ipc_waits: 5 }
response Status { temp_milli_c: 22400, setpoint_milli_c: 22000, fan_on: true, alarm_on: false }
response Ack { code: 0 }
response Status { temp_milli_c: 22400, setpoint_milli_c: 24000, fan_on: true, alarm_on: false }
response Ack { code: 1 }
response Ack { code: 0 }
response Status { temp_milli_c: 24300, setpoint_milli_c: 23000, fan_on: false, alarm_on: false }
response Status { temp_milli_c: 23100, setpoint_milli_c: 23000, fan_on: false, alarm_on: false }
response Ack { code: 0 }
response Status { temp_milli_c: 22800, setpoint_milli_c: 22500, fan_on: true, alarm_on: false }
response Status { temp_milli_c: 22800, setpoint_milli_c: 22500, fan_on: true, alarm_on: false }
request 60000000000 60000172134 QueryStatus true
request 60000000000 60000172134 SetSetpoint(24000) true
request 60000000000 60000172134 QueryStatus true
request 300000000000 300000081878 SetSetpoint(95000) true
request 600000000000 600000127006 SetSetpoint(23000) true
request 600000000000 600000127006 QueryStatus true
request 1200000000000 1200000081878 QueryStatus true
request 1500000000000 1500000172134 SetSetpoint(22500) true
request 1500000000000 1500000172134 QueryStatus true
request 1500000000000 1500000172134 QueryStatus true
plant PlantSnapshot { safety_violated: false, max_deviation_c: 1.733135429188426, in_band_fraction: 0.9870555555555556, final_temp_c: 22.32316069647256, alarm_on: false, fan_switches: 99, alarm_latencies_s: [] }
"#;
const MINIX_SUPERVISED: &str = r#"metrics KernelMetrics { context_switches: 8948, kernel_entries: 16008, ipc_messages: 2035, ipc_bytes: 130240, access_denied: 0, syscall_errors: 0, processes_created: 7, processes_reaped: 1, hot_path_allocs: 0, ipc_waits: 5 }
response Status { temp_milli_c: 22400, setpoint_milli_c: 22000, fan_on: true, alarm_on: false }
response Ack { code: 0 }
response Status { temp_milli_c: 22400, setpoint_milli_c: 24000, fan_on: true, alarm_on: false }
response Ack { code: 1 }
response Ack { code: 0 }
response Status { temp_milli_c: 24300, setpoint_milli_c: 23000, fan_on: false, alarm_on: false }
response Status { temp_milli_c: 23100, setpoint_milli_c: 23000, fan_on: false, alarm_on: false }
response Ack { code: 0 }
response Status { temp_milli_c: 22800, setpoint_milli_c: 22500, fan_on: true, alarm_on: false }
response Status { temp_milli_c: 22800, setpoint_milli_c: 22500, fan_on: true, alarm_on: false }
request 60000000000 60000172134 QueryStatus true
request 60000000000 60000172134 SetSetpoint(24000) true
request 60000000000 60000172134 QueryStatus true
request 300000000000 300000081878 SetSetpoint(95000) true
request 600000000000 600000127006 SetSetpoint(23000) true
request 600000000000 600000127006 QueryStatus true
request 1200000000000 1200000081878 QueryStatus true
request 1500000000000 1500000172134 SetSetpoint(22500) true
request 1500000000000 1500000172134 QueryStatus true
request 1500000000000 1500000172134 QueryStatus true
plant PlantSnapshot { safety_violated: false, max_deviation_c: 1.733135429188426, in_band_fraction: 0.9870555555555556, final_temp_c: 22.32316069647256, alarm_on: false, fan_switches: 99, alarm_latencies_s: [] }
"#;
const SEL4: &str = r#"metrics KernelMetrics { context_switches: 7538, kernel_entries: 11256, ipc_messages: 3818, ipc_bytes: 60424, access_denied: 0, syscall_errors: 0, processes_created: 5, processes_reaped: 0, hot_path_allocs: 0, ipc_waits: 5 }
response Status { temp_milli_c: 22400, setpoint_milli_c: 22000, fan_on: true, alarm_on: false }
response Ack { code: 0 }
response Status { temp_milli_c: 22400, setpoint_milli_c: 24000, fan_on: true, alarm_on: false }
response Ack { code: 1 }
response Ack { code: 0 }
response Status { temp_milli_c: 24300, setpoint_milli_c: 23000, fan_on: false, alarm_on: false }
response Status { temp_milli_c: 23100, setpoint_milli_c: 23000, fan_on: false, alarm_on: false }
response Ack { code: 0 }
response Status { temp_milli_c: 22800, setpoint_milli_c: 22500, fan_on: true, alarm_on: false }
response Status { temp_milli_c: 22800, setpoint_milli_c: 22500, fan_on: true, alarm_on: false }
request 60000000000 60000171910 QueryStatus true
request 60000000000 60000171910 SetSetpoint(24000) true
request 60000000000 60000171910 QueryStatus true
request 300000000000 300000081790 SetSetpoint(95000) true
request 600000000000 600000126838 SetSetpoint(23000) true
request 600000000000 600000126838 QueryStatus true
request 1200000000000 1200000081798 QueryStatus true
request 1500000000000 1500000171886 SetSetpoint(22500) true
request 1500000000000 1500000171886 QueryStatus true
request 1500000000000 1500000171886 QueryStatus true
plant PlantSnapshot { safety_violated: false, max_deviation_c: 1.733135429188426, in_band_fraction: 0.9870562746514082, final_temp_c: 22.32531881868292, alarm_on: false, fan_switches: 99, alarm_latencies_s: [] }
"#;
const LINUX_SHARED: &str = r#"metrics KernelMetrics { context_switches: 4056, kernel_entries: 12972, ipc_messages: 1920, ipc_bytes: 122880, access_denied: 0, syscall_errors: 0, processes_created: 5, processes_reaped: 0, hot_path_allocs: 0, ipc_waits: 0 }
response Status { temp_milli_c: 22300, setpoint_milli_c: 22000, fan_on: true, alarm_on: false }
response Ack { code: 0 }
response Status { temp_milli_c: 22300, setpoint_milli_c: 24000, fan_on: true, alarm_on: false }
response Ack { code: 1 }
response Ack { code: 0 }
response Status { temp_milli_c: 24300, setpoint_milli_c: 23000, fan_on: false, alarm_on: false }
response Status { temp_milli_c: 23000, setpoint_milli_c: 23000, fan_on: true, alarm_on: false }
response Ack { code: 0 }
response Status { temp_milli_c: 22900, setpoint_milli_c: 22500, fan_on: false, alarm_on: false }
response Status { temp_milli_c: 22900, setpoint_milli_c: 22500, fan_on: true, alarm_on: false }
request 60000000000 61002300160 QueryStatus true
request 60000000000 61002300160 SetSetpoint(24000) true
request 60000000000 61002300160 QueryStatus true
request 300000000000 300010083328 SetSetpoint(95000) true
request 600000000000 600019986906 SetSetpoint(23000) true
request 600000000000 600019986906 QueryStatus true
request 1200000000000 1200039626178 QueryStatus true
request 1500000000000 1501049542006 SetSetpoint(22500) true
request 1500000000000 1501049542006 QueryStatus true
request 1500000000000 1501049542006 QueryStatus true
plant PlantSnapshot { safety_violated: false, max_deviation_c: 1.7828586511700095, in_band_fraction: 0.9844444444444445, final_temp_c: 22.262668584012406, alarm_on: false, fan_switches: 100, alarm_latencies_s: [] }
"#;
const LINUX_HARDENED: &str = r#"metrics KernelMetrics { context_switches: 4056, kernel_entries: 12972, ipc_messages: 1920, ipc_bytes: 122880, access_denied: 0, syscall_errors: 0, processes_created: 5, processes_reaped: 0, hot_path_allocs: 0, ipc_waits: 0 }
response Status { temp_milli_c: 22300, setpoint_milli_c: 22000, fan_on: true, alarm_on: false }
response Ack { code: 0 }
response Status { temp_milli_c: 22300, setpoint_milli_c: 24000, fan_on: true, alarm_on: false }
response Ack { code: 1 }
response Ack { code: 0 }
response Status { temp_milli_c: 24300, setpoint_milli_c: 23000, fan_on: false, alarm_on: false }
response Status { temp_milli_c: 23000, setpoint_milli_c: 23000, fan_on: true, alarm_on: false }
response Ack { code: 0 }
response Status { temp_milli_c: 22900, setpoint_milli_c: 22500, fan_on: false, alarm_on: false }
response Status { temp_milli_c: 22900, setpoint_milli_c: 22500, fan_on: true, alarm_on: false }
request 60000000000 61002300160 QueryStatus true
request 60000000000 61002300160 SetSetpoint(24000) true
request 60000000000 61002300160 QueryStatus true
request 300000000000 300010083328 SetSetpoint(95000) true
request 600000000000 600019986906 SetSetpoint(23000) true
request 600000000000 600019986906 QueryStatus true
request 1200000000000 1200039626178 QueryStatus true
request 1500000000000 1501049542006 SetSetpoint(22500) true
request 1500000000000 1501049542006 QueryStatus true
request 1500000000000 1501049542006 QueryStatus true
plant PlantSnapshot { safety_violated: false, max_deviation_c: 1.7828586511700095, in_band_fraction: 0.9844444444444445, final_temp_c: 22.262668584012406, alarm_on: false, fan_switches: 100, alarm_latencies_s: [] }
"#;
