//! Golden pin of every platform stack's observable run.
//!
//! Each configuration boots the scenario, runs 30 simulated minutes on a
//! web schedule with same-tick bursts and one out-of-range setpoint, and
//! compares the exact kernel counters, the web interface's responses, the
//! stamped request samples and the plant's safety snapshot with values
//! recorded before the platform adapters were folded onto the shared role
//! cores. Any change to a syscall sequence moves at least one counter, so
//! a refactor of the adapters must leave these strings untouched. One
//! supervised MINIX run also kills the controller at 2 min, pinning the
//! paths that reconnect to a reincarnated peer.
//!
//! The same runs also pin the rendered kernel trace: its line count, an
//! FNV-1a digest of every `Display`ed event and the per-category counts.
//! A second, hostile run per platform adds the records a benign run never
//! writes: denials, capability churn, IPC faults, a clock skew and a
//! crash. A change to how trace records are stored must render them back
//! byte for byte.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::hash::Hasher;

use bas_core::engine::{PlatformKernel, ScenarioEngine};
use bas_core::logic::web::WebAction;
use bas_core::platform::linux::{LinuxOverrides, LinuxStack, UidScheme};
use bas_core::platform::minix::{MinixOverrides, MinixStack};
use bas_core::platform::sel4::{Sel4Overrides, Sel4Stack};
use bas_core::proto::names;
use bas_core::scenario::{plant_snapshot, Scenario, ScenarioConfig};
use bas_sim::caps::{CapChurnOp, ChurnKind};
use bas_sim::device::DeviceId;
use bas_sim::fault::{FaultAction, IpcFault};
use bas_sim::fnv::Fnv1a;
use bas_sim::kernel::Kernel;
use bas_sim::script::Script;
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
    render(&s)
}

/// Renders the kernel counters, the web responses, the stamped request
/// samples and the plant snapshot of a run.
fn render(s: &dyn Scenario) -> String {
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
    writeln!(out, "plant {:?}", plant_snapshot(s)).unwrap();
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

/// The supervised stack with the controller killed at 2 min, run to the
/// 30-min horizon: the sensor re-resolves the reincarnated controller
/// after a dead-destination send, and the new controller finds its
/// peers through the name service.
#[test]
fn minix_control_restart_is_pinned() {
    let overrides = MinixOverrides {
        supervise: true,
        ..MinixOverrides::default()
    };
    let mut s = ScenarioEngine::<MinixStack>::boot(&config(), overrides);
    s.run_for(SimDuration::from_mins(2));
    assert!(s
        .stack
        .apply_fault(FaultAction::Crash(names::CONTROL.into())));
    s.run_for(SimDuration::from_mins(28));
    assert_eq!(
        trace_summary(s.stack.kernel.trace().events()),
        MINIX_RESTART_TRACE
    );
    assert_eq!(render(&s), MINIX_RESTART);
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

/// Line count, FNV-1a digest and per-category counts of the rendered
/// kernel trace. The category is read back from the rendered line
/// (`[time] pid category: detail`), so the summary depends on the text
/// alone.
fn trace_summary<E: Display>(events: &[E]) -> String {
    let mut hash = Fnv1a::new();
    let mut categories = BTreeMap::<String, usize>::new();
    for e in events {
        let line = format!("{e}\n");
        hash.write(line.as_bytes());
        let category = line
            .split_whitespace()
            .nth(2)
            .expect("rendered event has a category")
            .trim_end_matches(':');
        *categories.entry(category.to_string()).or_default() += 1;
    }
    let mut out = format!("lines {} fnv1a {:016x}", events.len(), hash.finish());
    for (c, n) in categories {
        write!(out, " {c}={n}").unwrap();
    }
    out
}

/// Runs the pinned schedule for 30 simulated minutes.
fn benign<K: PlatformKernel>(overrides: K::Overrides) -> ScenarioEngine<K> {
    let mut s = ScenarioEngine::<K>::boot(&config(), overrides);
    s.run_for(SimDuration::from_mins(30));
    s
}

/// Drives the records a benign run never writes through the platform
/// hooks: a revoked and re-granted sensor channel, one IPC fault of each
/// kind, a clock skew and an alarm-driver crash. The overrides are
/// expected to replace the web interface with a loop of denied device
/// writes.
fn hostile<K: PlatformKernel>(overrides: K::Overrides) -> ScenarioEngine<K> {
    let mut s = ScenarioEngine::<K>::boot(&config(), overrides);
    s.run_for(SimDuration::from_mins(4));
    let channel = |kind| CapChurnOp::new(kind, names::SENSOR, names::CONTROL);
    s.stack
        .apply_fault(FaultAction::Churn(vec![channel(ChurnKind::Revoke)], None));
    s.run_for(SimDuration::from_mins(3));
    s.stack
        .apply_fault(FaultAction::Churn(vec![channel(ChurnKind::Grant)], None));
    s.run_for(SimDuration::from_mins(2));
    let delay = IpcFault::Delay(SimDuration::from_millis(250));
    for fault in [IpcFault::Drop, delay, IpcFault::Duplicate] {
        s.stack.apply_fault(FaultAction::Ipc(fault, 1));
    }
    s.run_for(SimDuration::from_mins(5));
    s.stack
        .apply_fault(FaultAction::Skew(SimDuration::from_secs(7)));
    s.run_for(SimDuration::from_mins(2));
    assert!(s.stack.apply_fault(FaultAction::Crash(names::ALARM.into())));
    s.run_for(SimDuration::from_mins(4));
    s
}

/// Seconds between the hostile web's denied device writes.
const PROBE_PERIOD_S: u64 = 90;

#[test]
fn minix_traces_are_pinned() {
    let s = benign::<MinixStack>(MinixOverrides::default());
    assert_eq!(
        trace_summary(s.stack.kernel.trace().events()),
        MINIX_PLAIN_TRACE
    );
    let s = benign::<MinixStack>(MinixOverrides {
        supervise: true,
        ..MinixOverrides::default()
    });
    assert_eq!(
        trace_summary(s.stack.kernel.trace().events()),
        MINIX_SUPERVISED_TRACE
    );
    use bas_minix::syscall::{Reply, Syscall};
    let s = hostile::<MinixStack>(MinixOverrides {
        web_factory: Some(Box::new(|| {
            Box::new(Script::<Syscall, Reply>::looping(vec![
                Syscall::DevWrite {
                    dev: DeviceId::FAN,
                    value: 1,
                },
                Syscall::Sleep {
                    duration: SimDuration::from_secs(PROBE_PERIOD_S),
                },
            ]))
        })),
        ..MinixOverrides::default()
    });
    assert_eq!(
        trace_summary(s.stack.kernel.trace().events()),
        MINIX_HOSTILE_TRACE
    );
}

#[test]
fn sel4_traces_are_pinned() {
    let s = benign::<Sel4Stack>(Sel4Overrides::default());
    assert_eq!(trace_summary(s.stack.kernel.trace().events()), SEL4_TRACE);
    use bas_sel4::{CPtr, Reply, Syscall};
    let s = hostile::<Sel4Stack>(Sel4Overrides {
        web_factory: Some(Box::new(|_glue| {
            Box::new(Script::<Syscall, Reply>::looping(vec![
                Syscall::DevWrite {
                    dev: CPtr::new(200),
                    value: 1,
                },
                Syscall::Sleep {
                    duration: SimDuration::from_secs(PROBE_PERIOD_S),
                },
            ]))
        })),
        ..Sel4Overrides::default()
    });
    assert_eq!(
        trace_summary(s.stack.kernel.trace().events()),
        SEL4_HOSTILE_TRACE
    );
}

#[test]
fn linux_traces_are_pinned() {
    let s = benign::<LinuxStack>(LinuxOverrides::default());
    assert_eq!(
        trace_summary(s.stack.kernel.trace().events()),
        LINUX_SHARED_TRACE
    );
    let s = benign::<LinuxStack>(LinuxOverrides {
        uid_scheme: UidScheme::PerProcessHardened,
        ..LinuxOverrides::default()
    });
    assert_eq!(
        trace_summary(s.stack.kernel.trace().events()),
        LINUX_HARDENED_TRACE
    );
    use bas_linux::{Reply, Syscall};
    let s = hostile::<LinuxStack>(LinuxOverrides {
        web_factory: Some(Box::new(|| {
            Box::new(Script::<Syscall, Reply>::looping(vec![
                Syscall::DevWrite {
                    dev: DeviceId::FAN,
                    value: 1,
                },
                Syscall::Sleep {
                    duration: SimDuration::from_secs(PROBE_PERIOD_S),
                },
            ]))
        })),
        uid_scheme: UidScheme::PerProcessHardened,
        ..LinuxOverrides::default()
    });
    assert_eq!(
        trace_summary(s.stack.kernel.trace().events()),
        LINUX_HOSTILE_TRACE
    );
}

const MINIX_PLAIN_TRACE: &str =
    "lines 2256 fnv1a 016f6d3aea25bbbe dev.write=215 ipc.deliver=2034 proc.exit=1 proc.spawn=6";
const MINIX_SUPERVISED_TRACE: &str =
    "lines 2257 fnv1a d070ecc9374230c2 dev.write=215 ipc.deliver=2034 proc.exit=1 proc.spawn=7";
const MINIX_HOSTILE_TRACE: &str =
    "lines 1413 fnv1a 51e6ac8904900f51 acm.deny=180 cap.churn=2 dev.deny=14 dev.write=97 fault.clock=1 fault.crash=1 fault.ipc=3 ipc.deliver=1108 proc.exit=1 proc.spawn=6";
const MINIX_RESTART_TRACE: &str =
    "lines 2231 fnv1a 1839b59d37baed5e dev.write=202 fault.crash=1 ipc.deliver=2019 proc.exit=1 proc.spawn=8";
const SEL4_TRACE: &str =
    "lines 2019 fnv1a 08b9886d8e620c2a dev.write=102 ipc.deliver=1912 thread.start=5";
const SEL4_HOSTILE_TRACE: &str =
    "lines 1296 fnv1a d31f63d77165b8fc cap.churn=2 cap.deny=194 dev.write=39 fault.clock=1 fault.crash=1 fault.ipc=3 ipc.deliver=1051 thread.start=5";
const LINUX_SHARED_TRACE: &str =
    "lines 2023 fnv1a a9b879ad2a6f4292 dev.write=99 mq.send=1919 proc.spawn=5";
const LINUX_HARDENED_TRACE: &str =
    "lines 2023 fnv1a 28ef155d5040dba9 dev.write=99 mq.send=1919 proc.spawn=5";
const LINUX_HOSTILE_TRACE: &str =
    "lines 1317 fnv1a d39bb9c1b3cc6e0a cap.churn=2 dac.deny=14 dev.write=49 fault.clock=1 fault.crash=1 fault.ipc=3 mq.send=1242 proc.spawn=5";

const MINIX_PLAIN: &str = r#"metrics KernelMetrics { context_switches: 8060, kernel_entries: 11520, ipc_messages: 2039, ipc_bytes: 130496, access_denied: 0, syscall_errors: 0, processes_created: 6, processes_reaped: 1, hot_path_allocs: 0, ipc_waits: 5 }
response Status { temp_milli_c: 22400, setpoint_milli_c: 22000, fan_on: true, alarm_on: false }
response Ack { code: 0 }
response Status { temp_milli_c: 22400, setpoint_milli_c: 24000, fan_on: true, alarm_on: false }
response Ack { code: 1 }
response Ack { code: 0 }
response Status { temp_milli_c: 24300, setpoint_milli_c: 23000, fan_on: false, alarm_on: false }
response Status { temp_milli_c: 23000, setpoint_milli_c: 23000, fan_on: false, alarm_on: false }
response Ack { code: 0 }
response Status { temp_milli_c: 22600, setpoint_milli_c: 22500, fan_on: false, alarm_on: false }
response Status { temp_milli_c: 22600, setpoint_milli_c: 22500, fan_on: false, alarm_on: false }
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
plant PlantSnapshot { safety_violated: false, max_deviation_c: 1.7327925305285916, in_band_fraction: 0.9870428667105555, final_temp_c: 22.266102193172056, alarm_on: false, fan_switches: 102, alarm_latencies_s: [] }
"#;
const MINIX_SUPERVISED: &str = r#"metrics KernelMetrics { context_switches: 8964, kernel_entries: 16020, ipc_messages: 2039, ipc_bytes: 130496, access_denied: 0, syscall_errors: 0, processes_created: 7, processes_reaped: 1, hot_path_allocs: 0, ipc_waits: 5 }
response Status { temp_milli_c: 22400, setpoint_milli_c: 22000, fan_on: true, alarm_on: false }
response Ack { code: 0 }
response Status { temp_milli_c: 22400, setpoint_milli_c: 24000, fan_on: true, alarm_on: false }
response Ack { code: 1 }
response Ack { code: 0 }
response Status { temp_milli_c: 24300, setpoint_milli_c: 23000, fan_on: false, alarm_on: false }
response Status { temp_milli_c: 23000, setpoint_milli_c: 23000, fan_on: false, alarm_on: false }
response Ack { code: 0 }
response Status { temp_milli_c: 22600, setpoint_milli_c: 22500, fan_on: false, alarm_on: false }
response Status { temp_milli_c: 22600, setpoint_milli_c: 22500, fan_on: false, alarm_on: false }
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
plant PlantSnapshot { safety_violated: false, max_deviation_c: 1.732791357770921, in_band_fraction: 0.9870428137716667, final_temp_c: 22.26609956336677, alarm_on: false, fan_switches: 102, alarm_latencies_s: [] }
"#;
const MINIX_RESTART: &str = r#"metrics KernelMetrics { context_switches: 8920, kernel_entries: 15991, ipc_messages: 2025, ipc_bytes: 129600, access_denied: 0, syscall_errors: 2, processes_created: 8, processes_reaped: 2, hot_path_allocs: 0, ipc_waits: 5 }
response Status { temp_milli_c: 22400, setpoint_milli_c: 22000, fan_on: true, alarm_on: false }
response Ack { code: 0 }
response Status { temp_milli_c: 22400, setpoint_milli_c: 24000, fan_on: true, alarm_on: false }
response Ack { code: 0 }
response Status { temp_milli_c: 22100, setpoint_milli_c: 23000, fan_on: false, alarm_on: false }
response Status { temp_milli_c: 23000, setpoint_milli_c: 23000, fan_on: true, alarm_on: false }
response Ack { code: 0 }
response Status { temp_milli_c: 22900, setpoint_milli_c: 22500, fan_on: false, alarm_on: false }
response Status { temp_milli_c: 22900, setpoint_milli_c: 22500, fan_on: false, alarm_on: false }
request 60000000000 60000172134 QueryStatus true
request 60000000000 60000172134 SetSetpoint(24000) true
request 60000000000 60000172134 QueryStatus true
request 300000000000 300050079750 SetSetpoint(95000) false
request 600000000000 600000112756 SetSetpoint(23000) true
request 600000000000 600000112756 QueryStatus true
request 1200000000000 1200000081878 QueryStatus true
request 1500000000000 1500000172134 SetSetpoint(22500) true
request 1500000000000 1500000172134 QueryStatus true
request 1500000000000 1500000172134 QueryStatus true
plant PlantSnapshot { safety_violated: true, max_deviation_c: 2.373255987890161, in_band_fraction: 0.7345265877977777, final_temp_c: 22.2972332313356, alarm_on: false, fan_switches: 87, alarm_latencies_s: [] }
"#;
const SEL4: &str = r#"metrics KernelMetrics { context_switches: 7547, kernel_entries: 11268, ipc_messages: 3824, ipc_bytes: 60496, access_denied: 0, syscall_errors: 0, processes_created: 5, processes_reaped: 0, hot_path_allocs: 0, ipc_waits: 5 }
response Status { temp_milli_c: 22400, setpoint_milli_c: 22000, fan_on: true, alarm_on: false }
response Ack { code: 0 }
response Status { temp_milli_c: 22400, setpoint_milli_c: 24000, fan_on: true, alarm_on: false }
response Ack { code: 1 }
response Ack { code: 0 }
response Status { temp_milli_c: 24300, setpoint_milli_c: 23000, fan_on: false, alarm_on: false }
response Status { temp_milli_c: 23000, setpoint_milli_c: 23000, fan_on: false, alarm_on: false }
response Ack { code: 0 }
response Status { temp_milli_c: 22600, setpoint_milli_c: 22500, fan_on: false, alarm_on: false }
response Status { temp_milli_c: 22600, setpoint_milli_c: 22500, fan_on: false, alarm_on: false }
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
plant PlantSnapshot { safety_violated: false, max_deviation_c: 1.7327917538278292, in_band_fraction: 0.9870382822488889, final_temp_c: 22.26511178855962, alarm_on: false, fan_switches: 102, alarm_latencies_s: [] }
"#;
const LINUX_SHARED: &str = r#"metrics KernelMetrics { context_switches: 4052, kernel_entries: 12969, ipc_messages: 1919, ipc_bytes: 122816, access_denied: 0, syscall_errors: 0, processes_created: 5, processes_reaped: 0, hot_path_allocs: 0, ipc_waits: 0 }
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
plant PlantSnapshot { safety_violated: false, max_deviation_c: 1.7824861565918866, in_band_fraction: 0.984488491171111, final_temp_c: 22.3214389923813, alarm_on: false, fan_switches: 99, alarm_latencies_s: [] }
"#;
const LINUX_HARDENED: &str = r#"metrics KernelMetrics { context_switches: 4052, kernel_entries: 12969, ipc_messages: 1919, ipc_bytes: 122816, access_denied: 0, syscall_errors: 0, processes_created: 5, processes_reaped: 0, hot_path_allocs: 0, ipc_waits: 0 }
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
plant PlantSnapshot { safety_violated: false, max_deviation_c: 1.7824861565918866, in_band_fraction: 0.984488491171111, final_temp_c: 22.3214389923813, alarm_on: false, fan_switches: 99, alarm_latencies_s: [] }
"#;
