//! Golden pin of every platform stack's observable run.
//!
//! Each configuration boots the scenario, runs 30 simulated minutes on a
//! web schedule with same-tick bursts and one out-of-range setpoint, and
//! compares the exact kernel counters, the web interface's responses, the
//! stamped request samples and the plant's safety snapshot with values
//! recorded before the platform adapters were folded onto the shared role
//! cores. Any change to a syscall sequence moves at least one counter, so
//! a refactor of the adapters must leave these strings untouched.
//!
//! The same runs also pin the rendered kernel trace: its line count, an
//! FNV-1a digest of every `Display`ed event and the per-category counts.
//! A second, hostile run per platform adds the records a benign run never
//! writes: denials, capability churn, IPC faults, a clock skew and a
//! crash. A change to how trace records are stored must render them back
//! byte for byte.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

use bas_core::engine::{PlatformKernel, ScenarioEngine};
use bas_core::logic::web::WebAction;
use bas_core::platform::linux::{LinuxOverrides, LinuxStack, UidScheme};
use bas_core::platform::minix::{MinixOverrides, MinixStack};
use bas_core::platform::sel4::{Sel4Overrides, Sel4Stack};
use bas_core::proto::names;
use bas_core::scenario::{plant_snapshot, Scenario, ScenarioConfig};
use bas_sim::caps::{CapChurnOp, ChurnKind};
use bas_sim::device::DeviceId;
use bas_sim::fault::IpcFault;
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

/// Line count, FNV-1a digest and per-category counts of the rendered
/// kernel trace. The category is read back from the rendered line
/// (`[time] pid category: detail`), so the summary depends on the text
/// alone.
fn trace_summary<E: Display>(events: &[E]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut categories = BTreeMap::<String, usize>::new();
    for e in events {
        let line = format!("{e}\n");
        for b in line.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let category = line
            .split_whitespace()
            .nth(2)
            .expect("rendered event has a category")
            .trim_end_matches(':');
        *categories.entry(category.to_string()).or_default() += 1;
    }
    let mut out = format!("lines {} fnv1a {hash:016x}", events.len());
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
    s.stack.apply_cap_churn(&channel(ChurnKind::Revoke));
    s.run_for(SimDuration::from_mins(3));
    s.stack.apply_cap_churn(&channel(ChurnKind::Grant));
    s.run_for(SimDuration::from_mins(2));
    s.stack.arm_ipc_fault(IpcFault::Drop, 1);
    s.stack
        .arm_ipc_fault(IpcFault::Delay(SimDuration::from_millis(250)), 1);
    s.stack.arm_ipc_fault(IpcFault::Duplicate, 1);
    s.run_for(SimDuration::from_mins(5));
    s.stack.skew_clock(SimDuration::from_secs(7));
    s.run_for(SimDuration::from_mins(2));
    assert!(s.stack.inject_crash(names::ALARM));
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
    "lines 2248 fnv1a 20b4551cb433d167 dev.write=211 ipc.deliver=2030 proc.exit=1 proc.spawn=6";
const MINIX_SUPERVISED_TRACE: &str =
    "lines 2249 fnv1a 7fde4f7c355db4d9 dev.write=211 ipc.deliver=2030 proc.exit=1 proc.spawn=7";
const MINIX_HOSTILE_TRACE: &str =
    "lines 1422 fnv1a 2f454843acb71865 acm.deny=180 cap.churn=2 dev.deny=14 dev.write=98 fault.clock=1 fault.crash=1 fault.ipc=3 ipc.deliver=1116 proc.exit=1 proc.spawn=6";
const SEL4_TRACE: &str =
    "lines 2013 fnv1a a53fdc46aed85b47 dev.write=99 ipc.deliver=1909 thread.start=5";
const SEL4_HOSTILE_TRACE: &str =
    "lines 1303 fnv1a 1d49d65a90a3caea cap.churn=2 cap.deny=194 dev.write=39 fault.clock=1 fault.crash=1 fault.ipc=3 ipc.deliver=1058 thread.start=5";
const LINUX_SHARED_TRACE: &str =
    "lines 2025 fnv1a 23d0c262eb2980fa dev.write=100 mq.send=1920 proc.spawn=5";
const LINUX_HARDENED_TRACE: &str =
    "lines 2025 fnv1a 81162fe9f4fc7a01 dev.write=100 mq.send=1920 proc.spawn=5";
const LINUX_HOSTILE_TRACE: &str =
    "lines 1326 fnv1a 81d88720e096d34e cap.churn=2 dac.deny=14 dev.write=50 fault.clock=1 fault.crash=1 fault.ipc=3 mq.send=1250 proc.spawn=5";

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
