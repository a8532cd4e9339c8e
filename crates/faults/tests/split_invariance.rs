//! `run_for` is split-invariant: one call over a run computes the same
//! instance as the run split at any points.
//!
//! The kernel's run loop stops at the first point between dispatches at
//! or past each call's end and resumes from there, and the plant commits
//! only at input changes, each at its own time: a call boundary is
//! invisible to both. Each case below runs on all three platforms three
//! ways: one call; split at twelve seeded nanosecond points, none on a
//! multiple of 100 ms; and one call per 1,000,000,007 ns. Between the
//! pieces each split run takes a plant snapshot, which must not commit
//! anything.
//! Every observable must agree: the final clock, kernel counters, the
//! rendered kernel trace, web responses, request samples, the plant's
//! committed history, time series and safety report, the attacker's
//! evidence and the fault calendar's fired state. The kernel overshoots a
//! split point whenever a dispatch in flight there ends past it; the
//! fault plan's 250 ms IPC delays make such dispatches long.

use bas_attack::evidence::{new_evidence, EvidenceLog};
use bas_attack::procs::Binding;
use bas_attack::{
    attack_overrides, AttackId, AttackRunConfig, AttackerModel, LinuxBinding, MinixBinding,
    Sel4Binding,
};
use bas_core::engine::{PlatformKernel, ScenarioEngine};
use bas_core::logic::traffic::TrafficProfile;
use bas_core::logic::web::WebAction;
use bas_core::platform::linux::LinuxStack;
use bas_core::platform::minix::MinixStack;
use bas_core::platform::sel4::Sel4Stack;
use bas_core::proto::names;
use bas_core::scenario::{plant_snapshot, Scenario, ScenarioConfig};
use bas_faults::plan::{install, FaultEvent, FaultPlan};
use bas_fleet::instance_seed;
use bas_sim::caps::CapChurnOp;
use bas_sim::caps::ChurnKind::{Grant, Revoke};
use bas_sim::device::DeviceId;
use bas_sim::fault::FaultAction::{Churn, Crash, Ipc, Sensor, Skew};
use bas_sim::fault::IpcFault;
use bas_sim::fault::SensorFaultMode::{Dropout, Glitch, Nominal, StuckAt};
use bas_sim::kernel::Kernel;
use bas_sim::time::{SimDuration, SimTime};

/// Everything a run shows an observer, rendered for comparison.
#[derive(Debug, PartialEq)]
struct Observed {
    now: String,
    metrics: String,
    kernel_trace: Vec<String>,
    responses: String,
    requests: String,
    plant_history: String,
    plant_trace: String,
    safety: String,
    evidence: String,
    fired: String,
}

/// Boots `config` on `K` with the overrides and evidence log `setup`
/// makes, then runs it in `calls`, under `plan` when there is one.
fn observe<K: PlatformKernel>(
    config: &ScenarioConfig,
    setup: &dyn Fn() -> (K::Overrides, EvidenceLog),
    plan: Option<&FaultPlan>,
    calls: &[SimDuration],
) -> Observed {
    let (overrides, evidence) = setup();
    let mut s = ScenarioEngine::<K>::boot(config, overrides);
    if let Some(plan) = plan {
        install(&mut s, plan);
    }
    for &d in calls {
        s.run_for(d);
        plant_snapshot(&s);
    }
    let plant = s.plant();
    let plant = plant.borrow();
    let evidence = format!("{:?}", evidence.borrow());
    Observed {
        now: s.now().to_string(),
        metrics: format!("{:?}", s.metrics()),
        kernel_trace: s
            .stack
            .kernel()
            .trace()
            .events()
            .iter()
            .map(ToString::to_string)
            .collect(),
        responses: format!("{:?}", s.web_responses()),
        requests: format!("{:?}", s.request_samples()),
        plant_history: format!("{:?}", plant.segments()),
        plant_trace: format!("{:?}", plant.trace()),
        safety: format!("{:?}", plant.safety_report()),
        evidence,
        fired: format!("{:?}", s.stack.kernel().fault_calendar().fired()),
    }
}

/// `horizon` as one call, split at twelve seeded nanosecond points, and
/// split every 1,000,000,007 ns.
fn splits(horizon: SimDuration, seed: u64) -> [Vec<SimDuration>; 3] {
    let pieces = |points: &mut Vec<u64>| {
        points.push(horizon.as_nanos());
        points.sort_unstable();
        points.dedup();
        let mut at = 0;
        points
            .iter()
            .map(|&p| SimDuration::from_nanos(p - std::mem::replace(&mut at, p)))
            .collect()
    };
    let mut random: Vec<u64> = (0..12)
        .map(|k| instance_seed(seed, k) % horizon.as_nanos())
        .collect();
    assert!(
        random.iter().all(|p| p % 100_000_000 != 0),
        "off every multiple of 100 ms"
    );
    let stride = 1_000_000_007;
    let mut dense: Vec<u64> = (1..=horizon.as_nanos() / stride)
        .map(|k| k * stride)
        .collect();
    [vec![horizon], pieces(&mut random), pieces(&mut dense)]
}

/// Asserts on `K` that every split of `horizon` observes the one-call run.
fn assert_split_invariant<K: PlatformKernel>(
    case: &str,
    config: &ScenarioConfig,
    setup: &dyn Fn() -> (K::Overrides, EvidenceLog),
    plan: Option<&FaultPlan>,
    horizon: SimDuration,
) -> Observed {
    let [one, random, dense] = splits(horizon, config.seed);
    let expected = observe::<K>(config, setup, plan, &one);
    assert!(
        expected.kernel_trace.len() > 100,
        "{case} on {}: the kernel ran",
        K::PLATFORM
    );
    for (how, calls) in [("random points", random), ("every ~1 s", dense)] {
        let observed = observe::<K>(config, setup, plan, &calls);
        // Compare the trace first: its first differing line says where.
        for (i, (got, want)) in observed
            .kernel_trace
            .iter()
            .zip(&expected.kernel_trace)
            .enumerate()
        {
            assert_eq!(
                got,
                want,
                "{case} on {}, split at {how}: trace line {i}",
                K::PLATFORM
            );
        }
        assert_eq!(
            observed,
            expected,
            "{case} on {}, split at {how}",
            K::PLATFORM
        );
    }
    expected
}

fn benign<O: Default>() -> (O, EvidenceLog) {
    (O::default(), new_evidence())
}

#[test]
fn tenant_traffic_runs_split_invariantly() {
    // Instance 1 of a 30-instance tenant-traffic fleet under root seed 42.
    let config = ScenarioConfig {
        traffic: Some(TrafficProfile::default()),
        seed: instance_seed(42, 1),
        ..ScenarioConfig::quiet()
    };
    let horizon = SimDuration::from_secs(660);
    assert_split_invariant::<MinixStack>("traffic", &config, &benign, None, horizon);
    assert_split_invariant::<Sel4Stack>("traffic", &config, &benign, None, horizon);
    assert_split_invariant::<LinuxStack>("traffic", &config, &benign, None, horizon);
}

/// Asserts on `B`'s platform that an A1 attacker running `attack` under
/// `run` runs split-invariantly.
fn assert_attack_split_invariant<B: Binding>(attack: AttackId, run: &AttackRunConfig) {
    let setup = || {
        let evidence = new_evidence();
        let overrides = attack_overrides::<B>(AttackerModel::ArbitraryCode, attack, run, &evidence);
        (overrides, evidence)
    };
    let horizon = run.warmup + run.window + run.cooldown;
    assert_split_invariant::<B::Stack>("spoofing", &run.scenario, &setup, None, horizon);
}

#[test]
fn attacker_runs_split_invariantly() {
    // The A1 sensor-spoofing cell of the attack matrix.
    let run = AttackRunConfig::default();
    assert_attack_split_invariant::<MinixBinding>(AttackId::SpoofSensorData, &run);
    assert_attack_split_invariant::<Sel4Binding>(AttackId::SpoofSensorData, &run);
    assert_attack_split_invariant::<LinuxBinding>(AttackId::SpoofSensorData, &run);
}

#[test]
fn fault_runs_split_invariantly() {
    // Events off the chunk grid, under tenant traffic.
    let at = SimDuration::from_millis;
    let device = DeviceId::TEMP_SENSOR;
    let op = |kind, subject| CapChurnOp::new(kind, subject, names::CONTROL);
    let plan = FaultPlan::new(
        "mixed",
        vec![
            FaultEvent::new(at(30_050), Sensor(device, Glitch { offset: 2_500 })),
            FaultEvent::new(at(90_000), Sensor(device, Nominal)),
            FaultEvent::new(at(120_001), Ipc(IpcFault::Drop, 3)),
            FaultEvent::new(at(150_099), Ipc(IpcFault::Delay(at(250)), 2)),
            FaultEvent::new(at(180_000), Ipc(IpcFault::Duplicate, 2)),
            FaultEvent::new(at(240_070), Sensor(device, StuckAt(26_000))),
            FaultEvent::new(at(300_000), Sensor(device, Dropout)),
            FaultEvent::new(at(330_030), Sensor(device, Nominal)),
            FaultEvent::new(at(400_010), Crash(names::HEATER.to_string())),
            // Capability churn: a timed revoke and re-grant of the web
            // interface's channel, and a sensor revoke armed inside the
            // check→use window.
            FaultEvent::new(at(200_013), Churn(vec![op(Revoke, names::WEB)], None)),
            FaultEvent::new(at(260_041), Churn(vec![op(Grant, names::WEB)], None)),
            FaultEvent::new(at(450_003), Churn(vec![op(Revoke, names::SENSOR)], Some(2))),
            FaultEvent::new(at(500_007), Skew(at(1_500))),
        ],
    );
    let config = ScenarioConfig {
        traffic: Some(TrafficProfile::default()),
        seed: 7,
        ..ScenarioConfig::quiet()
    };
    let horizon = SimDuration::from_secs(600);
    let plan = Some(&plan);
    assert_split_invariant::<MinixStack>("faults", &config, &benign, plan, horizon);
    assert_split_invariant::<Sel4Stack>("faults", &config, &benign, plan, horizon);
    assert_split_invariant::<LinuxStack>("faults", &config, &benign, plan, horizon);
}

#[test]
fn default_schedule_runs_split_invariantly() {
    // The default schedule writes a setpoint at 20 min and polls at 40.
    let config = ScenarioConfig::default();
    let horizon = SimDuration::from_mins(45);
    assert_split_invariant::<MinixStack>("default", &config, &benign, None, horizon);
    assert_split_invariant::<Sel4Stack>("default", &config, &benign, None, horizon);
    assert_split_invariant::<LinuxStack>("default", &config, &benign, None, horizon);
}

#[test]
fn reference_changes_with_a_dead_web_interface_run_split_invariantly() {
    // With the web interface crashed at 1 s, nothing in the kernel wakes
    // for the administrator's setpoint writes: the safety oracle's
    // reference moves at their own times, between kernel events.
    let at_ms = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    let config = ScenarioConfig {
        web_schedule: vec![
            (at_ms(61_250), WebAction::SetSetpoint(24_000)),
            (at_ms(61_270), WebAction::SetSetpoint(23_000)),
            (at_ms(300_050), WebAction::QueryStatus),
            (at_ms(420_999), WebAction::SetSetpoint(21_000)),
        ],
        ..ScenarioConfig::default()
    };
    let plan = FaultPlan::new(
        "dead web",
        vec![FaultEvent::new(
            SimDuration::from_secs(1),
            Crash(names::WEB.to_string()),
        )],
    );
    let horizon = SimDuration::from_mins(10);
    let plan = Some(&plan);
    let observed = assert_split_invariant::<Sel4Stack>("dead web", &config, &benign, plan, horizon);
    assert_eq!(observed.responses, "[]", "the web interface is dead");
    for setpoint in ["start: SimTime(61270000000)", "setpoint_c: 21.0"] {
        assert!(observed.plant_history.contains(setpoint), "{setpoint}");
    }
    assert_split_invariant::<MinixStack>("dead web", &config, &benign, plan, horizon);
    assert_split_invariant::<LinuxStack>("dead web", &config, &benign, plan, horizon);
}
