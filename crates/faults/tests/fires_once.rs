//! Schedule fidelity: every event in a plan fires exactly once, in plan
//! order, at the first dispatch point at or after its scheduled time —
//! on all three platforms. The kernel's fault calendar records each
//! firing.

use bas_core::engine::{PlatformKernel, ScenarioEngine};
use bas_core::platform::linux::LinuxStack;
use bas_core::platform::minix::MinixStack;
use bas_core::platform::sel4::Sel4Stack;
use bas_core::proto::names;
use bas_core::scenario::{Scenario, ScenarioConfig};
use bas_faults::plan::{install, FaultEvent, FaultPlan};
use bas_sim::caps::{CapChurnOp, ChurnKind};
use bas_sim::device::DeviceId;
use bas_sim::fault::FaultAction::{self, Churn, Crash, Ipc, Sensor, Skew};
use bas_sim::fault::{Firing, IpcFault, SensorFaultMode};
use bas_sim::kernel::Kernel;
use bas_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// Runs `plan` for `horizon` and returns the fault calendar's firings.
fn run_plan<K: PlatformKernel>(plan: &FaultPlan, horizon: SimDuration) -> Vec<Firing> {
    let config = ScenarioConfig::quiet();
    let mut engine = ScenarioEngine::<K>::boot(&config, Default::default());
    install(&mut engine, plan);
    engine.run_for(horizon);
    engine.stack.kernel().fault_calendar().fired().to_vec()
}

/// Where the kernel's clock stands once a run under the events before
/// `index` reaches event `index`'s time: the first dispatch point at or
/// after it.
fn first_dispatch_point<K: PlatformKernel>(plan: &FaultPlan, index: usize) -> u64 {
    let prefix = FaultPlan::new("prefix", plan.events()[..index].to_vec());
    let mut engine = ScenarioEngine::<K>::boot(&ScenarioConfig::quiet(), Default::default());
    install(&mut engine, &prefix);
    engine.run_for(plan.events()[index].at);
    engine.now().as_nanos()
}

/// Actions that do not move the kernel clock: the IPC delays are short,
/// so a dispatch in flight at an event's time ends less than 3 ms after
/// it. Clock skew gets its own test.
fn arb_action() -> impl Strategy<Value = FaultAction<CapChurnOp>> {
    let temp = DeviceId::TEMP_SENSOR;
    prop_oneof![
        (20_000i64..30_000).prop_map(move |raw| Sensor(temp, SensorFaultMode::StuckAt(raw))),
        (-3_000i64..3_000).prop_map(move |offset| Sensor(temp, SensorFaultMode::Glitch { offset })),
        Just(Sensor(temp, SensorFaultMode::Dropout)),
        Just(Sensor(temp, SensorFaultMode::Nominal)),
        (1u32..5).prop_map(|count| Ipc(IpcFault::Drop, count)),
        (1u32..4).prop_map(|count| Ipc(IpcFault::Delay(SimDuration::from_millis(2)), count)),
        (1u32..5).prop_map(|count| Ipc(IpcFault::Duplicate, count)),
        Just(Crash(names::HEATER.to_string())),
        prop::sample::select(vec![None, Some(0u32), Some(1)]).prop_map(|arm_after_checks| {
            let op = CapChurnOp::new(ChurnKind::Revoke, names::SENSOR, names::CONTROL);
            Churn(vec![op], arm_after_checks)
        }),
    ]
}

proptest! {
    /// Random plans replay with full fidelity everywhere: one firing per
    /// event, in order, at the first dispatch point at or after the
    /// scheduled time (the time itself when the kernel is idle there).
    #[test]
    fn every_event_fires_exactly_once_on_every_platform(
        raw_events in prop::collection::vec((5_000_000_000u64..25_000_000_000, arb_action()), 1..5),
    ) {
        let plan = FaultPlan::new(
            "random",
            raw_events
                .into_iter()
                .map(|(at_ns, action)| FaultEvent::new(SimDuration::from_nanos(at_ns), action))
                .collect(),
        );
        let horizon = SimDuration::from_secs(30);
        type Oracle = fn(&FaultPlan, usize) -> u64;
        for (platform, fired, oracle) in [
            ("linux", run_plan::<LinuxStack>(&plan, horizon), first_dispatch_point::<LinuxStack> as Oracle),
            ("minix", run_plan::<MinixStack>(&plan, horizon), first_dispatch_point::<MinixStack>),
            ("sel4", run_plan::<Sel4Stack>(&plan, horizon), first_dispatch_point::<Sel4Stack>),
        ] {
            prop_assert_eq!(
                fired.len(),
                plan.events().len(),
                "{}: every event fires exactly once",
                platform
            );
            for (i, (f, ev)) in fired.iter().zip(plan.events()).enumerate() {
                prop_assert_eq!(f.due, SimTime::ZERO + ev.at, "{}: plan order preserved", platform);
                let (applied, scheduled) = (f.at.as_nanos(), ev.at.as_nanos());
                prop_assert!(applied >= scheduled, "{}: event {} fired early", platform, i);
                prop_assert!(
                    applied - scheduled < 3_000_000,
                    "{}: event {} fired {}ns late",
                    platform,
                    i,
                    applied - scheduled
                );
                prop_assert_eq!(applied, oracle(&plan, i), "{}: event {}", platform, i);
            }
        }
    }
}

/// Clock skew fires once too, and events scheduled beyond the jump still
/// fire (the run loop compares against the skewed clock).
#[test]
fn clock_skew_fires_once_and_later_events_survive() {
    let plan = FaultPlan::new(
        "skew",
        vec![
            FaultEvent::new(SimDuration::from_secs(5), Skew(SimDuration::from_secs(10))),
            FaultEvent::new(SimDuration::from_secs(20), Crash(names::HEATER.to_string())),
        ],
    );
    let h = SimDuration::from_secs(30);
    for (platform, fired) in [
        ("linux", run_plan::<LinuxStack>(&plan, h)),
        ("minix", run_plan::<MinixStack>(&plan, h)),
        ("sel4", run_plan::<Sel4Stack>(&plan, h)),
    ] {
        let [_, crash] = fired[..] else {
            panic!("{platform}: both events fire: {fired:?}");
        };
        assert!(crash.hit, "{platform}: post-skew crash still lands");
        assert!(
            crash.at.as_nanos() >= SimDuration::from_secs(20).as_nanos(),
            "{platform}: post-skew event respects its schedule"
        );
    }
}

/// A crash aimed at a name nobody bears is reported as a miss, not an
/// error — the campaign scorecard records it as `hit: false`.
#[test]
fn crash_against_unknown_name_is_a_recorded_miss() {
    let plan = FaultPlan::new(
        "miss",
        vec![FaultEvent::new(
            SimDuration::from_secs(5),
            Crash("no_such_process".to_string()),
        )],
    );
    let fired = run_plan::<MinixStack>(&plan, SimDuration::from_secs(10));
    assert!(matches!(fired[..], [Firing { hit: false, .. }]));
}
