//! Schedule fidelity: every event in a plan fires exactly once, in plan
//! order, at the first lockstep chunk boundary at or after its scheduled
//! time — on all three platforms.

use bas_core::engine::{PlatformKernel, ScenarioEngine};
use bas_core::platform::linux::LinuxStack;
use bas_core::platform::minix::MinixStack;
use bas_core::platform::sel4::Sel4Stack;
use bas_core::proto::names;
use bas_core::scenario::ScenarioConfig;
use bas_faults::inject::{self, FiredEvent};
use bas_faults::plan::{FaultEvent, FaultKind, FaultPlan};
use bas_sim::device::DeviceId;
use bas_sim::time::SimDuration;
use proptest::prelude::*;

fn run_plan<K: PlatformKernel>(plan: &FaultPlan, horizon: SimDuration) -> Vec<FiredEvent> {
    let config = ScenarioConfig::quiet();
    let mut engine = ScenarioEngine::<K>::boot(&config, Default::default());
    inject::run(&mut engine, plan, horizon).fired().to_vec()
}

/// Kinds that do not move the kernel clock, so the chunk-grid bound
/// below stays tight: the IPC delays are short enough that the kernel
/// overshoots a boundary by less than one chunk. Clock skew gets its own
/// test.
fn arb_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        (20_000i64..30_000).prop_map(|raw| FaultKind::SensorStuckAt {
            device: DeviceId::TEMP_SENSOR,
            raw,
        }),
        (-3_000i64..3_000).prop_map(|offset| FaultKind::SensorGlitch {
            device: DeviceId::TEMP_SENSOR,
            offset,
        }),
        Just(FaultKind::SensorDropout {
            device: DeviceId::TEMP_SENSOR,
        }),
        Just(FaultKind::SensorRestore {
            device: DeviceId::TEMP_SENSOR,
        }),
        (1u32..5).prop_map(|count| FaultKind::IpcDrop { count }),
        (1u32..4).prop_map(|count| FaultKind::IpcDelay {
            count,
            delay: SimDuration::from_millis(2),
        }),
        (1u32..5).prop_map(|count| FaultKind::IpcDuplicate { count }),
        Just(FaultKind::Crash {
            process: names::HEATER.to_string(),
        }),
    ]
}

proptest! {
    /// Random plans replay with full fidelity everywhere: one firing per
    /// event, in order, at the first chunk-grid point at or after the
    /// scheduled time, plus at most the kernel's overshoot past that
    /// boundary (less than one chunk for these kinds).
    #[test]
    fn every_event_fires_exactly_once_on_every_platform(
        raw_events in prop::collection::vec((5u64..25, arb_kind()), 1..5),
    ) {
        let plan = FaultPlan::new(
            "random",
            raw_events
                .into_iter()
                .map(|(at_s, kind)| FaultEvent::new(SimDuration::from_secs(at_s), kind))
                .collect(),
        );
        let horizon = SimDuration::from_secs(30);
        let chunk = ScenarioConfig::quiet().lockstep_chunk.as_nanos();
        for (platform, fired) in [
            ("linux", run_plan::<LinuxStack>(&plan, horizon)),
            ("minix", run_plan::<MinixStack>(&plan, horizon)),
            ("sel4", run_plan::<Sel4Stack>(&plan, horizon)),
        ] {
            prop_assert_eq!(
                fired.len(),
                plan.events().len(),
                "{}: every event fires exactly once",
                platform
            );
            for (i, (f, ev)) in fired.iter().zip(plan.events()).enumerate() {
                prop_assert_eq!(f.index, i, "{}: plan order preserved", platform);
                prop_assert_eq!(f.scheduled, ev.at);
                let applied = f.applied_at.as_nanos();
                let boundary = ev.at.as_nanos().div_ceil(chunk) * chunk;
                prop_assert!(applied >= boundary, "{}: event {} fired early", platform, i);
                prop_assert!(
                    applied - boundary < chunk,
                    "{}: event {} fired {}ns past its boundary",
                    platform,
                    i,
                    applied - boundary
                );
            }
        }
    }
}

/// Clock skew fires once too, and events scheduled beyond the jump still
/// fire (the injector compares against the skewed clock).
#[test]
fn clock_skew_fires_once_and_later_events_survive() {
    let plan = FaultPlan::new(
        "skew",
        vec![
            FaultEvent::new(
                SimDuration::from_secs(5),
                FaultKind::ClockSkew {
                    advance: SimDuration::from_secs(10),
                },
            ),
            FaultEvent::new(
                SimDuration::from_secs(20),
                FaultKind::Crash {
                    process: names::HEATER.to_string(),
                },
            ),
        ],
    );
    for (platform, fired) in [
        (
            "linux",
            run_plan::<LinuxStack>(&plan, SimDuration::from_secs(30)),
        ),
        (
            "minix",
            run_plan::<MinixStack>(&plan, SimDuration::from_secs(30)),
        ),
        (
            "sel4",
            run_plan::<Sel4Stack>(&plan, SimDuration::from_secs(30)),
        ),
    ] {
        assert_eq!(fired.len(), 2, "{platform}: both events fire");
        assert!(fired[1].hit, "{platform}: post-skew crash still lands");
        assert!(
            fired[1].applied_at.as_nanos() >= SimDuration::from_secs(20).as_nanos(),
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
            FaultKind::Crash {
                process: "no_such_process".to_string(),
            },
        )],
    );
    let fired = run_plan::<MinixStack>(&plan, SimDuration::from_secs(10));
    assert_eq!(fired.len(), 1);
    assert!(!fired[0].hit);
}
