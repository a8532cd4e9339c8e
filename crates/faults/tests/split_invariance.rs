//! `run_for` is split-invariant: one call over a run computes the same
//! instance as the run split at chunk boundaries.
//!
//! Every lockstep chunk aims at the next multiple of `lockstep_chunk`
//! since boot, so a split at a chunk boundary gives the kernel the same
//! targets and the plant the same steps as one call, even when the
//! kernel overshoots the split point. Each case below runs on all three
//! platforms three ways — one call, split at seeded random chunk
//! boundaries, and one call per chunk — and every observable must agree:
//! the final clock, kernel counters, the rendered kernel trace, web
//! responses, request samples, the plant's time series and safety
//! report, the attacker's evidence and the fault injector's log. Each
//! case makes the kernel end a chunk past its target: under tenant
//! traffic MINIX and seL4 first do so at t = 289.3 s (by ~6 µs), the
//! attacker cell on every platform after t = 1000 s, and the fault
//! plan's 250 ms IPC delay on every platform at t = 151.1 s (by more
//! than a chunk).

use bas_attack::evidence::{new_evidence, EvidenceLog};
use bas_attack::{web_factory, AttackId, AttackRunConfig, LinuxBinding, MinixBinding, Sel4Binding};
use bas_core::engine::{PlatformKernel, ScenarioEngine};
use bas_core::logic::traffic::TrafficProfile;
use bas_core::platform::linux::{LinuxOverrides, LinuxStack};
use bas_core::platform::minix::{MinixOverrides, MinixStack};
use bas_core::platform::sel4::{Sel4Overrides, Sel4Stack};
use bas_core::proto::names;
use bas_core::scenario::{Scenario, ScenarioConfig};
use bas_faults::inject::Injector;
use bas_faults::plan::{FaultEvent, FaultKind, FaultPlan};
use bas_fleet::instance_seed;
use bas_sim::device::DeviceId;
use bas_sim::kernel::Kernel;
use bas_sim::time::SimDuration;

/// Everything a run shows an observer, rendered for comparison.
#[derive(Debug, PartialEq)]
struct Observed {
    now: String,
    metrics: String,
    kernel_trace: Vec<String>,
    responses: String,
    requests: String,
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
    let fired = match plan {
        Some(plan) => {
            let mut injector = Injector::install(&mut s, plan);
            for &d in calls {
                injector.run_for(&mut s, d);
            }
            format!("{:?}", injector.log().fired())
        }
        None => {
            for &d in calls {
                s.run_for(d);
            }
            String::new()
        }
    };
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
        plant_trace: format!("{:?}", plant.trace()),
        safety: format!("{:?}", plant.safety_report()),
        evidence,
        fired,
    }
}

/// `horizon` as one call, split at seeded random chunk boundaries, and
/// split at every chunk boundary.
fn splits(horizon: SimDuration, chunk: SimDuration, seed: u64) -> [Vec<SimDuration>; 3] {
    let (chunk, chunks) = (chunk.as_nanos(), horizon.as_nanos() / chunk.as_nanos());
    assert_eq!(
        chunks * chunk,
        horizon.as_nanos(),
        "the horizon is whole chunks"
    );
    let mut points: Vec<u64> = (0..12)
        .map(|k| (instance_seed(seed, k) % (chunks - 1) + 1) * chunk)
        .collect();
    points.push(horizon.as_nanos());
    points.sort_unstable();
    points.dedup();
    let random = points
        .iter()
        .scan(0, |at, &p| {
            let d = SimDuration::from_nanos(p - *at);
            *at = p;
            Some(d)
        })
        .collect();
    let per_chunk = vec![SimDuration::from_nanos(chunk); chunks as usize];
    [vec![horizon], random, per_chunk]
}

/// Asserts on `K` that every split of `horizon` observes the one-call run.
fn assert_split_invariant<K: PlatformKernel>(
    case: &str,
    config: &ScenarioConfig,
    setup: &dyn Fn() -> (K::Overrides, EvidenceLog),
    plan: Option<&FaultPlan>,
    horizon: SimDuration,
) {
    let [one, random, per_chunk] = splits(horizon, config.lockstep_chunk, config.seed);
    let expected = observe::<K>(config, setup, plan, &one);
    assert!(
        expected.kernel_trace.len() > 100,
        "{case} on {}: the kernel ran",
        K::PLATFORM
    );
    for (how, calls) in [
        ("random chunk boundaries", random),
        ("every chunk", per_chunk),
    ] {
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

#[test]
fn attacker_runs_split_invariantly() {
    // The A1 sensor-spoofing cell of the attack matrix.
    let run = AttackRunConfig::default();
    let attack = AttackId::SpoofSensorData;
    let horizon = run.warmup + run.window + run.cooldown;
    let config = &run.scenario;
    assert_split_invariant::<MinixStack>(
        "spoofing",
        config,
        &|| {
            let evidence = new_evidence();
            let overrides = MinixOverrides {
                web_factory: Some(web_factory::<MinixBinding>(attack, run.warmup, &evidence)),
                ..MinixOverrides::default()
            };
            (overrides, evidence)
        },
        None,
        horizon,
    );
    assert_split_invariant::<Sel4Stack>(
        "spoofing",
        config,
        &|| {
            let evidence = new_evidence();
            let overrides = Sel4Overrides {
                web_factory: Some(web_factory::<Sel4Binding>(attack, run.warmup, &evidence)),
                ..Sel4Overrides::default()
            };
            (overrides, evidence)
        },
        None,
        horizon,
    );
    assert_split_invariant::<LinuxStack>(
        "spoofing",
        config,
        &|| {
            let evidence = new_evidence();
            let overrides = LinuxOverrides {
                web_factory: Some(web_factory::<LinuxBinding>(attack, run.warmup, &evidence)),
                ..LinuxOverrides::default()
            };
            (overrides, evidence)
        },
        None,
        horizon,
    );
}

#[test]
fn fault_runs_split_invariantly() {
    // Events off the chunk grid, under tenant traffic.
    let at = SimDuration::from_millis;
    let device = DeviceId::TEMP_SENSOR;
    let plan = FaultPlan::new(
        "mixed",
        vec![
            FaultEvent::new(
                at(30_050),
                FaultKind::SensorGlitch {
                    device,
                    offset: 2_500,
                },
            ),
            FaultEvent::new(at(90_000), FaultKind::SensorRestore { device }),
            FaultEvent::new(at(120_001), FaultKind::IpcDrop { count: 3 }),
            FaultEvent::new(
                at(150_099),
                FaultKind::IpcDelay {
                    count: 2,
                    delay: at(250),
                },
            ),
            FaultEvent::new(at(180_000), FaultKind::IpcDuplicate { count: 2 }),
            FaultEvent::new(
                at(240_070),
                FaultKind::SensorStuckAt {
                    device,
                    raw: 26_000,
                },
            ),
            FaultEvent::new(at(300_000), FaultKind::SensorDropout { device }),
            FaultEvent::new(at(330_030), FaultKind::SensorRestore { device }),
            FaultEvent::new(
                at(400_010),
                FaultKind::Crash {
                    process: names::HEATER.to_string(),
                },
            ),
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
