//! The idle fast-forward in `ScenarioEngine::run_for` is invisible.
//!
//! Without a tick hook, `run_for` skips the lockstep chunks in which the
//! kernel has nothing to do and steps only the plant at their
//! boundaries. An installed hook, even one that does nothing, keeps the
//! one-chunk-at-a-time loop, so a run with a no-op hook is the oracle:
//! on every platform and configuration below, both runs must agree on
//! every observable — kernel counters, the rendered kernel trace, web
//! responses, request samples, the plant's time series and its safety
//! report, and the final clock.

use bas_core::engine::{PlatformKernel, ScenarioEngine};
use bas_core::logic::traffic::TrafficProfile;
use bas_core::logic::web::{RequestSample, WebAction};
use bas_core::platform::linux::LinuxStack;
use bas_core::platform::minix::MinixStack;
use bas_core::platform::sel4::Sel4Stack;
use bas_core::proto::names;
use bas_core::scenario::{Scenario, ScenarioConfig};
use bas_core::BasMsg;
use bas_plant::{PlantSample, SafetyReport};
use bas_sim::kernel::Kernel;
use bas_sim::metrics::KernelMetrics;
use bas_sim::time::{SimDuration, SimTime};

/// Everything a run shows an observer.
#[derive(Debug, PartialEq)]
struct Observed {
    now: SimTime,
    metrics: KernelMetrics,
    kernel_trace: Vec<String>,
    responses: Vec<BasMsg>,
    requests: Vec<RequestSample>,
    plant_trace: Vec<PlantSample>,
    safety: SafetyReport,
}

/// Boots `config` on `K`, crashes the web interface in its first second
/// when `crash_web`, runs for each of `spans` in turn and records what the run
/// shows. With `hook`, a no-op tick hook forces per-chunk stepping.
fn observe<K: PlatformKernel>(
    config: &ScenarioConfig,
    crash_web: bool,
    spans: &[SimDuration],
    hook: bool,
) -> Observed {
    let mut s = ScenarioEngine::<K>::boot(config, Default::default());
    if hook {
        s.set_tick_hook(|_| {});
    }
    if crash_web {
        // MINIX's loader forks the processes once the kernel runs.
        s.run_for(SimDuration::from_secs(1));
        assert!(s.stack.inject_crash(names::WEB), "{}", K::PLATFORM);
    }
    for &span in spans {
        s.run_for(span);
    }
    let plant = s.plant();
    let plant = plant.borrow();
    Observed {
        now: s.now(),
        metrics: s.metrics(),
        kernel_trace: s
            .stack
            .kernel()
            .trace()
            .events()
            .iter()
            .map(ToString::to_string)
            .collect(),
        responses: s.web_responses(),
        requests: s.request_samples(),
        plant_trace: plant.trace().to_vec(),
        safety: plant.safety_report(),
    }
}

/// Asserts on every platform that skipping idle chunks changes nothing.
fn assert_equivalent(config: &ScenarioConfig, crash_web: bool, spans: &[SimDuration]) {
    fn on<K: PlatformKernel>(config: &ScenarioConfig, crash_web: bool, spans: &[SimDuration]) {
        let skipped = observe::<K>(config, crash_web, spans, false);
        let stepped = observe::<K>(config, crash_web, spans, true);
        assert!(skipped.metrics.ipc_messages > 0, "{}: no IPC", K::PLATFORM);
        assert_eq!(skipped, stepped, "{}", K::PLATFORM);
    }
    on::<MinixStack>(config, crash_web, spans);
    on::<Sel4Stack>(config, crash_web, spans);
    on::<LinuxStack>(config, crash_web, spans);
}

fn mins(m: u64) -> SimDuration {
    SimDuration::from_mins(m)
}

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

#[test]
fn quiet_runs_agree() {
    assert_equivalent(&ScenarioConfig::quiet(), false, &[mins(10)]);
}

#[test]
fn default_schedule_runs_agree() {
    // The default schedule writes a setpoint at 20 min and polls at 40.
    assert_equivalent(&ScenarioConfig::default(), false, &[mins(45)]);
}

#[test]
fn tenant_traffic_runs_agree() {
    let config = ScenarioConfig {
        traffic: Some(TrafficProfile::default()),
        ..ScenarioConfig::quiet()
    };
    let observed = observe::<MinixStack>(&config, false, &[mins(12)], false);
    assert!(observed.requests.len() > 100, "the tenants were served");
    assert_equivalent(&config, false, &[mins(12)]);
}

#[test]
fn reference_changes_inside_idle_stretches_agree() {
    // With the web interface dead, nothing in the kernel wakes for the
    // administrator's setpoint writes, so the safety oracle's reference
    // moves at boundaries the fast-forward walks; the odd times fall
    // between chunk boundaries.
    let config = ScenarioConfig {
        web_schedule: vec![
            (at_ms(61_250), WebAction::SetSetpoint(24_000)),
            (at_ms(61_270), WebAction::SetSetpoint(23_000)),
            (at_ms(300_050), WebAction::QueryStatus),
            (at_ms(420_999), WebAction::SetSetpoint(21_000)),
        ],
        ..ScenarioConfig::default()
    };
    let stepped = observe::<Sel4Stack>(&config, true, &[mins(10)], true);
    assert!(stepped.responses.is_empty(), "the web interface is dead");
    let setpoints: Vec<f64> = stepped.plant_trace.iter().map(|p| p.setpoint_c).collect();
    assert!(setpoints.contains(&23.0) && setpoints.contains(&21.0));
    assert_equivalent(&config, true, &[mins(10)]);
}

#[test]
fn horizons_off_the_chunk_grid_agree() {
    // Spans that are not multiples of the 100 ms chunk shift where every
    // later chunk boundary falls.
    let spans = [
        SimDuration::from_millis(12_345),
        SimDuration::from_millis(300_050),
        SimDuration::from_nanos(7),
        SimDuration::from_millis(287_655),
    ];
    assert_equivalent(&ScenarioConfig::default(), false, &spans);
}
