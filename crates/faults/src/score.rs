//! The degradation scorecard: how badly did the plan hurt, and did the
//! platform come back?
//!
//! Scores are computed from the plant's sampled trace and the kernel's
//! end-of-run counters, so they are as deterministic as the run itself.

use bas_core::engine::{PlatformKernel, ScenarioEngine};
use bas_core::scenario::{critical_alive, Scenario};
use bas_fleet::Json;
use bas_sim::kernel::Kernel;

use crate::inject::InjectionLog;

/// One cell of the campaign matrix: a (platform, plan) pair's measured
/// degradation.
#[derive(Debug, Clone, PartialEq)]
pub struct Scorecard {
    /// Platform label (`Platform`'s display form).
    pub platform: String,
    /// Plan name.
    pub plan: String,
    /// Seed the cell ran with.
    pub seed: u64,
    /// Safety oracle verdict for the whole run.
    pub safety_held: bool,
    /// Worst alarm latency observed, seconds (None: no alarm episodes).
    pub alarm_latency_worst_s: Option<f64>,
    /// Total virtual seconds the temperature sat outside the comfort
    /// band.
    pub out_of_band_seconds: f64,
    /// Seconds from the first injected fault to the last out-of-band
    /// sample — i.e. how long the disturbance took to die out. None if
    /// the run *ended* out of band (never recovered); Some(0.0) if the
    /// plan never pushed the plant out of band after the first fault.
    pub recovery_seconds: Option<f64>,
    /// Processes created after the first fault (supervised re-forks).
    pub processes_restarted: u64,
    /// Whether all critical processes were alive at the end.
    pub critical_alive: bool,
    /// Fault events that actually fired.
    pub events_fired: usize,
    /// Armed IPC faults the kernel consumed.
    pub ipc_faults_applied: u64,
}

impl Scorecard {
    /// JSON form (field order fixed for byte-stable reports).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("platform", Json::Str(self.platform.clone())),
            ("plan", Json::Str(self.plan.clone())),
            ("seed", Json::UInt(self.seed)),
            ("safety_held", Json::Bool(self.safety_held)),
            (
                "alarm_latency_worst_s",
                match self.alarm_latency_worst_s {
                    Some(s) => Json::Num(s),
                    None => Json::Null,
                },
            ),
            ("out_of_band_seconds", Json::Num(self.out_of_band_seconds)),
            (
                "recovery_seconds",
                match self.recovery_seconds {
                    Some(s) => Json::Num(s),
                    None => Json::Null,
                },
            ),
            ("processes_restarted", Json::UInt(self.processes_restarted)),
            ("critical_alive", Json::Bool(self.critical_alive)),
            ("events_fired", Json::UInt(self.events_fired as u64)),
            ("ipc_faults_applied", Json::UInt(self.ipc_faults_applied)),
        ])
    }
}

/// Grades a finished run: plant-trace degradation plus kernel counters.
///
/// `band_c` is the comfort half-band the run's plant was configured
/// with (`PlantConfig::band_c`).
pub fn grade<K: PlatformKernel>(
    plan_name: &str,
    seed: u64,
    engine: &ScenarioEngine<K>,
    log: &InjectionLog,
    band_c: f64,
) -> Scorecard {
    let plant = engine.plant();
    let plant = plant.borrow();
    let report = plant.safety_report();
    let trace = plant.trace();

    let alarm_latency_worst_s = report
        .alarm_latencies
        .iter()
        .map(|d| d.as_secs_f64())
        .fold(None, |worst: Option<f64>, s| {
            Some(worst.map_or(s, |w| w.max(s)))
        });

    // Integrate out-of-band residence time over the sampled trace: a
    // sample out of band charges the interval up to the next sample.
    let mut out_of_band_seconds = 0.0;
    for pair in trace.windows(2) {
        if (pair[0].temp_c - pair[0].setpoint_c).abs() > band_c {
            out_of_band_seconds += pair[1].time.as_secs_f64() - pair[0].time.as_secs_f64();
        }
    }

    let first_fault = log.first_fault_at();
    let recovery_seconds = match (first_fault, trace.last()) {
        (Some(t0), Some(last)) => {
            if (last.temp_c - last.setpoint_c).abs() > band_c {
                None // still out of band at end of run: no recovery
            } else {
                let last_bad = trace.iter().rfind(|s| {
                    s.time.as_nanos() >= t0.as_nanos() && (s.temp_c - s.setpoint_c).abs() > band_c
                });
                Some(match last_bad {
                    Some(s) => s.time.as_secs_f64() - t0.as_secs_f64(),
                    None => 0.0,
                })
            }
        }
        _ => Some(0.0), // no faults fired (baseline) or empty trace
    };

    let metrics = engine.metrics();
    let processes_restarted = match log.baseline_metrics() {
        Some(base) => metrics
            .processes_created
            .saturating_sub(base.processes_created),
        None => 0,
    };

    Scorecard {
        platform: engine.platform().to_string(),
        plan: plan_name.to_string(),
        seed,
        safety_held: report.is_safe(),
        alarm_latency_worst_s,
        out_of_band_seconds,
        recovery_seconds,
        processes_restarted,
        critical_alive: critical_alive(engine),
        events_fired: log.fired_count(),
        ipc_faults_applied: engine.stack.kernel().ipc_faults().applied(),
    }
}
