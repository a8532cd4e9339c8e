//! The degradation scorecard: how badly did the plan hurt, and did the
//! platform come back?
//!
//! Scores are computed from the safety oracle's exact report, the
//! kernel's end-of-run counters and its fault calendar's fired state, so
//! they are as deterministic as the run itself.

use bas_core::engine::{PlatformKernel, ScenarioEngine};
use bas_core::scenario::{critical_alive, Scenario};
use bas_fleet::Json;
use bas_sim::kernel::Kernel;

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
    /// Seconds from the first injected fault until the temperature last
    /// re-entered the band — i.e. how long the disturbance took to die
    /// out. None if the run *ended* out of band (never recovered);
    /// Some(0.0) if the plant was never out of band after the first
    /// fault.
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

/// Grades a finished run: the oracle's degradation figures plus kernel
/// counters and the fault calendar's record of what fired.
pub fn grade<K: PlatformKernel>(
    plan_name: &str,
    seed: u64,
    engine: &ScenarioEngine<K>,
) -> Scorecard {
    let kernel = engine.stack.kernel();
    let calendar = kernel.fault_calendar();
    let first = calendar.fired().first();
    let plant = engine.plant();
    let plant = plant.borrow();
    let report = plant.safety_report();

    let alarm_latency_worst_s = report
        .alarm_latencies
        .iter()
        .map(|d| d.as_secs_f64())
        .fold(None, |worst: Option<f64>, s| {
            Some(worst.map_or(s, |w| w.max(s)))
        });

    // The oracle weighs its band by time and solves for the instants the
    // temperature crosses it, exactly.
    let out_of_band_seconds = (1.0 - report.in_band_fraction) * plant.now().as_secs_f64();
    let recovery_seconds = match (first.map(|f| f.at), report.last_out_of_band) {
        // Still out of band at the end of the run: no recovery.
        (Some(_), Some(end)) if end == plant.now() => None,
        (Some(t0), Some(end)) => Some(end.saturating_since(t0).as_secs_f64()),
        // No faults fired (baseline), or never out of band.
        _ => Some(0.0),
    };

    let processes_restarted = first.map_or(0, |f| {
        (kernel.metrics().processes_created).saturating_sub(f.processes_created)
    });

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
        events_fired: calendar.fired().len(),
        ipc_faults_applied: kernel.ipc_faults().applied(),
    }
}
