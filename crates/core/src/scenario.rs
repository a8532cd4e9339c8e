//! Scenario configuration and the cross-platform runner interface.

use std::cell::RefCell;
use std::rc::Rc;

use bas_plant::world::{PlantConfig, PlantWorld};
use bas_plant::SharedPlant;
use bas_sim::clock::CostModel;
use bas_sim::metrics::KernelMetrics;
use bas_sim::time::{SimDuration, SimTime};

use crate::logic::control::ControlConfig;
use crate::logic::traffic::TrafficProfile;
use crate::logic::web::{shared_schedule, RequestLog, RequestSample, SharedSchedule, WebAction};
use crate::proto::BasMsg;

/// Which platform a scenario instance runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Security-enhanced MINIX 3 (ACM).
    Minix,
    /// seL4 + CAmkES.
    Sel4,
    /// Monolithic Linux baseline.
    Linux,
}

impl Platform {
    /// The short lowercase name: scenario ids, report keys and
    /// `--platform` values.
    pub fn key(self) -> &'static str {
        match self {
            Platform::Minix => "minix",
            Platform::Sel4 => "sel4",
            Platform::Linux => "linux",
        }
    }
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Platform::Minix => write!(f, "minix3+acm"),
            Platform::Sel4 => write!(f, "sel4/camkes"),
            Platform::Linux => write!(f, "linux"),
        }
    }
}

/// Shared log of the responses the web interface receives (the
/// administrator's view of the system).
pub type WebLog = Rc<RefCell<Vec<BasMsg>>>;

/// One instance's application I/O: the physical plant and the web
/// interface's schedule, response log and request log.
///
/// [`crate::engine::ScenarioEngine`] creates it and hands it to the
/// platform stack at boot; the installed plant devices and the benign web
/// process hold clones of these handles. Recycling re-images it in place
/// ([`AppIo::reimage`]), so every holder sees the next instance without
/// being rebuilt.
#[derive(Debug, Clone)]
pub struct AppIo {
    /// The physical world.
    pub plant: SharedPlant,
    /// Responses the web interface received.
    pub responses: WebLog,
    /// The effective administrator schedule.
    pub schedule: SharedSchedule,
    /// Completed-request stamps.
    pub requests: RequestLog,
}

impl AppIo {
    /// Fresh I/O for `config`: a seeded plant that follows the
    /// schedule's authorized setpoint changes, the effective schedule and
    /// empty logs.
    pub fn new(config: &ScenarioConfig) -> Self {
        let schedule = config.effective_web_schedule();
        let mut plant = PlantWorld::new(config.synced_plant(), config.seed);
        plant.schedule_references(config.reference_changes(&schedule));
        AppIo {
            plant: Rc::new(RefCell::new(plant)),
            responses: WebLog::default(),
            schedule: shared_schedule(schedule),
            requests: RequestLog::default(),
        }
    }

    /// Re-images everything for `config` (the boot template modulo
    /// `seed`) in place: resets and re-seeds the plant (keeping its
    /// buffers) and hands it the new reference changes, swaps in the
    /// schedule, which is seed-derived under traffic, and clears both
    /// logs.
    pub fn reimage(&self, config: &ScenarioConfig) {
        let schedule = config.effective_web_schedule();
        let mut plant = self.plant.borrow_mut();
        plant.reset(config.synced_plant(), config.seed);
        plant.schedule_references(config.reference_changes(&schedule));
        *self.schedule.borrow_mut() = schedule;
        self.responses.borrow_mut().clear();
        self.requests.borrow_mut().clear();
    }
}

/// Full configuration of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// RNG seed (sensor noise).
    pub seed: u64,
    /// Controller parameters.
    pub control: ControlConfig,
    /// Physical-world parameters. Use [`ScenarioConfig::synced_plant`] to
    /// keep the safety oracle aligned with the controller.
    pub plant: PlantConfig,
    /// Sensor sampling period (paper: periodic sampling; default 1 s).
    pub sensor_period: SimDuration,
    /// Scripted administrator actions on the web interface.
    pub web_schedule: Vec<(SimTime, WebAction)>,
    /// Optional multi-tenant load (E18): expanded per instance from the
    /// instance seed and merged into the effective schedule, so the
    /// template stays identical across a fleet (snapshot/fork boot)
    /// while every instance carries its own traffic.
    pub traffic: Option<TrafficProfile>,
    /// Kernel process-table size.
    pub max_procs: usize,
    /// Fork quota for the web interface (`None` = paper baseline).
    pub web_fork_limit: Option<u64>,
    /// Virtual-time cost model.
    pub cost_model: CostModel,
    /// A 100 ms grid that nothing in the workspace reads: the plant is
    /// exact between input changes and needs no stepping. Only the
    /// `basbench` benchmark reads it, to size its re-drive epochs.
    pub lockstep_chunk: SimDuration,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        let control = ControlConfig::default();
        let mut config = ScenarioConfig {
            seed: 42,
            control,
            plant: PlantConfig::default(),
            sensor_period: SimDuration::from_secs(1),
            web_schedule: vec![
                (
                    SimTime::ZERO + SimDuration::from_secs(1_200),
                    WebAction::SetSetpoint(24_000),
                ),
                (
                    SimTime::ZERO + SimDuration::from_secs(2_400),
                    WebAction::QueryStatus,
                ),
            ],
            traffic: None,
            max_procs: 32,
            web_fork_limit: None,
            cost_model: CostModel::default(),
            lockstep_chunk: SimDuration::from_millis(100),
        };
        config.plant = config.synced_plant();
        config
    }
}

impl ScenarioConfig {
    /// A configuration with no administrator activity (pure regulation).
    pub fn quiet() -> Self {
        ScenarioConfig {
            web_schedule: Vec::new(),
            ..ScenarioConfig::default()
        }
    }

    /// Grace added to the oracle's deadline over the controller's: the
    /// controller only *sees* an excursion at its next sensor sample and
    /// needs one control cycle to actuate the alarm, so the physical
    /// requirement allows for bounded detection latency.
    pub const ORACLE_GRACE: SimDuration = SimDuration::from_secs(30);

    /// Derives a plant configuration whose safety oracle mirrors the
    /// controller's setpoint and band, with the alarm deadline extended
    /// by [`ScenarioConfig::ORACLE_GRACE`] for detection latency.
    pub fn synced_plant(&self) -> PlantConfig {
        PlantConfig {
            setpoint_c: self.control.setpoint_milli_c as f64 / 1000.0,
            band_c: self.control.band_milli_c as f64 / 1000.0,
            alarm_deadline: self.control.alarm_deadline + Self::ORACLE_GRACE,
            ..self.plant.clone()
        }
    }

    /// The complete action schedule the web interface replays: the
    /// scripted `web_schedule` merged with the per-instance traffic
    /// expansion (a pure function of `(template, seed)`), sorted stably
    /// by time.
    pub fn effective_web_schedule(&self) -> Vec<(SimTime, WebAction)> {
        let mut v = self.web_schedule.clone();
        if let Some(profile) = &self.traffic {
            v.extend(profile.generate(self.seed));
        }
        v.sort_by_key(|(t, _)| *t);
        v
    }

    /// The authorized setpoint changes (in range, in time order, in °C)
    /// the safety oracle follows during a run, given the run's
    /// *effective* schedule ([`ScenarioConfig::effective_web_schedule`]),
    /// so tenant setpoint writes move the oracle's reference exactly like
    /// scripted administrator writes. Taking the already-built schedule
    /// keeps the traffic expansion to one per boot.
    pub fn reference_changes(&self, schedule: &[(SimTime, WebAction)]) -> Vec<(SimTime, f64)> {
        let mut v: Vec<(SimTime, f64)> = schedule
            .iter()
            .filter_map(|(t, a)| match a {
                WebAction::SetSetpoint(mc)
                    if *mc >= self.control.min_setpoint_milli_c
                        && *mc <= self.control.max_setpoint_milli_c =>
                {
                    Some((*t, *mc as f64 / 1000.0))
                }
                _ => None,
            })
            .collect();
        v.sort_by_key(|(t, _)| *t);
        v
    }
}

/// The names of the processes whose survival the paper's claim is about.
pub const CRITICAL_PROCESSES: [&str; 4] = [
    crate::proto::names::SENSOR,
    crate::proto::names::CONTROL,
    crate::proto::names::HEATER,
    crate::proto::names::ALARM,
];

/// A running scenario on some platform, as seen by experiments and the
/// attack harness.
pub trait Scenario {
    /// The platform this scenario runs on.
    fn platform(&self) -> Platform;

    /// Advances the instance by `d` of virtual time past where the
    /// previous runs were scheduled to end (not past the kernel's clock,
    /// which may have overshot that end): the kernel runs until its clock
    /// reaches that end, and the plant, which its devices have kept at the
    /// kernel's clock, is brought there too.
    ///
    /// Split contract: a run split into several calls at any points
    /// computes the same instance as one call over the whole span. The
    /// kernel's run loop is split-invariant, and the plant commits only
    /// at input changes, each at its own time, never at a call boundary.
    fn run_for(&mut self, d: SimDuration);

    /// Current virtual time.
    fn now(&self) -> SimTime;

    /// Handle to the physical world (safety oracle, actuator history,
    /// traces).
    fn plant(&self) -> SharedPlant;

    /// Kernel counters.
    fn metrics(&self) -> KernelMetrics;

    /// Calls `pred` with the name of each live process/thread until it
    /// returns true; returns whether it did. Allocation-free.
    fn any_alive(&self, pred: &mut dyn FnMut(&str) -> bool) -> bool;

    /// Names of live processes/threads, sorted.
    fn alive_names(&self) -> Vec<String>;

    /// Number of kernel-trace events in a category (e.g. `"acm.deny"`).
    fn trace_count(&self, category: &str) -> usize;

    /// Stops the kernel trace from recording further events (see
    /// [`bas_sim::kernel::Kernel::disable_trace`]). The setting survives
    /// [`Scenario::reset_to_boot`], which clears the events already kept;
    /// nothing the scenario reports besides `trace_count` reads the trace.
    fn disable_trace(&mut self);

    /// Responses observed by the web interface.
    fn web_responses(&self) -> Vec<BasMsg>;

    /// Completed web requests with scheduled/completed stamps (empty on
    /// stacks without request accounting, e.g. attacker-replaced webs).
    fn request_samples(&self) -> Vec<RequestSample>;

    /// Returns the scenario to its just-booted state under `config` (the
    /// boot template modulo `seed`), reusing live allocations — the
    /// snapshot-fork recycling path. Returns `false` when the scenario
    /// cannot guarantee byte-identity with a cold boot; the caller must
    /// then boot a fresh instance instead.
    fn reset_to_boot(&mut self, config: &ScenarioConfig) -> bool;
}

/// A serializable snapshot of the plant's safety state at some instant —
/// the cross-platform "what did the physical world experience" record the
/// attack harness and the fleet engine aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantSnapshot {
    /// The alarm-deadline safety property was violated.
    pub safety_violated: bool,
    /// Largest |temperature − setpoint| reached, °C.
    pub max_deviation_c: f64,
    /// Fraction of the run's time spent inside the band.
    pub in_band_fraction: f64,
    /// Temperature at snapshot time, °C.
    pub final_temp_c: f64,
    /// Alarm state at snapshot time.
    pub alarm_on: bool,
    /// Fan switch count (actuator churn).
    pub fan_switches: usize,
    /// Excursion-start → alarm-on latencies, seconds.
    pub alarm_latencies_s: Vec<f64>,
}

/// Snapshots the scenario's plant safety state.
pub fn plant_snapshot(scenario: &dyn Scenario) -> PlantSnapshot {
    let plant = scenario.plant();
    let plant = plant.borrow();
    let report = plant.safety_report();
    PlantSnapshot {
        safety_violated: !report.is_safe(),
        max_deviation_c: report.max_deviation_c,
        in_band_fraction: report.in_band_fraction,
        final_temp_c: plant.temperature_c(),
        alarm_on: plant.alarm().is_on(),
        fan_switches: plant.fan().switch_count(),
        alarm_latencies_s: report
            .alarm_latencies
            .iter()
            .map(|d| d.as_secs_f64())
            .collect(),
    }
}

/// True if every critical process is still alive. Fork-suffixed names
/// (`temp_control#7`) count as the same program. Names are checked in
/// place, so the check never allocates.
pub fn critical_alive(scenario: &dyn Scenario) -> bool {
    CRITICAL_PROCESSES.iter().all(|c| {
        scenario.any_alive(&mut |name| {
            name.strip_prefix(c)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('#'))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn synced_plant_mirrors_controller() {
        let mut cfg = ScenarioConfig::default();
        cfg.control.setpoint_milli_c = 25_000;
        cfg.control.band_milli_c = 500;
        let p = cfg.synced_plant();
        assert_eq!(p.setpoint_c, 25.0);
        assert_eq!(p.band_c, 0.5);
        assert_eq!(
            p.alarm_deadline,
            cfg.control.alarm_deadline + ScenarioConfig::ORACLE_GRACE
        );
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn reference_changes_filter_out_of_range() {
        let mut cfg = ScenarioConfig::default();
        cfg.web_schedule = vec![
            (SimTime::from_nanos(2), WebAction::SetSetpoint(24_000)),
            (SimTime::from_nanos(1), WebAction::SetSetpoint(99_000)), // out of range
            (SimTime::from_nanos(3), WebAction::QueryStatus),
        ];
        assert_eq!(
            cfg.reference_changes(&cfg.effective_web_schedule()),
            vec![(SimTime::from_nanos(2), 24.0)]
        );
    }

    #[test]
    fn platform_display() {
        assert_eq!(Platform::Minix.to_string(), "minix3+acm");
        assert_eq!(Platform::Sel4.to_string(), "sel4/camkes");
        assert_eq!(Platform::Linux.to_string(), "linux");
        let keys = [Platform::Minix, Platform::Sel4, Platform::Linux].map(Platform::key);
        assert_eq!(keys, ["minix", "sel4", "linux"]);
    }
}
