//! The fault-schedule DSL: named, time-pinned, platform-agnostic.
//!
//! A [`FaultPlan`] is a list of the kernel's own
//! [`FaultAction`]s, each pinned to a time from boot, with capability
//! churn named by scenario instance; [`install`] puts it on a booted
//! engine's fault calendar. A plan is pure data — no RNG, no platform
//! types — so the same plan replays bit-identically on every platform
//! and under any worker count. Randomized campaigns derive per-plan seeds
//! *outside* the plan (see `campaign`); the plan itself is always
//! explicit.

use bas_core::engine::{PlatformKernel, ScenarioEngine};
use bas_sim::caps::CapChurnOp;
use bas_sim::fault::FaultAction;
use bas_sim::time::{SimDuration, SimTime};

/// One fault pinned to a virtual time measured from boot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires (virtual time since boot; the event lands at
    /// the kernel's first dispatch point at or after this time).
    pub at: SimDuration,
    /// What happens: the kernel's own fault action, with capability churn
    /// named by scenario instance (subject and object are instance names,
    /// resolved onto the kernel's authority structure by [`install`]).
    pub action: FaultAction<CapChurnOp>,
}

impl FaultEvent {
    /// Creates an event.
    pub fn new(at: SimDuration, action: FaultAction<CapChurnOp>) -> FaultEvent {
        FaultEvent { at, action }
    }
}

/// A crash storm: exactly `times` crashes of `process`, the first at `at`
/// and each next one `period` later.
pub fn crash_storm(
    process: &str,
    at: SimDuration,
    times: u32,
    period: SimDuration,
) -> Vec<FaultEvent> {
    (0..u64::from(times))
        .map(|k| {
            let at = at + SimDuration::from_nanos(period.as_nanos() * k);
            FaultEvent::new(at, FaultAction::Crash(process.to_string()))
        })
        .collect()
}

/// A named, time-ordered fault schedule.
///
/// Construction stable-sorts the events by time, so two plans describing
/// the same faults compare (and replay) identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    name: String,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Builds a plan, sorting events by time (stable: simultaneous events
    /// keep their authoring order).
    pub fn new(name: impl Into<String>, mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(|e| e.at.as_nanos());
        FaultPlan {
            name: name.into(),
            events,
        }
    }

    /// The plan's name (report key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The events, in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Time of the last scheduled event (zero for an empty plan). Runs
    /// shorter than this cannot fire the whole plan.
    pub fn last_event_at(&self) -> SimDuration {
        self.events
            .last()
            .map(|e| e.at)
            .unwrap_or(SimDuration::from_nanos(0))
    }
}

/// Schedules every event of `plan` on `engine`'s fault calendar, at its
/// time from boot, resolving capability churn onto the kernel's authority
/// structure now (`PlatformKernel::schedule_faults`). A fault run is then
/// a plain `run_for`: the kernel's run loop fires each event at the first
/// dispatch point at or after its time, and the calendar records when
/// each fired and whether it landed, which the scorecard reads.
///
/// # Panics
///
/// Panics if the plan references a device the stack never registered —
/// a schedule aimed at nothing is a plan bug, not a degradation result.
pub fn install<K: PlatformKernel>(engine: &mut ScenarioEngine<K>, plan: &FaultPlan) {
    let faults = plan
        .events()
        .iter()
        .map(|ev| (SimTime::ZERO + ev.at, ev.action.clone()));
    engine
        .stack
        .schedule_faults(faults)
        .unwrap_or_else(|e| panic!("plan {:?} targets unknown device: {e}", plan.name()));
}

/// The standard campaign: one nominal control row plus seven fault plans
/// covering every fault family. All events fall inside the first ten
/// minutes so both the full (30 min) and `--quick` (12 min) horizons
/// fire every plan completely.
pub fn standard_plans() -> Vec<FaultPlan> {
    use bas_core::proto::names;
    use bas_sim::caps::ChurnKind;
    use bas_sim::device::DeviceId;
    use bas_sim::fault::{IpcFault, SensorFaultMode};
    use FaultAction::{Churn, Ipc, Sensor, Skew};
    let s = SimDuration::from_secs;
    let ev = FaultEvent::new;
    // Five minutes of a faulty temperature sensor, then it recovers.
    let sensor = |name: &str, mode| {
        let temp = DeviceId::TEMP_SENSOR;
        let restore = Sensor(temp, SensorFaultMode::Nominal);
        FaultPlan::new(
            name,
            vec![ev(s(300), Sensor(temp, mode)), ev(s(600), restore)],
        )
    };
    let channel = |kind| vec![CapChurnOp::new(kind, names::WEB, names::CONTROL)];
    vec![
        FaultPlan::new("baseline", vec![]),
        // The sensor reports a wedged 30.00 °C.
        sensor("sensor_stuck_hot", SensorFaultMode::StuckAt(30_000)),
        // +5 °C calibration drift.
        sensor("sensor_glitch", SensorFaultMode::Glitch { offset: 5_000 }),
        // The sensor bus dies; reads go stale.
        sensor("sensor_dropout", SensorFaultMode::Dropout),
        FaultPlan::new(
            "ipc_storm",
            vec![
                ev(s(240), Ipc(IpcFault::Drop, 50)),
                ev(
                    s(300),
                    Ipc(IpcFault::Delay(SimDuration::from_millis(5)), 50),
                ),
                ev(s(360), Ipc(IpcFault::Duplicate, 50)),
            ],
        ),
        FaultPlan::new(
            "heater_crash",
            vec![ev(s(180), FaultAction::Crash(names::HEATER.to_string()))],
        ),
        FaultPlan::new("crash_storm", crash_storm(names::HEATER, s(180), 3, s(120))),
        FaultPlan::new(
            "clock_skew",
            vec![ev(s(300), Skew(s(30))), ev(s(600), Skew(s(30)))],
        ),
        // Capability churn: the web interface's path to the controller is
        // revoked for five minutes, then re-granted. Microkernels cut the
        // channel cleanly; Linux only edits mode bits, and already-open
        // descriptors keep working — the stale-authority contrast
        // `bas-analysis::races` measures.
        FaultPlan::new(
            "cap_churn",
            vec![
                ev(s(300), Churn(channel(ChurnKind::Revoke), None)),
                ev(s(600), Churn(channel(ChurnKind::Grant), None)),
            ],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_storm_expands_and_sorts() {
        let s = SimDuration::from_secs;
        let crash = |at| FaultEvent::new(s(at), FaultAction::Crash("p".into()));
        let mut events = vec![FaultEvent::new(s(500), FaultAction::Skew(s(1)))];
        events.extend(crash_storm("p", s(100), 3, s(60)));
        let plan = FaultPlan::new("storm", events);
        let times: Vec<u64> = plan.events().iter().map(|e| e.at.as_secs()).collect();
        assert_eq!(times, vec![100, 160, 220, 500]);
        assert_eq!(plan.events()[..3], [crash(100), crash(160), crash(220)]);
        assert_eq!(plan.last_event_at().as_secs(), 500);
    }

    #[test]
    fn a_crash_storm_yields_exactly_its_crashes() {
        let s = SimDuration::from_secs;
        assert_eq!(crash_storm("p", s(100), 0, s(60)), []);
        let one = FaultEvent::new(s(100), FaultAction::Crash("p".into()));
        assert_eq!(crash_storm("p", s(100), 1, s(60)), [one]);
    }

    #[test]
    fn standard_plans_fit_the_quick_horizon() {
        let plans = standard_plans();
        assert!(plans.len() >= 7, "at least 6 fault plans plus baseline");
        for p in &plans {
            assert!(
                p.last_event_at() <= SimDuration::from_mins(11),
                "{} schedules past the quick horizon",
                p.name()
            );
        }
        // Names are unique (they key the report).
        let mut names: Vec<&str> = plans.iter().map(|p| p.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), plans.len());
    }
}
