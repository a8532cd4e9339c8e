//! Runs a booted [`ScenarioEngine`] under a [`FaultPlan`].
//!
//! Sensor faults go in through `DeviceBus::interpose` — the real device
//! stays registered underneath a [`FaultyDevice`] wrapper whose mode the
//! injector flips at the scheduled times. Everything else (crashes, IPC
//! faults, clock skew) goes through the [`PlatformKernel`] fault hooks.
//! [`run`] drives the engine itself (through an [`Injector`]): it runs the
//! engine to each event's own time and fires every event due by then, so
//! an event lands at the first dispatch point at or after its time (the
//! kernel's clock reads that time exactly when the kernel was idle, and
//! the end of the dispatch that crossed it otherwise). After a clock-skew
//! fault, the events the jump passed fire at once, at the skewed clock.

use std::collections::BTreeMap;

use bas_core::engine::{PlatformKernel, ScenarioEngine};
use bas_core::scenario::Scenario;
use bas_sim::device::DeviceId;
use bas_sim::fault::{
    sensor_fault_handle, FaultyDevice, IpcFault, SensorFaultHandle, SensorFaultMode,
};
use bas_sim::kernel::Kernel;
use bas_sim::metrics::KernelMetrics;
use bas_sim::time::{SimDuration, SimTime};

use crate::plan::{FaultKind, FaultPlan};

/// One fault event that has fired.
#[derive(Debug, Clone)]
pub struct FiredEvent {
    /// Index into [`FaultPlan::events`].
    pub index: usize,
    /// The time the plan asked for.
    pub scheduled: SimDuration,
    /// The virtual time the injector actually applied it: the kernel's
    /// clock at the first dispatch point at or after `scheduled`.
    pub applied_at: SimTime,
    /// Human-readable fault label.
    pub label: String,
    /// Whether the fault landed (false e.g. for a crash aimed at a name
    /// that is not alive).
    pub hit: bool,
}

/// What the injector did over one run; the scorecard reads it.
#[derive(Debug, Clone, Default)]
pub struct InjectionLog {
    fired: Vec<FiredEvent>,
    baseline: Option<KernelMetrics>,
}

impl InjectionLog {
    /// Events fired, in firing order.
    pub fn fired(&self) -> &[FiredEvent] {
        &self.fired
    }

    /// Number of events fired.
    pub fn fired_count(&self) -> usize {
        self.fired.len()
    }

    /// Kernel metrics snapshotted immediately before the first fault was
    /// applied (None while the plan is still clean).
    pub fn baseline_metrics(&self) -> Option<KernelMetrics> {
        self.baseline
    }

    /// Virtual time the first fault was applied, if any.
    pub fn first_fault_at(&self) -> Option<SimTime> {
        self.fired.first().map(|f| f.applied_at)
    }
}

/// A [`FaultPlan`] installed on one engine: the interposed sensor
/// devices, the events still to fire and the log so far. A run may be
/// split over several [`Injector::run_for`] calls at any points, as a
/// plain `run_for` may.
pub struct Injector<'p> {
    plan: &'p FaultPlan,
    handles: BTreeMap<DeviceId, SensorFaultHandle>,
    next: usize,
    log: InjectionLog,
}

impl<'p> Injector<'p> {
    /// Wraps every plant device the plan's sensor faults reference.
    ///
    /// # Panics
    ///
    /// Panics if the plan references a device the stack never registered
    /// — a schedule aimed at nothing is a plan bug, not a degradation
    /// result.
    pub fn install<K: PlatformKernel>(engine: &mut ScenarioEngine<K>, plan: &'p FaultPlan) -> Self {
        let mut handles = BTreeMap::new();
        for dev in plan.sensor_devices() {
            let handle = sensor_fault_handle();
            let for_device = handle.clone();
            engine
                .stack
                .devices_mut()
                .interpose(dev, move |inner| {
                    Box::new(FaultyDevice::new(inner, for_device))
                })
                .unwrap_or_else(|e| panic!("plan {:?} targets unknown device: {e}", plan.name()));
            handles.insert(dev, handle);
        }
        Injector {
            plan,
            handles,
            next: 0,
            log: InjectionLog::default(),
        }
    }

    /// Runs `engine` for `d`, as [`Scenario::run_for`] does, stopping at
    /// each event's time to fire every event due by then.
    pub fn run_for<K: PlatformKernel>(&mut self, engine: &mut ScenarioEngine<K>, d: SimDuration) {
        let events = self.plan.events();
        let end = engine.scheduled() + d;
        while let Some(ev) = events.get(self.next) {
            let due = SimTime::ZERO + ev.at;
            if due > end {
                break;
            }
            engine.run_for(due.saturating_since(engine.scheduled()));
            let applied_at = engine.now();
            let stack = &mut engine.stack;
            self.log.baseline.get_or_insert(*stack.kernel().metrics());
            let hit = apply(stack, &self.handles, &ev.kind);
            self.log.fired.push(FiredEvent {
                index: self.next,
                scheduled: ev.at,
                applied_at,
                label: ev.kind.label(),
                hit,
            });
            self.next += 1;
        }
        engine.run_for(end.saturating_since(engine.scheduled()));
    }

    /// What the injector has done so far.
    pub fn log(&self) -> &InjectionLog {
        &self.log
    }
}

/// Runs `engine` for `horizon` under `plan` (see [`Injector`]) and
/// returns the log the campaign scorecard reads.
pub fn run<K: PlatformKernel>(
    engine: &mut ScenarioEngine<K>,
    plan: &FaultPlan,
    horizon: SimDuration,
) -> InjectionLog {
    let mut injector = Injector::install(engine, plan);
    injector.run_for(engine, horizon);
    injector.log
}

fn apply<K: PlatformKernel>(
    stack: &mut K,
    handles: &BTreeMap<DeviceId, SensorFaultHandle>,
    kind: &FaultKind,
) -> bool {
    let set_mode = |device: &DeviceId, mode: SensorFaultMode| {
        handles
            .get(device)
            .expect("run() interposed every device the plan references")
            .set(mode);
        true
    };
    match kind {
        FaultKind::SensorStuckAt { device, raw } => {
            set_mode(device, SensorFaultMode::StuckAt(*raw))
        }
        FaultKind::SensorGlitch { device, offset } => {
            set_mode(device, SensorFaultMode::Glitch { offset: *offset })
        }
        FaultKind::SensorDropout { device } => set_mode(device, SensorFaultMode::Dropout),
        FaultKind::SensorRestore { device } => set_mode(device, SensorFaultMode::Nominal),
        FaultKind::IpcDrop { count } => {
            stack.arm_ipc_fault(IpcFault::Drop, *count);
            true
        }
        FaultKind::IpcDelay { count, delay } => {
            stack.arm_ipc_fault(IpcFault::Delay(*delay), *count);
            true
        }
        FaultKind::IpcDuplicate { count } => {
            stack.arm_ipc_fault(IpcFault::Duplicate, *count);
            true
        }
        FaultKind::Crash { process } => stack.inject_crash(process),
        FaultKind::ClockSkew { advance } => {
            stack.skew_clock(*advance);
            true
        }
        FaultKind::CapChurn {
            op,
            arm_after_checks,
        } => match arm_after_checks {
            // Arming always "lands": whether the window is ever entered
            // again is the measurement, not the injection.
            Some(n) => {
                stack.arm_cap_churn(op, *n);
                true
            }
            None => stack.apply_cap_churn(op),
        },
        FaultKind::CrashStorm { .. } => {
            unreachable!("FaultPlan::new expands crash storms into Crash events")
        }
    }
}
