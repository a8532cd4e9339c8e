//! Installs a [`FaultPlan`] on a booted [`ScenarioEngine`].
//!
//! Sensor faults go in through `DeviceBus::interpose` — the real device
//! stays registered underneath a [`FaultyDevice`] wrapper whose mode the
//! injector flips at the scheduled times. Everything else (crashes, IPC
//! faults, clock skew) goes through the [`PlatformKernel`] fault hooks.
//! The engine's lockstep tick hook drives the schedule: an event pinned
//! to `at` fires at the first chunk boundary whose virtual time is at or
//! after `at`, so with the default 100 ms chunk the quantization error
//! is bounded by one chunk.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use bas_core::engine::{PlatformKernel, ScenarioEngine};
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
    /// The virtual time the injector actually applied it (first chunk
    /// boundary at or after `scheduled`).
    pub applied_at: SimTime,
    /// Human-readable fault label.
    pub label: String,
    /// Whether the fault landed (false e.g. for a crash aimed at a name
    /// that is not alive).
    pub hit: bool,
}

#[derive(Debug, Default)]
struct LogInner {
    fired: Vec<FiredEvent>,
    baseline: Option<KernelMetrics>,
}

/// Shared record of what the injector has done so far. Cloning is cheap
/// (it is a handle); the scorecard reads it after the run.
#[derive(Debug, Clone, Default)]
pub struct InjectionLog {
    inner: Rc<RefCell<LogInner>>,
}

impl InjectionLog {
    /// Events fired so far, in firing order.
    pub fn fired(&self) -> Vec<FiredEvent> {
        self.inner.borrow().fired.clone()
    }

    /// Number of events fired so far.
    pub fn fired_count(&self) -> usize {
        self.inner.borrow().fired.len()
    }

    /// Kernel metrics snapshotted immediately before the first fault was
    /// applied (None while the plan is still clean).
    pub fn baseline_metrics(&self) -> Option<KernelMetrics> {
        self.inner.borrow().baseline
    }

    /// Virtual time the first fault was applied, if any.
    pub fn first_fault_at(&self) -> Option<SimTime> {
        self.inner.borrow().fired.first().map(|f| f.applied_at)
    }
}

/// Wraps every plant device the plan's sensor faults reference and arms
/// the schedule on the engine's tick hook. Returns the log the campaign
/// scorecard reads after the run.
///
/// # Panics
///
/// Panics if the plan references a device the stack never registered —
/// a schedule aimed at nothing is a plan bug, not a degradation result.
pub fn install<K: PlatformKernel>(
    engine: &mut ScenarioEngine<K>,
    plan: &FaultPlan,
) -> InjectionLog {
    let mut handles: BTreeMap<DeviceId, SensorFaultHandle> = BTreeMap::new();
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

    let log = InjectionLog::default();
    let hook_log = log.clone();
    let events = plan.events().to_vec();
    let mut next = 0usize;
    engine.set_tick_hook(move |stack| {
        let now = stack.kernel().now();
        while next < events.len() && events[next].at.as_nanos() <= now.as_nanos() {
            let ev = &events[next];
            let mut inner = hook_log.inner.borrow_mut();
            if inner.baseline.is_none() {
                inner.baseline = Some(*stack.kernel().metrics());
            }
            let hit = apply(stack, &handles, &ev.kind);
            inner.fired.push(FiredEvent {
                index: next,
                scheduled: ev.at,
                applied_at: now,
                label: ev.kind.label(),
                hit,
            });
            next += 1;
        }
    });
    log
}

fn apply<K: PlatformKernel>(
    stack: &mut K,
    handles: &BTreeMap<DeviceId, SensorFaultHandle>,
    kind: &FaultKind,
) -> bool {
    let set_mode = |device: &DeviceId, mode: SensorFaultMode| {
        handles
            .get(device)
            .expect("install() interposed every device the plan references")
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
