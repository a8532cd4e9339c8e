//! Installs a [`FaultPlan`] on a booted [`ScenarioEngine`]: [`install`]
//! lowers each event into a [`FaultAction`] on the kernel's fault calendar
//! (`bas_sim::fault`), resolving capability churn through
//! [`PlatformKernel::resolve_churn`]. A fault run is then a plain
//! `run_for`: the kernel's run loop fires each event at the first dispatch
//! point at or after its time, sensor faults are read modes the device bus
//! applies, and the calendar records when each event fired and whether it
//! landed, which the scorecard reads.

use bas_core::engine::{ChurnOf, PlatformKernel, ScenarioEngine};
use bas_sim::fault::{FaultAction, IpcFault, SensorFaultMode};
use bas_sim::time::SimTime;

use crate::plan::{FaultKind, FaultPlan};

/// Schedules every event of `plan` on `engine`'s fault calendar, at its
/// time from boot.
///
/// # Panics
///
/// Panics if the plan references a device the stack never registered —
/// a schedule aimed at nothing is a plan bug, not a degradation result.
pub fn install<K: PlatformKernel>(engine: &mut ScenarioEngine<K>, plan: &FaultPlan) {
    let stack = &mut engine.stack;
    let faults: Vec<_> = plan
        .events()
        .iter()
        .map(|ev| (SimTime::ZERO + ev.at, action(stack, &ev.kind)))
        .collect();
    stack
        .schedule_faults(faults)
        .unwrap_or_else(|e| panic!("plan {:?} targets unknown device: {e}", plan.name()));
}

/// The calendar action of one (already expanded) plan event.
fn action<K: PlatformKernel>(stack: &K, kind: &FaultKind) -> FaultAction<ChurnOf<K>> {
    use FaultAction::{Ipc, Sensor};
    match kind {
        FaultKind::SensorStuckAt { device, raw } => Sensor(*device, SensorFaultMode::StuckAt(*raw)),
        FaultKind::SensorGlitch { device, offset } => {
            Sensor(*device, SensorFaultMode::Glitch { offset: *offset })
        }
        FaultKind::SensorDropout { device } => Sensor(*device, SensorFaultMode::Dropout),
        FaultKind::SensorRestore { device } => Sensor(*device, SensorFaultMode::Nominal),
        FaultKind::IpcDrop { count } => Ipc(IpcFault::Drop, *count),
        FaultKind::IpcDelay { count, delay } => Ipc(IpcFault::Delay(*delay), *count),
        FaultKind::IpcDuplicate { count } => Ipc(IpcFault::Duplicate, *count),
        FaultKind::Crash { process } => FaultAction::Crash(process.clone()),
        FaultKind::ClockSkew { advance } => FaultAction::Skew(*advance),
        FaultKind::CapChurn {
            op,
            arm_after_checks,
        } => stack.churn(op, *arm_after_checks),
        FaultKind::CrashStorm { .. } => {
            unreachable!("FaultPlan::new expands crash storms into Crash events")
        }
    }
}
