//! The fault-schedule DSL: named, time-pinned, platform-agnostic.
//!
//! A [`FaultPlan`] is pure data — no RNG, no platform types — so the
//! same plan replays bit-identically on every platform and under any
//! worker count. Randomized campaigns derive per-plan seeds *outside*
//! the plan (see `campaign`); the plan itself is always explicit.

use bas_sim::caps::{CapChurnOp, ChurnKind};
use bas_sim::device::DeviceId;
use bas_sim::time::SimDuration;

/// One injectable fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The device's reads freeze at a fixed raw value (milli-degrees for
    /// the temperature sensor).
    SensorStuckAt {
        /// Device to corrupt.
        device: DeviceId,
        /// Raw value every read returns.
        raw: i64,
    },
    /// The device's reads gain a constant raw offset.
    SensorGlitch {
        /// Device to corrupt.
        device: DeviceId,
        /// Raw offset added to every read.
        offset: i64,
    },
    /// The device's reads freeze at the last good value.
    SensorDropout {
        /// Device to corrupt.
        device: DeviceId,
    },
    /// Clears any active sensor fault on the device.
    SensorRestore {
        /// Device to restore.
        device: DeviceId,
    },
    /// The next `count` application IPC sends vanish in transit.
    IpcDrop {
        /// Number of sends affected.
        count: u32,
    },
    /// The next `count` application IPC sends pay `delay` extra latency.
    IpcDelay {
        /// Number of sends affected.
        count: u32,
        /// Added in-transit latency per send.
        delay: SimDuration,
    },
    /// The next `count` application IPC sends are delivered twice where
    /// the transport can queue (absorbed, but traced, on pure rendezvous).
    IpcDuplicate {
        /// Number of sends affected.
        count: u32,
    },
    /// Kills the named process/thread outright. What happens next is the
    /// platform's own restart semantics: a supervised MINIX stack
    /// re-forks it, Linux and seL4 leave it dead.
    Crash {
        /// Process name (see `bas_core::proto::names`).
        process: String,
    },
    /// `times` crashes of the same process, `period` apart — expanded
    /// into plain [`FaultKind::Crash`] events at plan construction so
    /// the injector only ever sees primitive kinds.
    CrashStorm {
        /// Process name.
        process: String,
        /// Number of crashes (>= 1).
        times: u32,
        /// Gap between consecutive crashes.
        period: SimDuration,
    },
    /// Jumps the kernel clock forward — ticks the platform *lost*.
    ClockSkew {
        /// How far the clock jumps.
        advance: SimDuration,
    },
    /// Mutates live authority through the platform's capability-churn
    /// hook: a MINIX ACM row edit, an seL4 CDT sweep, a Linux mq chmod.
    CapChurn {
        /// The churn operation (kind, actor, subject, object — subject
        /// and object are scenario instance names).
        op: CapChurnOp,
        /// `None` applies the op at the scheduled tick. `Some(n)` *arms*
        /// it at the scheduled tick, to fire immediately after the n-th
        /// subsequent successful admission check by `op.subject` toward
        /// `op.object` — deterministically inside the check→use window.
        arm_after_checks: Option<u32>,
    },
}

impl FaultKind {
    /// Short label used in logs and reports.
    pub fn label(&self) -> String {
        match self {
            FaultKind::SensorStuckAt { device, raw } => format!("sensor_stuck_at {device} {raw}"),
            FaultKind::SensorGlitch { device, offset } => {
                format!("sensor_glitch {device} {offset:+}")
            }
            FaultKind::SensorDropout { device } => format!("sensor_dropout {device}"),
            FaultKind::SensorRestore { device } => format!("sensor_restore {device}"),
            FaultKind::IpcDrop { count } => format!("ipc_drop x{count}"),
            FaultKind::IpcDelay { count, delay } => {
                format!("ipc_delay x{count} +{}ms", delay.as_millis())
            }
            FaultKind::IpcDuplicate { count } => format!("ipc_duplicate x{count}"),
            FaultKind::Crash { process } => format!("crash {process}"),
            FaultKind::CrashStorm {
                process,
                times,
                period,
            } => format!("crash_storm {process} x{times}/{}s", period.as_secs()),
            FaultKind::ClockSkew { advance } => format!("clock_skew +{}s", advance.as_secs()),
            FaultKind::CapChurn {
                op,
                arm_after_checks,
            } => match arm_after_checks {
                Some(n) => format!("{} armed@{n}", op.label()),
                None => op.label(),
            },
        }
    }

    /// The device a sensor-fault kind targets, if any.
    pub fn sensor_device(&self) -> Option<DeviceId> {
        match self {
            FaultKind::SensorStuckAt { device, .. }
            | FaultKind::SensorGlitch { device, .. }
            | FaultKind::SensorDropout { device }
            | FaultKind::SensorRestore { device } => Some(*device),
            _ => None,
        }
    }
}

/// One fault pinned to a virtual time measured from boot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires (virtual time since boot; events quantize to
    /// the engine's lockstep chunk, firing at the first chunk boundary at
    /// or after this time).
    pub at: SimDuration,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Creates an event.
    pub fn new(at: SimDuration, kind: FaultKind) -> FaultEvent {
        FaultEvent { at, kind }
    }
}

/// A named, ordered fault schedule.
///
/// Construction normalizes the schedule: [`FaultKind::CrashStorm`]
/// expands into its individual crashes and events are stable-sorted by
/// time, so two plans describing the same faults compare (and replay)
/// identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    name: String,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Builds a plan, expanding crash storms and sorting events by time
    /// (stable: simultaneous events keep their authoring order).
    pub fn new(name: impl Into<String>, events: Vec<FaultEvent>) -> FaultPlan {
        let mut expanded = Vec::with_capacity(events.len());
        for ev in events {
            match ev.kind {
                FaultKind::CrashStorm {
                    process,
                    times,
                    period,
                } => {
                    for k in 0..times.max(1) {
                        expanded.push(FaultEvent::new(
                            ev.at + SimDuration::from_nanos(period.as_nanos() * k as u64),
                            FaultKind::Crash {
                                process: process.clone(),
                            },
                        ));
                    }
                }
                kind => expanded.push(FaultEvent::new(ev.at, kind)),
            }
        }
        expanded.sort_by_key(|e| e.at.as_nanos());
        FaultPlan {
            name: name.into(),
            events: expanded,
        }
    }

    /// The plan's name (report key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The normalized events, in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Devices referenced by sensor faults, deduplicated and ordered —
    /// the set the injector must interpose.
    pub fn sensor_devices(&self) -> Vec<DeviceId> {
        let mut devs: Vec<DeviceId> = self
            .events
            .iter()
            .filter_map(|e| e.kind.sensor_device())
            .collect();
        devs.sort();
        devs.dedup();
        devs
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

/// The standard campaign: one nominal control row plus seven fault plans
/// covering every injector family. All events fall inside the first ten
/// minutes so both the full (30 min) and `--quick` (12 min) horizons
/// fire every plan completely.
pub fn standard_plans() -> Vec<FaultPlan> {
    use bas_core::proto::names;
    let s = SimDuration::from_secs;
    vec![
        FaultPlan::new("baseline", vec![]),
        FaultPlan::new(
            "sensor_stuck_hot",
            vec![
                // The sensor reports a wedged 30.00 °C for five minutes.
                FaultEvent::new(
                    s(300),
                    FaultKind::SensorStuckAt {
                        device: DeviceId::TEMP_SENSOR,
                        raw: 30_000,
                    },
                ),
                FaultEvent::new(
                    s(600),
                    FaultKind::SensorRestore {
                        device: DeviceId::TEMP_SENSOR,
                    },
                ),
            ],
        ),
        FaultPlan::new(
            "sensor_glitch",
            vec![
                // +5 °C calibration drift for five minutes.
                FaultEvent::new(
                    s(300),
                    FaultKind::SensorGlitch {
                        device: DeviceId::TEMP_SENSOR,
                        offset: 5_000,
                    },
                ),
                FaultEvent::new(
                    s(600),
                    FaultKind::SensorRestore {
                        device: DeviceId::TEMP_SENSOR,
                    },
                ),
            ],
        ),
        FaultPlan::new(
            "sensor_dropout",
            vec![
                // The sensor bus dies for five minutes; reads go stale.
                FaultEvent::new(
                    s(300),
                    FaultKind::SensorDropout {
                        device: DeviceId::TEMP_SENSOR,
                    },
                ),
                FaultEvent::new(
                    s(600),
                    FaultKind::SensorRestore {
                        device: DeviceId::TEMP_SENSOR,
                    },
                ),
            ],
        ),
        FaultPlan::new(
            "ipc_storm",
            vec![
                FaultEvent::new(s(240), FaultKind::IpcDrop { count: 50 }),
                FaultEvent::new(
                    s(300),
                    FaultKind::IpcDelay {
                        count: 50,
                        delay: SimDuration::from_millis(5),
                    },
                ),
                FaultEvent::new(s(360), FaultKind::IpcDuplicate { count: 50 }),
            ],
        ),
        FaultPlan::new(
            "heater_crash",
            vec![FaultEvent::new(
                s(180),
                FaultKind::Crash {
                    process: names::HEATER.to_string(),
                },
            )],
        ),
        FaultPlan::new(
            "crash_storm",
            vec![FaultEvent::new(
                s(180),
                FaultKind::CrashStorm {
                    process: names::HEATER.to_string(),
                    times: 3,
                    period: s(120),
                },
            )],
        ),
        FaultPlan::new(
            "clock_skew",
            vec![
                FaultEvent::new(s(300), FaultKind::ClockSkew { advance: s(30) }),
                FaultEvent::new(s(600), FaultKind::ClockSkew { advance: s(30) }),
            ],
        ),
        // Capability churn: the web interface's path to the controller is
        // revoked for five minutes, then re-granted. Microkernels cut the
        // channel cleanly; Linux only edits mode bits, and already-open
        // descriptors keep working — the stale-authority contrast
        // `bas-analysis::races` measures.
        FaultPlan::new(
            "cap_churn",
            vec![
                FaultEvent::new(
                    s(300),
                    FaultKind::CapChurn {
                        op: CapChurnOp::new(ChurnKind::Revoke, names::WEB, names::CONTROL),
                        arm_after_checks: None,
                    },
                ),
                FaultEvent::new(
                    s(600),
                    FaultKind::CapChurn {
                        op: CapChurnOp::new(ChurnKind::Grant, names::WEB, names::CONTROL),
                        arm_after_checks: None,
                    },
                ),
            ],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_storm_expands_and_sorts() {
        let plan = FaultPlan::new(
            "storm",
            vec![
                FaultEvent::new(SimDuration::from_secs(500), FaultKind::IpcDrop { count: 1 }),
                FaultEvent::new(
                    SimDuration::from_secs(100),
                    FaultKind::CrashStorm {
                        process: "p".into(),
                        times: 3,
                        period: SimDuration::from_secs(60),
                    },
                ),
            ],
        );
        let times: Vec<u64> = plan.events().iter().map(|e| e.at.as_secs()).collect();
        assert_eq!(times, vec![100, 160, 220, 500]);
        assert_eq!(
            plan.events()
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::Crash { .. }))
                .count(),
            3
        );
        assert_eq!(plan.last_event_at().as_secs(), 500);
    }

    #[test]
    fn sensor_devices_deduplicated() {
        let plan = FaultPlan::new(
            "s",
            vec![
                FaultEvent::new(
                    SimDuration::from_secs(1),
                    FaultKind::SensorDropout {
                        device: DeviceId::TEMP_SENSOR,
                    },
                ),
                FaultEvent::new(
                    SimDuration::from_secs(2),
                    FaultKind::SensorRestore {
                        device: DeviceId::TEMP_SENSOR,
                    },
                ),
            ],
        );
        assert_eq!(plan.sensor_devices(), vec![DeviceId::TEMP_SENSOR]);
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
