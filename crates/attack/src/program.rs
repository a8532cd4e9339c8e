//! The attacker alphabet and the attack catalogue, written once for all
//! three platforms.
//!
//! An attack is an [`AttackProgram`]: the [`AttackOp`]s it issues on
//! every iteration, the pause between iterations and how many iterations
//! it runs. The model checker offers the same ops as the attacker's
//! transitions (`bas_analysis::mc`); the dynamic harness lowers each op
//! through one binding per platform ([`crate::bind`]) and runs the
//! result under one attacker process ([`crate::procs::Attacker`]).

use bas_core::proto::{names, BasMsg};
use bas_sim::device::DeviceId;
use bas_sim::time::SimDuration;

use crate::model::AttackId;

/// The "everything is normal" reading injected by the spoofing attack:
/// 21.5 °C sits inside the alarm band (suppressing the alarm window) but
/// below the fan-off hysteresis threshold (idling the fan) — the paper's
/// "the LED [...] showed everything is normal" while "the temperature
/// control process still turn\[ed\] the fan" the wrong way.
pub const FAKE_NORMAL_MILLI_C: i32 = 21_500;

/// An obviously invalid setpoint for the tamper attack.
pub const TAMPER_SETPOINT_MILLI_C: i32 = 95_000;

/// The captured legitimate setpoint the replay attack re-sends: 26 degC is
/// inside the administrator's permitted range but 4 degC away from the real
/// reference, enough to take the room out of the safety band.
pub const REPLAYED_SETPOINT_MILLI_C: i32 = 26_000;

/// The junk setpoint the flood attack sends, far outside any valid range.
pub(crate) const FLOOD_SETPOINT_MILLI_C: i32 = -1_000_000;

/// The five scenario processes, in lockstep order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proc {
    /// Temperature sensor driver.
    Sensor,
    /// The control-loop process.
    Ctrl,
    /// Heater/fan driver.
    Heater,
    /// Alarm driver.
    Alarm,
    /// The web interface — the attacker's position.
    Web,
}

impl Proc {
    /// The four critical processes whose moves gate the environment tick.
    pub const CRITICAL: [Proc; 4] = [Proc::Sensor, Proc::Ctrl, Proc::Heater, Proc::Alarm];

    /// Every process, in [`Proc::index`] order.
    pub const ALL: [Proc; 5] = [
        Proc::Sensor,
        Proc::Ctrl,
        Proc::Heater,
        Proc::Alarm,
        Proc::Web,
    ];

    /// The process's bit in a process mask.
    pub fn bit(self) -> u8 {
        1 << self.index()
    }

    /// The process's position in [`Proc::ALL`].
    pub fn index(self) -> usize {
        match self {
            Proc::Sensor => 0,
            Proc::Ctrl => 1,
            Proc::Heater => 2,
            Proc::Alarm => 3,
            Proc::Web => 4,
        }
    }

    /// The scenario process name (`bas_core::proto::names`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Proc::Sensor => names::SENSOR,
            Proc::Ctrl => names::CONTROL,
            Proc::Heater => names::HEATER,
            Proc::Alarm => names::ALARM,
            Proc::Web => names::WEB,
        }
    }
}

impl std::fmt::Display for Proc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Proc::Sensor => "sensor",
            Proc::Ctrl => "ctrl",
            Proc::Heater => "heater",
            Proc::Alarm => "alarm",
            Proc::Web => "web",
        })
    }
}

/// An attacker primitive, issued from the web interface's position.
///
/// The catalogue's programs use the first eleven. The last four exist
/// only in the model checker, which seeds anomalous capabilities and
/// capability churn that the dynamic stacks never mint; no platform
/// binds them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackOp {
    /// Inject an "everything is normal" sensor reading.
    InjectReading,
    /// Forge a fan-off command to the heater driver.
    ForgeFanOff,
    /// Forge an alarm-off command to the alarm driver.
    ForgeAlarmOff,
    /// Kill a critical process.
    Kill(Proc),
    /// Fork one child (the fork-bomb primitive).
    Fork,
    /// Enumerate reachable IPC handles (one-shot probe).
    Probe,
    /// Flood the legitimate setpoint channel with junk.
    Flood,
    /// Send an out-of-range setpoint.
    Tamper,
    /// Replay a captured in-range setpoint.
    Replay,
    /// Write the fan device register directly (force off).
    DevForceFan,
    /// Write the alarm device register directly (force off).
    DevForceAlarm,
    /// Invoke a type-confused handle (kernel-object masquerading).
    Masquerade,
    /// Invoke a derivation-breached capability (amplified, leaked past
    /// a revoke, or expired-but-live).
    UseDerived,
    /// Revoke the sensor→controller send right mid-run (capability
    /// churn, the race-detector cross-validation).
    Revoke,
    /// Re-grant the previously revoked sensor→controller right.
    Regrant,
}

impl AttackOp {
    /// The process the op is aimed at, if any.
    pub(crate) fn target(self) -> Option<Proc> {
        match self {
            AttackOp::InjectReading | AttackOp::Flood | AttackOp::Tamper | AttackOp::Replay => {
                Some(Proc::Ctrl)
            }
            AttackOp::ForgeFanOff => Some(Proc::Heater),
            AttackOp::ForgeAlarmOff => Some(Proc::Alarm),
            AttackOp::Kill(victim) => Some(victim),
            _ => None,
        }
    }

    /// The message the op sends to its [`target`](AttackOp::target), if
    /// it sends one.
    pub(crate) fn message(self) -> Option<BasMsg> {
        let setpoint = |milli_c| Some(BasMsg::SetpointUpdate { milli_c });
        match self {
            AttackOp::InjectReading => Some(BasMsg::SensorReading {
                milli_c: FAKE_NORMAL_MILLI_C,
                seq: 0,
            }),
            AttackOp::ForgeFanOff => Some(BasMsg::FanCmd { on: false }),
            AttackOp::ForgeAlarmOff => Some(BasMsg::AlarmCmd { on: false }),
            AttackOp::Flood => setpoint(FLOOD_SETPOINT_MILLI_C),
            AttackOp::Tamper => setpoint(TAMPER_SETPOINT_MILLI_C),
            AttackOp::Replay => setpoint(REPLAYED_SETPOINT_MILLI_C),
            _ => None,
        }
    }

    /// The device register the op forces off, if any.
    pub(crate) fn device(self) -> Option<DeviceId> {
        match self {
            AttackOp::DevForceFan => Some(DeviceId::FAN),
            AttackOp::DevForceAlarm => Some(DeviceId::ALARM),
            _ => None,
        }
    }
}

impl std::fmt::Display for AttackOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttackOp::InjectReading => f.write_str("inject-reading"),
            AttackOp::ForgeFanOff => f.write_str("forge-fan-off"),
            AttackOp::ForgeAlarmOff => f.write_str("forge-alarm-off"),
            AttackOp::Kill(p) => write!(f, "kill({p})"),
            AttackOp::Fork => f.write_str("fork"),
            AttackOp::Probe => f.write_str("probe"),
            AttackOp::Flood => f.write_str("flood"),
            AttackOp::Tamper => f.write_str("tamper"),
            AttackOp::Replay => f.write_str("replay"),
            AttackOp::DevForceFan => f.write_str("dev-force-fan"),
            AttackOp::DevForceAlarm => f.write_str("dev-force-alarm"),
            AttackOp::Masquerade => f.write_str("masquerade"),
            AttackOp::UseDerived => f.write_str("use-derived"),
            AttackOp::Revoke => f.write_str("revoke"),
            AttackOp::Regrant => f.write_str("regrant"),
        }
    }
}

/// One attack, independent of the platform it runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackProgram {
    /// The ops issued on every iteration, in order.
    pub ops: &'static [AttackOp],
    /// The pause after each iteration (`None` = back to back).
    pub pace: Option<SimDuration>,
    /// The number of iterations (`None` = until the run ends).
    pub bound: Option<u64>,
}

/// The pace of the spoofing and device attacks: faster than the control
/// loop re-asserts its actuators.
const FAST: Option<SimDuration> = Some(SimDuration::from_millis(200));

impl AttackId {
    /// The attack's program.
    pub fn program(self) -> AttackProgram {
        use AttackOp::*;
        let (ops, pace, bound): (&'static [AttackOp], _, _) = match self {
            AttackId::SpoofSensorData => (&[InjectReading], FAST, None),
            AttackId::SpoofActuatorCommands => (&[ForgeFanOff, ForgeAlarmOff], FAST, None),
            AttackId::KillCritical => (
                &[Kill(Proc::Ctrl), Kill(Proc::Alarm)],
                Some(SimDuration::from_secs(1)),
                Some(30),
            ),
            AttackId::ForkBomb => (&[Fork], None, Some(60)),
            AttackId::BruteForceHandles => (&[Probe], None, Some(1)),
            AttackId::FloodLegitChannel => (&[Flood], None, Some(1_000)),
            AttackId::DirectDeviceWrite => (&[DevForceFan, DevForceAlarm], FAST, None),
            AttackId::SetpointTamper => (&[Tamper], Some(SimDuration::from_secs(2)), Some(60)),
            AttackId::ReplaySetpoint => (&[Replay], Some(SimDuration::from_secs(2)), Some(60)),
        };
        AttackProgram { ops, pace, bound }
    }
}
