//! The attack catalogue: concrete per-platform scripts for each
//! [`AttackId`].
//!
//! Every script expresses the same *intent* on each platform, executed
//! through that platform's real syscall interface, exactly as the paper
//! re-ran its two simulations across Linux, MINIX 3 and seL4.

use bas_camkes::codegen::GlueMap;
use bas_core::platform::minix::prog_ids;
use bas_core::policy::{ctrl_rpc, queues, CHANNELS};
use bas_core::proto::{names, BasMsg, AC_WEB};
use bas_sim::time::SimDuration;

use crate::model::AttackId;
use crate::procs::{AttackScript, AttackStep};

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

const SPOOF_PACE: SimDuration = SimDuration::from_millis(200);
const KILL_PACE: SimDuration = SimDuration::from_secs(1);
const TAMPER_PACE: SimDuration = SimDuration::from_secs(2);

// ---------------------------------------------------------------------------
// MINIX
// ---------------------------------------------------------------------------

/// MINIX attack plan: the names to resolve plus the script builder.
pub fn minix_script(
    attack: AttackId,
    delay: SimDuration,
) -> (
    Vec<String>,
    crate::procs::minix_attacker::MinixScriptBuilder,
) {
    use bas_minix::endpoint::Endpoint;
    use bas_minix::pm;
    use bas_minix::syscall::Syscall;

    fn send(ep: Endpoint, msg: BasMsg) -> Syscall {
        let (mtype, payload) = msg.to_minix();
        Syscall::Send {
            dest: ep,
            mtype,
            payload,
        }
    }

    let lookups: Vec<String> = match attack {
        AttackId::SpoofSensorData
        | AttackId::FloodLegitChannel
        | AttackId::SetpointTamper
        | AttackId::ReplaySetpoint => vec![names::CONTROL.into()],
        AttackId::SpoofActuatorCommands => vec![names::HEATER.into(), names::ALARM.into()],
        AttackId::KillCritical => vec![names::CONTROL.into(), names::ALARM.into()],
        _ => vec![],
    };

    let builder: crate::procs::minix_attacker::MinixScriptBuilder =
        Box::new(move |resolved: &[Option<Endpoint>]| {
            let mut setup = Vec::new();
            let mut loop_body = Vec::new();
            let mut max_loops = None;
            match attack {
                AttackId::SpoofSensorData => {
                    if let Some(Some(ctrl)) = resolved.first() {
                        loop_body.push(AttackStep::counted(send(
                            *ctrl,
                            BasMsg::SensorReading {
                                milli_c: FAKE_NORMAL_MILLI_C,
                                seq: 0,
                            },
                        )));
                        loop_body.push(AttackStep::pacing(Syscall::Sleep {
                            duration: SPOOF_PACE,
                        }));
                    }
                }
                AttackId::SpoofActuatorCommands => {
                    if let Some(Some(heater)) = resolved.first() {
                        loop_body.push(AttackStep::counted(send(
                            *heater,
                            BasMsg::FanCmd { on: false },
                        )));
                    }
                    if let Some(Some(alarm)) = resolved.get(1) {
                        loop_body.push(AttackStep::counted(send(
                            *alarm,
                            BasMsg::AlarmCmd { on: false },
                        )));
                    }
                    loop_body.push(AttackStep::pacing(Syscall::Sleep {
                        duration: SPOOF_PACE,
                    }));
                }
                AttackId::KillCritical => {
                    for target in resolved.iter().flatten() {
                        loop_body.push(AttackStep::counted(Syscall::SendRec {
                            dest: pm::PM_ENDPOINT,
                            mtype: pm::PM_KILL,
                            payload: pm::encode_kill(*target),
                        }));
                    }
                    loop_body.push(AttackStep::pacing(Syscall::Sleep {
                        duration: KILL_PACE,
                    }));
                    max_loops = Some(30);
                }
                AttackId::ForkBomb => {
                    // Fork the (blocking) actuator image under the web
                    // identity until the table fills.
                    loop_body.push(AttackStep::counted(Syscall::SendRec {
                        dest: pm::PM_ENDPOINT,
                        mtype: pm::PM_FORK2,
                        payload: pm::encode_fork2(prog_ids::HEATER, AC_WEB, 1000),
                    }));
                    max_loops = Some(60);
                }
                AttackId::BruteForceHandles => {
                    // Enumerate every plausible endpoint and try every
                    // scenario message type on it.
                    for slot in 0..32u16 {
                        for mtype in 1..=5u32 {
                            setup.push(AttackStep::counted(Syscall::Send {
                                dest: Endpoint::new(slot, 0),
                                mtype,
                                payload: bas_minix::message::Payload::zeroed(),
                            }));
                        }
                    }
                    max_loops = Some(1);
                }
                AttackId::FloodLegitChannel => {
                    if let Some(Some(ctrl)) = resolved.first() {
                        let (mtype, payload) = BasMsg::SetpointUpdate {
                            milli_c: -1_000_000,
                        }
                        .to_minix();
                        loop_body.push(AttackStep::counted(Syscall::NbSend {
                            dest: *ctrl,
                            mtype,
                            payload,
                        }));
                    }
                    max_loops = Some(1_000);
                }
                AttackId::DirectDeviceWrite => {
                    loop_body.push(AttackStep::counted(Syscall::DevWrite {
                        dev: bas_sim::device::DeviceId::FAN,
                        value: 0,
                    }));
                    loop_body.push(AttackStep::counted(Syscall::DevWrite {
                        dev: bas_sim::device::DeviceId::ALARM,
                        value: 0,
                    }));
                    loop_body.push(AttackStep::pacing(Syscall::Sleep {
                        duration: SPOOF_PACE,
                    }));
                }
                AttackId::SetpointTamper => {
                    if let Some(Some(ctrl)) = resolved.first() {
                        let (mtype, payload) = BasMsg::SetpointUpdate {
                            milli_c: TAMPER_SETPOINT_MILLI_C,
                        }
                        .to_minix();
                        loop_body.push(AttackStep::counted(Syscall::SendRec {
                            dest: *ctrl,
                            mtype,
                            payload,
                        }));
                        loop_body.push(AttackStep::pacing(Syscall::Sleep {
                            duration: TAMPER_PACE,
                        }));
                    }
                    max_loops = Some(60);
                }
                AttackId::ReplaySetpoint => {
                    if let Some(Some(ctrl)) = resolved.first() {
                        let (mtype, payload) = BasMsg::SetpointUpdate {
                            milli_c: REPLAYED_SETPOINT_MILLI_C,
                        }
                        .to_minix();
                        loop_body.push(AttackStep::counted(Syscall::SendRec {
                            dest: *ctrl,
                            mtype,
                            payload,
                        }));
                        loop_body.push(AttackStep::pacing(Syscall::Sleep {
                            duration: TAMPER_PACE,
                        }));
                    }
                    max_loops = Some(60);
                }
            }
            AttackScript {
                delay,
                setup,
                loop_body,
                max_loops,
            }
        });

    (lookups, builder)
}

// ---------------------------------------------------------------------------
// seL4
// ---------------------------------------------------------------------------

/// seL4 attack script, built from the (attacker-known) glue map.
pub fn sel4_script(
    attack: AttackId,
    delay: SimDuration,
    glue: &GlueMap,
) -> AttackScript<bas_sel4::syscall::Syscall> {
    use bas_sel4::cap::CPtr;
    use bas_sel4::message::IpcMessage;
    use bas_sel4::syscall::Syscall;

    let ctrl = glue
        .client_slot(names::WEB, "ctrl")
        .expect("web has its RPC cap");
    let enc = |v: i32| u64::from(v as u32);

    let mut setup = Vec::new();
    let mut loop_body = Vec::new();
    let mut max_loops = None;

    match attack {
        AttackId::SpoofSensorData => {
            loop_body.push(AttackStep::counted(Syscall::Call {
                ep: ctrl,
                msg: IpcMessage::with_data(
                    ctrl_rpc::REPORT_READING,
                    vec![enc(FAKE_NORMAL_MILLI_C), 0],
                ),
            }));
            loop_body.push(AttackStep::pacing(Syscall::Sleep {
                duration: SPOOF_PACE,
            }));
        }
        AttackId::SpoofActuatorCommands => {
            // The attacker holds no actuator capability; try every slot.
            for slot in 0..8 {
                loop_body.push(AttackStep::counted(Syscall::Call {
                    ep: CPtr::new(slot),
                    msg: IpcMessage::with_data(bas_core::policy::actuator_rpc::SET, vec![0]),
                }));
            }
            loop_body.push(AttackStep::pacing(Syscall::Sleep {
                duration: SPOOF_PACE,
            }));
            max_loops = Some(64);
        }
        AttackId::KillCritical => {
            for slot in 0..64 {
                setup.push(AttackStep::counted(Syscall::TcbSuspend {
                    tcb: CPtr::new(slot),
                }));
            }
            max_loops = Some(1);
        }
        AttackId::ForkBomb => {
            // No fork exists; object creation requires an untyped
            // capability (none granted), and minting stronger caps must
            // also fail.
            for slot in 0..8 {
                setup.push(AttackStep::counted(Syscall::Retype {
                    untyped: CPtr::new(slot),
                    kind: bas_sel4::syscall::RetypeKind::Endpoint,
                }));
                setup.push(AttackStep::counted(Syscall::Mint {
                    src: CPtr::new(slot),
                    rights: bas_sel4::rights::CapRights::ALL,
                    badge: 0,
                }));
            }
            max_loops = Some(1);
        }
        AttackId::BruteForceHandles => {
            // §IV-D.3: "a simple brute-forcing program which attempts to
            // enumerate all the seL4 capability slots."
            for slot in 0..64 {
                setup.push(AttackStep::counted(Syscall::Identify {
                    slot: CPtr::new(slot),
                }));
            }
            for slot in 0..64 {
                setup.push(AttackStep::counted(Syscall::TcbSuspend {
                    tcb: CPtr::new(slot),
                }));
            }
            max_loops = Some(1);
        }
        AttackId::FloodLegitChannel => {
            loop_body.push(AttackStep::counted(Syscall::Call {
                ep: ctrl,
                msg: IpcMessage::with_data(ctrl_rpc::SET_SETPOINT, vec![enc(-1_000_000)]),
            }));
            max_loops = Some(1_000);
        }
        AttackId::DirectDeviceWrite => {
            for slot in 0..8 {
                loop_body.push(AttackStep::counted(Syscall::DevWrite {
                    dev: CPtr::new(slot),
                    value: 0,
                }));
            }
            loop_body.push(AttackStep::pacing(Syscall::Sleep {
                duration: SPOOF_PACE,
            }));
            max_loops = Some(64);
        }
        AttackId::SetpointTamper => {
            loop_body.push(AttackStep::counted(Syscall::Call {
                ep: ctrl,
                msg: IpcMessage::with_data(
                    ctrl_rpc::SET_SETPOINT,
                    vec![enc(TAMPER_SETPOINT_MILLI_C)],
                ),
            }));
            loop_body.push(AttackStep::pacing(Syscall::Sleep {
                duration: TAMPER_PACE,
            }));
            max_loops = Some(60);
        }
        AttackId::ReplaySetpoint => {
            loop_body.push(AttackStep::counted(Syscall::Call {
                ep: ctrl,
                msg: IpcMessage::with_data(
                    ctrl_rpc::SET_SETPOINT,
                    vec![enc(REPLAYED_SETPOINT_MILLI_C)],
                ),
            }));
            loop_body.push(AttackStep::pacing(Syscall::Sleep {
                duration: TAMPER_PACE,
            }));
            max_loops = Some(60);
        }
    }

    AttackScript {
        delay,
        setup,
        loop_body,
        max_loops,
    }
}

// ---------------------------------------------------------------------------
// Linux
// ---------------------------------------------------------------------------

/// Linux attack plan: pid lookups plus the script builder.
pub fn linux_script(
    attack: AttackId,
) -> (
    Vec<String>,
    crate::procs::linux_attacker::LinuxScriptBuilder,
) {
    use bas_linux::syscall::{MqAccess, Signal, Syscall};
    use bas_sim::process::Pid;

    fn open(name: &str, access: MqAccess) -> Syscall {
        Syscall::MqOpen {
            name: name.into(),
            access,
            create: None,
        }
    }

    fn nb_send(qd: u32, msg: BasMsg) -> Syscall {
        Syscall::MqSend {
            qd,
            data: msg.to_bytes(),
            priority: 0,
            nonblocking: true,
        }
    }

    let pid_lookups: Vec<String> = match attack {
        AttackId::KillCritical => vec![names::CONTROL.into(), names::ALARM.into()],
        _ => vec![],
    };

    let builder: crate::procs::linux_attacker::LinuxScriptBuilder =
        Box::new(move |resolved: &[Option<Pid>]| {
            let mut setup = Vec::new();
            let mut loop_body = Vec::new();
            let mut max_loops = None;
            match attack {
                AttackId::SpoofSensorData => {
                    setup.push(AttackStep::counted(open(
                        queues::SENSOR_IN,
                        MqAccess::WRITE,
                    )));
                    loop_body.push(AttackStep::counted(nb_send(
                        0,
                        BasMsg::SensorReading {
                            milli_c: FAKE_NORMAL_MILLI_C,
                            seq: 0,
                        },
                    )));
                    loop_body.push(AttackStep::pacing(Syscall::Sleep {
                        duration: SPOOF_PACE,
                    }));
                }
                AttackId::SpoofActuatorCommands => {
                    setup.push(AttackStep::counted(open(
                        queues::HEATER_CMD,
                        MqAccess::WRITE,
                    )));
                    setup.push(AttackStep::counted(open(
                        queues::ALARM_CMD,
                        MqAccess::WRITE,
                    )));
                    loop_body.push(AttackStep::counted(nb_send(
                        0,
                        BasMsg::FanCmd { on: false },
                    )));
                    loop_body.push(AttackStep::counted(nb_send(
                        1,
                        BasMsg::AlarmCmd { on: false },
                    )));
                    loop_body.push(AttackStep::pacing(Syscall::Sleep {
                        duration: SPOOF_PACE,
                    }));
                }
                AttackId::KillCritical => {
                    for target in resolved.iter().flatten() {
                        loop_body.push(AttackStep::counted(Syscall::Kill {
                            pid: *target,
                            signal: Signal::Kill,
                        }));
                    }
                    loop_body.push(AttackStep::pacing(Syscall::Sleep {
                        duration: KILL_PACE,
                    }));
                    max_loops = Some(30);
                }
                AttackId::ForkBomb => {
                    loop_body.push(AttackStep::counted(Syscall::Fork {
                        program: "sleeper".into(),
                    }));
                    max_loops = Some(60);
                }
                AttackId::BruteForceHandles => {
                    for channel in &CHANNELS {
                        setup.push(AttackStep::counted(open(channel.queue, MqAccess::RW)));
                    }
                    max_loops = Some(1);
                }
                AttackId::FloodLegitChannel => {
                    setup.push(AttackStep::counted(open(
                        queues::SETPOINT_IN,
                        MqAccess::WRITE,
                    )));
                    loop_body.push(AttackStep::counted(nb_send(
                        0,
                        BasMsg::SetpointUpdate {
                            milli_c: -1_000_000,
                        },
                    )));
                    max_loops = Some(1_000);
                }
                AttackId::DirectDeviceWrite => {
                    loop_body.push(AttackStep::counted(Syscall::DevWrite {
                        dev: bas_sim::device::DeviceId::FAN,
                        value: 0,
                    }));
                    loop_body.push(AttackStep::counted(Syscall::DevWrite {
                        dev: bas_sim::device::DeviceId::ALARM,
                        value: 0,
                    }));
                    loop_body.push(AttackStep::pacing(Syscall::Sleep {
                        duration: SPOOF_PACE,
                    }));
                }
                AttackId::SetpointTamper => {
                    // Opening one's own channels is not attack evidence;
                    // the controller's ack is.
                    setup.push(AttackStep::pacing(open(
                        queues::SETPOINT_IN,
                        MqAccess::WRITE,
                    )));
                    setup.push(AttackStep::pacing(open(queues::WEB_REPLY, MqAccess::READ)));
                    loop_body.push(AttackStep::pacing(nb_send(
                        0,
                        BasMsg::SetpointUpdate {
                            milli_c: TAMPER_SETPOINT_MILLI_C,
                        },
                    )));
                    // The evidence is the controller's ack.
                    loop_body.push(AttackStep::counted(Syscall::MqReceive {
                        qd: 1,
                        nonblocking: false,
                    }));
                    loop_body.push(AttackStep::pacing(Syscall::Sleep {
                        duration: TAMPER_PACE,
                    }));
                    max_loops = Some(60);
                }
                AttackId::ReplaySetpoint => {
                    setup.push(AttackStep::pacing(open(
                        queues::SETPOINT_IN,
                        MqAccess::WRITE,
                    )));
                    setup.push(AttackStep::pacing(open(queues::WEB_REPLY, MqAccess::READ)));
                    loop_body.push(AttackStep::pacing(nb_send(
                        0,
                        BasMsg::SetpointUpdate {
                            milli_c: REPLAYED_SETPOINT_MILLI_C,
                        },
                    )));
                    loop_body.push(AttackStep::counted(Syscall::MqReceive {
                        qd: 1,
                        nonblocking: false,
                    }));
                    loop_body.push(AttackStep::pacing(Syscall::Sleep {
                        duration: TAMPER_PACE,
                    }));
                    max_loops = Some(60);
                }
            }
            AttackScript {
                delay: SimDuration::ZERO,
                setup,
                loop_body,
                max_loops,
            }
        });

    (pid_lookups, builder)
}
