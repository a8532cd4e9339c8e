//! One binding per platform: how each [`AttackOp`] becomes that
//! platform's syscalls.
//!
//! A binding says what an op resolves (a MINIX endpoint, a Linux pid),
//! what it acquires once (a Linux queue, a one-shot seL4 sweep) and what
//! it issues on each iteration. Nothing here knows which attack an op
//! belongs to: [`crate::procs::lower`] assembles a program's script from
//! its ops' lowerings, and the ops the model checker alone uses
//! (masquerade, use-derived, revoke, regrant) are unbound everywhere.

use bas_camkes::codegen::GlueMap;
use bas_core::platform::minix::prog_ids;
use bas_core::platform::sel4::WebThreadFactory;
use bas_core::policy::{actuator_rpc, ctrl_rpc, CHANNELS};
use bas_core::proto::{encode_i32, names, BasMsg, AC_WEB};
use bas_linux::syscall::{MqAccess, Syscall as LinuxSyscall};
use bas_sim::time::SimDuration;

use crate::evidence::{classify_linux, classify_minix, classify_sel4, AttackEvidence, Class};
use crate::procs::{AttackScript, AttackStep, Attacker, Binding};
use crate::program::AttackOp;

impl<S> AttackScript<S> {
    /// Counted steps issued once.
    fn once(steps: impl IntoIterator<Item = S>) -> Self {
        AttackScript {
            setup: steps.into_iter().map(AttackStep::counted).collect(),
            loop_body: Vec::new(),
            max_loops: None,
        }
    }

    /// Counted steps issued on every iteration.
    fn each(steps: impl IntoIterator<Item = S>) -> Self {
        AttackScript {
            setup: Vec::new(),
            loop_body: steps.into_iter().map(AttackStep::counted).collect(),
            max_loops: None,
        }
    }
}

/// MINIX: ops aimed at a process look its endpoint up in the name
/// service before the warmup, and send through the kernel's IPC, which
/// the ACM checks.
pub struct MinixBinding;

impl Binding for MinixBinding {
    type Syscall = bas_minix::syscall::Syscall;
    type Reply = bas_minix::syscall::Reply;
    type Handle = bas_minix::endpoint::Endpoint;
    type Factory = Box<dyn Fn() -> bas_minix::kernel::MinixProcess>;

    const RESOLVE_FIRST: bool = true;

    fn lookup(op: AttackOp) -> Option<Self::Syscall> {
        op.target().map(|p| Self::Syscall::Lookup {
            name: p.name().into(),
        })
    }

    fn handle(reply: Option<Self::Reply>) -> Option<Self::Handle> {
        match reply {
            Some(Self::Reply::Resolved(ep)) => Some(ep),
            _ => None,
        }
    }

    fn lower(
        &mut self,
        op: AttackOp,
        target: Option<Self::Handle>,
    ) -> Option<AttackScript<Self::Syscall>> {
        use bas_minix::endpoint::Endpoint;
        use bas_minix::message::Payload;
        use bas_minix::pm;
        use bas_minix::syscall::Syscall;

        let pm_call =
            |mtype, payload: Payload| Syscall::sendrec(pm::PM_ENDPOINT, mtype, payload.as_bytes());
        // The op's message, addressed to its resolved target.
        let addressed = || Some((target?, op.message()?.to_minix()));
        let step = match op {
            AttackOp::InjectReading | AttackOp::ForgeFanOff | AttackOp::ForgeAlarmOff => {
                addressed().map(|(dest, (mtype, p))| Syscall::send(dest, mtype, p.as_bytes()))
            }
            AttackOp::Flood => {
                addressed().map(|(dest, (mtype, p))| Syscall::nb_send(dest, mtype, p.as_bytes()))
            }
            AttackOp::Tamper | AttackOp::Replay => {
                addressed().map(|(dest, (mtype, p))| Syscall::sendrec(dest, mtype, p.as_bytes()))
            }
            AttackOp::Kill(_) => target.map(|ep| pm_call(pm::PM_KILL, pm::encode_kill(ep))),
            // Fork the (blocking) actuator image under the web identity.
            AttackOp::Fork => Some(pm_call(
                pm::PM_FORK2,
                pm::encode_fork2(prog_ids::HEATER, AC_WEB, 1000),
            )),
            AttackOp::DevForceFan | AttackOp::DevForceAlarm => {
                op.device().map(|dev| Syscall::DevWrite { dev, value: 0 })
            }
            // Enumerate every plausible endpoint and try every scenario
            // message type on it.
            AttackOp::Probe => {
                return Some(AttackScript::once((0..32u16).flat_map(|slot| {
                    (1..=5u32).map(move |mtype| Syscall::send(Endpoint::new(slot, 0), mtype, []))
                })));
            }
            AttackOp::Masquerade | AttackOp::UseDerived | AttackOp::Revoke | AttackOp::Regrant => {
                return None;
            }
        };
        Some(AttackScript::each(step))
    }

    fn sleep(duration: SimDuration) -> Self::Syscall {
        Self::Syscall::Sleep { duration }
    }

    fn record(reply: &Self::Reply, evidence: &mut AttackEvidence) {
        evidence.record(classify_minix(reply));
    }

    /// The web interface reaches the controller through the name
    /// service; it holds no raw endpoint.
    fn legitimate_handles() -> u64 {
        0
    }

    fn factory(spawn: impl Fn(Self) -> Attacker<Self> + 'static) -> Self::Factory {
        Box::new(move || Box::new(spawn(MinixBinding)))
    }
}

/// Slots a blind call or device sweep tries.
const CALL_SWEEP: u32 = 8;
/// Slots a blind CSpace sweep (suspend, identify) tries.
const CSPACE_SWEEP: u32 = 64;
/// Rounds after which an iterated blind sweep gives up.
const SWEEP_ROUNDS: u64 = 64;

/// seL4: the attacker knows the CapDL layout (§IV-D.3) and holds only
/// its `ctrl` RPC capability. Ops aimed at the controller call it; every
/// other op sweeps the CSpace blind, since no capability names its
/// target.
pub struct Sel4Binding {
    ctrl: bas_sel4::cap::CPtr,
}

impl Sel4Binding {
    /// The binding for the web interface's slots in `glue`.
    pub fn new(glue: &GlueMap) -> Self {
        Sel4Binding {
            ctrl: glue
                .client_slot(names::WEB, "ctrl")
                .expect("web has its RPC cap"),
        }
    }
}

impl Binding for Sel4Binding {
    type Syscall = bas_sel4::syscall::Syscall;
    type Reply = bas_sel4::syscall::Reply;
    type Handle = ();
    type Factory = WebThreadFactory;

    fn lower(&mut self, op: AttackOp, _: Option<()>) -> Option<AttackScript<Self::Syscall>> {
        use bas_sel4::cap::CPtr;
        use bas_sel4::message::IpcMessage;
        use bas_sel4::rights::CapRights;
        use bas_sel4::syscall::{RetypeKind, Syscall};

        let slots = |n: u32| (0..n).map(CPtr::new);
        // A blind sweep of the call slots, given up after its rounds.
        let sweep = |call: fn(CPtr) -> Syscall| AttackScript {
            max_loops: Some(SWEEP_ROUNDS),
            ..AttackScript::each(slots(CALL_SWEEP).map(call))
        };
        Some(match op {
            AttackOp::InjectReading | AttackOp::Flood | AttackOp::Tamper | AttackOp::Replay => {
                let (label, words) = match op.message()? {
                    BasMsg::SensorReading { milli_c, seq } => (
                        ctrl_rpc::REPORT_READING,
                        vec![encode_i32(milli_c), u64::from(seq)],
                    ),
                    BasMsg::SetpointUpdate { milli_c } => {
                        (ctrl_rpc::SET_SETPOINT, vec![encode_i32(milli_c)])
                    }
                    _ => return None,
                };
                AttackScript::each([Syscall::Call {
                    ep: self.ctrl,
                    msg: IpcMessage::with_data(label, words),
                }])
            }
            // No actuator capability: try every slot.
            AttackOp::ForgeFanOff | AttackOp::ForgeAlarmOff => sweep(|ep| Syscall::Call {
                ep,
                msg: IpcMessage::with_data(actuator_rpc::SET, vec![0]),
            }),
            AttackOp::DevForceFan | AttackOp::DevForceAlarm => {
                sweep(|dev| Syscall::DevWrite { dev, value: 0 })
            }
            AttackOp::Kill(_) => {
                AttackScript::once(slots(CSPACE_SWEEP).map(|tcb| Syscall::TcbSuspend { tcb }))
            }
            // No fork exists; object creation needs an untyped capability
            // (none granted), and minting stronger caps must fail too.
            AttackOp::Fork => AttackScript::once(slots(CALL_SWEEP).flat_map(|slot| {
                [
                    Syscall::Retype {
                        untyped: slot,
                        kind: RetypeKind::Endpoint,
                    },
                    Syscall::Mint {
                        src: slot,
                        rights: CapRights::ALL,
                        badge: 0,
                    },
                ]
            })),
            // §IV-D.3: "a simple brute-forcing program which attempts to
            // enumerate all the seL4 capability slots."
            AttackOp::Probe => AttackScript::once(
                slots(CSPACE_SWEEP)
                    .map(|slot| Syscall::Identify { slot })
                    .chain(slots(CSPACE_SWEEP).map(|tcb| Syscall::TcbSuspend { tcb })),
            ),
            AttackOp::Masquerade | AttackOp::UseDerived | AttackOp::Revoke | AttackOp::Regrant => {
                return None;
            }
        })
    }

    fn sleep(duration: SimDuration) -> Self::Syscall {
        Self::Syscall::Sleep { duration }
    }

    fn record(reply: &Self::Reply, evidence: &mut AttackEvidence) {
        evidence.record(classify_sel4(reply));
        // Enumeration bookkeeping: a probe that found a capability.
        if let Self::Reply::Identified(kind) = reply {
            evidence.handles_found += 1;
            evidence.notes.push(format!(
                "found capability: {}",
                kind.map_or("reply-cap".to_string(), |k| k.to_string())
            ));
        }
    }

    /// One capability per server interface the web interface calls.
    fn legitimate_handles() -> u64 {
        let mut ifaces: Vec<_> = CHANNELS
            .iter()
            .filter(|c| c.from == names::WEB)
            .filter_map(|c| Some((c.to, c.server_iface?)))
            .collect();
        ifaces.sort_unstable();
        ifaces.dedup();
        ifaces.len() as u64
    }

    fn factory(spawn: impl Fn(Self) -> Attacker<Self> + 'static) -> Self::Factory {
        Box::new(move |glue| Box::new(spawn(Sel4Binding::new(glue))))
    }
}

/// Linux: message ops open the queue that carries their message to their
/// target, once, and `Kill` looks its victim's pid up after the warmup.
///
/// A lowered op names its queue by the position of that queue's open
/// among the script's opens. The kernel gives a denied open no
/// descriptor, so the attacker sends each queue op with the descriptor
/// its own open returned (`Reply::Qd`), or with [`NO_DESCRIPTOR`] when
/// that open was denied.
#[derive(Default)]
pub struct LinuxBinding {
    opened: Vec<&'static str>,
    /// The descriptor each open returned, in open order.
    descriptors: Vec<Option<u32>>,
    /// Whether the step awaiting its reply is an open.
    opening: bool,
}

/// The descriptor a queue op carries when its queue's open was denied:
/// one no open returns, so the kernel answers `BadDescriptor`.
pub const NO_DESCRIPTOR: u32 = u32::MAX;

impl LinuxBinding {
    /// The position of `queue`'s open, adding the open (counted as
    /// evidence or not) to `setup` the first time it is named.
    fn open(
        &mut self,
        queue: &'static str,
        access: MqAccess,
        counted: bool,
        setup: &mut Vec<AttackStep<LinuxSyscall>>,
    ) -> u32 {
        if !self.opened.contains(&queue) {
            self.opened.push(queue);
            let syscall = LinuxSyscall::MqOpen {
                name: queue.into(),
                access,
                create: None,
            };
            setup.push(AttackStep { syscall, counted });
        }
        let qd = self.opened.iter().position(|q| *q == queue);
        u32::try_from(qd.expect("opened above")).expect("a handful of queues")
    }
}

/// The queue that carries messages of `msg`'s type to `to`.
fn queue(to: &str, msg: BasMsg) -> Option<&'static str> {
    let mtype = msg.to_minix().0;
    CHANNELS
        .iter()
        .find(|c| c.to == to && c.msg_type == mtype)
        .map(|c| c.queue)
}

impl Binding for LinuxBinding {
    type Syscall = bas_linux::syscall::Syscall;
    type Reply = bas_linux::syscall::Reply;
    type Handle = bas_sim::process::Pid;
    type Factory = Box<dyn Fn() -> bas_linux::kernel::LinuxProcess>;

    fn lookup(op: AttackOp) -> Option<Self::Syscall> {
        let AttackOp::Kill(victim) = op else {
            return None;
        };
        Some(Self::Syscall::PidOf {
            name: victim.name().into(),
        })
    }

    fn handle(reply: Option<Self::Reply>) -> Option<Self::Handle> {
        match reply {
            Some(Self::Reply::Pid(pid)) => Some(pid),
            _ => None,
        }
    }

    fn lower(
        &mut self,
        op: AttackOp,
        pid: Option<Self::Handle>,
    ) -> Option<AttackScript<Self::Syscall>> {
        use bas_linux::syscall::{Signal, Syscall};

        let nb_send = |qd, msg: BasMsg| Syscall::MqSend {
            qd,
            data: msg.to_bytes(),
            priority: 0,
            nonblocking: true,
        };
        let (mut setup, mut each) = (Vec::new(), Vec::new());
        match op {
            AttackOp::InjectReading
            | AttackOp::ForgeFanOff
            | AttackOp::ForgeAlarmOff
            | AttackOp::Flood => {
                let msg = op.message()?;
                let queue = queue(op.target()?.name(), msg)?;
                let qd = self.open(queue, MqAccess::WRITE, true, &mut setup);
                each.push(AttackStep::counted(nb_send(qd, msg)));
            }
            // Opening one's own channels and sending on them is not
            // attack evidence; the controller's ack is.
            AttackOp::Tamper | AttackOp::Replay => {
                let msg = op.message()?;
                let (to, reply) = (
                    queue(op.target()?.name(), msg)?,
                    queue(names::WEB, BasMsg::Ack { code: 0 })?,
                );
                let to = self.open(to, MqAccess::WRITE, false, &mut setup);
                let qd = self.open(reply, MqAccess::READ, false, &mut setup);
                each.push(AttackStep::pacing(nb_send(to, msg)));
                let nonblocking = false;
                each.push(AttackStep::counted(Syscall::MqReceive { qd, nonblocking }));
            }
            AttackOp::Kill(_) => {
                let signal = Signal::Kill;
                each.extend(pid.map(|pid| AttackStep::counted(Syscall::Kill { pid, signal })));
            }
            AttackOp::Fork => each.push(AttackStep::counted(Syscall::Fork {
                program: "sleeper".into(),
            })),
            AttackOp::DevForceFan | AttackOp::DevForceAlarm => {
                let dev = op.device()?;
                each.push(AttackStep::counted(Syscall::DevWrite { dev, value: 0 }));
            }
            AttackOp::Probe => {
                for channel in &CHANNELS {
                    self.open(channel.queue, MqAccess::RW, true, &mut setup);
                }
            }
            AttackOp::Masquerade | AttackOp::UseDerived | AttackOp::Revoke | AttackOp::Regrant => {
                return None;
            }
        }
        Some(AttackScript {
            setup,
            loop_body: each,
            max_loops: None,
        })
    }

    fn sleep(duration: SimDuration) -> Self::Syscall {
        Self::Syscall::Sleep { duration }
    }

    fn prepare(&mut self, step: Self::Syscall) -> Self::Syscall {
        use bas_linux::syscall::Syscall;

        self.opening = matches!(step, Syscall::MqOpen { .. });
        let descriptor = |open: u32| {
            self.descriptors
                .get(open as usize)
                .copied()
                .flatten()
                .unwrap_or(NO_DESCRIPTOR)
        };
        match step {
            Syscall::MqSend {
                qd,
                data,
                priority,
                nonblocking,
            } => Syscall::MqSend {
                qd: descriptor(qd),
                data,
                priority,
                nonblocking,
            },
            Syscall::MqReceive { qd, nonblocking } => Syscall::MqReceive {
                qd: descriptor(qd),
                nonblocking,
            },
            other => other,
        }
    }

    fn observe(&mut self, reply: &Self::Reply) {
        if std::mem::take(&mut self.opening) {
            let qd = match reply {
                Self::Reply::Qd(qd) => Some(*qd),
                _ => None,
            };
            self.descriptors.push(qd);
        }
    }

    fn record(reply: &Self::Reply, evidence: &mut AttackEvidence) {
        let class = classify_linux(reply);
        evidence.record(class);
        if matches!(reply, Self::Reply::Qd(_)) && class == Class::Success {
            evidence.handles_found += 1;
        }
    }

    /// Every queue with the web interface at either end.
    fn legitimate_handles() -> u64 {
        CHANNELS
            .iter()
            .filter(|c| c.from == names::WEB || c.to == names::WEB)
            .count() as u64
    }

    fn factory(spawn: impl Fn(Self) -> Attacker<Self> + 'static) -> Self::Factory {
        Box::new(move || Box::new(spawn(LinuxBinding::default())))
    }
}
