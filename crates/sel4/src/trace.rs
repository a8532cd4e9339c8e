//! The seL4 kernel's typed trace records.
//!
//! Every per-message and per-syscall record (deliveries, device writes,
//! capability denials, suspends) holds only copyable ids and numbers, so
//! recording it never touches the heap. Boot-time and fault records
//! (crash, churn) keep the names they carry as owned text. The text of a
//! record is rendered only when it is displayed.

use std::fmt;
use std::sync::Arc;

use bas_sim::caps::{CapOp, CapRecord, CapView, ChurnKind};
use bas_sim::device::DeviceId;
use bas_sim::process::Pid;
use bas_sim::trace::TraceDetail;

use crate::error::Sel4Error;
use crate::objects::ObjId;
use crate::rights::Right;
use crate::syscall::RetypeKind;

/// One seL4 kernel trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Detail {
    /// `thread.start`: the named thread was made runnable (name not shown).
    ThreadStart(Arc<str>),
    /// `thread.exit`: a thread returned `code`.
    Exit(i32),
    /// `fault.crash`: the named thread was killed by fault injection.
    Crash(Box<str>),
    /// `fault.clock`: the clock was skewed forward by this many ms.
    ClockSkew(u64),
    /// `fault.ipc`: an injected drop of `caller`'s send on `ep`.
    FaultDrop {
        /// Sending thread.
        caller: Pid,
        /// The endpoint object it sent to.
        ep: ObjId,
        /// Message label.
        label: u64,
    },
    /// `fault.ipc`: an injected delay of `caller`'s send on `ep`.
    FaultDelay {
        /// Sending thread.
        caller: Pid,
        /// The endpoint object it sent to.
        ep: ObjId,
        /// Delay in ms.
        ms: u64,
    },
    /// `fault.ipc`: an injected duplicate, absorbed by rendezvous IPC.
    FaultDuplicate {
        /// Sending thread.
        caller: Pid,
        /// The endpoint object it sent to.
        ep: ObjId,
    },
    /// `cap.churn`: a holder's capabilities on one object were mutated.
    Churn(Box<Churn>),
    /// `untyped.retype`: a `kind` object was carved out of `from`.
    Retype {
        /// The new object's kind.
        kind: RetypeKind,
        /// The untyped region.
        from: ObjId,
    },
    /// `cap.deny`: an invocation failed its capability check.
    CapDeny {
        /// The refused invocation.
        op: Invocation,
        /// The kernel error returned.
        err: Sel4Error,
        /// For a rights refusal, the right the capability lacked.
        missing: Option<Right>,
    },
    /// `cap.check` or `cap.use` (capability tracing only).
    EpCap(EpCap),
    /// `cap.dropped`: a transferred capability did not fit the receiver.
    CapDropped,
    /// `ipc.deliver`: a message moved from `sender` to `receiver`.
    Deliver {
        /// Sending thread.
        sender: Pid,
        /// Receiving thread.
        receiver: Pid,
        /// Message label.
        label: u64,
        /// Badge of the capability it was sent through.
        badge: u64,
    },
    /// `ipc.reply_dropped`: `target` was no longer awaiting the reply.
    ReplyDropped(Pid),
    /// `tcb.suspend`: `by` suspended `target`.
    Suspend {
        /// The invoking thread.
        by: Pid,
        /// The suspended thread.
        target: Pid,
    },
    /// `dev.write`: `value` was written to `dev`.
    DevWrite {
        /// The device.
        dev: DeviceId,
        /// The written value.
        value: i64,
    },
}

/// What a refused capability was invoked for: the system call, or
/// [`Invocation::Transfer`] for a capability a message names.
///
/// A send or nb-send lacking grant is a refused capability transfer and
/// records `Transfer`; a call lacking grant records `Call`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invocation {
    /// `Retype` on an untyped capability.
    Retype,
    /// `Send`.
    Send,
    /// `NBSend`.
    NBSend,
    /// `Call`.
    Call,
    /// `Recv`.
    Recv,
    /// `NBRecv`.
    NBRecv,
    /// `Reply`.
    Reply,
    /// `Signal`.
    Signal,
    /// `Wait`.
    Wait,
    /// `Mint`.
    Mint,
    /// `TcbSuspend`.
    TcbSuspend,
    /// `DevRead`.
    DevRead,
    /// `DevWrite`.
    DevWrite,
    /// Moving a capability a send or a reply names.
    Transfer,
}

impl fmt::Display for Invocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Invocation::Retype => "retype",
            Invocation::Send => "send",
            Invocation::NBSend => "nb-send",
            Invocation::Call => "call",
            Invocation::Recv => "recv",
            Invocation::NBRecv => "nb-recv",
            Invocation::Reply => "reply",
            Invocation::Signal => "signal",
            Invocation::Wait => "wait",
            Invocation::Mint => "mint",
            Invocation::TcbSuspend => "tcb suspend",
            Invocation::DevRead => "device read",
            Invocation::DevWrite => "device write",
            Invocation::Transfer => "cap transfer",
        })
    }
}

/// A capability record: the record's thread's send on `ep` passed or
/// failed its rights test, or reached `receiver`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpCap {
    /// [`CapOp::Check`] or [`CapOp::Use`].
    pub op: CapOp,
    /// The endpoint object.
    pub ep: ObjId,
    /// The receiving thread of a use.
    pub receiver: Option<Pid>,
    /// The rights verdict; for a use, the sender's current write right.
    pub ok: bool,
}

/// A runtime capability sweep on one object (fault-campaign path, so it
/// keeps its names as owned text).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Churn {
    /// Who performed the mutation.
    pub actor: String,
    /// Grant, attenuate or revoke.
    pub kind: ChurnKind,
    /// The thread whose capabilities changed.
    pub holder: Arc<str>,
    /// The object they reach.
    pub obj: ObjId,
    /// Whether any capability changed.
    pub changed: bool,
}

impl TraceDetail for Detail {
    fn category(&self) -> &'static str {
        match self {
            Detail::ThreadStart(_) => "thread.start",
            Detail::Exit(_) => "thread.exit",
            Detail::Crash(_) => "fault.crash",
            Detail::ClockSkew(_) => "fault.clock",
            Detail::FaultDrop { .. }
            | Detail::FaultDelay { .. }
            | Detail::FaultDuplicate { .. } => "fault.ipc",
            Detail::Churn(_) => "cap.churn",
            Detail::Retype { .. } => "untyped.retype",
            Detail::CapDeny { .. } => "cap.deny",
            Detail::EpCap(c) if c.op == CapOp::Check => "cap.check",
            Detail::EpCap(_) => "cap.use",
            Detail::CapDropped => "cap.dropped",
            Detail::Deliver { .. } => "ipc.deliver",
            Detail::ReplyDropped(_) => "ipc.reply_dropped",
            Detail::Suspend { .. } => "tcb.suspend",
            Detail::DevWrite { .. } => "dev.write",
        }
    }
}

impl fmt::Display for Detail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Detail::ThreadStart(_) => Ok(()),
            Detail::Exit(code) => write!(f, "code={code}"),
            Detail::Crash(name) => write!(f, "killed {name}"),
            Detail::ClockSkew(ms) => write!(f, "skewed +{ms}ms"),
            Detail::FaultDrop { caller, ep, label } => {
                write!(f, "drop {caller} ep={ep:?} label={label}")
            }
            Detail::FaultDelay { caller, ep, ms } => write!(f, "delay {caller} ep={ep:?} +{ms}ms"),
            Detail::FaultDuplicate { caller, ep } => {
                write!(f, "duplicate absorbed {caller} ep={ep:?}")
            }
            Detail::Churn(c) => write!(
                f,
                "{}: {} {} caps on {}",
                c.actor,
                c.kind.label(),
                c.holder,
                c.obj
            ),
            Detail::Retype { kind, from } => write!(f, "{kind:?} from {from}"),
            Detail::CapDeny { op, err, missing } => {
                write!(f, "{op}: {err}")?;
                match missing {
                    Some(right) => write!(f, " (needs {right})"),
                    None => Ok(()),
                }
            }
            Detail::EpCap(c) => write!(f, "{} {} ok={}", c.op.label(), c.ep, c.ok),
            Detail::CapDropped => write!(f, "transfer overflowed receiver cspace"),
            Detail::Deliver {
                sender,
                receiver,
                label,
                badge,
            } => write!(f, "{sender} -> {receiver} label={label} badge={badge}"),
            Detail::ReplyDropped(target) => write!(f, "target {target} not awaiting reply"),
            Detail::Suspend { by, target } => write!(f, "{by} suspended {target}"),
            Detail::DevWrite { dev, value } => write!(f, "{dev} <- {value}"),
        }
    }
}

impl CapRecord for Detail {
    /// A capability is a holder's reach to an endpoint, `<holder>:<ep>`.
    fn cap_events(&self, pid: Option<Pid>, view: &mut CapView) {
        match self {
            Detail::ThreadStart(name) => view.spawned(pid, name),
            Detail::EpCap(c) => {
                let me = view.name(pid);
                let cap = format!("{me}:{}", c.ep);
                if c.op == CapOp::Check {
                    view.push(CapOp::Check, c.ok, [me, cap, c.ep.to_string()], None);
                } else {
                    let receiver = view.name(c.receiver);
                    view.delivery(c.ok, [me, receiver, cap, c.ep.to_string()]);
                }
            }
            Detail::Churn(c) => {
                let cap = format!("{}:{}", c.holder, c.obj);
                let names = [c.actor.clone(), cap, c.obj.to_string()];
                view.push(c.kind.into(), c.changed, names, None);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_is_at_most_48_bytes() {
        assert!(std::mem::size_of::<bas_sim::trace::TraceEvent<Detail>>() <= 48);
        assert!(std::mem::size_of::<Detail>() <= 32);
    }

    /// Each arm renders the text the kernel wrote before records were
    /// typed (`format!` strings transcribed verbatim), except `cap.deny`:
    /// its free-text phrase became the typed invocation, error and
    /// missing right.
    #[test]
    fn renders_the_legacy_text() {
        let (p, q) = (Pid::new(2), Pid::new(5));
        let cases: Vec<(Detail, &str)> = vec![
            (Detail::ThreadStart("sensor".into()), ""),
            (Detail::Exit(0), "code=0"),
            (Detail::Crash("alarm".into()), "killed alarm"),
            (Detail::ClockSkew(7_000), "skewed +7000ms"),
            (
                Detail::FaultDrop {
                    caller: p,
                    ep: ObjId::new(3),
                    label: 4,
                },
                "drop pid2 ep=ObjId(3) label=4",
            ),
            (
                Detail::FaultDelay {
                    caller: p,
                    ep: ObjId::new(3),
                    ms: 250,
                },
                "delay pid2 ep=ObjId(3) +250ms",
            ),
            (
                Detail::FaultDuplicate {
                    caller: p,
                    ep: ObjId::new(3),
                },
                "duplicate absorbed pid2 ep=ObjId(3)",
            ),
            (
                Detail::Churn(Box::new(Churn {
                    actor: "churn-sched".into(),
                    kind: ChurnKind::Attenuate,
                    holder: "temp_sensor".into(),
                    obj: ObjId::new(7),
                    changed: true,
                })),
                "churn-sched: attenuate temp_sensor caps on obj7",
            ),
            (
                Detail::Retype {
                    kind: RetypeKind::Notification,
                    from: ObjId::new(1),
                },
                "Notification from obj1",
            ),
            (
                Detail::CapDeny {
                    op: Invocation::Send,
                    err: Sel4Error::InvalidCapability,
                    missing: None,
                },
                "send: invalid capability",
            ),
            (
                Detail::CapDeny {
                    op: Invocation::Send,
                    err: Sel4Error::InsufficientRights,
                    missing: Some(Right::Write),
                },
                "send: insufficient rights (needs write)",
            ),
            (
                Detail::CapDeny {
                    op: Invocation::Call,
                    err: Sel4Error::InsufficientRights,
                    missing: Some(Right::Grant),
                },
                "call: insufficient rights (needs grant)",
            ),
            (
                Detail::CapDeny {
                    op: Invocation::Transfer,
                    err: Sel4Error::InsufficientRights,
                    missing: Some(Right::Grant),
                },
                "cap transfer: insufficient rights (needs grant)",
            ),
            (
                Detail::CapDeny {
                    op: Invocation::DevRead,
                    err: Sel4Error::WrongObjectType,
                    missing: None,
                },
                "device read: wrong object type",
            ),
            (Detail::CapDropped, "transfer overflowed receiver cspace"),
            (
                Detail::Deliver {
                    sender: p,
                    receiver: q,
                    label: 1,
                    badge: 9,
                },
                "pid2 -> pid5 label=1 badge=9",
            ),
            (Detail::ReplyDropped(q), "target pid5 not awaiting reply"),
            (Detail::Suspend { by: p, target: q }, "pid2 suspended pid5"),
            (
                Detail::DevWrite {
                    dev: DeviceId::FAN,
                    value: 1,
                },
                "dev:fan <- 1",
            ),
        ];
        for (detail, text) in cases {
            assert_eq!(detail.to_string(), text, "{}", detail.category());
        }
    }
}
