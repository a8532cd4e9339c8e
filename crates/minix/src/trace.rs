//! The MINIX kernel's typed trace records.
//!
//! Every per-message and per-syscall record (deliveries, device writes,
//! denials, PM kills) holds only copyable ids and numbers, so recording
//! it never touches the heap. Boot-time and fault records (spawn, crash,
//! churn) keep the names they carry as owned text. The text of a record
//! is rendered only when it is displayed.

use std::fmt;
use std::sync::Arc;

use bas_acm::{AcId, Decision, SyscallClass};
use bas_sim::caps::{CapOp, CapRecord, CapView, ChurnKind};
use bas_sim::device::DeviceId;
use bas_sim::fault::IpcFault;
use bas_sim::process::Pid;
use bas_sim::trace::TraceDetail;

use crate::endpoint::Endpoint;
use crate::grant::{GrantError, GrantId};

/// One MINIX kernel trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Detail {
    /// `proc.spawn`: a process was loaded or forked.
    Spawn {
        /// Process name (shared with the process table).
        name: Arc<str>,
        /// Its access-control identity.
        ac: AcId,
        /// Its uid.
        uid: u32,
        /// Its endpoint.
        ep: Endpoint,
    },
    /// `proc.exit`: a process returned `code`.
    Exit(i32),
    /// `proc.exit`: a process exited through PM.
    PmExit,
    /// `fault.crash`: the named process was killed by fault injection.
    Crash(Box<str>),
    /// `fault.clock`: the clock was skewed forward by this many ms.
    ClockSkew(u64),
    /// `fault.ipc`: an injected fault hit the send `from -> to` of `mtype`.
    Fault {
        /// The fault.
        fault: IpcFault,
        /// Sender.
        from: Endpoint,
        /// Destination.
        to: Endpoint,
        /// Message type.
        mtype: u32,
    },
    /// `cap.churn`: an ACM row was mutated at runtime.
    Churn(Box<Churn>),
    /// `ipc.deliver`: a message from `from` reached process `to`.
    Deliver {
        /// Kernel-stamped source endpoint.
        from: Endpoint,
        /// Receiving process.
        to: Pid,
        /// Message type.
        mtype: u32,
    },
    /// `acm.deny`: the ACM refused a send.
    AcmDeny {
        /// Sender identity.
        from: AcId,
        /// Destination identity.
        to: AcId,
        /// Message type.
        mtype: u32,
        /// The ACM's verdict.
        decision: Decision,
    },
    /// `acm.deny`: the ACM refused a notification.
    NotifyDeny {
        /// Sender identity.
        from: AcId,
        /// Destination identity.
        to: AcId,
    },
    /// `cap.check` or `cap.use` (capability tracing only).
    AcmCap(AcmCap),
    /// `quota.deny`: the identity's quota for `class` is spent.
    QuotaDeny {
        /// The charged identity.
        ac: AcId,
        /// The exhausted class.
        class: SyscallClass,
    },
    /// `dev.deny`: `ac` does not own `dev`.
    DevDeny {
        /// The device.
        dev: DeviceId,
        /// The caller's identity.
        ac: AcId,
    },
    /// `dev.write`: `value` was written to `dev`.
    DevWrite {
        /// The device.
        dev: DeviceId,
        /// The written value.
        value: i64,
    },
    /// `grant.deny`: a safe-copy was refused by the granter's table.
    GrantDeny {
        /// The copying endpoint.
        caller: Endpoint,
        /// The grant it named.
        grant: GrantId,
        /// The grant's owner.
        granter: Endpoint,
        /// Why it was refused.
        err: GrantError,
    },
    /// `pm.deny`: PM refused `by`'s request to kill `target` (PM itself,
    /// or a process of another uid).
    KillDeny {
        /// The requesting endpoint.
        by: Endpoint,
        /// The endpoint it named.
        target: Endpoint,
    },
    /// `pm.kill`: `by` had PM kill `target`.
    PmKill {
        /// The requesting endpoint.
        by: Endpoint,
        /// The killed endpoint.
        target: Endpoint,
    },
}

/// A capability record: the ACM row `from -> to` was checked for a send
/// from the record's process to `peer`, or used by a delivery to `peer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcmCap {
    /// [`CapOp::Check`] or [`CapOp::Use`].
    pub op: CapOp,
    /// Sender identity.
    pub from: AcId,
    /// Destination identity.
    pub to: AcId,
    /// Destination process.
    pub peer: Pid,
    /// The ACM's verdict; for a use, the current ACM's.
    pub ok: bool,
}

/// A runtime ACM mutation (boot-time and fault-campaign path, so it keeps
/// its names as owned text).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Churn {
    /// Who performed the mutation.
    pub actor: String,
    /// Grant, attenuate or revoke.
    pub kind: ChurnKind,
    /// The row's subject name.
    pub sub_name: String,
    /// The row's subject identity.
    pub sub_ac: AcId,
    /// The row's object name.
    pub dst_name: String,
    /// The row's object identity.
    pub dst_ac: AcId,
    /// Whether the matrix changed.
    pub changed: bool,
}

impl TraceDetail for Detail {
    fn category(&self) -> &'static str {
        match self {
            Detail::Spawn { .. } => "proc.spawn",
            Detail::Exit(_) | Detail::PmExit => "proc.exit",
            Detail::Crash(_) => "fault.crash",
            Detail::ClockSkew(_) => "fault.clock",
            Detail::Fault { .. } => "fault.ipc",
            Detail::Churn(_) => "cap.churn",
            Detail::Deliver { .. } => "ipc.deliver",
            Detail::AcmDeny { .. } | Detail::NotifyDeny { .. } => "acm.deny",
            Detail::AcmCap(c) if c.op == CapOp::Check => "cap.check",
            Detail::AcmCap(_) => "cap.use",
            Detail::QuotaDeny { .. } => "quota.deny",
            Detail::DevDeny { .. } => "dev.deny",
            Detail::DevWrite { .. } => "dev.write",
            Detail::GrantDeny { .. } => "grant.deny",
            Detail::KillDeny { .. } => "pm.deny",
            Detail::PmKill { .. } => "pm.kill",
        }
    }
}

impl fmt::Display for Detail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Detail::Spawn { name, ac, uid, ep } => write!(f, "{name} ac={ac} uid={uid} ep={ep}"),
            Detail::Exit(code) => write!(f, "code={code}"),
            Detail::PmExit => write!(f, "pm exit"),
            Detail::Crash(name) => write!(f, "killed {name}"),
            Detail::ClockSkew(ms) => write!(f, "skewed +{ms}ms"),
            Detail::Fault {
                fault,
                from,
                to,
                mtype,
            } => match fault {
                IpcFault::Drop => write!(f, "drop {from} -> {to} m{mtype}"),
                IpcFault::Delay(d) => {
                    write!(f, "delay {from} -> {to} m{mtype} +{}ms", d.as_millis())
                }
                IpcFault::Duplicate => write!(f, "duplicate {from} -> {to} m{mtype}"),
            },
            Detail::Churn(c) => write!(
                f,
                "{}: {} {}({}) -> {}({})",
                c.actor,
                c.kind.label(),
                c.sub_name,
                c.sub_ac,
                c.dst_name,
                c.dst_ac
            ),
            Detail::Deliver { from, to, mtype } => write!(f, "{from} -> {to} m{mtype}"),
            Detail::AcmDeny {
                from,
                to,
                mtype,
                decision,
            } => write!(f, "{from} -> {to} m{mtype}: {decision}"),
            Detail::NotifyDeny { from, to } => write!(f, "{from} -> {to} notify"),
            Detail::AcmCap(c) => {
                let AcmCap {
                    from, to, peer, ok, ..
                } = c;
                write!(f, "{} {from} -> {to} {peer} ok={ok}", c.op.label())
            }
            Detail::QuotaDeny { ac, class } => write!(f, "{ac} {class} quota exhausted"),
            Detail::DevDeny { dev, ac } => write!(f, "{dev} not owned by {ac}"),
            Detail::DevWrite { dev, value } => write!(f, "{dev} <- {value}"),
            Detail::GrantDeny {
                caller,
                grant,
                granter,
                err,
            } => write!(f, "{caller} on grant {grant:?} of {granter}: {err}"),
            Detail::KillDeny { by, target } => write!(f, "{by} may not kill {target}"),
            Detail::PmKill { by, target } => write!(f, "{by} killed {target}"),
        }
    }
}

impl CapRecord for Detail {
    /// A capability is an ACM row, `acm:<subject>-><object>`.
    fn cap_events(&self, pid: Option<Pid>, view: &mut CapView) {
        match self {
            Detail::Spawn { name, .. } => view.spawned(pid, name),
            Detail::AcmCap(c) => {
                let (me, peer) = (view.name(pid), view.name(Some(c.peer)));
                let cap = format!("acm:{}->{}", c.from, c.to);
                if c.op == CapOp::Check {
                    view.push(CapOp::Check, c.ok, [me, cap, peer], None);
                } else {
                    view.delivery(c.ok, [me, peer.clone(), cap, peer]);
                }
            }
            Detail::Churn(c) => {
                let cap = format!("acm:{}->{}", c.sub_ac, c.dst_ac);
                let names = [c.actor.clone(), cap, c.dst_name.clone()];
                view.push(c.kind.into(), c.changed, names, None);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use bas_acm::DenyReason;
    use bas_sim::time::SimDuration;

    use super::*;

    #[test]
    fn event_is_at_most_48_bytes() {
        assert!(std::mem::size_of::<bas_sim::trace::TraceEvent<Detail>>() <= 48);
    }

    /// Each arm renders the text the kernel wrote before records were
    /// typed (`format!` strings transcribed verbatim).
    #[test]
    fn renders_the_legacy_text() {
        let ep = Endpoint::new(3, 1);
        let other = Endpoint::new(4, 0);
        let (a, b) = (AcId::new(100), AcId::new(101));
        let cases: Vec<(Detail, String)> = vec![
            (
                Detail::Spawn {
                    name: "ctl".into(),
                    ac: a,
                    uid: 7,
                    ep,
                },
                format!("ctl ac={a} uid=7 ep={ep}"),
            ),
            (Detail::Exit(-1), "code=-1".into()),
            (Detail::PmExit, "pm exit".into()),
            (Detail::Crash("heater".into()), "killed heater".into()),
            (Detail::ClockSkew(7_000), "skewed +7000ms".into()),
            (
                Detail::Fault {
                    fault: IpcFault::Delay(SimDuration::from_millis(250)),
                    from: ep,
                    to: other,
                    mtype: 2,
                },
                format!("delay {ep} -> {other} m2 +250ms"),
            ),
            (
                Detail::Churn(Box::new(Churn {
                    actor: "churn-sched".into(),
                    kind: ChurnKind::Revoke,
                    sub_name: "s".into(),
                    sub_ac: a,
                    dst_name: "c".into(),
                    dst_ac: b,
                    changed: true,
                })),
                format!("churn-sched: revoke s({a}) -> c({b})"),
            ),
            (
                Detail::Deliver {
                    from: ep,
                    to: Pid::new(4),
                    mtype: 1,
                },
                format!("{ep} -> pid4 m1"),
            ),
            (
                Detail::AcmDeny {
                    from: a,
                    to: b,
                    mtype: 2,
                    decision: Decision::Deny(DenyReason::NoChannel),
                },
                format!("{a} -> {b} m2: {}", Decision::Deny(DenyReason::NoChannel)),
            ),
            (
                Detail::NotifyDeny { from: a, to: b },
                format!("{a} -> {b} notify"),
            ),
            (
                Detail::QuotaDeny {
                    ac: a,
                    class: SyscallClass::Fork,
                },
                format!("{a} fork quota exhausted"),
            ),
            (
                Detail::DevDeny {
                    dev: DeviceId::FAN,
                    ac: a,
                },
                format!("dev:fan not owned by {a}"),
            ),
            (
                Detail::DevWrite {
                    dev: DeviceId::ALARM,
                    value: -3,
                },
                "dev:alarm <- -3".into(),
            ),
            (
                Detail::GrantDeny {
                    caller: ep,
                    grant: GrantId(9),
                    granter: other,
                    err: GrantError::NotGrantee,
                },
                format!(
                    "{ep} on grant GrantId(9) of {other}: {}",
                    GrantError::NotGrantee
                ),
            ),
            (
                Detail::KillDeny {
                    by: ep,
                    target: other,
                },
                format!("{ep} may not kill {other}"),
            ),
            (
                Detail::PmKill {
                    by: ep,
                    target: other,
                },
                format!("{ep} killed {other}"),
            ),
        ];
        for (detail, text) in cases {
            assert_eq!(detail.to_string(), text, "{}", detail.category());
        }
    }
}
