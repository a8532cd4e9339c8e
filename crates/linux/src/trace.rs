//! The Linux kernel's typed trace records.
//!
//! Every per-message and per-syscall record (queue sends, device writes,
//! DAC and signal denials, kills) holds ids, numbers and shared name
//! handles, so recording it never touches the heap: a queue or process
//! name is an `Arc<str>` that the record shares with the kernel's own
//! table. Boot-time and fault records (crash, churn) keep the names they
//! carry as owned text. The text of a record is rendered only when it is
//! displayed.

use std::fmt;
use std::sync::Arc;

use bas_sim::arena::MsgRef;
use bas_sim::caps::{CapChurnOp, CapOp, CapRecord, CapView};
use bas_sim::device::DeviceId;
use bas_sim::process::Pid;
use bas_sim::trace::TraceDetail;

use crate::cred::Uid;
use crate::syscall::Signal;

/// A queue's shared VFS name; `None` renders as `?` (an unlinked queue).
pub type QueueName = Option<Arc<str>>;

/// One Linux kernel trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Detail {
    /// `proc.spawn`: a process was created.
    Spawn {
        /// Process name.
        name: Arc<str>,
        /// Its uid.
        uid: u32,
    },
    /// `proc.exit`: a process returned `code`.
    Exit(i32),
    /// `fault.crash`: the named process was killed by fault injection.
    Crash(Box<str>),
    /// `fault.clock`: the clock was skewed forward by this many ms.
    ClockSkew(u64),
    /// `fault.ipc`: an injected drop of `sender`'s message to `queue`.
    FaultDrop {
        /// Sending process.
        sender: Pid,
        /// Target queue.
        queue: QueueName,
    },
    /// `fault.ipc`: an injected delay of `sender`'s message to `queue`.
    FaultDelay {
        /// Sending process.
        sender: Pid,
        /// Target queue.
        queue: QueueName,
        /// Delay in ms.
        ms: u64,
    },
    /// `fault.ipc`: an injected duplicate of `sender`'s message.
    FaultDuplicate {
        /// Sending process.
        sender: Pid,
        /// Target queue.
        queue: QueueName,
    },
    /// `cap.churn`: a queue's mode was edited at runtime.
    Churn(Box<Churn>),
    /// `mq.create`: `mq_open` created a queue with `mode`.
    MqCreate {
        /// The new queue.
        queue: Arc<str>,
        /// Its permission bits.
        mode: u16,
    },
    /// `dac.deny`: `uid` may not open or unlink `queue`.
    MqDeny {
        /// The caller's uid.
        uid: Uid,
        /// The queue.
        queue: Arc<str>,
    },
    /// `dac.deny`: `uid` may not access the device node.
    DevDeny {
        /// The caller's uid.
        uid: Uid,
        /// The device.
        dev: DeviceId,
    },
    /// `signal.deny`: `by` may not signal a process of `target`.
    SignalDeny {
        /// The caller's uid.
        by: Uid,
        /// The target's uid.
        target: Uid,
    },
    /// `signal.kill`: `by` killed `target` with `signal`.
    SignalKill {
        /// The signalling process.
        by: Pid,
        /// The signal.
        signal: Signal,
        /// The killed process.
        target: Pid,
        /// Its name.
        name: Arc<str>,
    },
    /// `dev.write`: `value` was written to `dev`.
    DevWrite {
        /// The device.
        dev: DeviceId,
        /// The written value.
        value: i64,
    },
    /// `cap.check`, `cap.use` or `cap.recv` (capability tracing only):
    /// the record's process opened `queue`, or sent or received `msg`.
    MqCap {
        /// [`CapOp::Check`], [`CapOp::Use`] or [`CapOp::Recv`].
        op: CapOp,
        /// The queue.
        queue: QueueName,
        /// The message sent or received.
        msg: Option<MsgRef>,
        /// The DAC verdict; for a use, the current mode bits'.
        ok: bool,
    },
    /// `mq.send`: a message from `sender` landed in `queue`.
    MqSend {
        /// Sending process.
        sender: Pid,
        /// Target queue.
        queue: QueueName,
    },
}

/// A runtime queue-mode edit (fault-campaign path, so it keeps its op's
/// names as owned text).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Churn {
    /// The churn op: its subject's reach to the queue named by its object.
    pub op: CapChurnOp,
    /// Mode bits before.
    pub old: u16,
    /// Mode bits after.
    pub new: u16,
}

/// Renders a queue name the way the kernel's name lookup reports it.
fn queue(name: &QueueName) -> &str {
    name.as_deref().unwrap_or("?")
}

impl TraceDetail for Detail {
    fn category(&self) -> &'static str {
        match self {
            Detail::Spawn { .. } => "proc.spawn",
            Detail::Exit(_) => "proc.exit",
            Detail::Crash(_) => "fault.crash",
            Detail::ClockSkew(_) => "fault.clock",
            Detail::FaultDrop { .. }
            | Detail::FaultDelay { .. }
            | Detail::FaultDuplicate { .. } => "fault.ipc",
            Detail::Churn(_) => "cap.churn",
            Detail::MqCreate { .. } => "mq.create",
            Detail::MqDeny { .. } | Detail::DevDeny { .. } => "dac.deny",
            Detail::SignalDeny { .. } => "signal.deny",
            Detail::SignalKill { .. } => "signal.kill",
            Detail::DevWrite { .. } => "dev.write",
            Detail::MqSend { .. } => "mq.send",
            Detail::MqCap { op, .. } if *op == CapOp::Check => "cap.check",
            Detail::MqCap { op, .. } if *op == CapOp::Use => "cap.use",
            Detail::MqCap { .. } => "cap.recv",
        }
    }
}

impl fmt::Display for Detail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Detail::Spawn { name, uid } => write!(f, "{name} uid={uid}"),
            Detail::Exit(code) => write!(f, "code={code}"),
            Detail::Crash(name) => write!(f, "killed {name}"),
            Detail::ClockSkew(ms) => write!(f, "skewed +{ms}ms"),
            Detail::FaultDrop { sender, queue: q } => write!(f, "drop {sender} -> {}", queue(q)),
            Detail::FaultDelay {
                sender,
                queue: q,
                ms,
            } => write!(f, "delay {sender} -> {} +{ms}ms", queue(q)),
            Detail::FaultDuplicate { sender, queue: q } => {
                write!(f, "duplicate {sender} -> {}", queue(q))
            }
            Detail::Churn(c) => write!(f, "{} mode {:04o} -> {:04o}", c.op.label(), c.old, c.new),
            Detail::MqCreate { queue, mode } => write!(f, "{queue} mode={mode:04o}"),
            Detail::MqDeny { uid, queue } => write!(f, "{uid} denied {queue}"),
            Detail::DevDeny { uid, dev } => write!(f, "{uid} denied {dev}"),
            Detail::SignalDeny { by, target } => write!(f, "{by} may not signal {target}"),
            Detail::SignalKill {
                by,
                signal,
                target,
                name,
            } => write!(f, "{by} sent {signal:?} to {target} ({name})"),
            Detail::DevWrite { dev, value } => write!(f, "{dev} <- {value}"),
            Detail::MqSend { sender, queue: q } => write!(f, "{sender} -> {}", queue(q)),
            Detail::MqCap { op, queue, ok, .. } => {
                write!(f, "{} {} ok={ok}", op.label(), self::queue(queue))
            }
        }
    }
}

impl CapRecord for Detail {
    /// A capability is a process's reach to a queue, `mq:<queue>:<process>`;
    /// creating a queue grants it to its creator.
    fn cap_events(&self, pid: Option<Pid>, view: &mut CapView) {
        let (op, ok, q, msg) = match self {
            Detail::Spawn { name, .. } => return view.spawned(pid, name),
            Detail::MqCreate { queue, .. } => (CapOp::Grant, true, &**queue, None),
            Detail::MqCap { op, queue, msg, ok } => (*op, *ok, self::queue(queue), *msg),
            Detail::Churn(c) => {
                let cap = format!("mq:{}:{}", c.op.object, c.op.subject);
                let names = [c.op.actor.clone(), cap, c.op.object.clone()];
                return view.push(c.op.kind.into(), c.old != c.new, names, None);
            }
            _ => return,
        };
        let me = view.name(pid);
        let names = [me.clone(), format!("mq:{q}:{me}"), q.to_string()];
        view.push(op, ok, names, msg);
    }
}

#[cfg(test)]
mod tests {
    use bas_sim::caps::ChurnKind;

    use super::*;

    #[test]
    fn event_is_at_most_48_bytes() {
        assert!(std::mem::size_of::<bas_sim::trace::TraceEvent<Detail>>() <= 48);
    }

    /// Each arm renders the text the kernel wrote before records were
    /// typed (`format!` strings transcribed verbatim).
    #[test]
    fn renders_the_legacy_text() {
        let p = Pid::new(3);
        let q: Arc<str> = Arc::from("/mq_heater");
        let cases: Vec<(Detail, &str)> = vec![
            (
                Detail::Spawn {
                    name: Arc::from("web"),
                    uid: 1000,
                },
                "web uid=1000",
            ),
            (Detail::Exit(2), "code=2"),
            (Detail::Crash("heater".into()), "killed heater"),
            (Detail::ClockSkew(7_000), "skewed +7000ms"),
            (
                Detail::FaultDrop {
                    sender: p,
                    queue: Some(q.clone()),
                },
                "drop pid3 -> /mq_heater",
            ),
            (
                Detail::FaultDelay {
                    sender: p,
                    queue: None,
                    ms: 250,
                },
                "delay pid3 -> ? +250ms",
            ),
            (
                Detail::FaultDuplicate {
                    sender: p,
                    queue: Some(q.clone()),
                },
                "duplicate pid3 -> /mq_heater",
            ),
            (
                Detail::Churn(Box::new(Churn {
                    op: CapChurnOp::new(ChurnKind::Revoke, "a", "b"),
                    old: 0o660,
                    new: 0o600,
                })),
                "cap.revoke(a->b) mode 0660 -> 0600",
            ),
            (
                Detail::MqCreate {
                    queue: q.clone(),
                    mode: 0o600,
                },
                "/mq_heater mode=0600",
            ),
            (
                Detail::MqDeny {
                    uid: Uid::new(1001),
                    queue: q.clone(),
                },
                "uid1001 denied /mq_heater",
            ),
            (
                Detail::DevDeny {
                    uid: Uid::new(1001),
                    dev: DeviceId::FAN,
                },
                "uid1001 denied dev:fan",
            ),
            (
                Detail::SignalDeny {
                    by: Uid::new(1001),
                    target: Uid::new(1002),
                },
                "uid1001 may not signal uid1002",
            ),
            (
                Detail::SignalKill {
                    by: p,
                    signal: Signal::Kill,
                    target: Pid::new(4),
                    name: Arc::from("heater"),
                },
                "pid3 sent Kill to pid4 (heater)",
            ),
            (
                Detail::DevWrite {
                    dev: DeviceId::FAN,
                    value: 0,
                },
                "dev:fan <- 0",
            ),
            (
                Detail::MqSend {
                    sender: p,
                    queue: Some(q),
                },
                "pid3 -> /mq_heater",
            ),
        ];
        for (detail, text) in cases {
            assert_eq!(detail.to_string(), text, "{}", detail.category());
        }
    }
}
