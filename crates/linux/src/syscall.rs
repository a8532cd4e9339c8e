//! The Linux system-call surface used by the scenario and the attacks.

use bas_sim::device::DeviceId;
use bas_sim::inline::MsgBytes;
use bas_sim::process::Pid;
use bas_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::error::LinuxError;
use crate::kernel::MqCreate;

/// Access intents for `mq_open`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MqAccess {
    /// `O_RDONLY`-style read intent.
    pub read: bool,
    /// `O_WRONLY`-style write intent.
    pub write: bool,
}

impl MqAccess {
    /// Read only.
    pub const READ: MqAccess = MqAccess {
        read: true,
        write: false,
    };
    /// Write only.
    pub const WRITE: MqAccess = MqAccess {
        read: false,
        write: true,
    };
    /// Read + write.
    pub const RW: MqAccess = MqAccess {
        read: true,
        write: true,
    };
}

/// Signals the model delivers. Both terminate the target; they differ only
/// in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Signal {
    /// `SIGKILL`.
    Kill,
    /// `SIGTERM` (uncaught, so also fatal here).
    Term,
}

/// A system call trapped to the Linux kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Syscall {
    /// `mq_open(name, flags[, mode, attr])`.
    MqOpen {
        /// Queue name (by convention starts with `/`).
        name: String,
        /// Read/write intents (checked against DAC at open time).
        access: MqAccess,
        /// `O_CREAT` attributes, if creating.
        create: Option<MqCreate>,
    },
    /// `mq_send(qd, data, prio)`.
    MqSend {
        /// Queue descriptor from `MqOpen`.
        qd: u32,
        /// Payload bytes (at most [`crate::mq::MQ_MSG_MAX`]; held inline
        /// up to the scenario's message size).
        data: MsgBytes,
        /// Priority (higher = delivered first).
        priority: u32,
        /// `O_NONBLOCK` behaviour on a full queue.
        nonblocking: bool,
    },
    /// `mq_receive(qd)`.
    MqReceive {
        /// Queue descriptor.
        qd: u32,
        /// `O_NONBLOCK` behaviour on an empty queue.
        nonblocking: bool,
    },
    /// `mq_unlink(name)`.
    MqUnlink {
        /// Queue name.
        name: String,
    },
    /// `kill(pid, sig)`.
    Kill {
        /// Target process.
        pid: Pid,
        /// Signal to deliver.
        signal: Signal,
    },
    /// `fork()+exec()` of a registered program image; the child inherits
    /// the caller's uid.
    Fork {
        /// Registered program name.
        program: String,
    },
    /// `setuid(uid)` — root only (models the privilege-escalation end
    /// state: the attacker already *is* root and can become anyone).
    SetUid {
        /// New uid.
        uid: u32,
    },
    /// Look up a process id by name (`pidof`-style; models the attacker's
    /// recon via /proc).
    PidOf {
        /// Process name.
        name: String,
    },
    /// `getpid()`.
    GetPid,
    /// `getuid()`.
    GetUid,
    /// `nanosleep`.
    Sleep {
        /// How long to sleep.
        duration: SimDuration,
    },
    /// `clock_gettime`.
    GetTime,
    /// Read a device register via its `/dev` node (DAC-checked).
    DevRead {
        /// The device.
        dev: DeviceId,
    },
    /// Write a device register via its `/dev` node (DAC-checked).
    DevWrite {
        /// The device.
        dev: DeviceId,
        /// Value to write.
        value: i64,
    },
}

/// The kernel's reply to a system call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Completed without data.
    Ok,
    /// A queue descriptor (`MqOpen`).
    Qd(u32),
    /// A received message (`MqReceive`). Note: no sender identity.
    Data {
        /// Payload bytes.
        data: MsgBytes,
        /// Sender-chosen priority.
        priority: u32,
    },
    /// A pid (`GetPid`, `PidOf`, `Fork` returns the child pid).
    Pid(Pid),
    /// A uid (`GetUid`).
    Uid(u32),
    /// Current time (`GetTime`).
    Time(SimTime),
    /// Device register value (`DevRead`).
    DevValue(i64),
    /// The call failed.
    Err(LinuxError),
}

impl Reply {
    /// Extracts received data, if any.
    pub fn data(&self) -> Option<&[u8]> {
        match self {
            Reply::Data { data, .. } => Some(data.as_slice()),
            _ => None,
        }
    }

    /// Extracts the error, if this is one.
    pub fn err(&self) -> Option<LinuxError> {
        match self {
            Reply::Err(e) => Some(*e),
            _ => None,
        }
    }

    /// True if the reply is not an error.
    pub fn is_ok(&self) -> bool {
        !matches!(self, Reply::Err(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn access_constants() {
        assert!(MqAccess::READ.read && !MqAccess::READ.write);
        assert!(!MqAccess::WRITE.read && MqAccess::WRITE.write);
        assert!(MqAccess::RW.read && MqAccess::RW.write);
    }

    #[test]
    fn reply_accessors() {
        assert_eq!(
            Reply::Data {
                data: MsgBytes::from([1]),
                priority: 0
            }
            .data(),
            Some(&[1u8][..])
        );
        assert_eq!(Reply::Ok.data(), None);
        assert_eq!(
            Reply::Err(LinuxError::NoEntry).err(),
            Some(LinuxError::NoEntry)
        );
        assert!(Reply::Ok.is_ok());
        assert!(!Reply::Err(LinuxError::WouldBlock).is_ok());
    }
}
