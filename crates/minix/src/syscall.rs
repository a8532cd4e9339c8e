//! The MINIX system-call interface exposed to all user processes.
//!
//! §III-B: "we modified the MINIX 3 kernel to bring the message passing
//! primitives to all user processes. Because the kernel facilitates all of
//! the IPC, it is the ideal location to enforce IPC policy."

use std::borrow::Cow;

use bas_acm::AcId;
use bas_sim::device::DeviceId;
use bas_sim::time::{SimDuration, SimTime};

use crate::endpoint::Endpoint;
use crate::error::MinixError;
use crate::grant::{BufId, GrantId, GrantPerms, MemBytes};
use crate::message::{Message, Payload};

/// A system call trapped to the MINIX kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Syscall {
    /// Blocking rendezvous send (`ipc_send`).
    Send {
        /// Destination endpoint (must be explicitly supplied — §III-A).
        dest: Endpoint,
        /// Message type, checked against the ACM.
        mtype: u32,
        /// 56-byte payload.
        payload: Payload,
    },
    /// Blocking receive (`ipc_receive`), optionally filtered to one source.
    Receive {
        /// `None` receives from any sender.
        from: Option<Endpoint>,
    },
    /// Atomic send-then-receive-reply (`ipc_sendrec`), the RPC primitive.
    SendRec {
        /// Destination endpoint.
        dest: Endpoint,
        /// Message type.
        mtype: u32,
        /// Payload.
        payload: Payload,
    },
    /// Non-blocking send: fails with `ENOTREADY` instead of blocking.
    NbSend {
        /// Destination endpoint.
        dest: Endpoint,
        /// Message type.
        mtype: u32,
        /// Payload.
        payload: Payload,
    },
    /// Asynchronous notification bit (`ipc_notify`). Carries no payload;
    /// subject to the ACM under [`crate::pm::NOTIFY_MTYPE`].
    Notify {
        /// Destination endpoint.
        dest: Endpoint,
    },
    /// Sleep for a duration of virtual time (CLOCK-task analog).
    Sleep {
        /// How long to sleep.
        duration: SimDuration,
    },
    /// Read the virtual clock.
    GetUptime,
    /// Query the caller's own endpoint, `ac_id` and uid.
    WhoAmI,
    /// Resolve a process name to its endpoint (DS-server analog).
    Lookup {
        /// The registered process name (borrowed when it is a
        /// well-known constant, so asking never allocates).
        name: Cow<'static, str>,
    },
    /// Read a device register (drivers only; gated by device ownership).
    DevRead {
        /// Target device.
        dev: DeviceId,
    },
    /// Write a device register (drivers only; gated by device ownership).
    DevWrite {
        /// Target device.
        dev: DeviceId,
        /// Value to write.
        value: i64,
    },
    /// Allocates a zeroed memory buffer (grants substrate, §III-A).
    MemCreate {
        /// Buffer size in bytes.
        size: usize,
    },
    /// Writes into one of the caller's own buffers.
    MemWrite {
        /// Target buffer.
        buf: BufId,
        /// Byte offset.
        offset: usize,
        /// Data to write, inline.
        data: MemBytes,
    },
    /// Reads from one of the caller's own buffers.
    MemRead {
        /// Source buffer.
        buf: BufId,
        /// Byte offset.
        offset: usize,
        /// Length to read.
        len: usize,
    },
    /// Creates a memory grant over a window of an owned buffer.
    GrantCreate {
        /// Buffer to expose.
        buf: BufId,
        /// Window start.
        offset: usize,
        /// Window length.
        len: usize,
        /// The sole endpoint allowed to use the grant.
        grantee: Endpoint,
        /// Permitted directions.
        perms: GrantPerms,
    },
    /// Revokes one of the caller's grants.
    GrantRevoke {
        /// The grant to revoke.
        grant: GrantId,
    },
    /// Grantee-side: copy out of a granter's granted window.
    SafeCopyFrom {
        /// The granting process.
        granter: Endpoint,
        /// The grant id (communicated by the granter, e.g. in a message).
        grant: GrantId,
        /// Offset within the window.
        offset: usize,
        /// Length to copy.
        len: usize,
    },
    /// Grantee-side: copy into a granter's granted window.
    SafeCopyTo {
        /// The granting process.
        granter: Endpoint,
        /// The grant id.
        grant: GrantId,
        /// Offset within the window.
        offset: usize,
        /// Data to copy in.
        data: Vec<u8>,
    },
}

impl Syscall {
    /// Convenience constructor for [`Syscall::Send`] with a byte-slice
    /// payload.
    pub fn send(dest: Endpoint, mtype: u32, payload: impl AsRef<[u8]>) -> Syscall {
        Syscall::Send {
            dest,
            mtype,
            payload: Payload::from_bytes(payload.as_ref()),
        }
    }

    /// Convenience constructor for [`Syscall::SendRec`].
    pub fn sendrec(dest: Endpoint, mtype: u32, payload: impl AsRef<[u8]>) -> Syscall {
        Syscall::SendRec {
            dest,
            mtype,
            payload: Payload::from_bytes(payload.as_ref()),
        }
    }

    /// Convenience constructor for [`Syscall::NbSend`].
    pub fn nb_send(dest: Endpoint, mtype: u32, payload: impl AsRef<[u8]>) -> Syscall {
        Syscall::NbSend {
            dest,
            mtype,
            payload: Payload::from_bytes(payload.as_ref()),
        }
    }
}

/// The kernel's reply to a system call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// The call completed.
    Ok,
    /// A message was delivered to the caller (`Receive`/`SendRec`).
    Msg(Message),
    /// The current virtual time (`GetUptime`).
    Uptime(SimTime),
    /// The caller's identity (`WhoAmI`).
    Ident {
        /// The caller's endpoint.
        endpoint: Endpoint,
        /// The caller's access-control identity.
        ac_id: AcId,
        /// The caller's uid.
        uid: u32,
    },
    /// A name-service result (`Lookup`).
    Resolved(Endpoint),
    /// A device register value (`DevRead`).
    DevValue(i64),
    /// A freshly created buffer (`MemCreate`).
    Buf(BufId),
    /// A freshly created grant (`GrantCreate`).
    Granted(GrantId),
    /// Bytes copied out (`MemRead`, `SafeCopyFrom`).
    Bytes(Vec<u8>),
    /// The call failed.
    Err(MinixError),
}

impl Reply {
    /// Extracts a delivered message, if this reply carries one.
    pub fn message(&self) -> Option<&Message> {
        match self {
            Reply::Msg(m) => Some(m),
            _ => None,
        }
    }

    /// Extracts the error, if this reply is one.
    pub fn err(&self) -> Option<MinixError> {
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
    fn constructors_build_expected_variants() {
        let ep = Endpoint::new(1, 0);
        match Syscall::send(ep, 3, [1u8, 2]) {
            Syscall::Send {
                dest,
                mtype,
                payload,
            } => {
                assert_eq!(dest, ep);
                assert_eq!(mtype, 3);
                assert_eq!(payload.as_bytes()[..2], [1, 2]);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(matches!(
            Syscall::sendrec(ep, 1, []),
            Syscall::SendRec { .. }
        ));
        assert!(matches!(
            Syscall::nb_send(ep, 1, []),
            Syscall::NbSend { .. }
        ));
    }

    #[test]
    fn reply_accessors() {
        let msg = Message::new(Endpoint::new(2, 0), 1, Payload::zeroed());
        assert_eq!(Reply::Msg(msg).message(), Some(&msg));
        assert_eq!(Reply::Ok.message(), None);
        assert_eq!(
            Reply::Err(MinixError::CallDenied).err(),
            Some(MinixError::CallDenied)
        );
        assert!(Reply::Ok.is_ok());
        assert!(!Reply::Err(MinixError::NotReady).is_ok());
    }
}
