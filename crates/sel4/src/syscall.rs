//! The seL4 system-call interface.
//!
//! §III-C: "The pair seL4_Send and seL4_Recv will send and receive
//! messages, but they will block if no other process is ready [...]
//! seL4_NBSend and seL4_NBRecv are non-blocking variants [...] If a thread
//! is given grant access to an endpoint it can use seL4_Call [...] The
//! receiving thread of a message with a reply capability can use
//! seL4_Reply to send a reply message."

use bas_sim::time::{SimDuration, SimTime};

use crate::cap::CPtr;
use crate::error::Sel4Error;
use crate::message::{DeliveredMessage, IpcMessage};
use crate::objects::ObjKind;

/// Object kinds creatable from untyped memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetypeKind {
    /// An IPC endpoint (16 modeled bytes).
    Endpoint,
    /// A notification object (16 modeled bytes).
    Notification,
}

impl RetypeKind {
    /// Modeled size charged against the untyped region.
    pub const fn size_bytes(self) -> usize {
        16
    }
}

/// A system call trapped to the seL4 kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Syscall {
    /// `seL4_Send`: blocking send through an endpoint capability.
    Send {
        /// Endpoint capability (needs `write`).
        ep: CPtr,
        /// The message.
        msg: IpcMessage,
    },
    /// `seL4_NBSend`: non-blocking send; silently *dropped* by real seL4
    /// when nobody is waiting — the model returns [`Sel4Error::NotReady`]
    /// so tests can observe the distinction, but no rendezvous occurs.
    NBSend {
        /// Endpoint capability (needs `write`).
        ep: CPtr,
        /// The message.
        msg: IpcMessage,
    },
    /// `seL4_Recv`: blocking receive through an endpoint capability
    /// (needs `read`).
    Recv {
        /// Endpoint capability.
        ep: CPtr,
    },
    /// `seL4_NBRecv`: non-blocking receive.
    NBRecv {
        /// Endpoint capability.
        ep: CPtr,
    },
    /// `seL4_Call`: atomic send + attach one-shot reply capability +
    /// await reply. Needs `write` and `grant`.
    Call {
        /// Endpoint capability.
        ep: CPtr,
        /// The request message.
        msg: IpcMessage,
    },
    /// `seL4_Reply`: consume the implicit reply capability and answer the
    /// last `Call` received.
    Reply {
        /// The reply message.
        msg: IpcMessage,
    },
    /// `seL4_Signal` on a notification capability (needs `write`).
    Signal {
        /// Notification capability.
        ntfn: CPtr,
    },
    /// `seL4_Wait` on a notification capability (needs `read`).
    Wait {
        /// Notification capability.
        ntfn: CPtr,
    },
    /// `seL4_CNode_Mint`-style derivation: copy the capability at `src`
    /// into a free slot with diminished rights and a new badge.
    Mint {
        /// Source slot in the caller's own CSpace.
        src: CPtr,
        /// Rights for the derived capability (must be a subset).
        rights: crate::rights::CapRights,
        /// New badge.
        badge: u64,
    },
    /// `seL4_CNode_Delete`: clear one of the caller's own slots.
    Delete {
        /// Slot to clear.
        slot: CPtr,
    },
    /// Probe a slot: returns the object kind if a capability is present.
    /// (Models `seL4_CNode` introspection; the §IV-D.3 brute-force program
    /// uses this plus invocation attempts.)
    Identify {
        /// Slot to probe.
        slot: CPtr,
    },
    /// `seL4_TCB_Suspend`: stop a thread. Needs a TCB capability with
    /// `write` — the reason the compromised web interface "never could
    /// [...] kill any other processes".
    TcbSuspend {
        /// TCB capability.
        tcb: CPtr,
    },
    /// Sleep on the timer driver (the paper's seL4 system adds timer
    /// driver processes; the model folds them into a kernel timer).
    Sleep {
        /// How long to sleep.
        duration: SimDuration,
    },
    /// Read the virtual clock.
    GetTime,
    /// Read a device register through a device capability (needs `read`).
    DevRead {
        /// Device capability.
        dev: CPtr,
    },
    /// Write a device register through a device capability (needs
    /// `write`).
    DevWrite {
        /// Device capability.
        dev: CPtr,
        /// The value to write.
        value: i64,
    },
    /// `seL4_Untyped_Retype`: carve a new kernel object out of an untyped
    /// region the caller holds a (write) capability to. The caller
    /// receives a full-rights capability to the new object.
    Retype {
        /// Untyped capability.
        untyped: CPtr,
        /// What to create.
        kind: RetypeKind,
    },
}

/// The kernel's reply to a system call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Completed without data.
    Ok,
    /// A message was delivered.
    Msg(DeliveredMessage),
    /// A capability slot was allocated (mint).
    Slot(CPtr),
    /// Probe result: the object kind behind a slot, or `None` for a reply
    /// capability.
    Identified(Option<ObjKind>),
    /// Current virtual time.
    Time(SimTime),
    /// Device register value.
    DevValue(i64),
    /// The call failed.
    Err(Sel4Error),
}

impl Reply {
    /// Extracts the delivered message, if any.
    pub fn message(&self) -> Option<&DeliveredMessage> {
        match self {
            Reply::Msg(m) => Some(m),
            _ => None,
        }
    }

    /// Extracts the error, if this is one.
    pub fn err(&self) -> Option<Sel4Error> {
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

    use bas_sim::inline::MsgWords;

    #[test]
    fn reply_accessors() {
        assert!(Reply::Ok.is_ok());
        assert!(!Reply::Err(Sel4Error::NotReady).is_ok());
        assert_eq!(
            Reply::Err(Sel4Error::NoReplyCap).err(),
            Some(Sel4Error::NoReplyCap)
        );
        assert_eq!(Reply::Ok.message(), None);
        let m = DeliveredMessage {
            badge: 1,
            label: 2,
            words: MsgWords::new(),
            received_caps: vec![],
            reply_expected: false,
        };
        assert_eq!(Reply::Msg(m.clone()).message(), Some(&m));
    }
}
