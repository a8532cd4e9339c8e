//! Evidence collection: classifying kernel replies to attack syscalls.
//!
//! The harness never trusts the attacker's own claims; the attacker
//! process records the raw kernel replies, and this module classifies
//! them into successes (the kernel did what the attacker asked), denials
//! (an access-control mechanism refused), and neutral errors.

use std::cell::RefCell;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

/// Counters accumulated by an attacker process.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackEvidence {
    /// Counted attack operations issued.
    pub attempts: u64,
    /// Operations the kernel performed as asked.
    pub successes: u64,
    /// Operations refused by an access-control mechanism (ACM,
    /// capabilities, DAC, PM policy, application validation).
    pub denials: u64,
    /// Other failures (dead peers, not-ready, malformed).
    pub errors: u64,
    /// Handles/capabilities discovered during enumeration attacks.
    pub handles_found: u64,
    /// Free-form notes from the attacker.
    pub notes: Vec<String>,
}

/// Shared evidence handle between the harness and the attacker process.
pub type EvidenceLog = Rc<RefCell<AttackEvidence>>;

/// Creates an empty evidence log.
pub fn new_evidence() -> EvidenceLog {
    Rc::new(RefCell::new(AttackEvidence::default()))
}

/// How a single classified reply counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The operation worked.
    Success,
    /// Access control refused it.
    Denial,
    /// Neutral failure.
    Error,
    /// Not evidence (pacing syscalls, lookups).
    Ignore,
}

impl AttackEvidence {
    /// Applies one classified reply.
    pub fn record(&mut self, class: Class) {
        match class {
            Class::Success => {
                self.attempts += 1;
                self.successes += 1;
            }
            Class::Denial => {
                self.attempts += 1;
                self.denials += 1;
            }
            Class::Error => {
                self.attempts += 1;
                self.errors += 1;
            }
            Class::Ignore => {}
        }
    }
}

/// Classifies a MINIX reply to a *counted* attack syscall.
pub fn classify_minix(reply: &bas_minix::syscall::Reply) -> Class {
    use bas_minix::error::MinixError;
    use bas_minix::pm;
    use bas_minix::syscall::Reply;
    match reply {
        Reply::Ok
        | Reply::DevValue(_)
        | Reply::Uptime(_)
        | Reply::Ident { .. }
        | Reply::Buf(_)
        | Reply::Granted(_)
        | Reply::Bytes(_) => Class::Success,
        Reply::Resolved(_) => Class::Ignore,
        Reply::Msg(m) => {
            if m.source == pm::PM_ENDPOINT {
                // PM reply: PM_ERR payloads are policy denials or errors.
                if m.mtype == pm::PM_ERR {
                    match pm::decode_err(&m.payload) {
                        Some(MinixError::PermissionDenied)
                        | Some(MinixError::CallDenied)
                        | Some(MinixError::QuotaExceeded) => Class::Denial,
                        _ => Class::Error,
                    }
                } else {
                    Class::Success
                }
            } else if m.mtype == 0 {
                // Application ack: nonzero code = validation rejected it.
                if m.payload.read_u32(0) == 0 && m.payload.read_u32(4) == 0 {
                    Class::Success
                } else {
                    Class::Denial
                }
            } else {
                Class::Success
            }
        }
        Reply::Err(e) => match e {
            MinixError::CallDenied
            | MinixError::PermissionDenied
            | MinixError::DeviceAccessDenied
            | MinixError::QuotaExceeded => Class::Denial,
            _ => Class::Error,
        },
    }
}

/// Classifies an seL4 reply to a counted attack syscall.
pub fn classify_sel4(reply: &bas_sel4::syscall::Reply) -> Class {
    use bas_sel4::error::Sel4Error;
    use bas_sel4::syscall::Reply;
    match reply {
        Reply::Ok | Reply::Slot(_) | Reply::DevValue(_) | Reply::Time(_) => Class::Success,
        Reply::Identified(_) => Class::Success, // a cap was found in the probed slot
        Reply::Msg(m) => {
            // RPC replies: servers answer label 0 for accepted requests,
            // nonzero for rejected ones (badge/validation failures).
            if m.label == 0 {
                Class::Success
            } else {
                Class::Denial
            }
        }
        Reply::Err(e) => match e {
            Sel4Error::InvalidCapability
            | Sel4Error::InsufficientRights
            | Sel4Error::RightsViolation => Class::Denial,
            _ => Class::Error,
        },
    }
}

/// Classifies a Linux reply to a counted attack syscall.
pub fn classify_linux(reply: &bas_linux::syscall::Reply) -> Class {
    use bas_linux::error::LinuxError;
    use bas_linux::syscall::Reply;
    match reply {
        Reply::Data { data, .. } => {
            // Application-level acks ride inside the bytes; a nonzero ack
            // code means validation rejected the request.
            match bas_core::proto::BasMsg::from_bytes(data) {
                Ok(bas_core::proto::BasMsg::Ack { code }) if code != 0 => Class::Denial,
                _ => Class::Success,
            }
        }
        Reply::Ok
        | Reply::Qd(_)
        | Reply::Pid(_)
        | Reply::Uid(_)
        | Reply::Time(_)
        | Reply::DevValue(_) => Class::Success,
        Reply::Err(e) => match e {
            LinuxError::AccessDenied | LinuxError::NotPermitted => Class::Denial,
            _ => Class::Error,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_updates_counters() {
        let mut e = AttackEvidence::default();
        e.record(Class::Success);
        e.record(Class::Denial);
        e.record(Class::Denial);
        e.record(Class::Error);
        e.record(Class::Ignore);
        assert_eq!(e.attempts, 4);
        assert_eq!(e.successes, 1);
        assert_eq!(e.denials, 2);
        assert_eq!(e.errors, 1);
    }

    #[test]
    fn minix_classification() {
        use bas_minix::error::MinixError;
        use bas_minix::syscall::Reply;
        assert_eq!(classify_minix(&Reply::Ok), Class::Success);
        assert_eq!(
            classify_minix(&Reply::Err(MinixError::CallDenied)),
            Class::Denial
        );
        assert_eq!(
            classify_minix(&Reply::Err(MinixError::NotReady)),
            Class::Error
        );
        assert_eq!(
            classify_minix(&Reply::Err(MinixError::DeadSourceOrDestination)),
            Class::Error
        );
    }

    #[test]
    fn minix_pm_error_payload_is_denial() {
        use bas_minix::message::Message;
        use bas_minix::pm;
        use bas_minix::syscall::Reply;
        let denied = Message::new(
            pm::PM_ENDPOINT,
            pm::PM_ERR,
            pm::encode_err(bas_minix::error::MinixError::PermissionDenied),
        );
        assert_eq!(classify_minix(&Reply::Msg(denied)), Class::Denial);
        let ok = Message::new(
            pm::PM_ENDPOINT,
            pm::PM_OK,
            bas_minix::message::Payload::zeroed(),
        );
        assert_eq!(classify_minix(&Reply::Msg(ok)), Class::Success);
    }

    #[test]
    fn minix_app_ack_codes() {
        use bas_core::proto::BasMsg;
        use bas_minix::message::Message;
        use bas_minix::syscall::Reply;
        let src = bas_minix::endpoint::Endpoint::new(2, 0);
        let (t, p) = BasMsg::Ack { code: 0 }.to_minix();
        assert_eq!(
            classify_minix(&Reply::Msg(Message::new(src, t, p))),
            Class::Success
        );
        let (t, p) = BasMsg::Ack { code: 1 }.to_minix();
        assert_eq!(
            classify_minix(&Reply::Msg(Message::new(src, t, p))),
            Class::Denial
        );
    }

    #[test]
    fn sel4_classification() {
        use bas_sel4::error::Sel4Error;
        use bas_sel4::message::DeliveredMessage;
        use bas_sel4::syscall::Reply;
        assert_eq!(
            classify_sel4(&Reply::Err(Sel4Error::InvalidCapability)),
            Class::Denial
        );
        assert_eq!(
            classify_sel4(&Reply::Err(Sel4Error::NotReady)),
            Class::Error
        );
        let accepted = DeliveredMessage {
            badge: 0,
            label: 0,
            words: Default::default(),
            received_caps: vec![],
            reply_expected: false,
        };
        assert_eq!(classify_sel4(&Reply::Msg(accepted.clone())), Class::Success);
        let rejected = DeliveredMessage {
            label: 1,
            ..accepted
        };
        assert_eq!(classify_sel4(&Reply::Msg(rejected)), Class::Denial);
    }

    #[test]
    fn linux_classification() {
        use bas_linux::error::LinuxError;
        use bas_linux::syscall::Reply;
        assert_eq!(classify_linux(&Reply::Ok), Class::Success);
        assert_eq!(
            classify_linux(&Reply::Err(LinuxError::AccessDenied)),
            Class::Denial
        );
        assert_eq!(
            classify_linux(&Reply::Err(LinuxError::NotPermitted)),
            Class::Denial
        );
        assert_eq!(
            classify_linux(&Reply::Err(LinuxError::WouldBlock)),
            Class::Error
        );
    }
}
