//! The result of an ACM check.

use std::fmt;

/// Why a message was denied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DenyReason {
    /// No matrix entry exists for the (sender, receiver) pair at all — the
    /// processes may not communicate in this direction.
    NoChannel,
    /// A channel exists, but the message type is not in the permitted set.
    TypeNotAllowed,
    /// A per-syscall quota was exhausted (the paper's future-work
    /// extension; see [`crate::quota`]).
    QuotaExhausted,
}

impl fmt::Display for DenyReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DenyReason::NoChannel => write!(f, "no channel between sender and receiver"),
            DenyReason::TypeNotAllowed => write!(f, "message type not permitted on channel"),
            DenyReason::QuotaExhausted => write!(f, "syscall quota exhausted"),
        }
    }
}

/// The kernel's verdict on one IPC operation.
///
/// A denied message is dropped by the kernel — from the paper: "if the
/// message type is 1 the message will be denied and the request will be
/// dropped instead."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// The transfer may proceed.
    Allow,
    /// The transfer is refused for the given reason.
    Deny(DenyReason),
}

impl Decision {
    /// True if the transfer may proceed.
    pub fn is_allowed(self) -> bool {
        matches!(self, Decision::Allow)
    }

    /// The denial reason, if denied.
    pub fn deny_reason(self) -> Option<DenyReason> {
        match self {
            Decision::Allow => None,
            Decision::Deny(r) => Some(r),
        }
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Allow => write!(f, "allow"),
            Decision::Deny(r) => write!(f, "deny ({r})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        assert!(Decision::Allow.is_allowed());
        assert!(!Decision::Deny(DenyReason::NoChannel).is_allowed());
        assert_eq!(Decision::Allow.deny_reason(), None);
        assert_eq!(
            Decision::Deny(DenyReason::TypeNotAllowed).deny_reason(),
            Some(DenyReason::TypeNotAllowed)
        );
    }

    #[test]
    fn display_mentions_reason() {
        let s = format!("{}", Decision::Deny(DenyReason::NoChannel));
        assert!(s.contains("deny"));
        assert!(s.contains("no channel"));
        assert_eq!(format!("{}", Decision::Allow), "allow");
    }
}
