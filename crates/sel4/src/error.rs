//! seL4-style error codes.

use std::fmt;

/// Errors returned by the simulated seL4 kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sel4Error {
    /// The capability pointer names an empty or out-of-range slot. The
    /// kernel deliberately does not distinguish the two cases, so probing
    /// leaks nothing about CSpace layout.
    InvalidCapability,
    /// The capability exists but lacks the required right.
    InsufficientRights,
    /// The capability designates an object of the wrong type for this
    /// invocation.
    WrongObjectType,
    /// Non-blocking send found no waiting receiver.
    NotReady,
    /// `seL4_Reply` invoked with no reply capability present.
    NoReplyCap,
    /// No free CSpace slot to receive a transferred capability.
    NoFreeSlot,
    /// Bootstrap-time: explicit slot already occupied.
    SlotOccupied,
    /// Rights amplification attempted during mint/transfer.
    RightsViolation,
    /// The kernel's object or thread table is exhausted.
    OutOfMemory,
}

impl fmt::Display for Sel4Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Sel4Error::InvalidCapability => "invalid capability",
            Sel4Error::InsufficientRights => "insufficient rights",
            Sel4Error::WrongObjectType => "wrong object type",
            Sel4Error::NotReady => "no receiver ready",
            Sel4Error::NoReplyCap => "no reply capability",
            Sel4Error::NoFreeSlot => "no free cspace slot",
            Sel4Error::SlotOccupied => "cspace slot occupied",
            Sel4Error::RightsViolation => "rights may only be diminished",
            Sel4Error::OutOfMemory => "kernel object memory exhausted",
        };
        f.write_str(s)
    }
}

impl std::error::Error for Sel4Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let all = [
            Sel4Error::InvalidCapability,
            Sel4Error::InsufficientRights,
            Sel4Error::WrongObjectType,
            Sel4Error::NotReady,
            Sel4Error::NoReplyCap,
            Sel4Error::NoFreeSlot,
            Sel4Error::SlotOccupied,
            Sel4Error::RightsViolation,
            Sel4Error::OutOfMemory,
        ];
        for e in all {
            let s = format!("{e}");
            assert!(!s.is_empty());
            assert_eq!(s, s.to_lowercase());
        }
    }
}
