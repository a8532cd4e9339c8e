//! Access-control identities and message types.

use std::fmt;

/// The access-control identifier the paper adds to the MINIX 3 process
/// control block.
///
/// From §III-B: "Process IDs can change, so we needed this ac_id to assist
/// building definitions of IPC policy. We use the added ac_id field to
/// uniquely identify each process and enforce the control policy." An
/// `AcId` is assigned once at process-load time (`fork2`/`srv_fork2`) and is
/// immutable thereafter; unlike a pid it survives restarts of the same
/// logical component.
///
/// ```
/// use bas_acm::id::AcId;
/// let sensor = AcId::new(100);
/// assert_eq!(sensor.as_u32(), 100);
/// assert_eq!(format!("{sensor}"), "ac100");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AcId(u32);

impl AcId {
    /// Creates an identity from its raw number.
    pub const fn new(raw: u32) -> Self {
        AcId(raw)
    }

    /// The raw number.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for AcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ac{}", self.0)
    }
}

/// A message type, the unit at which the ACM authorizes communication.
///
/// From §III-B: "The message type is a number indicating what type of
/// communication is allowed. The interpretation of message type is reserved
/// for the individual processes [...] In our experiment, we use the message
/// type field to represent different remote procedure calls."
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgType(u32);

impl MsgType {
    /// Type 0, reserved by convention for acknowledgments: "For all
    /// processes, message type 0 is reserved to indicate an acknowledgment
    /// to the caller."
    pub const ACK: MsgType = MsgType(0);

    /// Creates a message type from its raw number.
    pub const fn new(raw: u32) -> Self {
        MsgType(raw)
    }

    /// The raw number.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for MsgType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_is_type_zero() {
        assert_eq!(MsgType::ACK, MsgType::new(0));
        assert_eq!(MsgType::ACK.as_u32(), 0);
    }

    #[test]
    fn ids_are_ordered_and_displayable() {
        assert!(AcId::new(100) < AcId::new(102));
        assert_eq!(format!("{}", AcId::new(7)), "ac7");
        assert_eq!(format!("{}", MsgType::new(3)), "m3");
    }
}
