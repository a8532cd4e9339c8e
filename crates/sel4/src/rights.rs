//! Capability access rights.
//!
//! §III-C: "read, write and grant are the three rights allowed, and they
//! can be used to regulate IPC communication. For instance, if a process
//! has a read-only capability to an endpoint, it can only receive messages
//! from that endpoint. The inverse is true for a write-only capability."

use std::fmt;

/// The rights attached to a capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CapRights {
    /// May receive from the object.
    pub read: bool,
    /// May send to the object.
    pub write: bool,
    /// May transfer capabilities through the object (and, via `seL4_Call`,
    /// receive a reply capability).
    pub grant: bool,
}

impl CapRights {
    /// No rights at all.
    pub const NONE: CapRights = CapRights {
        read: false,
        write: false,
        grant: false,
    };
    /// Read only.
    pub const READ: CapRights = CapRights {
        read: true,
        write: false,
        grant: false,
    };
    /// Write only.
    pub const WRITE: CapRights = CapRights {
        read: false,
        write: true,
        grant: false,
    };
    /// Read + write.
    pub const RW: CapRights = CapRights {
        read: true,
        write: true,
        grant: false,
    };
    /// Write + grant (the rights a CAmkES RPC client holds).
    pub const WRITE_GRANT: CapRights = CapRights {
        read: false,
        write: true,
        grant: true,
    };
    /// All rights.
    pub const ALL: CapRights = CapRights {
        read: true,
        write: true,
        grant: true,
    };

    /// True if `self` has every right `other` has (i.e. `other ⊆ self`).
    /// Capability derivation may only shrink rights.
    pub fn covers(self, other: CapRights) -> bool {
        (!other.read || self.read) && (!other.write || self.write) && (!other.grant || self.grant)
    }

    /// The first right of `needed` that `self` lacks, in read, write,
    /// grant order; `None` when `self` covers `needed`.
    pub fn missing(self, needed: CapRights) -> Option<Right> {
        [
            (needed.read && !self.read, Right::Read),
            (needed.write && !self.write, Right::Write),
            (needed.grant && !self.grant, Right::Grant),
        ]
        .into_iter()
        .find_map(|(lacks, right)| lacks.then_some(right))
    }

    /// The intersection of two rights sets.
    pub fn intersect(self, other: CapRights) -> CapRights {
        CapRights {
            read: self.read && other.read,
            write: self.write && other.write,
            grant: self.grant && other.grant,
        }
    }
}

/// One of the three rights, as a refusal names the one it lacked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Right {
    /// Receive from the object.
    Read,
    /// Send to the object.
    Write,
    /// Transfer capabilities through the object, or call it.
    Grant,
}

impl fmt::Display for Right {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Right::Read => "read",
            Right::Write => "write",
            Right::Grant => "grant",
        })
    }
}

impl fmt::Display for CapRights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.read { "R" } else { "-" },
            if self.write { "W" } else { "-" },
            if self.grant { "G" } else { "-" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_is_subset_check() {
        assert!(CapRights::ALL.covers(CapRights::RW));
        assert!(CapRights::RW.covers(CapRights::READ));
        assert!(!CapRights::READ.covers(CapRights::WRITE));
        assert!(CapRights::NONE.covers(CapRights::NONE));
        assert!(!CapRights::WRITE_GRANT.covers(CapRights::READ));
    }

    #[test]
    fn intersect_shrinks() {
        let i = CapRights::ALL.intersect(CapRights::WRITE_GRANT);
        assert_eq!(i, CapRights::WRITE_GRANT);
        assert_eq!(CapRights::READ.intersect(CapRights::WRITE), CapRights::NONE);
    }

    #[test]
    fn missing_names_the_first_lacking_right() {
        assert_eq!(CapRights::ALL.missing(CapRights::ALL), None);
        assert_eq!(CapRights::READ.missing(CapRights::NONE), None);
        assert_eq!(CapRights::READ.missing(CapRights::RW), Some(Right::Write));
        assert_eq!(
            CapRights::NONE.missing(CapRights::WRITE_GRANT),
            Some(Right::Write)
        );
        assert_eq!(
            CapRights::RW.missing(CapRights::WRITE_GRANT),
            Some(Right::Grant)
        );
        assert_eq!(CapRights::WRITE.missing(CapRights::READ), Some(Right::Read));
    }

    #[test]
    fn display_is_rwg_triple() {
        assert_eq!(format!("{}", CapRights::ALL), "RWG");
        assert_eq!(format!("{}", CapRights::READ), "R--");
        assert_eq!(format!("{}", CapRights::WRITE_GRANT), "-WG");
        assert_eq!(format!("{}", CapRights::NONE), "---");
    }
}
