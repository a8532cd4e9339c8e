//! The permission lattice the capability-flow analysis runs over.
//!
//! A capability's authority is a pair: a bitmask of *operations* (send,
//! receive, device read/write, kill, fork, grant) and a bitmap of
//! *message types* it may carry (meaningful only for send authority).
//! Both components are powerset lattices, so the product [`Perms`] is a
//! finite lattice under componentwise ⊆, with `meet` = intersection and
//! `join` = union. Derivation legality is exactly the partial order:
//! a derived capability is well-formed iff its rights ⊑ its source's
//! effective rights.

use std::fmt;

use bas_sel4::rights::CapRights;

use crate::ir::Operation;

/// Operation bits of the lattice.
pub mod op {
    /// Send a message toward the object.
    pub const SEND: u8 = 1 << 0;
    /// Receive from the object.
    pub const RECV: u8 = 1 << 1;
    /// Write the object's device registers.
    pub const DEV_WRITE: u8 = 1 << 2;
    /// Read the object's device registers.
    pub const DEV_READ: u8 = 1 << 3;
    /// Terminate the target.
    pub const KILL: u8 = 1 << 4;
    /// Create processes from the backing resource.
    pub const FORK: u8 = 1 << 5;
    /// Mint further capabilities from this one.
    pub const GRANT: u8 = 1 << 6;
}

/// One point of the permission lattice: `(operations, message types)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Perms {
    /// Operation bitmask (see [`op`]).
    pub ops: u8,
    /// Message-type bitmap carried by send authority (`u64::MAX` = all).
    pub types: u64,
}

impl Perms {
    /// The lattice bottom.
    pub const NONE: Perms = Perms { ops: 0, types: 0 };

    /// Non-message authority (device, kill, fork): no type bits.
    pub fn of(ops: u8) -> Perms {
        Perms { ops, types: 0 }
    }

    /// Message authority over a set of types.
    pub fn sending(ops: u8, types: u64) -> Perms {
        Perms { ops, types }
    }

    /// The partial order: `self` ⊑ `other` (componentwise subset).
    pub fn le(self, other: Perms) -> bool {
        self.ops & !other.ops == 0 && self.types & !other.types == 0
    }

    /// Greatest lower bound (intersection).
    pub fn meet(self, other: Perms) -> Perms {
        Perms {
            ops: self.ops & other.ops,
            types: self.types & other.types,
        }
    }

    /// Least upper bound (union).
    pub fn join(self, other: Perms) -> Perms {
        Perms {
            ops: self.ops | other.ops,
            types: self.types | other.types,
        }
    }

    /// True if the given operation bit is present.
    pub fn allows(self, bit: u8) -> bool {
        self.ops & bit != 0
    }

    /// Lifts a seL4 rights triple onto the lattice: read = receive,
    /// write = send (over `types`), grant = mint authority.
    pub fn from_cap_rights(r: CapRights, types: u64) -> Perms {
        let mut ops = 0u8;
        if r.read {
            ops |= op::RECV;
        }
        if r.write {
            ops |= op::SEND;
        }
        if r.grant {
            ops |= op::GRANT;
        }
        Perms {
            ops,
            types: if r.write { types } else { 0 },
        }
    }

    /// The lattice bit of an IR channel operation (`GetPid`/`Exit`
    /// carry no capability authority and map to bottom).
    pub fn op_bit(o: Operation) -> u8 {
        match o {
            Operation::Send => op::SEND,
            Operation::Receive => op::RECV,
            Operation::DevWrite => op::DEV_WRITE,
            Operation::DevRead => op::DEV_READ,
            Operation::Kill => op::KILL,
            Operation::Fork => op::FORK,
            Operation::GetPid | Operation::Exit => 0,
        }
    }
}

impl fmt::Display for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const LETTERS: [(u8, char); 7] = [
            (op::SEND, 'S'),
            (op::RECV, 'R'),
            (op::DEV_WRITE, 'W'),
            (op::DEV_READ, 'r'),
            (op::KILL, 'K'),
            (op::FORK, 'F'),
            (op::GRANT, 'G'),
        ];
        if self.ops == 0 {
            f.write_str("-")?;
        } else {
            for (bit, c) in LETTERS {
                if self.ops & bit != 0 {
                    write!(f, "{c}")?;
                }
            }
        }
        if self.ops & op::SEND != 0 {
            if self.types == u64::MAX {
                write!(f, "/t:*")?;
            } else {
                write!(f, "/t:{:#x}", self.types)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_order_is_componentwise() {
        let a = Perms::sending(op::SEND, 0b0110);
        let b = Perms::sending(op::SEND | op::GRANT, 0b1110);
        assert!(a.le(b));
        assert!(!b.le(a));
        assert!(Perms::NONE.le(a));
        // Same ops, incomparable types.
        let c = Perms::sending(op::SEND, 0b0001);
        assert!(!c.le(a));
        assert!(!a.le(c));
    }

    #[test]
    fn meet_and_join_are_bounds() {
        let a = Perms::sending(op::SEND | op::RECV, 0b0110);
        let b = Perms::sending(op::SEND | op::KILL, 0b0011);
        let m = a.meet(b);
        let j = a.join(b);
        assert!(m.le(a) && m.le(b));
        assert!(a.le(j) && b.le(j));
        assert_eq!(m, Perms::sending(op::SEND, 0b0010));
        assert_eq!(j, Perms::sending(op::SEND | op::RECV | op::KILL, 0b0111));
    }

    #[test]
    fn cap_rights_lift_matches_sel4_semantics() {
        let p = Perms::from_cap_rights(CapRights::WRITE_GRANT, 0b1010);
        assert_eq!(p.ops, op::SEND | op::GRANT);
        assert_eq!(p.types, 0b1010);
        // A read-only cap carries no send types.
        let r = Perms::from_cap_rights(CapRights::READ, 0b1010);
        assert_eq!(r.ops, op::RECV);
        assert_eq!(r.types, 0);
    }

    #[test]
    fn display_is_compact_and_total() {
        assert_eq!(Perms::NONE.to_string(), "-");
        assert_eq!(Perms::of(op::DEV_WRITE | op::KILL).to_string(), "WK");
        assert_eq!(Perms::sending(op::SEND, u64::MAX).to_string(), "S/t:*");
        assert_eq!(Perms::sending(op::SEND, 0x12).to_string(), "S/t:0x12");
    }
}
