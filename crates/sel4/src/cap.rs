//! Capabilities and capability pointers.

use std::fmt;

use bas_sim::process::Pid;

use crate::objects::ObjId;
use crate::rights::CapRights;

/// A capability pointer: the slot index of a capability in the invoking
/// thread's CSpace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CPtr(u32);

impl CPtr {
    /// Creates a capability pointer to the given slot.
    pub const fn new(slot: u32) -> Self {
        CPtr(slot)
    }

    /// The slot index.
    pub const fn slot(self) -> u32 {
        self.0
    }

    /// The slot index as usize.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cptr{}", self.0)
    }
}

/// What a capability designates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CapTarget {
    /// An ordinary kernel object.
    Object(ObjId),
    /// A one-shot reply capability to a thread blocked in `seL4_Call`.
    /// "This system call invokes the kernel to attach a one-time reply
    /// capability to the message."
    Reply(Pid),
}

/// A capability: an unforgeable token granting rights over a target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capability {
    /// What the capability designates.
    pub target: CapTarget,
    /// The rights it conveys.
    pub rights: CapRights,
    /// The badge: an immutable word stamped into messages sent through an
    /// endpoint capability, letting servers identify clients.
    pub badge: u64,
}

impl Capability {
    /// A capability to a kernel object.
    pub fn to_object(obj: ObjId, rights: CapRights, badge: u64) -> Self {
        Capability {
            target: CapTarget::Object(obj),
            rights,
            badge,
        }
    }

    /// A one-shot reply capability to `pid` (write + grant, as in seL4).
    pub fn reply_to(pid: Pid) -> Self {
        Capability {
            target: CapTarget::Reply(pid),
            rights: CapRights::WRITE_GRANT,
            badge: 0,
        }
    }

    /// The designated object, if this is an object capability.
    pub fn object(&self) -> Option<ObjId> {
        match self.target {
            CapTarget::Object(o) => Some(o),
            CapTarget::Reply(_) => None,
        }
    }

    /// Derives a copy with diminished rights and a (possibly new) badge —
    /// the `mint` operation. Rights may only shrink.
    ///
    /// # Errors
    ///
    /// Returns `None` if `rights` is not a subset of the source rights.
    pub fn mint(&self, rights: CapRights, badge: u64) -> Option<Capability> {
        if !self.rights.covers(rights) {
            return None;
        }
        Some(Capability {
            target: self.target,
            rights,
            badge,
        })
    }
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.target {
            CapTarget::Object(o) => write!(f, "cap({o}, {}, badge={})", self.rights, self.badge),
            CapTarget::Reply(p) => write!(f, "replycap({p})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_cannot_amplify_rights() {
        let c = Capability::to_object(ObjId::new(1), CapRights::WRITE, 0);
        assert!(c.mint(CapRights::WRITE, 5).is_some());
        assert!(c.mint(CapRights::NONE, 5).is_some());
        assert!(c.mint(CapRights::RW, 5).is_none(), "adding read must fail");
        assert!(
            c.mint(CapRights::WRITE_GRANT, 5).is_none(),
            "adding grant must fail"
        );
    }

    #[test]
    fn mint_rebadges() {
        let c = Capability::to_object(ObjId::new(1), CapRights::ALL, 1);
        let m = c.mint(CapRights::WRITE, 99).unwrap();
        assert_eq!(m.badge, 99);
        assert_eq!(m.target, c.target);
    }

    #[test]
    fn reply_cap_shape() {
        let r = Capability::reply_to(Pid::new(3));
        assert_eq!(r.object(), None);
        assert_eq!(r.rights, CapRights::WRITE_GRANT);
        assert!(format!("{r}").contains("replycap"));
    }

    #[test]
    fn object_accessor() {
        let c = Capability::to_object(ObjId::new(4), CapRights::READ, 0);
        assert_eq!(c.object(), Some(ObjId::new(4)));
        assert!(format!("{c}").contains("obj4"));
    }
}
