//! Credentials and discretionary access control.

use std::fmt;

/// A user id. Uid 0 is root and bypasses every DAC check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Uid(u32);

impl Uid {
    /// The superuser.
    pub const ROOT: Uid = Uid(0);

    /// Creates a uid.
    pub const fn new(raw: u32) -> Self {
        Uid(raw)
    }

    /// Raw value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// True for uid 0.
    pub const fn is_root(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uid{}", self.0)
    }
}

/// Unix-style permission bits (owner/group/other × rwx), octal as usual.
///
/// Only the read and write bits are consulted; group is treated like
/// "other" (the scenario runs every process in its own implicit group).
///
/// ```
/// use bas_linux::cred::{Mode, Uid};
///
/// let m = Mode::new(0o620); // owner rw, group w, other -
/// let owner = Uid::new(1000);
/// assert!(m.allows(owner, owner, true, true));
/// assert!(m.allows(Uid::new(1001), owner, false, true), "group write applies to others here");
/// assert!(!m.allows(Uid::new(1001), owner, true, false));
/// assert!(m.allows(Uid::ROOT, owner, true, true), "root bypasses DAC");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mode(u16);

impl Mode {
    /// Creates a mode from octal-style bits.
    pub const fn new(bits: u16) -> Self {
        Mode(bits)
    }

    /// The raw bits.
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// DAC check: may `who` access a node owned by `owner` with the
    /// requested read/write intents? Root always may. Equivalent to
    /// [`Mode::allows_with_group`] with no group.
    pub fn allows(self, who: Uid, owner: Uid, read: bool, write: bool) -> bool {
        self.allows_with_group(who, owner, None, read, write)
    }

    /// DAC check with a group uid: the middle permission triple applies to
    /// `group` (modeling one-member Unix groups, which is how the paper's
    /// "specifically configured" queues would separate a single writer
    /// from a single reader). Root always passes.
    pub fn allows_with_group(
        self,
        who: Uid,
        owner: Uid,
        group: Option<Uid>,
        read: bool,
        write: bool,
    ) -> bool {
        if who.is_root() {
            return true;
        }
        let (r_bit, w_bit) = if who == owner {
            (0o400, 0o200)
        } else if group == Some(who) {
            (0o040, 0o020)
        } else if group.is_some() {
            (0o004, 0o002)
        } else {
            // No group on the node: non-owners get the union of the group
            // and other triples (backward-compatible loose check).
            (0o044, 0o022)
        };
        (!read || self.0 & r_bit != 0) && (!write || self.0 & w_bit != 0)
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04o}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_bits_apply_to_owner() {
        let m = Mode::new(0o600);
        let owner = Uid::new(5);
        assert!(m.allows(owner, owner, true, true));
        assert!(!m.allows(Uid::new(6), owner, true, false));
        assert!(!m.allows(Uid::new(6), owner, false, true));
    }

    #[test]
    fn other_bits_apply_to_non_owner() {
        let m = Mode::new(0o604);
        let owner = Uid::new(5);
        assert!(m.allows(Uid::new(6), owner, true, false));
        assert!(!m.allows(Uid::new(6), owner, false, true));
    }

    #[test]
    fn root_bypasses_everything() {
        let m = Mode::new(0o000);
        assert!(m.allows(Uid::ROOT, Uid::new(5), true, true));
        assert!(Uid::ROOT.is_root());
        assert!(!Uid::new(1).is_root());
    }

    #[test]
    fn no_intent_always_allowed() {
        let m = Mode::new(0o000);
        assert!(m.allows(Uid::new(9), Uid::new(5), false, false));
    }

    #[test]
    fn group_triple_applies_to_group_uid_only() {
        // owner rw, group w, other nothing — the "specifically
        // configured" single-writer queue shape.
        let m = Mode::new(0o620);
        let owner = Uid::new(10);
        let group = Some(Uid::new(20));
        assert!(m.allows_with_group(owner, owner, group, true, true));
        assert!(m.allows_with_group(Uid::new(20), owner, group, false, true));
        assert!(!m.allows_with_group(Uid::new(20), owner, group, true, false));
        assert!(
            !m.allows_with_group(Uid::new(30), owner, group, false, true),
            "stranger denied"
        );
        assert!(
            m.allows_with_group(Uid::ROOT, owner, group, true, true),
            "root bypasses"
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Mode::new(0o644)), "0644");
        assert_eq!(format!("{}", Uid::new(7)), "uid7");
    }
}
