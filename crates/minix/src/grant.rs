//! Memory grants (MINIX `SAFECOPY` analogue).
//!
//! §III-A: "MINIX 3 IPC directly supports synchronous and asynchronous
//! message passing, and memory grants." A grant is a granter-created
//! window onto one of its own memory buffers, extended to exactly one
//! grantee endpoint with read and/or write permission; the kernel checks
//! the grantee's *kernel-held identity* on every safe-copy, so grants are
//! unforgeable and individually revocable — the same design pressure as
//! the ACM, applied to bulk data.
//!
//! This module holds the data model; the syscalls (`MemCreate`,
//! `GrantCreate`, `SafeCopyFrom`, `SafeCopyTo`, `GrantRevoke`) are wired
//! in [`crate::kernel`].

use serde::{Deserialize, Serialize};

use crate::endpoint::Endpoint;

/// Identifies a memory buffer within its owning process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BufId(pub u32);

/// Identifies a grant within its granting process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GrantId(pub u32);

/// Grant permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GrantPerms {
    /// Grantee may copy out of the window.
    pub read: bool,
    /// Grantee may copy into the window.
    pub write: bool,
}

impl GrantPerms {
    /// Read-only grant.
    pub const READ: GrantPerms = GrantPerms {
        read: true,
        write: false,
    };
    /// Write-only grant.
    pub const WRITE: GrantPerms = GrantPerms {
        read: false,
        write: true,
    };
    /// Read-write grant.
    pub const RW: GrantPerms = GrantPerms {
        read: true,
        write: true,
    };
}

/// One grant: a window onto a buffer, for one grantee.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Grant {
    /// The granter's buffer being exposed.
    pub buf: BufId,
    /// Window start within the buffer.
    pub offset: usize,
    /// Window length.
    pub len: usize,
    /// The only endpoint allowed to use the grant. Endpoint generations
    /// make this temporally precise: a restarted grantee cannot reuse its
    /// predecessor's grants.
    pub grantee: Endpoint,
    /// Permitted directions.
    pub perms: GrantPerms,
}

/// Most bytes one [`crate::syscall::Syscall::MemWrite`] carries: a
/// message payload's worth.
pub const MEM_WRITE_MAX: usize = crate::message::PAYLOAD_LEN;

/// The bytes of one [`crate::syscall::Syscall::MemWrite`], held inline
/// (up to [`MEM_WRITE_MAX`]) so writing a record into a buffer never
/// allocates. Reads as a byte slice. A one-byte length keeps `Syscall`
/// at the size of its payload-carrying sends.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct MemBytes {
    len: u8,
    bytes: [u8; MEM_WRITE_MAX],
}

impl MemBytes {
    /// No bytes.
    pub const EMPTY: MemBytes = MemBytes {
        len: 0,
        bytes: [0; MEM_WRITE_MAX],
    };

    /// A copy of `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than [`MEM_WRITE_MAX`].
    pub fn new(bytes: &[u8]) -> MemBytes {
        let mut m = MemBytes::EMPTY;
        m.extend_from_slice(bytes);
        m
    }

    /// Appends `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the total would exceed [`MEM_WRITE_MAX`].
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        let start = usize::from(self.len);
        let end = start + bytes.len();
        assert!(end <= MEM_WRITE_MAX, "memory write too large: {end}");
        self.bytes[start..end].copy_from_slice(bytes);
        self.len = end as u8;
    }
}

impl<const M: usize> From<[u8; M]> for MemBytes {
    /// The bytes of a fixed-size record: one copy of a known length.
    fn from(record: [u8; M]) -> MemBytes {
        const { assert!(M <= MEM_WRITE_MAX, "memory write too large") };
        let mut m = MemBytes::EMPTY;
        m.bytes[..M].copy_from_slice(&record);
        m.len = M as u8;
        m
    }
}

impl std::ops::Deref for MemBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

impl std::fmt::Debug for MemBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MemBytes({:02x?})", &**self)
    }
}

/// Per-process memory state: owned buffers plus outstanding grants.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryTable {
    buffers: Vec<Option<Vec<u8>>>,
    grants: Vec<Option<Grant>>,
}

/// Why a grant operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GrantError {
    /// The named buffer does not exist.
    NoSuchBuffer,
    /// The named grant does not exist (or was revoked).
    NoSuchGrant,
    /// The caller is not the grantee of this grant.
    NotGrantee,
    /// The direction is not permitted by the grant.
    PermissionDenied,
    /// The requested range leaves the granted window.
    OutOfBounds,
}

impl std::fmt::Display for GrantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            GrantError::NoSuchBuffer => "no such buffer",
            GrantError::NoSuchGrant => "no such grant",
            GrantError::NotGrantee => "caller is not the grantee",
            GrantError::PermissionDenied => "direction not permitted by grant",
            GrantError::OutOfBounds => "range outside the granted window",
        };
        f.write_str(s)
    }
}

impl std::error::Error for GrantError {}

impl MemoryTable {
    /// Allocates a zeroed buffer of `size` bytes.
    pub fn create_buffer(&mut self, size: usize) -> BufId {
        self.create_buffer_in(Vec::new(), size)
    }

    /// Creates a zeroed buffer of `size` bytes in `bytes`' allocation,
    /// such as one a dead process left behind
    /// ([`MemoryTable::into_buffers`]).
    pub fn create_buffer_in(&mut self, mut bytes: Vec<u8>, size: usize) -> BufId {
        let id = BufId(self.buffers.len() as u32);
        bytes.clear();
        bytes.resize(size, 0);
        self.buffers.push(Some(bytes));
        id
    }

    /// The allocations of every owned buffer, for a later process's
    /// [`MemoryTable::create_buffer_in`].
    pub fn into_buffers(self) -> impl Iterator<Item = Vec<u8>> {
        self.buffers.into_iter().flatten()
    }

    /// Writes `data` into one of the *owner's own* buffers.
    ///
    /// # Errors
    ///
    /// Returns [`GrantError::NoSuchBuffer`] or [`GrantError::OutOfBounds`].
    pub fn write_own(&mut self, buf: BufId, offset: usize, data: &[u8]) -> Result<(), GrantError> {
        let b = self
            .buffers
            .get_mut(buf.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(GrantError::NoSuchBuffer)?;
        let end = offset
            .checked_add(data.len())
            .ok_or(GrantError::OutOfBounds)?;
        if end > b.len() {
            return Err(GrantError::OutOfBounds);
        }
        b[offset..end].copy_from_slice(data);
        Ok(())
    }

    /// Reads from one of the owner's own buffers.
    ///
    /// # Errors
    ///
    /// Returns [`GrantError::NoSuchBuffer`] or [`GrantError::OutOfBounds`].
    pub fn read_own(&self, buf: BufId, offset: usize, len: usize) -> Result<Vec<u8>, GrantError> {
        let b = self
            .buffers
            .get(buf.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(GrantError::NoSuchBuffer)?;
        let end = offset.checked_add(len).ok_or(GrantError::OutOfBounds)?;
        if end > b.len() {
            return Err(GrantError::OutOfBounds);
        }
        Ok(b[offset..end].to_vec())
    }

    /// Creates a grant over a window of an owned buffer.
    ///
    /// # Errors
    ///
    /// Returns [`GrantError::NoSuchBuffer`] or [`GrantError::OutOfBounds`].
    pub fn create_grant(
        &mut self,
        buf: BufId,
        offset: usize,
        len: usize,
        grantee: Endpoint,
        perms: GrantPerms,
    ) -> Result<GrantId, GrantError> {
        let b = self
            .buffers
            .get(buf.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(GrantError::NoSuchBuffer)?;
        let end = offset.checked_add(len).ok_or(GrantError::OutOfBounds)?;
        if end > b.len() {
            return Err(GrantError::OutOfBounds);
        }
        let id = GrantId(self.grants.len() as u32);
        self.grants.push(Some(Grant {
            buf,
            offset,
            len,
            grantee,
            perms,
        }));
        Ok(id)
    }

    /// Revokes a grant. Idempotent errors: revoking twice reports
    /// [`GrantError::NoSuchGrant`].
    ///
    /// # Errors
    ///
    /// Returns [`GrantError::NoSuchGrant`] if the grant does not exist.
    pub fn revoke(&mut self, grant: GrantId) -> Result<(), GrantError> {
        let slot = self
            .grants
            .get_mut(grant.0 as usize)
            .ok_or(GrantError::NoSuchGrant)?;
        if slot.take().is_none() {
            return Err(GrantError::NoSuchGrant);
        }
        Ok(())
    }

    /// Validates a grantee's access and resolves the effective buffer
    /// range. `caller` is the kernel-held endpoint of the process
    /// performing the safe-copy.
    ///
    /// # Errors
    ///
    /// Every [`GrantError`] variant can occur.
    fn resolve(
        &self,
        grant: GrantId,
        caller: Endpoint,
        want_read: bool,
        offset: usize,
        len: usize,
    ) -> Result<(BufId, usize), GrantError> {
        let g = self
            .grants
            .get(grant.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(GrantError::NoSuchGrant)?;
        if g.grantee != caller {
            return Err(GrantError::NotGrantee);
        }
        if want_read && !g.perms.read {
            return Err(GrantError::PermissionDenied);
        }
        if !want_read && !g.perms.write {
            return Err(GrantError::PermissionDenied);
        }
        let end = offset.checked_add(len).ok_or(GrantError::OutOfBounds)?;
        if end > g.len {
            return Err(GrantError::OutOfBounds);
        }
        Ok((g.buf, g.offset + offset))
    }

    /// Safe-copy out of the granted window (grantee reads granter
    /// memory).
    ///
    /// # Errors
    ///
    /// See [`GrantError`].
    pub fn safe_copy_from(
        &self,
        grant: GrantId,
        caller: Endpoint,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, GrantError> {
        let (buf, abs) = self.resolve(grant, caller, true, offset, len)?;
        self.read_own(buf, abs, len)
    }

    /// Safe-copy into the granted window (grantee writes granter
    /// memory).
    ///
    /// # Errors
    ///
    /// See [`GrantError`].
    pub fn safe_copy_to(
        &mut self,
        grant: GrantId,
        caller: Endpoint,
        offset: usize,
        data: &[u8],
    ) -> Result<(), GrantError> {
        let (buf, abs) = self.resolve(grant, caller, false, offset, data.len())?;
        self.write_own(buf, abs, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(slot: u16) -> Endpoint {
        Endpoint::new(slot, 0)
    }

    fn table_with_grant(perms: GrantPerms) -> (MemoryTable, BufId, GrantId) {
        let mut t = MemoryTable::default();
        let buf = t.create_buffer(32);
        t.write_own(buf, 0, &[1, 2, 3, 4]).unwrap();
        let g = t.create_grant(buf, 0, 16, ep(5), perms).unwrap();
        (t, buf, g)
    }

    #[test]
    fn a_released_buffer_is_reused_zeroed() {
        let (t, _, _) = table_with_grant(GrantPerms::RW);
        let mut released = t.into_buffers();
        let bytes = released.next().expect("the table owned one buffer");
        assert!(released.next().is_none());
        let ptr = bytes.as_ptr();
        let mut fresh = MemoryTable::default();
        let buf = fresh.create_buffer_in(bytes, 8);
        assert_eq!(fresh.read_own(buf, 0, 8).unwrap(), vec![0; 8]);
        assert_eq!(fresh.buffers[0].as_ref().map(|b| b.as_ptr()), Some(ptr));
    }

    #[test]
    fn mem_bytes_hold_up_to_a_payload_inline() {
        let mut m = MemBytes::new(&[1, 2]);
        m.extend_from_slice(&[3]);
        assert_eq!(&*m, &[1, 2, 3]);
        assert_eq!(MemBytes::from([1, 2, 3]), m);
        assert_eq!(MemBytes::new(&[0; MEM_WRITE_MAX]).len(), MEM_WRITE_MAX);
    }

    #[test]
    #[should_panic(expected = "memory write too large")]
    fn mem_bytes_reject_more_than_a_payload() {
        MemBytes::new(&[0; MEM_WRITE_MAX + 1]);
    }

    #[test]
    fn grantee_reads_through_read_grant() {
        let (t, _, g) = table_with_grant(GrantPerms::READ);
        assert_eq!(t.safe_copy_from(g, ep(5), 0, 4).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn non_grantee_is_rejected_by_identity() {
        let (t, _, g) = table_with_grant(GrantPerms::RW);
        assert_eq!(
            t.safe_copy_from(g, ep(6), 0, 4),
            Err(GrantError::NotGrantee)
        );
        // Same slot, different generation: also rejected.
        let stale = Endpoint::new(5, 1);
        assert_eq!(
            t.safe_copy_from(g, stale, 0, 4),
            Err(GrantError::NotGrantee)
        );
    }

    #[test]
    fn direction_permissions_enforced() {
        let (mut t, _, g) = table_with_grant(GrantPerms::READ);
        assert_eq!(
            t.safe_copy_to(g, ep(5), 0, &[9]),
            Err(GrantError::PermissionDenied)
        );
        let (t2, _, g2) = table_with_grant(GrantPerms::WRITE);
        assert_eq!(
            t2.safe_copy_from(g2, ep(5), 0, 1),
            Err(GrantError::PermissionDenied)
        );
    }

    #[test]
    fn writes_land_inside_the_window_only() {
        let mut t = MemoryTable::default();
        let buf = t.create_buffer(32);
        // Window covers bytes 8..24.
        let g = t.create_grant(buf, 8, 16, ep(5), GrantPerms::RW).unwrap();
        t.safe_copy_to(g, ep(5), 0, &[0xAA; 4]).unwrap();
        assert_eq!(t.read_own(buf, 8, 4).unwrap(), vec![0xAA; 4]);
        assert_eq!(
            t.read_own(buf, 0, 8).unwrap(),
            vec![0; 8],
            "prefix untouched"
        );
        // Escaping the window is impossible.
        assert_eq!(
            t.safe_copy_to(g, ep(5), 14, &[1, 2, 3]),
            Err(GrantError::OutOfBounds)
        );
        assert_eq!(
            t.safe_copy_from(g, ep(5), 0, 17),
            Err(GrantError::OutOfBounds)
        );
    }

    #[test]
    fn revocation_is_immediate_and_final() {
        let (mut t, _, g) = table_with_grant(GrantPerms::RW);
        assert!(t.safe_copy_from(g, ep(5), 0, 1).is_ok());
        t.revoke(g).unwrap();
        assert_eq!(
            t.safe_copy_from(g, ep(5), 0, 1),
            Err(GrantError::NoSuchGrant)
        );
        assert_eq!(t.revoke(g), Err(GrantError::NoSuchGrant));
    }

    #[test]
    fn grant_over_bad_range_rejected_at_creation() {
        let mut t = MemoryTable::default();
        let buf = t.create_buffer(8);
        assert_eq!(
            t.create_grant(buf, 4, 8, ep(5), GrantPerms::READ),
            Err(GrantError::OutOfBounds)
        );
        assert_eq!(
            t.create_grant(BufId(9), 0, 1, ep(5), GrantPerms::READ),
            Err(GrantError::NoSuchBuffer)
        );
    }

    #[test]
    fn own_buffer_io_bounds_checked() {
        let mut t = MemoryTable::default();
        let buf = t.create_buffer(4);
        assert_eq!(
            t.write_own(buf, 2, &[1, 2, 3]),
            Err(GrantError::OutOfBounds)
        );
        assert_eq!(t.read_own(buf, usize::MAX, 2), Err(GrantError::OutOfBounds));
        assert!(t.write_own(buf, 0, &[7; 4]).is_ok());
        assert_eq!(t.read_own(buf, 0, 4).unwrap(), vec![7; 4]);
    }
}
