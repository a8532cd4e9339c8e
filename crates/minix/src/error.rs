//! MINIX-style error codes surfaced to user processes.

use std::fmt;

/// Errors returned by the simulated MINIX kernel and PM server.
///
/// Named after the real MINIX 3 errno values where one exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MinixError {
    /// Destination or source endpoint is invalid, dead, or from a stale
    /// generation (`EDEADSRCDST`).
    DeadSourceOrDestination,
    /// The ACM denied the transfer (`ECALLDENIED`): the paper's kernel
    /// "will be denied and the request will be dropped".
    CallDenied,
    /// Non-blocking send found no ready receiver (`ENOTREADY`).
    NotReady,
    /// The caller lacks permission for a PM operation (`EPERM`).
    PermissionDenied,
    /// The process table is full (`ENOMEM` analog, `EAGAIN` in POSIX fork).
    ProcessTableFull,
    /// Unknown program name passed to `fork2` (`ESRCH` analog).
    NoSuchProgram,
    /// Target process does not exist (`ESRCH`).
    NoSuchProcess,
    /// A per-identity syscall quota was exhausted (the ACM quota
    /// extension).
    QuotaExceeded,
    /// Device not present or not owned by the caller (`ENXIO`/`EACCES`).
    DeviceAccessDenied,
    /// Malformed request payload (`EINVAL`).
    InvalidArgument,
}

impl MinixError {
    /// Stable numeric code used inside message payloads.
    pub const fn code(self) -> u32 {
        match self {
            MinixError::DeadSourceOrDestination => 1,
            MinixError::CallDenied => 2,
            MinixError::NotReady => 3,
            MinixError::PermissionDenied => 4,
            MinixError::ProcessTableFull => 5,
            MinixError::NoSuchProgram => 6,
            MinixError::NoSuchProcess => 7,
            MinixError::QuotaExceeded => 8,
            MinixError::DeviceAccessDenied => 9,
            MinixError::InvalidArgument => 10,
        }
    }

    /// Inverse of [`MinixError::code`].
    pub const fn from_code(code: u32) -> Option<MinixError> {
        Some(match code {
            1 => MinixError::DeadSourceOrDestination,
            2 => MinixError::CallDenied,
            3 => MinixError::NotReady,
            4 => MinixError::PermissionDenied,
            5 => MinixError::ProcessTableFull,
            6 => MinixError::NoSuchProgram,
            7 => MinixError::NoSuchProcess,
            8 => MinixError::QuotaExceeded,
            9 => MinixError::DeviceAccessDenied,
            10 => MinixError::InvalidArgument,
            _ => return None,
        })
    }
}

impl fmt::Display for MinixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MinixError::DeadSourceOrDestination => "dead or invalid source/destination endpoint",
            MinixError::CallDenied => "call denied by access control matrix",
            MinixError::NotReady => "destination not ready for non-blocking send",
            MinixError::PermissionDenied => "permission denied",
            MinixError::ProcessTableFull => "process table full",
            MinixError::NoSuchProgram => "no such program image",
            MinixError::NoSuchProcess => "no such process",
            MinixError::QuotaExceeded => "syscall quota exceeded",
            MinixError::DeviceAccessDenied => "device access denied",
            MinixError::InvalidArgument => "invalid argument",
        };
        f.write_str(s)
    }
}

impl std::error::Error for MinixError {}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [MinixError; 10] = [
        MinixError::DeadSourceOrDestination,
        MinixError::CallDenied,
        MinixError::NotReady,
        MinixError::PermissionDenied,
        MinixError::ProcessTableFull,
        MinixError::NoSuchProgram,
        MinixError::NoSuchProcess,
        MinixError::QuotaExceeded,
        MinixError::DeviceAccessDenied,
        MinixError::InvalidArgument,
    ];

    #[test]
    fn codes_roundtrip_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for e in ALL {
            assert_eq!(MinixError::from_code(e.code()), Some(e));
            assert!(seen.insert(e.code()), "duplicate code {}", e.code());
        }
        assert_eq!(MinixError::from_code(0), None);
        assert_eq!(MinixError::from_code(999), None);
    }

    #[test]
    fn display_is_lowercase_prose() {
        for e in ALL {
            let s = format!("{e}");
            assert!(!s.is_empty());
            assert_eq!(s, s.to_lowercase());
        }
    }
}
