//! Linux errno-style errors.

use std::fmt;

/// Errors returned by the simulated Linux kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinuxError {
    /// No such file, queue or device (`ENOENT`).
    NoEntry,
    /// DAC refused the access (`EACCES`).
    AccessDenied,
    /// Operation not permitted — signal permission, setuid (`EPERM`).
    NotPermitted,
    /// Would block and `O_NONBLOCK` was set (`EAGAIN`).
    WouldBlock,
    /// No such process (`ESRCH`).
    NoSuchProcess,
    /// Process table full (`EAGAIN` on fork; distinct code here for
    /// observability).
    ProcessTableFull,
    /// Unknown program image for fork.
    NoSuchProgram,
    /// Bad queue descriptor (`EBADF`).
    BadDescriptor,
    /// Message too long for the queue (`EMSGSIZE`).
    MessageTooLong,
    /// Queue already exists with `O_EXCL` semantics (`EEXIST`).
    AlreadyExists,
    /// Invalid argument (`EINVAL`).
    InvalidArgument,
}

impl fmt::Display for LinuxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LinuxError::NoEntry => "no such file or queue",
            LinuxError::AccessDenied => "access denied",
            LinuxError::NotPermitted => "operation not permitted",
            LinuxError::WouldBlock => "operation would block",
            LinuxError::NoSuchProcess => "no such process",
            LinuxError::ProcessTableFull => "process table full",
            LinuxError::NoSuchProgram => "no such program image",
            LinuxError::BadDescriptor => "bad queue descriptor",
            LinuxError::MessageTooLong => "message too long",
            LinuxError::AlreadyExists => "queue already exists",
            LinuxError::InvalidArgument => "invalid argument",
        };
        f.write_str(s)
    }
}

impl std::error::Error for LinuxError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty_lowercase() {
        for e in [
            LinuxError::NoEntry,
            LinuxError::AccessDenied,
            LinuxError::NotPermitted,
            LinuxError::WouldBlock,
            LinuxError::NoSuchProcess,
            LinuxError::ProcessTableFull,
            LinuxError::NoSuchProgram,
            LinuxError::BadDescriptor,
            LinuxError::MessageTooLong,
            LinuxError::AlreadyExists,
            LinuxError::InvalidArgument,
        ] {
            let s = format!("{e}");
            assert!(!s.is_empty());
            assert_eq!(s, s.to_lowercase());
        }
    }
}
