//! Per-platform IPC bindings of the role cores in [`crate::logic`], and the
//! bootable kernel stacks.

pub mod linux;
pub mod minix;
pub mod sel4;
