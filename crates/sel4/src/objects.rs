//! Kernel objects.
//!
//! §III-C: "These kernel objects could be page tables, thread control
//! blocks, IPC endpoints, or many other types." The reproduction models the
//! object kinds the scenario exercises: TCBs, endpoints, notifications and
//! device frames.

use std::fmt;

use bas_sim::device::DeviceId;
use bas_sim::process::Pid;

/// Index of a kernel object in the kernel's object table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(u32);

impl ObjId {
    /// Creates an object id from its raw index.
    pub const fn new(raw: u32) -> Self {
        ObjId(raw)
    }

    /// Raw index.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Raw index as usize, for table addressing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// Discriminates object kinds (also what `CapIdentify` reveals to a
/// brute-forcing probe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjKind {
    /// A thread control block.
    Tcb,
    /// An IPC endpoint ("implemented as wait queues", per the paper's
    /// footnote).
    Endpoint,
    /// A notification object (binary semaphore).
    Notification,
    /// A device frame mapping one simulated device.
    Device,
    /// A region of untyped memory, retypable into kernel objects.
    Untyped,
}

impl fmt::Display for ObjKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjKind::Tcb => write!(f, "tcb"),
            ObjKind::Endpoint => write!(f, "endpoint"),
            ObjKind::Notification => write!(f, "notification"),
            ObjKind::Device => write!(f, "device"),
            ObjKind::Untyped => write!(f, "untyped"),
        }
    }
}

/// A kernel object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelObject {
    /// Thread control block bound to a simulated thread.
    Tcb {
        /// The thread this TCB controls.
        pid: Pid,
    },
    /// An IPC endpoint. Wait queues are represented implicitly by thread
    /// states (deterministic lowest-pid-first service order).
    Endpoint,
    /// A notification object with its signal state.
    Notification {
        /// Pending (unconsumed) signal bits, ORed together.
        word: u64,
    },
    /// A device frame.
    Device {
        /// The simulated device behind the frame.
        dev: DeviceId,
    },
    /// Untyped memory: the root of all object allocation in seL4. A
    /// thread can only create kernel objects by *retyping* untyped memory
    /// it holds a capability to — which is why the compromised web
    /// interface cannot mount a fork bomb on seL4: thread/object creation
    /// is explicit, transferable authority, not an ambient right.
    Untyped {
        /// Total bytes in the region.
        total: usize,
        /// Bytes already consumed by retypes.
        consumed: usize,
    },
}

impl KernelObject {
    /// The object's kind tag.
    pub fn kind(&self) -> ObjKind {
        match self {
            KernelObject::Tcb { .. } => ObjKind::Tcb,
            KernelObject::Endpoint => ObjKind::Endpoint,
            KernelObject::Notification { .. } => ObjKind::Notification,
            KernelObject::Device { .. } => ObjKind::Device,
            KernelObject::Untyped { .. } => ObjKind::Untyped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_match_variants() {
        assert_eq!(KernelObject::Tcb { pid: Pid::new(1) }.kind(), ObjKind::Tcb);
        assert_eq!(KernelObject::Endpoint.kind(), ObjKind::Endpoint);
        assert_eq!(
            KernelObject::Notification { word: 0 }.kind(),
            ObjKind::Notification
        );
        assert_eq!(
            KernelObject::Device { dev: DeviceId::FAN }.kind(),
            ObjKind::Device
        );
        assert_eq!(
            KernelObject::Untyped {
                total: 64,
                consumed: 0
            }
            .kind(),
            ObjKind::Untyped
        );
    }

    #[test]
    fn obj_id_roundtrip_and_display() {
        let id = ObjId::new(9);
        assert_eq!(id.as_u32(), 9);
        assert_eq!(id.as_usize(), 9);
        assert_eq!(format!("{id}"), "obj9");
        assert_eq!(format!("{}", ObjKind::Endpoint), "endpoint");
    }
}
