//! Process control blocks.
//!
//! §III-B: "Our second modification to MINIX 3 is on the process control
//! block (PCB) data structure. We added a field called access control ID
//! (ac_id) [...] We use the added ac_id field to uniquely identify each
//! process and enforce the control policy."

use std::sync::Arc;

use bas_acm::AcId;
use bas_sim::arena::MsgRef;
use bas_sim::process::Pid;

use crate::endpoint::Endpoint;
use crate::grant::MemoryTable;

/// Why a process is blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Blocked in `ipc_send` waiting for `dest` to receive. The outgoing
    /// payload is parked in the kernel message arena; only its 8-byte
    /// handle sits in the PCB.
    Sending {
        /// Rendezvous partner.
        dest: Endpoint,
        /// Pending message type.
        mtype: u32,
        /// Arena handle to the staged payload (owns one slot reference;
        /// the kernel frees it at delivery or abort).
        msg: MsgRef,
        /// True if this send is the first half of a `sendrec` and the
        /// process must transition to receiving the reply afterwards.
        sendrec: bool,
    },
    /// Blocked in `ipc_receive`.
    Receiving {
        /// Source filter (`None` = any).
        from: Option<Endpoint>,
    },
}

/// The kernel-held state of one process.
#[derive(Debug)]
pub struct Pcb {
    /// Kernel process id (slot index).
    pub pid: Pid,
    /// IPC address (slot + generation).
    pub endpoint: Endpoint,
    /// Registered name (for the name service and traces), shared with
    /// the name service and the program registry.
    pub name: Arc<str>,
    /// The paper's access-control identity, immutable after load.
    pub ac_id: AcId,
    /// POSIX-style uid; *not* consulted for IPC policy (the point of the
    /// paper: "user privilege is not directly tied with access control and
    /// IPC").
    pub uid: u32,
    /// Pending asynchronous notifications, by sender endpoint, in arrival
    /// order.
    pub pending_notifies: Vec<Endpoint>,
    /// The process's simulated memory: owned buffers plus outstanding
    /// grants (§III-A's "memory grants").
    pub memory: MemoryTable,
}

impl Pcb {
    /// Creates a PCB.
    pub fn new(
        pid: Pid,
        endpoint: Endpoint,
        name: impl Into<Arc<str>>,
        ac_id: AcId,
        uid: u32,
    ) -> Self {
        Pcb {
            pid,
            endpoint,
            name: name.into(),
            ac_id,
            uid,
            pending_notifies: Vec::new(),
            memory: MemoryTable::default(),
        }
    }

    /// Queues a notification from `source` unless one from the same source
    /// is already pending (MINIX notifications are single bits per
    /// sender).
    pub fn queue_notify(&mut self, source: Endpoint) {
        if !self.pending_notifies.contains(&source) {
            self.pending_notifies.push(source);
        }
    }

    /// Dequeues the first pending notification matching the receive
    /// filter.
    pub fn take_notify(&mut self, filter: Option<Endpoint>) -> Option<Endpoint> {
        let idx = match filter {
            None => (!self.pending_notifies.is_empty()).then_some(0)?,
            Some(f) => self.pending_notifies.iter().position(|&s| s == f)?,
        };
        Some(self.pending_notifies.remove(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pcb() -> Pcb {
        Pcb::new(Pid::new(1), Endpoint::new(1, 0), "t", AcId::new(100), 1000)
    }

    #[test]
    fn notify_bits_deduplicate_per_sender() {
        let mut p = pcb();
        let a = Endpoint::new(2, 0);
        p.queue_notify(a);
        p.queue_notify(a);
        assert_eq!(p.pending_notifies.len(), 1);
    }

    #[test]
    fn take_notify_respects_filter() {
        let mut p = pcb();
        let a = Endpoint::new(2, 0);
        let b = Endpoint::new(3, 0);
        p.queue_notify(a);
        p.queue_notify(b);
        assert_eq!(p.take_notify(Some(b)), Some(b));
        assert_eq!(p.take_notify(Some(b)), None);
        assert_eq!(p.take_notify(None), Some(a));
        assert_eq!(p.take_notify(None), None);
    }
}
