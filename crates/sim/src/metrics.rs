//! Kernel-level counters used by the performance experiments (E8).

use std::fmt;

/// Counters maintained by every simulated kernel.
///
/// These back the paper's §III performance remark: the microkernel platforms
/// pay extra context switches and kernel entries per logical operation,
/// which `exp_ipc_overhead` quantifies.
///
/// ```
/// use bas_sim::metrics::KernelMetrics;
/// let mut m = KernelMetrics::default();
/// m.context_switches += 1;
/// m.ipc_messages += 2;
/// assert!(format!("{m}").contains("ipc_messages=2"));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelMetrics {
    /// Process-to-process switches performed by the scheduler.
    pub context_switches: u64,
    /// Traps into the kernel (syscall entries).
    pub kernel_entries: u64,
    /// IPC messages successfully delivered.
    pub ipc_messages: u64,
    /// Bytes copied across address spaces for IPC.
    pub ipc_bytes: u64,
    /// System calls rejected by access control (ACM, capabilities, DAC).
    pub access_denied: u64,
    /// System calls that failed for non-policy reasons.
    pub syscall_errors: u64,
    /// Processes created over the kernel lifetime.
    pub processes_created: u64,
    /// Processes that exited or were killed.
    pub processes_reaped: u64,
    /// Message-arena heap events only: slot-table growth and
    /// oversized-payload spills. It does not count any other heap
    /// allocation, so zero here does not by itself mean the run allocated
    /// nothing; the counting-allocator tests in `bas-fleet` and
    /// `bas-minix` measure that. A warm kernel holds this constant across
    /// ticks.
    pub hot_path_allocs: u64,
    /// Sends that had to block — the receiver was not at its rendezvous
    /// (MINIX/seL4) or the queue was full (Linux mq). The queue-depth /
    /// backpressure signal the traffic experiments (E18) watch: offered
    /// load beyond the service rate shows up here first.
    pub ipc_waits: u64,
}

impl KernelMetrics {
    /// Field-wise difference `self - earlier`, for measuring one phase.
    ///
    /// Saturating: a kernel recycled between the two snapshots restarts
    /// its counters at zero, so a counter of `earlier` can exceed
    /// `self`'s; the delta then clamps that field to zero instead of
    /// underflowing. Callers that need exact phase deltas must not
    /// recycle the kernel between snapshots.
    pub fn delta_since(&self, earlier: &KernelMetrics) -> KernelMetrics {
        KernelMetrics {
            context_switches: self
                .context_switches
                .saturating_sub(earlier.context_switches),
            kernel_entries: self.kernel_entries.saturating_sub(earlier.kernel_entries),
            ipc_messages: self.ipc_messages.saturating_sub(earlier.ipc_messages),
            ipc_bytes: self.ipc_bytes.saturating_sub(earlier.ipc_bytes),
            access_denied: self.access_denied.saturating_sub(earlier.access_denied),
            syscall_errors: self.syscall_errors.saturating_sub(earlier.syscall_errors),
            processes_created: self
                .processes_created
                .saturating_sub(earlier.processes_created),
            processes_reaped: self
                .processes_reaped
                .saturating_sub(earlier.processes_reaped),
            hot_path_allocs: self.hot_path_allocs.saturating_sub(earlier.hot_path_allocs),
            ipc_waits: self.ipc_waits.saturating_sub(earlier.ipc_waits),
        }
    }
}

impl fmt::Display for KernelMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ctx_switches={} kernel_entries={} ipc_messages={} ipc_bytes={} \
             access_denied={} syscall_errors={} procs_created={} procs_reaped={} \
             hot_path_allocs={} ipc_waits={}",
            self.context_switches,
            self.kernel_entries,
            self.ipc_messages,
            self.ipc_bytes,
            self.access_denied,
            self.syscall_errors,
            self.processes_created,
            self.processes_reaped,
            self.hot_path_allocs,
            self.ipc_waits,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_fieldwise() {
        let a = KernelMetrics {
            context_switches: 10,
            ipc_messages: 7,
            ..Default::default()
        };
        let mut b = a;
        b.context_switches = 25;
        b.ipc_messages = 9;
        b.access_denied = 3;
        let d = b.delta_since(&a);
        assert_eq!(d.context_switches, 15);
        assert_eq!(d.ipc_messages, 2);
        assert_eq!(d.access_denied, 3);
    }

    /// Counters restarted at zero between snapshots must clamp to zero,
    /// not underflow.
    #[test]
    fn delta_after_reset_saturates() {
        let snapshot = KernelMetrics {
            context_switches: 100,
            ipc_messages: 50,
            ..Default::default()
        };
        let m = KernelMetrics {
            ipc_messages: 10,
            ..Default::default()
        };
        let d = m.delta_since(&snapshot);
        assert_eq!(d.context_switches, 0);
        assert_eq!(d.ipc_messages, 0);
        // Forward progress after the reset still shows up normally.
        let d2 = m.delta_since(&KernelMetrics::default());
        assert_eq!(d2.ipc_messages, 10);
    }

    #[test]
    fn display_contains_all_counters() {
        let s = format!("{}", KernelMetrics::default());
        for key in [
            "ctx_switches",
            "kernel_entries",
            "ipc_messages",
            "ipc_bytes",
            "access_denied",
            "syscall_errors",
            "procs_created",
            "procs_reaped",
            "hot_path_allocs",
            "ipc_waits",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }
}
