//! Virtual clock and kernel cost model.
//!
//! The paper observes that "the microkernel approach generally under-performs
//! the monolithic due to the multiple context switches" (§III). To make that
//! comparison measurable in simulation, every kernel charges virtual time
//! through a [`CostModel`]: each kernel entry, context switch, and copied
//! IPC byte advances the [`VirtualClock`] by a configurable amount. The
//! defaults are loosely calibrated to a ~1 GHz embedded ARM core (the
//! BeagleBone Black used by the paper's testbed).

use crate::time::{SimDuration, SimTime};

/// Nanosecond charges for kernel-level operations.
///
/// ```
/// use bas_sim::clock::CostModel;
/// let m = CostModel::default();
/// assert!(m.context_switch.as_nanos() > m.kernel_entry.as_nanos());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cost of switching between two processes (register save/restore,
    /// address-space switch, cache effects).
    pub context_switch: SimDuration,
    /// Cost of entering and leaving the kernel (trap + return).
    pub kernel_entry: SimDuration,
    /// Cost per byte copied across an address-space boundary during IPC.
    pub ipc_copy_per_byte: SimDuration,
    /// Fixed overhead of validating and dispatching one system call.
    pub syscall_dispatch: SimDuration,
    /// Scheduler quantum: virtual time charged to a process per resume when
    /// it computes without trapping.
    pub user_compute: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            context_switch: SimDuration::from_nanos(2_000),
            kernel_entry: SimDuration::from_nanos(150),
            ipc_copy_per_byte: SimDuration::from_nanos(1),
            syscall_dispatch: SimDuration::from_nanos(100),
            user_compute: SimDuration::from_micros(10),
        }
    }
}

impl CostModel {
    /// A zero-cost model, useful in unit tests that assert on logical
    /// ordering rather than timing.
    pub fn free() -> Self {
        CostModel {
            context_switch: SimDuration::ZERO,
            kernel_entry: SimDuration::ZERO,
            ipc_copy_per_byte: SimDuration::ZERO,
            syscall_dispatch: SimDuration::ZERO,
            user_compute: SimDuration::ZERO,
        }
    }
}

/// The kernel's monotonically advancing virtual clock.
///
/// ```
/// use bas_sim::clock::{CostModel, VirtualClock};
///
/// let mut clk = VirtualClock::new(CostModel::default());
/// let t0 = clk.now();
/// clk.charge_context_switch();
/// assert!(clk.now() > t0);
/// ```
#[derive(Debug, Clone)]
pub struct VirtualClock {
    now: SimTime,
    cost: CostModel,
}

impl VirtualClock {
    /// Creates a clock at boot time with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        VirtualClock {
            now: SimTime::ZERO,
            cost,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Rewinds the clock to boot time, keeping the cost model
    /// (snapshot-fork boot).
    pub fn reset(&mut self) {
        self.now = SimTime::ZERO;
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Advances the clock by an arbitrary duration (e.g. idle time until the
    /// next timer deadline).
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Advances the clock to `t` if `t` is in the future; otherwise leaves
    /// it unchanged.
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Charges one context switch.
    pub fn charge_context_switch(&mut self) {
        self.now += self.cost.context_switch;
    }

    /// Charges one kernel entry/exit pair.
    pub fn charge_kernel_entry(&mut self) {
        self.now += self.cost.kernel_entry;
    }

    /// Charges syscall validation/dispatch overhead.
    pub fn charge_syscall_dispatch(&mut self) {
        self.now += self.cost.syscall_dispatch;
    }

    /// Charges an IPC copy of `bytes` bytes.
    pub fn charge_ipc_copy(&mut self, bytes: usize) {
        self.now += SimDuration::from_nanos(self.cost.ipc_copy_per_byte.as_nanos() * bytes as u64);
    }

    /// Charges one user-mode compute quantum.
    pub fn charge_user_compute(&mut self) {
        self.now += self.cost.user_compute;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut clk = VirtualClock::new(CostModel::default());
        clk.charge_kernel_entry();
        clk.charge_syscall_dispatch();
        clk.charge_context_switch();
        clk.charge_ipc_copy(64);
        let expected = 150 + 100 + 2_000 + 64;
        assert_eq!(clk.now().as_nanos(), expected);
    }

    #[test]
    fn free_model_charges_nothing() {
        let mut clk = VirtualClock::new(CostModel::free());
        clk.charge_context_switch();
        clk.charge_ipc_copy(1_000_000);
        clk.charge_user_compute();
        assert_eq!(clk.now(), SimTime::ZERO);
    }

    #[test]
    fn reset_rewinds_but_keeps_cost_model() {
        let mut clk = VirtualClock::new(CostModel::default());
        clk.charge_context_switch();
        clk.reset();
        assert_eq!(clk.now(), SimTime::ZERO);
        clk.charge_context_switch();
        assert_eq!(clk.now().as_nanos(), 2_000);
    }

    #[test]
    fn advance_to_is_monotonic() {
        let mut clk = VirtualClock::new(CostModel::free());
        clk.advance(SimDuration::from_secs(5));
        clk.advance_to(SimTime::from_nanos(1)); // in the past: no-op
        assert_eq!(clk.now().as_secs(), 5);
        clk.advance_to(SimTime::from_nanos(6_000_000_000));
        assert_eq!(clk.now().as_secs(), 6);
    }
}
