//! Fault-injection primitives shared by every simulated kernel.
//!
//! The BAS literature the reproduction leans on (HIL testbeds, the OT
//! attack surveys) evaluates controllers under *repeatable* sensor and
//! communication faults, not single hand-picked crashes. This module is
//! the substrate for that: a device interposer for sensor faults and a
//! one-shot IPC fault queue each kernel consults on its send path. The
//! schedule DSL that drives these lives in `bas-faults`; the kernels only
//! see the two small types here.
//!
//! Injection points are deliberately *inside* the kernel, after access
//! control: a fault can corrupt, delay or destroy an authorized
//! interaction, but it can never manufacture authority (see `DESIGN.md`'s
//! fault-model section).

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::device::Device;
use crate::time::{SimDuration, SimTime};

/// What a faulty sensor reports instead of the truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SensorFaultMode {
    /// Pass-through: the interposer is transparent.
    #[default]
    Nominal,
    /// Reads return a fixed raw value (a wedged ADC).
    StuckAt(i64),
    /// Reads return the true value plus a constant offset (a drifted or
    /// miscalibrated transducer).
    Glitch {
        /// Raw offset added to every reading.
        offset: i64,
    },
    /// Reads freeze at the last good value (a dead bus that leaves the
    /// holding register stale).
    Dropout,
}

/// Shared handle through which a fault injector flips a live
/// [`FaultyDevice`]'s mode mid-run.
pub type SensorFaultHandle = Rc<Cell<SensorFaultMode>>;

/// Creates a handle starting in [`SensorFaultMode::Nominal`].
pub fn sensor_fault_handle() -> SensorFaultHandle {
    Rc::new(Cell::new(SensorFaultMode::Nominal))
}

/// A device-bus interposer wrapping a real device: transparent in
/// [`SensorFaultMode::Nominal`], otherwise corrupting reads per the
/// mode. Writes always pass through (these are *sensor* faults).
pub struct FaultyDevice {
    inner: Box<dyn Device>,
    mode: SensorFaultHandle,
    last_good: Option<i64>,
}

impl FaultyDevice {
    /// Wraps `inner`, controlled by `mode`.
    pub fn new(inner: Box<dyn Device>, mode: SensorFaultHandle) -> Self {
        FaultyDevice {
            inner,
            mode,
            last_good: None,
        }
    }
}

impl Device for FaultyDevice {
    fn read(&mut self, now: SimTime) -> i64 {
        let mode = self.mode.get();
        match (mode, self.last_good) {
            (SensorFaultMode::StuckAt(v), _) | (SensorFaultMode::Dropout, Some(v)) => return v,
            // Dropout before any good reading latches the first one.
            _ => {}
        }
        let v = self.inner.read(now);
        self.last_good = Some(v);
        match mode {
            SensorFaultMode::Glitch { offset } => v.saturating_add(offset),
            _ => v,
        }
    }

    fn write(&mut self, now: SimTime, value: i64) {
        self.inner.write(now, value);
    }
}

/// One scheduled fault on the kernel's IPC send path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpcFault {
    /// The message vanishes in transit; the sender observes a plausible
    /// outcome for its call type (success for fire-and-forget sends, an
    /// error for RPCs so callers cannot hang on a reply that will never
    /// come).
    Drop,
    /// Delivery is delayed: the kernel clock pays the given latency
    /// before the message moves (a congested transport).
    Delay(SimDuration),
    /// The message is delivered twice where the transport can queue it;
    /// on pure-rendezvous paths the duplicate is absorbed (and traced).
    Duplicate,
}

/// The per-kernel queue of armed one-shot IPC faults.
///
/// Each eligible send (application IPC — platform-management traffic is
/// exempt) consumes at most one pending fault, in arming order. The
/// kernels call [`IpcFaultState::pop`] *after* their access-control
/// checks, so a fault can only affect traffic that was authorized anyway.
#[derive(Debug, Default)]
pub struct IpcFaultState {
    pending: VecDeque<IpcFault>,
    applied: u64,
}

impl IpcFaultState {
    /// Arms `count` copies of `fault`, consumed by subsequent sends.
    pub fn arm(&mut self, fault: IpcFault, count: u32) {
        for _ in 0..count {
            self.pending.push_back(fault);
        }
    }

    /// Consumes the next pending fault, if any.
    pub fn pop(&mut self) -> Option<IpcFault> {
        let fault = self.pending.pop_front();
        if fault.is_some() {
            self.applied += 1;
        }
        fault
    }

    /// Number of faults consumed so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Number of armed faults not yet consumed.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(i64);
    impl Device for Counter {
        fn read(&mut self, _: SimTime) -> i64 {
            self.0 += 1;
            self.0
        }
        fn write(&mut self, _: SimTime, value: i64) {
            self.0 = value;
        }
    }

    const T: SimTime = SimTime::ZERO;

    #[test]
    fn nominal_is_transparent() {
        let mode = sensor_fault_handle();
        let mut d = FaultyDevice::new(Box::new(Counter(0)), mode);
        assert_eq!(d.read(T), 1);
        assert_eq!(d.read(T), 2);
        d.write(T, 10);
        assert_eq!(d.read(T), 11);
    }

    #[test]
    fn stuck_glitch_dropout_corrupt_reads() {
        let mode = sensor_fault_handle();
        let mut d = FaultyDevice::new(Box::new(Counter(0)), mode.clone());
        assert_eq!(d.read(T), 1); // last good = 1
        mode.set(SensorFaultMode::StuckAt(99));
        assert_eq!(d.read(T), 99);
        assert_eq!(d.read(T), 99);
        mode.set(SensorFaultMode::Glitch { offset: 100 });
        assert_eq!(d.read(T), 102); // true value 2 + 100
        mode.set(SensorFaultMode::Dropout);
        assert_eq!(d.read(T), 2); // frozen at the last good reading
        assert_eq!(d.read(T), 2);
        mode.set(SensorFaultMode::Nominal);
        assert_eq!(d.read(T), 3);
    }

    #[test]
    fn dropout_before_first_reading_latches_once() {
        let mode = sensor_fault_handle();
        mode.set(SensorFaultMode::Dropout);
        let mut d = FaultyDevice::new(Box::new(Counter(0)), mode);
        assert_eq!(d.read(T), 1);
        assert_eq!(d.read(T), 1);
    }

    #[test]
    fn ipc_faults_consumed_in_arming_order() {
        let mut s = IpcFaultState::default();
        assert_eq!(s.pop(), None);
        s.arm(IpcFault::Drop, 2);
        s.arm(IpcFault::Duplicate, 1);
        assert_eq!(s.pending(), 3);
        assert_eq!(s.pop(), Some(IpcFault::Drop));
        assert_eq!(s.pop(), Some(IpcFault::Drop));
        assert_eq!(s.pop(), Some(IpcFault::Duplicate));
        assert_eq!(s.pop(), None);
        assert_eq!(s.applied(), 3);
        assert_eq!(s.pending(), 0);
    }
}
