//! Fault-injection primitives shared by every simulated kernel.
//!
//! The BAS literature the reproduction leans on (HIL testbeds, the OT
//! attack surveys) evaluates controllers under *repeatable* sensor and
//! communication faults, not single hand-picked crashes. This module is
//! the substrate for that: sensor read modes the device bus applies, a
//! one-shot IPC fault queue each kernel consults on its send path, and the
//! [`FaultCalendar`] of timed [`FaultAction`]s that the kernel's run loop
//! fires next to its timers (`bas_sim::kernel`). The schedule DSL lives in
//! `bas-faults`, whose plans are lists of these actions with capability
//! churn named by scenario instance; the kernels only see the small types
//! here.
//!
//! Injection points are deliberately *inside* the kernel, after access
//! control: a fault can corrupt, delay or destroy an authorized
//! interaction, but it can never manufacture authority (see `DESIGN.md`'s
//! fault-model section).

use std::collections::VecDeque;

use crate::device::DeviceId;
use crate::time::{SimDuration, SimTime};

/// What a faulty sensor reports instead of the truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SensorFaultMode {
    /// Pass-through: reads reach the device.
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

/// One primitive fault, applied at once through
/// [`Kernel::apply_fault`](crate::kernel::Kernel::apply_fault) or at its
/// time from a [`FaultCalendar`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction<C> {
    /// Puts the device's reads into the mode; [`SensorFaultMode::Nominal`]
    /// restores it.
    Sensor(DeviceId, SensorFaultMode),
    /// Arms this many one-shot IPC faults.
    Ipc(IpcFault, u32),
    /// Kills the named process outright: a simulated crash, not a
    /// policy-gated kill. Misses when no live process bears the name.
    Crash(String),
    /// Jumps the clock forward: ticks the platform lost.
    Skew(SimDuration),
    /// Capability mutations: scenario-level ops in a fault plan, the
    /// kernel's own churn ops once [`FaultAction::resolve`]d (empty when
    /// none resolved). `None` applies them, landing when any changed the
    /// authority structure; `Some(n)` arms them to fire right after the
    /// n-th subsequent matching admission check, and always lands.
    Churn(Vec<C>, Option<u32>),
}

impl<C> FaultAction<C> {
    /// The same action with each churn op replaced by the ops `resolve`
    /// maps it to; every other action passes through unchanged.
    pub fn resolve<D>(self, resolve: impl FnMut(&C) -> Vec<D>) -> FaultAction<D> {
        match self {
            FaultAction::Sensor(device, mode) => FaultAction::Sensor(device, mode),
            FaultAction::Ipc(fault, count) => FaultAction::Ipc(fault, count),
            FaultAction::Crash(process) => FaultAction::Crash(process),
            FaultAction::Skew(advance) => FaultAction::Skew(advance),
            FaultAction::Churn(ops, arm) => {
                FaultAction::Churn(ops.iter().flat_map(resolve).collect(), arm)
            }
        }
    }
}

/// One fired calendar entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Firing {
    /// The time it was scheduled for.
    pub due: SimTime,
    /// The kernel's clock when the run loop applied it.
    pub at: SimTime,
    /// Whether it landed (a crash aimed at a name nobody bears misses).
    pub hit: bool,
    /// The kernel's `processes_created` just before it fired.
    pub processes_created: u64,
}

/// A kernel's time-ordered calendar of [`FaultAction`]s, fired one at a
/// time in order by the run loop (equal times in scheduling order). Its
/// [`Firing`]s are the record of a fault run.
#[derive(Debug, Clone)]
pub struct FaultCalendar<C> {
    /// Every scheduled action with its time, the fired ones first.
    entries: Vec<(SimTime, FaultAction<C>)>,
    /// One per fired entry, in order.
    fired: Vec<Firing>,
}

impl<C> Default for FaultCalendar<C> {
    fn default() -> Self {
        FaultCalendar {
            entries: Vec::new(),
            fired: Vec::new(),
        }
    }
}

impl<C> FaultCalendar<C> {
    /// Schedules `action` for `due`, after every entry due by then and
    /// every entry that has fired.
    pub fn schedule(&mut self, due: SimTime, action: FaultAction<C>) {
        let at = self.entries.partition_point(|(t, _)| *t <= due);
        self.entries.insert(at.max(self.fired.len()), (due, action));
    }

    /// The entries fired so far.
    pub fn fired(&self) -> &[Firing] {
        &self.fired
    }

    /// The time of the next entry to fire.
    pub fn next_due(&self) -> Option<SimTime> {
        self.entries.get(self.fired.len()).map(|(due, _)| *due)
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.fired.clear();
    }

    /// Fires the next entry at `now`: `apply` performs its action and says
    /// whether it landed; `processes_created` is the kernel's counter
    /// before it.
    ///
    /// # Panics
    ///
    /// Panics if every entry has fired.
    pub fn fire_next(
        &mut self,
        now: SimTime,
        processes_created: u64,
        apply: impl FnOnce(&FaultAction<C>) -> bool,
    ) {
        let (due, action) = &self.entries[self.fired.len()];
        let (due, hit) = (*due, apply(action));
        self.fired.push(Firing {
            due,
            at: now,
            hit,
            processes_created,
        });
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calendar_fires_in_time_then_scheduling_order() {
        let at = SimTime::from_nanos;
        let crash = |name: &str| FaultAction::<()>::Crash(name.into());
        let mut cal = FaultCalendar::default();
        cal.schedule(at(20), crash("b"));
        cal.schedule(at(10), crash("a"));
        cal.schedule(at(20), crash("c"));
        let mut seen = Vec::new();
        let mut fire = |cal: &mut FaultCalendar<()>, now| {
            assert!(cal.next_due().is_some_and(|due| due <= at(now)));
            cal.fire_next(at(now), now, |action| {
                seen.push(action.clone());
                now != 25
            });
        };
        fire(&mut cal, 12);
        fire(&mut cal, 25);
        // A late entry due before the fired ones fires after them.
        cal.schedule(at(5), crash("d"));
        fire(&mut cal, 30);
        fire(&mut cal, 30);
        assert_eq!(cal.next_due(), None);
        assert_eq!(seen, ["a", "b", "d", "c"].map(crash));
        let f = cal.fired()[1];
        assert_eq!(
            (f.due, f.at, f.hit, f.processes_created),
            (at(20), at(25), false, 25)
        );
        cal.clear();
        assert_eq!((cal.next_due(), cal.fired()), (None, &[][..]));
    }

    #[test]
    fn resolve_maps_only_churn_ops() {
        let twice = |op: &u8| vec![u16::from(*op); 2];
        let crash = FaultAction::<u8>::Crash("a".into());
        assert_eq!(crash.resolve(twice), FaultAction::<u16>::Crash("a".into()));
        let churn = FaultAction::Churn(vec![1u8, 2], Some(3));
        assert_eq!(
            churn.resolve(twice),
            FaultAction::Churn(vec![1, 1, 2, 2], Some(3))
        );
    }

    #[test]
    fn ipc_faults_consumed_in_arming_order() {
        let mut s = IpcFaultState::default();
        assert_eq!(s.pop(), None);
        s.arm(IpcFault::Drop, 2);
        s.arm(IpcFault::Duplicate, 1);
        assert_eq!(s.pop(), Some(IpcFault::Drop));
        assert_eq!(s.pop(), Some(IpcFault::Drop));
        assert_eq!(s.pop(), Some(IpcFault::Duplicate));
        assert_eq!(s.pop(), None);
        assert_eq!(s.applied(), 3);
    }
}
