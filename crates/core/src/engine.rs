//! The generic scenario engine: one runner over every platform.
//!
//! Each platform stack ([`platform::minix::MinixStack`],
//! [`platform::sel4::Sel4Stack`], [`platform::linux::LinuxStack`])
//! implements [`PlatformKernel`] — boot the five-process scenario from its
//! policy artifact and expose its kernel — and
//! [`ScenarioEngine`] supplies everything that used to be copy-pasted per
//! platform: the instance's application I/O ([`AppIo`]: plant, web logs,
//! schedule) and its re-imaging on recycle, the run loop (one
//! `run_until` per run: the plant devices carry the kernel's clock, so
//! the plant needs no stepping of its own), and the [`Scenario`] trait
//! surface the experiments and the attack harness consume.
//!
//! [`platform::minix::MinixStack`]: crate::platform::minix::MinixStack
//! [`platform::sel4::Sel4Stack`]: crate::platform::sel4::Sel4Stack
//! [`platform::linux::LinuxStack`]: crate::platform::linux::LinuxStack

use bas_plant::SharedPlant;
use bas_sim::caps::{CapChurnOp, CapTrace};
use bas_sim::device::NoSuchDeviceError;
use bas_sim::fault::FaultAction;
use bas_sim::kernel::Kernel;
use bas_sim::metrics::KernelMetrics;
use bas_sim::time::{SimDuration, SimTime};

use crate::logic::web::RequestSample;
use crate::proto::BasMsg;
use crate::scenario::{AppIo, Platform, Scenario, ScenarioConfig};

/// One platform's bootable kernel stack, as seen by the generic engine
/// and the fleet layer.
///
/// Implementations own the simulated kernel and its boot plan and expose
/// the kernel through [`PlatformKernel::kernel`]; clock, counters, trace
/// and process names are read there. The engine owns the instance's
/// [`AppIo`], the run loop, the recycle decisions and the
/// cross-platform [`Scenario`] surface. Attack injection and ablation
/// policies ride in through [`PlatformKernel::Overrides`]; faults and
/// capability churn through the provided hooks below.
pub trait PlatformKernel {
    /// The platform this stack models.
    const PLATFORM: Platform;

    /// Build-time knobs: attacker web-interface factories, replacement
    /// policies, fault injection, supervision.
    type Overrides: Default;

    /// The simulated kernel.
    type Kernel: Kernel;

    /// Boots the five-process scenario from the platform's policy
    /// artifact (ACM / CapDL spec / mq ACL plan), installing `io`'s plant
    /// devices and wiring the benign web process to `io`.
    fn boot(config: &ScenarioConfig, overrides: Self::Overrides, io: &AppIo) -> Self;

    /// Whether a stack booted with `overrides` may be recycled. One-shot
    /// overrides (attacker web factories, which may be stateful script
    /// cells; extra capability grants) cannot be replayed on a recycled
    /// kernel with cold-boot identity.
    fn recyclable(overrides: &Self::Overrides) -> bool;

    /// The simulated kernel.
    fn kernel(&self) -> &Self::Kernel;

    /// The simulated kernel, mutably. Changes made through it bypass the
    /// touched-since-boot mark the hooks below set; use the hooks.
    fn kernel_mut(&mut self) -> &mut Self::Kernel;

    /// Returns the kernel to its just-booted state under `config`,
    /// reusing live allocations, and re-runs the stored boot plan against
    /// `io` — the snapshot-fork boot path. `config` must be the boot
    /// template modulo `seed`. Whether recycling is allowed and needed at
    /// all is decided by [`ScenarioEngine`].
    fn reset_to_boot(&mut self, config: &ScenarioConfig, io: &AppIo);

    /// Maps an instance-level capability mutation onto the kernel's own
    /// authority structure: a MINIX ACM row, seL4 CDT sweeps over the
    /// destination's endpoints, Linux mq mode edits on the queues that
    /// carry the channel. Empty when the pair does not resolve.
    fn resolve_churn(&self, op: &CapChurnOp) -> Vec<<Self::Kernel as Kernel>::Churn>;

    // ----- fault hooks (`bas-faults`, `bas-analysis::races`) ----------------

    /// Applies one fault now and returns whether it landed. After a crash,
    /// restart semantics are the platform's own: a supervised MINIX stack
    /// re-forks the victim, Linux and seL4 do not. IPC faults are consumed
    /// by application sends after each platform's access-control gate.
    ///
    /// Capability churn resolves through [`Self::resolve_churn`] first.
    /// `Some(n)` arms it for right after the n-th subsequent *successful*
    /// admission check by `op.subject` toward `op.object`, inside the
    /// check→use window.
    fn apply_fault(&mut self, action: FaultAction<CapChurnOp>) -> bool {
        let action = action.resolve(|op| self.resolve_churn(op));
        touch(self).apply_fault(&action)
    }

    /// Puts timed faults on the kernel's fault calendar, which the run loop
    /// fires; a kernel reset clears it. Capability churn resolves now, as
    /// in [`Self::apply_fault`]. The bus watches a sensor fault's device
    /// from now on, so a dropout freezes at the last value read.
    ///
    /// # Errors
    ///
    /// Returns [`NoSuchDeviceError`] at the first sensor fault that names
    /// a device the stack never registered.
    fn schedule_faults(
        &mut self,
        faults: impl IntoIterator<Item = (SimTime, FaultAction<CapChurnOp>)>,
    ) -> Result<(), NoSuchDeviceError> {
        let faults: Vec<_> = faults
            .into_iter()
            .map(|(due, action)| (due, action.resolve(|op| self.resolve_churn(op))))
            .collect();
        let exec = touch(self).exec_mut();
        for (due, action) in faults {
            if let FaultAction::Sensor(device, _) = action {
                exec.devices.watch(device)?;
            }
            exec.calendar.schedule(due, action);
        }
        Ok(())
    }

    /// Starts recording the kernel's structured capability-event stream
    /// ([`bas_sim::caps::CapEvent`]). Off by default.
    fn enable_cap_trace(&mut self) {
        touch(self).enable_cap_trace();
    }

    /// Snapshot of the capability-event stream recorded so far. Empty
    /// when tracing was never enabled.
    fn cap_trace(&self) -> CapTrace {
        self.kernel().cap_trace()
    }
}

/// The stack's kernel, marked as touched since boot. Every hook that
/// changes a booted kernel goes through here, so the pristine-recycle
/// check in [`ScenarioEngine`]'s `reset_to_boot` has one source of truth.
fn touch<K: PlatformKernel + ?Sized>(stack: &mut K) -> &mut K::Kernel {
    let kernel = stack.kernel_mut();
    kernel.exec_mut().touch();
    kernel
}

/// A booted scenario on some [`PlatformKernel`]: the single generic
/// runner that replaced the three hand-rolled per-platform adapters.
///
/// ```no_run
/// use bas_core::engine::ScenarioEngine;
/// use bas_core::platform::minix::MinixStack;
/// use bas_core::scenario::{critical_alive, Scenario, ScenarioConfig};
/// use bas_sim::time::SimDuration;
///
/// let mut s = ScenarioEngine::<MinixStack>::boot(&ScenarioConfig::default(), Default::default());
/// s.run_for(SimDuration::from_mins(30));
/// assert!(critical_alive(&s));
/// ```
pub struct ScenarioEngine<K: PlatformKernel> {
    /// The booted platform stack (public for experiment introspection:
    /// `s.stack.kernel`, and on seL4 `s.stack.spec` / `s.stack.sys`).
    pub stack: K,
    io: AppIo,
    /// False when boot installed one-shot overrides.
    recyclable: bool,
    /// Where the runs so far were scheduled to end: the intended end of
    /// the last [`Scenario::run_for`], which the kernel may have overshot.
    scheduled: SimTime,
}

impl<K: PlatformKernel> ScenarioEngine<K> {
    /// Boots the scenario on `K`.
    pub fn boot(config: &ScenarioConfig, overrides: K::Overrides) -> Self {
        let io = AppIo::new(config);
        let recyclable = K::recyclable(&overrides);
        let stack = K::boot(config, overrides, &io);
        ScenarioEngine {
            stack,
            io,
            recyclable,
            scheduled: SimTime::ZERO,
        }
    }
}

impl<K: PlatformKernel> Scenario for ScenarioEngine<K> {
    fn platform(&self) -> Platform {
        K::PLATFORM
    }

    fn run_for(&mut self, d: SimDuration) {
        self.scheduled += d;
        touch(&mut self.stack).run_until(self.scheduled);
        let now = self.now();
        self.io.plant.borrow_mut().step_to(now);
    }

    fn now(&self) -> SimTime {
        self.stack.kernel().now()
    }

    fn plant(&self) -> SharedPlant {
        self.io.plant.clone()
    }

    fn metrics(&self) -> KernelMetrics {
        *self.stack.kernel().metrics()
    }

    fn any_alive(&self, pred: &mut dyn FnMut(&str) -> bool) -> bool {
        self.stack.kernel().any_alive(pred)
    }

    fn alive_names(&self) -> Vec<String> {
        self.stack.kernel().alive_names()
    }

    fn trace_count(&self, category: &str) -> usize {
        self.stack.kernel().trace().events_in(category).count()
    }

    fn disable_trace(&mut self) {
        self.stack.kernel_mut().disable_trace();
    }

    fn web_responses(&self) -> Vec<BasMsg> {
        self.io.responses.borrow().clone()
    }

    fn request_samples(&self) -> Vec<RequestSample> {
        self.io.requests.borrow().clone()
    }

    fn reset_to_boot(&mut self, config: &ScenarioConfig) -> bool {
        // One-shot overrides survive a kernel reset: such an instance must
        // cold-boot instead.
        if !self.recyclable {
            return false;
        }
        // An untouched kernel is still the boot image verbatim: the seed
        // only reaches the plant, which `reimage` re-seeds, and the web
        // process reads the re-imaged schedule lazily.
        if self.stack.kernel().exec().touched() {
            self.stack.reset_to_boot(config, &self.io);
        }
        self.io.reimage(config);
        self.scheduled = SimTime::ZERO;
        true
    }
}

/// Boots the scenario on the named platform with default overrides —
/// the one entry point experiments use instead of hand-wiring builders.
pub fn boot_platform(platform: Platform, config: &ScenarioConfig) -> Box<dyn Scenario> {
    match platform {
        Platform::Minix => Box::new(ScenarioEngine::<crate::platform::minix::MinixStack>::boot(
            config,
            Default::default(),
        )),
        Platform::Sel4 => Box::new(ScenarioEngine::<crate::platform::sel4::Sel4Stack>::boot(
            config,
            Default::default(),
        )),
        Platform::Linux => Box::new(ScenarioEngine::<crate::platform::linux::LinuxStack>::boot(
            config,
            Default::default(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::critical_alive;

    #[test]
    fn boot_platform_runs_everywhere() {
        for platform in [Platform::Minix, Platform::Sel4, Platform::Linux] {
            let mut s = boot_platform(platform, &ScenarioConfig::quiet());
            assert_eq!(s.platform(), platform);
            s.run_for(SimDuration::from_mins(5));
            assert!(critical_alive(s.as_ref()), "{platform} lost a process");
            assert!(s.metrics().ipc_messages > 0, "{platform} ipc starved");
        }
    }
}
