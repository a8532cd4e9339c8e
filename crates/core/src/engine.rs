//! The generic scenario engine: one lockstep runner over every platform.
//!
//! Each platform stack ([`platform::minix::MinixStack`],
//! [`platform::sel4::Sel4Stack`], [`platform::linux::LinuxStack`])
//! implements [`PlatformKernel`] — boot the five-process scenario from its
//! policy artifact and expose its kernel — and
//! [`ScenarioEngine`] supplies everything that used to be copy-pasted per
//! platform: the instance's application I/O ([`AppIo`]: plant, web logs,
//! schedule) and its re-imaging on recycle, the kernel/plant lockstep
//! loop, the authorized-reference bookkeeping for the safety oracle, and
//! the [`Scenario`] trait surface the experiments and the attack harness
//! consume.
//!
//! [`platform::minix::MinixStack`]: crate::platform::minix::MinixStack
//! [`platform::sel4::Sel4Stack`]: crate::platform::sel4::Sel4Stack
//! [`platform::linux::LinuxStack`]: crate::platform::linux::LinuxStack

use bas_plant::{PlantWorld, SharedPlant};
use bas_sim::caps::{CapChurnOp, CapTrace};
use bas_sim::device::DeviceBus;
use bas_sim::fault::IpcFault;
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
/// [`AppIo`], the lockstep loop, the recycle decisions and the
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

    // ----- fault-injection hooks (`bas-faults`) -----------------------------

    /// The kernel's device bus, so fault interposers can wrap plant
    /// devices (`DeviceBus::interpose`). An interposed bus outlives a
    /// kernel reset, so such a stack no longer recycles.
    fn devices_mut(&mut self) -> &mut DeviceBus {
        self.kernel_mut().devices_mut()
    }

    /// Kills the named process/thread outright — a simulated crash, not a
    /// policy-gated kill. Restart semantics are the platform's own: a
    /// supervised MINIX stack re-forks the victim, Linux and seL4 do not.
    /// Returns false if no live process bears the name.
    fn inject_crash(&mut self, name: &str) -> bool {
        touch(self).kill_named(name)
    }

    /// Arms `count` one-shot IPC faults, consumed in order by subsequent
    /// application sends (after each platform's access-control gate).
    fn arm_ipc_fault(&mut self, fault: IpcFault, count: u32) {
        touch(self).ipc_faults_mut().arm(fault, count);
    }

    /// Jumps the kernel clock forward by `d` — a tick-skew fault.
    fn skew_clock(&mut self, d: SimDuration) {
        touch(self).skew_clock(d);
    }

    // ----- capability churn hooks (`bas-analysis::races`) -------------------

    /// Applies a mid-run capability mutation: `op.subject` and `op.object`
    /// are scenario instance names (see [`Self::resolve_churn`]). Returns
    /// false when the platform cannot resolve the pair (or the op was
    /// already in effect).
    fn apply_cap_churn(&mut self, op: &CapChurnOp) -> bool {
        let ops = self.resolve_churn(op);
        let kernel = touch(self);
        ops.iter()
            .fold(false, |changed, op| kernel.apply_cap_churn(op) | changed)
    }

    /// Arms `op` to fire immediately after the `after_checks`-th
    /// subsequent *successful* admission check by `op.subject` toward
    /// `op.object` — deterministically inside the platform's check→use
    /// window.
    fn arm_cap_churn(&mut self, op: &CapChurnOp, after_checks: u32) {
        let ops = self.resolve_churn(op);
        let kernel = touch(self);
        for op in &ops {
            kernel.arm_cap_churn(op, after_checks);
        }
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

/// Brings `plant` to `now`, a lockstep chunk boundary: applies the
/// administrator's (in-range, in-order) setpoint changes due by then to
/// the safety oracle's authorized reference, then steps the physics.
/// `next` indexes the first change not yet applied.
fn step_plant_to(
    plant: &mut PlantWorld,
    changes: &[(SimTime, i32)],
    next: &mut usize,
    now: SimTime,
) {
    while let Some(&(t, mc)) = changes.get(*next) {
        if t > now {
            break;
        }
        plant.set_reference(mc as f64 / 1000.0);
        *next += 1;
    }
    plant.step_to(now);
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
    chunk: SimDuration,
    /// Where the runs so far were scheduled to end: the intended end of
    /// the last [`Scenario::run_for`], which the kernel may have overshot.
    scheduled: SimTime,
    reference_changes: Vec<(SimTime, i32)>,
    next_reference: usize,
}

impl<K: PlatformKernel> ScenarioEngine<K> {
    /// Boots the scenario on `K` and prepares the lockstep runner.
    pub fn boot(config: &ScenarioConfig, overrides: K::Overrides) -> Self {
        let io = AppIo::new(config);
        let reference_changes = config.reference_changes(&io.schedule.borrow());
        let recyclable = K::recyclable(&overrides);
        let stack = K::boot(config, overrides, &io);
        ScenarioEngine {
            stack,
            io,
            recyclable,
            chunk: config.lockstep_chunk,
            scheduled: SimTime::ZERO,
            reference_changes,
            next_reference: 0,
        }
    }

    /// The virtual time the runs so far were scheduled to reach: the sum
    /// of every [`Scenario::run_for`] span since boot. The kernel clock
    /// reads at least this much; it reads more when the kernel overshot
    /// the last chunk's boundary or its clock was skewed.
    pub fn scheduled(&self) -> SimTime {
        self.scheduled
    }

    /// The first lockstep chunk boundary at or after `t`: the chunk grid
    /// is every multiple of `lockstep_chunk` since boot.
    pub fn boundary_at_or_after(&self, t: SimTime) -> SimTime {
        let chunk = self.chunk.as_nanos();
        SimTime::from_nanos(t.as_nanos().div_ceil(chunk) * chunk)
    }

    /// The first chunk boundary after the kernel's clock.
    fn next_boundary(&self) -> SimTime {
        self.boundary_at_or_after(self.now() + SimDuration::from_nanos(1))
    }

    /// Fast-forwards over the whole lockstep chunks before `end` in which
    /// the kernel has nothing to run (see [`Kernel::idle_before`]):
    /// nothing runnable, and no timer due before the chunk's boundary.
    /// The plant is still stepped at every skipped boundary, exactly as
    /// the per-chunk loop would step it; the kernel clock then jumps once
    /// to the last one, waking any sleeper due there. Returns whether any
    /// chunk was skipped.
    fn skip_idle_chunks(&mut self, end: SimTime) -> bool {
        let mut boundary = self.next_boundary();
        let kernel = self.stack.kernel();
        let mut last = None;
        let mut plant = self.io.plant.borrow_mut();
        while boundary <= end && kernel.idle_before(boundary) {
            step_plant_to(
                &mut plant,
                &self.reference_changes,
                &mut self.next_reference,
                boundary,
            );
            last = Some(boundary);
            boundary += self.chunk;
        }
        drop(plant);
        let Some(last) = last else {
            return false;
        };
        touch(&mut self.stack).run_until(last);
        true
    }
}

impl<K: PlatformKernel> Scenario for ScenarioEngine<K> {
    fn platform(&self) -> Platform {
        K::PLATFORM
    }

    fn run_for(&mut self, d: SimDuration) {
        let end = self.scheduled + d;
        self.scheduled = end;
        while self.now() < end {
            if self.skip_idle_chunks(end) {
                continue;
            }
            let target = self.next_boundary().min(end);
            touch(&mut self.stack).run_until(target);
            let now = self.now();
            step_plant_to(
                &mut self.io.plant.borrow_mut(),
                &self.reference_changes,
                &mut self.next_reference,
                now,
            );
        }
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
        let exec = self.stack.kernel().exec();
        // One-shot overrides and interposed fault devices both survive a
        // kernel reset: such an instance must cold-boot instead.
        if !self.recyclable || exec.devices.interposed() {
            return false;
        }
        // An untouched kernel is still the boot image verbatim: the seed
        // only reaches the plant, which `reimage` re-seeds, and the web
        // process reads the re-imaged schedule lazily.
        if exec.touched() {
            self.stack.reset_to_boot(config, &self.io);
        }
        self.io.reimage(config);
        self.chunk = config.lockstep_chunk;
        self.scheduled = SimTime::ZERO;
        self.reference_changes = config.reference_changes(&self.io.schedule.borrow());
        self.next_reference = 0;
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
