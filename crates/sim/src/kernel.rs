//! The kernel executive shared by the three simulated kernels.
//!
//! The paper runs one scenario on three platforms, and only the
//! enforcement mechanism differs between them: the MINIX ACM, seL4
//! capabilities, Linux DAC. The scheduler, the timers and the cost
//! charging are the experiment's control, so they live here once. An
//! [`Executive`] holds the platform-neutral state (clock, run queue, timer
//! queue, metrics, trace, device bus, IPC fault queue, message arena,
//! capability log) and the [`Kernel`] trait supplies, on top of it, the
//! run loop, the dispatch prologue, sleeping, wake-ups and the accessors.
//!
//! A kernel implements the trait with a few hooks: access to its process
//! table ([`Kernel::task_mut`]), its system calls
//! ([`Kernel::handle_syscall`]), process teardown ([`Kernel::terminate`]),
//! name lookup, capability churn, and constructors for its own trace
//! variants (an exit is `proc.exit` on MINIX and Linux, `thread.exit` on
//! seL4). Everything is statically dispatched: the run loop is
//! monomorphized per kernel type.

use crate::arena::MsgArena;
use crate::caps::{CapLog, CapTrace};
use crate::clock::{CostModel, VirtualClock};
use crate::device::DeviceBus;
use crate::fault::IpcFaultState;
use crate::metrics::KernelMetrics;
use crate::process::{Action, BoxedProcess, Pid, ProcState};
use crate::sched::RunQueue;
use crate::time::{SimDuration, SimTime};
use crate::timer::TimerQueue;
use crate::trace::{TraceDetail, TraceLog};

/// The platform-neutral state of one simulated kernel.
///
/// The fields are public so a kernel's syscall handlers can borrow them
/// independently of its own process table.
pub struct Executive<D> {
    /// Virtual time and the cost model every kernel path charges.
    pub clock: VirtualClock,
    /// Runnable processes in round-robin order.
    pub run_queue: RunQueue,
    /// Armed sleeps.
    pub timers: TimerQueue,
    /// Kernel counters.
    pub metrics: KernelMetrics,
    /// The typed event trace.
    pub trace: TraceLog<D>,
    /// Devices behind the device syscalls.
    pub devices: DeviceBus,
    /// Armed one-shot IPC faults.
    pub ipc_faults: IpcFaultState,
    /// Fixed-slot arena holding every in-flight message payload.
    pub arena: MsgArena,
    /// Capability-operation event stream (disabled by default).
    pub cap_log: CapLog,
    /// The process dispatched last, for context-switch accounting.
    pub last_run: Option<Pid>,
    /// Slots the arena is pre-warmed to at boot and on reset.
    arena_slots: usize,
    /// Whether a hook outside the kernel changed it since boot.
    touched: bool,
}

impl<D> Executive<D> {
    /// A just-booted executive. The arena is pre-warmed to `arena_slots`
    /// slots, the structural bound on parked messages, so the hot path
    /// never grows its slot table.
    pub fn new(cost_model: CostModel, trace_capacity: usize, arena_slots: usize) -> Self {
        Executive {
            clock: VirtualClock::new(cost_model),
            run_queue: RunQueue::new(),
            timers: TimerQueue::new(),
            metrics: KernelMetrics::default(),
            trace: TraceLog::with_capacity(trace_capacity),
            devices: DeviceBus::new(),
            ipc_faults: IpcFaultState::default(),
            arena: MsgArena::with_capacity(arena_slots),
            cap_log: CapLog::new(),
            last_run: None,
            arena_slots,
            touched: false,
        }
    }

    /// Restores the just-booted state in place, reusing live allocations:
    /// the shared half of every kernel's `reset_to_boot`. Installed
    /// devices survive (they are boot-template state).
    pub fn reset(&mut self) {
        self.run_queue.clear();
        self.timers.clear();
        self.clock.reset();
        self.metrics = KernelMetrics::default();
        self.trace.clear();
        self.ipc_faults = IpcFaultState::default();
        self.arena.reset_to_capacity(self.arena_slots);
        self.cap_log = CapLog::new();
        self.last_run = None;
        self.touched = false;
    }

    /// Records `detail` at the current virtual time.
    pub fn record(&mut self, pid: Option<Pid>, detail: D) {
        self.trace.record(self.clock.now(), pid, detail);
    }

    /// Counts an access-control denial and records it.
    pub fn deny(&mut self, pid: Pid, detail: D) {
        self.metrics.access_denied += 1;
        self.record(Some(pid), detail);
    }

    /// Forgets a terminated process: dequeues it, cancels its sleep,
    /// counts the reap and drops it as the last-run process.
    pub fn reap(&mut self, pid: Pid) {
        self.run_queue.remove(pid);
        self.timers.cancel(pid);
        self.metrics.processes_reaped += 1;
        if self.last_run == Some(pid) {
            self.last_run = None;
        }
    }

    /// Marks the kernel as changed since boot by a hook from outside
    /// (stepping, fault injection, capability churn); [`Self::reset`]
    /// clears the mark.
    pub fn touch(&mut self) {
        self.touched = true;
    }

    /// Whether anything marked the kernel since boot. An untouched kernel
    /// is still its boot image.
    pub fn touched(&self) -> bool {
        self.touched
    }
}

/// The scheduling half of a process-table entry: what the run loop needs
/// to resume a process. Each kernel keeps one per live process, next to
/// its own identity and authority fields.
pub struct Task<S, R, B> {
    /// Scheduling state, with the kernel's own blocking reasons.
    pub state: ProcState<B>,
    /// The program; taken out while it runs.
    pub logic: Option<BoxedProcess<S, R>>,
    /// The reply handed to the program on its next resume.
    pub pending_reply: Option<R>,
}

impl<S, R, B> Task<S, R, B> {
    /// A runnable task that has not run yet.
    pub fn new(logic: BoxedProcess<S, R>) -> Self {
        Task {
            state: ProcState::Runnable,
            logic: Some(logic),
            pending_reply: None,
        }
    }
}

/// A simulated kernel: hooks into its process table and syscall
/// semantics, and the shared run loop and accessors built on them.
pub trait Kernel {
    /// The platform's system-call request type.
    type Syscall;
    /// The platform's system-call reply type.
    type Reply;
    /// Why a process is blocked.
    type Block;
    /// The kernel's typed trace record.
    type Detail: TraceDetail;
    /// A capability mutation resolved to this kernel's authority
    /// structure (an ACM row, a CDT sweep, a queue's mode bits).
    type Churn;

    /// The reply a sleeper wakes with.
    const WAKE: Self::Reply;

    /// The shared state.
    fn exec(&self) -> &Executive<Self::Detail>;

    /// The shared state, mutably.
    fn exec_mut(&mut self) -> &mut Executive<Self::Detail>;

    /// The scheduling half of `pid`'s entry, if `pid` is live.
    fn task_mut(&mut self, pid: Pid) -> Option<&mut Task<Self::Syscall, Self::Reply, Self::Block>>;

    /// Executes `sys` on behalf of `pid`. The dispatch prologue has
    /// already charged the kernel entry.
    fn handle_syscall(&mut self, pid: Pid, sys: Self::Syscall);

    /// Tears `pid` down: frees its slot and whatever it held, and wakes
    /// anyone blocked on it.
    fn terminate(&mut self, pid: Pid);

    /// The live process named `name`.
    fn pid_of(&self, name: &str) -> Option<Pid>;

    /// Names of live processes, sorted.
    fn alive_names(&self) -> Vec<String>;

    /// The record of `Action::Exit(code)`.
    fn exit_detail(code: i32) -> Self::Detail;

    /// The record of an injected crash of `name`.
    fn crash_detail(name: &str) -> Self::Detail;

    /// The record of a clock skew by `d`.
    fn skew_detail(d: SimDuration) -> Self::Detail;

    /// Applies a capability mutation immediately. Returns whether the
    /// authority structure changed.
    fn apply_cap_churn(&mut self, op: &Self::Churn) -> bool;

    /// Arms `op` to fire right after the `after_checks`-th subsequent
    /// successful admission check it matches (`0` fires on the next one):
    /// inside the check→use window by construction.
    fn arm_cap_churn(&mut self, op: &Self::Churn, after_checks: u32);

    /// Runs until virtual time reaches `t`. When nothing is runnable and
    /// no timer is due before `t`, the clock jumps to exactly `t`.
    fn run_until(&mut self, t: SimTime) {
        loop {
            fire_due_timers(self);
            let exec = self.exec_mut();
            if exec.clock.now() >= t {
                return;
            }
            if let Some(pid) = exec.run_queue.dequeue() {
                dispatch(self, pid);
            } else {
                match exec.timers.next_deadline() {
                    Some(d) if d <= t => exec.clock.advance_to(d),
                    _ => {
                        exec.clock.advance_to(t);
                        return;
                    }
                }
            }
        }
    }

    /// Runs until nothing is runnable and no timer is armed, jumping the
    /// clock from deadline to deadline. Returns the number of dispatches.
    ///
    /// # Panics
    ///
    /// Panics if the kernel has not quiesced after 5,000,000 dispatches,
    /// a livelock guard far above any scenario's dispatch count.
    fn run_to_quiescence(&mut self) -> usize {
        let mut steps = 0;
        loop {
            fire_due_timers(self);
            let exec = self.exec_mut();
            let Some(pid) = exec.run_queue.dequeue() else {
                match exec.timers.next_deadline() {
                    Some(d) => {
                        exec.clock.advance_to(d);
                        continue;
                    }
                    None => return steps,
                }
            };
            dispatch(self, pid);
            steps += 1;
            assert!(steps < 5_000_000, "kernel failed to quiesce");
        }
    }

    /// Makes `pid` runnable with `reply` as its next resume value (no-op
    /// for a dead pid).
    fn ready_with(&mut self, pid: Pid, reply: Self::Reply) {
        if let Some(task) = self.task_mut(pid) {
            task.pending_reply = Some(reply);
            task.state = ProcState::Runnable;
            self.exec_mut().run_queue.enqueue(pid);
        }
    }

    /// Puts `pid` to sleep for `duration`; it wakes with [`Self::WAKE`].
    fn sleep(&mut self, pid: Pid, duration: SimDuration) {
        let exec = self.exec_mut();
        let deadline = exec.clock.now() + duration;
        exec.timers.arm(deadline, pid);
        if let Some(task) = self.task_mut(pid) {
            task.state = ProcState::Sleeping;
        }
    }

    /// Kills the named process outright: a simulated crash, not a
    /// policy-gated kill. Returns false if no live process bears the name.
    fn kill_named(&mut self, name: &str) -> bool {
        let Some(pid) = self.pid_of(name) else {
            return false;
        };
        self.exec_mut().record(Some(pid), Self::crash_detail(name));
        self.terminate(pid);
        true
    }

    /// Jumps the clock forward by `d` without running anyone: a tick-skew
    /// fault.
    fn skew_clock(&mut self, d: SimDuration) {
        let exec = self.exec_mut();
        exec.clock.advance(d);
        exec.record(None, Self::skew_detail(d));
    }

    /// Current virtual time.
    fn now(&self) -> SimTime {
        self.exec().clock.now()
    }

    /// Kernel counters.
    fn metrics(&self) -> &KernelMetrics {
        &self.exec().metrics
    }

    /// The event trace.
    fn trace(&self) -> &TraceLog<Self::Detail> {
        &self.exec().trace
    }

    /// Disables tracing (throughput benchmarks).
    fn disable_trace(&mut self) {
        self.exec_mut().trace.disable();
    }

    /// The device bus, for installing plant devices and fault
    /// interposers.
    fn devices_mut(&mut self) -> &mut DeviceBus {
        &mut self.exec_mut().devices
    }

    /// The IPC fault queue (applied/pending counters).
    fn ipc_faults(&self) -> &IpcFaultState {
        &self.exec().ipc_faults
    }

    /// Armed one-shot IPC faults, consumed by application sends *after*
    /// the platform's access-control gate.
    fn ipc_faults_mut(&mut self) -> &mut IpcFaultState {
        &mut self.exec_mut().ipc_faults
    }

    /// Starts recording the capability-operation stream (idempotent).
    fn enable_cap_trace(&mut self) {
        self.exec_mut().cap_log.enable();
    }

    /// Snapshot of the capability-operation stream.
    fn cap_trace(&self) -> CapTrace {
        self.exec().cap_log.trace()
    }
}

/// Wakes every sleeper whose deadline has passed, in deadline order and,
/// on equal deadlines, in arming order.
fn fire_due_timers<K: Kernel + ?Sized>(k: &mut K) {
    let now = k.exec().clock.now();
    while let Some(pid) = k.exec_mut().timers.pop_due(now) {
        if let Some(task) = k.task_mut(pid) {
            if matches!(task.state, ProcState::Sleeping) {
                task.state = ProcState::Runnable;
                task.pending_reply = Some(K::WAKE);
                k.exec_mut().run_queue.enqueue(pid);
            }
        }
    }
}

/// Resumes `pid` once: charges the context switch (only when the process
/// changes) and the user compute, then the kernel entry of a syscall, a
/// re-queue on `Yield`, or the exit record and teardown on `Exit`.
fn dispatch<K: Kernel + ?Sized>(k: &mut K, pid: Pid) {
    let Some(task) = k.task_mut(pid) else {
        return;
    };
    if !task.state.is_runnable() {
        return; // stale queue entry
    }
    let mut logic = task.logic.take().expect("runnable process has logic");
    let reply = task.pending_reply.take();

    let exec = k.exec_mut();
    if exec.last_run != Some(pid) {
        exec.clock.charge_context_switch();
        exec.metrics.context_switches += 1;
        exec.last_run = Some(pid);
    }
    exec.clock.charge_user_compute();

    // Resuming has no kernel access, so the slot is still intact.
    let action = logic.resume(reply);
    if let Some(task) = k.task_mut(pid) {
        task.logic = Some(logic);
    }

    match action {
        Action::Syscall(sys) => {
            let exec = k.exec_mut();
            exec.metrics.kernel_entries += 1;
            exec.clock.charge_kernel_entry();
            exec.clock.charge_syscall_dispatch();
            k.handle_syscall(pid, sys);
        }
        Action::Yield => k.exec_mut().run_queue.enqueue(pid),
        Action::Exit(code) => {
            k.exec_mut().record(Some(pid), K::exit_detail(code));
            k.terminate(pid);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::fmt;
    use std::rc::Rc;

    use super::*;
    use crate::process::Process;

    /// The stub's trace record: only the three variants the executive
    /// itself writes.
    #[derive(Debug, PartialEq)]
    enum Note {
        Exit(i32),
        Crash(String),
        Skew(u64),
    }

    impl fmt::Display for Note {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{self:?}")
        }
    }

    impl TraceDetail for Note {
        fn category(&self) -> &'static str {
            "stub"
        }
    }

    /// A stub task: its syscall is a sleep of that many milliseconds.
    type StubTask = Task<u64, (), ()>;

    /// A minimal kernel: a process table of named tasks and one syscall,
    /// a sleep of that many milliseconds.
    struct Stub {
        exec: Executive<Note>,
        procs: Vec<Option<(String, StubTask)>>,
    }

    impl Stub {
        fn new() -> Self {
            Stub {
                exec: Executive::new(CostModel::free(), 64, 4),
                procs: Vec::new(),
            }
        }

        fn spawn(&mut self, name: &str, logic: BoxedProcess<u64, ()>) -> Pid {
            let pid = Pid::new(self.procs.len() as u32);
            self.procs.push(Some((name.to_string(), Task::new(logic))));
            self.exec.run_queue.enqueue(pid);
            pid
        }
    }

    impl Kernel for Stub {
        type Syscall = u64;
        type Reply = ();
        type Block = ();
        type Detail = Note;
        type Churn = ();
        const WAKE: () = ();

        fn exec(&self) -> &Executive<Note> {
            &self.exec
        }
        fn exec_mut(&mut self) -> &mut Executive<Note> {
            &mut self.exec
        }
        fn task_mut(&mut self, pid: Pid) -> Option<&mut StubTask> {
            self.procs.get_mut(pid.as_usize())?.as_mut().map(|(_, t)| t)
        }
        fn handle_syscall(&mut self, pid: Pid, ms: u64) {
            self.sleep(pid, SimDuration::from_millis(ms));
        }
        fn terminate(&mut self, pid: Pid) {
            self.procs[pid.as_usize()] = None;
            self.exec.reap(pid);
        }
        fn pid_of(&self, name: &str) -> Option<Pid> {
            let i = self
                .procs
                .iter()
                .position(|p| p.as_ref().is_some_and(|(n, _)| n == name));
            i.map(|i| Pid::new(i as u32))
        }
        fn alive_names(&self) -> Vec<String> {
            self.procs
                .iter()
                .flatten()
                .map(|(n, _)| n.clone())
                .collect()
        }
        fn exit_detail(code: i32) -> Note {
            Note::Exit(code)
        }
        fn crash_detail(name: &str) -> Note {
            Note::Crash(name.to_string())
        }
        fn skew_detail(d: SimDuration) -> Note {
            Note::Skew(d.as_millis())
        }
        fn apply_cap_churn(&mut self, _: &()) -> bool {
            false
        }
        fn arm_cap_churn(&mut self, _: &(), _: u32) {}
    }

    type Log = Rc<RefCell<Vec<&'static str>>>;

    /// A process that logs its name on every resume and plays `steps`,
    /// then exits with code 0.
    struct Steps {
        name: &'static str,
        log: Log,
        steps: VecDeque<Action<u64>>,
    }

    impl Process for Steps {
        type Syscall = u64;
        type Reply = ();
        fn resume(&mut self, _: Option<()>) -> Action<u64> {
            self.log.borrow_mut().push(self.name);
            self.steps.pop_front().unwrap_or(Action::Exit(0))
        }
    }

    fn steps(name: &'static str, log: &Log, steps: Vec<Action<u64>>) -> BoxedProcess<u64, ()> {
        Box::new(Steps {
            name,
            log: log.clone(),
            steps: steps.into(),
        })
    }

    #[test]
    fn equal_deadlines_wake_in_arming_order() {
        let log = Log::default();
        let mut k = Stub::new();
        // `a` runs first but arms second: it yields once before sleeping.
        k.spawn(
            "a",
            steps("a", &log, vec![Action::Yield, Action::Syscall(10)]),
        );
        k.spawn("b", steps("b", &log, vec![Action::Syscall(10)]));
        k.run_to_quiescence();
        assert_eq!(*log.borrow(), ["a", "b", "a", "b", "a"]);
        assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_millis(10));
    }

    #[test]
    fn idle_run_until_lands_exactly_on_the_target() {
        let mut k = Stub::new();
        let t = SimTime::from_nanos(12_345);
        k.run_until(t);
        assert_eq!(k.now(), t);

        // A sleeper due after the target does not drag the clock along.
        let log = Log::default();
        k.spawn("s", steps("s", &log, vec![Action::Syscall(1_000)]));
        let t = SimTime::from_nanos(500_000);
        k.run_until(t);
        assert_eq!(k.now(), t);
        assert_eq!(*log.borrow(), ["s"]);
    }

    #[test]
    fn yield_round_robins() {
        let log = Log::default();
        let mut k = Stub::new();
        let twice = || vec![Action::Yield, Action::Yield];
        k.spawn("a", steps("a", &log, twice()));
        k.spawn("b", steps("b", &log, twice()));
        k.run_to_quiescence();
        assert_eq!(*log.borrow(), ["a", "b", "a", "b", "a", "b"]);
    }

    #[test]
    fn exit_records_the_kernels_own_variant() {
        let log = Log::default();
        let mut k = Stub::new();
        let pid = k.spawn("a", steps("a", &log, vec![Action::Exit(3)]));
        k.run_to_quiescence();
        let events = k.trace().events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            (events[0].pid, &events[0].detail),
            (Some(pid), &Note::Exit(3))
        );
        assert!(k.alive_names().is_empty());
        assert_eq!(k.metrics().processes_reaped, 1);
    }

    #[test]
    fn context_switches_count_only_changes_of_process() {
        let log = Log::default();
        let mut k = Stub::new();
        // Four dispatches of the same process: one switch.
        k.spawn("a", steps("a", &log, vec![Action::Yield; 3]));
        k.run_to_quiescence();
        assert_eq!(k.metrics().context_switches, 1);

        // Two alternating processes: every dispatch switches.
        k.spawn("b", steps("b", &log, vec![Action::Yield]));
        k.spawn("c", steps("c", &log, vec![Action::Yield]));
        k.run_to_quiescence();
        assert_eq!(k.metrics().context_switches, 1 + 4);
    }

    #[test]
    fn run_to_quiescence_returns_the_dispatch_count() {
        let log = Log::default();
        let mut k = Stub::new();
        k.spawn("a", steps("a", &log, vec![Action::Yield, Action::Yield]));
        k.spawn("b", steps("b", &log, vec![Action::Syscall(5)]));
        assert_eq!(k.run_to_quiescence(), 5);
        assert_eq!(log.borrow().len(), 5);
        assert_eq!(k.run_to_quiescence(), 0);
    }

    #[test]
    fn crash_and_skew_record_the_kernels_own_variants() {
        let log = Log::default();
        let mut k = Stub::new();
        k.spawn("a", steps("a", &log, vec![Action::Syscall(1)]));
        assert!(k.kill_named("a"));
        assert!(!k.kill_named("a"));
        k.skew_clock(SimDuration::from_millis(7));
        let details: Vec<_> = k.trace().events().iter().map(|e| &e.detail).collect();
        assert_eq!(details, [&Note::Crash("a".into()), &Note::Skew(7)]);
        assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_millis(7));
        assert_eq!(k.run_to_quiescence(), 0, "the crashed process never ran");
    }

    #[test]
    fn reset_restores_boot_and_clears_the_touch_mark() {
        let log = Log::default();
        let mut k = Stub::new();
        k.spawn("a", steps("a", &log, vec![Action::Syscall(1)]));
        k.run_to_quiescence();
        k.exec.touch();
        assert!(k.exec.touched());
        k.exec.reset();
        assert!(!k.exec.touched());
        assert_eq!(k.now(), SimTime::ZERO);
        assert_eq!(*k.metrics(), KernelMetrics::default());
        assert!(k.trace().events().is_empty());
    }
}
