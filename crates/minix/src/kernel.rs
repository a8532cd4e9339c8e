//! The simulated security-enhanced MINIX 3 kernel.
//!
//! Everything the paper relies on happens here, at the same enforcement
//! points as in the real system:
//!
//! 1. **All IPC transits the kernel** — there is no user-space channel.
//! 2. **Sender identity is kernel-stamped** — `do_send` writes the caller's
//!    endpoint into the delivered message; user input cannot influence it.
//! 3. **The ACM is consulted on every transfer** — before rendezvous, on
//!    non-blocking sends, and on notifications; denied requests are dropped
//!    with `ECALLDENIED`.
//! 4. **PM operations are messages** — `fork2`/`kill`/`exit` reach the PM
//!    server only through `do_send`, so the ACM gates them too.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use bas_acm::{
    AcId, AccessControlMatrix, DelegationLog, MsgType, MsgTypeSet, QuotaTable, SyscallClass,
};
use bas_sim::arena::{MsgArena, MsgRef};
use bas_sim::caps::{CapChurnOp, CapLog, CapOp, CapTrace, ChurnKind};
use bas_sim::clock::{CostModel, VirtualClock};
use bas_sim::device::{DeviceBus, DeviceId};
use bas_sim::fault::{IpcFault, IpcFaultState};
use bas_sim::metrics::KernelMetrics;
use bas_sim::process::{Action, Pid, ProcState, ProgramFactory};
use bas_sim::sched::RunQueue;
use bas_sim::time::SimDuration;
use bas_sim::time::SimTime;
use bas_sim::timer::TimerQueue;
use bas_sim::trace::TraceLog;

use crate::endpoint::Endpoint;
use crate::error::MinixError;
use crate::grant::{GrantError, GrantId};
use crate::message::{Message, Payload};
use crate::pcb::{BlockReason, Pcb};
use crate::pm;
use crate::syscall::{Reply, Syscall};
use crate::trace::{Churn, Detail};

/// A boxed MINIX user process.
pub type MinixProcess = Box<dyn bas_sim::process::Process<Syscall = Syscall, Reply = Reply>>;

/// Kernel construction parameters.
pub struct MinixConfig {
    /// Maximum number of process slots (including the PM slot). The fork
    /// bomb experiment exhausts this.
    pub max_procs: usize,
    /// Virtual-time cost model.
    pub cost_model: CostModel,
    /// The compiled-in access-control matrix.
    pub acm: AccessControlMatrix,
    /// Optional per-identity syscall quotas (the paper's future-work
    /// extension; empty = unlimited).
    pub quotas: QuotaTable,
    /// Which access-control identity owns each device.
    pub device_owners: BTreeMap<DeviceId, AcId>,
    /// Trace capacity in events.
    pub trace_capacity: usize,
}

impl Default for MinixConfig {
    fn default() -> Self {
        MinixConfig {
            max_procs: 32,
            cost_model: CostModel::default(),
            acm: AccessControlMatrix::deny_all(),
            quotas: QuotaTable::new(),
            device_owners: BTreeMap::new(),
            trace_capacity: TraceLog::<Detail>::DEFAULT_CAPACITY,
        }
    }
}

struct ProcEntry {
    pcb: Pcb,
    state: ProcState<BlockReason>,
    logic: Option<MinixProcess>,
    pending_reply: Option<Reply>,
}

struct Slot {
    generation: u16,
    entry: Option<ProcEntry>,
}

/// The simulated MINIX 3 kernel with ACM enforcement.
pub struct MinixKernel {
    slots: Vec<Slot>,
    run_queue: RunQueue,
    timers: TimerQueue,
    clock: VirtualClock,
    metrics: KernelMetrics,
    trace: TraceLog<Detail>,
    devices: DeviceBus,
    programs: Vec<(String, ProgramFactory<Syscall, Reply>)>,
    names: BTreeMap<String, Endpoint>,
    /// The live ACM. Shared (`Arc`) so a fleet of forked kernels can point
    /// at one boot matrix; copy-on-write via [`Arc::make_mut`] the moment
    /// a churn op mutates it, so sharing never changes semantics.
    acm: Arc<AccessControlMatrix>,
    /// The boot-time ACM, kept so [`Self::reset_to_boot`] can restore the
    /// pristine matrix after runtime churn.
    boot_acm: Arc<AccessControlMatrix>,
    quotas: QuotaTable,
    device_owners: BTreeMap<DeviceId, AcId>,
    last_run: Option<Pid>,
    ipc_faults: IpcFaultState,
    /// Fixed-slot message arena: every in-flight payload lives here and
    /// moves as an 8-byte [`MsgRef`] (blocked-sender PCBs, the dup stash).
    /// Bytes are copied once in at `do_send` and once out at delivery.
    arena: MsgArena,
    /// Duplicated messages awaiting redelivery: `(source, dest, mtype,
    /// slot)`. Rendezvous IPC has no queue to double-enqueue into, so a
    /// `Duplicate` fault refcounts the slot here (no byte copy) and
    /// `do_receive` replays it on the destination's next receive.
    dup_stash: VecDeque<(Endpoint, Endpoint, u32, MsgRef)>,
    /// Capability-operation event stream (disabled by default).
    cap_log: CapLog,
    /// Armed churn ops: each fires once its matching successful admission
    /// check count reaches zero — deterministically *inside* the
    /// check→delivery window, which is the race the detector hunts.
    armed_churn: Vec<(CapChurnOp, u32)>,
    /// Provenance of runtime ACM mutations (audited by `bas-analysis`).
    delegations: DelegationLog,
}

impl std::fmt::Debug for MinixKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MinixKernel")
            .field("now", &self.clock.now())
            .field("processes", &self.process_count())
            .field("metrics", &self.metrics)
            .finish()
    }
}

impl MinixKernel {
    /// Boots a kernel: slot 0 is reserved for the PM server.
    pub fn new(mut config: MinixConfig) -> Self {
        let acm = Arc::new(std::mem::replace(
            &mut config.acm,
            AccessControlMatrix::deny_all(),
        ));
        MinixKernel::with_shared_acm(config, acm)
    }

    /// Boots a kernel whose ACM is shared with other kernels behind an
    /// `Arc` — the snapshot-fork boot path, where every benign instance of
    /// a template points at one boot matrix. `config.acm` is ignored.
    /// Runtime churn copies on write, so sharing is unobservable.
    pub fn with_shared_acm(config: MinixConfig, acm: Arc<AccessControlMatrix>) -> Self {
        assert!(config.max_procs >= 2, "need at least PM plus one process");
        let mut slots = Vec::with_capacity(config.max_procs);
        for _ in 0..config.max_procs {
            slots.push(Slot {
                generation: 0,
                entry: None,
            });
        }
        let mut names = BTreeMap::new();
        names.insert("pm".to_string(), pm::PM_ENDPOINT);
        MinixKernel {
            slots,
            run_queue: RunQueue::new(),
            timers: TimerQueue::new(),
            clock: VirtualClock::new(config.cost_model),
            metrics: KernelMetrics::default(),
            trace: TraceLog::with_capacity(config.trace_capacity),
            devices: DeviceBus::new(),
            programs: Vec::new(),
            names,
            acm: acm.clone(),
            boot_acm: acm,
            quotas: config.quotas,
            device_owners: config.device_owners,
            last_run: None,
            ipc_faults: IpcFaultState::default(),
            // One parked message per process slot is the structural bound
            // for rendezvous IPC; pre-warming keeps the hot path free of
            // slot-table growth.
            arena: MsgArena::with_capacity(config.max_procs),
            dup_stash: VecDeque::new(),
            cap_log: CapLog::new(),
            armed_churn: Vec::new(),
            delegations: DelegationLog::new(),
        }
    }

    // ----- construction-time API ------------------------------------------------

    /// Registers a program image that `fork2` can instantiate; returns its
    /// program id.
    pub fn register_program(
        &mut self,
        name: impl Into<String>,
        factory: ProgramFactory<Syscall, Reply>,
    ) -> u32 {
        self.programs.push((name.into(), factory));
        (self.programs.len() - 1) as u32
    }

    /// Loads a process directly (boot-time loader path; at runtime use PM
    /// `fork2` messages).
    ///
    /// # Errors
    ///
    /// Returns [`MinixError::ProcessTableFull`] when no slot is free.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        ac_id: AcId,
        uid: u32,
        logic: MinixProcess,
    ) -> Result<Endpoint, MinixError> {
        let name = name.into();
        let slot_idx = self
            .slots
            .iter()
            .enumerate()
            .skip(1) // slot 0 is PM
            .find(|(_, s)| s.entry.is_none())
            .map(|(i, _)| i)
            .ok_or(MinixError::ProcessTableFull)?;
        let generation = self.slots[slot_idx].generation;
        let endpoint = Endpoint::new(slot_idx as u16, generation);
        let pid = Pid::new(slot_idx as u32);
        self.slots[slot_idx].entry = Some(ProcEntry {
            pcb: Pcb::new(pid, endpoint, name.clone(), ac_id, uid),
            state: ProcState::Runnable,
            logic: Some(logic),
            pending_reply: None,
        });
        self.names.insert(name.clone(), endpoint);
        self.run_queue.enqueue(pid);
        self.metrics.processes_created += 1;
        self.trace.record(
            self.clock.now(),
            Some(pid),
            Detail::Spawn {
                name: name.into(),
                ac: ac_id,
                uid,
                ep: endpoint,
            },
        );
        Ok(endpoint)
    }

    /// Mutable access to the device bus, for installing plant devices.
    pub fn devices_mut(&mut self) -> &mut DeviceBus {
        &mut self.devices
    }

    /// Returns the kernel to the state it had immediately after
    /// [`Self::new`] plus `register_program` calls — the snapshot-fork
    /// boot path. Registered programs and installed devices survive (both
    /// are boot-template state); everything mutable — processes, queues,
    /// timers, clock, metrics, traces, arena, runtime ACM churn, quota
    /// usage — is restored to its pristine boot value, reusing the live
    /// allocations instead of reallocating them. The caller re-runs the
    /// same boot-time `spawn` calls afterwards; byte-identity with a cold
    /// boot follows because the re-run population code observes exactly
    /// the state a fresh kernel presents.
    pub fn reset_to_boot(&mut self) {
        for slot in &mut self.slots {
            // Only touched slots need work: a slot with generation 0 and
            // no entry is already in its post-`new` state.
            if slot.generation != 0 || slot.entry.is_some() {
                slot.generation = 0;
                slot.entry = None;
            }
        }
        self.run_queue.clear();
        self.timers.clear();
        self.clock.reset();
        self.metrics = KernelMetrics::default();
        self.trace.clear();
        // The PM name is the only boot-time entry; every other name was
        // inserted by a spawn and dies with its process table.
        self.names.retain(|name, _| name == "pm");
        self.acm = self.boot_acm.clone();
        self.quotas.reset_usage();
        self.last_run = None;
        self.ipc_faults = IpcFaultState::default();
        self.arena.reset_to_capacity(self.slots.len());
        self.dup_stash.clear();
        self.cap_log = CapLog::new();
        self.armed_churn.clear();
        self.delegations = DelegationLog::new();
    }

    // ----- fault injection -------------------------------------------------------

    /// Armed one-shot IPC faults, consumed by application sends *after*
    /// the ACM and quota gates (PM traffic is exempt).
    pub fn ipc_faults_mut(&mut self) -> &mut IpcFaultState {
        &mut self.ipc_faults
    }

    /// Read access to the IPC fault queue (applied/pending counters).
    pub fn ipc_faults(&self) -> &IpcFaultState {
        &self.ipc_faults
    }

    /// Kills the named process outright (a simulated hardware/software
    /// crash — distinct from a PM kill, which is subject to DAC). Returns
    /// false if no live process bears the name. PM itself cannot crash.
    pub fn kill_named(&mut self, name: &str) -> bool {
        let Some(pid) = self.endpoint_of(name).and_then(|ep| self.lookup_live(ep)) else {
            return false;
        };
        self.trace
            .record(self.clock.now(), Some(pid), Detail::Crash(name.into()));
        self.terminate(pid);
        true
    }

    /// Jumps the kernel clock forward by `d` without running anyone — a
    /// tick-skew fault. The plant integrates the gap with whatever the
    /// actuators last held.
    pub fn skew_clock(&mut self, d: SimDuration) {
        self.clock.advance(d);
        self.trace
            .record(self.clock.now(), None, Detail::ClockSkew(d.as_millis()));
    }

    // ----- introspection --------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Kernel counters.
    pub fn metrics(&self) -> &KernelMetrics {
        &self.metrics
    }

    /// The event trace.
    pub fn trace(&self) -> &TraceLog<Detail> {
        &self.trace
    }

    /// Disables tracing (throughput benchmarks).
    pub fn disable_trace(&mut self) {
        self.trace.disable();
    }

    /// The compiled-in ACM.
    pub fn acm(&self) -> &AccessControlMatrix {
        &self.acm
    }

    /// Enables capability-operation recording (idempotent).
    pub fn enable_cap_trace(&mut self) {
        self.cap_log.enable();
    }

    /// Snapshots the capability-operation stream.
    pub fn cap_trace(&self) -> CapTrace {
        self.cap_log.trace()
    }

    /// Provenance log of runtime ACM mutations.
    pub fn delegations(&self) -> &DelegationLog {
        &self.delegations
    }

    /// Applies a mid-run capability mutation immediately. `subject` and
    /// `object` are process names; the op edits the ACM row between their
    /// access-control identities. Returns `false` if either name is
    /// unknown or the op was a no-op (e.g. revoking an absent row).
    pub fn apply_cap_churn(&mut self, op: &CapChurnOp) -> bool {
        let Some(sub_ac) = self.ac_of_name(&op.subject) else {
            return false;
        };
        let Some(dst_ac) = self.ac_of_name(&op.object) else {
            return false;
        };
        // Platform interpretation of the abstract op: grants install the
        // full type set; attenuation strips every payload-carrying type,
        // keeping only acknowledgments.
        let types = match op.kind {
            ChurnKind::Attenuate => MsgTypeSet::of([MsgType::ACK]),
            _ => MsgTypeSet::All,
        };
        self.churn_acm(
            op.kind,
            op.actor.clone(),
            pm::PM_AC_ID,
            sub_ac,
            dst_ac,
            types,
            &op.subject,
            &op.object,
        )
    }

    /// Arms `op` to fire right after the `after_checks`-th *successful*
    /// admission check on the same `subject → object` row. `0` fires on
    /// the next matching check. Firing inside the check→delivery window is
    /// what makes TOCTOU schedules deterministic on rendezvous IPC, where
    /// the parked-send window is microseconds wide.
    pub fn arm_cap_churn(&mut self, op: &CapChurnOp, after_checks: u32) {
        self.armed_churn.push((op.clone(), after_checks));
    }

    /// Resolves a process name to its access-control identity.
    fn ac_of_name(&self, name: &str) -> Option<AcId> {
        if name == "pm" {
            return Some(pm::PM_AC_ID);
        }
        let ep = self.names.get(name).copied()?;
        let pid = self.lookup_live(ep)?;
        Some(self.entry_ref(pid)?.pcb.ac_id)
    }

    /// Resolves an access-control identity back to a live process name
    /// (the first live holder; scenario identities are one-per-process).
    fn name_of_ac(&self, ac: AcId) -> Option<String> {
        if ac == pm::PM_AC_ID {
            return Some("pm".to_string());
        }
        self.slots.iter().find_map(|s| {
            let e = s.entry.as_ref()?;
            (e.pcb.ac_id == ac).then(|| e.pcb.name.clone())
        })
    }

    /// The shared ACM-churn routine behind both the platform hook and the
    /// PM RPCs: mutates the matrix, keeps delegation provenance, and emits
    /// the write event. `types` is the installed set for grants and the
    /// keep set for attenuation (ignored by revoke). Returns whether the
    /// matrix changed.
    #[allow(clippy::too_many_arguments)]
    fn churn_acm(
        &mut self,
        kind: ChurnKind,
        actor: String,
        grantor: AcId,
        sub_ac: AcId,
        dst_ac: AcId,
        types: MsgTypeSet,
        sub_name: &str,
        dst_name: &str,
    ) -> bool {
        // Copy-on-write: churn is the only ACM mutation, so forked kernels
        // share the boot matrix until the first churn op unshares it here.
        let changed = match kind {
            ChurnKind::Grant => {
                Arc::make_mut(&mut self.acm).grant_types(sub_ac, dst_ac, types);
                self.delegations.delegate(grantor, sub_ac, dst_ac, types);
                true
            }
            ChurnKind::Attenuate => {
                self.delegations.attenuate(sub_ac, dst_ac, types);
                Arc::make_mut(&mut self.acm).attenuate_types(sub_ac, dst_ac, types)
            }
            ChurnKind::Revoke => {
                self.delegations.revoke(sub_ac, dst_ac);
                Arc::make_mut(&mut self.acm).revoke_channel(sub_ac, dst_ac)
            }
        };
        let op = match kind {
            ChurnKind::Grant => CapOp::Grant,
            ChurnKind::Attenuate => CapOp::Attenuate,
            ChurnKind::Revoke => CapOp::Revoke,
        };
        self.cap_log.record_with(self.clock.now(), op, changed, || {
            (
                actor.clone(),
                format!("acm:{sub_ac}->{dst_ac}"),
                dst_name.to_string(),
            )
        });
        self.trace.record(
            self.clock.now(),
            None,
            Detail::Churn(Box::new(Churn {
                actor,
                kind,
                sub_name: sub_name.to_string(),
                sub_ac,
                dst_name: dst_name.to_string(),
                dst_ac,
            })),
        );
        changed
    }

    /// Fires any armed churn op matching a successful admission check on
    /// `sub_name → dst_name`.
    fn fire_armed_churn(&mut self, sub_name: &str, dst_name: &str) {
        let mut due = Vec::new();
        self.armed_churn.retain_mut(|(op, remaining)| {
            if op.subject == sub_name && op.object == dst_name {
                if *remaining == 0 {
                    due.push(op.clone());
                    return false;
                }
                *remaining -= 1;
            }
            true
        });
        for op in due {
            self.apply_cap_churn(&op);
        }
    }

    /// Reads a window of a live process's memory buffer — a debugger-style
    /// introspection hook used by tests and experiments (e.g. to inspect
    /// the controller's environment log).
    ///
    /// # Errors
    ///
    /// Returns `None` if the endpoint is dead or the read is invalid.
    pub fn read_process_buffer(
        &self,
        ep: Endpoint,
        buf: crate::grant::BufId,
        offset: usize,
        len: usize,
    ) -> Option<Vec<u8>> {
        let pid = self.lookup_live(ep)?;
        self.entry_ref(pid)?
            .pcb
            .memory
            .read_own(buf, offset, len)
            .ok()
    }

    /// True if the endpoint names a live process (PM counts as live).
    pub fn is_alive(&self, ep: Endpoint) -> bool {
        if ep == pm::PM_ENDPOINT {
            return true;
        }
        self.lookup_live(ep).is_some()
    }

    /// Resolves a registered process name.
    pub fn endpoint_of(&self, name: &str) -> Option<Endpoint> {
        self.names
            .get(name)
            .copied()
            .filter(|&ep| self.is_alive(ep))
    }

    /// Number of live user processes (excluding PM).
    pub fn process_count(&self) -> usize {
        self.slots.iter().filter(|s| s.entry.is_some()).count()
    }

    /// Names of live processes, sorted.
    pub fn alive_process_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .slots
            .iter()
            .filter_map(|s| s.entry.as_ref().map(|e| e.pcb.name.clone()))
            .collect();
        v.sort();
        v
    }

    // ----- execution ------------------------------------------------------------

    /// Runs until virtual time reaches `t` (or everything is idle with no
    /// timer before `t`, in which case the clock advances to `t`).
    pub fn run_until(&mut self, t: SimTime) {
        loop {
            self.fire_due_timers();
            if self.clock.now() >= t {
                return;
            }
            if let Some(pid) = self.run_queue.dequeue() {
                self.dispatch(pid);
            } else {
                match self.timers.next_deadline() {
                    Some(d) if d <= t => self.clock.advance_to(d),
                    _ => {
                        self.clock.advance_to(t);
                        return;
                    }
                }
            }
        }
    }

    /// Runs until no process is runnable and no timer is armed, up to
    /// `max_steps` dispatches (a safety bound for tests).
    pub fn run_to_quiescence(&mut self) -> usize {
        let mut steps = 0;
        loop {
            self.fire_due_timers();
            let Some(pid) = self.run_queue.dequeue() else {
                match self.timers.next_deadline() {
                    Some(d) => {
                        self.clock.advance_to(d);
                        continue;
                    }
                    None => return steps,
                }
            };
            self.dispatch(pid);
            steps += 1;
            assert!(steps < 5_000_000, "kernel failed to quiesce");
        }
    }

    fn fire_due_timers(&mut self) {
        let now = self.clock.now();
        while let Some(pid) = self.timers.pop_due(now) {
            if let Some(entry) = self.entry_mut(pid) {
                if matches!(entry.state, ProcState::Sleeping) {
                    entry.state = ProcState::Runnable;
                    entry.pending_reply = Some(Reply::Ok);
                    self.run_queue.enqueue(pid);
                }
            }
        }
    }

    fn dispatch(&mut self, pid: Pid) {
        let Some(entry) = self.entry_mut(pid) else {
            return;
        };
        if !entry.state.is_runnable() {
            return; // stale queue entry
        }
        let mut logic = entry.logic.take().expect("runnable process has logic");
        let reply = entry.pending_reply.take();

        if self.last_run != Some(pid) {
            self.clock.charge_context_switch();
            self.metrics.context_switches += 1;
            self.last_run = Some(pid);
        }
        self.clock.charge_user_compute();

        let action = logic.resume(reply);

        // The process may have been... it cannot have been killed during
        // resume (resume has no kernel access), so the slot is intact.
        if let Some(entry) = self.entry_mut(pid) {
            entry.logic = Some(logic);
        }

        match action {
            Action::Syscall(sys) => {
                self.metrics.kernel_entries += 1;
                self.clock.charge_kernel_entry();
                self.clock.charge_syscall_dispatch();
                self.handle_syscall(pid, sys);
            }
            Action::Yield => {
                self.run_queue.enqueue(pid);
            }
            Action::Exit(code) => {
                self.trace
                    .record(self.clock.now(), Some(pid), Detail::Exit(code));
                self.terminate(pid);
            }
        }
    }

    // ----- syscall handling -----------------------------------------------------

    fn handle_syscall(&mut self, pid: Pid, sys: Syscall) {
        match sys {
            Syscall::Send {
                dest,
                mtype,
                payload,
            } => self.do_send(pid, dest, mtype, payload, true, false),
            Syscall::SendRec {
                dest,
                mtype,
                payload,
            } => self.do_send(pid, dest, mtype, payload, true, true),
            Syscall::NbSend {
                dest,
                mtype,
                payload,
            } => self.do_send(pid, dest, mtype, payload, false, false),
            Syscall::Receive { from } => self.do_receive(pid, from),
            Syscall::Notify { dest } => self.do_notify(pid, dest),
            Syscall::Sleep { duration } => {
                let deadline = self.clock.now() + duration;
                self.timers.arm(deadline, pid);
                if let Some(entry) = self.entry_mut(pid) {
                    entry.state = ProcState::Sleeping;
                }
            }
            Syscall::GetUptime => {
                let now = self.clock.now();
                self.ready_with(pid, Reply::Uptime(now));
            }
            Syscall::WhoAmI => {
                let reply = self.entry_ref(pid).map(|e| Reply::Ident {
                    endpoint: e.pcb.endpoint,
                    ac_id: e.pcb.ac_id,
                    uid: e.pcb.uid,
                });
                if let Some(r) = reply {
                    self.ready_with(pid, r);
                }
            }
            Syscall::Lookup { name } => {
                let reply = match self.endpoint_of(&name) {
                    Some(ep) => Reply::Resolved(ep),
                    None => Reply::Err(MinixError::NoSuchProcess),
                };
                self.ready_with(pid, reply);
            }
            Syscall::DevRead { dev } => self.do_device(pid, dev, None),
            Syscall::DevWrite { dev, value } => self.do_device(pid, dev, Some(value)),
            Syscall::MemCreate { size } => {
                let reply = match self.entry_mut(pid) {
                    Some(e) => Reply::Buf(e.pcb.memory.create_buffer(size)),
                    None => return,
                };
                self.ready_with(pid, reply);
            }
            Syscall::MemWrite { buf, offset, data } => {
                let reply = match self.entry_mut(pid) {
                    Some(e) => match e.pcb.memory.write_own(buf, offset, &data) {
                        Ok(()) => Reply::Ok,
                        Err(err) => Reply::Err(grant_errno(err)),
                    },
                    None => return,
                };
                self.ready_with(pid, reply);
            }
            Syscall::MemRead { buf, offset, len } => {
                let reply = match self.entry_ref(pid) {
                    Some(e) => match e.pcb.memory.read_own(buf, offset, len) {
                        Ok(bytes) => Reply::Bytes(bytes),
                        Err(err) => Reply::Err(grant_errno(err)),
                    },
                    None => return,
                };
                self.ready_with(pid, reply);
            }
            Syscall::GrantCreate {
                buf,
                offset,
                len,
                grantee,
                perms,
            } => {
                let reply = match self.entry_mut(pid) {
                    Some(e) => match e.pcb.memory.create_grant(buf, offset, len, grantee, perms) {
                        Ok(g) => Reply::Granted(g),
                        Err(err) => Reply::Err(grant_errno(err)),
                    },
                    None => return,
                };
                self.ready_with(pid, reply);
            }
            Syscall::GrantRevoke { grant } => {
                let reply = match self.entry_mut(pid) {
                    Some(e) => match e.pcb.memory.revoke(grant) {
                        Ok(()) => Reply::Ok,
                        Err(err) => Reply::Err(grant_errno(err)),
                    },
                    None => return,
                };
                self.ready_with(pid, reply);
            }
            Syscall::SafeCopyFrom {
                granter,
                grant,
                offset,
                len,
            } => self.do_safe_copy(pid, granter, grant, offset, SafeCopyDir::From(len)),
            Syscall::SafeCopyTo {
                granter,
                grant,
                offset,
                data,
            } => self.do_safe_copy(pid, granter, grant, offset, SafeCopyDir::To(data)),
        }
    }

    /// Performs a safe-copy on behalf of `caller` against `granter`'s
    /// grant table. The caller's identity is its kernel-held endpoint —
    /// exactly as unforgeable as message sources — and the *grant itself*
    /// is the authorization, so no ACM row is consulted: the granter
    /// opted in explicitly.
    fn do_safe_copy(
        &mut self,
        caller: Pid,
        granter: Endpoint,
        grant: GrantId,
        offset: usize,
        dir: SafeCopyDir,
    ) {
        let Some(caller_ep) = self.entry_ref(caller).map(|e| e.pcb.endpoint) else {
            return;
        };
        let Some(granter_pid) = self.lookup_live(granter) else {
            self.ready_with(caller, Reply::Err(MinixError::DeadSourceOrDestination));
            return;
        };
        let result = {
            let granter_entry = self.entry_mut(granter_pid).expect("live");
            match dir {
                SafeCopyDir::From(len) => granter_entry
                    .pcb
                    .memory
                    .safe_copy_from(grant, caller_ep, offset, len)
                    .map(Reply::Bytes),
                SafeCopyDir::To(ref data) => granter_entry
                    .pcb
                    .memory
                    .safe_copy_to(grant, caller_ep, offset, data)
                    .map(|()| Reply::Ok),
            }
        };
        match result {
            Ok(reply) => {
                let bytes = match dir {
                    SafeCopyDir::From(len) => len,
                    SafeCopyDir::To(ref data) => data.len(),
                };
                self.metrics.ipc_bytes += bytes as u64;
                self.clock.charge_ipc_copy(bytes);
                self.ready_with(caller, reply);
            }
            Err(err) => {
                if matches!(err, GrantError::NotGrantee | GrantError::PermissionDenied) {
                    self.metrics.access_denied += 1;
                    self.trace.record(
                        self.clock.now(),
                        Some(caller),
                        Detail::GrantDeny {
                            caller: caller_ep,
                            grant,
                            granter,
                            err,
                        },
                    );
                }
                self.ready_with(caller, Reply::Err(grant_errno(err)));
            }
        }
    }

    fn do_device(&mut self, pid: Pid, dev: DeviceId, write: Option<i64>) {
        let Some(ac) = self.entry_ref(pid).map(|e| e.pcb.ac_id) else {
            return;
        };
        if self.device_owners.get(&dev) != Some(&ac) {
            self.metrics.access_denied += 1;
            self.trace
                .record(self.clock.now(), Some(pid), Detail::DevDeny { dev, ac });
            self.ready_with(pid, Reply::Err(MinixError::DeviceAccessDenied));
            return;
        }
        if let Some(value) = write {
            if self.quotas.charge(ac, SyscallClass::DeviceWrite).is_err() {
                self.ready_with(pid, Reply::Err(MinixError::QuotaExceeded));
                return;
            }
            match self.devices.write(dev, value) {
                Ok(()) => {
                    self.trace
                        .record(self.clock.now(), Some(pid), Detail::DevWrite { dev, value });
                    self.ready_with(pid, Reply::Ok);
                }
                Err(_) => self.ready_with(pid, Reply::Err(MinixError::InvalidArgument)),
            }
        } else {
            match self.devices.read(dev) {
                Ok(v) => self.ready_with(pid, Reply::DevValue(v)),
                Err(_) => self.ready_with(pid, Reply::Err(MinixError::InvalidArgument)),
            }
        }
    }

    fn do_send(
        &mut self,
        caller: Pid,
        dest: Endpoint,
        mtype: u32,
        payload: Payload,
        blocking: bool,
        sendrec: bool,
    ) {
        let Some((caller_ep, caller_ac)) = self
            .entry_ref(caller)
            .map(|e| (e.pcb.endpoint, e.pcb.ac_id))
        else {
            return;
        };

        // 1. Destination validity (slot + generation).
        let dest_ac = if dest == pm::PM_ENDPOINT {
            pm::PM_AC_ID
        } else {
            match self.lookup_live(dest) {
                Some(pid) => self.entry_ref(pid).expect("live").pcb.ac_id,
                None => {
                    self.metrics.syscall_errors += 1;
                    self.ready_with(caller, Reply::Err(MinixError::DeadSourceOrDestination));
                    return;
                }
            }
        };

        // 2. The mandatory ACM check — the paper's contribution.
        let decision = self.acm.check(caller_ac, dest_ac, MsgType::new(mtype));
        // Capability-stream instrumentation (application IPC only — PM
        // control traffic is not a churnable right). A successful check
        // may trip an armed churn op: the mutation then lands *between*
        // this admission check and the delivery that trusts it.
        if dest != pm::PM_ENDPOINT && (self.cap_log.enabled() || !self.armed_churn.is_empty()) {
            let sub_name = self
                .entry_ref(caller)
                .map(|e| e.pcb.name.clone())
                .unwrap_or_default();
            let dst_name = self
                .lookup_live(dest)
                .and_then(|p| self.entry_ref(p))
                .map(|e| e.pcb.name.clone())
                .unwrap_or_default();
            self.cap_log.record_with(
                self.clock.now(),
                CapOp::Check,
                decision.is_allowed(),
                || {
                    (
                        sub_name.clone(),
                        format!("acm:{caller_ac}->{dest_ac}"),
                        dst_name.clone(),
                    )
                },
            );
            if decision.is_allowed() {
                self.fire_armed_churn(&sub_name, &dst_name);
            }
        }
        if !decision.is_allowed() {
            self.metrics.access_denied += 1;
            self.trace.record(
                self.clock.now(),
                Some(caller),
                Detail::AcmDeny {
                    from: caller_ac,
                    to: dest_ac,
                    mtype,
                    decision,
                },
            );
            self.ready_with(caller, Reply::Err(MinixError::CallDenied));
            return;
        }

        // 3. Optional send quota (flooding bound).
        if self.quotas.charge(caller_ac, SyscallClass::Send).is_err() {
            self.metrics.access_denied += 1;
            self.trace.record(
                self.clock.now(),
                Some(caller),
                Detail::QuotaDeny {
                    ac: caller_ac,
                    class: SyscallClass::Send,
                },
            );
            self.ready_with(caller, Reply::Err(MinixError::QuotaExceeded));
            return;
        }

        // 4. PM is handled synchronously inside the kernel model, but the
        // *cost* is the real system's: PM is a user-space server, so every
        // PM operation pays the round trip — two context switches (to PM
        // and back) and PM's own kernel entry for its receive. PM traffic
        // never parks, so it bypasses the arena entirely.
        if dest == pm::PM_ENDPOINT {
            self.metrics.ipc_messages += 1;
            self.metrics.ipc_bytes += Message::WIRE_SIZE as u64;
            self.clock.charge_ipc_copy(Message::WIRE_SIZE);
            self.metrics.context_switches += 2;
            self.clock.charge_context_switch();
            self.clock.charge_context_switch();
            self.metrics.kernel_entries += 1;
            self.clock.charge_kernel_entry();
            if let Some((rtype, rpayload)) = self.handle_pm(caller, mtype, payload) {
                if sendrec {
                    self.ready_with(
                        caller,
                        Reply::Msg(Message::new(pm::PM_ENDPOINT, rtype, rpayload)),
                    );
                } else {
                    self.ready_with(caller, Reply::Ok);
                }
            }
            return;
        }

        // Stage the payload into the arena: the one user→kernel copy.
        // Everything downstream (fault stash, blocked-sender PCB, delivery)
        // moves the 8-byte handle.
        let msg = self.arena.alloc(payload.as_bytes());

        // 3b. Scheduled IPC fault (`bas-faults` campaigns). Consumed only
        // *after* the ACM and quota gates and never on PM traffic, so an
        // injected fault can disturb authorized application IPC but can
        // neither widen authority nor corrupt platform management.
        if let Some(fault) = self.ipc_faults.pop() {
            if let IpcFault::Delay(d) = fault {
                // The message sits in transit: the kernel pays the
                // latency, then delivery proceeds normally.
                self.clock.advance(d);
            }
            self.trace.record(
                self.clock.now(),
                Some(caller),
                Detail::Fault {
                    fault,
                    from: caller_ep,
                    to: dest,
                    mtype,
                },
            );
            match fault {
                IpcFault::Drop => {
                    self.arena.free(msg);
                    // A plain send looks delivered; a sendrec fails so
                    // the caller cannot hang on a reply that will
                    // never arrive.
                    if sendrec {
                        self.ready_with(caller, Reply::Err(MinixError::NotReady));
                    } else {
                        self.ready_with(caller, Reply::Ok);
                    }
                    return;
                }
                IpcFault::Delay(_) => {}
                IpcFault::Duplicate => {
                    // Refcount the slot instead of copying the payload.
                    let dup = self.arena.dup(msg);
                    self.dup_stash.push_back((caller_ep, dest, mtype, dup));
                }
            }
        }

        // 5. Rendezvous.
        let dest_pid = self.lookup_live(dest).expect("validated above");
        let dest_ready = matches!(
            self.entry_ref(dest_pid).expect("live").state,
            ProcState::Blocked(BlockReason::Receiving { from })
                if from.is_none() || from == Some(caller_ep)
        );

        if dest_ready {
            self.deliver(caller_ep, dest_pid, mtype, msg);
            if sendrec {
                if let Some(entry) = self.entry_mut(caller) {
                    entry.state = ProcState::Blocked(BlockReason::Receiving { from: Some(dest) });
                }
            } else {
                self.ready_with(caller, Reply::Ok);
            }
        } else if blocking {
            self.metrics.ipc_waits += 1;
            if let Some(entry) = self.entry_mut(caller) {
                entry.state = ProcState::Blocked(BlockReason::Sending {
                    dest,
                    mtype,
                    msg,
                    sendrec,
                });
            }
        } else {
            self.arena.free(msg);
            self.ready_with(caller, Reply::Err(MinixError::NotReady));
        }
    }

    fn do_receive(&mut self, caller: Pid, from: Option<Endpoint>) {
        let Some(caller_ep) = self.entry_ref(caller).map(|e| e.pcb.endpoint) else {
            return;
        };

        // Pending notifications have delivery priority (as in MINIX 3).
        let notify = self.entry_mut(caller).and_then(|e| e.pcb.take_notify(from));
        if let Some(source) = notify {
            self.ready_with(
                caller,
                Reply::Msg(Message::new(source, pm::NOTIFY_MTYPE, Payload::zeroed())),
            );
            return;
        }

        // Stashed duplicates (Duplicate IPC fault) replay ahead of new
        // rendezvous partners, mimicking a transport that re-presented an
        // already-consumed message.
        let dup_idx = self.dup_stash.iter().position(|(src, dest, _, _)| {
            *dest == caller_ep && (from.is_none() || from == Some(*src))
        });
        if let Some(idx) = dup_idx {
            let (src, _, mtype, msg) = self.dup_stash.remove(idx).expect("index valid");
            self.deliver(src, caller, mtype, msg);
            return;
        }

        // Find the lowest-slot sender blocked on us that matches the filter.
        let candidate = self.slots.iter().enumerate().find_map(|(idx, s)| {
            let entry = s.entry.as_ref()?;
            match &entry.state {
                ProcState::Blocked(BlockReason::Sending { dest, .. })
                    if *dest == caller_ep
                        && (from.is_none() || from == Some(entry.pcb.endpoint)) =>
                {
                    Some(Pid::new(idx as u32))
                }
                _ => None,
            }
        });

        match candidate {
            Some(sender_pid) => {
                let (sender_ep, mtype, msg, sendrec) = {
                    let entry = self.entry_ref(sender_pid).expect("candidate live");
                    match &entry.state {
                        ProcState::Blocked(BlockReason::Sending {
                            mtype,
                            msg,
                            sendrec,
                            ..
                        }) => (entry.pcb.endpoint, *mtype, *msg, *sendrec),
                        _ => unreachable!("candidate was sending"),
                    }
                };
                self.deliver(sender_ep, caller, mtype, msg);
                if sendrec {
                    if let Some(entry) = self.entry_mut(sender_pid) {
                        entry.state = ProcState::Blocked(BlockReason::Receiving {
                            from: Some(caller_ep),
                        });
                    }
                } else {
                    self.ready_with(sender_pid, Reply::Ok);
                }
            }
            None => {
                if let Some(entry) = self.entry_mut(caller) {
                    entry.state = ProcState::Blocked(BlockReason::Receiving { from });
                }
            }
        }
    }

    fn do_notify(&mut self, caller: Pid, dest: Endpoint) {
        let Some((caller_ep, caller_ac)) = self
            .entry_ref(caller)
            .map(|e| (e.pcb.endpoint, e.pcb.ac_id))
        else {
            return;
        };
        let Some(dest_pid) = self.lookup_live(dest) else {
            self.ready_with(caller, Reply::Err(MinixError::DeadSourceOrDestination));
            return;
        };
        let dest_ac = self.entry_ref(dest_pid).expect("live").pcb.ac_id;
        if !self
            .acm
            .check(caller_ac, dest_ac, MsgType::new(pm::NOTIFY_MTYPE))
            .is_allowed()
        {
            self.metrics.access_denied += 1;
            self.trace.record(
                self.clock.now(),
                Some(caller),
                Detail::NotifyDeny {
                    from: caller_ac,
                    to: dest_ac,
                },
            );
            self.ready_with(caller, Reply::Err(MinixError::CallDenied));
            return;
        }

        let dest_waiting = matches!(
            self.entry_ref(dest_pid).expect("live").state,
            ProcState::Blocked(BlockReason::Receiving { from })
                if from.is_none() || from == Some(caller_ep)
        );
        if dest_waiting {
            self.ready_with(
                dest_pid,
                Reply::Msg(Message::new(caller_ep, pm::NOTIFY_MTYPE, Payload::zeroed())),
            );
            self.metrics.ipc_messages += 1;
        } else if let Some(entry) = self.entry_mut(dest_pid) {
            entry.pcb.queue_notify(caller_ep);
        }
        // Notify never blocks the caller.
        self.ready_with(caller, Reply::Ok);
    }

    /// Copies the staged message out of the arena (the one kernel→user
    /// copy), recycles its slot, and makes `dest` runnable with it.
    fn deliver(&mut self, source: Endpoint, dest: Pid, mtype: u32, msg: MsgRef) {
        self.metrics.ipc_messages += 1;
        self.metrics.ipc_bytes += Message::WIRE_SIZE as u64;
        self.clock.charge_ipc_copy(Message::WIRE_SIZE);
        self.trace.record(
            self.clock.now(),
            Some(dest),
            Detail::Deliver {
                from: source,
                to: dest,
                mtype,
            },
        );
        // Capability-stream instrumentation: the delivery *uses* the right
        // that `do_send` admitted, without re-checking it — exactly MINIX's
        // behavior. The recorded `ok` is an observer-only recheck against
        // the *current* ACM; `ok = false` on a delivered message is the
        // stale-handle use the race detector flags.
        if self.cap_log.enabled() {
            if let Some((src_ac, src_name)) = self
                .lookup_live(source)
                .and_then(|p| self.entry_ref(p))
                .map(|e| (e.pcb.ac_id, e.pcb.name.clone()))
            {
                let dst = self.entry_ref(dest).expect("delivery target live");
                let (dst_ac, dst_name) = (dst.pcb.ac_id, dst.pcb.name.clone());
                let still_ok = self
                    .acm
                    .check(src_ac, dst_ac, MsgType::new(mtype))
                    .is_allowed();
                let now = self.clock.now();
                let use_seq = self.cap_log.record_with(now, CapOp::Use, still_ok, || {
                    (
                        src_name.clone(),
                        format!("acm:{src_ac}->{dst_ac}"),
                        dst_name.clone(),
                    )
                });
                let recv_seq = self.cap_log.record_with(now, CapOp::Recv, true, || {
                    (
                        dst_name.clone(),
                        format!("acm:{src_ac}->{dst_ac}"),
                        dst_name.clone(),
                    )
                });
                self.cap_log.edge(use_seq, recv_seq);
            }
        }
        let payload = Payload::from_bytes(self.arena.get(msg));
        self.arena.free(msg);
        self.metrics.hot_path_allocs = self.arena.heap_events();
        self.ready_with(dest, Reply::Msg(Message::new(source, mtype, payload)));
    }

    fn ready_with(&mut self, pid: Pid, reply: Reply) {
        if let Some(entry) = self.entry_mut(pid) {
            entry.pending_reply = Some(reply);
            entry.state = ProcState::Runnable;
            self.run_queue.enqueue(pid);
        }
    }

    // ----- PM server -------------------------------------------------------------

    /// Handles a message addressed to PM; returns the reply `(mtype,
    /// payload)` or `None` when the caller terminated.
    fn handle_pm(&mut self, caller: Pid, mtype: u32, payload: Payload) -> Option<(u32, Payload)> {
        let (caller_ac, caller_uid, caller_ep) = {
            let e = self.entry_ref(caller)?;
            (e.pcb.ac_id, e.pcb.uid, e.pcb.endpoint)
        };
        match mtype {
            pm::PM_FORK2 | pm::PM_SRV_FORK2 => {
                if self.quotas.charge(caller_ac, SyscallClass::Fork).is_err() {
                    self.trace.record(
                        self.clock.now(),
                        Some(caller),
                        Detail::QuotaDeny {
                            ac: caller_ac,
                            class: SyscallClass::Fork,
                        },
                    );
                    return Some((pm::PM_ERR, pm::encode_err(MinixError::QuotaExceeded)));
                }
                let (program_id, child_ac, child_uid) = pm::decode_fork2(&payload);
                let Some((prog_name, factory)) = self.programs.get(program_id as usize) else {
                    return Some((pm::PM_ERR, pm::encode_err(MinixError::NoSuchProgram)));
                };
                let child_logic = factory();
                // First instance of a program keeps the program name (so
                // name-service lookups find the well-known processes);
                // further instances — e.g. fork-bomb children — get a
                // uniquifying suffix.
                let child_name = if self.names.contains_key(prog_name.as_str()) {
                    format!("{prog_name}#{}", self.metrics.processes_created + 1)
                } else {
                    prog_name.clone()
                };
                match self.spawn(child_name, child_ac, child_uid, child_logic) {
                    Ok(child_ep) => Some((pm::PM_OK, pm::encode_fork2_ok(child_ep))),
                    Err(e) => Some((pm::PM_ERR, pm::encode_err(e))),
                }
            }
            pm::PM_KILL => {
                let target = pm::decode_kill(&payload);
                if target == pm::PM_ENDPOINT {
                    return Some((pm::PM_ERR, pm::encode_err(MinixError::PermissionDenied)));
                }
                if self.quotas.charge(caller_ac, SyscallClass::Kill).is_err() {
                    return Some((pm::PM_ERR, pm::encode_err(MinixError::QuotaExceeded)));
                }
                let Some(target_pid) = self.lookup_live(target) else {
                    return Some((pm::PM_ERR, pm::encode_err(MinixError::NoSuchProcess)));
                };
                let target_uid = self.entry_ref(target_pid).expect("live").pcb.uid;
                // POSIX-style DAC check. Note: on MINIX this is *in
                // addition to* the ACM having allowed the KILL message type
                // at all.
                if caller_uid != 0 && caller_uid != target_uid {
                    return Some((pm::PM_ERR, pm::encode_err(MinixError::PermissionDenied)));
                }
                self.trace.record(
                    self.clock.now(),
                    Some(caller),
                    Detail::PmKill {
                        by: caller_ep,
                        target,
                    },
                );
                self.terminate(target_pid);
                if target_pid == caller {
                    return None;
                }
                Some((pm::PM_OK, Payload::zeroed()))
            }
            pm::PM_EXIT => {
                self.trace
                    .record(self.clock.now(), Some(caller), Detail::PmExit);
                self.terminate(caller);
                None
            }
            pm::PM_GETPID => {
                let mut p = Payload::zeroed();
                p.write_u32(0, caller.as_u32());
                p.write_u32(4, caller_ep.as_raw());
                Some((pm::PM_OK, p))
            }
            pm::PM_DELEGATE | pm::PM_REVOKE | pm::PM_ATTENUATE => {
                // Runtime policy churn as a PM RPC. The ACM already gated
                // whether the caller may send this message type to PM at
                // all (step 2 of `do_send`), mirroring how the paper's
                // policy gates `kill`. Delegation is additionally bounded
                // by the grantor's own authority: a caller can only hand
                // out (a subset of) rights it holds itself.
                let (sub_ac, dst_ac, types) = pm::decode_cap_rpc(&payload);
                let kind = match mtype {
                    pm::PM_DELEGATE => ChurnKind::Grant,
                    pm::PM_REVOKE => ChurnKind::Revoke,
                    _ => ChurnKind::Attenuate,
                };
                let actor = self
                    .entry_ref(caller)
                    .map(|e| e.pcb.name.clone())
                    .unwrap_or_else(|| format!("{caller_ep}"));
                if kind == ChurnKind::Grant && caller_ac != pm::PM_AC_ID {
                    let own = self
                        .acm
                        .channel(caller_ac, dst_ac)
                        .unwrap_or(MsgTypeSet::EMPTY);
                    if types.intersect(own) != types {
                        self.metrics.access_denied += 1;
                        return Some((pm::PM_ERR, pm::encode_err(MinixError::PermissionDenied)));
                    }
                }
                let sub_name = self
                    .name_of_ac(sub_ac)
                    .unwrap_or_else(|| format!("{sub_ac}"));
                let dst_name = self
                    .name_of_ac(dst_ac)
                    .unwrap_or_else(|| format!("{dst_ac}"));
                let changed = self.churn_acm(
                    kind, actor, caller_ac, sub_ac, dst_ac, types, &sub_name, &dst_name,
                );
                let mut p = Payload::zeroed();
                p.write_u32(0, u32::from(changed));
                Some((pm::PM_OK, p))
            }
            _ => Some((pm::PM_ERR, pm::encode_err(MinixError::InvalidArgument))),
        }
    }

    // ----- termination -----------------------------------------------------------

    fn terminate(&mut self, pid: Pid) {
        let Some(entry) = self
            .slots
            .get_mut(pid.as_usize())
            .and_then(|s| s.entry.take())
        else {
            return;
        };
        let dead_ep = entry.pcb.endpoint;
        // The dead process may hold a staged send; recycle its slot.
        if let ProcState::Blocked(BlockReason::Sending { msg, .. }) = entry.state {
            self.arena.free(msg);
        }
        self.slots[pid.as_usize()].generation =
            self.slots[pid.as_usize()].generation.wrapping_add(1);
        self.run_queue.remove(pid);
        self.timers.cancel(pid);
        self.names.retain(|_, ep| *ep != dead_ep);
        let arena = &mut self.arena;
        self.dup_stash.retain(|(src, dest, _, msg)| {
            let keep = *src != dead_ep && *dest != dead_ep;
            if !keep {
                arena.free(*msg);
            }
            keep
        });
        self.metrics.processes_reaped += 1;
        if self.last_run == Some(pid) {
            self.last_run = None;
        }

        // Unblock anyone waiting on the dead process.
        let waiters: Vec<Pid> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(idx, s)| {
                let e = s.entry.as_ref()?;
                let blocked_on_dead = match &e.state {
                    ProcState::Blocked(BlockReason::Sending { dest, .. }) => *dest == dead_ep,
                    ProcState::Blocked(BlockReason::Receiving { from }) => *from == Some(dead_ep),
                    _ => false,
                };
                blocked_on_dead.then(|| Pid::new(idx as u32))
            })
            .collect();
        for w in waiters {
            // A waiter parked in a send to the dead process still owns a
            // staged slot; recycle it before unblocking with an error.
            let parked = match self.entry_ref(w).map(|e| &e.state) {
                Some(ProcState::Blocked(BlockReason::Sending { msg, .. })) => Some(*msg),
                _ => None,
            };
            if let Some(m) = parked {
                self.arena.free(m);
            }
            self.ready_with(w, Reply::Err(MinixError::DeadSourceOrDestination));
        }
    }

    // ----- slot helpers ---------------------------------------------------------

    fn lookup_live(&self, ep: Endpoint) -> Option<Pid> {
        let slot = self.slots.get(ep.slot() as usize)?;
        let entry = slot.entry.as_ref()?;
        (entry.pcb.endpoint == ep).then_some(entry.pcb.pid)
    }

    fn entry_ref(&self, pid: Pid) -> Option<&ProcEntry> {
        self.slots
            .get(pid.as_usize())
            .and_then(|s| s.entry.as_ref())
    }

    fn entry_mut(&mut self, pid: Pid) -> Option<&mut ProcEntry> {
        self.slots
            .get_mut(pid.as_usize())
            .and_then(|s| s.entry.as_mut())
    }
}

enum SafeCopyDir {
    From(usize),
    To(Vec<u8>),
}

/// Maps grant-table failures to MINIX errnos.
fn grant_errno(err: GrantError) -> MinixError {
    match err {
        GrantError::NotGrantee | GrantError::PermissionDenied => MinixError::PermissionDenied,
        GrantError::NoSuchBuffer | GrantError::NoSuchGrant | GrantError::OutOfBounds => {
            MinixError::InvalidArgument
        }
    }
}
