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
    AcId, AccessControlMatrix, Decision, DelegationLog, DenyReason, MsgType, MsgTypeSet,
    QuotaTable, SyscallClass,
};
use bas_sim::arena::MsgRef;
use bas_sim::caps::{take_due, CapChurnOp, CapOp, ChurnKind};
use bas_sim::clock::CostModel;
use bas_sim::device::DeviceId;
use bas_sim::fault::IpcFault;
use bas_sim::kernel::{Executive, Kernel, Task};
use bas_sim::metrics::KernelMetrics;
use bas_sim::process::{Pid, ProcState, ProgramFactory};
use bas_sim::time::SimDuration;
use bas_sim::trace::TraceLog;

use crate::endpoint::Endpoint;
use crate::error::MinixError;
use crate::grant::{GrantError, GrantId};
use crate::message::{Message, Payload};
use crate::pcb::{BlockReason, Pcb};
use crate::pm;
use crate::syscall::{Reply, Syscall};
use crate::trace::{AcmCap, Churn, Detail};

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
    task: Task<Syscall, Reply, BlockReason>,
}

struct Slot {
    generation: u16,
    entry: Option<ProcEntry>,
}

/// The simulated MINIX 3 kernel with ACM enforcement.
pub struct MinixKernel {
    slots: Vec<Slot>,
    /// Clock, scheduler, timers, trace, devices and the message arena:
    /// every in-flight payload lives in the arena and moves as an 8-byte
    /// [`MsgRef`] (blocked-sender PCBs, the dup stash), copied once in at
    /// `do_send` and once out at delivery.
    exec: Executive<Detail, CapChurnOp>,
    /// Registered program images by id. The names are shared: a fork
    /// hands its child the registry's `Arc`, so a process name is never
    /// copied.
    programs: Vec<(Arc<str>, ProgramFactory<Syscall, Reply>)>,
    names: BTreeMap<Arc<str>, Endpoint>,
    /// The live ACM. Shared (`Arc`) so a fleet of forked kernels can point
    /// at one boot matrix; copy-on-write via [`Arc::make_mut`] the moment
    /// a churn op mutates it, so sharing never changes semantics.
    acm: Arc<AccessControlMatrix>,
    /// The boot-time ACM, kept so [`Self::reset_to_boot`] can restore the
    /// pristine matrix after runtime churn.
    boot_acm: Arc<AccessControlMatrix>,
    quotas: QuotaTable,
    device_owners: BTreeMap<DeviceId, AcId>,
    /// Duplicated messages awaiting redelivery: `(source, dest, mtype,
    /// slot)`. Rendezvous IPC has no queue to double-enqueue into, so a
    /// `Duplicate` fault refcounts the slot here (no byte copy) and
    /// `do_receive` replays it on the destination's next receive.
    dup_stash: VecDeque<(Endpoint, Endpoint, u32, MsgRef)>,
    /// Armed churn ops: each fires once its matching successful admission
    /// check count reaches zero — deterministically *inside* the
    /// check→delivery window, which is the race the detector hunts.
    armed_churn: Vec<(CapChurnOp, u32)>,
    /// Provenance of runtime ACM mutations (audited by `bas-analysis`).
    delegations: DelegationLog,
    /// Memory buffers dead processes left behind, reused by later
    /// `MemCreate` calls, so a recycled kernel re-creates its processes'
    /// buffers without allocating.
    spare_buffers: Vec<Vec<u8>>,
}

impl std::fmt::Debug for MinixKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MinixKernel")
            .field("now", &self.now())
            .field("processes", &self.process_count())
            .field("metrics", &self.exec.metrics)
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
        names.insert("pm".into(), pm::PM_ENDPOINT);
        MinixKernel {
            slots,
            // One parked message per process slot is the structural bound
            // for rendezvous IPC.
            exec: Executive::new(config.cost_model, config.trace_capacity, config.max_procs),
            programs: Vec::new(),
            names,
            acm: acm.clone(),
            boot_acm: acm,
            quotas: config.quotas,
            device_owners: config.device_owners,
            dup_stash: VecDeque::new(),
            armed_churn: Vec::new(),
            delegations: DelegationLog::new(),
            spare_buffers: Vec::new(),
        }
    }

    // ----- construction-time API ------------------------------------------------

    /// Registers a program image that `fork2` can instantiate; returns its
    /// program id.
    pub fn register_program(
        &mut self,
        name: impl Into<Arc<str>>,
        factory: ProgramFactory<Syscall, Reply>,
    ) -> u32 {
        self.programs.push((name.into(), factory));
        (self.programs.len() - 1) as u32
    }

    /// Loads a process directly (boot-time loader path; at runtime use PM
    /// `fork2` messages). The process table, the name service and the
    /// spawn record all share `name`'s one allocation.
    ///
    /// # Errors
    ///
    /// Returns [`MinixError::ProcessTableFull`] when no slot is free.
    pub fn spawn(
        &mut self,
        name: impl Into<Arc<str>>,
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
            task: Task::new(logic),
        });
        self.names.insert(name.clone(), endpoint);
        self.exec.run_queue.enqueue(pid);
        self.exec.metrics.processes_created += 1;
        self.exec.record(
            Some(pid),
            Detail::Spawn {
                name,
                ac: ac_id,
                uid,
                ep: endpoint,
            },
        );
        Ok(endpoint)
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
                if let Some(entry) = slot.entry.take() {
                    self.spare_buffers.extend(entry.pcb.memory.into_buffers());
                }
            }
        }
        self.exec.reset();
        // The PM name is the only boot-time entry; every other name was
        // inserted by a spawn and dies with its process table.
        self.names.retain(|name, _| &**name == "pm");
        self.acm = self.boot_acm.clone();
        self.quotas.reset_usage();
        self.dup_stash.clear();
        self.armed_churn.clear();
        self.delegations = DelegationLog::new();
    }

    // ----- introspection --------------------------------------------------------

    // basbench's IPC calibration calls these three on a bare kernel
    // without the `Kernel` trait in scope.

    /// [`Kernel::run_to_quiescence`], callable without the trait in scope.
    pub fn run_to_quiescence(&mut self) -> usize {
        Kernel::run_to_quiescence(self)
    }

    /// [`Kernel::metrics`], callable without the trait in scope.
    pub fn metrics(&self) -> &KernelMetrics {
        Kernel::metrics(self)
    }

    /// [`Kernel::disable_trace`], callable without the trait in scope.
    pub fn disable_trace(&mut self) {
        Kernel::disable_trace(self);
    }

    /// The compiled-in ACM.
    pub fn acm(&self) -> &AccessControlMatrix {
        &self.acm
    }

    /// Provenance log of runtime ACM mutations.
    pub fn delegations(&self) -> &DelegationLog {
        &self.delegations
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
    /// (the first live holder; scenario identities are one-per-process),
    /// or to the identity's own text when nothing live holds it.
    fn name_of_ac(&self, ac: AcId) -> String {
        if ac == pm::PM_AC_ID {
            return "pm".to_string();
        }
        let holder = self.slots.iter().find_map(|s| {
            let e = s.entry.as_ref()?;
            (e.pcb.ac_id == ac).then(|| e.pcb.name.to_string())
        });
        holder.unwrap_or_else(|| ac.to_string())
    }

    /// The shared ACM-churn routine behind both the platform hook and the
    /// PM RPCs: applies `churn` to the matrix, keeps delegation provenance
    /// with `grantor`, and records it. `types` is the installed set for
    /// grants and the keep set for attenuation (ignored by revoke).
    /// Returns whether the matrix changed.
    fn churn_acm(&mut self, mut churn: Churn, grantor: AcId, types: MsgTypeSet) -> bool {
        let (sub_ac, dst_ac) = (churn.sub_ac, churn.dst_ac);
        // Copy-on-write: churn is the only ACM mutation, so forked kernels
        // share the boot matrix until the first churn op unshares it here.
        churn.changed = match churn.kind {
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
        let changed = churn.changed;
        self.exec.record(None, Detail::Churn(Box::new(churn)));
        changed
    }

    /// Fires any armed churn op matching a successful admission check by
    /// `caller` on `dest`.
    fn fire_armed_churn(&mut self, caller: Pid, dest: Pid) {
        let name = |pid| self.entry_ref(pid).map(|e| e.pcb.name.clone());
        let (sub_name, dst_name) = (name(caller), name(dest));
        let due = take_due(&mut self.armed_churn, |op| {
            sub_name.as_deref() == Some(&*op.subject) && dst_name.as_deref() == Some(&*op.object)
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

    // ----- syscall handling -----------------------------------------------------

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
                self.exec.ipc_copy(bytes);
                self.ready_with(caller, reply);
            }
            Err(err @ (GrantError::NotGrantee | GrantError::PermissionDenied)) => {
                let refused = Detail::GrantDeny {
                    caller: caller_ep,
                    grant,
                    granter,
                    err,
                };
                self.refuse(caller, refused, Reply::Err(grant_errno(err)));
            }
            Err(err) => self.ready_with(caller, Reply::Err(grant_errno(err))),
        }
    }

    /// Spends one unit of `ac`'s `class` quota, or returns the refusal
    /// to record when it is exhausted.
    fn spend(&mut self, ac: AcId, class: SyscallClass) -> Result<(), Detail> {
        self.quotas
            .charge(ac, class)
            .map_err(|_| Detail::QuotaDeny { ac, class })
    }

    fn do_device(&mut self, pid: Pid, dev: DeviceId, write: Option<i64>) {
        let Some(ac) = self.entry_ref(pid).map(|e| e.pcb.ac_id) else {
            return;
        };
        if self.device_owners.get(&dev) != Some(&ac) {
            let refused = Detail::DevDeny { dev, ac };
            return self.refuse(pid, refused, Reply::Err(MinixError::DeviceAccessDenied));
        }
        if let Some(value) = write {
            if let Err(spent) = self.spend(ac, SyscallClass::DeviceWrite) {
                return self.refuse(pid, spent, Reply::Err(MinixError::QuotaExceeded));
            }
            match self.exec.devices.write(dev, self.exec.clock.now(), value) {
                Ok(()) => {
                    self.exec.record(Some(pid), Detail::DevWrite { dev, value });
                    self.ready_with(pid, Reply::Ok);
                }
                Err(_) => self.ready_with(pid, Reply::Err(MinixError::InvalidArgument)),
            }
        } else {
            match self.exec.devices.read(dev, self.exec.clock.now()) {
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
        let dest_pid = self.lookup_live(dest);
        let dest_ac = match dest_pid {
            _ if dest == pm::PM_ENDPOINT => pm::PM_AC_ID,
            Some(pid) => self.entry_ref(pid).expect("live").pcb.ac_id,
            None => {
                self.exec.metrics.syscall_errors += 1;
                self.ready_with(caller, Reply::Err(MinixError::DeadSourceOrDestination));
                return;
            }
        };

        // 2. The mandatory ACM check — the paper's contribution.
        let decision = self.acm.check(caller_ac, dest_ac, MsgType::new(mtype));
        // Capability-stream instrumentation (application IPC only: PM has
        // no process-table entry, and its control traffic is not a
        // churnable right). A successful check may trip an armed churn op:
        // the mutation then lands *between* this admission check and the
        // delivery that trusts it.
        if let Some(dest_pid) = dest_pid {
            let ok = decision.is_allowed();
            if self.exec.cap_tracing() {
                let check = AcmCap {
                    op: CapOp::Check,
                    from: caller_ac,
                    to: dest_ac,
                    peer: dest_pid,
                    ok,
                };
                self.exec.record(Some(caller), Detail::AcmCap(check));
            }
            if ok && !self.armed_churn.is_empty() {
                self.fire_armed_churn(caller, dest_pid);
            }
        }
        if !decision.is_allowed() {
            let denied = Detail::AcmDeny {
                from: caller_ac,
                to: dest_ac,
                mtype,
                decision,
            };
            return self.refuse(caller, denied, Reply::Err(MinixError::CallDenied));
        }

        // 3. Optional send quota (flooding bound).
        if let Err(spent) = self.spend(caller_ac, SyscallClass::Send) {
            return self.refuse(caller, spent, Reply::Err(MinixError::QuotaExceeded));
        }

        // 4. PM is handled synchronously inside the kernel model, but the
        // *cost* is the real system's: PM is a user-space server, so every
        // PM operation pays the round trip — two context switches (to PM
        // and back) and PM's own kernel entry for its receive. PM traffic
        // never parks, so it bypasses the arena entirely.
        if dest == pm::PM_ENDPOINT {
            self.exec.ipc_deliver(Message::WIRE_SIZE);
            self.exec.context_switch();
            self.exec.context_switch();
            self.exec.kernel_entry();
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
        let msg = self.exec.arena.alloc(payload.as_bytes());

        // 3b. Scheduled IPC fault (`bas-faults` campaigns). Consumed only
        // *after* the ACM and quota gates and never on PM traffic, so an
        // injected fault can disturb authorized application IPC but can
        // neither widen authority nor corrupt platform management.
        if let Some(fault) = self.exec.ipc_faults.pop() {
            if let IpcFault::Delay(d) = fault {
                // The message sits in transit: the kernel pays the
                // latency, then delivery proceeds normally.
                self.exec.clock.advance(d);
            }
            self.exec.record(
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
                    self.exec.arena.free(msg);
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
                    let dup = self.exec.arena.dup(msg);
                    self.dup_stash.push_back((caller_ep, dest, mtype, dup));
                }
            }
        }

        // 5. Rendezvous.
        let dest_pid = self.lookup_live(dest).expect("validated above");
        let dest_ready = matches!(
            self.entry_ref(dest_pid).expect("live").task.state,
            ProcState::Blocked(BlockReason::Receiving { from })
                if from.is_none() || from == Some(caller_ep)
        );

        if dest_ready {
            self.deliver(caller_ep, dest_pid, mtype, msg);
            if sendrec {
                if let Some(entry) = self.entry_mut(caller) {
                    entry.task.state =
                        ProcState::Blocked(BlockReason::Receiving { from: Some(dest) });
                }
            } else {
                self.ready_with(caller, Reply::Ok);
            }
        } else if blocking {
            self.exec.metrics.ipc_waits += 1;
            if let Some(entry) = self.entry_mut(caller) {
                entry.task.state = ProcState::Blocked(BlockReason::Sending {
                    dest,
                    mtype,
                    msg,
                    sendrec,
                });
            }
        } else {
            self.exec.arena.free(msg);
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
            match &entry.task.state {
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
                    match &entry.task.state {
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
                        entry.task.state = ProcState::Blocked(BlockReason::Receiving {
                            from: Some(caller_ep),
                        });
                    }
                } else {
                    self.ready_with(sender_pid, Reply::Ok);
                }
            }
            None => {
                if let Some(entry) = self.entry_mut(caller) {
                    entry.task.state = ProcState::Blocked(BlockReason::Receiving { from });
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
            let denied = Detail::NotifyDeny {
                from: caller_ac,
                to: dest_ac,
            };
            return self.refuse(caller, denied, Reply::Err(MinixError::CallDenied));
        }

        let dest_waiting = matches!(
            self.entry_ref(dest_pid).expect("live").task.state,
            ProcState::Blocked(BlockReason::Receiving { from })
                if from.is_none() || from == Some(caller_ep)
        );
        if dest_waiting {
            self.ready_with(
                dest_pid,
                Reply::Msg(Message::new(caller_ep, pm::NOTIFY_MTYPE, Payload::zeroed())),
            );
            // A notification carries no payload: a delivery, no copy.
            self.exec.ipc_deliver(0);
        } else if let Some(entry) = self.entry_mut(dest_pid) {
            entry.pcb.queue_notify(caller_ep);
        }
        // Notify never blocks the caller.
        self.ready_with(caller, Reply::Ok);
    }

    /// Copies the staged message out of the arena (the one kernel→user
    /// copy), recycles its slot, and makes `dest` runnable with it.
    fn deliver(&mut self, source: Endpoint, dest: Pid, mtype: u32, msg: MsgRef) {
        self.exec.ipc_deliver(Message::WIRE_SIZE);
        self.exec.record(
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
        if self.exec.cap_tracing() {
            if let Some(sender) = self.lookup_live(source) {
                let from = self.entry_ref(sender).expect("live").pcb.ac_id;
                let to = self.entry_ref(dest).expect("live").pcb.ac_id;
                let ok = self.acm.check(from, to, MsgType::new(mtype)).is_allowed();
                let used = AcmCap {
                    op: CapOp::Use,
                    from,
                    to,
                    peer: dest,
                    ok,
                };
                self.exec.record(Some(sender), Detail::AcmCap(used));
            }
        }
        let payload = Payload::from_bytes(self.exec.arena.get(msg));
        self.exec.arena.free(msg);
        self.exec.metrics.hot_path_allocs = self.exec.arena.heap_events();
        self.ready_with(dest, Reply::Msg(Message::new(source, mtype, payload)));
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
                if let Err(spent) = self.spend(caller_ac, SyscallClass::Fork) {
                    self.exec.deny(caller, spent);
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
                let child_name: Arc<str> = if self.names.contains_key(prog_name) {
                    format!("{prog_name}#{}", self.exec.metrics.processes_created + 1).into()
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
                let refused = Detail::KillDeny {
                    by: caller_ep,
                    target,
                };
                if target == pm::PM_ENDPOINT {
                    self.exec.deny(caller, refused);
                    return Some((pm::PM_ERR, pm::encode_err(MinixError::PermissionDenied)));
                }
                if let Err(spent) = self.spend(caller_ac, SyscallClass::Kill) {
                    self.exec.deny(caller, spent);
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
                    self.exec.deny(caller, refused);
                    return Some((pm::PM_ERR, pm::encode_err(MinixError::PermissionDenied)));
                }
                self.exec.record(
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
                self.exec.record(Some(caller), Detail::PmExit);
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
                    .map(|e| e.pcb.name.to_string())
                    .unwrap_or_else(|| format!("{caller_ep}"));
                if kind == ChurnKind::Grant && caller_ac != pm::PM_AC_ID {
                    // The grantor's own row to `dst` must carry the types.
                    let own = self
                        .acm
                        .channel(caller_ac, dst_ac)
                        .unwrap_or(MsgTypeSet::EMPTY);
                    if types.intersect(own) != types {
                        let refused = Detail::AcmDeny {
                            from: caller_ac,
                            to: dst_ac,
                            mtype,
                            decision: Decision::Deny(DenyReason::TypeNotAllowed),
                        };
                        self.exec.deny(caller, refused);
                        return Some((pm::PM_ERR, pm::encode_err(MinixError::PermissionDenied)));
                    }
                }
                let churn = Churn {
                    actor,
                    kind,
                    sub_name: self.name_of_ac(sub_ac),
                    sub_ac,
                    dst_name: self.name_of_ac(dst_ac),
                    dst_ac,
                    changed: false,
                };
                let changed = self.churn_acm(churn, caller_ac, types);
                let mut p = Payload::zeroed();
                p.write_u32(0, u32::from(changed));
                Some((pm::PM_OK, p))
            }
            _ => Some((pm::PM_ERR, pm::encode_err(MinixError::InvalidArgument))),
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

impl Kernel for MinixKernel {
    type Syscall = Syscall;
    type Reply = Reply;
    type Block = BlockReason;
    type Detail = Detail;
    type Churn = CapChurnOp;

    const WAKE: Reply = Reply::Ok;

    #[inline]
    fn exec(&self) -> &Executive<Detail, CapChurnOp> {
        &self.exec
    }

    #[inline]
    fn exec_mut(&mut self) -> &mut Executive<Detail, CapChurnOp> {
        &mut self.exec
    }

    #[inline]
    fn task_mut(&mut self, pid: Pid) -> Option<&mut Task<Syscall, Reply, BlockReason>> {
        self.entry_mut(pid).map(|e| &mut e.task)
    }

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
            Syscall::Sleep { duration } => self.sleep(pid, duration),
            Syscall::GetUptime => {
                let now = self.now();
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
                let bytes = self.spare_buffers.pop().unwrap_or_default();
                let reply = match self.entry_mut(pid) {
                    Some(e) => Reply::Buf(e.pcb.memory.create_buffer_in(bytes, size)),
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
        if let ProcState::Blocked(BlockReason::Sending { msg, .. }) = entry.task.state {
            self.exec.arena.free(msg);
        }
        self.slots[pid.as_usize()].generation =
            self.slots[pid.as_usize()].generation.wrapping_add(1);
        self.exec.reap(pid);
        self.names.retain(|_, ep| *ep != dead_ep);
        self.spare_buffers.extend(entry.pcb.memory.into_buffers());
        let arena = &mut self.exec.arena;
        self.dup_stash.retain(|(src, dest, _, msg)| {
            let keep = *src != dead_ep && *dest != dead_ep;
            if !keep {
                arena.free(*msg);
            }
            keep
        });

        // Unblock anyone waiting on the dead process.
        let waiters: Vec<Pid> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(idx, s)| {
                let e = s.entry.as_ref()?;
                let blocked_on_dead = match &e.task.state {
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
            let parked = match self.entry_ref(w).map(|e| &e.task.state) {
                Some(ProcState::Blocked(BlockReason::Sending { msg, .. })) => Some(*msg),
                _ => None,
            };
            if let Some(m) = parked {
                self.exec.arena.free(m);
            }
            self.ready_with(w, Reply::Err(MinixError::DeadSourceOrDestination));
        }
    }

    /// PM has no process-table entry, so it never resolves (and cannot
    /// crash).
    fn pid_of(&self, name: &str) -> Option<Pid> {
        self.endpoint_of(name).and_then(|ep| self.lookup_live(ep))
    }

    fn any_alive(&self, pred: &mut dyn FnMut(&str) -> bool) -> bool {
        self.slots
            .iter()
            .filter_map(|s| s.entry.as_ref())
            .any(|e| pred(&e.pcb.name))
    }

    fn exit_detail(code: i32) -> Detail {
        Detail::Exit(code)
    }

    fn crash_detail(name: &str) -> Detail {
        Detail::Crash(name.into())
    }

    fn skew_detail(d: SimDuration) -> Detail {
        Detail::ClockSkew(d.as_millis())
    }

    /// Applies a mid-run capability mutation immediately. `subject` and
    /// `object` are process names; the op edits the ACM row between their
    /// access-control identities. Returns `false` if either name is
    /// unknown or the op was a no-op (e.g. revoking an absent row).
    fn apply_cap_churn(&mut self, op: &CapChurnOp) -> bool {
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
        let churn = Churn {
            actor: op.actor.clone(),
            kind: op.kind,
            sub_name: op.subject.clone(),
            sub_ac,
            dst_name: op.object.clone(),
            dst_ac,
            changed: false,
        };
        self.churn_acm(churn, pm::PM_AC_ID, types)
    }

    /// Arms `op` to fire right after the `after_checks`-th *successful*
    /// admission check on the same `subject → object` row. `0` fires on
    /// the next matching check. Firing inside the check→delivery window is
    /// what makes TOCTOU schedules deterministic on rendezvous IPC, where
    /// the parked-send window is microseconds wide.
    fn arm_cap_churn(&mut self, op: &CapChurnOp, after_checks: u32) {
        self.armed_churn.push((op.clone(), after_checks));
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
