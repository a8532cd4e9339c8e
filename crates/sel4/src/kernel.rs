//! The simulated seL4 kernel.
//!
//! The kernel's entire access-control state is the set of capabilities in
//! thread CSpaces; there is no ambient authority, no uid, no name service.
//! "The designers of seL4 wanted a minimal kernel where all access-control
//! policy was specified in user space. To do this, the kernel simply hands
//! over all capabilities to the bootstrap process" — the bootstrap path
//! here is the `create_*`/`grant_*` API used by `bas-capdl`'s realizer.

use bas_sim::arena::MsgRef;
use bas_sim::caps::{take_due, CapOp, ChurnKind};
use bas_sim::clock::CostModel;
use bas_sim::device::DeviceId;
use bas_sim::fault::IpcFault;
use bas_sim::kernel::{Executive, Kernel, Task};
use bas_sim::process::{Pid, ProcState};
use bas_sim::time::SimDuration;
use bas_sim::trace::TraceLog;

use crate::cap::{CPtr, CapTarget, Capability};
use crate::cspace::CSpace;
use crate::error::Sel4Error;
use crate::message::{DeliveredMessage, IpcMessage};
use crate::objects::{KernelObject, ObjId};
use crate::rights::CapRights;
use crate::syscall::{Reply, RetypeKind, Syscall};
use crate::trace::{Churn, Detail};

/// A boxed seL4 user thread.
pub type Sel4Thread = Box<dyn bas_sim::process::Process<Syscall = Syscall, Reply = Reply>>;

/// Why a thread is blocked (the kernel's [`Kernel::Block`]).
#[derive(Debug)]
pub enum Block {
    SendingOn { ep: ObjId, queued: QueuedSend },
    ReceivingOn { ep: ObjId },
    WaitingNtfn { ntfn: ObjId },
    AwaitingReply,
}

/// A parked send's staged transfer.
#[derive(Debug)]
pub struct QueuedSend {
    badge: u64,
    label: u64,
    /// Arena handle to the staged message registers (owns one slot
    /// reference; freed when the transfer completes or aborts).
    words: MsgRef,
    /// Capabilities to transfer, each paired with its source slot in the
    /// sender's CSpace (the receiver's copy becomes its CDT child).
    caps: Vec<(Capability, CPtr)>,
    is_call: bool,
}

struct ThreadEntry {
    name: String,
    cspace: CSpace,
    task: Task<Syscall, Reply, Block>,
    /// The one-shot reply capability installed by a received `Call`.
    reply_slot: Option<Capability>,
    started: bool,
}

/// Kernel construction parameters.
#[derive(Debug, Clone)]
pub struct Sel4Config {
    /// Maximum number of threads.
    pub max_threads: usize,
    /// CSpace size per thread.
    pub cspace_slots: usize,
    /// Virtual-time cost model.
    pub cost_model: CostModel,
    /// Trace capacity in events.
    pub trace_capacity: usize,
}

impl Default for Sel4Config {
    fn default() -> Self {
        Sel4Config {
            max_threads: 32,
            cspace_slots: 64,
            cost_model: CostModel::default(),
            trace_capacity: TraceLog::<Detail>::DEFAULT_CAPACITY,
        }
    }
}

/// The simulated seL4 kernel.
pub struct Sel4Kernel {
    config: Sel4Config,
    objects: Vec<KernelObject>,
    threads: Vec<Option<ThreadEntry>>,
    /// Clock, scheduler, timers, trace, devices and the message arena:
    /// staged message registers live in the arena while a send is
    /// parked, and queues and thread states move 8-byte handles.
    exec: Executive<Detail>,
    /// Armed churn sweeps: each fires after its matching successful send
    /// admission check count reaches zero — inside the check→delivery
    /// TOCTOU window by construction.
    armed_churn: Vec<(ChurnSweep, u32)>,
    /// Lightweight capability derivation tree: `(holder, slot)` of a
    /// derived capability → `(holder, slot)` it was minted or transferred
    /// from. Roots (bootstrap grants) have no entry. Revoke sweeps walk
    /// this to delete descendants, as seL4's CDT-based `revoke` does.
    cdt: std::collections::BTreeMap<(u32, u32), (u32, u32)>,
}

/// A resolved mid-run capability mutation on the seL4 platform: act on
/// every capability `holder` has over the listed endpoint objects (plus
/// CDT descendants for revoke/attenuate). The platform layer resolves
/// abstract `CapChurnOp` subject/object names to this form, since only it
/// knows which realized endpoints serve which process.
#[derive(Debug, Clone)]
pub struct ChurnSweep {
    /// The mutation.
    pub kind: ChurnKind,
    /// Acting subject recorded in the event stream.
    pub actor: String,
    /// The thread whose capabilities change.
    pub holder: Pid,
    /// The endpoint objects in scope.
    pub objs: Vec<ObjId>,
    /// Granted rights (grant) or the keep-mask (attenuate).
    pub rights: CapRights,
    /// Badge for newly granted capabilities.
    pub badge: u64,
}

impl std::fmt::Debug for Sel4Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sel4Kernel")
            .field("now", &self.now())
            .field("objects", &self.objects.len())
            .field("threads", &self.thread_count())
            .field("metrics", &self.exec.metrics)
            .finish()
    }
}

impl Sel4Kernel {
    /// Boots an empty kernel.
    pub fn new(config: Sel4Config) -> Self {
        Sel4Kernel {
            objects: Vec::new(),
            threads: Vec::new(),
            // One parked send per thread bounds the slot working set.
            exec: Executive::new(config.cost_model, config.trace_capacity, config.max_threads),
            armed_churn: Vec::new(),
            cdt: std::collections::BTreeMap::new(),
            config,
        }
    }

    /// Returns the kernel to the state it had immediately after
    /// [`Self::new`] — the snapshot-fork boot path. Installed bus devices
    /// survive (boot-template state); kernel objects, threads, the CDT and
    /// every other mutable structure are emptied in place, reusing live
    /// allocations. The caller re-runs the realizer over the (shared)
    /// CapDL spec afterwards, which re-creates objects and threads in the
    /// same order a cold boot would — so object ids, CSpace layouts and
    /// the whole subsequent run are byte-identical.
    pub fn reset_to_boot(&mut self) {
        self.objects.clear();
        self.threads.clear();
        self.exec.reset();
        self.armed_churn.clear();
        self.cdt.clear();
    }

    // ----- bootstrap API ----------------------------------------------------

    /// Allocates an endpoint object.
    pub fn create_endpoint(&mut self) -> ObjId {
        self.alloc_object(KernelObject::Endpoint)
    }

    /// Allocates a notification object.
    pub fn create_notification(&mut self) -> ObjId {
        self.alloc_object(KernelObject::Notification { word: 0 })
    }

    /// Allocates a device object mapping a simulated device.
    pub fn create_device(&mut self, dev: DeviceId) -> ObjId {
        self.alloc_object(KernelObject::Device { dev })
    }

    /// Allocates an untyped-memory region of `total` bytes.
    pub fn create_untyped(&mut self, total: usize) -> ObjId {
        self.alloc_object(KernelObject::Untyped { total, consumed: 0 })
    }

    /// Creates a thread (initially suspended) and its TCB object; returns
    /// the thread's pid.
    ///
    /// # Panics
    ///
    /// Panics if the thread table is full.
    pub fn create_thread(&mut self, name: impl Into<String>, logic: Sel4Thread) -> Pid {
        assert!(
            self.threads.len() < self.config.max_threads,
            "thread table full"
        );
        let pid = Pid::new(self.threads.len() as u32);
        self.threads.push(Some(ThreadEntry {
            name: name.into(),
            cspace: CSpace::new(self.config.cspace_slots),
            task: Task::new(logic),
            reply_slot: None,
            started: false,
        }));
        let tcb = self.alloc_object(KernelObject::Tcb { pid });
        let _ = tcb;
        self.exec.metrics.processes_created += 1;
        pid
    }

    /// The TCB object backing `pid`, if the thread exists.
    pub fn tcb_of(&self, pid: Pid) -> Option<ObjId> {
        self.objects.iter().enumerate().find_map(|(i, o)| match o {
            KernelObject::Tcb { pid: p } if *p == pid => Some(ObjId::new(i as u32)),
            _ => None,
        })
    }

    /// Installs an arbitrary capability into a thread's next free slot.
    ///
    /// # Errors
    ///
    /// Returns [`Sel4Error::InvalidCapability`] for an unknown thread, or
    /// [`Sel4Error::NoFreeSlot`] if the CSpace is full.
    pub fn grant_cap(&mut self, pid: Pid, cap: Capability) -> Result<CPtr, Sel4Error> {
        let entry = self.entry_mut(pid).ok_or(Sel4Error::InvalidCapability)?;
        let slot = entry.cspace.insert(cap)?;
        // A fresh grant is a CDT root: clear any stale derivation record
        // left by a previously revoked occupant of the slot.
        self.cdt.remove(&(pid.as_u32(), slot.slot()));
        Ok(slot)
    }

    /// Installs a capability at an explicit slot (CapDL layouts).
    ///
    /// # Errors
    ///
    /// Propagates CSpace insertion errors.
    pub fn grant_cap_at(&mut self, pid: Pid, slot: CPtr, cap: Capability) -> Result<(), Sel4Error> {
        let entry = self.entry_mut(pid).ok_or(Sel4Error::InvalidCapability)?;
        entry.cspace.insert_at(slot, cap)?;
        self.cdt.remove(&(pid.as_u32(), slot.slot()));
        Ok(())
    }

    /// Convenience: grants an endpoint capability.
    ///
    /// # Errors
    ///
    /// Propagates [`Sel4Kernel::grant_cap`] errors.
    pub fn grant_endpoint(
        &mut self,
        pid: Pid,
        ep: ObjId,
        rights: CapRights,
        badge: u64,
    ) -> Result<CPtr, Sel4Error> {
        self.grant_cap(pid, Capability::to_object(ep, rights, badge))
    }

    /// Makes a created thread runnable.
    pub fn start_thread(&mut self, pid: Pid) {
        if let Some(entry) = self.entry_mut(pid) {
            if !entry.started {
                entry.started = true;
                entry.task.state = ProcState::Runnable;
            }
        }
        self.exec.run_queue.enqueue(pid);
        self.exec.record(Some(pid), Detail::ThreadStart);
    }

    // ----- capability churn ----------------------------------------------------

    /// Applies a resolved churn sweep immediately. Returns `true` if any
    /// capability actually changed (a revoke of an absent capability or an
    /// attenuation already in effect returns `false`).
    pub fn apply_churn_sweep(&mut self, sweep: &ChurnSweep) -> bool {
        let holder_name = self
            .entry_ref(sweep.holder)
            .map(|e| e.name.clone())
            .unwrap_or_default();
        let mut any = false;
        for &obj in &sweep.objs {
            let changed = match sweep.kind {
                ChurnKind::Grant => self
                    .grant_cap(
                        sweep.holder,
                        Capability::to_object(obj, sweep.rights, sweep.badge),
                    )
                    .is_ok(),
                ChurnKind::Attenuate => {
                    let slots = self.matching_slots(sweep.holder, obj);
                    let mut n = 0;
                    for slot in slots {
                        n += self.attenuate_cap_and_descendants(sweep.holder, slot, sweep.rights);
                    }
                    n > 0
                }
                ChurnKind::Revoke => {
                    let slots = self.matching_slots(sweep.holder, obj);
                    let mut n = 0;
                    for slot in slots {
                        n += self.remove_cap_and_descendants(sweep.holder, slot);
                    }
                    n > 0
                }
            };
            let op = CapOp::from(sweep.kind);
            self.exec.cap_log.record_with(self.now(), op, changed, || {
                (
                    sweep.actor.clone(),
                    format!("{holder_name}:{obj}"),
                    format!("{obj}"),
                )
            });
            self.exec.record(
                None,
                Detail::Churn(Box::new(Churn {
                    actor: sweep.actor.clone(),
                    kind: sweep.kind,
                    holder: holder_name.clone(),
                    obj,
                })),
            );
            any |= changed;
        }
        any
    }

    /// Arms `sweep` to fire right after the `after_checks`-th successful
    /// send admission check by `sweep.holder` on any endpoint in
    /// `sweep.objs` (`0` fires on the next matching check) — landing the
    /// mutation deterministically inside the check→delivery window.
    pub fn arm_churn_sweep(&mut self, sweep: ChurnSweep, after_checks: u32) {
        self.armed_churn.push((sweep, after_checks));
    }

    /// Slots in `holder`'s CSpace holding capabilities to `obj`.
    fn matching_slots(&self, holder: Pid, obj: ObjId) -> Vec<CPtr> {
        self.entry_ref(holder)
            .map(|e| {
                e.cspace
                    .iter()
                    .filter(|(_, c)| c.object() == Some(obj))
                    .map(|(p, _)| p)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Deletes the capability at `(holder, slot)` and every CDT descendant
    /// (mints and transfers derived from it), as seL4's `revoke` does.
    /// Returns how many capabilities were deleted.
    fn remove_cap_and_descendants(&mut self, holder: Pid, slot: CPtr) -> usize {
        let mut queue = vec![(holder.as_u32(), slot.slot())];
        let mut removed = 0;
        while let Some(key) = queue.pop() {
            let children: Vec<(u32, u32)> = self
                .cdt
                .iter()
                .filter(|(_, parent)| **parent == key)
                .map(|(child, _)| *child)
                .collect();
            queue.extend(children);
            if let Some(entry) = self.entry_mut(Pid::new(key.0)) {
                if entry.cspace.remove(CPtr::new(key.1)).is_ok() {
                    removed += 1;
                }
            }
            self.cdt.remove(&key);
        }
        removed
    }

    /// Narrows the rights of the capability at `(holder, slot)` and every
    /// CDT descendant to their intersection with `keep`. Returns how many
    /// capabilities actually changed.
    fn attenuate_cap_and_descendants(&mut self, holder: Pid, slot: CPtr, keep: CapRights) -> usize {
        let mut queue = vec![(holder.as_u32(), slot.slot())];
        let mut changed = 0;
        while let Some(key) = queue.pop() {
            let children: Vec<(u32, u32)> = self
                .cdt
                .iter()
                .filter(|(_, parent)| **parent == key)
                .map(|(child, _)| *child)
                .collect();
            queue.extend(children);
            if let Some(entry) = self.entry_mut(Pid::new(key.0)) {
                let cptr = CPtr::new(key.1);
                if let Ok(cap) = entry.cspace.lookup(cptr) {
                    let narrowed = Capability {
                        target: cap.target,
                        rights: cap.rights.intersect(keep),
                        badge: cap.badge,
                    };
                    if narrowed.rights != cap.rights && entry.cspace.replace(cptr, narrowed).is_ok()
                    {
                        changed += 1;
                    }
                }
            }
        }
        changed
    }

    /// Fires any armed churn sweep matching a successful admission check
    /// by `caller` on endpoint `ep`.
    fn fire_armed_churn(&mut self, caller: Pid, ep: ObjId) {
        let due = take_due(&mut self.armed_churn, |sweep| {
            sweep.holder == caller && sweep.objs.contains(&ep)
        });
        for sweep in due {
            self.apply_churn_sweep(&sweep);
        }
    }

    /// A thread's CSpace (CapDL verification reads this).
    pub fn cspace_of(&self, pid: Pid) -> Option<&CSpace> {
        self.entry_ref(pid).map(|e| &e.cspace)
    }

    /// The kernel object behind an id.
    pub fn object(&self, obj: ObjId) -> Option<&KernelObject> {
        self.objects.get(obj.as_usize())
    }

    /// Finds a live thread by name.
    pub fn thread_named(&self, name: &str) -> Option<Pid> {
        self.threads.iter().enumerate().find_map(|(i, t)| {
            t.as_ref()
                .filter(|e| e.name == name)
                .map(|_| Pid::new(i as u32))
        })
    }

    /// True if the thread exists and has not been suspended/terminated.
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.entry_ref(pid).is_some()
    }

    /// Number of live threads.
    pub fn thread_count(&self) -> usize {
        self.threads.iter().filter(|t| t.is_some()).count()
    }

    // ----- syscalls --------------------------------------------------------------

    fn do_retype(&mut self, caller: Pid, untyped_ptr: CPtr, kind: RetypeKind) {
        let cap = match self
            .entry_ref(caller)
            .expect("caller alive")
            .cspace
            .lookup(untyped_ptr)
        {
            Ok(c) => c,
            Err(e) => return self.deny(caller, e, "retype"),
        };
        let Some(obj) = cap.object() else {
            return self.deny(caller, Sel4Error::WrongObjectType, "retype via reply cap");
        };
        if !matches!(self.object(obj), Some(KernelObject::Untyped { .. })) {
            return self.deny(caller, Sel4Error::WrongObjectType, "retype of non-untyped");
        }
        if !cap.rights.write {
            return self.deny(
                caller,
                Sel4Error::InsufficientRights,
                "retype without write",
            );
        }
        // Charge the region; creation is bounded by explicit authority.
        let size = kind.size_bytes();
        {
            let Some(KernelObject::Untyped { total, consumed }) =
                self.objects.get_mut(obj.as_usize())
            else {
                unreachable!("checked above");
            };
            if *consumed + size > *total {
                self.ready_with(caller, Reply::Err(Sel4Error::OutOfMemory));
                return;
            }
            *consumed += size;
        }
        let new_obj = match kind {
            RetypeKind::Endpoint => self.alloc_object(KernelObject::Endpoint),
            RetypeKind::Notification => self.alloc_object(KernelObject::Notification { word: 0 }),
        };
        let r = match self
            .entry_mut(caller)
            .expect("caller alive")
            .cspace
            .insert(Capability::to_object(new_obj, CapRights::ALL, 0))
        {
            Ok(slot) => Reply::Slot(slot),
            Err(e) => Reply::Err(e),
        };
        self.exec
            .record(Some(caller), Detail::Retype { kind, from: obj });
        self.ready_with(caller, r);
    }

    fn lookup_ep_cap(&self, pid: Pid, cptr: CPtr) -> Result<(ObjId, Capability), Sel4Error> {
        let cap = self
            .entry_ref(pid)
            .ok_or(Sel4Error::InvalidCapability)?
            .cspace
            .lookup(cptr)?;
        match cap.target {
            CapTarget::Object(obj) => match self.object(obj) {
                Some(KernelObject::Endpoint) => Ok((obj, cap)),
                _ => Err(Sel4Error::WrongObjectType),
            },
            CapTarget::Reply(_) => Err(Sel4Error::WrongObjectType),
        }
    }

    fn deny(&mut self, pid: Pid, err: Sel4Error, what: &'static str) {
        self.exec.deny(pid, Detail::CapDeny { what, err });
        self.ready_with(pid, Reply::Err(err));
    }

    fn do_send(
        &mut self,
        caller: Pid,
        ep_ptr: CPtr,
        msg: IpcMessage,
        blocking: bool,
        is_call: bool,
    ) {
        let (ep, cap) = match self.lookup_ep_cap(caller, ep_ptr) {
            Ok(v) => v,
            Err(e) => return self.deny(caller, e, "send"),
        };
        // Capability-stream instrumentation: one admission-check event per
        // send attempt that *found* a capability (a revoked capability
        // fails the lookup above and never reaches this gate). A
        // successful check may trip an armed churn sweep: the mutation
        // then lands between this check and the delivery that trusts it.
        let rights_ok = cap.rights.write
            && (!is_call || cap.rights.grant)
            && (msg.caps.is_empty() || cap.rights.grant);
        if self.exec.cap_log.enabled() || !self.armed_churn.is_empty() {
            let caller_name = self
                .entry_ref(caller)
                .map(|e| e.name.clone())
                .unwrap_or_default();
            self.exec
                .cap_log
                .record_with(self.now(), CapOp::Check, rights_ok, || {
                    (
                        caller_name.clone(),
                        format!("{caller_name}:{ep}"),
                        format!("{ep}"),
                    )
                });
            if rights_ok {
                self.fire_armed_churn(caller, ep);
            }
        }
        if !cap.rights.write {
            return self.deny(caller, Sel4Error::InsufficientRights, "send without write");
        }
        if is_call && !cap.rights.grant {
            // Paper: "If a thread is given grant access to an endpoint it
            // can use seL4_Call."
            return self.deny(caller, Sel4Error::InsufficientRights, "call without grant");
        }
        if !msg.caps.is_empty() && !cap.rights.grant {
            return self.deny(
                caller,
                Sel4Error::InsufficientRights,
                "cap transfer without grant",
            );
        }

        // Resolve capabilities to transfer from the sender's CSpace,
        // keeping the source slot so the receiver's copy can be linked
        // into the derivation tree.
        let mut caps = Vec::with_capacity(msg.caps.len());
        for src in &msg.caps {
            match self
                .entry_ref(caller)
                .expect("caller alive")
                .cspace
                .lookup(*src)
            {
                Ok(c) => caps.push((c, *src)),
                Err(e) => return self.deny(caller, e, "transfer source missing"),
            }
        }

        // Scheduled IPC fault (`bas-faults` campaigns). Consumed only
        // *after* every capability rights check passed, so an injected
        // fault can disturb authorized IPC but cannot bypass the
        // capability gate.
        if let Some(fault) = self.exec.ipc_faults.pop() {
            match fault {
                IpcFault::Drop => {
                    self.exec.record(
                        Some(caller),
                        Detail::FaultDrop {
                            caller,
                            ep,
                            label: msg.label,
                        },
                    );
                    // A Call aborts (the reply can never come); a one-way
                    // send looks delivered.
                    if is_call {
                        self.ready_with(caller, Reply::Err(Sel4Error::NotReady));
                    } else {
                        self.ready_with(caller, Reply::Ok);
                    }
                    return;
                }
                IpcFault::Delay(d) => {
                    // The transfer stalls in the kernel: pay the latency,
                    // then rendezvous normally.
                    self.exec.clock.advance(d);
                    self.exec.record(
                        Some(caller),
                        Detail::FaultDelay {
                            caller,
                            ep,
                            ms: d.as_millis(),
                        },
                    );
                }
                IpcFault::Duplicate => {
                    // Rendezvous IPC has no queue to double-enqueue into
                    // and the one-shot reply capability absorbs a replayed
                    // Call, so the duplicate is absorbed (and recorded).
                    self.exec
                        .record(Some(caller), Detail::FaultDuplicate { caller, ep });
                }
            }
        }

        // Stage the message registers into the arena: the one user→kernel
        // copy. The parked send and the endpoint queue move the handle.
        let queued = QueuedSend {
            badge: cap.badge,
            label: msg.label,
            words: self.exec.arena.alloc_words(&msg.words),
            caps,
            is_call,
        };

        if let Some(receiver) = self.find_receiver(ep) {
            self.rendezvous(caller, receiver, ep, queued);
        } else if blocking {
            self.exec.metrics.ipc_waits += 1;
            if let Some(entry) = self.entry_mut(caller) {
                entry.task.state = ProcState::Blocked(Block::SendingOn { ep, queued });
            }
        } else {
            self.ready_with(caller, Reply::Err(Sel4Error::NotReady));
        }
    }

    fn do_recv(&mut self, caller: Pid, ep_ptr: CPtr, blocking: bool) {
        let (ep, cap) = match self.lookup_ep_cap(caller, ep_ptr) {
            Ok(v) => v,
            Err(e) => return self.deny(caller, e, "recv"),
        };
        if !cap.rights.read {
            return self.deny(caller, Sel4Error::InsufficientRights, "recv without read");
        }

        // Lowest-pid sender blocked on this endpoint.
        let sender = self.threads.iter().enumerate().find_map(|(i, t)| {
            let e = t.as_ref()?;
            match &e.task.state {
                ProcState::Blocked(Block::SendingOn { ep: s_ep, .. }) if *s_ep == ep => {
                    Some(Pid::new(i as u32))
                }
                _ => None,
            }
        });

        match sender {
            Some(sender_pid) => {
                let queued = {
                    let entry = self.entry_mut(sender_pid).expect("sender alive");
                    match std::mem::replace(&mut entry.task.state, ProcState::Runnable) {
                        ProcState::Blocked(Block::SendingOn { queued, .. }) => queued,
                        _ => unreachable!("sender was sending"),
                    }
                };
                self.rendezvous_with_waiting_receiver(sender_pid, caller, ep, queued);
            }
            None if blocking => {
                if let Some(entry) = self.entry_mut(caller) {
                    entry.task.state = ProcState::Blocked(Block::ReceivingOn { ep });
                }
            }
            None => self.ready_with(caller, Reply::Err(Sel4Error::NotReady)),
        }
    }

    /// Completes a rendezvous where the receiver was found blocked.
    fn rendezvous(&mut self, sender: Pid, receiver: Pid, ep: ObjId, queued: QueuedSend) {
        // Receiver was blocked ReceivingOn; clear its state first.
        if let Some(entry) = self.entry_mut(receiver) {
            entry.task.state = ProcState::Runnable;
        }
        self.complete_transfer(sender, receiver, ep, queued);
    }

    /// Completes a rendezvous where the sender was found blocked (receiver
    /// just called recv).
    fn rendezvous_with_waiting_receiver(
        &mut self,
        sender: Pid,
        receiver: Pid,
        ep: ObjId,
        queued: QueuedSend,
    ) {
        self.complete_transfer(sender, receiver, ep, queued);
    }

    fn complete_transfer(&mut self, sender: Pid, receiver: Pid, ep: ObjId, queued: QueuedSend) {
        let QueuedSend {
            badge,
            label,
            words: words_ref,
            caps,
            is_call,
        } = queued;
        // The one kernel→user copy: unpack the registers and recycle the
        // slot before handing the message to the receiver.
        let words = self.exec.arena.get_words(words_ref);
        self.exec.arena.free(words_ref);
        self.exec.metrics.hot_path_allocs = self.exec.arena.heap_events();

        // Install transferred caps into the receiver's CSpace; drops on
        // overflow (with a trace record), as real seL4 truncates. Each
        // installed copy is a CDT child of the sender's source slot, so a
        // later revoke sweep on the sender reaps it too.
        let mut received_caps = Vec::new();
        for (c, src_slot) in caps {
            match self
                .entry_mut(receiver)
                .expect("receiver alive")
                .cspace
                .insert(c)
            {
                Ok(slot) => {
                    self.cdt.insert(
                        (receiver.as_u32(), slot.slot()),
                        (sender.as_u32(), src_slot.slot()),
                    );
                    received_caps.push(slot);
                }
                Err(_) => self.exec.record(Some(receiver), Detail::CapDropped),
            }
        }

        let bytes = 8 + words.len() * 8;
        self.exec.metrics.ipc_messages += 1;
        self.exec.metrics.ipc_bytes += bytes as u64;
        self.exec.clock.charge_ipc_copy(bytes);
        self.exec.record(
            Some(receiver),
            Detail::Deliver {
                sender,
                receiver,
                label,
                badge,
            },
        );

        // Capability-stream instrumentation: the delivery *uses* the
        // admission decision made at send time without re-checking — real
        // seL4 behavior. `ok` is an observer-only recheck against the
        // sender's *current* CSpace; `ok = false` on a delivered message
        // is the stale-handle use the race detector flags.
        if self.exec.cap_log.enabled() {
            let sender_name = self
                .entry_ref(sender)
                .map(|e| e.name.clone())
                .unwrap_or_default();
            let receiver_name = self
                .entry_ref(receiver)
                .map(|e| e.name.clone())
                .unwrap_or_default();
            let still_ok = self
                .entry_ref(sender)
                .map(|e| {
                    e.cspace
                        .iter()
                        .any(|(_, c)| c.object() == Some(ep) && c.rights.write)
                })
                .unwrap_or(false);
            let now = self.now();
            let use_seq = self
                .exec
                .cap_log
                .record_with(now, CapOp::Use, still_ok, || {
                    (
                        sender_name.clone(),
                        format!("{sender_name}:{ep}"),
                        format!("{ep}"),
                    )
                });
            let recv_seq = self.exec.cap_log.record_with(now, CapOp::Recv, true, || {
                (
                    receiver_name.clone(),
                    format!("{sender_name}:{ep}"),
                    format!("{ep}"),
                )
            });
            self.exec.cap_log.edge(use_seq, recv_seq);
        }

        if is_call {
            if let Some(entry) = self.entry_mut(receiver) {
                entry.reply_slot = Some(Capability::reply_to(sender));
            }
            if let Some(entry) = self.entry_mut(sender) {
                entry.task.state = ProcState::Blocked(Block::AwaitingReply);
            }
        } else {
            self.ready_with(sender, Reply::Ok);
        }

        self.ready_with(
            receiver,
            Reply::Msg(DeliveredMessage {
                badge,
                label,
                words,
                received_caps,
                reply_expected: is_call,
            }),
        );
    }

    fn do_reply(&mut self, caller: Pid, msg: IpcMessage) {
        let reply_cap = match self.entry_mut(caller).and_then(|e| e.reply_slot.take()) {
            Some(c) => c,
            None => return self.deny(caller, Sel4Error::NoReplyCap, "reply"),
        };
        let CapTarget::Reply(target) = reply_cap.target else {
            return self.deny(caller, Sel4Error::WrongObjectType, "reply slot corrupt");
        };

        // Resolve transferred caps (a reply cap carries grant).
        let mut caps = Vec::with_capacity(msg.caps.len());
        for src in &msg.caps {
            match self
                .entry_ref(caller)
                .expect("caller alive")
                .cspace
                .lookup(*src)
            {
                Ok(c) => caps.push(c),
                Err(e) => return self.deny(caller, e, "reply transfer source missing"),
            }
        }

        let target_waiting = matches!(
            self.entry_ref(target).map(|e| &e.task.state),
            Some(ProcState::Blocked(Block::AwaitingReply))
        );
        if !target_waiting {
            // Reply caps are one-shot: if the caller died or was restarted
            // the reply is silently dropped (seL4 semantics).
            self.exec.record(Some(caller), Detail::ReplyDropped(target));
            self.ready_with(caller, Reply::Ok);
            return;
        }

        let mut received_caps = Vec::new();
        for c in caps {
            if let Ok(slot) = self
                .entry_mut(target)
                .expect("target alive")
                .cspace
                .insert(c)
            {
                received_caps.push(slot);
            }
        }

        let bytes = 8 + msg.words.len() * 8;
        self.exec.metrics.ipc_messages += 1;
        self.exec.metrics.ipc_bytes += bytes as u64;
        self.exec.clock.charge_ipc_copy(bytes);

        self.ready_with(
            target,
            Reply::Msg(DeliveredMessage {
                badge: 0,
                label: msg.label,
                words: msg.words,
                received_caps,
                reply_expected: false,
            }),
        );
        self.ready_with(caller, Reply::Ok);
    }

    fn do_signal(&mut self, caller: Pid, ntfn_ptr: CPtr) {
        let cap = match self
            .entry_ref(caller)
            .expect("caller alive")
            .cspace
            .lookup(ntfn_ptr)
        {
            Ok(c) => c,
            Err(e) => return self.deny(caller, e, "signal"),
        };
        let Some(obj) = cap.object() else {
            return self.deny(caller, Sel4Error::WrongObjectType, "signal on reply cap");
        };
        if !matches!(self.object(obj), Some(KernelObject::Notification { .. })) {
            return self.deny(
                caller,
                Sel4Error::WrongObjectType,
                "signal on non-notification",
            );
        }
        if !cap.rights.write {
            return self.deny(
                caller,
                Sel4Error::InsufficientRights,
                "signal without write",
            );
        }

        let waiter = self.threads.iter().enumerate().find_map(|(i, t)| {
            let e = t.as_ref()?;
            match &e.task.state {
                ProcState::Blocked(Block::WaitingNtfn { ntfn }) if *ntfn == obj => {
                    Some(Pid::new(i as u32))
                }
                _ => None,
            }
        });

        let signal_bits = if cap.badge == 0 { 1 } else { cap.badge };
        match waiter {
            Some(w) => {
                self.ready_with(
                    w,
                    Reply::Msg(DeliveredMessage {
                        badge: signal_bits,
                        label: 0,
                        words: vec![],
                        received_caps: vec![],
                        reply_expected: false,
                    }),
                );
            }
            None => {
                if let Some(KernelObject::Notification { word }) =
                    self.objects.get_mut(obj.as_usize())
                {
                    *word |= signal_bits;
                }
            }
        }
        self.ready_with(caller, Reply::Ok);
    }

    fn do_wait(&mut self, caller: Pid, ntfn_ptr: CPtr) {
        let cap = match self
            .entry_ref(caller)
            .expect("caller alive")
            .cspace
            .lookup(ntfn_ptr)
        {
            Ok(c) => c,
            Err(e) => return self.deny(caller, e, "wait"),
        };
        let Some(obj) = cap.object() else {
            return self.deny(caller, Sel4Error::WrongObjectType, "wait on reply cap");
        };
        if !cap.rights.read {
            return self.deny(caller, Sel4Error::InsufficientRights, "wait without read");
        }
        match self.objects.get_mut(obj.as_usize()) {
            Some(KernelObject::Notification { word }) => {
                if *word != 0 {
                    let bits = std::mem::take(word);
                    self.ready_with(
                        caller,
                        Reply::Msg(DeliveredMessage {
                            badge: bits,
                            label: 0,
                            words: vec![],
                            received_caps: vec![],
                            reply_expected: false,
                        }),
                    );
                } else if let Some(entry) = self.entry_mut(caller) {
                    entry.task.state = ProcState::Blocked(Block::WaitingNtfn { ntfn: obj });
                }
            }
            _ => self.deny(
                caller,
                Sel4Error::WrongObjectType,
                "wait on non-notification",
            ),
        }
    }

    fn do_mint(&mut self, caller: Pid, src: CPtr, rights: CapRights, badge: u64) {
        let entry = self.entry_mut(caller).expect("caller alive");
        let cap = match entry.cspace.lookup(src) {
            Ok(c) => c,
            Err(e) => return self.deny(caller, e, "mint source"),
        };
        let Some(derived) = cap.mint(rights, badge) else {
            return self.deny(caller, Sel4Error::RightsViolation, "mint amplification");
        };
        let r = match self
            .entry_mut(caller)
            .expect("caller alive")
            .cspace
            .insert(derived)
        {
            Ok(slot) => {
                // A minted copy is a CDT child of its source: revoking the
                // source sweeps it away.
                self.cdt.insert(
                    (caller.as_u32(), slot.slot()),
                    (caller.as_u32(), src.slot()),
                );
                Reply::Slot(slot)
            }
            Err(e) => Reply::Err(e),
        };
        self.ready_with(caller, r);
    }

    fn do_tcb_suspend(&mut self, caller: Pid, tcb_ptr: CPtr) {
        let cap = match self
            .entry_ref(caller)
            .expect("caller alive")
            .cspace
            .lookup(tcb_ptr)
        {
            Ok(c) => c,
            Err(e) => return self.deny(caller, e, "tcb suspend"),
        };
        let Some(obj) = cap.object() else {
            return self.deny(caller, Sel4Error::WrongObjectType, "suspend via reply cap");
        };
        let target = match self.object(obj) {
            Some(KernelObject::Tcb { pid }) => *pid,
            _ => return self.deny(caller, Sel4Error::WrongObjectType, "suspend non-tcb"),
        };
        if !cap.rights.write {
            return self.deny(
                caller,
                Sel4Error::InsufficientRights,
                "suspend without write",
            );
        }
        self.exec
            .record(Some(caller), Detail::Suspend { by: caller, target });
        self.terminate(target);
        if target != caller {
            self.ready_with(caller, Reply::Ok);
        }
    }

    fn do_device(&mut self, caller: Pid, dev_ptr: CPtr, write: Option<i64>) {
        let cap = match self
            .entry_ref(caller)
            .expect("caller alive")
            .cspace
            .lookup(dev_ptr)
        {
            Ok(c) => c,
            Err(e) => return self.deny(caller, e, "device"),
        };
        let Some(obj) = cap.object() else {
            return self.deny(caller, Sel4Error::WrongObjectType, "device via reply cap");
        };
        let dev = match self.object(obj) {
            Some(KernelObject::Device { dev }) => *dev,
            _ => return self.deny(caller, Sel4Error::WrongObjectType, "not a device frame"),
        };
        match write {
            Some(value) => {
                if !cap.rights.write {
                    return self.deny(caller, Sel4Error::InsufficientRights, "device write");
                }
                match self.exec.devices.write(dev, value) {
                    Ok(()) => {
                        self.exec
                            .record(Some(caller), Detail::DevWrite { dev, value });
                        self.ready_with(caller, Reply::Ok);
                    }
                    Err(_) => self.ready_with(caller, Reply::Err(Sel4Error::WrongObjectType)),
                }
            }
            None => {
                if !cap.rights.read {
                    return self.deny(caller, Sel4Error::InsufficientRights, "device read");
                }
                match self.exec.devices.read(dev) {
                    Ok(v) => self.ready_with(caller, Reply::DevValue(v)),
                    Err(_) => self.ready_with(caller, Reply::Err(Sel4Error::WrongObjectType)),
                }
            }
        }
    }

    // ----- internals -------------------------------------------------------------

    fn find_receiver(&self, ep: ObjId) -> Option<Pid> {
        self.threads.iter().enumerate().find_map(|(i, t)| {
            let e = t.as_ref()?;
            match &e.task.state {
                ProcState::Blocked(Block::ReceivingOn { ep: r_ep }) if *r_ep == ep => {
                    Some(Pid::new(i as u32))
                }
                _ => None,
            }
        })
    }

    fn alloc_object(&mut self, obj: KernelObject) -> ObjId {
        let id = ObjId::new(self.objects.len() as u32);
        self.objects.push(obj);
        id
    }

    fn entry_ref(&self, pid: Pid) -> Option<&ThreadEntry> {
        self.threads.get(pid.as_usize()).and_then(Option::as_ref)
    }

    fn entry_mut(&mut self, pid: Pid) -> Option<&mut ThreadEntry> {
        self.threads
            .get_mut(pid.as_usize())
            .and_then(Option::as_mut)
    }
}

impl Kernel for Sel4Kernel {
    type Syscall = Syscall;
    type Reply = Reply;
    type Block = Block;
    type Detail = Detail;
    type Churn = ChurnSweep;

    const WAKE: Reply = Reply::Ok;

    #[inline]
    fn exec(&self) -> &Executive<Detail> {
        &self.exec
    }

    #[inline]
    fn exec_mut(&mut self) -> &mut Executive<Detail> {
        &mut self.exec
    }

    #[inline]
    fn task_mut(&mut self, pid: Pid) -> Option<&mut Task<Syscall, Reply, Block>> {
        self.entry_mut(pid).map(|e| &mut e.task)
    }

    fn handle_syscall(&mut self, pid: Pid, sys: Syscall) {
        match sys {
            Syscall::Send { ep, msg } => self.do_send(pid, ep, msg, true, false),
            Syscall::NBSend { ep, msg } => self.do_send(pid, ep, msg, false, false),
            Syscall::Call { ep, msg } => self.do_send(pid, ep, msg, true, true),
            Syscall::Recv { ep } => self.do_recv(pid, ep, true),
            Syscall::NBRecv { ep } => self.do_recv(pid, ep, false),
            Syscall::Reply { msg } => self.do_reply(pid, msg),
            Syscall::Signal { ntfn } => self.do_signal(pid, ntfn),
            Syscall::Wait { ntfn } => self.do_wait(pid, ntfn),
            Syscall::Mint { src, rights, badge } => self.do_mint(pid, src, rights, badge),
            Syscall::Delete { slot } => {
                let r = match self
                    .entry_mut(pid)
                    .expect("caller alive")
                    .cspace
                    .remove(slot)
                {
                    Ok(_) => Reply::Ok,
                    Err(e) => Reply::Err(e),
                };
                self.ready_with(pid, r);
            }
            Syscall::Identify { slot } => {
                let r = match self
                    .entry_ref(pid)
                    .expect("caller alive")
                    .cspace
                    .lookup(slot)
                {
                    Ok(cap) => match cap.target {
                        CapTarget::Object(obj) => {
                            Reply::Identified(self.object(obj).map(KernelObject::kind))
                        }
                        CapTarget::Reply(_) => Reply::Identified(None),
                    },
                    Err(e) => Reply::Err(e),
                };
                self.ready_with(pid, r);
            }
            Syscall::TcbSuspend { tcb } => self.do_tcb_suspend(pid, tcb),
            Syscall::Sleep { duration } => self.sleep(pid, duration),
            Syscall::GetTime => {
                let now = self.now();
                self.ready_with(pid, Reply::Time(now));
            }
            Syscall::DevRead { dev } => self.do_device(pid, dev, None),
            Syscall::DevWrite { dev, value } => self.do_device(pid, dev, Some(value)),
            Syscall::Retype { untyped, kind } => self.do_retype(pid, untyped, kind),
        }
    }

    fn terminate(&mut self, pid: Pid) {
        let Some(entry) = self.threads.get_mut(pid.as_usize()).and_then(Option::take) else {
            return;
        };
        // A thread parked in a send owns a staged arena slot; recycle it.
        if let ProcState::Blocked(Block::SendingOn { ref queued, .. }) = entry.task.state {
            self.exec.arena.free(queued.words);
        }
        self.exec.reap(pid);
        // The dead thread's CSpace is gone; drop its derivation records
        // (entries derived *from* them become roots, which is harmless:
        // sweeps start from live holders).
        self.cdt.retain(|child, _| child.0 != pid.as_u32());
        // If the dead thread owed someone a reply, wake the caller with an
        // aborted-IPC error.
        if let Some(Capability {
            target: CapTarget::Reply(waiter),
            ..
        }) = entry.reply_slot
        {
            if matches!(
                self.entry_ref(waiter).map(|e| &e.task.state),
                Some(ProcState::Blocked(Block::AwaitingReply))
            ) {
                self.ready_with(waiter, Reply::Err(Sel4Error::InvalidCapability));
            }
        }
    }

    fn pid_of(&self, name: &str) -> Option<Pid> {
        self.thread_named(name)
    }

    /// Names of live threads, sorted.
    fn alive_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .threads
            .iter()
            .filter_map(|t| t.as_ref().map(|e| e.name.clone()))
            .collect();
        v.sort();
        v
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

    fn apply_cap_churn(&mut self, sweep: &ChurnSweep) -> bool {
        self.apply_churn_sweep(sweep)
    }

    fn arm_cap_churn(&mut self, sweep: &ChurnSweep, after_checks: u32) {
        self.arm_churn_sweep(sweep.clone(), after_checks);
    }
}
