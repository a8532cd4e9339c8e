//! The simulated seL4 kernel.
//!
//! The kernel's entire access-control state is the set of capabilities in
//! thread CSpaces; there is no ambient authority, no uid, no name service.
//! "The designers of seL4 wanted a minimal kernel where all access-control
//! policy was specified in user space. To do this, the kernel simply hands
//! over all capabilities to the bootstrap process" — the bootstrap path
//! here is the `create_*`/`grant_*` API used by `bas-capdl`'s realizer.

use std::sync::Arc;

use bas_sim::arena::MsgRef;
use bas_sim::caps::{take_due, CapOp, ChurnKind};
use bas_sim::clock::CostModel;
use bas_sim::device::DeviceId;
use bas_sim::fault::IpcFault;
use bas_sim::inline::MsgWords;
use bas_sim::kernel::{Executive, Kernel, Task};
use bas_sim::process::{Pid, ProcState};
use bas_sim::time::SimDuration;
use bas_sim::trace::TraceLog;

use crate::cap::{CPtr, CapTarget, Capability};
use crate::cspace::CSpace;
use crate::error::Sel4Error;
use crate::message::{DeliveredMessage, IpcMessage};
use crate::objects::{KernelObject, ObjId, ObjKind};
use crate::rights::{CapRights, Right};
use crate::syscall::{Reply, RetypeKind, Syscall};
use crate::trace::{Churn, Detail, EpCap, Invocation};

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
    /// Shared with the thread's start record.
    name: Arc<str>,
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
    exec: Executive<Detail, ChurnSweep>,
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
    pub fn create_thread(&mut self, name: impl Into<Arc<str>>, logic: Sel4Thread) -> Pid {
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
        let name = self.entry_ref(pid).map(|e| e.name.clone());
        self.exec
            .record(Some(pid), Detail::ThreadStart(name.unwrap_or_default()));
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
            self.exec.record(
                None,
                Detail::Churn(Box::new(Churn {
                    actor: sweep.actor.clone(),
                    kind: sweep.kind,
                    holder: holder_name.clone(),
                    obj,
                    changed,
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
                .filter(|e| &*e.name == name)
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

    /// The one capability check: the capability at `cptr` in `caller`'s
    /// CSpace must exist, then be a capability to an object of `kind` (a
    /// reply capability is the wrong kind), then hold every right in
    /// `rights`. A refusal is counted, recorded as `op`'s `cap.deny` and
    /// fails the caller's call before this returns its error. The send
    /// path asks for no rights: it traces its own rights test as a
    /// `cap.check` record first.
    fn admit(
        &mut self,
        caller: Pid,
        op: Invocation,
        cptr: CPtr,
        kind: ObjKind,
        rights: CapRights,
    ) -> Result<(ObjId, Capability), Sel4Error> {
        let cspace = &self.entry_ref(caller).expect("caller alive").cspace;
        let (err, missing) = match cspace.lookup(cptr) {
            Err(err) => (err, None),
            Ok(cap) => match cap.object() {
                Some(obj) if self.object(obj).map(KernelObject::kind) == Some(kind) => {
                    match cap.rights.missing(rights) {
                        None => return Ok((obj, cap)),
                        missing => (Sel4Error::InsufficientRights, missing),
                    }
                }
                _ => (Sel4Error::WrongObjectType, None),
            },
        };
        let refused = Detail::CapDeny { op, err, missing };
        self.refuse(caller, refused, Reply::Err(err));
        Err(err)
    }

    /// Resolves the capabilities a message names in `caller`'s CSpace,
    /// each with its source slot. An empty slot refuses the transfer.
    fn transfer_sources(
        &mut self,
        caller: Pid,
        srcs: &[CPtr],
    ) -> Result<Vec<(Capability, CPtr)>, Sel4Error> {
        let cspace = &self.entry_ref(caller).expect("caller alive").cspace;
        let mut caps = Vec::with_capacity(srcs.len());
        for &src in srcs {
            match cspace.lookup(src) {
                Ok(cap) => caps.push((cap, src)),
                Err(err) => {
                    let refused = Detail::CapDeny {
                        op: Invocation::Transfer,
                        err,
                        missing: None,
                    };
                    self.refuse(caller, refused, Reply::Err(err));
                    return Err(err);
                }
            }
        }
        Ok(caps)
    }

    fn do_retype(&mut self, caller: Pid, untyped_ptr: CPtr, kind: RetypeKind) {
        let op = Invocation::Retype;
        let Ok((obj, _)) = self.admit(caller, op, untyped_ptr, ObjKind::Untyped, CapRights::WRITE)
        else {
            return;
        };
        // The new capability needs a slot. seL4 validates the destination
        // before it creates anything, so a full CSpace leaves the region,
        // the object table and the trace untouched.
        if self
            .entry_ref(caller)
            .expect("caller alive")
            .cspace
            .is_full()
        {
            return self.ready_with(caller, Reply::Err(Sel4Error::NoFreeSlot));
        }
        // Charge the region; creation is bounded by explicit authority.
        let size = kind.size_bytes();
        {
            let Some(KernelObject::Untyped { total, consumed }) =
                self.objects.get_mut(obj.as_usize())
            else {
                unreachable!("admitted an untyped capability");
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
        let slot = self
            .entry_mut(caller)
            .expect("caller alive")
            .cspace
            .insert(Capability::to_object(new_obj, CapRights::ALL, 0))
            .expect("a free slot was checked above");
        self.exec
            .record(Some(caller), Detail::Retype { kind, from: obj });
        self.ready_with(caller, Reply::Slot(slot));
    }

    fn do_send(
        &mut self,
        caller: Pid,
        ep_ptr: CPtr,
        msg: IpcMessage,
        blocking: bool,
        is_call: bool,
    ) {
        let op = match (is_call, blocking) {
            (true, _) => Invocation::Call,
            (false, true) => Invocation::Send,
            (false, false) => Invocation::NBSend,
        };
        let Ok((ep, cap)) = self.admit(caller, op, ep_ptr, ObjKind::Endpoint, CapRights::NONE)
        else {
            return;
        };
        // The rights test: write, plus grant for a call (paper: "If a
        // thread is given grant access to an endpoint it can use
        // seL4_Call") or a capability transfer. Capability-stream
        // instrumentation: one admission-check event per send attempt that
        // *found* a capability (a revoked capability fails the lookup
        // above and never reaches this gate). A successful check may trip
        // an armed churn sweep: the mutation then lands between this check
        // and the delivery that trusts it.
        let needed = CapRights {
            read: false,
            write: true,
            grant: is_call || !msg.caps.is_empty(),
        };
        let missing = cap.rights.missing(needed);
        if self.exec.cap_tracing() {
            let check = EpCap {
                op: CapOp::Check,
                ep,
                receiver: None,
                ok: missing.is_none(),
            };
            self.exec.record(Some(caller), Detail::EpCap(check));
        }
        if missing.is_none() && !self.armed_churn.is_empty() {
            self.fire_armed_churn(caller, ep);
        }
        if let Some(right) = missing {
            // Lacking grant, a send or nb-send is a refused capability
            // transfer.
            let op = if right == Right::Grant && !is_call {
                Invocation::Transfer
            } else {
                op
            };
            let err = Sel4Error::InsufficientRights;
            let refused = Detail::CapDeny { op, err, missing };
            return self.refuse(caller, refused, Reply::Err(err));
        }
        // Resolve capabilities to transfer from the sender's CSpace,
        // keeping the source slot so the receiver's copy can be linked
        // into the derivation tree.
        let Ok(caps) = self.transfer_sources(caller, &msg.caps) else {
            return;
        };

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

        let receiving = |b: &Block| matches!(b, Block::ReceivingOn { ep: r } if *r == ep);
        if let Some(receiver) = self.first_blocked(receiving) {
            // The receiver was parked in a recv: clear its state first.
            if let Some(entry) = self.entry_mut(receiver) {
                entry.task.state = ProcState::Runnable;
            }
            self.complete_transfer(caller, receiver, ep, queued);
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
        let op = if blocking {
            Invocation::Recv
        } else {
            Invocation::NBRecv
        };
        let Ok((ep, _)) = self.admit(caller, op, ep_ptr, ObjKind::Endpoint, CapRights::READ) else {
            return;
        };

        let sender =
            self.first_blocked(|b| matches!(b, Block::SendingOn { ep: s, .. } if *s == ep));

        match sender {
            Some(sender_pid) => {
                let queued = {
                    let entry = self.entry_mut(sender_pid).expect("sender alive");
                    match std::mem::replace(&mut entry.task.state, ProcState::Runnable) {
                        ProcState::Blocked(Block::SendingOn { queued, .. }) => queued,
                        _ => unreachable!("sender was sending"),
                    }
                };
                self.complete_transfer(sender_pid, caller, ep, queued);
            }
            None if blocking => {
                if let Some(entry) = self.entry_mut(caller) {
                    entry.task.state = ProcState::Blocked(Block::ReceivingOn { ep });
                }
            }
            None => self.ready_with(caller, Reply::Err(Sel4Error::NotReady)),
        }
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

        self.exec.ipc_deliver(8 + words.len() * 8);
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
        if self.exec.cap_tracing() {
            let ok = self.entry_ref(sender).is_some_and(|e| {
                e.cspace
                    .iter()
                    .any(|(_, c)| c.object() == Some(ep) && c.rights.write)
            });
            let used = EpCap {
                op: CapOp::Use,
                ep,
                receiver: Some(receiver),
                ok,
            };
            self.exec.record(Some(sender), Detail::EpCap(used));
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
        let reply_cap = self.entry_mut(caller).and_then(|e| e.reply_slot.take());
        let Some(Capability {
            target: CapTarget::Reply(target),
            ..
        }) = reply_cap
        else {
            let err = Sel4Error::NoReplyCap;
            let refused = Detail::CapDeny {
                op: Invocation::Reply,
                err,
                missing: None,
            };
            return self.refuse(caller, refused, Reply::Err(err));
        };
        // Resolve transferred caps (a reply cap carries grant).
        let Ok(caps) = self.transfer_sources(caller, &msg.caps) else {
            return;
        };

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
        for (c, _) in caps {
            if let Ok(slot) = self
                .entry_mut(target)
                .expect("target alive")
                .cspace
                .insert(c)
            {
                received_caps.push(slot);
            }
        }

        self.exec.ipc_deliver(8 + msg.words.len() * 8);
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
        let op = Invocation::Signal;
        let Ok((obj, cap)) = self.admit(
            caller,
            op,
            ntfn_ptr,
            ObjKind::Notification,
            CapRights::WRITE,
        ) else {
            return;
        };

        let waiter =
            self.first_blocked(|b| matches!(b, Block::WaitingNtfn { ntfn } if *ntfn == obj));

        let signal_bits = if cap.badge == 0 { 1 } else { cap.badge };
        match waiter {
            Some(w) => {
                self.ready_with(
                    w,
                    Reply::Msg(DeliveredMessage {
                        badge: signal_bits,
                        label: 0,
                        words: MsgWords::new(),
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
        let op = Invocation::Wait;
        let Ok((obj, _)) = self.admit(caller, op, ntfn_ptr, ObjKind::Notification, CapRights::READ)
        else {
            return;
        };
        let Some(KernelObject::Notification { word }) = self.objects.get_mut(obj.as_usize()) else {
            unreachable!("admitted a notification capability");
        };
        if *word != 0 {
            let bits = std::mem::take(word);
            self.ready_with(
                caller,
                Reply::Msg(DeliveredMessage {
                    badge: bits,
                    label: 0,
                    words: MsgWords::new(),
                    received_caps: vec![],
                    reply_expected: false,
                }),
            );
        } else if let Some(entry) = self.entry_mut(caller) {
            entry.task.state = ProcState::Blocked(Block::WaitingNtfn { ntfn: obj });
        }
    }

    fn do_mint(&mut self, caller: Pid, src: CPtr, rights: CapRights, badge: u64) {
        let cspace = &self.entry_ref(caller).expect("caller alive").cspace;
        let minted = cspace.lookup(src).and_then(|cap| {
            // Rights may only be diminished.
            cap.mint(rights, badge).ok_or(Sel4Error::RightsViolation)
        });
        let derived = match minted {
            Ok(derived) => derived,
            Err(err) => {
                let refused = Detail::CapDeny {
                    op: Invocation::Mint,
                    err,
                    missing: None,
                };
                return self.refuse(caller, refused, Reply::Err(err));
            }
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
        let op = Invocation::TcbSuspend;
        let Ok((obj, _)) = self.admit(caller, op, tcb_ptr, ObjKind::Tcb, CapRights::WRITE) else {
            return;
        };
        let Some(&KernelObject::Tcb { pid: target }) = self.object(obj) else {
            unreachable!("admitted a tcb capability");
        };
        self.exec
            .record(Some(caller), Detail::Suspend { by: caller, target });
        self.terminate(target);
        if target != caller {
            self.ready_with(caller, Reply::Ok);
        }
    }

    fn do_device(&mut self, caller: Pid, dev_ptr: CPtr, write: Option<i64>) {
        let (op, rights) = match write {
            Some(_) => (Invocation::DevWrite, CapRights::WRITE),
            None => (Invocation::DevRead, CapRights::READ),
        };
        let Ok((obj, _)) = self.admit(caller, op, dev_ptr, ObjKind::Device, rights) else {
            return;
        };
        let Some(&KernelObject::Device { dev }) = self.object(obj) else {
            unreachable!("admitted a device capability");
        };
        let now = self.exec.clock.now();
        let reply = match write {
            Some(value) => self.exec.devices.write(dev, now, value).map(|()| {
                self.exec
                    .record(Some(caller), Detail::DevWrite { dev, value });
                Reply::Ok
            }),
            None => self.exec.devices.read(dev, now).map(Reply::DevValue),
        };
        self.ready_with(
            caller,
            reply.unwrap_or(Reply::Err(Sel4Error::WrongObjectType)),
        );
    }

    // ----- internals -------------------------------------------------------------

    /// The lowest-pid thread blocked for a reason `pred` accepts.
    fn first_blocked(&self, pred: impl Fn(&Block) -> bool) -> Option<Pid> {
        let blocked = |t: &Option<ThreadEntry>| {
            t.as_ref()
                .is_some_and(|e| matches!(&e.task.state, ProcState::Blocked(b) if pred(b)))
        };
        let i = self.threads.iter().position(blocked)?;
        Some(Pid::new(i as u32))
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
    fn exec(&self) -> &Executive<Detail, ChurnSweep> {
        &self.exec
    }

    #[inline]
    fn exec_mut(&mut self) -> &mut Executive<Detail, ChurnSweep> {
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

    fn any_alive(&self, pred: &mut dyn FnMut(&str) -> bool) -> bool {
        self.threads.iter().flatten().any(|e| pred(&e.name))
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
