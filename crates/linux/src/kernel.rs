//! The simulated monolithic Linux kernel.
//!
//! Contrast with `bas-minix`: IPC objects (message queues) are *globally
//! named* and guarded only by DAC mode bits at open time; delivered
//! messages carry no kernel identity; `kill` is a direct syscall gated by
//! uid comparison with a root bypass. Every attack in §IV-D.1 flows
//! through one of those three facts.
//!
//! Hot-path layout: queue names are interned at `mq_open` time, so a
//! descriptor carries a dense `u32` queue id and `mq_send`/`mq_receive`
//! never touch a `String`. Payload bytes are staged once into the kernel
//! [`MsgArena`](bas_sim::arena::MsgArena) at the user→kernel boundary; queues and blocked-sender
//! PCBs move the 8-byte [`MsgRef`] handle, and the bytes are copied out
//! exactly once at delivery.

use std::collections::BTreeMap;
use std::sync::Arc;

use bas_sim::arena::MsgRef;
use bas_sim::caps::{take_due, CapChurnOp, CapOp, ChurnKind};
use bas_sim::clock::CostModel;
use bas_sim::device::DeviceId;
use bas_sim::fault::IpcFault;
use bas_sim::inline::MsgBytes;
use bas_sim::kernel::{Executive, Kernel, Task};
use bas_sim::process::{Pid, ProcState, ProgramFactory};
use bas_sim::time::SimDuration;
use bas_sim::trace::TraceLog;

use crate::cred::{Mode, Uid};
use crate::error::LinuxError;
use crate::mq::{MessageQueue, MqMessage, MQ_MSG_MAX};
use crate::syscall::{MqAccess, Reply, Signal, Syscall};
use crate::trace::{Churn, Detail, QueueName};

/// A boxed Linux user process.
pub type LinuxProcess = Box<dyn bas_sim::process::Process<Syscall = Syscall, Reply = Reply>>;

/// `O_CREAT` attributes for `mq_open`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MqCreate {
    /// Permission bits for the new queue.
    pub mode: u16,
    /// Maximum number of queued messages.
    pub capacity: usize,
}

/// Kernel construction parameters.
pub struct LinuxConfig {
    /// Maximum process count.
    pub max_procs: usize,
    /// Virtual-time cost model. The monolithic kernel performs mq
    /// operations in a single kernel entry with no extra context switches
    /// — the paper's performance contrast with the microkernels.
    pub cost_model: CostModel,
    /// `/dev` node ownership: device → (owner uid, mode).
    pub device_nodes: BTreeMap<DeviceId, (Uid, Mode)>,
    /// Trace capacity in events.
    pub trace_capacity: usize,
}

impl Default for LinuxConfig {
    fn default() -> Self {
        LinuxConfig {
            max_procs: 64,
            cost_model: CostModel::default(),
            device_nodes: BTreeMap::new(),
            trace_capacity: TraceLog::<Detail>::DEFAULT_CAPACITY,
        }
    }
}

/// An open descriptor: the interned queue id plus the access intents
/// granted at open time. `Copy`, so `mq_send`/`mq_receive` never clone a
/// queue name on the hot path.
#[derive(Debug, Clone, Copy)]
struct OpenQueue {
    qid: u32,
    access: MqAccess,
}

/// Why a process is blocked (the kernel's [`Kernel::Block`]).
#[derive(Debug)]
pub enum Block {
    /// Blocked in `mq_send` on a full queue. The payload is already
    /// staged in the arena; the PCB parks only the handle.
    MqSendWait {
        qid: u32,
        msg: MsgRef,
        priority: u32,
    },
    /// Blocked in `mq_receive` on an empty queue.
    MqRecvWait { qid: u32 },
}

struct ProcEntry {
    name: Arc<str>,
    uid: Uid,
    fds: Vec<Option<OpenQueue>>,
    task: Task<Syscall, Reply, Block>,
}

/// The simulated Linux kernel.
pub struct LinuxKernel {
    procs: Vec<Option<ProcEntry>>,
    /// Queues addressed by interned id; `None` marks an unlinked slot
    /// (stale descriptors observe `ENOENT`, as before interning).
    queues: Vec<Option<MessageQueue>>,
    /// VFS name → interned queue id, consulted only at open/unlink.
    queue_ids: BTreeMap<String, u32>,
    /// Clock, scheduler, timers, trace, devices and the message arena,
    /// which holds the payload bytes of queued and parked sends.
    exec: Executive<Detail, CapChurnOp>,
    programs: Vec<(String, ProgramFactory<Syscall, Reply>)>,
    names: BTreeMap<String, Pid>,
    device_nodes: BTreeMap<DeviceId, (Uid, Mode)>,
    max_procs: usize,
    /// Churn ops armed to fire after the Nth successful open check.
    armed_churn: Vec<(CapChurnOp, u32)>,
}

/// The mode triple that governs `uid`'s access to a node owned by
/// `owner`: the owner bits, the group bits, or — mirroring the loose
/// no-group check in [`Mode::allows_with_group`] — the union of the group
/// and other triples.
fn class_bits(uid: Uid, owner: Uid, group: Option<Uid>) -> u16 {
    if uid == owner {
        0o700
    } else if group == Some(uid) {
        0o070
    } else if group.is_some() {
        0o007
    } else {
        0o077
    }
}

/// The shared name handle of queue `qid` (`None` once unlinked).
fn qname_handle(queues: &[Option<MessageQueue>], qid: u32) -> QueueName {
    queues
        .get(qid as usize)
        .and_then(Option::as_ref)
        .map(|q| q.name.clone())
}

impl std::fmt::Debug for LinuxKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinuxKernel")
            .field("now", &self.now())
            .field("processes", &self.process_count())
            .field("queues", &self.queue_ids.len())
            .field("metrics", &self.exec.metrics)
            .finish()
    }
}

impl LinuxKernel {
    /// Boots an empty kernel.
    pub fn new(config: LinuxConfig) -> Self {
        LinuxKernel {
            procs: Vec::new(),
            queues: Vec::new(),
            queue_ids: BTreeMap::new(),
            exec: Executive::new(config.cost_model, config.trace_capacity, config.max_procs),
            programs: Vec::new(),
            names: BTreeMap::new(),
            device_nodes: config.device_nodes,
            max_procs: config.max_procs,
            armed_churn: Vec::new(),
        }
    }

    /// Returns the kernel to the state it had immediately after
    /// [`Self::new`] plus `register_program` calls — the snapshot-fork
    /// boot path. Registered programs, installed devices and the `/dev`
    /// node table survive (boot-template state); processes, queues, the
    /// VFS name table and every other mutable structure are emptied in
    /// place, reusing live allocations. The caller re-runs the same
    /// boot-time queue creation and spawns afterwards, which re-interns
    /// queue ids in creation order — byte-identical to a cold boot.
    pub fn reset_to_boot(&mut self) {
        self.procs.clear();
        self.queues.clear();
        self.queue_ids.clear();
        self.exec.reset();
        self.names.clear();
        self.armed_churn.clear();
    }

    // ----- construction ------------------------------------------------------

    /// Registers a program image for `Fork`; returns nothing (forks refer
    /// to programs by name).
    pub fn register_program(
        &mut self,
        name: impl Into<String>,
        factory: ProgramFactory<Syscall, Reply>,
    ) {
        self.programs.push((name.into(), factory));
    }

    /// Spawns a process directly (init path).
    ///
    /// # Errors
    ///
    /// Returns [`LinuxError::ProcessTableFull`] when at capacity.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        uid: u32,
        logic: LinuxProcess,
    ) -> Result<Pid, LinuxError> {
        if self.process_count() >= self.max_procs {
            return Err(LinuxError::ProcessTableFull);
        }
        let name: Arc<str> = name.into().into();
        let slot = self
            .procs
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| {
                self.procs.push(None);
                self.procs.len() - 1
            });
        let pid = Pid::new(slot as u32);
        self.procs[slot] = Some(ProcEntry {
            name: name.clone(),
            uid: Uid::new(uid),
            fds: Vec::new(),
            task: Task::new(logic),
        });
        self.names.insert(name.to_string(), pid);
        self.exec.run_queue.enqueue(pid);
        self.exec.metrics.processes_created += 1;
        self.exec.record(Some(pid), Detail::Spawn { name, uid });
        Ok(pid)
    }

    // ----- capability churn ---------------------------------------------------

    fn fire_armed_churn(&mut self, opener: &str, qname: &str) {
        let due = take_due(&mut self.armed_churn, |op| {
            op.subject == opener && op.object == qname
        });
        for op in due {
            self.apply_cap_churn(&op);
        }
    }

    /// Pre-creates a message queue owned by `owner` (scenario-loader
    /// path, mirroring the paper's "scenario process [...] creates 6
    /// message queues").
    pub fn create_queue(
        &mut self,
        name: impl Into<String>,
        owner: Uid,
        mode: Mode,
        capacity: usize,
    ) {
        let name = name.into();
        self.install_queue(MessageQueue::new(name, owner, mode, capacity));
    }

    /// Pre-creates a message queue whose mode's group triple applies to
    /// `group` — the "specifically configured to only allow the correct
    /// user account" setup the paper discusses.
    pub fn create_queue_grouped(
        &mut self,
        name: impl Into<String>,
        owner: Uid,
        group: Uid,
        mode: Mode,
        capacity: usize,
    ) {
        let name = name.into();
        self.install_queue(MessageQueue::new(name, owner, mode, capacity).with_group(group));
    }

    /// Interns (or replaces) a queue under its VFS name; returns the id.
    fn install_queue(&mut self, q: MessageQueue) -> u32 {
        if let Some(&qid) = self.queue_ids.get(&*q.name) {
            // Same name re-created: release any payload the old queue
            // still holds before swapping the new one in.
            if let Some(old) = self.queues[qid as usize].take() {
                self.free_queue_slots(old);
            }
            self.queues[qid as usize] = Some(q);
            return qid;
        }
        let slot = self
            .queues
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| {
                self.queues.push(None);
                self.queues.len() - 1
            });
        self.queue_ids.insert(q.name.to_string(), slot as u32);
        self.queues[slot] = Some(q);
        slot as u32
    }

    /// Returns every queued payload slot of a detached queue to the arena.
    fn free_queue_slots(&mut self, mut q: MessageQueue) {
        while let Some(m) = q.pop() {
            self.exec.arena.free(m.msg);
        }
    }

    fn queue_ref(&self, qid: u32) -> Option<&MessageQueue> {
        self.queues.get(qid as usize).and_then(Option::as_ref)
    }

    // ----- introspection -------------------------------------------------------

    /// True if the process is alive.
    pub fn is_alive(&self, pid: Pid) -> bool {
        self.entry_ref(pid).is_some()
    }

    /// Number of live processes.
    pub fn process_count(&self) -> usize {
        self.procs.iter().filter(|p| p.is_some()).count()
    }

    /// Depth of a queue, if it exists.
    pub fn queue_len(&self, name: &str) -> Option<usize> {
        self.queue_ids
            .get(name)
            .and_then(|&qid| self.queue_ref(qid))
            .map(MessageQueue::len)
    }

    // ----- syscalls ---------------------------------------------------------------

    fn do_mq_open(&mut self, pid: Pid, name: String, access: MqAccess, create: Option<MqCreate>) {
        let uid = self.entry_ref(pid).expect("caller").uid;
        let qid = match self.queue_ids.get(&name).copied() {
            None => match create {
                Some(attr) => {
                    let qid = self.install_queue(MessageQueue::new(
                        name.as_str(),
                        uid,
                        Mode::new(attr.mode),
                        attr.capacity,
                    ));
                    // With capability tracing on, this record is also the
                    // creator's grant.
                    let queue = self.queue_ref(qid).expect("just installed").name.clone();
                    self.exec.record(
                        Some(pid),
                        Detail::MqCreate {
                            queue,
                            mode: attr.mode,
                        },
                    );
                    qid
                }
                None => {
                    self.ready_with(pid, Reply::Err(LinuxError::NoEntry));
                    return;
                }
            },
            Some(qid) => {
                let q = self.queue_ref(qid).expect("interned name maps to queue");
                let allowed =
                    q.mode
                        .allows_with_group(uid, q.owner, q.group, access.read, access.write);
                self.note_cap(pid, CapOp::Check, qid, None, allowed);
                if allowed && !self.armed_churn.is_empty() {
                    // The armed revoke lands *after* the DAC check and
                    // *before* the descriptor is handed out — the
                    // descriptor then outlives the permission.
                    let subject = self.entry_ref(pid).expect("caller").name.clone();
                    self.fire_armed_churn(&subject, &name);
                }
                if !allowed {
                    let queue = self.queue_ref(qid).expect("interned").name.clone();
                    let refused = Detail::MqDeny { uid, queue };
                    return self.refuse(pid, refused, Reply::Err(LinuxError::AccessDenied));
                }
                qid
            }
        };
        let entry = self.entry_mut(pid).expect("caller");
        let fd = entry
            .fds
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| {
                entry.fds.push(None);
                entry.fds.len() - 1
            });
        entry.fds[fd] = Some(OpenQueue { qid, access });
        self.ready_with(pid, Reply::Qd(fd as u32));
    }

    fn open_queue(&self, pid: Pid, qd: u32) -> Result<OpenQueue, LinuxError> {
        self.entry_ref(pid)
            .and_then(|e| e.fds.get(qd as usize))
            .copied()
            .flatten()
            .ok_or(LinuxError::BadDescriptor)
    }

    fn do_mq_send(&mut self, pid: Pid, qd: u32, data: MsgBytes, priority: u32, nonblocking: bool) {
        let oq = match self.open_queue(pid, qd) {
            Ok(o) => o,
            Err(e) => return self.ready_with(pid, Reply::Err(e)),
        };
        if !oq.access.write {
            return self.ready_with(pid, Reply::Err(LinuxError::BadDescriptor));
        }
        if data.len() > MQ_MSG_MAX {
            return self.ready_with(pid, Reply::Err(LinuxError::MessageTooLong));
        }
        if self.queue_ref(oq.qid).is_none() {
            return self.ready_with(pid, Reply::Err(LinuxError::NoEntry));
        }

        // Scheduled IPC fault (`bas-faults` campaigns). Consumed only
        // after the descriptor checks pass, so an injected fault disturbs
        // authorized traffic but cannot widen authority.
        let fault = self.exec.ipc_faults.pop();
        match fault {
            Some(IpcFault::Drop) => {
                let queue = qname_handle(&self.queues, oq.qid);
                self.exec
                    .record(Some(pid), Detail::FaultDrop { sender: pid, queue });
                // mq_send reports success; the message never lands.
                return self.ready_with(pid, Reply::Ok);
            }
            Some(IpcFault::Delay(d)) => {
                // The message sits in transit: the kernel pays the
                // latency, then enqueues normally.
                self.exec.clock.advance(d);
                let queue = qname_handle(&self.queues, oq.qid);
                self.exec.record(
                    Some(pid),
                    Detail::FaultDelay {
                        sender: pid,
                        queue,
                        ms: d.as_millis(),
                    },
                );
            }
            Some(IpcFault::Duplicate) | None => {}
        }

        // Stage the payload into the arena once (the user→kernel copy);
        // from here on only the handle moves.
        let msg = self.exec.arena.alloc(&data);

        // The send-side capability use, which the receive record pairs
        // with through `msg`. `ok` is an observer-only recheck of the
        // *current* mode bits: the kernel itself (like Linux) consults only
        // the stored descriptor, so a send through a revoked-but-open
        // descriptor proceeds — and is recorded with ok=false, the
        // stale-authority evidence the detector consumes.
        if self.exec.cap_tracing() {
            let q = self.queue_ref(oq.qid).expect("checked above");
            let uid = self.entry_ref(pid).expect("caller").uid;
            let ok = q.mode.allows_with_group(uid, q.owner, q.group, false, true);
            self.note_cap(pid, CapOp::Use, oq.qid, Some(msg), ok);
        }
        let q = self.queues[oq.qid as usize]
            .as_mut()
            .expect("checked above");
        if q.is_full() {
            if nonblocking {
                self.exec.arena.free(msg);
                return self.ready_with(pid, Reply::Err(LinuxError::WouldBlock));
            }
            self.exec.metrics.ipc_waits += 1;
            if let Some(entry) = self.entry_mut(pid) {
                entry.task.state = ProcState::Blocked(Block::MqSendWait {
                    qid: oq.qid,
                    msg,
                    priority,
                });
            }
            return;
        }
        // A duplicated send is a second reference to the same slot, not a
        // second copy of the bytes.
        let duplicate =
            matches!(fault, Some(IpcFault::Duplicate)).then(|| self.exec.arena.dup(msg));
        q.push(MqMessage::new(priority, msg));
        self.note_ipc(oq.qid, pid);
        if let Some(dup) = duplicate {
            // The queue absorbs a duplicate only while it has room; a
            // full buffer loses the transport's re-presented copy.
            let q = self.queues[oq.qid as usize]
                .as_mut()
                .expect("checked above");
            if q.is_full() {
                self.exec.arena.free(dup);
            } else {
                q.push(MqMessage::new(priority, dup));
                let queue = qname_handle(&self.queues, oq.qid);
                self.exec
                    .record(Some(pid), Detail::FaultDuplicate { sender: pid, queue });
                self.note_ipc(oq.qid, pid);
            }
        }
        self.ready_with(pid, Reply::Ok);
        self.pump_queue(oq.qid);
    }

    fn do_mq_receive(&mut self, pid: Pid, qd: u32, nonblocking: bool) {
        let oq = match self.open_queue(pid, qd) {
            Ok(o) => o,
            Err(e) => return self.ready_with(pid, Reply::Err(e)),
        };
        if !oq.access.read {
            return self.ready_with(pid, Reply::Err(LinuxError::BadDescriptor));
        }
        let Some(q) = self
            .queues
            .get_mut(oq.qid as usize)
            .and_then(Option::as_mut)
        else {
            return self.ready_with(pid, Reply::Err(LinuxError::NoEntry));
        };
        match q.pop() {
            Some(m) => {
                // The kernel→user copy: bytes leave the arena exactly
                // once, and the slot recycles immediately.
                let data = MsgBytes::from_slice(self.exec.arena.get(m.msg));
                self.exec.arena.free(m.msg);
                self.note_cap(pid, CapOp::Recv, oq.qid, Some(m.msg), true);
                self.ready_with(
                    pid,
                    Reply::Data {
                        data,
                        priority: m.priority,
                    },
                );
                self.pump_queue(oq.qid);
            }
            None if nonblocking => self.ready_with(pid, Reply::Err(LinuxError::WouldBlock)),
            None => {
                if let Some(entry) = self.entry_mut(pid) {
                    entry.task.state = ProcState::Blocked(Block::MqRecvWait { qid: oq.qid });
                }
            }
        }
    }

    fn do_mq_unlink(&mut self, pid: Pid, name: String) {
        let uid = self.entry_ref(pid).expect("caller").uid;
        match self.queue_ids.get(&name).copied() {
            None => self.ready_with(pid, Reply::Err(LinuxError::NoEntry)),
            Some(qid) => {
                let owner = self
                    .queue_ref(qid)
                    .expect("interned name maps to queue")
                    .owner;
                if uid.is_root() || uid == owner {
                    self.queue_ids.remove(&name);
                    if let Some(q) = self.queues[qid as usize].take() {
                        self.free_queue_slots(q);
                    }
                    // Processes blocked on the queue get ENOENT; parked
                    // send payloads return to the arena.
                    for p in self.blocked_on_queue(qid) {
                        let parked = self
                            .entry_mut(p)
                            .map(|e| std::mem::replace(&mut e.task.state, ProcState::Runnable));
                        if let Some(ProcState::Blocked(Block::MqSendWait { msg, .. })) = parked {
                            self.exec.arena.free(msg);
                        }
                        self.ready_with(p, Reply::Err(LinuxError::NoEntry));
                    }
                    self.ready_with(pid, Reply::Ok);
                } else {
                    let queue = self.queue_ref(qid).expect("interned").name.clone();
                    let refused = Detail::MqDeny { uid, queue };
                    self.refuse(pid, refused, Reply::Err(LinuxError::AccessDenied));
                }
            }
        }
    }

    fn do_kill(&mut self, caller: Pid, target: Pid, signal: Signal) {
        let caller_uid = self.entry_ref(caller).expect("caller").uid;
        let Some((target_uid, target_name)) =
            self.entry_ref(target).map(|e| (e.uid, e.name.clone()))
        else {
            return self.ready_with(caller, Reply::Err(LinuxError::NoSuchProcess));
        };
        // The entire permission model: same uid or root.
        if !caller_uid.is_root() && caller_uid != target_uid {
            let refused = Detail::SignalDeny {
                by: caller_uid,
                target: target_uid,
            };
            return self.refuse(caller, refused, Reply::Err(LinuxError::NotPermitted));
        }
        self.exec.record(
            Some(caller),
            Detail::SignalKill {
                by: caller,
                signal,
                target,
                name: target_name,
            },
        );
        self.terminate(target);
        if target != caller {
            self.ready_with(caller, Reply::Ok);
        }
    }

    fn do_fork(&mut self, caller: Pid, program: String) {
        let uid = self.entry_ref(caller).expect("caller").uid;
        let Some((name, factory)) = self.programs.iter().find(|(n, _)| *n == program) else {
            return self.ready_with(caller, Reply::Err(LinuxError::NoSuchProgram));
        };
        let child_logic = factory();
        let child_name = format!("{name}#{}", self.exec.metrics.processes_created + 1);
        match self.spawn(child_name, uid.as_u32(), child_logic) {
            Ok(child) => self.ready_with(caller, Reply::Pid(child)),
            Err(e) => self.ready_with(caller, Reply::Err(e)),
        }
    }

    fn do_device(&mut self, pid: Pid, dev: DeviceId, write: Option<i64>) {
        let uid = self.entry_ref(pid).expect("caller").uid;
        let Some(&(owner, mode)) = self.device_nodes.get(&dev) else {
            return self.ready_with(pid, Reply::Err(LinuxError::NoEntry));
        };
        let (want_read, want_write) = (write.is_none(), write.is_some());
        if !mode.allows(uid, owner, want_read, want_write) {
            let refused = Detail::DevDeny { uid, dev };
            return self.refuse(pid, refused, Reply::Err(LinuxError::AccessDenied));
        }
        match write {
            Some(value) => match self.exec.devices.write(dev, self.exec.clock.now(), value) {
                Ok(()) => {
                    self.exec.record(Some(pid), Detail::DevWrite { dev, value });
                    self.ready_with(pid, Reply::Ok);
                }
                Err(_) => self.ready_with(pid, Reply::Err(LinuxError::NoEntry)),
            },
            None => match self.exec.devices.read(dev, self.exec.clock.now()) {
                Ok(v) => self.ready_with(pid, Reply::DevValue(v)),
                Err(_) => self.ready_with(pid, Reply::Err(LinuxError::NoEntry)),
            },
        }
    }

    // ----- queue wake-ups -----------------------------------------------------------

    fn blocked_on_queue(&self, qid: u32) -> Vec<Pid> {
        self.procs
            .iter()
            .enumerate()
            .filter_map(|(i, p)| {
                let e = p.as_ref()?;
                let hit = match &e.task.state {
                    ProcState::Blocked(Block::MqSendWait { qid: q, .. })
                    | ProcState::Blocked(Block::MqRecvWait { qid: q }) => *q == qid,
                    _ => false,
                };
                hit.then(|| Pid::new(i as u32))
            })
            .collect()
    }

    /// Drains wake-up opportunities on a queue until no progress: deliver
    /// to waiting receivers while messages exist; admit waiting senders
    /// while space exists.
    fn pump_queue(&mut self, qid: u32) {
        loop {
            let mut progressed = false;

            // Wake one receiver if a message is available.
            if self.queue_ref(qid).is_some_and(|q| !q.is_empty()) {
                let receiver = self.procs.iter().enumerate().find_map(|(i, p)| {
                    let e = p.as_ref()?;
                    matches!(
                        &e.task.state,
                        ProcState::Blocked(Block::MqRecvWait { qid: q }) if *q == qid
                    )
                    .then(|| Pid::new(i as u32))
                });
                if let Some(r) = receiver {
                    let m = self.queues[qid as usize]
                        .as_mut()
                        .expect("exists")
                        .pop()
                        .expect("nonempty");
                    let data = MsgBytes::from_slice(self.exec.arena.get(m.msg));
                    self.exec.arena.free(m.msg);
                    self.note_cap(r, CapOp::Recv, qid, Some(m.msg), true);
                    self.ready_with(
                        r,
                        Reply::Data {
                            data,
                            priority: m.priority,
                        },
                    );
                    progressed = true;
                }
            }

            // Admit one sender if space is available. The parked handle
            // moves PCB→queue without touching the payload bytes.
            if self.queue_ref(qid).is_some_and(|q| !q.is_full()) {
                let sender = self.procs.iter().enumerate().find_map(|(i, p)| {
                    let e = p.as_ref()?;
                    matches!(
                        &e.task.state,
                        ProcState::Blocked(Block::MqSendWait { qid: q, .. }) if *q == qid
                    )
                    .then(|| Pid::new(i as u32))
                });
                if let Some(s) = sender {
                    let (msg, priority) = {
                        let entry = self.entry_mut(s).expect("sender alive");
                        match std::mem::replace(&mut entry.task.state, ProcState::Runnable) {
                            ProcState::Blocked(Block::MqSendWait { msg, priority, .. }) => {
                                (msg, priority)
                            }
                            _ => unreachable!("sender was send-waiting"),
                        }
                    };
                    self.queues[qid as usize]
                        .as_mut()
                        .expect("exists")
                        .push(MqMessage::new(priority, msg));
                    self.note_ipc(qid, s);
                    self.ready_with(s, Reply::Ok);
                    progressed = true;
                }
            }

            if !progressed {
                return;
            }
        }
    }

    /// Records `pid`'s capability check, use or receive on queue `qid`
    /// (with the message sent or received), if capability tracing is on.
    fn note_cap(&mut self, pid: Pid, op: CapOp, qid: u32, msg: Option<MsgRef>, ok: bool) {
        if self.exec.cap_tracing() {
            let queue = qname_handle(&self.queues, qid);
            let cap = Detail::MqCap { op, queue, msg, ok };
            self.exec.record(Some(pid), cap);
        }
    }

    fn note_ipc(&mut self, qid: u32, sender: Pid) {
        self.exec.ipc_deliver(64);
        self.exec.metrics.hot_path_allocs = self.exec.arena.heap_events();
        let queue = qname_handle(&self.queues, qid);
        self.exec
            .record(Some(sender), Detail::MqSend { sender, queue });
    }

    fn entry_ref(&self, pid: Pid) -> Option<&ProcEntry> {
        self.procs.get(pid.as_usize()).and_then(Option::as_ref)
    }

    fn entry_mut(&mut self, pid: Pid) -> Option<&mut ProcEntry> {
        self.procs.get_mut(pid.as_usize()).and_then(Option::as_mut)
    }
}

impl Kernel for LinuxKernel {
    type Syscall = Syscall;
    type Reply = Reply;
    type Block = Block;
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
    fn task_mut(&mut self, pid: Pid) -> Option<&mut Task<Syscall, Reply, Block>> {
        self.entry_mut(pid).map(|e| &mut e.task)
    }

    fn handle_syscall(&mut self, pid: Pid, sys: Syscall) {
        match sys {
            Syscall::MqOpen {
                name,
                access,
                create,
            } => self.do_mq_open(pid, name, access, create),
            Syscall::MqSend {
                qd,
                data,
                priority,
                nonblocking,
            } => self.do_mq_send(pid, qd, data, priority, nonblocking),
            Syscall::MqReceive { qd, nonblocking } => self.do_mq_receive(pid, qd, nonblocking),
            Syscall::MqUnlink { name } => self.do_mq_unlink(pid, name),
            Syscall::Kill {
                pid: target,
                signal,
            } => self.do_kill(pid, target, signal),
            Syscall::Fork { program } => self.do_fork(pid, program),
            Syscall::SetUid { uid } => {
                let caller_uid = self.entry_ref(pid).expect("caller").uid;
                let r = if caller_uid.is_root() {
                    self.entry_mut(pid).expect("caller").uid = Uid::new(uid);
                    Reply::Ok
                } else {
                    Reply::Err(LinuxError::NotPermitted)
                };
                self.ready_with(pid, r);
            }
            Syscall::PidOf { name } => {
                let r = match self.pid_of(&name) {
                    Some(p) => Reply::Pid(p),
                    None => Reply::Err(LinuxError::NoSuchProcess),
                };
                self.ready_with(pid, r);
            }
            Syscall::GetPid => self.ready_with(pid, Reply::Pid(pid)),
            Syscall::GetUid => {
                let uid = self.entry_ref(pid).expect("caller").uid.as_u32();
                self.ready_with(pid, Reply::Uid(uid));
            }
            Syscall::Sleep { duration } => self.sleep(pid, duration),
            Syscall::GetTime => {
                let now = self.now();
                self.ready_with(pid, Reply::Time(now));
            }
            Syscall::DevRead { dev } => self.do_device(pid, dev, None),
            Syscall::DevWrite { dev, value } => self.do_device(pid, dev, Some(value)),
        }
    }

    fn terminate(&mut self, pid: Pid) {
        let Some(entry) = self.procs.get_mut(pid.as_usize()).and_then(Option::take) else {
            return;
        };
        // A send parked on a full queue still owns its arena slot.
        if let ProcState::Blocked(Block::MqSendWait { msg, .. }) = &entry.task.state {
            self.exec.arena.free(*msg);
        }
        self.exec.reap(pid);
        self.names.retain(|_, p| *p != pid);
    }

    fn pid_of(&self, name: &str) -> Option<Pid> {
        self.names.get(name).copied().filter(|&p| self.is_alive(p))
    }

    fn any_alive(&self, pred: &mut dyn FnMut(&str) -> bool) -> bool {
        self.procs.iter().flatten().any(|e| pred(&e.name))
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

    /// Applies a chmod-style churn op: edits the permission triple through
    /// which the live process named `op.subject` reaches the queue named
    /// `op.object`. Revoke clears the triple, attenuate strips its write
    /// bits, grant sets read+write. Returns false when the subject or
    /// queue is unknown or the bits were already in the requested state.
    ///
    /// Open descriptors are deliberately left untouched — exactly Linux's
    /// semantics, and exactly the window the race detector hunts:
    /// `mq_send` trusts the open-time DAC check forever after.
    fn apply_cap_churn(&mut self, op: &CapChurnOp) -> bool {
        let Some(uid) = self
            .pid_of(&op.subject)
            .and_then(|p| self.entry_ref(p))
            .map(|e| e.uid)
        else {
            return false;
        };
        let Some(&qid) = self.queue_ids.get(&op.object) else {
            return false;
        };
        let Some(q) = self.queues.get_mut(qid as usize).and_then(Option::as_mut) else {
            return false;
        };
        let class = class_bits(uid, q.owner, q.group);
        let old = q.mode.bits();
        let new = match op.kind {
            ChurnKind::Grant => old | (class & 0o666),
            ChurnKind::Attenuate => old & !(class & 0o222),
            ChurnKind::Revoke => old & !class,
        };
        q.mode = Mode::new(new);
        self.exec.record(
            None,
            Detail::Churn(Box::new(Churn {
                op: op.clone(),
                old,
                new,
            })),
        );
        new != old
    }

    /// Arms a churn op to fire immediately after the `after_checks`-th
    /// subsequent *successful* DAC open check by `op.subject` on
    /// `op.object` — deterministically inside the check→use window.
    fn arm_cap_churn(&mut self, op: &CapChurnOp, after_checks: u32) {
        self.armed_churn.push((op.clone(), after_checks));
    }
}
