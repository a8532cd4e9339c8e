//! Capability-operation event streams and runtime churn requests.
//!
//! The paper's security argument is *static*: each platform's policy
//! artifact (ACM, CapDL spec, mq ACLs) is fixed at boot. The race-detector
//! work makes the dynamic half observable: every kernel can emit a
//! structured stream of capability operations — grants, attenuations,
//! revocations, admission checks and stale-handle uses — and accept
//! *churn* requests that mutate rights mid-run. `bas-analysis::races`
//! consumes the stream, assigns vector clocks from the recorded IPC
//! edges, and hunts TOCTOU windows between an admission check and the
//! delivery that used it.
//!
//! There is no separate capability log. Each kernel records its capability
//! operations as typed records in its own [`crate::trace::TraceLog`],
//! holding pids, ids and shared names, so recording one builds no string.
//! The trace starts enabled, but a [`crate::kernel::Kernel`] keeps capability
//! records only from `enable_cap_trace` until its next reset, and
//! `cap_trace` renders the [`CapTrace`] from them through [`CapRecord`].

use std::collections::HashMap;
use std::sync::Arc;

use crate::arena::MsgRef;
use crate::process::Pid;
use crate::time::SimTime;
use crate::trace::TraceEvent;

/// One kind of capability operation in the event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CapOp {
    /// A new right was installed (boot grant, delegation, regrant).
    Grant,
    /// An existing right was narrowed in place.
    Attenuate,
    /// A right was removed.
    Revoke,
    /// An admission check consulted the right (send gate, open gate).
    Check,
    /// The right was exercised at delivery/dequeue time. `ok = false`
    /// means the kernel honored a handle the current policy no longer
    /// authorizes — the observable half of a TOCTOU window.
    Use,
    /// The receiving side observed the delivery — the target end of an
    /// IPC happens-before edge.
    Recv,
}

impl CapOp {
    /// True for operations that *write* the capability state.
    pub fn is_write(self) -> bool {
        matches!(self, CapOp::Grant | CapOp::Attenuate | CapOp::Revoke)
    }

    /// Stable lowercase label (report vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            CapOp::Grant => "grant",
            CapOp::Attenuate => "attenuate",
            CapOp::Revoke => "revoke",
            CapOp::Check => "check",
            CapOp::Use => "use",
            CapOp::Recv => "recv",
        }
    }
}

/// One event in a kernel's capability-operation stream.
///
/// `subject` is the thread of control the event belongs to for
/// happens-before purposes: the sender for `Check`/`Use`, the receiver
/// for `Recv`, and the churn *actor* (e.g. `"pm"`, `"root"`) for writes.
/// `cap` names the capability instance (platform-specific encoding, e.g.
/// `acm:ac104->ac101` or `mq:/mq_tempProc_setpoint_in:web_interface`) and
/// is the identity the detector correlates across events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapEvent {
    /// Global emission sequence number (unique within one run).
    pub seq: u64,
    /// Virtual time of the operation (the logical tick).
    pub at: SimTime,
    /// Acting subject (process/thread/churn-actor name).
    pub subject: String,
    /// Operation kind.
    pub op: CapOp,
    /// Capability identity string.
    pub cap: String,
    /// Object the capability governs (process, endpoint or queue name).
    pub object: String,
    /// Whether the operation succeeded under the *current* policy.
    pub ok: bool,
}

/// A completed capability trace: the event stream plus the IPC edges
/// (`sender-side seq → receiver-side seq`) that induce cross-subject
/// happens-before ordering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CapTrace {
    /// All events, in emission (seq) order.
    pub events: Vec<CapEvent>,
    /// Happens-before edges between event seqs (from → to).
    pub edges: Vec<(u64, u64)>,
}

impl CapTrace {
    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

/// A kernel trace record read back as capability operations.
///
/// Each kernel's typed [`crate::trace::TraceDetail`] implements this, and
/// [`Kernel::cap_trace`](crate::kernel::Kernel::cap_trace) walks the whole
/// trace through it. A record names the processes it involves by pid; the
/// view resolves each pid to the name its latest spawn record gave it, so
/// a name renders exactly even after its process died.
pub trait CapRecord {
    /// Reports a spawn's name or appends the capability events this record
    /// stands for. `pid` is the pid the record is attributed to.
    fn cap_events(&self, pid: Option<Pid>, view: &mut CapView);
}

/// A [`CapTrace`] under construction: numbers events in record order,
/// resolves pids to names and pairs queued messages' uses and receives.
#[derive(Debug, Default)]
pub struct CapView {
    trace: CapTrace,
    /// The name of each pid.
    names: HashMap<Pid, Arc<str>>,
    /// Time of the record being read.
    at: SimTime,
    /// Whether the record being read was made with capability tracing on.
    keep: bool,
    /// The use event of each queued message sent with tracing on.
    staged: HashMap<MsgRef, u64>,
}

impl CapView {
    /// Names `pid` from this record on (a spawn record).
    pub fn spawned(&mut self, pid: Option<Pid>, name: &Arc<str>) {
        if let Some(pid) = pid {
            self.names.insert(pid, name.clone());
        }
    }

    /// The name `pid` had at the record being read (empty if unknown).
    pub fn name(&self, pid: Option<Pid>) -> String {
        pid.and_then(|p| self.names.get(&p))
            .map_or_else(String::new, |n| n.to_string())
    }

    /// Appends one event, `[subject, cap, object]`. A queued message's
    /// use and receives pass its `msg`, which pairs each receive with the
    /// use by a happens-before edge.
    pub fn push(&mut self, op: CapOp, ok: bool, names: [String; 3], msg: Option<MsgRef>) {
        if !self.keep {
            return;
        }
        let seq = self.event(op, ok, names);
        let Some(msg) = msg else {
            return;
        };
        if op == CapOp::Use {
            self.staged.insert(msg, seq);
        } else if let Some(&used) = self.staged.get(&msg) {
            self.trace.edges.push((used, seq));
        }
    }

    /// Appends a rendezvous delivery: `sender`'s use of `cap` (`ok` under
    /// the policy current at delivery), `receiver`'s receive, and the
    /// happens-before edge between them.
    pub fn delivery(&mut self, ok: bool, [sender, receiver, cap, object]: [String; 4]) {
        if self.keep {
            let used = self.event(CapOp::Use, ok, [sender, cap.clone(), object.clone()]);
            let received = self.event(CapOp::Recv, true, [receiver, cap, object]);
            self.trace.edges.push((used, received));
        }
    }

    fn event(&mut self, op: CapOp, ok: bool, [subject, cap, object]: [String; 3]) -> u64 {
        let seq = self.trace.events.len() as u64;
        let at = self.at;
        let event = CapEvent {
            seq,
            at,
            subject,
            op,
            cap,
            object,
            ok,
        };
        self.trace.events.push(event);
        seq
    }
}

impl CapTrace {
    /// Reads the capability events out of a kernel trace: those of every
    /// record from position `from` on, with names from the spawn records
    /// of the whole trace.
    pub(crate) fn from_records<D: CapRecord>(records: &[TraceEvent<D>], from: usize) -> CapTrace {
        let mut view = CapView::default();
        for (pos, e) in records.iter().enumerate() {
            view.at = e.time;
            view.keep = pos >= from;
            e.detail.cap_events(e.pid, &mut view);
        }
        view.trace
    }
}

/// What a churn request does to the named right.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// Install (or re-install) the right.
    Grant,
    /// Narrow the right in place (platform-specific: ACM type mask,
    /// capability rights bits, ACL write bits).
    Attenuate,
    /// Remove the right, sweeping derived copies where the platform
    /// tracks derivation (seL4 CDT).
    Revoke,
}

impl From<ChurnKind> for CapOp {
    /// The write event a churn op records.
    fn from(kind: ChurnKind) -> CapOp {
        match kind {
            ChurnKind::Grant => CapOp::Grant,
            ChurnKind::Attenuate => CapOp::Attenuate,
            ChurnKind::Revoke => CapOp::Revoke,
        }
    }
}

impl ChurnKind {
    /// Stable lowercase label, that of the write it records.
    pub fn label(self) -> &'static str {
        CapOp::from(self).label()
    }
}

/// A platform-agnostic mid-run capability mutation: `subject`'s right to
/// reach `object` (both canonical scenario process names) is granted,
/// attenuated or revoked by `actor`. Each platform interprets the pair
/// through its own policy artifact: the MINIX ACM row `subject→object`,
/// the seL4 endpoint capabilities `subject` holds on `object`'s
/// interfaces, or the mode bits of the mq connecting `subject` to
/// `object` on Linux.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapChurnOp {
    /// The mutation.
    pub kind: ChurnKind,
    /// Who performs it (the churn actor is its own happens-before
    /// subject; distinct actors make write-write conflicts expressible).
    pub actor: String,
    /// The holder whose right changes.
    pub subject: String,
    /// The object the right reaches.
    pub object: String,
}

impl CapChurnOp {
    /// Convenience constructor with the default scheduler actor.
    pub fn new(kind: ChurnKind, subject: &str, object: &str) -> Self {
        CapChurnOp {
            kind,
            actor: "churn-sched".into(),
            subject: subject.into(),
            object: object.into(),
        }
    }

    /// Replaces the acting subject.
    pub fn by(mut self, actor: &str) -> Self {
        self.actor = actor.into();
        self
    }

    /// Stable display label (fault-plan names, reports).
    pub fn label(&self) -> String {
        format!(
            "cap.{}({}->{})",
            self.kind.label(),
            self.subject,
            self.object
        )
    }
}

/// Counts one successful admission check against every armed churn op
/// that `hits` it, and disarms and returns (in arming order) the ops whose
/// countdown had reached zero. Each entry is an op and the number of
/// further matching checks to let pass first.
pub fn take_due<T>(armed: &mut Vec<(T, u32)>, hits: impl Fn(&T) -> bool) -> Vec<T> {
    armed
        .extract_if(.., |(op, remaining)| {
            if !hits(op) {
                return false;
            }
            let due = *remaining == 0;
            *remaining = remaining.saturating_sub(1);
            due
        })
        .map(|(op, _)| op)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::MsgArena;

    /// A test record: a spawn, a check by its pid, a delivery from
    /// `sender` to its pid, or a queued message's use or receive.
    enum Rec {
        Spawn(Arc<str>),
        Check,
        Deliver(Pid),
        Staged(MsgRef),
        Received(MsgRef),
    }

    impl CapRecord for Rec {
        fn cap_events(&self, pid: Option<Pid>, view: &mut CapView) {
            let names = |view: &CapView| [view.name(pid), "c".into(), "o".into()];
            match self {
                Rec::Spawn(name) => view.spawned(pid, name),
                Rec::Check => view.push(CapOp::Check, true, names(view), None),
                Rec::Deliver(sender) => {
                    let (s, r) = (view.name(Some(*sender)), view.name(pid));
                    view.delivery(false, [s, r, "c".into(), "o".into()]);
                }
                Rec::Staged(msg) => view.push(CapOp::Use, true, names(view), Some(*msg)),
                Rec::Received(msg) => view.push(CapOp::Recv, true, names(view), Some(*msg)),
            }
        }
    }

    fn rec(nanos: u64, pid: u32, detail: Rec) -> TraceEvent<Rec> {
        TraceEvent {
            time: SimTime::from_nanos(nanos),
            pid: Some(Pid::new(pid)),
            detail,
        }
    }

    #[test]
    fn view_reads_records_from_the_mark_with_names_of_the_whole_trace() {
        let records = [
            rec(1, 1, Rec::Spawn("a".into())),
            rec(2, 1, Rec::Check),
            rec(3, 2, Rec::Spawn("b".into())),
            rec(4, 2, Rec::Deliver(Pid::new(1))),
            // Pid 1 is reused: later records get the new name.
            rec(5, 1, Rec::Spawn("c".into())),
            rec(6, 1, Rec::Check),
            rec(7, 3, Rec::Check),
        ];
        let trace = CapTrace::from_records(&records, 2);
        let got: Vec<_> = trace
            .events
            .iter()
            .map(|e| (e.seq, e.at.as_nanos(), e.subject.as_str(), e.op, e.ok))
            .collect();
        assert_eq!(
            got,
            [
                (0, 4, "a", CapOp::Use, false),
                (1, 4, "b", CapOp::Recv, true),
                (2, 6, "c", CapOp::Check, true),
                (3, 7, "", CapOp::Check, true),
            ]
        );
        assert_eq!(trace.edges, [(0, 1)]);
        assert!(CapTrace::from_records(&records, records.len()).is_empty());
    }

    #[test]
    fn receives_pair_with_the_traced_use_of_their_message() {
        let mut arena = MsgArena::with_capacity(2);
        let (early, late) = (arena.alloc(b"x"), arena.alloc(b"y"));
        let records = [
            rec(1, 1, Rec::Staged(early)),
            rec(2, 1, Rec::Staged(late)),
            rec(3, 2, Rec::Received(late)),
            rec(4, 2, Rec::Received(early)),
            rec(5, 2, Rec::Received(late)),
        ];
        // `early` was staged before tracing began: its receive pairs with
        // nothing; a duplicate of `late` pairs with the same use.
        let trace = CapTrace::from_records(&records, 1);
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.edges, [(0, 1), (0, 3)]);
    }

    #[test]
    fn churn_op_labels_are_stable() {
        let op = CapChurnOp::new(ChurnKind::Revoke, "web_interface", "temp_control");
        assert_eq!(op.label(), "cap.revoke(web_interface->temp_control)");
        assert_eq!(op.actor, "churn-sched");
        assert_eq!(op.by("pm").actor, "pm");
    }

    #[test]
    fn write_ops_classified() {
        assert!(CapOp::Grant.is_write());
        assert!(CapOp::Revoke.is_write());
        assert!(!CapOp::Check.is_write());
        assert!(!CapOp::Recv.is_write());
    }

    #[test]
    fn take_due_counts_down_matching_ops_only() {
        let mut armed = vec![("a", 1), ("b", 0), ("a", 0)];
        assert_eq!(take_due(&mut armed, |op| *op == "a"), ["a"]);
        assert_eq!(armed, [("a", 0), ("b", 0)]);
        assert_eq!(take_due(&mut armed, |op| *op == "a"), ["a"]);
        assert_eq!(armed, [("b", 0)]);
    }
}
