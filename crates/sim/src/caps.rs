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
//! Like [`crate::trace::TraceLog`], the log is **disabled by default** and
//! fully lazy: when disabled (the perf-benchmark configuration) recording
//! is a single branch and no strings are built.

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// One kind of capability operation in the event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
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

/// Default event capacity — large enough for multi-hour scenario runs,
/// bounded so a runaway churn loop cannot exhaust memory.
pub const DEFAULT_CAP_EVENTS: usize = 1_000_000;

/// The kernel-side capability-event recorder.
///
/// Mirrors [`crate::trace::TraceLog`]'s gating contract: disabled by
/// default, `record_with` takes a closure so the (String-building) event
/// is only materialized when the log is enabled and below capacity.
#[derive(Debug)]
pub struct CapLog {
    events: Vec<CapEvent>,
    edges: Vec<(u64, u64)>,
    next_seq: u64,
    capacity: usize,
    dropped: u64,
    enabled: bool,
}

impl Default for CapLog {
    fn default() -> Self {
        CapLog::new()
    }
}

impl CapLog {
    /// Creates a disabled log with the default capacity.
    pub fn new() -> Self {
        CapLog {
            events: Vec::new(),
            edges: Vec::new(),
            next_seq: 0,
            capacity: DEFAULT_CAP_EVENTS,
            dropped: 0,
            enabled: false,
        }
    }

    /// Turns recording on (idempotent).
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// True if recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event; `build` returns `(subject, cap, object)` and
    /// runs only when the log is enabled and below capacity. Returns the
    /// event's seq when recorded, so callers can thread IPC edges.
    pub fn record_with(
        &mut self,
        at: SimTime,
        op: CapOp,
        ok: bool,
        build: impl FnOnce() -> (String, String, String),
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return None;
        }
        let (subject, cap, object) = build();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(CapEvent {
            seq,
            at,
            subject,
            op,
            cap,
            object,
            ok,
        });
        Some(seq)
    }

    /// Records a happens-before edge between two recorded events. Either
    /// side may be `None` (its event was dropped or the log disabled);
    /// the edge is then skipped.
    pub fn edge(&mut self, from: Option<u64>, to: Option<u64>) {
        if let (Some(f), Some(t)) = (from, to) {
            self.edges.push((f, t));
        }
    }

    /// Events dropped after hitting capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Snapshots the recorded trace.
    pub fn trace(&self) -> CapTrace {
        CapTrace {
            events: self.events.clone(),
            edges: self.edges.clone(),
        }
    }
}

/// What a churn request does to the named right.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            ChurnKind::Grant => "grant",
            ChurnKind::Attenuate => "attenuate",
            ChurnKind::Revoke => "revoke",
        }
    }
}

/// A platform-agnostic mid-run capability mutation: `subject`'s right to
/// reach `object` (both canonical scenario process names) is granted,
/// attenuated or revoked by `actor`. Each platform interprets the pair
/// through its own policy artifact: the MINIX ACM row `subject→object`,
/// the seL4 endpoint capabilities `subject` holds on `object`'s
/// interfaces, or the mode bits of the mq connecting `subject` to
/// `object` on Linux.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

    fn ev(log: &mut CapLog, op: CapOp, ok: bool) -> Option<u64> {
        log.record_with(SimTime::ZERO, op, ok, || {
            ("s".into(), "c".into(), "o".into())
        })
    }

    #[test]
    fn disabled_log_records_nothing_and_builds_nothing() {
        let mut log = CapLog::new();
        let seq = log.record_with(SimTime::ZERO, CapOp::Check, true, || {
            panic!("closure must not run while disabled")
        });
        assert_eq!(seq, None);
        assert!(log.is_empty());
    }

    #[test]
    fn enabled_log_assigns_monotonic_seqs() {
        let mut log = CapLog::new();
        log.enable();
        assert_eq!(ev(&mut log, CapOp::Check, true), Some(0));
        assert_eq!(ev(&mut log, CapOp::Use, false), Some(1));
        assert_eq!(log.len(), 2);
        assert_eq!(log.trace().events[1].op, CapOp::Use);
    }

    #[test]
    fn capacity_drops_and_counts() {
        let mut log = CapLog::new();
        log.enable();
        log.capacity = 1;
        assert!(ev(&mut log, CapOp::Check, true).is_some());
        assert!(ev(&mut log, CapOp::Use, true).is_none());
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn edges_skip_dropped_sides() {
        let mut log = CapLog::new();
        log.enable();
        let a = ev(&mut log, CapOp::Use, true);
        log.edge(a, None);
        log.edge(None, a);
        log.edge(a, a);
        assert_eq!(log.trace().edges, vec![(0, 0)]);
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
