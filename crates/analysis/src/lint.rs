//! Policy linter: severity-ranked findings over the Policy IR.
//!
//! The linter compares the *effective* policy (the lowered channel
//! graph) against a *justification* — the minimal authority implied by
//! the AADL connection topology — and flags everything the policy grants
//! beyond it. Findings are deterministically ordered (severity, code,
//! subject, object, detail) so lint output is byte-stable.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use bas_acm::matrix::MsgTypeSet;
use bas_acm::MsgType;
use bas_core::proto::MT_ACK;
use bas_sim::device::DeviceId;

use crate::flow::{self, Asset, FlowKind, Witness};
use crate::ir::{ChannelKind, ObjectId, Operation, PolicyModel, Trust};

/// Finding severity, most severe first (sort order = report order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// An *untrusted* subject holds authority that breaks the scenario's
    /// security argument — CI gates on this level (`exp_policy_audit`
    /// exits nonzero when a secure configuration produces one).
    Error,
    /// Violates the scenario's security argument.
    High,
    /// Excess authority with a known-bounded blast radius.
    Medium,
    /// Hygiene: granted but unused.
    Low,
    /// Informational summary.
    Info,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Error => "error",
            Severity::High => "high",
            Severity::Medium => "medium",
            Severity::Low => "low",
            Severity::Info => "info",
        };
        f.write_str(s)
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Severity rank.
    pub severity: Severity,
    /// Stable rule code.
    pub code: &'static str,
    /// Subject the finding is about.
    pub subject: String,
    /// Object (rendered) the finding is about.
    pub object: String,
    /// Explanation.
    pub detail: String,
}

/// The minimal authority the scenario actually needs — synthesized from
/// the AADL connection topology, platform-independent.
#[derive(Debug, Clone, Default)]
pub struct Justification {
    /// Required `(sender, receiver, msg type)` application edges.
    pub app_edges: BTreeSet<(String, String, u32)>,
    /// Required process-management authority.
    pub sys_ops: BTreeSet<(String, Operation)>,
    /// Device → its one legitimate driver.
    pub device_owners: BTreeMap<DeviceId, String>,
    /// Queue → intended members (reader + writers).
    pub queue_membership: BTreeMap<String, BTreeSet<String>>,
    /// All expected subject names.
    pub subjects: BTreeSet<String>,
}

impl Justification {
    fn pair_connected(&self, a: &str, b: &str) -> bool {
        self.app_edges
            .iter()
            .any(|(s, r, _)| (s == a && r == b) || (s == b && r == a))
    }

    fn justified_types(&self, sender: &str, receiver: &str) -> BTreeSet<u32> {
        self.app_edges
            .iter()
            .filter(|(s, r, _)| s == sender && r == receiver)
            .map(|(_, _, t)| *t)
            .collect()
    }
}

/// Whether `subject` is bound and marked untrusted — excess authority in
/// untrusted hands is what the CI gate fails the build on.
fn is_untrusted(model: &PolicyModel, subject: &str) -> bool {
    model
        .subjects
        .get(subject)
        .is_some_and(|s| s.trust == Trust::Untrusted)
}

/// `Error` when the subject is untrusted, `base` otherwise.
fn escalate(model: &PolicyModel, subject: &str, base: Severity) -> Severity {
    if is_untrusted(model, subject) {
        Severity::Error
    } else {
        base
    }
}

/// Runs every lint rule; returns findings sorted most-severe first.
pub fn lint(model: &PolicyModel, justification: &Justification) -> Vec<Finding> {
    let mut findings = Vec::new();
    let witnesses = flow::escalation_witnesses(model);

    check_message_channels(model, justification, &mut findings);
    check_sys_ops(model, justification, &mut findings);
    check_device_access(model, justification, &mut findings);
    check_queue_membership(model, justification, &mut findings);
    check_dangling_identities(model, &mut findings);
    check_actuator_paths(model, &witnesses, &mut findings);
    check_derivations(model, &mut findings);
    check_escalation_witnesses(&witnesses, &mut findings);
    least_privilege_diff(model, justification, &mut findings);

    findings.sort_by(|a, b| {
        (a.severity, a.code, &a.subject, &a.object, &a.detail)
            .cmp(&(b.severity, b.code, &b.subject, &b.object, &b.detail))
    });
    findings.dedup();
    findings
}

/// Rule: over-granted-capability / unused-message-type on message
/// channels (ACM rows, endpoint capabilities).
fn check_message_channels(
    model: &PolicyModel,
    justification: &Justification,
    findings: &mut Vec<Finding>,
) {
    for c in &model.channels {
        let receiver = match (&c.kind, &c.object) {
            (ChannelKind::AsyncSend | ChannelKind::RpcCall, ObjectId::Process(p)) => p.as_str(),
            _ => continue,
        };
        if c.kind == ChannelKind::RpcCall {
            // Capability granularity: a write cap to someone's endpoint
            // is justified only by a connection toward that server.
            if justification
                .justified_types(&c.subject, receiver)
                .is_empty()
            {
                findings.push(Finding {
                    severity: escalate(model, &c.subject, Severity::High),
                    code: "over-granted-capability",
                    subject: c.subject.clone(),
                    object: c.object.to_string(),
                    detail: format!(
                        "endpoint capability{} has no AADL connection justifying it",
                        c.badge.map_or(String::new(), |b| format!(" (badge {b})"))
                    ),
                });
            }
            continue;
        }
        // ACM granularity: per message type.
        if c.msg_types == MsgTypeSet::All {
            findings.push(Finding {
                severity: escalate(model, &c.subject, Severity::High),
                code: "over-granted-capability",
                subject: c.subject.clone(),
                object: c.object.to_string(),
                detail: "wildcard message-type grant (allow-all)".into(),
            });
            continue;
        }
        let justified = justification.justified_types(&c.subject, receiver);
        let ack_ok = justification.pair_connected(&c.subject, receiver);
        let granted: Vec<u32> = (0..64)
            .filter(|&t| c.msg_types.contains(MsgType::new(t)))
            .collect();
        let excess: Vec<u32> = granted
            .iter()
            .copied()
            .filter(|&t| {
                if t == MT_ACK {
                    !ack_ok
                } else {
                    !justified.contains(&t)
                }
            })
            .collect();
        if excess.is_empty() {
            continue;
        }
        let has_any_justified = granted
            .iter()
            .any(|&t| (t == MT_ACK && ack_ok) || justified.contains(&t));
        if has_any_justified {
            for t in excess {
                findings.push(Finding {
                    severity: Severity::Low,
                    code: "unused-message-type",
                    subject: c.subject.clone(),
                    object: c.object.to_string(),
                    detail: format!("type {t} granted but no connection carries it"),
                });
            }
        } else {
            findings.push(Finding {
                severity: escalate(model, &c.subject, Severity::High),
                code: "over-granted-capability",
                subject: c.subject.clone(),
                object: c.object.to_string(),
                detail: format!(
                    "channel (types {:?}) has no AADL connection justifying it",
                    excess
                ),
            });
        }
    }
}

/// Rule: fork/kill authority beyond the loader's.
fn check_sys_ops(model: &PolicyModel, justification: &Justification, findings: &mut Vec<Finding>) {
    for c in &model.channels {
        if c.kind != ChannelKind::SysOp {
            continue;
        }
        let needs_justification = matches!(c.op, Operation::Fork | Operation::Kill);
        if !needs_justification {
            continue; // getpid/exit are harmless baseline
        }
        if justification.sys_ops.contains(&(c.subject.clone(), c.op)) {
            continue;
        }
        // Kill authority in untrusted hands defeats the availability half
        // of the security argument; unjustified fork stays a bounded
        // hygiene issue (the quota contains it), so it is never escalated.
        let severity = if c.op == Operation::Kill {
            escalate(model, &c.subject, Severity::Medium)
        } else {
            Severity::Medium
        };
        findings.push(Finding {
            severity,
            code: "over-granted-capability",
            subject: c.subject.clone(),
            object: c.object.to_string(),
            detail: format!("{} authority not required by the scenario", c.op),
        });
    }
}

/// Rule: device access held by anyone but the device's driver.
fn check_device_access(
    model: &PolicyModel,
    justification: &Justification,
    findings: &mut Vec<Finding>,
) {
    for c in &model.channels {
        let ObjectId::Device(dev) = &c.object else {
            continue;
        };
        if justification.device_owners.get(dev) == Some(&c.subject) {
            continue;
        }
        findings.push(Finding {
            severity: escalate(model, &c.subject, Severity::High),
            code: "over-granted-capability",
            subject: c.subject.clone(),
            object: c.object.to_string(),
            detail: format!("{} access; device belongs to another driver", c.op),
        });
    }
}

/// Rule: ambient-authority-queue — DAC admits a subject the plan never
/// made a member of the queue.
fn check_queue_membership(
    model: &PolicyModel,
    justification: &Justification,
    findings: &mut Vec<Finding>,
) {
    let mut flagged: BTreeSet<(String, String)> = BTreeSet::new();
    for c in &model.channels {
        let ObjectId::Queue(q) = &c.object else {
            continue;
        };
        let member = justification
            .queue_membership
            .get(q)
            .is_some_and(|m| m.contains(&c.subject));
        if member {
            continue;
        }
        if !flagged.insert((c.subject.clone(), q.clone())) {
            continue;
        }
        findings.push(Finding {
            severity: escalate(model, &c.subject, Severity::Medium),
            code: "ambient-authority-queue",
            subject: c.subject.clone(),
            object: c.object.to_string(),
            detail: "DAC admits a non-member of the queue".into(),
        });
    }
}

/// Rule: dangling-ac-id — identities granted rights that no subject is
/// bound to (stale rows after a process was removed).
fn check_dangling_identities(model: &PolicyModel, findings: &mut Vec<Finding>) {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for c in &model.channels {
        let mut names = vec![c.subject.clone()];
        if let ObjectId::Process(p) = &c.object {
            names.push(p.clone());
        }
        for name in names {
            if model.subjects.contains_key(&name) || !seen.insert(name.clone()) {
                continue;
            }
            findings.push(Finding {
                severity: Severity::Medium,
                code: "dangling-ac-id",
                subject: name.clone(),
                object: "-".into(),
                detail: "identity appears in the policy but no subject is bound to it".into(),
            });
        }
    }
}

/// Rule: untrusted-to-actuator-path — every escalation witness by which
/// an untrusted subject influences actuation: direct device access,
/// unmediated commands into a driver, tainted control input, plus any
/// capability-borne route a breached derivation opens.
fn check_actuator_paths(model: &PolicyModel, witnesses: &[Witness], findings: &mut Vec<Finding>) {
    for w in witnesses {
        if !matches!(
            w.asset,
            Asset::DeviceWrite(_) | Asset::ActuatorCommand(_) | Asset::TaintedActuation { .. }
        ) {
            continue;
        }
        // The witness's source is untrusted by construction, so this
        // always escalates; `High` covers a source that lost its binding.
        findings.push(Finding {
            severity: escalate(model, &w.subject, Severity::High),
            code: "untrusted-to-actuator-path",
            subject: w.subject.clone(),
            object: "actuators".into(),
            detail: w.render(),
        });
    }
}

/// Rules: attenuation-violation / revocation-leak / expired-cap-live /
/// object-masquerade — the capability-flow closure's derivation
/// invariants, each finding carrying its derivation chain as evidence.
fn check_derivations(model: &PolicyModel, findings: &mut Vec<Finding>) {
    if model.caps.is_empty() {
        return;
    }
    let cl = flow::closure(&model.caps);
    let kids = model.caps.children();
    for f in &cl.findings {
        let severity = match f.kind {
            // A slot the kernel would wrongly honor: breaks the security
            // argument outright, worse in untrusted hands.
            FlowKind::AttenuationViolation | FlowKind::ExpiredCapLive => {
                escalate(model, &f.holder, Severity::High)
            }
            // A leak errors as soon as the revoked-but-live right *or
            // anything derived from it* sits in untrusted hands: the
            // whole subtree survived the revoke, so every descendant is
            // the same TOCTOU window the race detector demonstrates
            // dynamically.
            FlowKind::RevocationLeak => {
                if leak_reaches_untrusted(model, &kids, f.cap) {
                    Severity::Error
                } else {
                    escalate(model, &f.holder, Severity::High)
                }
            }
            // Type confusion is exploitable only where handles are
            // guessable; elsewhere it is a (serious) hygiene defect.
            FlowKind::ObjectMasquerade => {
                if flow::masquerade_exploitable(model) {
                    escalate(model, &f.holder, Severity::High)
                } else {
                    Severity::Medium
                }
            }
        };
        let chain = f
            .chain
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" -> ");
        findings.push(Finding {
            severity,
            code: f.kind.code(),
            subject: f.holder.clone(),
            object: f.object.to_string(),
            detail: format!("{} [chain: {chain}]", f.detail),
        });
    }
}

/// Whether the derivation subtree rooted at `cap` (the leaked slot and
/// everything derived from it) contains a capability held by an
/// untrusted subject. `kids` is the graph's child adjacency.
fn leak_reaches_untrusted(
    model: &PolicyModel,
    kids: &[Vec<crate::flow::CapId>],
    cap: crate::flow::CapId,
) -> bool {
    let mut queue = vec![cap];
    let mut seen = BTreeSet::new();
    while let Some(id) = queue.pop() {
        if !seen.insert(id) {
            continue; // defensive: malformed parent pointers
        }
        if is_untrusted(model, &model.caps.node(id).holder) {
            return true;
        }
        queue.extend(kids[id.0 as usize].iter().copied());
    }
    false
}

/// Rule: derived-cap-escalation — an untrusted subject reaches a
/// safety-relevant asset *through* an anomalous capability edge. The
/// shortest chain is the finding's evidence.
fn check_escalation_witnesses(witnesses: &[Witness], findings: &mut Vec<Finding>) {
    for w in witnesses {
        if !w.via_caps {
            continue; // channel-direct routes are covered by other rules
        }
        findings.push(Finding {
            // The subject is untrusted by construction of the search.
            severity: Severity::Error,
            code: "derived-cap-escalation",
            subject: w.subject.clone(),
            object: w.hops.last().cloned().unwrap_or_default(),
            detail: w.render(),
        });
    }
}

/// Rule: least-privilege-diff — one summary finding comparing deliverable
/// message edges against the AADL-minimal policy.
fn least_privilege_diff(
    model: &PolicyModel,
    justification: &Justification,
    findings: &mut Vec<Finding>,
) {
    let mut actual: BTreeSet<(String, String, u32)> = BTreeSet::new();
    for c in &model.channels {
        let receiver = match (&c.kind, &c.object) {
            (ChannelKind::AsyncSend | ChannelKind::RpcCall, ObjectId::Process(p)) => p.clone(),
            (ChannelKind::QueueWrite, ObjectId::Queue(q)) => match model.queue_readers.get(q) {
                Some(r) => r.clone(),
                None => continue,
            },
            _ => continue,
        };
        for t in 0..64 {
            if t != MT_ACK && c.msg_types.contains(MsgType::new(t)) {
                actual.insert((c.subject.clone(), receiver.clone(), t));
            }
        }
        if c.msg_types == MsgTypeSet::All {
            // `type_bits` saturates; record symbolically as one wildcard.
            actual.insert((c.subject.clone(), receiver.clone(), u32::MAX));
        }
    }
    let minimal: BTreeSet<(String, String, u32)> = justification
        .app_edges
        .iter()
        .filter(|(_, _, t)| *t != MT_ACK)
        .cloned()
        .collect();
    let excess = actual.difference(&minimal).count();
    findings.push(Finding {
        severity: Severity::Info,
        code: "least-privilege-diff",
        subject: "policy".into(),
        object: model.platform.to_string(),
        detail: format!(
            "{} deliverable sender->receiver message edges; {} required by AADL connections; {} excess",
            actual.len(),
            minimal.len(),
            excess
        ),
    });
}

/// Renders findings as a JSON array (hand-rolled: stable, no deps).
pub fn findings_to_json(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"severity\": \"{}\", \"code\": \"{}\", \"subject\": \"{}\", \"object\": \"{}\", \"detail\": \"{}\"}}{}\n",
            f.severity,
            esc(f.code),
            esc(&f.subject),
            esc(&f.object),
            esc(&f.detail),
            if i + 1 == findings.len() { "" } else { "," }
        ));
    }
    out.push(']');
    out
}

/// The attack classes the analyzer covers: the nine matrix attacks, the
/// two capability-flow classes, and the two churn-race classes.
pub const ATTACK_CLASSES: [&str; 13] = [
    "spoof-sensor-data",
    "spoof-actuator-cmds",
    "kill-critical",
    "fork-bomb",
    "brute-force-handles",
    "flood-legit-channel",
    "direct-device-write",
    "setpoint-tamper",
    "replay-setpoint",
    "kernel-object-masquerade",
    "derived-capability-escalation",
    "capability-race",
    "use-after-revoke",
];

/// Renders findings as a JSON report object: the covered attack classes
/// plus the findings array of [`findings_to_json`]. Ordering is
/// deterministic ([`lint`] sorts by severity, then subject/object ids).
pub fn findings_report_json(findings: &[Finding]) -> String {
    let classes = ATTACK_CLASSES
        .iter()
        .map(|c| format!("\"{c}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let body = findings_to_json(findings)
        .lines()
        .collect::<Vec<_>>()
        .join("\n  ");
    format!("{{\n  \"attack_classes\": [{classes}],\n  \"findings\": {body}\n}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Channel, PlatformTraits, PolicyModel, Trust};
    use bas_core::scenario::Platform;

    fn traits() -> PlatformTraits {
        PlatformTraits {
            kernel_stamped_identity: true,
            rpc_in_band_validation: false,
            uid_root_bypass: false,
            unguessable_handles: true,
        }
    }

    fn send(subject: &str, receiver: &str, types: &[u32]) -> Channel {
        Channel {
            subject: subject.into(),
            object: ObjectId::Process(receiver.into()),
            op: Operation::Send,
            msg_types: MsgTypeSet::of(types.iter().map(|&t| MsgType::new(t))),
            kind: ChannelKind::AsyncSend,
            badge: None,
        }
    }

    fn justification() -> Justification {
        let mut j = Justification::default();
        j.app_edges.insert(("a".into(), "b".into(), 1));
        j.subjects.insert("a".into());
        j.subjects.insert("b".into());
        j
    }

    #[test]
    fn justified_channel_is_clean() {
        let mut m = PolicyModel::new(Platform::Minix, traits());
        m.add_subject("a", Trust::Trusted, None);
        m.add_subject("b", Trust::Trusted, None);
        m.channels.push(send("a", "b", &[1]));
        m.normalize();
        let f = lint(&m, &justification());
        assert!(f.iter().all(|x| x.severity == Severity::Info), "{f:#?}");
    }

    #[test]
    fn extra_type_on_justified_pair_is_low() {
        let mut m = PolicyModel::new(Platform::Minix, traits());
        m.add_subject("a", Trust::Trusted, None);
        m.add_subject("b", Trust::Trusted, None);
        m.channels.push(send("a", "b", &[1, 5]));
        m.normalize();
        let f = lint(&m, &justification());
        let unused: Vec<_> = f
            .iter()
            .filter(|x| x.code == "unused-message-type")
            .collect();
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].severity, Severity::Low);
    }

    #[test]
    fn unjustified_channel_is_high() {
        let mut m = PolicyModel::new(Platform::Minix, traits());
        m.add_subject("a", Trust::Trusted, None);
        m.add_subject("b", Trust::Trusted, None);
        m.channels.push(send("b", "a", &[2]));
        m.normalize();
        let f = lint(&m, &justification());
        assert!(f
            .iter()
            .any(|x| x.code == "over-granted-capability" && x.severity == Severity::High));
    }

    #[test]
    fn wildcard_grant_is_high() {
        let mut m = PolicyModel::new(Platform::Minix, traits());
        m.add_subject("a", Trust::Trusted, None);
        m.add_subject("b", Trust::Trusted, None);
        m.channels.push(Channel {
            msg_types: MsgTypeSet::All,
            ..send("a", "b", &[])
        });
        m.normalize();
        let f = lint(&m, &justification());
        assert!(f.iter().any(|x| x.detail.contains("wildcard")));
    }

    #[test]
    fn dangling_identity_flagged_once() {
        let mut m = PolicyModel::new(Platform::Minix, traits());
        m.add_subject("a", Trust::Trusted, None);
        m.channels.push(send("a", "ac107", &[1]));
        m.channels.push(send("a", "ac107", &[2]));
        m.normalize();
        let f = lint(&m, &justification());
        let dangling: Vec<_> = f.iter().filter(|x| x.code == "dangling-ac-id").collect();
        assert_eq!(dangling.len(), 1);
        assert_eq!(dangling[0].subject, "ac107");
    }

    #[test]
    fn untrusted_queue_access_is_error() {
        let mut m = PolicyModel::new(Platform::Linux, traits());
        m.traits.kernel_stamped_identity = false;
        m.add_subject("web", Trust::Untrusted, None);
        m.channels.push(Channel {
            subject: "web".into(),
            object: ObjectId::Queue("/mq_q".into()),
            op: Operation::Send,
            msg_types: MsgTypeSet::of([MsgType::new(1)]),
            kind: ChannelKind::QueueWrite,
            badge: None,
        });
        m.normalize();
        let mut j = justification();
        j.queue_membership
            .insert("/mq_q".into(), ["sensor".to_string()].into());
        let f = lint(&m, &j);
        assert!(f
            .iter()
            .any(|x| x.code == "ambient-authority-queue" && x.severity == Severity::Error));
    }

    #[test]
    fn trusted_queue_access_stays_medium() {
        let mut m = PolicyModel::new(Platform::Linux, traits());
        m.add_subject("sensor2", Trust::Trusted, None);
        m.channels.push(Channel {
            subject: "sensor2".into(),
            object: ObjectId::Queue("/mq_q".into()),
            op: Operation::Send,
            msg_types: MsgTypeSet::of([MsgType::new(1)]),
            kind: ChannelKind::QueueWrite,
            badge: None,
        });
        m.normalize();
        let mut j = justification();
        j.queue_membership
            .insert("/mq_q".into(), ["sensor".to_string()].into());
        let f = lint(&m, &j);
        assert!(f
            .iter()
            .any(|x| x.code == "ambient-authority-queue" && x.severity == Severity::Medium));
    }

    #[test]
    fn untrusted_channel_escalates_to_error() {
        let mut m = PolicyModel::new(Platform::Minix, traits());
        m.add_subject("a", Trust::Trusted, None);
        m.add_subject("w", Trust::Untrusted, None);
        m.channels.push(send("w", "a", &[2]));
        m.normalize();
        let f = lint(&m, &justification());
        assert!(f
            .iter()
            .any(|x| x.code == "over-granted-capability" && x.severity == Severity::Error));
        assert_eq!(f[0].severity, Severity::Error, "errors sort first");
    }

    #[test]
    fn revocation_leak_escalates_when_the_subtree_reaches_untrusted_hands() {
        use crate::flow::{op, DerivationKind, Perms};
        // root(a) -> mid(b) -> leaf(w, untrusted); node-local root revoke
        // leaks mid and leaf. b is trusted, but the leak flows onward to
        // w — both findings must error.
        let mut m = PolicyModel::new(Platform::Minix, traits());
        m.add_subject("a", Trust::Trusted, None);
        m.add_subject("b", Trust::Trusted, None);
        m.add_subject("w", Trust::Untrusted, None);
        let r = m.caps.root(
            "a",
            ObjectId::Device(DeviceId::ALARM),
            Perms::of(op::DEV_WRITE),
        );
        let mid = m
            .caps
            .derive(r, "b", DerivationKind::Grant, Perms::of(op::DEV_WRITE));
        m.caps
            .derive(mid, "w", DerivationKind::Grant, Perms::of(op::DEV_WRITE));
        m.caps.revoke(r);
        m.normalize();
        let leaks: Vec<_> = lint(&m, &justification())
            .into_iter()
            .filter(|x| x.code == "revocation-leak")
            .collect();
        assert_eq!(leaks.len(), 2, "one finding per leaked descendant");
        for leak in &leaks {
            assert_eq!(
                leak.severity,
                Severity::Error,
                "{}: leak reaches untrusted hands",
                leak.subject
            );
        }

        // Control: the same chain ending in trusted hands stays High.
        let mut m = PolicyModel::new(Platform::Minix, traits());
        m.add_subject("a", Trust::Trusted, None);
        m.add_subject("b", Trust::Trusted, None);
        let r = m.caps.root(
            "a",
            ObjectId::Device(DeviceId::ALARM),
            Perms::of(op::DEV_WRITE),
        );
        m.caps
            .derive(r, "b", DerivationKind::Grant, Perms::of(op::DEV_WRITE));
        m.caps.revoke(r);
        m.normalize();
        let leaks: Vec<_> = lint(&m, &justification())
            .into_iter()
            .filter(|x| x.code == "revocation-leak")
            .collect();
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].severity, Severity::High, "trusted subtree");
    }

    #[test]
    fn findings_sorted_and_json_escapes() {
        let findings = vec![
            Finding {
                severity: Severity::Low,
                code: "unused-message-type",
                subject: "a".into(),
                object: "b".into(),
                detail: "x".into(),
            },
            Finding {
                severity: Severity::High,
                code: "over-granted-capability",
                subject: "a".into(),
                object: "b".into(),
                detail: "say \"hi\"".into(),
            },
        ];
        let json = findings_to_json(&findings);
        assert!(json.contains("\\\"hi\\\""));
        assert!(json.starts_with('[') && json.ends_with(']'));
    }

    #[test]
    fn actuator_paths_surface_unauthenticated_influence() {
        // `web` writes sensor readings into the controller's queue, and
        // the controller actuates on them.
        let model = |stamped: bool| {
            let mut m = PolicyModel::new(
                Platform::Linux,
                PlatformTraits {
                    kernel_stamped_identity: stamped,
                    ..traits()
                },
            );
            m.add_subject("web", Trust::Untrusted, None);
            m.add_subject("ctrl", Trust::Trusted, None);
            m.contracts
                .authenticated
                .insert(("ctrl".into(), 1), ["sensor".to_string()].into());
            m.contracts.actuation_inputs.insert(("ctrl".into(), 1));
            m.channels.push(Channel {
                object: ObjectId::Queue("/mq_in".into()),
                kind: ChannelKind::QueueWrite,
                ..send("web", "ctrl", &[1])
            });
            m.queue_readers.insert("/mq_in".into(), "ctrl".into());
            m
        };
        let paths = |m: &PolicyModel| -> Vec<Finding> {
            lint(m, &Justification::default())
                .into_iter()
                .filter(|f| f.code == "untrusted-to-actuator-path")
                .collect()
        };
        let found = paths(&model(false));
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].severity, Severity::Error);
        assert!(found[0].detail.contains("tainted control input"));
        // With kernel identity, the controller rejects the readings.
        assert!(paths(&model(true)).is_empty());
    }
}
