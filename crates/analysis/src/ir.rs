//! The Policy IR: a platform-neutral channel graph.
//!
//! Every platform's policy artifact — the MINIX ACM, a compiled CapDL
//! spec, the Linux loader's message-queue ACL plan — lowers into one
//! [`PolicyModel`]: a set of *subjects* (processes/threads) and a set of
//! *channels*, each a `(subject, object, operation, message types)` edge
//! annotated with the enforcement mechanism that admits it. Static
//! analyses (attack prediction, linting, least-privilege diffs) then run
//! on the IR without caring which backend produced it.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use bas_acm::matrix::MsgTypeSet;
use bas_acm::MsgType;
use bas_core::scenario::Platform;
use bas_sim::device::DeviceId;

/// Whether a subject is inside or outside the trust boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Trust {
    /// Part of the trusted computing base of the scenario.
    Trusted,
    /// Assumed attacker-controlled (the paper's web interface).
    Untrusted,
}

/// Per-subject facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubjectInfo {
    /// Trust classification.
    pub trust: Trust,
    /// The uid the subject runs under, where the platform has one.
    pub uid: Option<u32>,
}

/// What a channel points at.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObjectId {
    /// Another subject (message delivery to a process/thread).
    Process(String),
    /// A named POSIX message queue.
    Queue(String),
    /// A hardware device (register file / `/dev` node).
    Device(DeviceId),
    /// The process-management authority (MINIX PM server, or the
    /// fork/kill surface of a monolithic kernel).
    ProcessManager,
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectId::Process(p) => write!(f, "proc:{p}"),
            ObjectId::Queue(q) => write!(f, "mq:{q}"),
            ObjectId::Device(d) => write!(f, "dev:{d}"),
            ObjectId::ProcessManager => write!(f, "pm"),
        }
    }
}

/// The operation a channel authorizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operation {
    /// Send a message toward the object.
    Send,
    /// Receive/read from the object.
    Receive,
    /// Write a device register.
    DevWrite,
    /// Read a device register.
    DevRead,
    /// Terminate the target.
    Kill,
    /// Create a new process/thread.
    Fork,
    /// Query one's own pid.
    GetPid,
    /// Exit voluntarily.
    Exit,
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Operation::Send => "send",
            Operation::Receive => "recv",
            Operation::DevWrite => "dev-write",
            Operation::DevRead => "dev-read",
            Operation::Kill => "kill",
            Operation::Fork => "fork",
            Operation::GetPid => "getpid",
            Operation::Exit => "exit",
        };
        f.write_str(s)
    }
}

/// The enforcement mechanism standing between a send and its delivery —
/// this determines *where* an attack's first observable verdict lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChannelKind {
    /// MINIX-style asynchronous send: the kernel consults the ACM at the
    /// send syscall, so the mechanism verdict is the kernel's.
    AsyncSend,
    /// seL4-style `Call` through a badged endpoint: the kernel only
    /// checks capability possession; acceptance is judged *in-band* by
    /// the server's reply label.
    RpcCall,
    /// POSIX mq write: DAC is checked at `mq_open`, the payload carries
    /// no sender identity.
    QueueWrite,
    /// POSIX mq read.
    QueueRead,
    /// Direct device register access.
    DeviceAccess,
    /// Process-management operation (fork/kill/getpid/exit).
    SysOp,
}

/// One edge of the channel graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Channel {
    /// The acting subject.
    pub subject: String,
    /// The object acted on.
    pub object: ObjectId,
    /// The authorized operation.
    pub op: Operation,
    /// Message types permitted on the channel (for message channels).
    pub msg_types: MsgTypeSet,
    /// The enforcement mechanism admitting the channel.
    pub kind: ChannelKind,
    /// seL4 badge presented to the receiver, if any.
    pub badge: Option<u64>,
}

impl Channel {
    /// Deterministic sort key (severity-stable output ordering).
    pub fn sort_key(&self) -> (String, ObjectId, Operation, u64) {
        (
            self.subject.clone(),
            self.object.clone(),
            self.op,
            type_bits(self.msg_types),
        )
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} --{}[{}]--> {}",
            self.subject, self.op, self.msg_types, self.object
        )
    }
}

/// The raw bitmap of a type set (wildcard = all 64 bits).
pub fn type_bits(set: MsgTypeSet) -> u64 {
    match set {
        MsgTypeSet::All => u64::MAX,
        MsgTypeSet::Bitmap(bits) => bits,
    }
}

/// Platform-level mechanism facts the analyses condition on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlatformTraits {
    /// Message sources are kernel-stamped (MINIX endpoints, seL4 badges)
    /// — application-level sender authentication is sound.
    pub kernel_stamped_identity: bool,
    /// Message acceptance is judged in-band by the server's RPC reply
    /// (seL4/CAmkES), so junk never "succeeds" at the kernel boundary.
    pub rpc_in_band_validation: bool,
    /// uid 0 bypasses all discretionary checks (Linux DAC).
    pub uid_root_bypass: bool,
    /// Raw IPC handles cannot be forged or guessed by enumeration
    /// (MINIX endpoint generations, seL4 capability unforgeability).
    pub unguessable_handles: bool,
}

/// Application-layer contracts the platforms share (the scenario's
/// process code is the same on all three; only the enforcement differs).
/// These are *trusted facts about application code*, not kernel policy —
/// the analyzer needs them to predict where delivered messages still die.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppContracts {
    /// `(receiver, msg type)` inputs whose sender the receiver
    /// authenticates via kernel-stamped identity, mapped to the set of
    /// senders it accepts. Only effective when
    /// [`PlatformTraits::kernel_stamped_identity`] holds.
    pub authenticated: BTreeMap<(String, u32), BTreeSet<String>>,
    /// `(receiver, msg type)` inputs that are range-validated: junk and
    /// out-of-range values are rejected with an error acknowledgment.
    pub validated: BTreeSet<(String, u32)>,
    /// `(receiver, msg type)` inputs that directly drive actuation
    /// decisions (taint through the receiver reaches the actuators).
    pub actuation_inputs: BTreeSet<(String, u32)>,
}

/// The scenario roles the attack predictor needs to name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Roles {
    /// The control-loop process.
    pub controller: String,
    /// The sensor driver.
    pub sensor: String,
    /// The heater/fan driver.
    pub heater: String,
    /// The alarm driver.
    pub alarm: String,
    /// The web interface (the compromised position).
    pub web: String,
}

/// The lowered policy of one deployment: the unified channel graph.
#[derive(Debug, Clone)]
pub struct PolicyModel {
    /// Which platform this policy governs.
    pub platform: Platform,
    /// All subjects, with trust and uid annotations.
    pub subjects: BTreeMap<String, SubjectInfo>,
    /// The channel graph, deterministically sorted.
    pub channels: Vec<Channel>,
    /// Mechanism facts of the platform.
    pub traits: PlatformTraits,
    /// Application-layer contracts.
    pub contracts: AppContracts,
    /// Scenario role binding.
    pub roles: Roles,
    /// Per-subject fork quota (absent = unlimited where fork authority
    /// exists at all).
    pub fork_quota: BTreeMap<String, u64>,
    /// How many distinct kernel handles each subject can reach by blind
    /// enumeration (brute-force surface).
    pub enumerable_handles: BTreeMap<String, usize>,
    /// How many of those are legitimately its own.
    pub legitimate_handles: BTreeMap<String, usize>,
    /// Queue metadata: queue name → intended reader.
    pub queue_readers: BTreeMap<String, String>,
    /// The capability derivation forest behind the channel edges (see
    /// [`crate::flow`]).
    pub caps: crate::flow::CapGraph,
}

impl PolicyModel {
    /// Creates an empty model for a platform.
    pub fn new(platform: Platform, traits: PlatformTraits) -> Self {
        PolicyModel {
            platform,
            subjects: BTreeMap::new(),
            channels: Vec::new(),
            traits,
            contracts: AppContracts::default(),
            roles: Roles::default(),
            fork_quota: BTreeMap::new(),
            enumerable_handles: BTreeMap::new(),
            legitimate_handles: BTreeMap::new(),
            queue_readers: BTreeMap::new(),
            caps: crate::flow::CapGraph::default(),
        }
    }

    /// Sorts the channel list into its canonical order. Lowerings call
    /// this last so printed IR and lint output are byte-stable.
    pub fn normalize(&mut self) {
        self.channels.sort_by_key(Channel::sort_key);
        self.channels.dedup();
    }

    /// Registers a subject (idempotent; later trust/uid info wins only
    /// if more specific).
    pub fn add_subject(&mut self, name: &str, trust: Trust, uid: Option<u32>) {
        self.subjects
            .entry(name.to_string())
            .and_modify(|s| {
                if trust == Trust::Untrusted {
                    s.trust = Trust::Untrusted;
                }
                if uid.is_some() {
                    s.uid = uid;
                }
            })
            .or_insert(SubjectInfo { trust, uid });
    }

    /// All untrusted subjects.
    pub fn untrusted_subjects(&self) -> impl Iterator<Item = &str> {
        self.subjects
            .iter()
            .filter(|(_, i)| i.trust == Trust::Untrusted)
            .map(|(n, _)| n.as_str())
    }

    /// The channel (if any) by which `subject` can deliver a message of
    /// type `mtype` into `receiver`'s input handling.
    pub fn delivery_channel(&self, subject: &str, receiver: &str, mtype: u32) -> Option<&Channel> {
        let t = MsgType::new(mtype);
        self.channels.iter().find(|c| {
            c.subject == subject
                && c.msg_types.contains(t)
                && match (&c.kind, &c.object) {
                    (ChannelKind::AsyncSend | ChannelKind::RpcCall, ObjectId::Process(p)) => {
                        p == receiver
                    }
                    (ChannelKind::QueueWrite, ObjectId::Queue(q)) => {
                        self.queue_readers.get(q).map(String::as_str) == Some(receiver)
                    }
                    _ => false,
                }
        })
    }

    /// Whether the *application* at `receiver` accepts a `mtype` message
    /// from `sender` (`in_range` = payload within validated bounds).
    /// Kernel-level delivery is a separate question.
    pub fn app_accepts(&self, sender: &str, receiver: &str, mtype: u32, in_range: bool) -> bool {
        let key = (receiver.to_string(), mtype);
        if self.contracts.validated.contains(&key) && !in_range {
            return false;
        }
        if let Some(accepted) = self.contracts.authenticated.get(&key) {
            if self.traits.kernel_stamped_identity && !accepted.contains(sender) {
                return false;
            }
        }
        true
    }

    /// Whether a `mtype` message from `sender` gets past its enforcement
    /// point into `receiver`. On an RPC channel the server's in-band
    /// reply *is* the verdict, so a message the application rejects was
    /// never delivered; on any other channel kernel admission decides,
    /// whatever the content.
    pub fn mechanism_delivers(
        &self,
        sender: &str,
        receiver: &str,
        mtype: u32,
        in_range: bool,
    ) -> bool {
        match self.delivery_channel(sender, receiver, mtype) {
            Some(ch) if ch.kind == ChannelKind::RpcCall => {
                self.app_accepts(sender, receiver, mtype, in_range)
            }
            Some(_) => true,
            None => false,
        }
    }

    /// Whether `subject` holds device access of the given direction.
    pub fn device_channel(&self, subject: &str, dev: DeviceId, write: bool) -> Option<&Channel> {
        let want = if write {
            Operation::DevWrite
        } else {
            Operation::DevRead
        };
        self.channels
            .iter()
            .find(|c| c.subject == subject && c.op == want && c.object == ObjectId::Device(dev))
    }

    /// Whether `subject` can terminate `victim`.
    pub fn can_kill(&self, subject: &str, victim: &str) -> bool {
        self.channels.iter().any(|c| {
            c.subject == subject
                && c.op == Operation::Kill
                && match &c.object {
                    ObjectId::ProcessManager => true,
                    ObjectId::Process(p) => p == victim,
                    _ => false,
                }
        })
    }

    /// Whether `subject` holds process-creation authority.
    pub fn can_fork(&self, subject: &str) -> bool {
        self.channels
            .iter()
            .any(|c| c.subject == subject && c.op == Operation::Fork)
    }

    /// Renders the channel graph as a sorted table (one line per edge).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.channels {
            out.push_str(&format!(
                "{:<16} {:<10} {:<28} {}{}\n",
                c.subject,
                c.op.to_string(),
                c.object.to_string(),
                c.msg_types,
                c.badge.map_or(String::new(), |b| format!(" badge={b}")),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traits() -> PlatformTraits {
        PlatformTraits {
            kernel_stamped_identity: true,
            rpc_in_band_validation: false,
            uid_root_bypass: false,
            unguessable_handles: true,
        }
    }

    fn chan(subject: &str, object: ObjectId, op: Operation, types: &[u32]) -> Channel {
        Channel {
            subject: subject.into(),
            object,
            op,
            msg_types: MsgTypeSet::of(types.iter().map(|&t| MsgType::new(t))),
            kind: ChannelKind::AsyncSend,
            badge: None,
        }
    }

    #[test]
    fn delivery_channel_matches_type_and_target() {
        let mut m = PolicyModel::new(Platform::Minix, traits());
        m.channels.push(chan(
            "web",
            ObjectId::Process("ctrl".into()),
            Operation::Send,
            &[4],
        ));
        m.normalize();
        assert!(m.delivery_channel("web", "ctrl", 4).is_some());
        assert!(m.delivery_channel("web", "ctrl", 1).is_none());
        assert!(m.delivery_channel("web", "heater", 4).is_none());
    }

    #[test]
    fn queue_write_delivery_goes_through_reader() {
        let mut m = PolicyModel::new(Platform::Linux, traits());
        m.channels.push(Channel {
            subject: "web".into(),
            object: ObjectId::Queue("/mq_x".into()),
            op: Operation::Send,
            msg_types: MsgTypeSet::of([MsgType::new(1)]),
            kind: ChannelKind::QueueWrite,
            badge: None,
        });
        m.queue_readers.insert("/mq_x".into(), "ctrl".into());
        assert!(m.delivery_channel("web", "ctrl", 1).is_some());
        assert!(m.delivery_channel("web", "other", 1).is_none());
    }

    #[test]
    fn authentication_only_bites_with_kernel_identity() {
        let mut m = PolicyModel::new(Platform::Minix, traits());
        m.contracts.authenticated.insert(
            ("ctrl".into(), 1),
            std::iter::once("sensor".to_string()).collect(),
        );
        assert!(!m.app_accepts("web", "ctrl", 1, true));
        assert!(m.app_accepts("sensor", "ctrl", 1, true));
        m.traits.kernel_stamped_identity = false;
        assert!(
            m.app_accepts("web", "ctrl", 1, true),
            "no identity, no check"
        );
    }

    #[test]
    fn validation_rejects_out_of_range_only() {
        let mut m = PolicyModel::new(Platform::Minix, traits());
        m.contracts.validated.insert(("ctrl".into(), 4));
        assert!(!m.app_accepts("web", "ctrl", 4, false));
        assert!(m.app_accepts("web", "ctrl", 4, true));
    }

    #[test]
    fn kill_via_pm_or_direct_tcb() {
        let mut m = PolicyModel::new(Platform::Minix, traits());
        m.channels.push(chan(
            "loader",
            ObjectId::ProcessManager,
            Operation::Kill,
            &[3],
        ));
        m.channels.push(chan(
            "web",
            ObjectId::Process("ctrl".into()),
            Operation::Kill,
            &[],
        ));
        assert!(m.can_kill("loader", "anything"));
        assert!(m.can_kill("web", "ctrl"));
        assert!(!m.can_kill("web", "sensor"));
    }

    #[test]
    fn normalize_is_deterministic_and_dedups() {
        let mut m = PolicyModel::new(Platform::Minix, traits());
        let a = chan("b", ObjectId::Process("x".into()), Operation::Send, &[1]);
        let b = chan("a", ObjectId::Process("x".into()), Operation::Send, &[1]);
        m.channels = vec![a.clone(), b.clone(), a.clone()];
        m.normalize();
        assert_eq!(m.channels, vec![b, a]);
    }
}
