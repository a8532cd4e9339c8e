//! Escalation-path witnesses.
//!
//! A *witness* is the shortest chain by which an untrusted subject
//! reaches a safety-relevant asset: `subject → (capability hops) →
//! asset`. Channel edges (the sound, direct authority the backends
//! grant) and *anomalous* capability edges (derivation breaches the
//! kernel would wrongly honor, and exploitable masquerading handles)
//! both feed the same breadth-first [`super::reach`] search, so every
//! witness path is shortest-hop and byte-stable.
//!
//! The rendered chains are the linter's evidence lines, and the assets
//! map one-to-one onto the model checker's compromise properties — the
//! differential experiment (`exp_cap_flow`, E17) holds the two accountable
//! to each other in both directions.
//!
//! The witnesses are also the analyzer's one static judge of the §IV-D
//! attack matrix: [`predict`] calls a cell compromised exactly when a
//! relevant witness exists, and pairs that with whether the attack's
//! primitive gets past its enforcement point. The `static_vs_dynamic`
//! tests hold every such verdict to the dynamic harness.

use std::fmt;

use bas_attack::expectations::Expectation;
use bas_attack::AttackId;
use bas_core::proto::{MT_ALARM_CMD, MT_FAN_CMD, MT_SENSOR_READING, MT_SETPOINT};
use bas_sim::device::DeviceId;

use super::closure::{closure, Closure};
use super::graph::CapId;
use super::lattice::op;
use super::reach::reach;
use crate::ir::{ObjectId, PolicyModel};
use crate::mc::verdict::props;

/// A safety-relevant sink an escalation chain can end at.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Asset {
    /// A critical process can be terminated.
    CriticalKill(String),
    /// An actuator device register can be written.
    DeviceWrite(DeviceId),
    /// A well-formed command can be delivered into an actuator driver.
    ActuatorCommand(String),
    /// An accepted actuation input taints the control loop.
    TaintedActuation {
        /// The accepting receiver.
        receiver: String,
        /// The accepted message type.
        mtype: u32,
    },
    /// An out-of-range setpoint is accepted (tamper).
    TamperAccept(String),
    /// A replayed in-range setpoint is accepted.
    ReplayAccept(String),
    /// A kernel object is reachable through a type-confused handle.
    Masquerade(ObjectId),
}

impl Asset {
    /// The model-checker property bits this asset's exploitation can
    /// set — the forward half of the static/mc differential.
    pub fn property_bits(&self) -> u32 {
        match self {
            Asset::CriticalKill(_) => props::CRITICAL_KILLED,
            // Forcing an actuator register off both is the unauthorized
            // write and (for the alarm) defeats bounded response.
            Asset::DeviceWrite(_) => props::UNAUTH_DEV_WRITE | props::BOUNDED_RESPONSE,
            Asset::ActuatorCommand(_) | Asset::TaintedActuation { .. } => props::BOUNDED_RESPONSE,
            Asset::TamperAccept(_) | Asset::ReplayAccept(_) => props::REF_DIVERGENCE,
            Asset::Masquerade(_) => props::OBJECT_MASQUERADE,
        }
    }
}

impl fmt::Display for Asset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Asset::CriticalKill(p) => write!(f, "proc:{p} (kill)"),
            Asset::DeviceWrite(d) => write!(f, "dev:{d} (direct register write)"),
            Asset::ActuatorCommand(p) => write!(f, "proc:{p} (unmediated actuator command)"),
            Asset::TaintedActuation { receiver, mtype } => write!(
                f,
                "proc:{receiver} (type {mtype}) -> actuators (tainted control input)"
            ),
            Asset::TamperAccept(p) => write!(f, "proc:{p} (out-of-range setpoint accepted)"),
            Asset::ReplayAccept(p) => write!(f, "proc:{p} (replayed setpoint accepted)"),
            Asset::Masquerade(o) => write!(f, "{o} (kernel-object masquerade)"),
        }
    }
}

/// BFS node: subject position, capability in hand, or reached asset.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Hop {
    Subject(String),
    Cap(CapId),
    Goal(Asset),
}

/// One escalation chain from an untrusted subject to an asset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// The untrusted starting subject.
    pub subject: String,
    /// The asset reached.
    pub asset: Asset,
    /// Rendered hops, subject first (join with `" -> "` to print).
    pub hops: Vec<String>,
    /// True when the chain crosses an anomalous capability edge
    /// (derivation breach or masquerading handle) rather than a direct
    /// channel.
    pub via_caps: bool,
}

impl Witness {
    /// The chain as one line: `subject -> … -> asset`.
    pub fn render(&self) -> String {
        self.hops.join(" -> ")
    }
}

/// Whether a masquerading handle is exploitable on this platform: with
/// unguessable handles (seL4 caps, MINIX endpoint generations) the
/// kernel re-validates the object type at translation and the confused
/// handle is rejected; raw enumerable handles (Linux) are honored.
pub fn masquerade_exploitable(model: &PolicyModel) -> bool {
    !model.traits.unguessable_handles
}

/// Computes every escalation witness, for every untrusted subject, in
/// deterministic order (subject, then asset).
pub fn escalation_witnesses(model: &PolicyModel) -> Vec<Witness> {
    let cl = closure(&model.caps);
    let breach = cl.breach_caps();
    let masq = cl.masquerade_caps();
    let mut out = Vec::new();
    let untrusted: Vec<String> = model.untrusted_subjects().map(String::from).collect();
    for u in untrusted {
        witnesses_from(model, &cl, &breach, &masq, &u, &mut out);
    }
    out
}

/// Channel-level asset edges available directly from `s`.
fn direct_assets(model: &PolicyModel, s: &str) -> Vec<Asset> {
    let ctrl = model.roles.controller.as_str();
    let mut goals = Vec::new();
    for dev in [DeviceId::FAN, DeviceId::ALARM] {
        if model.device_channel(s, dev, true).is_some() {
            goals.push(Asset::DeviceWrite(dev));
        }
    }
    for (driver, mtype) in [
        (model.roles.heater.clone(), MT_FAN_CMD),
        (model.roles.alarm.clone(), MT_ALARM_CMD),
    ] {
        if model.delivery_channel(s, &driver, mtype).is_some() {
            goals.push(Asset::ActuatorCommand(driver));
        }
    }
    for (recv, mtype) in model.contracts.actuation_inputs.clone() {
        if model.delivery_channel(s, &recv, mtype).is_some()
            && model.app_accepts(s, &recv, mtype, true)
        {
            goals.push(Asset::TaintedActuation {
                receiver: recv,
                mtype,
            });
        }
    }
    for victim in [model.roles.controller.clone(), model.roles.alarm.clone()] {
        if model.can_kill(s, &victim) {
            goals.push(Asset::CriticalKill(victim));
        }
    }
    if model.delivery_channel(s, ctrl, MT_SETPOINT).is_some() {
        if model.app_accepts(s, ctrl, MT_SETPOINT, false) {
            goals.push(Asset::TamperAccept(ctrl.to_string()));
        }
        if model.app_accepts(s, ctrl, MT_SETPOINT, true) {
            goals.push(Asset::ReplayAccept(ctrl.to_string()));
        }
    }
    goals
}

/// Asset edges a (breached) capability's *stored* rights would grant if
/// the kernel honors the slot.
fn cap_assets(model: &PolicyModel, id: CapId) -> Vec<Asset> {
    let node = model.caps.node(id);
    let mut goals = Vec::new();
    let rights = node.rights;
    // Resolve queue objects to their reader for message authority.
    let recv_of = |obj: &ObjectId| -> Option<String> {
        match obj {
            ObjectId::Process(p) => Some(p.clone()),
            ObjectId::Queue(q) => model.queue_readers.get(q).cloned(),
            _ => None,
        }
    };
    if rights.allows(op::DEV_WRITE) {
        if let ObjectId::Device(d) = &node.object {
            goals.push(Asset::DeviceWrite(*d));
        }
    }
    if rights.allows(op::KILL) {
        match &node.object {
            ObjectId::ProcessManager => {
                goals.push(Asset::CriticalKill(model.roles.controller.clone()));
                goals.push(Asset::CriticalKill(model.roles.alarm.clone()));
            }
            ObjectId::Process(p) if *p == model.roles.controller || *p == model.roles.alarm => {
                goals.push(Asset::CriticalKill(p.clone()));
            }
            _ => {}
        }
    }
    if rights.allows(op::SEND) {
        if let Some(recv) = recv_of(&node.object) {
            if recv == model.roles.heater || recv == model.roles.alarm {
                goals.push(Asset::ActuatorCommand(recv));
            } else {
                for (r, mtype) in model.contracts.actuation_inputs.clone() {
                    if r == recv && rights.types & (1u64 << mtype) != 0 {
                        goals.push(Asset::TaintedActuation { receiver: r, mtype });
                    }
                }
            }
        }
    }
    goals
}

fn witnesses_from(
    model: &PolicyModel,
    cl: &Closure,
    breach: &[CapId],
    masq: &[CapId],
    subject: &str,
    out: &mut Vec<Witness>,
) {
    let _ = cl;
    let masq_live = masquerade_exploitable(model);
    let usable_anomalous = |id: CapId| -> bool {
        model.caps.stored_usable(id) && (breach.contains(&id) || (masq_live && masq.contains(&id)))
    };
    let reached = reach([Hop::Subject(subject.to_string())], |hop| match hop {
        Hop::Subject(s) => {
            let mut next: Vec<Hop> = direct_assets(model, s).into_iter().map(Hop::Goal).collect();
            for (id, _) in model.caps.held_by(s) {
                if usable_anomalous(id) {
                    next.push(Hop::Cap(id));
                }
            }
            next
        }
        Hop::Cap(id) => {
            let mut next = Vec::new();
            if masq_live && masq.contains(id) {
                next.push(Hop::Goal(Asset::Masquerade(
                    model.caps.node(*id).object.clone(),
                )));
            }
            if breach.contains(id) {
                next.extend(cap_assets(model, *id).into_iter().map(Hop::Goal));
            }
            next
        }
        Hop::Goal(_) => Vec::new(),
    });
    // Collect every reached asset with its shortest-hop path.
    let goals: Vec<Asset> = reached
        .nodes()
        .filter_map(|h| match h {
            Hop::Goal(a) => Some(a.clone()),
            _ => None,
        })
        .collect();
    for asset in goals {
        let Some(path) = reached.path(&Hop::Goal(asset.clone())) else {
            continue;
        };
        let mut hops = Vec::new();
        let mut via_caps = false;
        for h in &path {
            match h {
                Hop::Subject(s) => hops.push(s.clone()),
                Hop::Cap(id) => {
                    via_caps = true;
                    let n = model.caps.node(*id);
                    hops.push(format!("{id}({} {} via {})", n.object, n.rights, n.via));
                }
                Hop::Goal(a) => hops.push(a.to_string()),
            }
        }
        out.push(Witness {
            subject: subject.to_string(),
            asset,
            hops,
            via_caps,
        });
    }
}

/// The witnesses relevant to one attack of the §IV-D matrix — presence
/// of any is the static compromise verdict for that cell.
pub fn witnesses_for_attack<'a>(
    witnesses: &'a [Witness],
    attack: AttackId,
    model: &PolicyModel,
) -> Vec<&'a Witness> {
    let ctrl = model.roles.controller.as_str();
    witnesses
        .iter()
        .filter(|w| match attack {
            AttackId::SpoofSensorData => {
                matches!(&w.asset, Asset::TaintedActuation { receiver, .. } if receiver == ctrl)
            }
            AttackId::SpoofActuatorCommands => matches!(&w.asset, Asset::ActuatorCommand(_)),
            AttackId::KillCritical => matches!(&w.asset, Asset::CriticalKill(_)),
            AttackId::DirectDeviceWrite => matches!(
                &w.asset,
                Asset::DeviceWrite(d) if *d == DeviceId::FAN || *d == DeviceId::ALARM
            ),
            AttackId::SetpointTamper => matches!(&w.asset, Asset::TamperAccept(_)),
            AttackId::ReplaySetpoint => matches!(&w.asset, Asset::ReplayAccept(_)),
            // Resource attacks never have a compromise witness: they
            // exhaust, they do not escalate.
            AttackId::ForkBomb | AttackId::BruteForceHandles | AttackId::FloodLegitChannel => false,
        })
        // Cells are mounted from the scenario's web position only.
        .filter(|w| w.subject == model.roles.web)
        .collect()
}

/// The static verdict for one `(policy, attack)` cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticVerdict {
    /// The attack primitive gets past its enforcement point at least once.
    pub mechanism_delivers: bool,
    /// The attack reaches a safety-relevant sink: a relevant witness
    /// exists ([`witnesses_for_attack`]).
    pub compromised: bool,
    /// Human-readable justification (one line).
    pub rationale: String,
}

/// Collapses a verdict to the paper's three-valued outcome, as the
/// dynamic harness does: compromise ⇒ `Compromised`, delivery without
/// compromise ⇒ `ResourceExhaustionOnly`, neither ⇒ `Stopped`.
pub fn expectation(v: &StaticVerdict) -> Expectation {
    if v.compromised {
        Expectation::Compromised
    } else if v.mechanism_delivers {
        Expectation::ResourceExhaustionOnly
    } else {
        Expectation::Stopped
    }
}

/// Judges `attack` mounted from the model's web position without running
/// anything. Compromise is the presence of a relevant escalation
/// witness; mechanism delivery is whether the attack's primitive gets
/// past the enforcement point it is judged at (kernel ACM, capability
/// check, DAC, or the server's in-band reply). A cell whose every
/// relevant witness crosses an anomalous capability edge is delivered
/// through that chain, and the rendered chain is its rationale.
pub fn predict(model: &PolicyModel, attack: AttackId) -> StaticVerdict {
    let web = model.roles.web.as_str();
    let ctrl = model.roles.controller.as_str();
    let alarm = model.roles.alarm.as_str();
    let witnesses = escalation_witnesses(model);
    let relevant = witnesses_for_attack(&witnesses, attack, model);
    // A cell reached only across anomalous capability edges has no
    // channel for the queries below to find: the chain itself is how the
    // primitive gets through, and it is the rationale.
    if !relevant.is_empty() && relevant.iter().all(|w| w.via_caps) {
        return StaticVerdict {
            mechanism_delivers: true,
            compromised: true,
            rationale: relevant[0].render(),
        };
    }
    let compromised = !relevant.is_empty();
    let (mechanism_delivers, rationale) = match attack {
        AttackId::SpoofSensorData => {
            let mech = model.mechanism_delivers(web, ctrl, MT_SENSOR_READING, true);
            let rationale = if !mech && !compromised {
                format!("no accepted {web} -> {ctrl} sensor-reading channel")
            } else if !compromised {
                format!("{ctrl} authenticates readings; {web} is not the sensor")
            } else {
                format!("{web} can inject accepted readings into {ctrl}")
            };
            (mech, rationale)
        }
        AttackId::SpoofActuatorCommands => {
            let mech = model.mechanism_delivers(web, &model.roles.heater, MT_FAN_CMD, true)
                || model.mechanism_delivers(web, alarm, MT_ALARM_CMD, true);
            let rationale = if compromised {
                format!("{web} reaches an actuator driver; drivers obey any well-formed command")
            } else {
                format!("no {web} -> actuator command channel")
            };
            (mech, rationale)
        }
        AttackId::KillCritical => {
            let can = model.can_kill(web, ctrl) || model.can_kill(web, alarm);
            let rationale = if can {
                format!("{web} holds kill authority over a critical process")
            } else {
                format!("{web} has no kill authority over {ctrl} or {alarm}")
            };
            (can, rationale)
        }
        AttackId::ForkBomb => {
            let quota = model.fork_quota.get(web);
            let rationale = match (model.can_fork(web), quota) {
                (false, _) => format!("{web} holds no process-creation authority"),
                (true, Some(0)) => format!("{web} fork quota is zero"),
                (true, Some(n)) => {
                    format!("{web} can fork up to quota {n}; resource pressure only")
                }
                (true, None) => format!("{web} can fork without limit; resource pressure only"),
            };
            (model.can_fork(web) && quota != Some(&0), rationale)
        }
        AttackId::BruteForceHandles => {
            let reach = model.enumerable_handles.get(web).copied().unwrap_or(0);
            let legit = model.legitimate_handles.get(web).copied().unwrap_or(0);
            let rationale =
                format!("enumeration reaches {reach} handle(s), {legit} legitimately {web}'s");
            (reach > legit, rationale)
        }
        AttackId::FloodLegitChannel => {
            // The flood payload is junk: an RPC server rejects it in-band,
            // a kernel or DAC check admits it regardless of content.
            let mech = model.mechanism_delivers(web, ctrl, MT_SETPOINT, false);
            let rationale = if mech {
                format!("{web} may flood its setpoint channel; contents are discarded")
            } else {
                format!("flood dies at the enforcement point before {ctrl}")
            };
            (mech, rationale)
        }
        AttackId::DirectDeviceWrite => {
            let can = model.device_channel(web, DeviceId::FAN, true).is_some()
                || model.device_channel(web, DeviceId::ALARM, true).is_some();
            let rationale = if can {
                format!("{web} holds write access to actuator device registers")
            } else {
                format!("{web} holds no device capability/node access")
            };
            (can, rationale)
        }
        // Setpoints are judged at the application acknowledgment: every
        // platform's controller range-validates, so a setpoint counts as
        // delivered exactly when it is accepted.
        AttackId::SetpointTamper => {
            let rationale = if compromised {
                format!("{ctrl} accepts out-of-range setpoints")
            } else {
                format!("{ctrl} range-validates setpoints; tamper rejected in-band")
            };
            (compromised, rationale)
        }
        AttackId::ReplaySetpoint => {
            let rationale = if compromised {
                format!("replayed setpoints are in-range and unauthenticated; {ctrl} accepts them")
            } else {
                format!("no {web} -> {ctrl} setpoint channel")
            };
            (compromised, rationale)
        }
    };
    StaticVerdict {
        mechanism_delivers,
        compromised,
        rationale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::graph::{DerivationKind, ObjType};
    use crate::flow::lattice::Perms;
    use crate::ir::{Channel, ChannelKind, Operation, PlatformTraits, Trust};
    use crate::scenario::model_for;
    use bas_acm::matrix::MsgTypeSet;
    use bas_acm::MsgType;
    use bas_attack::AttackerModel;
    use bas_core::platform::linux::UidScheme;
    use bas_core::scenario::Platform;

    /// A two-subject model: `web` sends sensor readings and setpoints to
    /// `ctrl` over a channel of `kind`; `ctrl` authenticates readings,
    /// range-validates setpoints and actuates on readings.
    fn base(kind: ChannelKind, stamped: bool) -> PolicyModel {
        let mut m = PolicyModel::new(
            Platform::Minix,
            PlatformTraits {
                kernel_stamped_identity: stamped,
                rpc_in_band_validation: kind == ChannelKind::RpcCall,
                uid_root_bypass: false,
                unguessable_handles: true,
            },
        );
        m.roles.web = "web".into();
        m.roles.controller = "ctrl".into();
        m.roles.heater = "heater".into();
        m.roles.alarm = "alarm".into();
        m.add_subject("web", Trust::Untrusted, None);
        m.add_subject("ctrl", Trust::Trusted, None);
        m.contracts.authenticated.insert(
            ("ctrl".into(), MT_SENSOR_READING),
            ["sensor".to_string()].into(),
        );
        m.contracts.validated.insert(("ctrl".into(), MT_SETPOINT));
        m.contracts
            .actuation_inputs
            .insert(("ctrl".into(), MT_SENSOR_READING));
        m.channels.push(Channel {
            subject: "web".into(),
            object: ObjectId::Process("ctrl".into()),
            op: Operation::Send,
            msg_types: MsgTypeSet::of([MsgType::new(MT_SENSOR_READING), MsgType::new(MT_SETPOINT)]),
            kind,
            badge: Some(2),
        });
        m.normalize();
        m
    }

    #[test]
    fn spoof_on_async_channel_delivers_but_dies_at_auth() {
        let v = predict(
            &base(ChannelKind::AsyncSend, true),
            AttackId::SpoofSensorData,
        );
        assert!(v.mechanism_delivers, "kernel admits the send");
        assert!(!v.compromised, "app authentication rejects it");
        assert_eq!(expectation(&v), Expectation::ResourceExhaustionOnly);
    }

    #[test]
    fn spoof_on_rpc_channel_is_stopped_in_band() {
        let v = predict(&base(ChannelKind::RpcCall, true), AttackId::SpoofSensorData);
        assert!(!v.mechanism_delivers, "rejection is the RPC reply");
        assert_eq!(expectation(&v), Expectation::Stopped);
    }

    #[test]
    fn spoof_without_kernel_identity_compromises() {
        let mut m = base(ChannelKind::QueueWrite, false);
        // Queue delivery needs reader metadata.
        m.channels = vec![Channel {
            subject: "web".into(),
            object: ObjectId::Queue("/mq_in".into()),
            op: Operation::Send,
            msg_types: MsgTypeSet::of([MsgType::new(MT_SENSOR_READING)]),
            kind: ChannelKind::QueueWrite,
            badge: None,
        }];
        m.queue_readers.insert("/mq_in".into(), "ctrl".into());
        let v = predict(&m, AttackId::SpoofSensorData);
        assert!(v.compromised, "no sender identity to authenticate");
        assert_eq!(expectation(&v), Expectation::Compromised);
    }

    #[test]
    fn replay_compromises_wherever_setpoints_flow() {
        for kind in [ChannelKind::AsyncSend, ChannelKind::RpcCall] {
            let m = base(kind, true);
            let v = predict(&m, AttackId::ReplaySetpoint);
            assert_eq!(expectation(&v), Expectation::Compromised, "{kind:?}");
        }
    }

    #[test]
    fn tamper_is_stopped_by_validation() {
        let m = base(ChannelKind::AsyncSend, true);
        let v = predict(&m, AttackId::SetpointTamper);
        assert_eq!(expectation(&v), Expectation::Stopped);
    }

    #[test]
    fn fork_quota_zero_stops_the_bomb() {
        let mut m = base(ChannelKind::AsyncSend, true);
        m.channels.push(Channel {
            subject: "web".into(),
            object: ObjectId::ProcessManager,
            op: Operation::Fork,
            msg_types: MsgTypeSet::EMPTY,
            kind: ChannelKind::SysOp,
            badge: None,
        });
        let v = predict(&m, AttackId::ForkBomb);
        assert_eq!(expectation(&v), Expectation::ResourceExhaustionOnly);
        m.fork_quota.insert("web".into(), 0);
        let v = predict(&m, AttackId::ForkBomb);
        assert_eq!(expectation(&v), Expectation::Stopped);
    }

    fn shared_linux() -> PolicyModel {
        model_for(
            Platform::Linux,
            AttackerModel::ArbitraryCode,
            UidScheme::SharedAccount,
        )
    }

    #[test]
    fn channel_witness_renders_the_tainted_input_path() {
        let ws = escalation_witnesses(&shared_linux());
        let tainted: Vec<&Witness> = ws
            .iter()
            .filter(|w| matches!(w.asset, Asset::TaintedActuation { .. }))
            .collect();
        assert!(!tainted.is_empty());
        for w in tainted {
            assert!(!w.via_caps);
            assert!(w.render().contains("-> actuators (tainted control input)"));
        }
    }

    #[test]
    fn clean_lowered_graph_yields_no_cap_witnesses() {
        for (platform, scheme) in [
            (Platform::Linux, UidScheme::PerProcessHardened),
            (Platform::Minix, UidScheme::SharedAccount),
            (Platform::Sel4, UidScheme::SharedAccount),
        ] {
            let m = model_for(platform, AttackerModel::ArbitraryCode, scheme);
            assert!(
                escalation_witnesses(&m).iter().all(|w| !w.via_caps),
                "{platform}: lowered derivation trees must be sound"
            );
        }
    }

    #[test]
    fn breach_cap_produces_cap_witness() {
        let mut m = model_for(
            Platform::Linux,
            AttackerModel::ArbitraryCode,
            UidScheme::PerProcessHardened,
        );
        let web = m.roles.web.clone();
        let r = m.caps.root(
            &m.roles.controller.clone(),
            ObjectId::Device(DeviceId::FAN),
            Perms::of(op::DEV_READ),
        );
        m.caps
            .derive_raw(r, &web, DerivationKind::Grant, Perms::of(op::DEV_WRITE));
        let ws = escalation_witnesses(&m);
        let w = ws
            .iter()
            .find(|w| w.via_caps && matches!(w.asset, Asset::DeviceWrite(DeviceId::FAN)))
            .expect("escalation witness through the amplified cap");
        assert_eq!(w.subject, web);
        assert_eq!(w.hops.len(), 3, "subject -> cap -> asset: {:?}", w.hops);
    }

    #[test]
    fn cap_only_compromise_is_delivered_through_the_chain() {
        let mut cap_only = 0;
        for s in crate::flow::derivation_scenarios() {
            let ws = escalation_witnesses(&s.model);
            for attack in AttackId::ALL {
                let relevant = witnesses_for_attack(&ws, attack, &s.model);
                let v = predict(&s.model, attack);
                assert_eq!(v.compromised, !relevant.is_empty(), "{} {attack}", s.name);
                if !relevant.is_empty() && relevant.iter().all(|w| w.via_caps) {
                    cap_only += 1;
                    assert!(v.mechanism_delivers, "{} {attack}", s.name);
                    assert_eq!(v.rationale, relevant[0].render(), "{} {attack}", s.name);
                }
            }
        }
        // The amplified derivation hands web fan-register write authority
        // on every platform, with no device channel behind it.
        assert!(cap_only >= 3, "{cap_only}");
        let amplified = crate::flow::derivation_scenarios()
            .into_iter()
            .find(|s| s.name == "sel4/amplified-derive")
            .expect("scenario");
        let v = predict(&amplified.model, AttackId::DirectDeviceWrite);
        assert!(v.compromised && v.mechanism_delivers);
        assert!(
            v.rationale.ends_with("dev:fan (direct register write)"),
            "{}",
            v.rationale
        );
    }

    #[test]
    fn masquerade_witness_requires_guessable_handles() {
        for (platform, scheme, expect) in [
            (Platform::Linux, UidScheme::PerProcessHardened, true),
            (Platform::Sel4, UidScheme::SharedAccount, false),
        ] {
            let mut m = model_for(platform, AttackerModel::ArbitraryCode, scheme);
            let web = m.roles.web.clone();
            m.caps.root_typed(
                &web,
                ObjectId::Device(DeviceId::ALARM),
                ObjType::DeviceFrame,
                ObjType::Queue,
                Perms::of(op::DEV_WRITE),
            );
            let ws = escalation_witnesses(&m);
            let has = ws.iter().any(|w| matches!(w.asset, Asset::Masquerade(_)));
            assert_eq!(has, expect, "{platform}");
        }
    }
}
