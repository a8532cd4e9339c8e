//! The kernel-artifact adjudicator the checker cross-validates against.
//!
//! Property (a) of the model checker is *analyzer vs kernel-at-runtime*:
//! every operation attempted during exploration is adjudicated twice —
//! once by the Policy IR ([`crate::ir::PolicyModel`], the analyzer's
//! lowered view) and once by this gate, which consults the same primitive
//! artifacts the dynamic kernel stacks enforce: the MINIX ACM via
//! [`AccessControlMatrix::check`], the compiled CapDL capability
//! distribution via possession lookups, and the Linux loader's mq and
//! device ACLs ([`UidScheme::queue_acl`], [`UidScheme::device_nodes`])
//! via [`bas_linux::cred::Mode::allows_with_group`] with the root bypass.
//! Any disagreement is a violation state, so bounded exploration proves
//! the IR lowering faithful along every reachable interleaving — not
//! just the one schedule the dynamic engine happens to run.

use std::collections::{BTreeMap, BTreeSet};

use bas_acm::{AcId, AccessControlMatrix, MsgType};
use bas_attack::AttackerModel;
use bas_capdl::spec::{CapTargetSpec, SpecObjKind};
use bas_core::platform::linux::UidScheme;
use bas_core::policy::{
    process, scenario_acm, scenario_assembly, scenario_device_owners, ChannelSpec, CHANNELS,
    PROCESSES,
};
use bas_core::proto::names;
use bas_core::scenario::Platform;
use bas_linux::cred::Uid;
use bas_minix::pm;
use bas_sel4::rights::CapRights;
use bas_sim::device::DeviceId;

/// The per-platform kernel adjudicator.
pub enum KernelGate {
    /// MINIX 3: the kernel checks the ACM at every send; devices have
    /// exactly one owning identity.
    Minix {
        /// The scenario access-control matrix.
        acm: AccessControlMatrix,
        /// Device → owning `ac_id`.
        device_owners: BTreeMap<DeviceId, AcId>,
    },
    /// seL4: admission is capability possession in the compiled CapDL
    /// spec; there is no user identity and no fork/kill surface.
    Sel4 {
        /// `(holder, endpoint object)` pairs with write authority.
        endpoint_caps: BTreeSet<(String, String)>,
        /// `(holder, device, write?)` device-frame capabilities.
        device_caps: BTreeSet<(String, DeviceId, bool)>,
    },
    /// Linux: discretionary access control over queue and device nodes,
    /// same-uid signals, ambient fork.
    Linux {
        /// Subject → effective uid (the attacker's uid already applied).
        uid_of: BTreeMap<String, Uid>,
        /// The loader's account scheme, which fixes every queue and
        /// device-node ACL.
        scheme: UidScheme,
    },
}

fn ac(subject: &str) -> Option<AcId> {
    process(subject).map(|p| p.ac)
}

/// The channel delivering messages of `mtype` to `receiver`.
fn channel_into(receiver: &str, mtype: u32) -> Option<&'static ChannelSpec> {
    CHANNELS
        .iter()
        .find(|c| c.to == receiver && c.msg_type == mtype)
}

impl KernelGate {
    /// Builds the gate for one matrix cell from the platform's primitive
    /// policy artifacts (not from the Policy IR).
    pub fn for_cell(platform: Platform, attacker: AttackerModel, scheme: UidScheme) -> KernelGate {
        match platform {
            Platform::Minix => KernelGate::Minix {
                acm: scenario_acm(),
                device_owners: scenario_device_owners(),
            },
            Platform::Sel4 => {
                let (spec, _glue) = bas_camkes::codegen::compile(&scenario_assembly())
                    .expect("scenario assembly compiles");
                let device_of: BTreeMap<String, DeviceId> = spec
                    .objects
                    .iter()
                    .filter_map(|o| match o.kind {
                        SpecObjKind::Device(dev) => Some((o.name.clone(), dev)),
                        _ => None,
                    })
                    .collect();
                let mut endpoint_caps = BTreeSet::new();
                let mut device_caps = BTreeSet::new();
                for cap in &spec.caps {
                    let CapTargetSpec::Object(obj) = &cap.target else {
                        continue;
                    };
                    if let Some(&dev) = device_of.get(obj) {
                        device_caps.insert((
                            cap.holder.clone(),
                            dev,
                            cap.rights.covers(CapRights::WRITE),
                        ));
                    } else if cap.rights.covers(CapRights::WRITE) {
                        endpoint_caps.insert((cap.holder.clone(), obj.clone()));
                    }
                }
                KernelGate::Sel4 {
                    endpoint_caps,
                    device_caps,
                }
            }
            Platform::Linux => {
                let uid = |name: &str| {
                    if name == names::WEB && attacker == AttackerModel::Root {
                        Uid::ROOT
                    } else {
                        Uid::new(scheme.uid_of(name))
                    }
                };
                let uid_of = PROCESSES.iter().map(|p| (p.name.to_string(), uid(p.name)));
                KernelGate::Linux {
                    uid_of: uid_of.collect(),
                    scheme,
                }
            }
        }
    }

    /// May `sender` deliver a message of `mtype` into `receiver`'s input
    /// handling, as the kernel adjudicates it? (Application acceptance is
    /// a separate, later question.)
    pub fn allows_send(&self, sender: &str, receiver: &str, mtype: u32) -> bool {
        match self {
            KernelGate::Minix { acm, .. } => {
                let (Some(s), Some(r)) = (ac(sender), ac(receiver)) else {
                    return false;
                };
                acm.check(s, r, MsgType::new(mtype)).is_allowed()
            }
            KernelGate::Sel4 { endpoint_caps, .. } => channel_into(receiver, mtype)
                .and_then(|c| Some(format!("ep_{receiver}_{}", c.server_iface?)))
                .is_some_and(|ep| endpoint_caps.contains(&(sender.to_string(), ep))),
            KernelGate::Linux { uid_of, scheme } => {
                let (Some(&who), Some(c)) = (uid_of.get(sender), channel_into(receiver, mtype))
                else {
                    return false;
                };
                let acl = scheme.queue_acl(c);
                acl.mode
                    .allows_with_group(who, acl.owner, acl.group, false, true)
            }
        }
    }

    /// May `subject` terminate `victim`?
    pub fn allows_kill(&self, subject: &str, victim: &str) -> bool {
        match self {
            KernelGate::Minix { acm, .. } => ac(subject).is_some_and(|s| {
                acm.check(s, pm::PM_AC_ID, MsgType::new(pm::PM_KILL))
                    .is_allowed()
            }),
            // No TCB capabilities are distributed in the scenario spec.
            KernelGate::Sel4 { .. } => false,
            KernelGate::Linux { uid_of, .. } => {
                let (Some(&s), Some(&v)) = (uid_of.get(subject), uid_of.get(victim)) else {
                    return false;
                };
                s.is_root() || s == v
            }
        }
    }

    /// May `subject` create a new process/thread?
    pub fn allows_fork(&self, subject: &str) -> bool {
        match self {
            KernelGate::Minix { acm, .. } => ac(subject).is_some_and(|s| {
                acm.check(s, pm::PM_AC_ID, MsgType::new(pm::PM_FORK2))
                    .is_allowed()
            }),
            // CAmkES distributes no thread-creation authority.
            KernelGate::Sel4 { .. } => false,
            // fork(2) is ambient on a monolithic kernel.
            KernelGate::Linux { .. } => true,
        }
    }

    /// May `subject` access device `dev` (write or read)?
    pub fn allows_device(&self, subject: &str, dev: DeviceId, write: bool) -> bool {
        match self {
            KernelGate::Minix { device_owners, .. } => ac(subject)
                .is_some_and(|s| device_owners.get(&dev).is_some_and(|&owner| owner == s)),
            KernelGate::Sel4 { device_caps, .. } => {
                device_caps.contains(&(subject.to_string(), dev, write))
                    || (!write && device_caps.contains(&(subject.to_string(), dev, true)))
            }
            KernelGate::Linux { uid_of, scheme } => {
                let Some(&who) = uid_of.get(subject) else {
                    return false;
                };
                let mut nodes = scheme.device_nodes();
                nodes
                    .find(|&(d, _)| d == dev)
                    .is_some_and(|(_, (owner, mode))| mode.allows(who, owner, !write, write))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bas_core::proto::{MT_FAN_CMD, MT_SENSOR_READING, MT_SETPOINT};

    #[test]
    fn minix_gate_enforces_the_acm() {
        let g = KernelGate::for_cell(
            Platform::Minix,
            AttackerModel::ArbitraryCode,
            UidScheme::SharedAccount,
        );
        assert!(g.allows_send(names::WEB, names::CONTROL, MT_SETPOINT));
        assert!(!g.allows_send(names::WEB, names::CONTROL, MT_SENSOR_READING));
        assert!(!g.allows_send(names::WEB, names::HEATER, MT_FAN_CMD));
        assert!(!g.allows_kill(names::WEB, names::CONTROL));
        assert!(g.allows_fork(names::WEB), "the paper leaves fork open");
        assert!(!g.allows_device(names::WEB, DeviceId::FAN, true));
        assert!(g.allows_device(names::HEATER, DeviceId::FAN, true));
    }

    #[test]
    fn sel4_gate_is_capability_possession() {
        let g = KernelGate::for_cell(
            Platform::Sel4,
            AttackerModel::Root,
            UidScheme::SharedAccount,
        );
        // Web holds the controller endpoint cap — the kernel admits all
        // three labels; the server's reply sorts them out in-band.
        assert!(g.allows_send(names::WEB, names::CONTROL, MT_SENSOR_READING));
        assert!(!g.allows_send(names::WEB, names::HEATER, MT_FAN_CMD));
        assert!(
            !g.allows_kill(names::WEB, names::CONTROL),
            "root is meaningless"
        );
        assert!(!g.allows_fork(names::WEB));
        assert!(!g.allows_device(names::WEB, DeviceId::ALARM, true));
        assert!(g.allows_device(names::ALARM, DeviceId::ALARM, true));
        assert!(g.allows_device(names::SENSOR, DeviceId::TEMP_SENSOR, false));
    }

    #[test]
    fn linux_shared_account_falls_root_bypasses_hardened() {
        let shared = KernelGate::for_cell(
            Platform::Linux,
            AttackerModel::ArbitraryCode,
            UidScheme::SharedAccount,
        );
        assert!(shared.allows_send(names::WEB, names::CONTROL, MT_SENSOR_READING));
        assert!(shared.allows_send(names::WEB, names::HEATER, MT_FAN_CMD));
        assert!(shared.allows_kill(names::WEB, names::CONTROL), "same uid");
        assert!(shared.allows_device(names::WEB, DeviceId::ALARM, true));

        let hardened = KernelGate::for_cell(
            Platform::Linux,
            AttackerModel::ArbitraryCode,
            UidScheme::PerProcessHardened,
        );
        assert!(!hardened.allows_send(names::WEB, names::CONTROL, MT_SENSOR_READING));
        assert!(hardened.allows_send(names::WEB, names::CONTROL, MT_SETPOINT));
        assert!(!hardened.allows_kill(names::WEB, names::CONTROL));
        assert!(!hardened.allows_device(names::WEB, DeviceId::ALARM, true));

        let root = KernelGate::for_cell(
            Platform::Linux,
            AttackerModel::Root,
            UidScheme::PerProcessHardened,
        );
        assert!(root.allows_send(names::WEB, names::CONTROL, MT_SENSOR_READING));
        assert!(root.allows_kill(names::WEB, names::CONTROL));
        assert!(root.allows_device(names::WEB, DeviceId::ALARM, true));
    }
}
