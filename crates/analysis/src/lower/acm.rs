//! ACM → Policy IR (the MINIX backend).
//!
//! The access-control matrix *is* the kernel's complete IPC policy: one
//! cell per directed `(sender, receiver)` pair, one bit per message type.
//! Rows targeting the PM server's identity encode process-management
//! authority (`fork2`/`kill`/…), everything else is an application
//! channel. Device access is not in the matrix — MINIX binds devices to
//! their driver's `ac_id` — so the binding carries the owner map.

use std::collections::BTreeMap;

use bas_acm::{AcId, AccessControlMatrix, DelegationLog, MsgType, QuotaTable, SyscallClass};
use bas_core::scenario::Platform;
use bas_minix::pm;
use bas_sim::device::DeviceId;

use crate::flow::{op, DerivationKind, Perms};
use crate::ir::{
    type_bits, Channel, ChannelKind, ObjectId, Operation, PlatformTraits, PolicyModel, Trust,
};

/// Binding from ACM identities to subject names and platform facts the
/// matrix itself does not carry.
#[derive(Debug, Clone, Default)]
pub struct AcmBinding {
    /// `ac_id` → subject name.
    pub subjects: BTreeMap<AcId, String>,
    /// The PM server's identity (rows targeting it become sys-ops).
    pub pm_ac: Option<AcId>,
    /// Device → owning identity (MINIX device ownership).
    pub device_owners: BTreeMap<DeviceId, AcId>,
}

/// The mechanism facts of security-enhanced MINIX 3.
pub fn minix_traits() -> PlatformTraits {
    PlatformTraits {
        kernel_stamped_identity: true,
        rpc_in_band_validation: false,
        uid_root_bypass: false,
        unguessable_handles: true,
    }
}

fn pm_op(msg_type: u32) -> Option<Operation> {
    match msg_type {
        pm::PM_FORK2 | pm::PM_SRV_FORK2 => Some(Operation::Fork),
        pm::PM_KILL => Some(Operation::Kill),
        pm::PM_EXIT => Some(Operation::Exit),
        pm::PM_GETPID => Some(Operation::GetPid),
        _ => None,
    }
}

/// Lowers an access-control matrix (plus its binding, quota table, and
/// delegation log) into the Policy IR.
pub fn lower(
    acm: &AccessControlMatrix,
    binding: &AcmBinding,
    quotas: &QuotaTable,
    delegations: &DelegationLog,
) -> PolicyModel {
    let mut model = PolicyModel::new(Platform::Minix, minix_traits());

    for name in binding.subjects.values() {
        model.add_subject(name, Trust::Trusted, None);
    }

    // Root caps of the derivation forest, keyed by the matrix cell they
    // came from so delegation records can find their source.
    let mut row_caps: BTreeMap<(AcId, AcId), crate::flow::CapId> = BTreeMap::new();
    let subject_name = |ac: AcId| -> String {
        binding
            .subjects
            .get(&ac)
            .cloned()
            .unwrap_or_else(|| ac.to_string())
    };

    for (sender, receiver, types) in acm.entries() {
        // Rows *from* the PM identity are reply plumbing (PM_OK/PM_ERR
        // back to the caller), not subject authority.
        if Some(sender) == binding.pm_ac {
            continue;
        }
        let subject = match binding.subjects.get(&sender) {
            Some(name) => name.clone(),
            // An identity nobody is bound to: keep the raw name so the
            // linter can flag it as dangling.
            None => sender.to_string(),
        };
        if Some(receiver) == binding.pm_ac {
            for t in 0..64 {
                if !types.contains(MsgType::new(t)) {
                    continue;
                }
                let Some(pm_operation) = pm_op(t) else {
                    continue;
                };
                model.channels.push(Channel {
                    subject: subject.clone(),
                    object: ObjectId::ProcessManager,
                    op: pm_operation,
                    msg_types: bas_acm::matrix::MsgTypeSet::of([MsgType::new(t)]),
                    kind: ChannelKind::SysOp,
                    badge: None,
                });
                let bit = Perms::op_bit(pm_operation);
                if bit != 0 {
                    model
                        .caps
                        .root(&subject, ObjectId::ProcessManager, Perms::of(bit));
                }
            }
            continue;
        }
        let object = match binding.subjects.get(&receiver) {
            Some(name) => ObjectId::Process(name.clone()),
            None => ObjectId::Process(receiver.to_string()),
        };
        let row_cap = model.caps.root(
            &subject,
            object.clone(),
            Perms::sending(op::SEND, type_bits(types)),
        );
        row_caps.insert((sender, receiver), row_cap);
        model.channels.push(Channel {
            subject,
            object,
            op: Operation::Send,
            msg_types: types,
            kind: ChannelKind::AsyncSend,
            badge: None,
        });
    }

    for (&dev, owner) in &binding.device_owners {
        let Some(name) = binding.subjects.get(owner) else {
            continue;
        };
        for operation in [Operation::DevRead, Operation::DevWrite] {
            model.channels.push(Channel {
                subject: name.clone(),
                object: ObjectId::Device(dev),
                op: operation,
                msg_types: bas_acm::matrix::MsgTypeSet::EMPTY,
                kind: ChannelKind::DeviceAccess,
                badge: None,
            });
        }
        model.caps.root(
            name,
            ObjectId::Device(dev),
            Perms::of(op::DEV_READ | op::DEV_WRITE),
        );
    }

    // The delegation log replays as derivation edges. A well-founded
    // record hangs off the grantor's matrix row; a record whose grantor
    // holds no such row hangs off a rights-less synthetic root, so the
    // flow analysis flags the delegated rights as non-monotone. Stored
    // rights are taken verbatim (`derive_raw`): the analyzer, not the
    // lowering, adjudicates amplification.
    for rec in &delegations.records {
        let grantee = subject_name(rec.grantee);
        let parent = *row_caps
            .entry((rec.grantor, rec.receiver))
            .or_insert_with(|| {
                model.caps.root(
                    &subject_name(rec.grantor),
                    ObjectId::Process(subject_name(rec.receiver)),
                    Perms::NONE,
                )
            });
        let child = model.caps.derive_raw(
            parent,
            &grantee,
            DerivationKind::Grant,
            Perms::sending(op::SEND, type_bits(rec.types)),
        );
        if rec.revoked {
            model.caps.revoke(child);
        }
        if let Some(at) = rec.expires_at {
            model.caps.expire_at(child, at);
        }
    }
    model.caps.clock = delegations.clock;

    for (ac, name) in &binding.subjects {
        if let Some(limit) = quotas.limit(*ac, SyscallClass::Fork) {
            model.fork_quota.insert(name.clone(), limit);
        }
        // Raw endpoint references carry a generation counter; blind
        // enumeration reaches nothing (§IV-D.3's brute-force result).
        model.enumerable_handles.insert(name.clone(), 0);
        model.legitimate_handles.insert(name.clone(), 0);
    }

    model.normalize();
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use bas_core::policy::{scenario_acm, scenario_device_owners, scenario_quotas, PROCESSES};
    use bas_core::proto::{names, AC_CONTROL, AC_SCENARIO, AC_WEB, MT_SETPOINT};

    fn scenario_binding() -> AcmBinding {
        let mut subjects: BTreeMap<_, _> = PROCESSES
            .iter()
            .map(|p| (p.ac, p.name.to_string()))
            .collect();
        subjects.insert(AC_SCENARIO, names::SCENARIO.to_string());
        AcmBinding {
            subjects,
            pm_ac: Some(pm::PM_AC_ID),
            device_owners: scenario_device_owners(),
        }
    }

    #[test]
    fn scenario_acm_lowers_to_expected_edges() {
        let m = lower(
            &scenario_acm(),
            &scenario_binding(),
            &scenario_quotas(None),
            &DelegationLog::default(),
        );
        // Web can deliver a setpoint to the controller...
        assert!(m
            .delivery_channel(names::WEB, names::CONTROL, MT_SETPOINT)
            .is_some());
        // ...but not sensor readings, and not actuator commands.
        assert!(m
            .delivery_channel(
                names::WEB,
                names::CONTROL,
                bas_core::proto::MT_SENSOR_READING
            )
            .is_none());
        assert!(m
            .delivery_channel(names::WEB, names::HEATER, bas_core::proto::MT_FAN_CMD)
            .is_none());
        // PM rows became sys-ops: loader kills, web forks but cannot kill.
        assert!(m.can_kill(names::SCENARIO, names::CONTROL));
        assert!(!m.can_kill(names::WEB, names::CONTROL));
        assert!(m.can_fork(names::WEB));
    }

    #[test]
    fn device_ownership_becomes_device_channels() {
        let m = lower(
            &scenario_acm(),
            &scenario_binding(),
            &scenario_quotas(None),
            &DelegationLog::default(),
        );
        assert!(m
            .device_channel(names::HEATER, DeviceId::FAN, true)
            .is_some());
        assert!(m.device_channel(names::WEB, DeviceId::FAN, true).is_none());
    }

    #[test]
    fn fork_quota_carried_through() {
        let m = lower(
            &scenario_acm(),
            &scenario_binding(),
            &scenario_quotas(Some(2)),
            &DelegationLog::default(),
        );
        assert_eq!(m.fork_quota.get(names::WEB), Some(&2));
    }

    #[test]
    fn delegations_replay_into_the_derivation_forest() {
        use bas_acm::MsgTypeSet;
        use bas_core::proto::MT_SENSOR_READING;

        // Well-founded attenuation: web re-delegates a subset of its
        // setpoint row — clean.
        let mut log = DelegationLog::new();
        log.delegate(
            AC_WEB,
            AC_SCENARIO,
            AC_CONTROL,
            MsgTypeSet::of([MsgType::new(MT_SETPOINT)]),
        );
        let m = lower(
            &scenario_acm(),
            &scenario_binding(),
            &scenario_quotas(None),
            &log,
        );
        assert!(!m.caps.is_empty());
        let c = crate::flow::closure(&m.caps);
        assert!(
            c.findings.is_empty(),
            "subset delegation is monotone: {:?}",
            c.findings
        );

        // Amplified delegation: web hands out a message type its own row
        // never carried — the flow analysis must flag it.
        let mut log = DelegationLog::new();
        log.delegate(
            AC_WEB,
            AC_SCENARIO,
            AC_CONTROL,
            MsgTypeSet::of([MsgType::new(MT_SENSOR_READING)]),
        );
        let m = lower(
            &scenario_acm(),
            &scenario_binding(),
            &scenario_quotas(None),
            &log,
        );
        let c = crate::flow::closure(&m.caps);
        assert!(c
            .findings
            .iter()
            .any(|f| f.kind == crate::flow::FlowKind::AttenuationViolation));
    }

    #[test]
    fn pm_reply_rows_are_not_subject_authority() {
        let m = lower(
            &scenario_acm(),
            &scenario_binding(),
            &scenario_quotas(None),
            &DelegationLog::default(),
        );
        assert!(
            !m.channels
                .iter()
                .any(|c| c.subject == pm::PM_AC_ID.to_string()),
            "PM reply rows must be skipped"
        );
    }
}
