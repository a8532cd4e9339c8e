//! The paper's temperature-control scenario, bound into the Policy IR.
//!
//! This module owns the scenario-specific glue: lowering each platform's
//! policy artifact with the right binding (identities, endpoint message
//! types, uid schemes), attaching the shared application contracts, and
//! synthesizing the AADL-minimal [`Justification`] the linter diffs
//! against. The cross-validation harness (`exp_policy_audit`, the
//! `static_vs_dynamic` tests) builds every model through here.

use std::collections::BTreeMap;

use bas_acm::AccessControlMatrix;
use bas_attack::{AttackId, AttackerModel};
use bas_capdl::spec::{CapDecl, CapTargetSpec};
use bas_core::platform::linux::UidScheme;
use bas_core::platform::sel4::ExtraCap;
use bas_core::policy::{
    channel_agreement, scenario_acm, scenario_assembly, scenario_device_owners, scenario_quotas,
    CHANNELS, PROCESSES, SCENARIO_AADL,
};
use bas_core::proto::{names, AC_SCENARIO, MT_ACK, MT_SENSOR_READING, MT_SETPOINT};
use bas_core::scenario::Platform;
use bas_minix::pm;

use crate::ir::{AppContracts, PolicyModel, Roles, Trust};
use crate::lint::Justification;
use crate::lower::acm::AcmBinding;
use crate::lower::capdl::CapdlBinding;
use crate::lower::linux::{LinuxDeployment, QueueSpec};
use crate::taint::{predict, StaticVerdict};

/// The application contracts shared by all three platforms (the process
/// code is identical; only the enforcement underneath differs).
pub fn contracts() -> AppContracts {
    let mut c = AppContracts::default();
    c.authenticated.insert(
        (names::CONTROL.to_string(), MT_SENSOR_READING),
        [names::SENSOR.to_string()].into(),
    );
    c.validated
        .insert((names::CONTROL.to_string(), MT_SETPOINT));
    c.actuation_inputs
        .insert((names::CONTROL.to_string(), MT_SENSOR_READING));
    c
}

/// The scenario role binding.
pub fn roles() -> Roles {
    Roles {
        controller: names::CONTROL.to_string(),
        sensor: names::SENSOR.to_string(),
        heater: names::HEATER.to_string(),
        alarm: names::ALARM.to_string(),
        web: names::WEB.to_string(),
    }
}

fn finish(mut model: PolicyModel, attacker: AttackerModel, web_uid: Option<u32>) -> PolicyModel {
    model.contracts = contracts();
    model.roles = roles();
    let uid = match attacker {
        AttackerModel::ArbitraryCode => web_uid,
        AttackerModel::Root if model.traits.uid_root_bypass => Some(0),
        AttackerModel::Root => web_uid,
    };
    model.add_subject(names::WEB, Trust::Untrusted, uid);
    model
}

/// MINIX 3 + ACM. `acm` overrides the scenario matrix (the A1 ablation);
/// `web_fork_limit` is the fork-quota knob.
pub fn minix_model(
    attacker: AttackerModel,
    acm: Option<&AccessControlMatrix>,
    web_fork_limit: Option<u64>,
) -> PolicyModel {
    let mut subjects: BTreeMap<_, _> = PROCESSES
        .iter()
        .map(|p| (p.ac, p.name.to_string()))
        .collect();
    subjects.insert(AC_SCENARIO, names::SCENARIO.to_string());
    let binding = AcmBinding {
        subjects,
        pm_ac: Some(pm::PM_AC_ID),
        device_owners: scenario_device_owners(),
    };
    let default_acm;
    let acm = match acm {
        Some(m) => m,
        None => {
            default_acm = scenario_acm();
            &default_acm
        }
    };
    let model = crate::lower::acm::lower(
        acm,
        &binding,
        &scenario_quotas(web_fork_limit),
        &bas_acm::DelegationLog::default(),
    );
    // A2's root uid exists but buys nothing: the ACM has no uid bypass.
    finish(model, attacker, None)
}

/// seL4/CAmkES, via the compiled CapDL spec. `extra_caps` injects the
/// E11 capability-misconfiguration ablation.
pub fn sel4_model(attacker: AttackerModel, extra_caps: &[ExtraCap]) -> PolicyModel {
    let (mut spec, _glue) =
        bas_camkes::codegen::compile(&scenario_assembly()).expect("scenario assembly compiles");

    // Snapshot the clean per-thread cap counts before injecting extras:
    // "legitimate" means what CAmkES itself distributed.
    let clean_counts: BTreeMap<String, usize> = spec
        .threads
        .iter()
        .map(|t| (t.name.clone(), spec.caps_of(&t.name).count()))
        .collect();

    for extra in extra_caps {
        let (server, iface) = extra.endpoint_of;
        let slot = spec
            .caps_of(extra.holder)
            .map(|c| c.slot)
            .max()
            .map_or(0, |s| s + 1);
        spec.caps.push(CapDecl {
            holder: extra.holder.to_string(),
            slot,
            target: CapTargetSpec::Object(format!("ep_{server}_{iface}")),
            rights: extra.rights,
            badge: extra.badge,
        });
    }

    let mut binding = CapdlBinding::default();
    for c in &CHANNELS {
        if let Some(iface) = c.server_iface {
            let endpoint = format!("ep_{}_{iface}", c.to);
            binding
                .endpoint_types
                .entry(endpoint)
                .or_default()
                .push(c.msg_type);
        }
    }

    let mut model = crate::lower::capdl::lower(&spec, &binding);
    model.legitimate_handles = clean_counts;
    // seL4 has no users: A2 is identical to A1 by construction.
    finish(model, attacker, None)
}

/// Linux mq baseline, for either uid scheme. Under A2 the web interface
/// runs as root ("gained through a privilege escalation exploit").
pub fn linux_model(attacker: AttackerModel, scheme: UidScheme) -> PolicyModel {
    let web_uid = match attacker {
        AttackerModel::ArbitraryCode => scheme.uid_of(names::WEB),
        AttackerModel::Root => 0,
    };
    let subject_uids = PROCESSES
        .iter()
        .map(|p| match p.name {
            names::WEB => (p.name.to_string(), web_uid),
            name => (name.to_string(), scheme.uid_of(name)),
        })
        .collect();

    // The AADL plan's queues in name order, then the reply queue the
    // loader adds outside the AADL (as `build_linux` does).
    let mut channels: Vec<_> = CHANNELS.iter().collect();
    channels.sort_by_key(|c| (c.aadl.is_none(), c.queue));
    let queues = channels
        .into_iter()
        .map(|c| {
            let acl = scheme.queue_acl(c);
            QueueSpec {
                name: c.queue.to_string(),
                owner: acl.owner.as_u32(),
                group: acl.group.map(|g| g.as_u32()),
                mode: acl.mode,
                reader: c.to.to_string(),
                writers: vec![c.from.to_string()],
                msg_types: vec![c.msg_type],
            }
        })
        .collect();

    let devices = scheme
        .device_nodes()
        .map(|(dev, (owner, mode))| (dev, (owner.as_u32(), mode)))
        .collect();

    let dep = LinuxDeployment {
        subject_uids,
        queues,
        devices,
    };
    let model = crate::lower::linux::lower(&dep);
    finish(model, attacker, Some(web_uid))
}

/// The scenario model for any `(platform, attacker)` cell of the matrix.
pub fn model_for(platform: Platform, attacker: AttackerModel, scheme: UidScheme) -> PolicyModel {
    match platform {
        Platform::Minix => minix_model(attacker, None, None),
        Platform::Sel4 => sel4_model(attacker, &[]),
        Platform::Linux => linux_model(attacker, scheme),
    }
}

/// The AADL-minimal justification the linter diffs policies against.
pub fn scenario_justification() -> Justification {
    let aadl = bas_aadl::parse(SCENARIO_AADL).expect("scenario AADL parses");
    let mut j = Justification::default();

    for p in &PROCESSES {
        j.subjects.insert(p.name.to_string());
        if let Some(dev) = p.device {
            j.device_owners.insert(dev, p.name.to_string());
        }
    }
    j.subjects.insert(names::SCENARIO.to_string());

    // The application edges as the AADL declares them.
    let (connections, _) = channel_agreement(&aadl);
    for (_, from, to, msg_type) in connections {
        if let Some(t) = msg_type {
            j.app_edges.insert((from.clone(), to.clone(), t));
        }
        // Acknowledgments flow both ways on every connected pair.
        j.app_edges.insert((from.clone(), to.clone(), MT_ACK));
        j.app_edges.insert((to, from, MT_ACK));
    }

    j.sys_ops = [
        (names::SCENARIO.to_string(), crate::ir::Operation::Fork),
        (names::SCENARIO.to_string(), crate::ir::Operation::Kill),
        (names::SCENARIO.to_string(), crate::ir::Operation::Exit),
    ]
    .into();

    for c in &CHANNELS {
        let members = j.queue_membership.entry(c.queue.to_string()).or_default();
        members.extend([c.from.to_string(), c.to.to_string()]);
    }

    j
}

/// One predicted cell of the attack matrix.
#[derive(Debug, Clone)]
pub struct PredictedCell {
    /// Platform of the cell.
    pub platform: Platform,
    /// Attack mounted.
    pub attack: AttackId,
    /// Attacker model.
    pub attacker: AttackerModel,
    /// The static verdict.
    pub verdict: StaticVerdict,
}

/// The full predicted matrix, in deterministic platform-major order
/// (platform, then attack, then attacker) — the same order the dynamic
/// `exp_attack_matrix` experiment prints.
pub fn predicted_matrix(scheme: UidScheme) -> Vec<PredictedCell> {
    let mut cells = Vec::new();
    for platform in [Platform::Linux, Platform::Minix, Platform::Sel4] {
        for attack in AttackId::ALL {
            for attacker in [AttackerModel::ArbitraryCode, AttackerModel::Root] {
                let model = model_for(platform, attacker, scheme);
                cells.push(PredictedCell {
                    platform,
                    attack,
                    attacker,
                    verdict: predict(&model, attack),
                });
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taint::expectation;
    use bas_attack::expectations::Expectation;

    #[test]
    fn minix_model_has_scenario_shape() {
        let m = minix_model(AttackerModel::ArbitraryCode, None, None);
        assert_eq!(m.subjects.len(), 6);
        assert!(m
            .delivery_channel(names::WEB, names::CONTROL, MT_SETPOINT)
            .is_some());
        assert!(m
            .delivery_channel(names::WEB, names::CONTROL, MT_SENSOR_READING)
            .is_none());
        assert_eq!(m.untrusted_subjects().collect::<Vec<_>>(), vec![names::WEB]);
    }

    #[test]
    fn sel4_model_badges_and_handles() {
        let m = sel4_model(AttackerModel::ArbitraryCode, &[]);
        let ch = m
            .delivery_channel(names::WEB, names::CONTROL, MT_SETPOINT)
            .expect("web setpoint rpc");
        assert_eq!(ch.badge, Some(2), "web badge fixed by connection order");
        assert_eq!(
            m.enumerable_handles[names::WEB],
            m.legitimate_handles[names::WEB]
        );
    }

    #[test]
    fn linux_schemes_differ_where_the_paper_says() {
        let shared = linux_model(AttackerModel::ArbitraryCode, UidScheme::SharedAccount);
        let hardened = linux_model(AttackerModel::ArbitraryCode, UidScheme::PerProcessHardened);
        assert!(shared
            .delivery_channel(names::WEB, names::CONTROL, MT_SENSOR_READING)
            .is_some());
        assert!(hardened
            .delivery_channel(names::WEB, names::CONTROL, MT_SENSOR_READING)
            .is_none());
        // The legitimate setpoint path survives hardening.
        assert!(hardened
            .delivery_channel(names::WEB, names::CONTROL, MT_SETPOINT)
            .is_some());
    }

    #[test]
    fn predicted_matrix_matches_paper_table() {
        for cell in predicted_matrix(UidScheme::SharedAccount) {
            let want = bas_attack::paper_expectation(cell.platform, cell.attacker, cell.attack);
            let got = expectation(&cell.verdict);
            assert_eq!(
                got, want,
                "{} / {} / {}: {}",
                cell.platform, cell.attack, cell.attacker, cell.verdict.rationale
            );
        }
    }

    #[test]
    fn hardened_linux_stops_most_of_a1() {
        let m = linux_model(AttackerModel::ArbitraryCode, UidScheme::PerProcessHardened);
        let stopped = [
            AttackId::SpoofSensorData,
            AttackId::SpoofActuatorCommands,
            AttackId::KillCritical,
            AttackId::BruteForceHandles,
            AttackId::DirectDeviceWrite,
            AttackId::SetpointTamper,
        ];
        for attack in stopped {
            assert_eq!(
                expectation(&predict(&m, attack)),
                Expectation::Stopped,
                "{attack}"
            );
        }
        assert_eq!(
            expectation(&predict(&m, AttackId::ReplaySetpoint)),
            Expectation::Compromised
        );
        // Root undoes all of it.
        let root = linux_model(AttackerModel::Root, UidScheme::PerProcessHardened);
        assert_eq!(
            expectation(&predict(&root, AttackId::KillCritical)),
            Expectation::Compromised
        );
    }
}
