//! Seeded derivation scenarios for the static/mc differential.
//!
//! The 54-cell attack matrix exercises *cleanly lowered* derivation
//! graphs, which by construction carry no flow violations. These
//! scenarios seed each platform's Policy IR with one specific anomaly —
//! an amplified mint, an incomplete revocation, a stale expiry, a
//! masquerading handle — plus two deliberately-clean controls, and
//! record what the static analyzer and the model checker must both
//! conclude. `exp_cap_flow` (E17) asserts the agreement cell by cell.

use bas_attack::AttackerModel;
use bas_core::platform::linux::UidScheme;
use bas_core::scenario::Platform;
use bas_sim::device::DeviceId;

use super::graph::{DerivationKind, ObjType};
use super::lattice::{op, Perms};
use crate::ir::{ObjectId, PolicyModel};
use crate::mc::verdict::props;
use crate::scenario::model_for;

/// One seeded scenario with its expected static and dynamic outcomes.
pub struct DerivationScenario {
    /// Stable scenario id, `<platform-key>/<kind>`.
    pub name: String,
    /// The platform whose lowered IR the anomaly is seeded into.
    pub platform: Platform,
    /// The seeded Policy IR.
    pub model: PolicyModel,
    /// The exact flow-finding codes the closure must emit, in `CapId`
    /// order.
    pub expect_codes: Vec<&'static str>,
    /// Whether a capability-borne escalation witness must exist.
    pub expect_witness: bool,
    /// The new-property bits (`OBJECT_MASQUERADE` / `DERIVATION_BREACH`)
    /// the model checker must reach — and no others of the pair.
    pub expect_flags: u32,
    /// Why the expectation is what it is.
    pub note: &'static str,
}

/// The base model anomalies are seeded into: hardened configuration so
/// the background attack (handle probing) is flag-clean on every
/// platform and any reached new-property bit is attributable to the
/// seeded capability alone.
fn base(platform: Platform) -> PolicyModel {
    model_for(
        platform,
        AttackerModel::ArbitraryCode,
        UidScheme::PerProcessHardened,
    )
}

/// Builds all 21 scenarios (3 platforms × 7 kinds), platform-major, in
/// deterministic order.
pub fn derivation_scenarios() -> Vec<DerivationScenario> {
    let mut out = Vec::new();
    for platform in [Platform::Linux, Platform::Minix, Platform::Sel4] {
        let k = platform.key();

        // 1. A well-formed attenuating chain: control, must stay silent.
        let mut m = base(platform);
        let ctrl = m.roles.controller.clone();
        let heater = m.roles.heater.clone();
        let r = m.caps.root(
            &ctrl,
            ObjectId::Device(DeviceId::FAN),
            Perms::of(op::DEV_WRITE | op::DEV_READ),
        );
        m.caps.derive(
            r,
            &heater,
            DerivationKind::Attenuate,
            Perms::of(op::DEV_WRITE),
        );
        out.push(DerivationScenario {
            name: format!("{k}/clean-chain"),
            platform,
            model: m,
            expect_codes: vec![],
            expect_witness: false,
            expect_flags: 0,
            note: "attenuating derivation between trusted subjects is sound",
        });

        // 2. An amplified mint hands the attacker write authority the
        //    source never had.
        let mut m = base(platform);
        let ctrl = m.roles.controller.clone();
        let web = m.roles.web.clone();
        let r = m.caps.root(
            &ctrl,
            ObjectId::Device(DeviceId::FAN),
            Perms::of(op::DEV_READ),
        );
        m.caps
            .derive_raw(r, &web, DerivationKind::Grant, Perms::of(op::DEV_WRITE));
        out.push(DerivationScenario {
            name: format!("{k}/amplified-derive"),
            platform,
            model: m,
            expect_codes: vec!["attenuation-violation"],
            expect_witness: true,
            expect_flags: props::DERIVATION_BREACH,
            note: "derived rights exceed the source: attacker gains fan write",
        });

        // 3. Root revoked node-locally: the derived chain leaks.
        let mut m = base(platform);
        let ctrl = m.roles.controller.clone();
        let heater = m.roles.heater.clone();
        let web = m.roles.web.clone();
        let r = m.caps.root(
            &ctrl,
            ObjectId::Device(DeviceId::ALARM),
            Perms::of(op::DEV_WRITE),
        );
        let mid = m
            .caps
            .derive(r, &heater, DerivationKind::Grant, Perms::of(op::DEV_WRITE));
        m.caps
            .derive(mid, &web, DerivationKind::Grant, Perms::of(op::DEV_WRITE));
        m.caps.revoke(r);
        out.push(DerivationScenario {
            name: format!("{k}/revocation-leak"),
            platform,
            model: m,
            expect_codes: vec!["revocation-leak", "revocation-leak"],
            expect_witness: true,
            expect_flags: props::DERIVATION_BREACH,
            note: "revocation not transitively complete: descendants stay usable",
        });

        // 4. Same chain, revoked recursively: control, must stay silent.
        let mut m = base(platform);
        let ctrl = m.roles.controller.clone();
        let heater = m.roles.heater.clone();
        let web = m.roles.web.clone();
        let r = m.caps.root(
            &ctrl,
            ObjectId::Device(DeviceId::ALARM),
            Perms::of(op::DEV_WRITE),
        );
        let mid = m
            .caps
            .derive(r, &heater, DerivationKind::Grant, Perms::of(op::DEV_WRITE));
        m.caps
            .derive(mid, &web, DerivationKind::Grant, Perms::of(op::DEV_WRITE));
        m.caps.revoke_recursive(r);
        out.push(DerivationScenario {
            name: format!("{k}/revoke-complete"),
            platform,
            model: m,
            expect_codes: vec![],
            expect_witness: false,
            expect_flags: 0,
            note: "transitive revocation empties the derived closure",
        });

        // 5. The root's expiry has passed but the derived slot still
        //    reads usable.
        let mut m = base(platform);
        let ctrl = m.roles.controller.clone();
        let web = m.roles.web.clone();
        let r = m.caps.root(
            &ctrl,
            ObjectId::Device(DeviceId::FAN),
            Perms::of(op::DEV_WRITE),
        );
        m.caps.expire_at(r, 3);
        m.caps
            .derive(r, &web, DerivationKind::Grant, Perms::of(op::DEV_WRITE));
        m.caps.clock = 5;
        out.push(DerivationScenario {
            name: format!("{k}/expired-live"),
            platform,
            model: m,
            expect_codes: vec!["expired-cap-live"],
            expect_witness: true,
            expect_flags: props::DERIVATION_BREACH,
            note: "inherited expiry passed; the leaf slot was never swept",
        });

        // 6. A type-confused handle in the attacker's possession. The
        //    finding is platform-independent; exploitation is not:
        //    unguessable handles are re-validated at translation.
        let mut m = base(platform);
        let web = m.roles.web.clone();
        m.caps.root_typed(
            &web,
            ObjectId::Device(DeviceId::ALARM),
            ObjType::DeviceFrame,
            ObjType::Queue,
            Perms::of(op::DEV_WRITE),
        );
        let exploitable = !m.traits.unguessable_handles;
        out.push(DerivationScenario {
            name: format!("{k}/masquerade-device"),
            platform,
            model: m,
            expect_codes: vec!["object-masquerade"],
            expect_witness: exploitable,
            expect_flags: if exploitable {
                props::OBJECT_MASQUERADE
            } else {
                0
            },
            note: "handle asserts queue, kernel object is a device frame",
        });

        // 7. The same confused handle held by a *trusted* subject: a
        //    hygiene finding, but no escalation path.
        let mut m = base(platform);
        let heater = m.roles.heater.clone();
        m.caps.root_typed(
            &heater,
            ObjectId::Device(DeviceId::ALARM),
            ObjType::DeviceFrame,
            ObjType::Queue,
            Perms::of(op::DEV_WRITE),
        );
        out.push(DerivationScenario {
            name: format!("{k}/masquerade-trusted"),
            platform,
            model: m,
            expect_codes: vec!["object-masquerade"],
            expect_witness: false,
            expect_flags: 0,
            note: "type confusion on a trusted holder: finding, no escalation",
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{closure, escalation_witnesses};

    #[test]
    fn twenty_one_scenarios_platform_major() {
        let ss = derivation_scenarios();
        assert_eq!(ss.len(), 21);
        assert_eq!(ss[0].name, "linux/clean-chain");
        assert_eq!(ss[7].name, "minix/clean-chain");
        assert_eq!(ss[14].name, "sel4/clean-chain");
        let names: std::collections::BTreeSet<&str> = ss.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), 21, "names are unique");
    }

    #[test]
    fn static_expectations_hold_for_every_scenario() {
        for s in derivation_scenarios() {
            let cl = closure(&s.model.caps);
            let codes: Vec<&str> = cl.findings.iter().map(|f| f.kind.code()).collect();
            assert_eq!(codes, s.expect_codes, "{}: finding codes", s.name);
            let ws = escalation_witnesses(&s.model);
            let via_caps = ws.iter().any(|w| w.via_caps);
            assert_eq!(via_caps, s.expect_witness, "{}: witness presence", s.name);
        }
    }
}
