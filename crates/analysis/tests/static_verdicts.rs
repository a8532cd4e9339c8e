//! Pins every static verdict the analyzer gives: `(mechanism delivers,
//! compromised, rationale)` for the 108 matrix cells (both Linux uid
//! schemes × three platforms × two attackers × nine attacks) and the 90
//! ablation cells (permissive ACM, web fork quota 0, 5 and 3, stray seL4
//! capabilities; both attackers, nine attacks). The digest is of the
//! rendered verdicts, so a change to the judge that moves any verdict or
//! its rationale text fails here.

use bas_analysis::flow::predict;
use bas_analysis::scenario::{minix_model, model_for, sel4_model};
use bas_analysis::PolicyModel;
use bas_attack::model::{AttackId, AttackerModel};
use bas_attack::Sel4Binding;
use bas_core::platform::linux::UidScheme;
use bas_core::scenario::Platform;
use bas_sim::fnv::Fnv1a;

const ATTACKERS: [AttackerModel; 2] = [AttackerModel::ArbitraryCode, AttackerModel::Root];

/// Every `(label, model)` the pin covers, in a fixed order.
fn configurations() -> Vec<(String, PolicyModel)> {
    let mut out = Vec::new();
    for scheme in [UidScheme::SharedAccount, UidScheme::PerProcessHardened] {
        for platform in [Platform::Linux, Platform::Minix, Platform::Sel4] {
            for attacker in ATTACKERS {
                out.push((
                    format!("{platform}/{scheme:?}/{attacker}"),
                    model_for(platform, attacker, scheme),
                ));
            }
        }
    }
    let permissive = bas_core::policy::permissive_acm();
    for attacker in ATTACKERS {
        out.push((
            format!("minix/permissive-acm/{attacker}"),
            minix_model(attacker, Some(&permissive), None),
        ));
        for quota in [0, 5, 3] {
            out.push((
                format!("minix/fork-quota-{quota}/{attacker}"),
                minix_model(attacker, None, Some(quota)),
            ));
        }
        out.push((
            format!("sel4/stray-caps/{attacker}"),
            sel4_model(attacker, &Sel4Binding::stray_caps()),
        ));
    }
    out
}

#[test]
fn static_verdicts_are_pinned() {
    let mut text = String::new();
    let mut cells = 0;
    for (label, model) in configurations() {
        for attack in AttackId::ALL {
            let v = predict(&model, attack);
            text.push_str(&format!(
                "{label}/{attack}: delivers={} compromised={} {}\n",
                v.mechanism_delivers, v.compromised, v.rationale
            ));
            cells += 1;
        }
    }
    assert_eq!(cells, 198);
    assert_eq!(
        format!("fnv1a {:016x}", Fnv1a::digest(text.as_bytes())),
        "fnv1a af401312d4755c20",
        "{text}"
    );
}
