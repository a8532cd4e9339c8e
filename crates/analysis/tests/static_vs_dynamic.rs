//! Cross-validation: the static predictor against the dynamic harness.
//!
//! For every cell of the E6 attack matrix — attack × platform × attacker
//! model — the statically predicted `(mechanism delivers, compromised)`
//! pair must equal what actually happens when the attack runs in the
//! simulator. The same must hold under the hardened Linux uid scheme and
//! under both policy ablations (permissive ACM, stray seL4 capabilities),
//! where the *verdicts themselves flip* — so agreement is not vacuous.

use bas_analysis::flow::predict;
use bas_analysis::scenario::{minix_model, scenario_justification, sel4_model};
use bas_analysis::{lint, Severity};
use bas_attack::evidence::new_evidence;
use bas_attack::harness::{attack_overrides, run_attack, AttackRunConfig};
use bas_attack::model::{AttackId, AttackerModel};
use bas_attack::procs::{Binding, Plan};
use bas_attack::{MinixBinding, Sel4Binding};
use bas_core::engine::{PlatformKernel, ScenarioEngine};
use bas_core::platform::linux::UidScheme;
use bas_core::policy;
use bas_core::proto::names;
use bas_core::scenario::{critical_alive, Platform, Scenario};

fn scenario_model(
    platform: Platform,
    attacker: AttackerModel,
    scheme: UidScheme,
) -> bas_analysis::PolicyModel {
    bas_analysis::scenario::model_for(platform, attacker, scheme)
}

fn assert_cell_agrees(
    platform: Platform,
    attacker: AttackerModel,
    attack: AttackId,
    scheme: UidScheme,
    config: &AttackRunConfig,
) {
    let model = scenario_model(platform, attacker, scheme);
    let predicted = predict(&model, attack);
    let outcome = run_attack(platform, attacker, attack, config);
    assert_eq!(
        predicted.mechanism_delivers,
        outcome.mechanism.succeeded(),
        "mechanism mismatch: {platform} / {attacker} / {attack} ({})",
        predicted.rationale
    );
    assert_eq!(
        predicted.compromised,
        outcome.compromised(),
        "compromise mismatch: {platform} / {attacker} / {attack} ({})",
        predicted.rationale
    );
}

/// Every cell of the E6 matrix: static prediction == dynamic outcome.
#[test]
fn full_matrix_static_equals_dynamic() {
    let config = AttackRunConfig::default();
    for platform in [Platform::Linux, Platform::Minix, Platform::Sel4] {
        for attack in AttackId::ALL {
            for attacker in [AttackerModel::ArbitraryCode, AttackerModel::Root] {
                assert_cell_agrees(
                    platform,
                    attacker,
                    attack,
                    UidScheme::SharedAccount,
                    &config,
                );
            }
        }
    }
}

/// The hardened-Linux column (per-process uids, 0620 grouped queues):
/// static prediction == dynamic outcome for both attacker models.
#[test]
fn hardened_linux_static_equals_dynamic() {
    let config = AttackRunConfig {
        linux_uid_scheme: UidScheme::PerProcessHardened,
        ..AttackRunConfig::default()
    };
    for attack in AttackId::ALL {
        for attacker in [AttackerModel::ArbitraryCode, AttackerModel::Root] {
            assert_cell_agrees(
                Platform::Linux,
                attacker,
                attack,
                UidScheme::PerProcessHardened,
                &config,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// ACM ablation (mirrors exp_ablation_acm's dynamic setup)
// ---------------------------------------------------------------------------

/// Runs `plan` on `B`'s platform under A1 and `run`, with the overrides
/// `ablate` adjusts, as the ablation binaries do. Returns `(mechanism
/// delivered, compromised)`.
fn run_ablation<B: Binding>(
    plan: impl Into<Plan<B::Syscall>>,
    run: &AttackRunConfig,
    ablate: impl FnOnce(&mut <B::Stack as PlatformKernel>::Overrides),
) -> (bool, bool) {
    let evidence = new_evidence();
    let mut overrides = attack_overrides::<B>(AttackerModel::ArbitraryCode, plan, run, &evidence);
    ablate(&mut overrides);
    let mut s = ScenarioEngine::<B::Stack>::boot(&run.scenario, overrides);
    s.run_for(run.warmup + run.window + run.cooldown);
    let plant = s.plant();
    let safe = plant.borrow().safety_report().is_safe();
    let alive = critical_alive(&s);
    let delivered = evidence.borrow().successes > 0;
    (delivered, !safe || !alive)
}

/// The ACM ablation: static verdicts flip exactly where the dynamic ones
/// do, cell by cell.
#[test]
fn ablation_acm_static_equals_dynamic() {
    let attacks = [
        AttackId::SpoofSensorData,
        AttackId::SpoofActuatorCommands,
        AttackId::KillCritical,
        AttackId::ForkBomb,
    ];
    for attack in attacks {
        for (label, acm, quota) in [
            ("scenario", None, None),
            ("permissive", Some(policy::permissive_acm()), None),
            ("quota", None, Some(2u64)),
        ] {
            let model = minix_model(AttackerModel::ArbitraryCode, acm.as_ref(), quota);
            let predicted = predict(&model, attack);
            let mut run = AttackRunConfig::default();
            run.scenario.web_fork_limit = quota;
            let (delivered, compromised) = run_ablation::<MinixBinding>(attack, &run, |o| {
                o.acm = acm.map(std::sync::Arc::new);
            });
            assert_eq!(
                predicted.mechanism_delivers, delivered,
                "mechanism mismatch: {attack} under {label} ACM ({})",
                predicted.rationale
            );
            assert_eq!(
                predicted.compromised, compromised,
                "compromise mismatch: {attack} under {label} ACM ({})",
                predicted.rationale
            );
        }
    }
}

/// The permissive ACM must *flip* static verdicts (agreement above would
/// be vacuous if both configurations predicted the same thing).
#[test]
fn ablation_acm_flips_static_verdicts() {
    let permissive = policy::permissive_acm();
    let scenario = minix_model(AttackerModel::ArbitraryCode, None, None);
    let ablated = minix_model(AttackerModel::ArbitraryCode, Some(&permissive), None);

    // Actuator spoofing: Stopped → Compromised without the matrix.
    let before = predict(&scenario, AttackId::SpoofActuatorCommands);
    let after = predict(&ablated, AttackId::SpoofActuatorCommands);
    assert!(!before.mechanism_delivers && !before.compromised);
    assert!(after.mechanism_delivers && after.compromised);

    // Sensor spoofing: delivery opens up, but kernel-stamped identity
    // still protects the controller (the microkernel's own contribution).
    let before = predict(&scenario, AttackId::SpoofSensorData);
    let after = predict(&ablated, AttackId::SpoofSensorData);
    assert!(!before.mechanism_delivers);
    assert!(after.mechanism_delivers && !after.compromised);

    // Kill: PM policy unchanged, verdict must not flip.
    let after = predict(&ablated, AttackId::KillCritical);
    assert!(!after.mechanism_delivers && !after.compromised);
}

// ---------------------------------------------------------------------------
// Capability ablation (mirrors exp_ablation_caps's dynamic setup)
// ---------------------------------------------------------------------------

/// The capability ablation: the stray write capability flips the static
/// actuator-spoof verdict, and the flipped prediction matches execution.
#[test]
fn ablation_caps_static_equals_dynamic_and_flips() {
    // Clean distribution.
    let clean = sel4_model(AttackerModel::ArbitraryCode, &[]);
    let predicted = predict(&clean, AttackId::SpoofActuatorCommands);
    assert!(!predicted.mechanism_delivers && !predicted.compromised);
    let run = AttackRunConfig::default();
    let attack = AttackId::SpoofActuatorCommands;
    let (delivered, compromised) = run_ablation::<Sel4Binding>(attack, &run, |_| ());
    assert_eq!(predicted.mechanism_delivers, delivered);
    assert_eq!(predicted.compromised, compromised);

    // Over-granted distribution.
    let ablated = sel4_model(AttackerModel::ArbitraryCode, &Sel4Binding::stray_caps());
    let predicted = predict(&ablated, AttackId::SpoofActuatorCommands);
    assert!(
        predicted.mechanism_delivers && predicted.compromised,
        "stray caps must flip the static verdict: {}",
        predicted.rationale
    );
    let (delivered, compromised) =
        run_ablation::<Sel4Binding>(Sel4Binding::stray_cap_plan(), &run, |o| {
            o.extra_caps = Sel4Binding::stray_caps();
        });
    assert_eq!(predicted.mechanism_delivers, delivered);
    assert_eq!(predicted.compromised, compromised);
}

/// The linter flags the stray capabilities the ablation injects (the
/// static analogue of the CapDL auditor in `exp_ablation_caps`).
#[test]
fn lint_flags_stray_capabilities() {
    let justification = scenario_justification();

    let clean = sel4_model(AttackerModel::ArbitraryCode, &[]);
    let clean_highs: Vec<_> = lint(&clean, &justification)
        .into_iter()
        .filter(|f| f.severity <= Severity::High)
        .collect();
    assert!(
        clean_highs.is_empty(),
        "clean distribution must lint clean: {clean_highs:#?}"
    );

    // The stray holders are the untrusted web process, so the findings
    // escalate to `error` — the severity the exp_policy_audit gate and
    // ci.sh fail the build on.
    let ablated = sel4_model(AttackerModel::ArbitraryCode, &Sel4Binding::stray_caps());
    let findings = lint(&ablated, &justification);
    let stray = findings
        .iter()
        .filter(|f| {
            f.severity == Severity::Error
                && f.code == "over-granted-capability"
                && f.subject == names::WEB
        })
        .count();
    assert_eq!(stray, 2, "both stray caps flagged: {findings:#?}");
}
