//! The model checker vs the paper table vs the static verdict, over the
//! whole 54-cell matrix — plus the structural invariants of exploration:
//! POR-verdict equivalence, invariant unreachability, minimization.

use bas_analysis::mc::verdict::props;
use bas_analysis::mc::{
    check_cell, check_matrix, classify, minimize_trace, ExploreOpts, McProperty, ScenarioModel,
};
use bas_attack::expectations::Expectation;
use bas_attack::{AttackId, AttackerModel};
use bas_core::platform::linux::UidScheme;
use bas_core::scenario::Platform;
use bas_core::semantics::replay_trace;

fn opts() -> ExploreOpts {
    ExploreOpts {
        use_por: true,
        state_budget: 2_000_000,
    }
}

/// Tentpole acceptance: the checker proves the same 54-cell matrix the
/// dynamic harness measures and the static analyzer predicts — same
/// verdict in every cell, exhaustively at the bounded horizon.
#[test]
fn matrix_agrees_three_ways_in_all_54_cells() {
    let reports = check_matrix(UidScheme::SharedAccount, &opts());
    assert_eq!(reports.len(), 54);
    for r in &reports {
        assert!(
            !r.stats.truncated,
            "{:?}/{}/{}: exploration truncated — no proof",
            r.platform, r.attacker, r.attack
        );
        assert!(
            r.agrees(),
            "{:?}/{}/{}: mc={:?} paper={:?} taint={:?}",
            r.platform,
            r.attacker,
            r.attack,
            r.mc,
            r.paper,
            r.taint
        );
        assert!(
            !r.invariant_violated(),
            "{:?}/{}/{}: gate mismatch or quota breach reachable",
            r.platform,
            r.attacker,
            r.attack
        );
    }
    // The paper's headline split must be visible in the verdicts.
    let compromised = |p: Platform| {
        reports
            .iter()
            .filter(|r| r.platform == p && r.mc == Expectation::Compromised)
            .count()
    };
    assert!(compromised(Platform::Linux) > compromised(Platform::Minix));
    assert_eq!(compromised(Platform::Minix), compromised(Platform::Sel4));
}

/// POR soundness, validated empirically: reduced and unreduced
/// exploration at equal depth reach identical verdicts and fact sets,
/// with strictly fewer states under reduction.
#[test]
fn por_is_sound_and_effective_across_platforms() {
    let mut total_full = 0usize;
    let mut total_reduced = 0usize;
    for platform in [Platform::Linux, Platform::Minix, Platform::Sel4] {
        for attack in [
            AttackId::SpoofSensorData,
            AttackId::KillCritical,
            AttackId::ReplaySetpoint,
        ] {
            let model = ScenarioModel::new(
                platform,
                AttackerModel::ArbitraryCode,
                attack,
                UidScheme::SharedAccount,
            );
            let reduced = check_cell(&model, &opts());
            let full = check_cell(
                &model,
                &ExploreOpts {
                    use_por: false,
                    state_budget: 2_000_000,
                },
            );
            assert!(!reduced.stats.truncated && !full.stats.truncated);
            assert_eq!(
                reduced.mc, full.mc,
                "{platform:?}/{attack}: POR changed the verdict"
            );
            assert_eq!(
                reduced.reached, full.reached,
                "{platform:?}/{attack}: POR changed reachable facts"
            );
            assert!(reduced.stats.states <= full.stats.states);
            total_full += full.stats.states;
            total_reduced += reduced.stats.states;
        }
    }
    assert!(
        total_reduced < total_full,
        "POR ineffective overall: {total_reduced} !< {total_full}"
    );
}

/// Every emitted counterexample is feasible, 1-minimal, and actually
/// witnesses its property.
#[test]
fn counterexamples_are_minimal_feasible_witnesses() {
    let mut seen_any = false;
    for r in check_matrix(UidScheme::SharedAccount, &opts()) {
        let Some(cx) = &r.counterexample else {
            assert_ne!(
                r.mc,
                Expectation::Compromised,
                "{:?}/{}/{}: compromised without witness",
                r.platform,
                r.attacker,
                r.attack
            );
            continue;
        };
        seen_any = true;
        let model = ScenarioModel::new(r.platform, r.attacker, r.attack, UidScheme::SharedAccount);
        let bounds = model.bounds;
        let hits = |t: &[_]| {
            replay_trace(&model, t).is_some_and(|states| {
                states
                    .iter()
                    .any(|s| classify(&bounds, s) & cx.property.bit() != 0)
            })
        };
        assert!(
            hits(&cx.trace),
            "{:?}/{}/{}: counterexample does not witness {}",
            r.platform,
            r.attacker,
            r.attack,
            cx.property
        );
        // 1-minimality: removing any single action breaks the witness.
        for i in 0..cx.trace.len() {
            let mut shorter = cx.trace.clone();
            shorter.remove(i);
            assert!(
                !hits(&shorter),
                "{:?}/{}/{}: action {i} of the witness is removable",
                r.platform,
                r.attacker,
                r.attack
            );
        }
        // Idempotence of the minimizer.
        let again = minimize_trace(&model, &cx.trace, |s| {
            classify(&bounds, s) & cx.property.bit() != 0
        });
        assert_eq!(again.len(), cx.trace.len());
    }
    assert!(seen_any, "the shared-account matrix must yield witnesses");
}

/// The hardened Linux scheme flips the DAC cells the paper's §V
/// hardening discussion predicts — and the checker proves the flip.
#[test]
fn hardened_linux_cells_flip_to_minix_shape() {
    let o = opts();
    for (attack, shared, hardened) in [
        (
            AttackId::SpoofSensorData,
            Expectation::Compromised,
            Expectation::Stopped,
        ),
        (
            AttackId::KillCritical,
            Expectation::Compromised,
            Expectation::Stopped,
        ),
        (
            AttackId::DirectDeviceWrite,
            Expectation::Compromised,
            Expectation::Stopped,
        ),
        (
            AttackId::ReplaySetpoint,
            Expectation::Compromised,
            Expectation::Compromised,
        ),
    ] {
        for (scheme, want) in [
            (UidScheme::SharedAccount, shared),
            (UidScheme::PerProcessHardened, hardened),
        ] {
            let model = ScenarioModel::new(
                Platform::Linux,
                AttackerModel::ArbitraryCode,
                attack,
                scheme,
            );
            let r = check_cell(&model, &o);
            assert!(!r.stats.truncated);
            assert_eq!(r.mc, want, "{attack} under {scheme:?}");
            assert!(!r.invariant_violated(), "{attack} under {scheme:?}");
        }
    }
    // A2 root bypasses the hardened DAC — the checker must find the
    // kill interleaving the hardening cannot stop.
    let model = ScenarioModel::new(
        Platform::Linux,
        AttackerModel::Root,
        AttackId::KillCritical,
        UidScheme::PerProcessHardened,
    );
    let r = check_cell(&model, &o);
    assert_eq!(r.mc, Expectation::Compromised);
    assert_eq!(
        r.counterexample.map(|c| c.property),
        Some(McProperty::CriticalKilled)
    );
}

/// The bounded-response property needs real interleaving search: the
/// forged command only matters if it lands *between* the controller's
/// re-assertion and the driver's read — the witness must win that race.
#[test]
fn bounded_response_witness_wins_an_intra_round_race() {
    let model = ScenarioModel::new(
        Platform::Linux,
        AttackerModel::ArbitraryCode,
        AttackId::SpoofActuatorCommands,
        UidScheme::SharedAccount,
    );
    let r = check_cell(&model, &opts());
    assert_eq!(r.mc, Expectation::Compromised);
    let cx = r.counterexample.expect("witness");
    assert_eq!(cx.property, McProperty::BoundedResponse);
    use bas_analysis::mc::McAction;
    let attacker_moves = cx
        .trace
        .iter()
        .filter(|a| matches!(a, McAction::Attack(_)))
        .count();
    assert!(
        attacker_moves >= 1,
        "healthy scheduling alone must not violate bounded response"
    );
    // The forge must be interleaved strictly inside the process
    // schedule (after some step, before another) — a head- or
    // tail-positioned attack cannot overwrite the controller's
    // re-asserted command before the driver reads it.
    let first_attack = cx
        .trace
        .iter()
        .position(|a| matches!(a, McAction::Attack(_)))
        .expect("compromise trace contains an attack action");
    assert!(
        cx.trace[..first_attack]
            .iter()
            .any(|a| matches!(a, McAction::Step(_)))
            && cx.trace[first_attack..]
                .iter()
                .any(|a| matches!(a, McAction::Step(_))),
        "witness does not interleave the attack inside the schedule: {:?}",
        cx.trace
    );
    assert_eq!(r.reached & props::GATE_MISMATCH, 0);
}
