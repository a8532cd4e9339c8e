//! Counterexample → dynamic engine replay, across all three platforms.
//!
//! For every matrix cell the checker marks compromised, the minimized
//! abstract witness must correspond to a real dynamic compromise: the
//! attack harness run for that cell manifests the same violated
//! property (dead critical process / physical safety violation) through
//! the actual kernel stacks. Cells the checker proves `Stopped` must
//! conversely stay uncompromised dynamically.

use bas_analysis::mc::{check_matrix, replay_counterexample, ExploreOpts};
use bas_attack::expectations::Expectation;
use bas_attack::{run_attack, AttackRunConfig};
use bas_core::platform::linux::UidScheme;
use bas_core::scenario::Platform;

fn opts() -> ExploreOpts {
    ExploreOpts {
        use_por: true,
        state_budget: 2_000_000,
    }
}

/// Every minimized counterexample reproduces its violation dynamically.
#[test]
fn every_counterexample_replays_into_a_dynamic_compromise() {
    let scheme = UidScheme::SharedAccount;
    let mut replayed = [0usize; 3];
    for report in check_matrix(scheme, &opts()) {
        if report.counterexample.is_none() {
            continue;
        }
        let result = replay_counterexample(&report, scheme).expect("witness present");
        assert!(
            result.confirmed,
            "{:?}/{}/{}: abstract {} not confirmed dynamically ({})",
            report.platform, report.attacker, report.attack, result.property, result.evidence
        );
        assert_eq!(result.outcome.platform, report.platform);
        assert_eq!(result.outcome.attack, report.attack);
        replayed[match report.platform {
            Platform::Linux => 0,
            Platform::Minix => 1,
            Platform::Sel4 => 2,
        }] += 1;
    }
    // Replay must have exercised the engine on all three platforms:
    // Linux DAC compromises plus the replay-setpoint cells everywhere.
    assert!(replayed[0] >= 5, "linux replays: {replayed:?}");
    assert!(replayed[1] >= 1, "minix replays: {replayed:?}");
    assert!(replayed[2] >= 1, "sel4 replays: {replayed:?}");
}

/// Soundness in the other direction: a cell the checker proves Stopped
/// must not compromise dynamically (spot-checked on the cells the paper
/// emphasizes — the microkernel stops what monolithic DAC admits).
#[test]
fn stopped_verdicts_hold_dynamically() {
    let scheme = UidScheme::SharedAccount;
    let config = AttackRunConfig::default();
    for report in check_matrix(scheme, &opts()) {
        if report.mc == Expectation::Compromised || report.platform == Platform::Linux {
            continue;
        }
        let outcome = run_attack(report.platform, report.attacker, report.attack, &config);
        assert!(
            !outcome.compromised(),
            "{:?}/{}/{}: checker proved {:?} but dynamic run compromised",
            report.platform,
            report.attacker,
            report.attack,
            report.mc
        );
    }
}
