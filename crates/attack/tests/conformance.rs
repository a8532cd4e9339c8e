//! Conformance suite for the `PlatformKernel`/`ScenarioEngine`
//! refactor: the generic engine must reproduce, cell for cell, the
//! attack matrix and benign verdicts the three hand-rolled platform
//! adapters produced before the collapse.
//!
//! The golden values below were captured from `exp_attack_matrix` at the
//! pre-refactor revision (PR 1). If a legitimate behavior change ever
//! moves a cell, re-capture deliberately — this table is the contract
//! that refactors of the platform layer are behavior-preserving.

use bas_attack::harness::{run_attack, AttackRunConfig};
use bas_attack::model::{AttackId, AttackerModel};
use bas_core::scenario::Platform;
use bas_sim::time::SimDuration;

/// FNV-1a over `text`'s bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One golden cell: (mechanism succeeded, critical alive, safety violated).
type Cell = (bool, bool, bool);

/// Golden outcomes in `AttackId::ALL` order for one platform+attacker
/// column. On every platform the A1 and A2 columns happen to coincide
/// under the shared-account baseline (for seL4 by construction — the
/// kernel has no notion of root).
fn golden_column(platform: Platform) -> [Cell; 9] {
    match platform {
        Platform::Linux => [
            (true, true, true),   // spoof-sensor-data
            (true, true, true),   // spoof-actuator-cmds
            (true, false, true),  // kill-critical
            (true, true, false),  // fork-bomb
            (true, true, false),  // brute-force-handles
            (true, true, false),  // flood-legit-channel
            (true, true, true),   // direct-device-write
            (false, true, false), // setpoint-tamper
            (true, true, true),   // replay-setpoint
        ],
        Platform::Minix => [
            (false, true, false), // spoof-sensor-data
            (false, true, false), // spoof-actuator-cmds
            (false, true, false), // kill-critical
            (true, true, false),  // fork-bomb
            (false, true, false), // brute-force-handles
            (true, true, false),  // flood-legit-channel
            (false, true, false), // direct-device-write
            (false, true, false), // setpoint-tamper
            (true, true, true),   // replay-setpoint
        ],
        Platform::Sel4 => [
            (false, true, false), // spoof-sensor-data
            (false, true, false), // spoof-actuator-cmds
            (false, true, false), // kill-critical
            (false, true, false), // fork-bomb
            (false, true, false), // brute-force-handles
            (false, true, false), // flood-legit-channel
            (false, true, false), // direct-device-write
            (false, true, false), // setpoint-tamper
            (true, true, true),   // replay-setpoint
        ],
    }
}

/// Golden max-deviation (°C, 2 decimal places) for the cells whose
/// physical trajectory the matrix prints — spot checks that the plant
/// dynamics, not just the verdicts, survived the refactor.
fn golden_max_deviation(platform: Platform, attack: AttackId) -> Option<f64> {
    match (platform, attack) {
        (Platform::Linux, AttackId::SpoofSensorData) => Some(23.98),
        (Platform::Linux, AttackId::SpoofActuatorCommands) => Some(24.97),
        (Platform::Linux, AttackId::DirectDeviceWrite) => Some(24.97),
        (_, AttackId::ReplaySetpoint) => Some(4.51),
        _ => None,
    }
}

#[test]
fn engine_matches_prerefactor_attack_matrix() {
    let config = AttackRunConfig::default();
    let mut outcomes = String::new();
    for platform in [Platform::Linux, Platform::Minix, Platform::Sel4] {
        let golden = golden_column(platform);
        for (i, attack) in AttackId::ALL.into_iter().enumerate() {
            for attacker in [AttackerModel::ArbitraryCode, AttackerModel::Root] {
                let o = run_attack(platform, attacker, attack, &config);
                outcomes.push_str(&format!("{o:?}\n"));
                let measured = (
                    o.mechanism.succeeded(),
                    o.critical_alive,
                    o.physical.safety_violated,
                );
                assert_eq!(
                    measured, golden[i],
                    "{platform} {attacker} {attack}: (mechanism, critical, violated) drifted \
                     from the pre-refactor adapters"
                );
                if let Some(dev) = golden_max_deviation(platform, attack) {
                    assert!(
                        (o.physical.max_deviation_c - dev).abs() < 0.005,
                        "{platform} {attacker} {attack}: max deviation {:.2} != golden {dev:.2}",
                        o.physical.max_deviation_c
                    );
                }
            }
        }
    }
    // The whole outcome of every cell: evidence counts and notes, kernel
    // metrics and the plant snapshot.
    assert_eq!(
        format!(
            "cells {} fnv1a {:016x}",
            outcomes.lines().count(),
            fnv1a(&outcomes)
        ),
        "cells 54 fnv1a 34facc357543c8ca",
        "{outcomes}"
    );
}

/// The hardened-Linux column (per-process uids, 0620 queues): A1 is
/// contained except for resource exhaustion and replay; A2 regains every
/// physical-impact attack — golden from the same pre-refactor capture.
#[test]
fn engine_matches_prerefactor_hardened_linux() {
    use bas_core::platform::linux::UidScheme;
    let config = AttackRunConfig {
        linux_uid_scheme: UidScheme::PerProcessHardened,
        ..AttackRunConfig::default()
    };
    let golden_a1: [Cell; 9] = [
        (false, true, false), // spoof-sensor-data
        (false, true, false), // spoof-actuator-cmds
        (false, true, false), // kill-critical
        (true, true, false),  // fork-bomb
        (false, true, false), // brute-force-handles
        (true, true, false),  // flood-legit-channel
        (false, true, false), // direct-device-write
        (false, true, false), // setpoint-tamper
        (true, true, true),   // replay-setpoint
    ];
    let golden_a2: [Cell; 9] = [
        (true, true, true),   // spoof-sensor-data
        (true, true, true),   // spoof-actuator-cmds
        (true, false, true),  // kill-critical
        (true, true, false),  // fork-bomb
        (true, true, false),  // brute-force-handles
        (true, true, false),  // flood-legit-channel
        (true, true, true),   // direct-device-write
        (false, true, false), // setpoint-tamper
        (true, true, true),   // replay-setpoint
    ];
    let mut outcomes = String::new();
    for (attacker, golden) in [
        (AttackerModel::ArbitraryCode, golden_a1),
        (AttackerModel::Root, golden_a2),
    ] {
        for (i, attack) in AttackId::ALL.into_iter().enumerate() {
            let o = run_attack(Platform::Linux, attacker, attack, &config);
            outcomes.push_str(&format!("{o:?}\n"));
            let measured = (
                o.mechanism.succeeded(),
                o.critical_alive,
                o.physical.safety_violated,
            );
            assert_eq!(
                measured, golden[i],
                "hardened linux {attacker} {attack} drifted from the pre-refactor adapters"
            );
        }
    }
    assert_eq!(
        format!(
            "cells {} fnv1a {:016x}",
            outcomes.lines().count(),
            fnv1a(&outcomes)
        ),
        "cells 18 fnv1a 45a802f4029e2295",
        "{outcomes}"
    );
}

/// Benign E1 verdicts through the generic boot path: every platform runs
/// the default scenario safely with all critical processes alive, and
/// the three platforms exchange IPC (the engine actually drives the
/// kernels, not just the plant).
#[test]
fn benign_scenario_identical_verdicts_across_platforms() {
    use bas_core::scenario::{critical_alive, plant_snapshot, ScenarioConfig};
    let config = ScenarioConfig::default();
    for platform in [Platform::Linux, Platform::Minix, Platform::Sel4] {
        let mut s = bas_core::boot_platform(platform, &config);
        s.run_for(SimDuration::from_mins(45));
        let snapshot = plant_snapshot(s.as_ref());
        assert!(!snapshot.safety_violated, "{platform}: benign run violated");
        assert!(critical_alive(s.as_ref()), "{platform}: critical loss");
        assert!(snapshot.in_band_fraction > 0.9, "{platform}: poor control");
        assert!(s.metrics().ipc_messages > 0, "{platform}: no IPC flowed");
    }
}
