//! Parent-pointer trace reconstruction vs the `replay_trace` path.
//!
//! The explorer stores one `(parent, action)` arena node per state and
//! rebuilds witness traces on demand; these tests pin that
//! reconstruction to the independent [`replay_trace`] semantics: every
//! witness the arena produces must replay feasibly from the initial
//! state, reach the witnessed fact exactly at its final state (a BFS
//! first hit cannot pass through an earlier hit — its prefix would be a
//! shorter witness), and agree with the minimized counterexample path
//! for every compromised cell across all three platforms.

use bas_analysis::mc::{check_matrix, classify, explore, ExploreOpts, ScenarioModel};
use bas_attack::{AttackId, AttackerModel};
use bas_core::platform::linux::UidScheme;
use bas_core::scenario::Platform;
use bas_core::semantics::replay_trace;
use proptest::prelude::*;

const PLATFORMS: [Platform; 3] = [Platform::Linux, Platform::Minix, Platform::Sel4];
const ATTACKERS: [AttackerModel; 2] = [AttackerModel::ArbitraryCode, AttackerModel::Root];

/// Checks every reached fact bit of one exploration against the replay
/// path. Returns the number of witnesses checked.
fn check_witnesses(model: &ScenarioModel) -> usize {
    let bounds = model.bounds;
    let ex = explore(model, &ExploreOpts::default(), |s| classify(&bounds, s));
    let mut checked = 0;
    for bit in 0..32u32 {
        let Some(witness) = ex.witness(1 << bit) else {
            continue;
        };
        let states = replay_trace(model, witness).unwrap_or_else(|| {
            panic!(
                "{:?}/{}/{} bit {bit}: arena trace infeasible",
                model.platform, model.attacker, model.attack
            )
        });
        assert_eq!(states.len(), witness.len() + 1);
        let hits: Vec<bool> = states
            .iter()
            .map(|s| classify(&bounds, s) & (1 << bit) != 0)
            .collect();
        assert!(
            hits.last().copied().unwrap_or(false),
            "{:?}/{}/{} bit {bit}: reconstructed trace misses its fact",
            model.platform,
            model.attacker,
            model.attack
        );
        assert!(
            hits.iter().rev().skip(1).all(|h| !h),
            "{:?}/{}/{} bit {bit}: a prefix already hits — not a first hit",
            model.platform,
            model.attacker,
            model.attack
        );
        checked += 1;
    }
    checked
}

/// Every counterexample of the full shared-account matrix replays
/// feasibly and witnesses its property — on all three platforms.
#[test]
fn matrix_counterexamples_replay_on_all_platforms() {
    let mut witnessed_platforms = std::collections::BTreeSet::new();
    for r in check_matrix(UidScheme::SharedAccount, &ExploreOpts::default()) {
        let Some(cx) = &r.counterexample else {
            continue;
        };
        let model = ScenarioModel::new(r.platform, r.attacker, r.attack, UidScheme::SharedAccount);
        let bounds = model.bounds;
        let states = replay_trace(&model, &cx.trace).expect("minimized trace stays feasible");
        assert!(
            states
                .iter()
                .any(|s| classify(&bounds, s) & cx.property.bit() != 0),
            "{:?}/{}/{}: minimized trace lost its witness",
            r.platform,
            r.attacker,
            r.attack
        );
        witnessed_platforms.insert(format!("{:?}", r.platform));
    }
    assert_eq!(witnessed_platforms.len(), 3, "{witnessed_platforms:?}");
}

proptest! {
    /// Random cells: every first-hit witness the arena reconstructs is
    /// exactly what the replay path accepts.
    #[test]
    fn arena_witnesses_replay(
        p in 0usize..3,
        a in 0usize..9,
        m in 0usize..2,
        hardened in any::<bool>(),
    ) {
        let scheme = if hardened {
            UidScheme::PerProcessHardened
        } else {
            UidScheme::SharedAccount
        };
        let model = ScenarioModel::new(PLATFORMS[p], ATTACKERS[m], AttackId::ALL[a], scheme);
        check_witnesses(&model);
    }
}

/// The seeded Linux DAC cells must actually exercise the reconstruction
/// path (at least delivery + compromise bits each).
#[test]
fn linux_dac_cells_reconstruct_nontrivial_witnesses() {
    for attack in [
        AttackId::KillCritical,
        AttackId::SpoofSensorData,
        AttackId::DirectDeviceWrite,
    ] {
        let model = ScenarioModel::new(
            Platform::Linux,
            AttackerModel::ArbitraryCode,
            attack,
            UidScheme::SharedAccount,
        );
        assert!(
            check_witnesses(&model) >= 2,
            "{attack}: expected delivery + violation witnesses"
        );
    }
}
