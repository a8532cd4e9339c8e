//! The adjudication table against live Policy IR and kernel gate calls.
//!
//! The model checker answers every send, device access, kill and fork
//! from a table filled once per (platform, attacker, scheme) and shared
//! by that triple's cells. These tests hold the table to the
//! live judgments it memoizes — every entry, in every matrix cell under
//! both uid schemes, in every seeded derivation scenario and in a churn
//! cell — and show that a deliberately wrong IR still surfaces as a
//! reachable gate mismatch through `check_cell`.

use bas_analysis::flow::derivation_scenarios;
use bas_analysis::mc::verdict::props;
use bas_analysis::mc::{
    check_cell, matrix_cells, ExploreOpts, KernelGate, Proc, ScenarioModel, Verdict, DEVICES,
    MTYPES,
};
use bas_analysis::ChannelKind;
use bas_attack::{AttackId, AttackerModel};
use bas_core::platform::linux::UidScheme;
use bas_core::proto::MT_SENSOR_READING;
use bas_core::scenario::Platform;

const PLATFORMS: [Platform; 3] = [Platform::Linux, Platform::Minix, Platform::Sel4];

fn live(ir_ok: bool, kernel_ok: bool) -> Verdict {
    Verdict {
        kernel: kernel_ok,
        mismatch: ir_ok != kernel_ok,
    }
}

/// Asserts every table entry of `m` equals the live IR / gate call.
fn assert_table_is_live(m: &ScenarioModel, label: &str) {
    let ir = m.ir();
    let gate = KernelGate::for_cell(m.platform, m.attacker, m.scheme);
    let adj = m.adjudication();
    let web = m.name(Proc::Web);
    for s in Proc::ALL {
        let subject = m.name(s);
        for r in Proc::ALL {
            let receiver = m.name(r);
            for mtype in MTYPES {
                assert_eq!(
                    adj.send(s, r, mtype),
                    live(
                        ir.delivery_channel(subject, receiver, mtype).is_some(),
                        gate.allows_send(subject, receiver, mtype)
                    ),
                    "{label}: send {s} -> {r} type {mtype}"
                );
            }
        }
        for dev in DEVICES {
            for write in [false, true] {
                assert_eq!(
                    adj.device(s, dev, write),
                    live(
                        ir.device_channel(subject, dev, write).is_some(),
                        gate.allows_device(subject, dev, write)
                    ),
                    "{label}: device {s} {dev:?} write={write}"
                );
            }
        }
        assert_eq!(
            adj.kill(s),
            live(ir.can_kill(web, subject), gate.allows_kill(web, subject)),
            "{label}: kill {s}"
        );
        for mtype in MTYPES {
            for in_range in [false, true] {
                let accepts = ir.app_accepts(web, subject, mtype, in_range);
                assert_eq!(
                    adj.app_accepts(s, mtype, in_range),
                    accepts,
                    "{label}: app_accepts web -> {s} type {mtype} in_range={in_range}"
                );
                // The delivery rule, restated: an RPC server's in-band
                // acceptance decides, any other channel is kernel admission.
                let mech = match ir.delivery_channel(web, subject, mtype) {
                    Some(ch) if ch.kind == ChannelKind::RpcCall => accepts,
                    Some(_) => true,
                    None => false,
                };
                assert_eq!(
                    ir.mechanism_delivers(web, subject, mtype, in_range),
                    mech,
                    "{label}: ir mechanism_delivers web -> {s} type {mtype} in_range={in_range}"
                );
                assert_eq!(
                    adj.mech_delivers(s, mtype, in_range),
                    mech,
                    "{label}: mech_delivers web -> {s} type {mtype} in_range={in_range}"
                );
            }
        }
    }
    assert_eq!(
        adj.fork(),
        live(ir.can_fork(web), gate.allows_fork(web)),
        "{label}: fork"
    );
    assert_eq!(
        adj.fork_quota(),
        ir.fork_quota.get(web).copied(),
        "{label}: fork quota"
    );
    let reach = ir.enumerable_handles.get(web).copied().unwrap_or(0);
    let legit = ir.legitimate_handles.get(web).copied().unwrap_or(0);
    assert_eq!(adj.probe_reaches(), reach > legit, "{label}: probe");
}

#[test]
fn matrix_tables_match_live_adjudication_under_both_schemes() {
    for scheme in [UidScheme::SharedAccount, UidScheme::PerProcessHardened] {
        for (platform, attacker, attack) in matrix_cells(&PLATFORMS) {
            let m = ScenarioModel::new(platform, attacker, attack, scheme);
            assert_table_is_live(&m, &format!("{platform:?}/{attacker}/{attack}/{scheme:?}"));
        }
    }
}

#[test]
fn derivation_scenario_tables_match_live_adjudication() {
    let scenarios = derivation_scenarios();
    assert_eq!(scenarios.len(), 21);
    for s in scenarios {
        let m = ScenarioModel::with_ir(
            s.platform,
            AttackerModel::ArbitraryCode,
            AttackId::BruteForceHandles,
            UidScheme::PerProcessHardened,
            s.model,
        );
        assert_table_is_live(&m, &s.name);
    }
}

#[test]
fn churn_cell_table_matches_live_adjudication() {
    let m = ScenarioModel::new(
        Platform::Minix,
        AttackerModel::ArbitraryCode,
        AttackId::KillCritical,
        UidScheme::SharedAccount,
    )
    .with_churn();
    assert_table_is_live(&m, "minix churn");
}

/// Mutation: an IR that lost the sensor → controller channel disagrees
/// with every kernel, which still admits the reading. The memoized
/// table must carry that disagreement, and the checker must reach the
/// gate mismatch on the sensor's first step.
#[test]
fn an_ir_missing_the_sensor_channel_reaches_gate_mismatch() {
    for platform in PLATFORMS {
        let (attacker, attack, scheme) = (
            AttackerModel::ArbitraryCode,
            AttackId::SpoofSensorData,
            UidScheme::PerProcessHardened,
        );
        let mut ir = ScenarioModel::new(platform, attacker, attack, scheme)
            .ir()
            .clone();
        let (sensor, ctrl) = (ir.roles.sensor.clone(), ir.roles.controller.clone());
        let dropped = ir
            .delivery_channel(&sensor, &ctrl, MT_SENSOR_READING)
            .expect("the lowered IR carries the sensor channel")
            .clone();
        ir.channels.retain(|c| *c != dropped);
        assert!(ir
            .delivery_channel(&sensor, &ctrl, MT_SENSOR_READING)
            .is_none());

        let m = ScenarioModel::with_ir(platform, attacker, attack, scheme, ir);
        assert_table_is_live(&m, &format!("{platform:?} mutated"));
        let v = m
            .adjudication()
            .send(Proc::Sensor, Proc::Ctrl, MT_SENSOR_READING);
        assert!(v.kernel && v.mismatch, "{platform:?}: {v:?}");

        let r = check_cell(
            &m,
            &ExploreOpts {
                use_por: true,
                state_budget: 2_000_000,
            },
        );
        assert!(!r.stats.truncated);
        assert_ne!(
            r.reached & props::GATE_MISMATCH,
            0,
            "{platform:?}: the mutated IR must surface as a gate mismatch"
        );
        assert!(r.invariant_violated());
    }
}
