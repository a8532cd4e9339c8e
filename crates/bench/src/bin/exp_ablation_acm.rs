//! A1 ablation: is it the microkernel or the ACM that stops the attacks
//! on MINIX? Re-runs the §IV-D.2 attacks with three policies:
//!
//! 1. the scenario ACM (the paper's configuration),
//! 2. a permissive ACM (every application channel open — "microkernel
//!    without the mandatory policy"),
//! 3. the scenario ACM plus the fork-quota extension.
//!
//! Expected shape: identity spoofing *still* fails without the ACM
//! (kernel-stamped endpoints cannot be forged), but direct actuator
//! commands and floods sail through a permissive matrix — enforcement,
//! not architecture alone, carries part of the defense. The quota variant
//! additionally contains the fork bomb.
//!
//! Run: `cargo run --release -p bas-bench --bin exp_ablation_acm`

use bas_acm::{AccessControlMatrix, MsgType};
use bas_attack::evidence::new_evidence;
use bas_attack::library;
use bas_attack::model::AttackId;
use bas_attack::procs::MinixAttacker;
use bas_bench::{rule, section, Harness};
use bas_core::platform::minix::{MinixOverrides, MinixStack};
use bas_core::proto::{AC_ALARM, AC_CONTROL, AC_HEATER, AC_SENSOR, AC_WEB};
use bas_core::scenario::{critical_alive, Scenario, ScenarioConfig};
use bas_core::ScenarioEngine;
use bas_minix::pm;
use bas_sim::time::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;

/// Every application pair may exchange every message type; PM rows as in
/// the scenario. This is "a microkernel with message passing but no
/// mandatory IPC policy".
fn permissive_acm() -> AccessControlMatrix {
    let ids = [AC_SENSOR, AC_CONTROL, AC_HEATER, AC_ALARM, AC_WEB];
    let mut b = AccessControlMatrix::builder();
    for s in ids {
        for r in ids {
            if s != r {
                b = b.allow_all_types(s, r);
            }
        }
    }
    // PM policy unchanged (kill still denied to web): the ablation is
    // about the *application* matrix.
    b = pm::allow_pm_ops(b, AC_WEB, [pm::PM_FORK2, pm::PM_GETPID]);
    for ac in [AC_SENSOR, AC_CONTROL, AC_HEATER, AC_ALARM] {
        b = pm::allow_pm_ops(b, ac, [pm::PM_GETPID]);
    }
    b = pm::allow_pm_ops(
        b,
        bas_core::proto::AC_SCENARIO,
        [
            pm::PM_FORK2,
            pm::PM_SRV_FORK2,
            pm::PM_KILL,
            pm::PM_EXIT,
            pm::PM_GETPID,
        ],
    );
    b.build()
}

fn run_minix_attack(
    attack: AttackId,
    acm: Option<AccessControlMatrix>,
    fork_quota: Option<u64>,
) -> (bool, bool, u64, u64) {
    let warmup = SimDuration::from_secs(600);
    let mut scenario_cfg = ScenarioConfig::quiet();
    scenario_cfg.web_fork_limit = fork_quota;
    scenario_cfg.plant.heat_schedule = vec![(warmup + SimDuration::from_secs(300), 600.0)];

    let evidence = new_evidence();
    let (lookups, builder) = library::minix_script(attack, warmup);
    let cell = Rc::new(RefCell::new(Some((lookups, builder))));
    let ev = evidence.clone();
    let overrides = MinixOverrides {
        web_factory: Some(Box::new(move || {
            let (lookups, builder) = cell.borrow_mut().take().expect("spawned once");
            Box::new(MinixAttacker::new(lookups, builder, ev.clone()))
        })),
        web_uid: 1000,
        acm: acm.map(std::sync::Arc::new),
        ..MinixOverrides::default()
    };
    let mut s = ScenarioEngine::<MinixStack>::boot(&scenario_cfg, overrides);
    s.run_for(warmup + SimDuration::from_secs(1_020));
    let plant = s.plant();
    let safe = plant.borrow().safety_report().is_safe();
    let alive = critical_alive(&s);
    let ev = evidence.borrow();
    (safe, alive, ev.successes, ev.denials)
}

fn main() {
    let h = Harness::new("ablation_acm");
    section("MINIX ACM ablation (attacker A1; safety oracle with mid-run heat burst)");
    println!(
        "{:<22} {:<22} {:>10} {:>9} {:>7} {:>9}",
        "attack", "policy", "successes", "denials", "safety", "critical"
    );
    rule();
    // Under --quick only the headline attack runs; the closing
    // assertions below execute either way.
    let attacks: &[AttackId] = if h.quick() {
        &[AttackId::SpoofActuatorCommands]
    } else {
        &[
            AttackId::SpoofSensorData,
            AttackId::SpoofActuatorCommands,
            AttackId::KillCritical,
            AttackId::ForkBomb,
        ]
    };
    for &attack in attacks {
        for (label, acm, quota) in [
            ("scenario ACM", None, None),
            ("permissive ACM", Some(permissive_acm()), None),
            ("scenario ACM + quota", None, Some(2u64)),
        ] {
            let (safe, alive, successes, denials) = run_minix_attack(attack, acm, quota);
            println!(
                "{:<22} {:<22} {:>10} {:>9} {:>7} {:>9}",
                attack.to_string(),
                label,
                successes,
                denials,
                if safe { "ok" } else { "VIOLATED" },
                if alive { "alive" } else { "KILLED" },
            );
        }
        rule();
    }

    section("reading the table");
    println!(
        "- spoof-sensor-data: under the permissive ACM the forged messages are *delivered*, but\n\
         \u{20}   the controller's endpoint check (kernel-stamped identity) still rejects them —\n\
         \u{20}   identity is the microkernel's contribution, the matrix adds channel minimization;\n\
         - spoof-actuator-cmds: the drivers accept any well-formed command, so without the ACM\n\
         \u{20}   the physical process falls — enforcement carries this defense entirely;\n\
         - kill-critical: PM policy still refuses the web interface regardless of the matrix;\n\
         - fork-bomb: only the quota extension changes the outcome."
    );

    // Sanity check of the headline claims (the binary doubles as a test).
    let (safe, _, _, _) = run_minix_attack(
        AttackId::SpoofActuatorCommands,
        Some(permissive_acm()),
        None,
    );
    assert!(!safe, "permissive ACM must let the actuator spoof through");
    let (safe, _, _, _) = run_minix_attack(AttackId::SpoofActuatorCommands, None, None);
    assert!(safe, "scenario ACM must stop the actuator spoof");

    let acm_check = bas_core::policy::scenario_acm();
    assert!(!acm_check
        .check(AC_WEB, AC_HEATER, MsgType::new(bas_core::proto::MT_FAN_CMD))
        .is_allowed());
    println!("\nassertions passed: enforcement ablation behaves as described.");
}
