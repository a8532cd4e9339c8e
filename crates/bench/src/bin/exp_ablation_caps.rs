//! A2 ablation: capability over-granting on seL4. The paper's seL4
//! security argument is entirely about the capability *distribution*; if
//! the bootstrap (or a CapDL bug) hands the web interface one extra
//! capability, the corresponding attack surface opens. This experiment
//! grants the attacker a write+grant capability to the heater's command
//! endpoint and re-runs the actuator-spoofing attack — and shows that the
//! CapDL auditor would have caught the misconfiguration before boot.
//!
//! Run: `cargo run --release -p bas-bench --bin exp_ablation_caps`

use bas_attack::evidence::new_evidence;
use bas_attack::model::{AttackId, AttackerModel};
use bas_attack::{attack_overrides, AttackRunConfig, Sel4Binding};
use bas_bench::{rule, section, Harness};
use bas_capdl::verify::verify;
use bas_core::platform::sel4::Sel4Stack;
use bas_core::scenario::Scenario;
use bas_core::ScenarioEngine;

fn main() {
    // No flag changes these runs; the harness still rejects bad ones.
    Harness::new("ablation_caps");
    let run = AttackRunConfig::default();
    let duration = run.warmup + run.window + run.cooldown;
    section("configuration 1: the compiled capability distribution (paper §IV-D.3)");
    {
        let evidence = new_evidence();
        let overrides = attack_overrides::<Sel4Binding>(
            AttackerModel::ArbitraryCode,
            AttackId::SpoofActuatorCommands,
            &run,
            &evidence,
        );
        let mut s = ScenarioEngine::<Sel4Stack>::boot(&run.scenario, overrides);
        s.run_for(duration);
        let e = evidence.borrow();
        let plant = s.plant();
        let safe = plant.borrow().safety_report().is_safe();
        println!(
            "attacker ops: {} attempted, {} accepted, {} denied | safety: {}",
            e.attempts,
            e.successes,
            e.denials,
            if safe { "ok" } else { "VIOLATED" }
        );
        assert!(safe, "with the correct distribution the attack must fail");
        assert_eq!(e.successes, 0);
    }

    section("configuration 2: web interface over-granted heater+alarm endpoint capabilities");
    {
        let evidence = new_evidence();
        let mut overrides = attack_overrides::<Sel4Binding>(
            AttackerModel::ArbitraryCode,
            Sel4Binding::stray_cap_plan(),
            &run,
            &evidence,
        );
        overrides.extra_caps = Sel4Binding::stray_caps();
        let mut s = ScenarioEngine::<Sel4Stack>::boot(&run.scenario, overrides);

        // The auditor catches the misconfiguration immediately:
        let issues = verify(&s.stack.spec, &s.stack.kernel, &s.stack.sys);
        rule();
        println!("capdl audit before running: {} issue(s)", issues.len());
        for i in &issues {
            println!("  CAUGHT: {i}");
        }
        assert!(
            !issues.is_empty(),
            "the stray grant must be visible to the auditor"
        );

        // ...but if nobody audits, the physical process falls:
        s.run_for(duration);
        let e = evidence.borrow();
        let plant = s.plant();
        let safe = plant.borrow().safety_report().is_safe();
        println!(
            "attacker ops: {} attempted, {} accepted, {} denied | safety: {}",
            e.attempts,
            e.successes,
            e.denials,
            if safe { "ok" } else { "VIOLATED" }
        );
        assert!(e.successes > 0, "the stray capability is exercisable");
        assert!(
            !safe,
            "fan and alarm forced off through the stray capabilities"
        );
    }

    section("conclusion");
    println!(
        "seL4's protection is exactly the capability distribution: one stray write capability\n\
         re-opens the §IV-D.1 actuator attack, and the CapDL machine-verification step (E10)\n\
         is what guards that invariant — matching the paper's reliance on a correct CapDL file."
    );
}
