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
use bas_attack::model::AttackId;
use bas_attack::procs::{AttackScript, AttackStep, Plan};
use bas_attack::{web_factory, Sel4Binding};
use bas_bench::{rule, section, Harness};
use bas_capdl::verify::verify;
use bas_core::platform::sel4::{ExtraCap, Sel4Overrides, Sel4Stack};
use bas_core::policy::actuator_rpc;
use bas_core::proto::names;
use bas_core::scenario::{Scenario, ScenarioConfig};
use bas_core::ScenarioEngine;
use bas_sel4::cap::CPtr;
use bas_sel4::message::IpcMessage;
use bas_sel4::rights::CapRights;
use bas_sim::time::SimDuration;

const WARMUP: SimDuration = SimDuration::from_secs(600);

fn scenario_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::quiet();
    cfg.plant.heat_schedule = vec![(WARMUP + SimDuration::from_secs(300), 600.0)];
    cfg
}

fn main() {
    // No flag changes these runs; the harness still rejects bad ones.
    Harness::new("ablation_caps");
    section("configuration 1: the compiled capability distribution (paper §IV-D.3)");
    {
        let evidence = new_evidence();
        let overrides = Sel4Overrides {
            web_factory: Some(web_factory::<Sel4Binding>(
                AttackId::SpoofActuatorCommands,
                WARMUP,
                &evidence,
            )),
            extra_caps: Vec::new(),
            ..Sel4Overrides::default()
        };
        let mut s = ScenarioEngine::<Sel4Stack>::boot(&scenario_cfg(), overrides);
        s.run_for(WARMUP + SimDuration::from_secs(1_020));
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
        // The attacker knows the layout: the stray caps land in the first
        // free slots, 1 (heater) and 2 (alarm), after the legitimate RPC
        // cap in slot 0.
        let mut loop_body = Vec::new();
        for slot in [1u32, 2] {
            loop_body.push(AttackStep::counted(bas_sel4::syscall::Syscall::Call {
                ep: CPtr::new(slot),
                msg: IpcMessage::with_data(actuator_rpc::SET, vec![0]),
            }));
        }
        loop_body.push(AttackStep::pacing(bas_sel4::syscall::Syscall::Sleep {
            duration: SimDuration::from_millis(200),
        }));
        let script = AttackScript {
            setup: vec![],
            loop_body,
            max_loops: None,
        };
        let overrides = Sel4Overrides {
            web_factory: Some(web_factory::<Sel4Binding>(
                Plan::Script(script),
                WARMUP,
                &evidence,
            )),
            extra_caps: vec![
                ExtraCap {
                    holder: names::WEB,
                    endpoint_of: (names::HEATER, "cmd"),
                    rights: CapRights::WRITE_GRANT,
                    badge: 99,
                },
                ExtraCap {
                    holder: names::WEB,
                    endpoint_of: (names::ALARM, "cmd"),
                    rights: CapRights::WRITE_GRANT,
                    badge: 99,
                },
            ],
            ..Sel4Overrides::default()
        };
        let mut s = ScenarioEngine::<Sel4Stack>::boot(&scenario_cfg(), overrides);

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
        s.run_for(WARMUP + SimDuration::from_secs(1_020));
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
