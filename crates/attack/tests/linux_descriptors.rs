//! Linux queue descriptors follow the kernel's replies, not the order of
//! the attacker's opens.
//!
//! The kernel gives a denied `mq_open` no descriptor. On hardened Linux
//! an A1 attacker may not open the heater's command queue but may open
//! its own setpoint and reply queues, so a program that forges a fan-off
//! command and then tampers with the setpoint acquires its queues only
//! in part. Each op must still reach its own queue: the fan-off command
//! fails on its missing descriptor instead of landing on the setpoint
//! queue that took descriptor 0.

use bas_attack::evidence::new_evidence;
use bas_attack::procs::Plan;
use bas_attack::{web_factory, AttackOp, AttackProgram, LinuxBinding};
use bas_core::platform::linux::{build_linux, LinuxOverrides, UidScheme};
use bas_core::scenario::{Scenario, ScenarioConfig};
use bas_sim::time::SimDuration;

#[test]
fn a_denied_open_does_not_shift_later_descriptors() {
    const ITERATIONS: u64 = 5;
    let evidence = new_evidence();
    let warmup = SimDuration::from_secs(10);
    let program = Plan::Program(AttackProgram {
        ops: &[AttackOp::ForgeFanOff, AttackOp::Tamper],
        pace: Some(SimDuration::from_secs(1)),
        bound: Some(ITERATIONS),
    });
    let mut s = build_linux(
        &ScenarioConfig::quiet(),
        LinuxOverrides {
            web_factory: Some(web_factory::<LinuxBinding>(program, warmup, &evidence)),
            web_uid: None,
            uid_scheme: UidScheme::PerProcessHardened,
        },
    );
    s.run_for(warmup + SimDuration::from_secs(30));

    let ev = evidence.borrow();
    // Counted: the heater-queue open, then per iteration the fan-off
    // send and the tamper's ack.
    assert_eq!(ev.attempts, 1 + 2 * ITERATIONS, "{ev:?}");
    assert_eq!(ev.successes, 0, "a fan-off command was accepted: {ev:?}");
    // The open is denied and every ack rejects the tampered setpoint;
    // every fan-off send fails on its missing descriptor.
    assert_eq!(ev.denials, 1 + ITERATIONS, "{ev:?}");
    assert_eq!(ev.errors, ITERATIONS, "{ev:?}");
}
