//! Direct tests of the attacker state machine and the platform bindings:
//! reconnaissance ordering, delay honoring, loop budgets, evidence
//! bookkeeping and the lowering rules — independent of any full scenario.

use bas_attack::evidence::new_evidence;
use bas_attack::procs::{lower, AttackScript, Attacker, Binding, Plan};
use bas_attack::{AttackId, AttackOp, AttackProgram, LinuxBinding, MinixBinding, Sel4Binding};
use bas_minix::syscall::{Reply as MReply, Syscall as MSyscall};
use bas_sel4::syscall::{Reply as SReply, Syscall as SSyscall};
use bas_sim::process::{Action, Pid, Process};
use bas_sim::time::SimDuration;

fn sel4_binding() -> Sel4Binding {
    let (_, glue) = bas_camkes::codegen::compile(&bas_core::policy::scenario_assembly())
        .expect("scenario assembly is valid");
    Sel4Binding::new(&glue)
}

/// A program outside the catalogue.
fn program<S>(ops: &'static [AttackOp], pace: Option<u64>, bound: Option<u64>) -> Plan<S> {
    Plan::Program(AttackProgram {
        ops,
        pace: pace.map(SimDuration::from_secs),
        bound,
    })
}

#[test]
fn minix_attacker_resolves_then_delays_then_acts() {
    let evidence = new_evidence();
    let delay = SimDuration::from_secs(10);
    let p = program(&[AttackOp::InjectReading], None, Some(2));
    let mut attacker = Attacker::new(MinixBinding, p, delay, evidence.clone());

    // 1. Reconnaissance lookup first.
    let a = attacker.resume(None);
    assert!(
        matches!(a, Action::Syscall(MSyscall::Lookup { ref name }) if name == "temp_control"),
        "{a:?}"
    );
    // 2. Then the warmup sleep.
    let target = bas_minix::endpoint::Endpoint::new(2, 0);
    let a = attacker.resume(Some(MReply::Resolved(target)));
    assert!(
        matches!(a, Action::Syscall(MSyscall::Sleep { duration }) if duration == delay),
        "{a:?}"
    );
    // 3. Then exactly two counted loop iterations...
    let a = attacker.resume(Some(MReply::Ok));
    assert!(matches!(a, Action::Syscall(MSyscall::Send { dest, .. }) if dest == target));
    let a = attacker.resume(Some(MReply::Ok)); // reply to send #1
    assert!(matches!(a, Action::Syscall(MSyscall::Send { .. })));
    // 4. ...then idle sleeps forever.
    let a = attacker.resume(Some(MReply::Err(bas_minix::error::MinixError::CallDenied)));
    assert!(matches!(a, Action::Syscall(MSyscall::Sleep { .. })));
    let a = attacker.resume(Some(MReply::Ok));
    assert!(matches!(a, Action::Syscall(MSyscall::Sleep { .. })));

    // Evidence: one success, one denial, from the two counted sends.
    let ev = evidence.borrow();
    assert_eq!(ev.attempts, 2);
    assert_eq!(ev.successes, 1);
    assert_eq!(ev.denials, 1);
}

#[test]
fn minix_attacker_handles_failed_reconnaissance() {
    let evidence = new_evidence();
    let p = program(&[AttackOp::InjectReading], Some(1), None);
    let mut attacker = Attacker::new(MinixBinding, p, SimDuration::ZERO, evidence.clone());
    let _ = attacker.resume(None); // lookup
    let a = attacker.resume(Some(MReply::Err(
        bas_minix::error::MinixError::NoSuchProcess,
    )));
    assert!(
        matches!(a, Action::Syscall(MSyscall::Sleep { .. })),
        "warmup"
    );
    // The unresolved target leaves an iteration of pacing alone, which
    // ends the script: the attacker idles without panicking, with zero
    // evidence.
    let idle = Action::Syscall(MSyscall::Sleep {
        duration: SimDuration::from_secs(3_600),
    });
    for _ in 0..3 {
        assert_eq!(attacker.resume(Some(MReply::Ok)), idle);
    }
    assert_eq!(evidence.borrow().attempts, 0);
}

#[test]
fn sel4_attacker_counts_identified_handles() {
    let evidence = new_evidence();
    let p = AttackId::BruteForceHandles.into();
    let mut attacker = Attacker::new(sel4_binding(), p, SimDuration::ZERO, evidence.clone());
    let _ = attacker.resume(None); // delay sleep
    let a = attacker.resume(Some(SReply::Ok));
    assert!(matches!(a, Action::Syscall(SSyscall::Identify { slot }) if slot.slot() == 0));
    let _ = attacker.resume(Some(SReply::Identified(Some(
        bas_sel4::objects::ObjKind::Endpoint,
    )))); // -> identify 1
    let _ = attacker.resume(Some(SReply::Err(
        bas_sel4::error::Sel4Error::InvalidCapability,
    )));

    let ev = evidence.borrow();
    assert_eq!(ev.attempts, 2);
    assert_eq!(ev.handles_found, 1, "one occupied slot discovered");
    assert_eq!(ev.denials, 1, "one empty slot denied");
    assert!(ev.notes.iter().any(|n| n.contains("endpoint")));
}

#[test]
fn pacing_steps_are_never_counted() {
    let evidence = new_evidence();
    let p = program(&[AttackOp::Tamper], Some(1), Some(3));
    let mut attacker = Attacker::new(sel4_binding(), p, SimDuration::ZERO, evidence.clone());
    let mut reply = None;
    for _ in 0..12 {
        let _ = attacker.resume(reply.take());
        reply = Some(SReply::Ok);
    }
    // 3 loops × 1 counted call; the sleeps' Ok replies don't count.
    assert_eq!(evidence.borrow().attempts, 3);
    assert_eq!(evidence.borrow().successes, 3);
}

/// Every op of every catalogue program lowers, on `binding`'s platform,
/// to at least one counted step; the model checker's own ops are
/// reported unbound.
fn check_coverage<B: Binding>(mut binding: impl FnMut() -> B, handle: B::Handle) {
    for attack in AttackId::ALL {
        for &op in attack.program().ops {
            let l = binding()
                .lower(op, Some(handle))
                .unwrap_or_else(|| panic!("{attack}: {op} unbound"));
            assert!(
                l.setup.iter().chain(&l.loop_body).any(|s| s.counted),
                "{attack}: {op} lowers to no counted step"
            );
        }
    }
    const MC_ONLY: [AttackOp; 4] = [
        AttackOp::Masquerade,
        AttackOp::UseDerived,
        AttackOp::Revoke,
        AttackOp::Regrant,
    ];
    for op in MC_ONLY {
        assert!(binding().lower(op, Some(handle)).is_none(), "{op} bound");
    }
    let program = AttackProgram {
        ops: &MC_ONLY,
        pace: None,
        bound: None,
    };
    assert_eq!(
        lower(&mut binding(), program, |_| Some(handle)).err(),
        Some(AttackOp::Masquerade)
    );
}

#[test]
fn every_catalogue_op_binds_on_every_platform() {
    check_coverage(|| MinixBinding, bas_minix::endpoint::Endpoint::new(2, 0));
    check_coverage(sel4_binding, ());
    check_coverage(LinuxBinding::default, Pid::new(3));
}

fn script<B: Binding>(mut binding: B, attack: AttackId) -> AttackScript<B::Syscall> {
    lower(&mut binding, attack.program(), |_| None).expect("catalogue ops bind")
}

#[test]
fn sel4_sweeps_run_once_per_iteration_and_give_up() {
    // Fan and alarm forgeries lower to the same blind 8-slot sweep.
    let s = script(sel4_binding(), AttackId::SpoofActuatorCommands);
    assert!(s.setup.is_empty());
    assert_eq!(s.loop_body.len(), 9, "one sweep plus the pacing sleep");
    assert_eq!(s.max_loops, Some(64));
    // Both kills lower to one 64-slot suspend sweep, issued once.
    let s = script(sel4_binding(), AttackId::KillCritical);
    assert_eq!(s.setup.len(), 64);
    assert!(s
        .setup
        .iter()
        .all(|st| matches!(st.syscall, SSyscall::TcbSuspend { .. })));
    assert!(s.loop_body.is_empty());
}

#[test]
fn linux_tamper_counts_only_the_ack() {
    use bas_linux::syscall::Syscall;
    let s = script(LinuxBinding::default(), AttackId::SetpointTamper);
    assert!(
        s.setup.iter().all(|st| !st.counted),
        "opens are bookkeeping"
    );
    let counted: Vec<_> = s.loop_body.iter().filter(|st| st.counted).collect();
    assert_eq!(counted.len(), 1);
    assert!(matches!(
        counted[0].syscall,
        Syscall::MqReceive {
            qd: 1,
            nonblocking: false
        }
    ));
    assert_eq!(s.max_loops, Some(60));
}

#[test]
fn legitimate_handles_follow_the_topology() {
    assert_eq!(Sel4Binding::legitimate_handles(), 1);
    assert_eq!(LinuxBinding::legitimate_handles(), 3);
    assert_eq!(MinixBinding::legitimate_handles(), 0);
}
