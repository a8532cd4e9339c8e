//! Capability churn and the CapEvent stream on the Linux model: chmod
//! edits to queue modes, armed churn firing between the DAC open check
//! and the descriptor handout, and the stale-descriptor TOCTOU that
//! open-time-only enforcement produces.

use bas_linux::cred::{Mode, Uid};
use bas_linux::error::LinuxError;
use bas_linux::kernel::{LinuxConfig, LinuxKernel};
use bas_linux::syscall::{MqAccess, Reply, Syscall};
use bas_sim::caps::{CapChurnOp, CapOp, ChurnKind};
use bas_sim::kernel::Kernel;
use bas_sim::script::{replies, Script};

type S = Script<Syscall, Reply>;

fn open(name: &str, access: MqAccess) -> Syscall {
    Syscall::MqOpen {
        name: name.into(),
        access,
        create: None,
    }
}

fn send(qd: u32, data: &[u8]) -> Syscall {
    Syscall::MqSend {
        qd,
        data: data.to_vec(),
        priority: 0,
        nonblocking: false,
    }
}

fn recv(qd: u32) -> Syscall {
    Syscall::MqReceive {
        qd,
        nonblocking: false,
    }
}

fn revoke(subject: &str, queue: &str) -> CapChurnOp {
    CapChurnOp::new(ChurnKind::Revoke, subject, queue)
}

#[test]
fn applied_revoke_denies_subsequent_open() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.create_queue("/q", Uid::new(1000), Mode::new(0o622), 8);
    k.enable_cap_trace();
    let (tx, tx_log) = S::new(vec![open("/q", MqAccess::WRITE)]).logged();
    k.spawn("tx", 2000, Box::new(tx)).unwrap();

    // Revoke before the open ever runs: a clean denial, no race.
    assert!(k.apply_cap_churn(&revoke("tx", "/q")));
    k.run_to_quiescence();
    assert_eq!(replies(&tx_log), vec![Reply::Err(LinuxError::AccessDenied)]);

    let trace = k.cap_trace();
    let ops: Vec<(CapOp, bool)> = trace.events.iter().map(|e| (e.op, e.ok)).collect();
    assert_eq!(ops, vec![(CapOp::Revoke, true), (CapOp::Check, false)]);
    assert_eq!(trace.events[0].cap, "mq:/q:tx");
}

#[test]
fn armed_revoke_leaves_a_permanently_stale_descriptor() {
    // The Linux-specific shape of the TOCTOU: the DAC check happens once,
    // at open; a chmod landing right after it leaves the descriptor
    // usable forever. Every later send is a stale use.
    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.create_queue("/q", Uid::new(1000), Mode::new(0o622), 8);
    let (rx, rx_log) = S::new(vec![open("/q", MqAccess::READ), recv(0)]).logged();
    k.spawn("rx", 1000, Box::new(rx)).unwrap();
    k.run_to_quiescence(); // receiver parks in mq_receive
    k.enable_cap_trace();

    let (tx, tx_log) = S::new(vec![
        open("/q", MqAccess::WRITE),
        send(0, &[7]),
        send(0, &[8]),
    ])
    .logged();
    k.spawn("tx", 2000, Box::new(tx)).unwrap();
    k.arm_cap_churn(&revoke("tx", "/q"), 0);
    k.run_to_quiescence();

    // Both sends succeed on the revoked-but-open descriptor.
    assert_eq!(replies(&tx_log), vec![Reply::Qd(0), Reply::Ok, Reply::Ok]);
    assert_eq!(
        replies(&rx_log)[1],
        Reply::Data {
            data: vec![7],
            priority: 0
        }
    );

    let trace = k.cap_trace();
    let ops: Vec<(CapOp, bool)> = trace.events.iter().map(|e| (e.op, e.ok)).collect();
    assert_eq!(
        ops,
        vec![
            (CapOp::Check, true),
            (CapOp::Revoke, true),
            (CapOp::Use, false),
            (CapOp::Recv, true),
            (CapOp::Use, false),
        ]
    );
    // The delivered message's edge connects the stale use to the
    // receiver's observation.
    assert_eq!(
        trace.edges,
        vec![(trace.events[2].seq, trace.events[3].seq)]
    );
    assert_eq!(trace.events[2].subject, "tx");
    assert_eq!(trace.events[3].subject, "rx");
    // The revoke only touched tx's class: the owner still reads.
    assert_eq!(trace.events[1].cap, "mq:/q:tx");
}

#[test]
fn armed_churn_counts_down_matching_checks_only() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.create_queue("/q", Uid::new(1000), Mode::new(0o666), 8);
    k.enable_cap_trace();
    // after_checks = 1: the first successful open passes untouched, the
    // second open's caller gets the revoke right after its check.
    k.arm_cap_churn(&revoke("tx", "/q"), 1);
    let (tx, tx_log) = S::new(vec![
        open("/q", MqAccess::WRITE),
        open("/q", MqAccess::WRITE),
        send(0, &[1]),
    ])
    .logged();
    k.spawn("tx", 2000, Box::new(tx)).unwrap();
    k.run_to_quiescence();

    // Both opens succeed (the revoke fires after the second check); the
    // send through the first descriptor is already a stale use.
    assert_eq!(
        replies(&tx_log),
        vec![Reply::Qd(0), Reply::Qd(1), Reply::Ok]
    );
    let trace = k.cap_trace();
    let checks: Vec<bool> = trace
        .events
        .iter()
        .filter(|e| e.op == CapOp::Check)
        .map(|e| e.ok)
        .collect();
    assert_eq!(checks, vec![true, true]);
    let uses: Vec<bool> = trace
        .events
        .iter()
        .filter(|e| e.op == CapOp::Use)
        .map(|e| e.ok)
        .collect();
    assert_eq!(uses, vec![false]);
}

#[test]
fn attenuate_strips_write_but_keeps_read() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.create_queue("/q", Uid::new(1000), Mode::new(0o666), 8);
    let (tx, tx_log) = S::new(vec![
        open("/q", MqAccess::WRITE),
        open("/q", MqAccess::READ),
    ])
    .logged();
    k.spawn("tx", 2000, Box::new(tx)).unwrap();

    let op = CapChurnOp::new(ChurnKind::Attenuate, "tx", "/q");
    assert!(k.apply_cap_churn(&op));
    // Second application is a no-op (write bits already gone).
    assert!(!k.apply_cap_churn(&op));
    k.run_to_quiescence();
    assert_eq!(
        replies(&tx_log),
        vec![Reply::Err(LinuxError::AccessDenied), Reply::Qd(0)]
    );
}

#[test]
fn grant_widens_the_subjects_class() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.create_queue("/q", Uid::new(1000), Mode::new(0o600), 8);
    let (tx, tx_log) = S::new(vec![open("/q", MqAccess::WRITE)]).logged();
    k.spawn("tx", 2000, Box::new(tx)).unwrap();

    assert!(k.apply_cap_churn(&CapChurnOp::new(ChurnKind::Grant, "tx", "/q")));
    k.run_to_quiescence();
    assert_eq!(replies(&tx_log), vec![Reply::Qd(0)]);

    // Unknown subjects and queues are rejected, not invented.
    assert!(!k.apply_cap_churn(&revoke("nobody", "/q")));
    assert!(!k.apply_cap_churn(&revoke("tx", "/nope")));
}

#[test]
fn parked_sends_keep_their_capability_provenance() {
    // A send parked on a full queue records its Use at syscall time; the
    // seq travels through the PCB and the queue so delivery still gets
    // its happens-before edge.
    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.create_queue("/q", Uid::new(1000), Mode::new(0o666), 1);
    k.enable_cap_trace();
    let (tx, tx_log) = S::new(vec![
        open("/q", MqAccess::WRITE),
        send(0, &[1]),
        send(0, &[2]),
    ])
    .logged();
    k.spawn("tx", 1000, Box::new(tx)).unwrap();
    k.run_to_quiescence(); // second send parks on the full queue

    let (rx, _rx_log) = S::new(vec![open("/q", MqAccess::READ), recv(0), recv(0)]).logged();
    k.spawn("rx", 1000, Box::new(rx)).unwrap();
    k.run_to_quiescence();
    assert_eq!(replies(&tx_log), vec![Reply::Qd(0), Reply::Ok, Reply::Ok]);

    let trace = k.cap_trace();
    let uses: Vec<u64> = trace
        .events
        .iter()
        .filter(|e| e.op == CapOp::Use)
        .map(|e| e.seq)
        .collect();
    let recvs: Vec<u64> = trace
        .events
        .iter()
        .filter(|e| e.op == CapOp::Recv)
        .map(|e| e.seq)
        .collect();
    assert_eq!(uses.len(), 2);
    assert_eq!(trace.edges, vec![(uses[0], recvs[0]), (uses[1], recvs[1])]);
}
