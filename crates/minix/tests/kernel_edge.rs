//! Edge-case semantics of the MINIX kernel model: deadlocks the kernel
//! must tolerate, notification filtering, send quotas, and self-sends.

use bas_acm::{AcId, AccessControlMatrix, QuotaTable, SyscallClass};
use bas_minix::error::MinixError;
use bas_minix::kernel::{MinixConfig, MinixKernel};
use bas_minix::syscall::{Reply, Syscall};
use bas_sim::kernel::Kernel;
use bas_sim::script::{replies, Script};

type S = Script<Syscall, Reply>;

const A: AcId = AcId::new(10);
const B: AcId = AcId::new(11);
const C: AcId = AcId::new(12);

fn open_acm() -> AccessControlMatrix {
    AccessControlMatrix::builder()
        .allow_all_types(A, B)
        .allow_all_types(B, A)
        .allow_all_types(C, B)
        .allow_all_types(B, C)
        .allow_all_types(A, C)
        .allow_all_types(C, A)
        .build()
}

#[test]
fn mutual_sendrec_deadlocks_without_crashing_the_kernel() {
    // Two processes sendrec each other: a classic rendezvous deadlock.
    // The kernel must quiesce (both parked in SENDING) rather than spin
    // or panic — and both processes stay alive (a real watchdog would
    // resolve this; the kernel's job is just to stay consistent).
    let mut k = MinixKernel::new(MinixConfig {
        acm: open_acm(),
        ..MinixConfig::default()
    });
    // Deterministic slot prediction: first spawn = slot 1, second = 2.
    let b_predicted = bas_minix::endpoint::Endpoint::new(2, 0);
    let a = k
        .spawn(
            "a",
            A,
            0,
            Box::new(S::new(vec![Syscall::sendrec(b_predicted, 1, [])])),
        )
        .unwrap();
    let b = k
        .spawn(
            "b",
            B,
            0,
            Box::new(S::new(vec![Syscall::sendrec(a, 1, [])])),
        )
        .unwrap();
    assert_eq!(b, b_predicted);
    let steps = k.run_to_quiescence();
    assert!(steps < 100, "deadlock must not livelock the scheduler");
    assert!(k.is_alive(a) && k.is_alive(b), "both parked, neither dead");
    assert_eq!(k.metrics().ipc_messages, 0, "no rendezvous ever completed");
}

#[test]
fn send_to_self_parks_the_sender() {
    let mut k = MinixKernel::new(MinixConfig {
        acm: open_acm(),
        ..MinixConfig::default()
    });
    let self_ep = bas_minix::endpoint::Endpoint::new(1, 0);
    let a = k
        .spawn(
            "a",
            A,
            0,
            Box::new(S::new(vec![Syscall::send(self_ep, 1, [])])),
        )
        .unwrap();
    assert_eq!(a, self_ep);
    // Self-send needs an ACM row A->A to even pass the check; deny-all
    // would reject it. Grant it to exercise the rendezvous path.
    let mut k2 = MinixKernel::new(MinixConfig {
        acm: AccessControlMatrix::builder().allow_all_types(A, A).build(),
        ..MinixConfig::default()
    });
    let a2 = k2
        .spawn(
            "a",
            A,
            0,
            Box::new(S::new(vec![Syscall::send(self_ep, 1, [])])),
        )
        .unwrap();
    k2.run_to_quiescence();
    assert!(k2.is_alive(a2), "parked in SENDING to itself, not crashed");
    assert_eq!(k2.metrics().ipc_messages, 0);
}

#[test]
fn notify_bits_from_two_senders_deliver_separately() {
    let mut k = MinixKernel::new(MinixConfig {
        acm: open_acm(),
        ..MinixConfig::default()
    });
    let rx_predicted = bas_minix::endpoint::Endpoint::new(3, 0);
    let tx1 = k
        .spawn(
            "tx1",
            A,
            0,
            Box::new(S::new(vec![Syscall::Notify { dest: rx_predicted }])),
        )
        .unwrap();
    let tx2 = k
        .spawn(
            "tx2",
            C,
            0,
            Box::new(S::new(vec![Syscall::Notify { dest: rx_predicted }])),
        )
        .unwrap();
    let (rx, rx_log) = S::new(vec![
        Syscall::GetUptime, // stay busy while the notifies queue
        Syscall::Receive { from: None },
        Syscall::Receive { from: None },
    ])
    .logged();
    let rx_ep = k.spawn("rx", B, 0, Box::new(rx)).unwrap();
    assert_eq!(rx_ep, rx_predicted);
    k.run_to_quiescence();
    let sources: Vec<_> = replies(&rx_log)
        .iter()
        .filter_map(|r| r.message().map(|m| m.source))
        .collect();
    assert_eq!(sources.len(), 2, "one notification per distinct sender");
    assert!(sources.contains(&tx1) && sources.contains(&tx2));
}

#[test]
fn receive_from_specific_defers_other_senders() {
    let mut k = MinixKernel::new(MinixConfig {
        acm: open_acm(),
        ..MinixConfig::default()
    });
    let rx_predicted = bas_minix::endpoint::Endpoint::new(3, 0);
    // Both senders block sending to rx before rx ever receives.
    let (tx_a, tx_a_log) = S::new(vec![Syscall::send(rx_predicted, 1, [1u8])]).logged();
    k.spawn("tx_a", A, 0, Box::new(tx_a)).unwrap();
    let (tx_c, tx_c_log) = S::new(vec![Syscall::send(rx_predicted, 2, [2u8])]).logged();
    let tx_c_ep = k.spawn("tx_c", C, 0, Box::new(tx_c)).unwrap();
    // rx receives only from tx_c first, then from anyone.
    let (rx, rx_log) = S::new(vec![
        Syscall::Receive {
            from: Some(tx_c_ep),
        },
        Syscall::Receive { from: None },
    ])
    .logged();
    let rx_ep = k.spawn("rx", B, 0, Box::new(rx)).unwrap();
    assert_eq!(rx_ep, rx_predicted);
    k.run_to_quiescence();

    let got = replies(&rx_log);
    assert_eq!(
        got[0].message().unwrap().mtype,
        2,
        "filtered receive picked tx_c"
    );
    assert_eq!(got[1].message().unwrap().mtype, 1, "tx_a served afterwards");
    assert_eq!(replies(&tx_a_log), vec![Reply::Ok]);
    assert_eq!(replies(&tx_c_log), vec![Reply::Ok]);
}

#[test]
fn send_quota_cuts_off_flooding_identity() {
    let mut quotas = QuotaTable::new();
    quotas.set_limit(A, SyscallClass::Send, 3);
    let mut k = MinixKernel::new(MinixConfig {
        acm: open_acm(),
        quotas,
        ..MinixConfig::default()
    });
    let rx = k
        .spawn(
            "rx",
            B,
            0,
            Box::new(S::looping(vec![Syscall::Receive { from: None }])),
        )
        .unwrap();
    let sends: Vec<Syscall> = (0..6).map(|i| Syscall::send(rx, 1, [i as u8])).collect();
    let (tx, log) = S::new(sends).logged();
    k.spawn("tx", A, 0, Box::new(tx)).unwrap();
    k.run_until(bas_sim::time::SimTime::from_nanos(10_000_000_000));
    let replies = replies(&log);
    let ok = replies.iter().filter(|r| **r == Reply::Ok).count();
    let quota_denied = replies
        .iter()
        .filter(|r| **r == Reply::Err(MinixError::QuotaExceeded))
        .count();
    assert_eq!(ok, 3, "quota admits exactly three sends");
    assert_eq!(quota_denied, 3);
}

#[test]
fn trace_records_every_security_relevant_category() {
    let mut k = MinixKernel::new(MinixConfig::default()); // deny-all ACM
    let rx = k
        .spawn(
            "rx",
            B,
            0,
            Box::new(S::new(vec![Syscall::Receive { from: None }])),
        )
        .unwrap();
    k.spawn("tx", A, 0, Box::new(S::new(vec![Syscall::send(rx, 1, [])])))
        .unwrap();
    k.run_to_quiescence();
    assert!(k.trace().events_in("proc.spawn").count() >= 2);
    assert_eq!(k.trace().events_in("acm.deny").count(), 1);
    assert!(k.trace().events_with_prefix("proc.").count() >= 2);
}
