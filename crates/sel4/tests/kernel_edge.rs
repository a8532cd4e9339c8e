//! Edge-case semantics of the seL4 model: non-blocking receives, deletion,
//! badge derivation via mint, self-suspension, and notification pending
//! words.

use bas_sel4::cap::{CPtr, Capability};
use bas_sel4::error::Sel4Error;
use bas_sel4::kernel::{Sel4Config, Sel4Kernel};
use bas_sel4::message::IpcMessage;
use bas_sel4::rights::CapRights;
use bas_sel4::syscall::{Reply, Syscall};
use bas_sim::kernel::Kernel;
use bas_sim::script::{replies, Script};

type S = Script<Syscall, Reply>;

#[test]
fn nbrecv_returns_not_ready_when_nothing_queued() {
    let mut k = Sel4Kernel::new(Sel4Config::default());
    let ep = k.create_endpoint();
    let (t, log) = S::new(vec![Syscall::NBRecv { ep: CPtr::new(0) }]).logged();
    let pid = k.create_thread("t", Box::new(t));
    k.grant_endpoint(pid, ep, CapRights::READ, 0).unwrap();
    k.start_thread(pid);
    k.run_to_quiescence();
    assert_eq!(replies(&log), vec![Reply::Err(Sel4Error::NotReady)]);
}

#[test]
fn nbsend_fails_cleanly_and_blocking_pair_still_works_after() {
    let mut k = Sel4Kernel::new(Sel4Config::default());
    let ep = k.create_endpoint();
    let (sender, log) = S::new(vec![
        Syscall::NBSend {
            ep: CPtr::new(0),
            msg: IpcMessage::with_label(1),
        }, // nobody waiting
        Syscall::Send {
            ep: CPtr::new(0),
            msg: IpcMessage::with_label(2),
        }, // blocks, then pairs
    ])
    .logged();
    let sender_pid = k.create_thread("sender", Box::new(sender));
    k.grant_endpoint(sender_pid, ep, CapRights::WRITE, 0)
        .unwrap();
    k.start_thread(sender_pid);
    k.run_to_quiescence(); // NBSend fails, Send parks

    let (receiver, rlog) = S::new(vec![Syscall::Recv { ep: CPtr::new(0) }]).logged();
    let receiver_pid = k.create_thread("receiver", Box::new(receiver));
    k.grant_endpoint(receiver_pid, ep, CapRights::READ, 0)
        .unwrap();
    k.start_thread(receiver_pid);
    k.run_to_quiescence();

    let s = replies(&log);
    assert_eq!(s[0], Reply::Err(Sel4Error::NotReady));
    assert_eq!(s[1], Reply::Ok);
    assert_eq!(
        replies(&rlog)[0].message().unwrap().label,
        2,
        "only the blocking send arrived"
    );
    // The failed NBSend does not count as backpressure; the parked
    // blocking send counts exactly once.
    assert_eq!(k.metrics().ipc_waits, 1);
}

#[test]
fn deleted_capability_is_gone_for_good() {
    let mut k = Sel4Kernel::new(Sel4Config::default());
    let ep = k.create_endpoint();
    let (t, log) = S::new(vec![
        Syscall::Delete { slot: CPtr::new(0) },
        Syscall::NBSend {
            ep: CPtr::new(0),
            msg: IpcMessage::with_label(0),
        },
        Syscall::Delete { slot: CPtr::new(0) }, // double delete
    ])
    .logged();
    let pid = k.create_thread("t", Box::new(t));
    k.grant_endpoint(pid, ep, CapRights::ALL, 0).unwrap();
    k.start_thread(pid);
    k.run_to_quiescence();
    assert_eq!(
        replies(&log),
        vec![
            Reply::Ok,
            Reply::Err(Sel4Error::InvalidCapability),
            Reply::Err(Sel4Error::InvalidCapability),
        ]
    );
}

#[test]
fn minted_badges_identify_distinct_clients_of_one_cap() {
    // A server-side pattern: mint differently-badged children of one
    // endpoint cap and observe each badge on delivery.
    let mut k = Sel4Kernel::new(Sel4Config::default());
    let ep = k.create_endpoint();

    // The minter derives badge-7 and badge-9 copies, then sends through
    // each; a receiver observes the badges.
    let (minter, mlog) = S::new(vec![
        Syscall::Mint {
            src: CPtr::new(0),
            rights: CapRights::WRITE,
            badge: 7,
        },
        Syscall::Mint {
            src: CPtr::new(0),
            rights: CapRights::WRITE,
            badge: 9,
        },
        Syscall::Send {
            ep: CPtr::new(1),
            msg: IpcMessage::with_label(1),
        },
        Syscall::Send {
            ep: CPtr::new(2),
            msg: IpcMessage::with_label(2),
        },
    ])
    .logged();
    let minter_pid = k.create_thread("minter", Box::new(minter));
    k.grant_endpoint(minter_pid, ep, CapRights::WRITE, 0)
        .unwrap();

    let (receiver, rlog) = S::new(vec![
        Syscall::Recv { ep: CPtr::new(0) },
        Syscall::Recv { ep: CPtr::new(0) },
    ])
    .logged();
    let receiver_pid = k.create_thread("receiver", Box::new(receiver));
    k.grant_endpoint(receiver_pid, ep, CapRights::READ, 0)
        .unwrap();

    k.start_thread(minter_pid);
    k.start_thread(receiver_pid);
    k.run_to_quiescence();

    let mint_replies = replies(&mlog);
    assert_eq!(mint_replies[0], Reply::Slot(CPtr::new(1)));
    assert_eq!(mint_replies[1], Reply::Slot(CPtr::new(2)));
    let badges: Vec<u64> = replies(&rlog)
        .iter()
        .filter_map(|r| r.message().map(|m| m.badge))
        .collect();
    assert_eq!(badges, vec![7, 9]);
}

#[test]
fn self_suspension_terminates_the_caller() {
    let mut k = Sel4Kernel::new(Sel4Config::default());
    let pid = k.create_thread(
        "kamikaze",
        Box::new(S::new(vec![
            Syscall::TcbSuspend { tcb: CPtr::new(0) },
            Syscall::GetTime, // unreachable
        ])),
    );
    let tcb = k.tcb_of(pid).unwrap();
    k.grant_cap(pid, Capability::to_object(tcb, CapRights::ALL, 0))
        .unwrap();
    k.start_thread(pid);
    k.run_to_quiescence();
    assert!(!k.is_alive(pid));
    assert_eq!(k.metrics().processes_reaped, 1);
}

#[test]
fn wait_consumes_pending_word_without_blocking() {
    let mut k = Sel4Kernel::new(Sel4Config::default());
    let ntfn = k.create_notification();
    let signaler = k.create_thread(
        "signaler",
        Box::new(S::new(vec![Syscall::Signal { ntfn: CPtr::new(0) }])),
    );
    k.grant_cap(
        signaler,
        Capability::to_object(ntfn, CapRights::WRITE, 0b101),
    )
    .unwrap();
    k.start_thread(signaler);
    k.run_to_quiescence();

    let (waiter, log) = S::new(vec![
        Syscall::Wait { ntfn: CPtr::new(0) },
        Syscall::NBRecv { ep: CPtr::new(0) }, // word consumed; this is a type error probe
    ])
    .logged();
    let waiter_pid = k.create_thread("waiter", Box::new(waiter));
    k.grant_cap(waiter_pid, Capability::to_object(ntfn, CapRights::READ, 0))
        .unwrap();
    k.start_thread(waiter_pid);
    k.run_to_quiescence();
    let got = replies(&log);
    assert_eq!(got[0].message().unwrap().badge, 0b101);
    assert_eq!(got[1], Reply::Err(Sel4Error::WrongObjectType));
}

#[test]
fn signal_without_write_and_wait_without_read_denied() {
    let mut k = Sel4Kernel::new(Sel4Config::default());
    let ntfn = k.create_notification();
    let (t, log) = S::new(vec![
        Syscall::Signal { ntfn: CPtr::new(0) }, // read-only cap
        Syscall::Wait { ntfn: CPtr::new(1) },   // write-only cap
    ])
    .logged();
    let pid = k.create_thread("t", Box::new(t));
    k.grant_cap(pid, Capability::to_object(ntfn, CapRights::READ, 0))
        .unwrap();
    k.grant_cap(pid, Capability::to_object(ntfn, CapRights::WRITE, 0))
        .unwrap();
    k.start_thread(pid);
    k.run_to_quiescence();
    assert_eq!(
        replies(&log),
        vec![
            Reply::Err(Sel4Error::InsufficientRights),
            Reply::Err(Sel4Error::InsufficientRights),
        ]
    );
}
