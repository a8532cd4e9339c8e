//! Integration tests for seL4 kernel semantics: rendezvous, rights
//! checking, Call/Reply with one-shot reply capabilities, badges, cap
//! transfer under grant, confinement, and TCB suspension.

use bas_sel4::cap::{CPtr, Capability};
use bas_sel4::error::Sel4Error;
use bas_sel4::kernel::{Sel4Config, Sel4Kernel};
use bas_sel4::message::IpcMessage;
use bas_sel4::objects::ObjKind;
use bas_sel4::rights::CapRights;
use bas_sel4::syscall::{Reply, Syscall};
use bas_sim::kernel::Kernel;
use bas_sim::process::Pid;
use bas_sim::script::{replies, Script};

type S = Script<Syscall, Reply>;

fn kernel() -> Sel4Kernel {
    Sel4Kernel::new(Sel4Config::default())
}

#[test]
fn send_recv_rendezvous_with_badge() {
    let mut k = kernel();
    let ep = k.create_endpoint();
    let (server, server_log) = S::new(vec![Syscall::Recv { ep: CPtr::new(0) }]).logged();
    let server_pid = k.create_thread("server", Box::new(server));
    let (client, client_log) = S::new(vec![Syscall::Send {
        ep: CPtr::new(0),
        msg: IpcMessage::with_data(9, vec![1, 2]),
    }])
    .logged();
    let client_pid = k.create_thread("client", Box::new(client));
    k.grant_endpoint(server_pid, ep, CapRights::READ, 0)
        .unwrap();
    k.grant_endpoint(client_pid, ep, CapRights::WRITE, 77)
        .unwrap();
    k.start_thread(server_pid);
    k.start_thread(client_pid);
    k.run_to_quiescence();

    assert_eq!(replies(&client_log), vec![Reply::Ok]);
    let got = replies(&server_log);
    let msg = got[0].message().expect("delivered");
    assert_eq!(msg.badge, 77, "badge identifies the sender's capability");
    assert_eq!(msg.label, 9);
    assert_eq!(msg.words, vec![1, 2]);
    assert!(!msg.reply_expected);
    assert_eq!(k.metrics().ipc_messages, 1);
}

#[test]
fn send_without_write_right_denied() {
    let mut k = kernel();
    let ep = k.create_endpoint();
    let (client, log) = S::new(vec![Syscall::Send {
        ep: CPtr::new(0),
        msg: IpcMessage::with_label(1),
    }])
    .logged();
    let pid = k.create_thread("client", Box::new(client));
    k.grant_endpoint(pid, ep, CapRights::READ, 0).unwrap(); // read-only!
    k.start_thread(pid);
    k.run_to_quiescence();
    assert_eq!(
        replies(&log),
        vec![Reply::Err(Sel4Error::InsufficientRights)]
    );
    assert_eq!(k.metrics().access_denied, 1);
}

#[test]
fn recv_without_read_right_denied() {
    let mut k = kernel();
    let ep = k.create_endpoint();
    let (t, log) = S::new(vec![Syscall::Recv { ep: CPtr::new(0) }]).logged();
    let pid = k.create_thread("t", Box::new(t));
    k.grant_endpoint(pid, ep, CapRights::WRITE, 0).unwrap(); // write-only!
    k.start_thread(pid);
    k.run_to_quiescence();
    assert_eq!(
        replies(&log),
        vec![Reply::Err(Sel4Error::InsufficientRights)]
    );
}

#[test]
fn invoking_empty_slot_is_invalid_capability() {
    let mut k = kernel();
    let (t, log) = S::new(vec![
        Syscall::Send {
            ep: CPtr::new(5),
            msg: IpcMessage::with_label(0),
        },
        Syscall::Recv { ep: CPtr::new(63) },
        Syscall::TcbSuspend { tcb: CPtr::new(7) },
        Syscall::Identify { slot: CPtr::new(9) },
    ])
    .logged();
    let pid = k.create_thread("prober", Box::new(t));
    k.start_thread(pid);
    k.run_to_quiescence();
    assert_eq!(
        replies(&log),
        vec![
            Reply::Err(Sel4Error::InvalidCapability),
            Reply::Err(Sel4Error::InvalidCapability),
            Reply::Err(Sel4Error::InvalidCapability),
            Reply::Err(Sel4Error::InvalidCapability),
        ],
        "an empty CSpace is an empty world"
    );
}

#[test]
fn call_reply_roundtrip_with_reply_cap() {
    let mut k = kernel();
    let ep = k.create_endpoint();

    // Server: Recv, then Reply with the doubled word.
    struct Server;
    impl bas_sim::process::Process for Server {
        type Syscall = Syscall;
        type Reply = Reply;
        fn resume(&mut self, reply: Option<Reply>) -> bas_sim::process::Action<Syscall> {
            match reply {
                None => bas_sim::process::Action::Syscall(Syscall::Recv { ep: CPtr::new(0) }),
                Some(Reply::Msg(m)) => {
                    assert!(m.reply_expected, "Call must attach a reply cap");
                    bas_sim::process::Action::Syscall(Syscall::Reply {
                        msg: IpcMessage::with_data(100, vec![m.words[0] * 2]),
                    })
                }
                Some(_) => bas_sim::process::Action::Exit(0),
            }
        }
    }
    let server_pid = k.create_thread("server", Box::new(Server));
    let (client, client_log) = S::new(vec![Syscall::Call {
        ep: CPtr::new(0),
        msg: IpcMessage::with_data(5, vec![21]),
    }])
    .logged();
    let client_pid = k.create_thread("client", Box::new(client));
    k.grant_endpoint(server_pid, ep, CapRights::READ, 0)
        .unwrap();
    k.grant_endpoint(client_pid, ep, CapRights::WRITE_GRANT, 3)
        .unwrap();
    k.start_thread(server_pid);
    k.start_thread(client_pid);
    k.run_to_quiescence();

    let got = replies(&client_log);
    let msg = got[0].message().expect("reply delivered");
    assert_eq!(msg.label, 100);
    assert_eq!(msg.words, vec![42]);
    assert_eq!(k.metrics().ipc_messages, 2, "request + reply");
}

#[test]
fn call_without_grant_denied() {
    let mut k = kernel();
    let ep = k.create_endpoint();
    let (client, log) = S::new(vec![Syscall::Call {
        ep: CPtr::new(0),
        msg: IpcMessage::with_label(1),
    }])
    .logged();
    let pid = k.create_thread("client", Box::new(client));
    k.grant_endpoint(pid, ep, CapRights::WRITE, 0).unwrap(); // no grant
    k.start_thread(pid);
    k.run_to_quiescence();
    assert_eq!(
        replies(&log),
        vec![Reply::Err(Sel4Error::InsufficientRights)]
    );
}

#[test]
fn reply_cap_is_one_shot() {
    let mut k = kernel();
    let ep = k.create_endpoint();
    struct DoubleReplyServer;
    impl bas_sim::process::Process for DoubleReplyServer {
        type Syscall = Syscall;
        type Reply = Reply;
        fn resume(&mut self, reply: Option<Reply>) -> bas_sim::process::Action<Syscall> {
            match reply {
                None => bas_sim::process::Action::Syscall(Syscall::Recv { ep: CPtr::new(0) }),
                Some(Reply::Msg(_)) => bas_sim::process::Action::Syscall(Syscall::Reply {
                    msg: IpcMessage::with_label(1),
                }),
                Some(Reply::Ok) => {
                    // Second Reply attempt: reply cap already consumed.
                    bas_sim::process::Action::Syscall(Syscall::Reply {
                        msg: IpcMessage::with_label(2),
                    })
                }
                Some(Reply::Err(e)) => {
                    assert_eq!(e, Sel4Error::NoReplyCap);
                    bas_sim::process::Action::Exit(0)
                }
                _ => bas_sim::process::Action::Exit(1),
            }
        }
    }
    let server = k.create_thread("server", Box::new(DoubleReplyServer));
    let (client, client_log) = S::new(vec![Syscall::Call {
        ep: CPtr::new(0),
        msg: IpcMessage::with_label(0),
    }])
    .logged();
    let client_pid = k.create_thread("client", Box::new(client));
    k.grant_endpoint(server, ep, CapRights::READ, 0).unwrap();
    k.grant_endpoint(client_pid, ep, CapRights::WRITE_GRANT, 0)
        .unwrap();
    k.start_thread(server);
    k.start_thread(client_pid);
    k.run_to_quiescence();
    // Client got exactly one reply.
    assert_eq!(
        replies(&client_log)
            .iter()
            .filter(|r| r.message().is_some())
            .count(),
        1
    );
}

#[test]
fn cap_transfer_requires_grant() {
    let mut k = kernel();
    let ep = k.create_endpoint();
    let secret = k.create_endpoint();
    let (sender, log) = S::new(vec![Syscall::Send {
        ep: CPtr::new(0),
        msg: IpcMessage::with_label(0).with_cap(CPtr::new(1)),
    }])
    .logged();
    let sender_pid = k.create_thread("sender", Box::new(sender));
    let receiver_pid = k.create_thread(
        "receiver",
        Box::new(S::new(vec![Syscall::Recv { ep: CPtr::new(0) }])),
    );
    k.grant_endpoint(sender_pid, ep, CapRights::WRITE, 0)
        .unwrap(); // no grant
    k.grant_endpoint(sender_pid, secret, CapRights::ALL, 0)
        .unwrap();
    k.grant_endpoint(receiver_pid, ep, CapRights::READ, 0)
        .unwrap();
    k.start_thread(sender_pid);
    k.start_thread(receiver_pid);
    k.run_to_quiescence();
    assert_eq!(
        replies(&log),
        vec![Reply::Err(Sel4Error::InsufficientRights)]
    );
}

#[test]
fn cap_transfer_with_grant_installs_in_receiver() {
    let mut k = kernel();
    let ep = k.create_endpoint();
    let gift = k.create_endpoint();
    let (sender, _) = S::new(vec![Syscall::Send {
        ep: CPtr::new(0),
        msg: IpcMessage::with_label(0).with_cap(CPtr::new(1)),
    }])
    .logged();
    let sender_pid = k.create_thread("sender", Box::new(sender));
    let (receiver, receiver_log) = S::new(vec![
        Syscall::Recv { ep: CPtr::new(0) },
        // Block again so the thread (and its CSpace) survives for the
        // post-run inspection below.
        Syscall::Recv { ep: CPtr::new(0) },
    ])
    .logged();
    let receiver_pid = k.create_thread("receiver", Box::new(receiver));
    k.grant_endpoint(sender_pid, ep, CapRights::WRITE_GRANT, 0)
        .unwrap();
    k.grant_endpoint(sender_pid, gift, CapRights::RW, 5)
        .unwrap();
    k.grant_endpoint(receiver_pid, ep, CapRights::READ, 0)
        .unwrap();
    k.start_thread(sender_pid);
    k.start_thread(receiver_pid);
    k.run_to_quiescence();

    let got = replies(&receiver_log);
    let msg = got[0].message().unwrap();
    assert_eq!(msg.received_caps.len(), 1);
    let slot = msg.received_caps[0];
    let cs = k.cspace_of(receiver_pid).unwrap();
    let cap = cs.lookup(slot).unwrap();
    assert_eq!(cap.object().unwrap(), gift);
    assert_eq!(cap.rights, CapRights::RW);
    assert_eq!(cap.badge, 5, "transferred cap keeps its badge");
}

#[test]
fn mint_diminishes_never_amplifies() {
    let mut k = kernel();
    let ep = k.create_endpoint();
    let (t, log) = S::new(vec![
        Syscall::Mint {
            src: CPtr::new(0),
            rights: CapRights::WRITE,
            badge: 9,
        },
        Syscall::Mint {
            src: CPtr::new(0),
            rights: CapRights::ALL,
            badge: 9,
        },
    ])
    .logged();
    let pid = k.create_thread("minter", Box::new(t));
    k.grant_endpoint(pid, ep, CapRights::RW, 0).unwrap();
    k.start_thread(pid);
    k.run_to_quiescence();
    let got = replies(&log);
    assert!(matches!(got[0], Reply::Slot(_)), "shrinking mint succeeds");
    assert_eq!(
        got[1],
        Reply::Err(Sel4Error::RightsViolation),
        "amplifying mint fails"
    );
}

#[test]
fn tcb_suspend_with_cap_kills_thread() {
    let mut k = kernel();
    let victim_pid = k.create_thread(
        "victim",
        Box::new(S::new(vec![Syscall::Sleep {
            duration: bas_sim::time::SimDuration::from_secs(1000),
        }])),
    );
    let victim_tcb = k.tcb_of(victim_pid).unwrap();
    let (killer, log) = S::new(vec![Syscall::TcbSuspend { tcb: CPtr::new(0) }]).logged();
    let killer_pid = k.create_thread("killer", Box::new(killer));
    k.grant_cap(
        killer_pid,
        Capability::to_object(victim_tcb, CapRights::ALL, 0),
    )
    .unwrap();
    k.start_thread(victim_pid);
    k.start_thread(killer_pid);
    k.run_to_quiescence();
    assert_eq!(replies(&log), vec![Reply::Ok]);
    assert!(!k.is_alive(victim_pid));
    assert_eq!(k.trace().events_in("tcb.suspend").count(), 1);
}

#[test]
fn tcb_suspend_without_cap_impossible() {
    // The paper's kill attack on seL4: no TCB capability, no kill.
    let mut k = kernel();
    let victim_pid = k.create_thread(
        "victim",
        Box::new(S::new(vec![Syscall::Sleep {
            duration: bas_sim::time::SimDuration::from_millis(1),
        }])),
    );
    let (attacker, log) = S::new(
        // Try every slot in the attacker's own cspace.
        (0..64)
            .map(|i| Syscall::TcbSuspend { tcb: CPtr::new(i) })
            .collect(),
    )
    .logged();
    let attacker_pid = k.create_thread("attacker", Box::new(attacker));
    k.start_thread(victim_pid);
    k.start_thread(attacker_pid);
    k.run_to_quiescence();
    assert!(replies(&log)
        .iter()
        .all(|r| *r == Reply::Err(Sel4Error::InvalidCapability)));
    // victim ran its sleep and exited on its own terms (not suspended).
    assert_eq!(k.metrics().processes_reaped, 2, "both exited normally");
}

#[test]
fn identify_reveals_only_own_caps() {
    let mut k = kernel();
    let ep = k.create_endpoint();
    let (t, log) = S::new(vec![
        Syscall::Identify { slot: CPtr::new(0) },
        Syscall::Identify { slot: CPtr::new(1) },
    ])
    .logged();
    let pid = k.create_thread("prober", Box::new(t));
    k.grant_endpoint(pid, ep, CapRights::WRITE, 0).unwrap();
    k.start_thread(pid);
    k.run_to_quiescence();
    let got = replies(&log);
    assert_eq!(got[0], Reply::Identified(Some(ObjKind::Endpoint)));
    assert_eq!(got[1], Reply::Err(Sel4Error::InvalidCapability));
}

#[test]
fn notification_signal_wait_roundtrip() {
    let mut k = kernel();
    let ntfn = k.create_notification();
    let (waiter, waiter_log) = S::new(vec![Syscall::Wait { ntfn: CPtr::new(0) }]).logged();
    let waiter_pid = k.create_thread("waiter", Box::new(waiter));
    let signaler_pid = k.create_thread(
        "signaler",
        Box::new(S::new(vec![Syscall::Signal { ntfn: CPtr::new(0) }])),
    );
    k.grant_cap(waiter_pid, Capability::to_object(ntfn, CapRights::READ, 0))
        .unwrap();
    k.grant_cap(
        signaler_pid,
        Capability::to_object(ntfn, CapRights::WRITE, 0b100),
    )
    .unwrap();
    k.start_thread(waiter_pid);
    k.start_thread(signaler_pid);
    k.run_to_quiescence();
    let got = replies(&waiter_log);
    assert_eq!(
        got[0].message().unwrap().badge,
        0b100,
        "signal bits from badge"
    );
}

#[test]
fn dying_server_aborts_pending_caller() {
    let mut k = kernel();
    let ep = k.create_endpoint();
    // Server receives the call then exits without replying.
    let server_pid = k.create_thread(
        "server",
        Box::new(S::new(vec![Syscall::Recv { ep: CPtr::new(0) }])),
    );
    let (client, log) = S::new(vec![Syscall::Call {
        ep: CPtr::new(0),
        msg: IpcMessage::with_label(1),
    }])
    .logged();
    let client_pid = k.create_thread("client", Box::new(client));
    k.grant_endpoint(server_pid, ep, CapRights::READ, 0)
        .unwrap();
    k.grant_endpoint(client_pid, ep, CapRights::WRITE_GRANT, 0)
        .unwrap();
    k.start_thread(server_pid);
    k.start_thread(client_pid);
    k.run_to_quiescence();
    assert_eq!(
        replies(&log),
        vec![Reply::Err(Sel4Error::InvalidCapability)],
        "caller must not hang when the reply cap is destroyed"
    );
}

#[test]
fn confinement_cspace_never_grows_without_explicit_transfer() {
    // Run an attacker that tries everything unilateral: sends, mints of
    // its own cap, identifies, deletes+reinserts. Its reachable object set
    // must never exceed what it started with.
    let mut k = kernel();
    let ep = k.create_endpoint();
    let mut steps = Vec::new();
    for i in 0..16 {
        steps.push(Syscall::Identify { slot: CPtr::new(i) });
        steps.push(Syscall::Mint {
            src: CPtr::new(i),
            rights: CapRights::ALL,
            badge: i as u64,
        });
        steps.push(Syscall::NBSend {
            ep: CPtr::new(i),
            msg: IpcMessage::with_label(0),
        });
        steps.push(Syscall::NBRecv { ep: CPtr::new(i) });
    }
    let pid = k.create_thread("attacker", Box::new(S::new(steps)));
    k.grant_endpoint(pid, ep, CapRights::WRITE_GRANT, 1)
        .unwrap();
    k.start_thread(pid);
    // Snapshot reachable objects before.
    let before: std::collections::BTreeSet<_> = k
        .cspace_of(pid)
        .unwrap()
        .iter()
        .filter_map(|(_, c)| c.object())
        .collect();
    k.run_until(bas_sim::time::SimTime::from_nanos(u64::MAX / 2));
    let after: std::collections::BTreeSet<_> = match k.cspace_of(pid) {
        Some(cs) => cs.iter().filter_map(|(_, c)| c.object()).collect(),
        None => std::collections::BTreeSet::new(), // attacker exited
    };
    assert!(
        after.is_subset(&before),
        "attacker gained objects: before={before:?} after={after:?}"
    );
}

#[test]
fn thread_names_and_counts() {
    let mut k = kernel();
    let a = k.create_thread("a", Box::new(S::new(vec![])));
    let _b = k.create_thread("b", Box::new(S::new(vec![Syscall::GetTime])));
    assert_eq!(k.thread_count(), 2);
    assert_eq!(k.thread_named("a"), Some(a));
    assert_eq!(k.thread_named("zz"), None);
    assert_eq!(k.alive_names(), vec!["a".to_string(), "b".to_string()]);
    assert_eq!(k.tcb_of(Pid::new(99)), None);
}
