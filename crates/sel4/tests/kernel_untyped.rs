//! Untyped memory and retype: object creation in seL4 is explicit,
//! transferable authority — the reason resource-exhaustion attacks need a
//! capability grant to even begin, and are bounded by the region size
//! when they do.

use bas_sel4::cap::{CPtr, Capability};
use bas_sel4::error::Sel4Error;
use bas_sel4::kernel::{Sel4Config, Sel4Kernel};
use bas_sel4::message::IpcMessage;
use bas_sel4::objects::ObjKind;
use bas_sel4::rights::CapRights;
use bas_sel4::syscall::{Reply, RetypeKind, Syscall};
use bas_sim::kernel::Kernel;
use bas_sim::script::{replies, Script};

type S = Script<Syscall, Reply>;

#[test]
fn retype_creates_a_usable_endpoint() {
    let mut k = Sel4Kernel::new(Sel4Config::default());
    let ut = k.create_untyped(64);

    // The holder retypes an endpoint (lands in slot 1), receives on it;
    // a partner minted a cap from... simpler: holder retypes then sends
    // to itself is impossible — use two threads: holder retypes and
    // *identifies* the new object, then receives on it after handing a
    // cap to the sender via bootstrap is impossible post-boot... so just
    // verify the new cap is full-rights and invocable.
    let (holder, log) = S::new(vec![
        Syscall::Retype {
            untyped: CPtr::new(0),
            kind: RetypeKind::Endpoint,
        },
        Syscall::Identify { slot: CPtr::new(1) },
        Syscall::NBRecv { ep: CPtr::new(1) }, // valid invocation; empty queue
    ])
    .logged();
    let pid = k.create_thread("holder", Box::new(holder));
    k.grant_cap(pid, Capability::to_object(ut, CapRights::RW, 0))
        .unwrap();
    k.start_thread(pid);
    k.run_to_quiescence();

    let got = replies(&log);
    assert_eq!(got[0], Reply::Slot(CPtr::new(1)));
    assert_eq!(got[1], Reply::Identified(Some(ObjKind::Endpoint)));
    assert_eq!(
        got[2],
        Reply::Err(Sel4Error::NotReady),
        "fully invocable endpoint"
    );
    assert_eq!(k.trace().events_in("untyped.retype").count(), 1);
}

#[test]
fn retype_is_bounded_by_the_region_size() {
    let mut k = Sel4Kernel::new(Sel4Config::default());
    let ut = k.create_untyped(48); // room for exactly 3 × 16-byte objects
    let steps: Vec<Syscall> = (0..5)
        .map(|_| Syscall::Retype {
            untyped: CPtr::new(0),
            kind: RetypeKind::Notification,
        })
        .collect();
    let (t, log) = S::new(steps).logged();
    let pid = k.create_thread("t", Box::new(t));
    k.grant_cap(pid, Capability::to_object(ut, CapRights::RW, 0))
        .unwrap();
    k.start_thread(pid);
    k.run_to_quiescence();

    let got = replies(&log);
    let created = got.iter().filter(|r| matches!(r, Reply::Slot(_))).count();
    let exhausted = got
        .iter()
        .filter(|r| **r == Reply::Err(Sel4Error::OutOfMemory))
        .count();
    assert_eq!(created, 3, "authority bounds allocation");
    assert_eq!(exhausted, 2);
}

#[test]
fn retype_without_a_capability_is_impossible() {
    // The fork-bomb cell on seL4, concretely: the web interface holds no
    // untyped capability, so it cannot create even one object.
    let mut k = Sel4Kernel::new(Sel4Config::default());
    let _ut = k.create_untyped(1 << 20); // exists, but nobody granted it
    let steps: Vec<Syscall> = (0..16)
        .map(|i| Syscall::Retype {
            untyped: CPtr::new(i),
            kind: RetypeKind::Endpoint,
        })
        .collect();
    let (t, log) = S::new(steps).logged();
    let pid = k.create_thread("attacker", Box::new(t));
    k.start_thread(pid);
    k.run_to_quiescence();
    assert!(replies(&log)
        .iter()
        .all(|r| *r == Reply::Err(Sel4Error::InvalidCapability)));
}

#[test]
fn read_only_untyped_cap_cannot_retype() {
    let mut k = Sel4Kernel::new(Sel4Config::default());
    let ut = k.create_untyped(64);
    let (t, log) = S::new(vec![Syscall::Retype {
        untyped: CPtr::new(0),
        kind: RetypeKind::Endpoint,
    }])
    .logged();
    let pid = k.create_thread("t", Box::new(t));
    k.grant_cap(pid, Capability::to_object(ut, CapRights::READ, 0))
        .unwrap();
    k.start_thread(pid);
    k.run_to_quiescence();
    assert_eq!(
        replies(&log),
        vec![Reply::Err(Sel4Error::InsufficientRights)]
    );
}

#[test]
fn retype_of_non_untyped_object_rejected() {
    let mut k = Sel4Kernel::new(Sel4Config::default());
    let ep = k.create_endpoint();
    let (t, log) = S::new(vec![Syscall::Retype {
        untyped: CPtr::new(0),
        kind: RetypeKind::Endpoint,
    }])
    .logged();
    let pid = k.create_thread("t", Box::new(t));
    k.grant_endpoint(pid, ep, CapRights::ALL, 0).unwrap();
    k.start_thread(pid);
    k.run_to_quiescence();
    assert_eq!(replies(&log), vec![Reply::Err(Sel4Error::WrongObjectType)]);
}

#[test]
fn retyped_endpoint_carries_full_ipc_semantics() {
    // End-to-end: dynamically created endpoint used for a Call/Reply
    // round trip after its cap is transferred to a partner via grant.
    let mut k = Sel4Kernel::new(Sel4Config::default());
    let ut = k.create_untyped(64);
    let boot_ep = k.create_endpoint();

    // Creator: retype (slot 2), then send the new cap to the partner
    // through the boot endpoint (cap transfer requires grant), then serve
    // one request on the new endpoint.
    struct Creator;
    impl bas_sim::process::Process for Creator {
        type Syscall = Syscall;
        type Reply = Reply;
        fn resume(&mut self, reply: Option<Reply>) -> bas_sim::process::Action<Syscall> {
            use bas_sim::process::Action;
            match reply {
                None => Action::Syscall(Syscall::Retype {
                    untyped: CPtr::new(0),
                    kind: RetypeKind::Endpoint,
                }),
                Some(Reply::Slot(slot)) => Action::Syscall(Syscall::Send {
                    ep: CPtr::new(1), // boot endpoint (write+grant)
                    msg: IpcMessage::with_label(0).with_cap(slot),
                }),
                Some(Reply::Ok) => Action::Syscall(Syscall::Recv { ep: CPtr::new(2) }),
                Some(Reply::Msg(m)) => Action::Syscall(Syscall::Reply {
                    msg: IpcMessage::with_data(0, vec![m.words[0] * 3]),
                }),
                Some(_) => Action::Exit(1),
            }
        }
    }

    // Partner: receive the cap, then Call through it.
    struct Partner;
    impl bas_sim::process::Process for Partner {
        type Syscall = Syscall;
        type Reply = Reply;
        fn resume(&mut self, reply: Option<Reply>) -> bas_sim::process::Action<Syscall> {
            use bas_sim::process::Action;
            match reply {
                None => Action::Syscall(Syscall::Recv { ep: CPtr::new(0) }),
                Some(Reply::Msg(m)) if !m.received_caps.is_empty() => {
                    Action::Syscall(Syscall::Call {
                        ep: m.received_caps[0],
                        msg: IpcMessage::with_data(1, vec![14]),
                    })
                }
                Some(Reply::Msg(m)) => {
                    assert_eq!(m.words, vec![42], "3 × 14 through the dynamic endpoint");
                    Action::Exit(0)
                }
                Some(_) => Action::Exit(1),
            }
        }
    }

    let creator = k.create_thread("creator", Box::new(Creator));
    let partner = k.create_thread("partner", Box::new(Partner));
    k.grant_cap(creator, Capability::to_object(ut, CapRights::RW, 0))
        .unwrap();
    k.grant_endpoint(creator, boot_ep, CapRights::WRITE_GRANT, 0)
        .unwrap();
    k.grant_endpoint(partner, boot_ep, CapRights::READ, 0)
        .unwrap();
    k.start_thread(creator);
    k.start_thread(partner);
    k.run_to_quiescence();
    assert_eq!(
        k.metrics().processes_reaped,
        1,
        "partner exited 0 after the round trip"
    );
}
