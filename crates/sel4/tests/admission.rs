//! Every capability-checked invocation against every refusal it can
//! meet: an empty or out-of-range slot, a reply capability, the wrong
//! object kind, a missing right, a call without grant and a capability
//! transfer without grant.
//!
//! Each case boots a fresh kernel, gives one thread the capabilities the
//! case names and lets it issue the one invocation. A refusal must fail
//! the call with the exact error, count one access denial, write one
//! `cap.deny` record, and leave the caller's CSpace and the kernel's
//! object table as they were.

use bas_sel4::cap::{CPtr, Capability};
use bas_sel4::error::Sel4Error;
use bas_sel4::kernel::{Sel4Config, Sel4Kernel};
use bas_sel4::message::IpcMessage;
use bas_sel4::objects::{KernelObject, ObjId};
use bas_sel4::rights::CapRights;
use bas_sel4::syscall::{Reply, RetypeKind, Syscall};
use bas_sim::device::DeviceId;
use bas_sim::kernel::Kernel;
use bas_sim::process::Pid;
use bas_sim::script::{replies, Script};
use bas_sim::time::{SimDuration, SimTime};

type S = Script<Syscall, Reply>;

/// The objects every case's kernel boots with.
#[derive(Clone, Copy)]
enum Obj {
    Endpoint,
    Notification,
    Device,
    Untyped,
    /// The TCB of a second, idle thread.
    Tcb,
}

/// What a case puts in the caller's slot 0.
#[derive(Clone, Copy)]
enum Slot0 {
    Empty,
    ReplyCap,
    Cap(Obj, CapRights),
}

/// One refusal: the slot-0 contents, an extra capability in slot 1 (a
/// notification with all rights) for transfers, the invocation and the
/// reply it must get.
struct Case {
    name: String,
    slot0: Slot0,
    slot1: bool,
    sys: Syscall,
    reply: Sel4Error,
}

const SLOT0: CPtr = CPtr::new(0);
const OUT_OF_RANGE: CPtr = CPtr::new(4_096);
/// Each case runs for one simulated second: the invocation, then the
/// caller's sleep.
const ONE_SECOND: SimTime = SimTime::from_nanos(1_000_000_000);

fn send(ep: CPtr) -> Syscall {
    Syscall::Send {
        ep,
        msg: IpcMessage::with_label(1),
    }
}

fn nb_send(ep: CPtr) -> Syscall {
    Syscall::NBSend {
        ep,
        msg: IpcMessage::with_label(1),
    }
}

fn call(ep: CPtr) -> Syscall {
    Syscall::Call {
        ep,
        msg: IpcMessage::with_label(1),
    }
}

/// Every invocation that names one capability, on `ptr`.
fn invocations(ptr: CPtr) -> Vec<(&'static str, Syscall)> {
    vec![
        (
            "retype",
            Syscall::Retype {
                untyped: ptr,
                kind: RetypeKind::Endpoint,
            },
        ),
        ("send", send(ptr)),
        ("nb-send", nb_send(ptr)),
        ("call", call(ptr)),
        ("recv", Syscall::Recv { ep: ptr }),
        ("signal", Syscall::Signal { ntfn: ptr }),
        ("wait", Syscall::Wait { ntfn: ptr }),
        ("tcb suspend", Syscall::TcbSuspend { tcb: ptr }),
        ("device read", Syscall::DevRead { dev: ptr }),
        ("device write", Syscall::DevWrite { dev: ptr, value: 1 }),
        (
            "mint",
            Syscall::Mint {
                src: ptr,
                rights: CapRights::READ,
                badge: 0,
            },
        ),
    ]
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();

    // An empty and an out-of-range slot: every invocation.
    for (ptr, what) in [(SLOT0, "empty slot"), (OUT_OF_RANGE, "out-of-range slot")] {
        for (name, sys) in invocations(ptr) {
            cases.push(Case {
                name: format!("{name}: {what}"),
                slot0: Slot0::Empty,
                slot1: false,
                sys,
                reply: Sel4Error::InvalidCapability,
            });
        }
    }

    // A reply capability: every invocation that needs an object.
    for (name, sys) in invocations(SLOT0) {
        if name == "mint" {
            continue;
        }
        cases.push(Case {
            name: format!("{name}: reply capability"),
            slot0: Slot0::ReplyCap,
            slot1: false,
            sys,
            reply: Sel4Error::WrongObjectType,
        });
    }

    // The wrong object kind, held with every right.
    let wrong_kind = [
        ("retype", Obj::Endpoint),
        ("send", Obj::Notification),
        ("nb-send", Obj::Untyped),
        ("call", Obj::Device),
        ("recv", Obj::Tcb),
        ("signal", Obj::Endpoint),
        ("wait", Obj::Device),
        ("tcb suspend", Obj::Endpoint),
        ("device read", Obj::Notification),
        ("device write", Obj::Untyped),
    ];
    for ((name, sys), (kind_name, obj)) in invocations(SLOT0).into_iter().zip(wrong_kind) {
        assert_eq!(name, kind_name);
        cases.push(Case {
            name: format!("{name}: wrong object kind"),
            slot0: Slot0::Cap(obj, CapRights::ALL),
            slot1: false,
            sys,
            reply: Sel4Error::WrongObjectType,
        });
    }

    // The right kind, one right short.
    let short = [
        ("retype", Obj::Untyped, CapRights::READ),
        ("send", Obj::Endpoint, CapRights::READ),
        ("nb-send", Obj::Endpoint, CapRights::READ),
        ("call", Obj::Endpoint, CapRights::READ),
        ("recv", Obj::Endpoint, CapRights::WRITE_GRANT),
        ("signal", Obj::Notification, CapRights::READ),
        ("wait", Obj::Notification, CapRights::WRITE_GRANT),
        ("tcb suspend", Obj::Tcb, CapRights::READ),
        ("device read", Obj::Device, CapRights::WRITE_GRANT),
        ("device write", Obj::Device, CapRights::READ),
    ];
    for ((name, sys), (short_name, obj, rights)) in invocations(SLOT0).into_iter().zip(short) {
        assert_eq!(name, short_name);
        cases.push(Case {
            name: format!("{name}: missing right"),
            slot0: Slot0::Cap(obj, rights),
            slot1: false,
            sys,
            reply: Sel4Error::InsufficientRights,
        });
    }
    // Mint may only diminish rights.
    cases.push(Case {
        name: "mint: rights amplification".into(),
        slot0: Slot0::Cap(Obj::Endpoint, CapRights::READ),
        slot1: false,
        sys: Syscall::Mint {
            src: SLOT0,
            rights: CapRights::RW,
            badge: 0,
        },
        reply: Sel4Error::RightsViolation,
    });
    // A write-less capability to a non-notification object: the kind
    // refusal comes before the rights refusal.
    cases.push(Case {
        name: "wait: wrong object kind without read".into(),
        slot0: Slot0::Cap(Obj::Endpoint, CapRights::WRITE),
        slot1: false,
        sys: Syscall::Wait { ntfn: SLOT0 },
        reply: Sel4Error::WrongObjectType,
    });

    // A call without grant, with and without a capability to transfer.
    cases.push(Case {
        name: "call: without grant".into(),
        slot0: Slot0::Cap(Obj::Endpoint, CapRights::RW),
        slot1: false,
        sys: call(SLOT0),
        reply: Sel4Error::InsufficientRights,
    });
    cases.push(Case {
        name: "call: without grant, transferring a capability".into(),
        slot0: Slot0::Cap(Obj::Endpoint, CapRights::RW),
        slot1: true,
        sys: Syscall::Call {
            ep: SLOT0,
            msg: IpcMessage::with_label(1).with_cap(CPtr::new(1)),
        },
        reply: Sel4Error::InsufficientRights,
    });

    // A capability transfer without grant, and from an empty slot.
    for (name, blocking) in [("send", true), ("nb-send", false)] {
        let msg = IpcMessage::with_label(1).with_cap(CPtr::new(1));
        let sys = if blocking {
            Syscall::Send { ep: SLOT0, msg }
        } else {
            Syscall::NBSend { ep: SLOT0, msg }
        };
        cases.push(Case {
            name: format!("{name}: cap transfer without grant"),
            slot0: Slot0::Cap(Obj::Endpoint, CapRights::RW),
            slot1: true,
            sys: sys.clone(),
            reply: Sel4Error::InsufficientRights,
        });
        cases.push(Case {
            name: format!("{name}: cap transfer from an empty slot"),
            slot0: Slot0::Cap(Obj::Endpoint, CapRights::ALL),
            slot1: false,
            sys,
            reply: Sel4Error::InvalidCapability,
        });
    }
    cases
}

/// The kernel's object table, read through its accessor.
fn objects(k: &Sel4Kernel) -> Vec<KernelObject> {
    (0..)
        .map_while(|i| k.object(ObjId::new(i)).cloned())
        .collect()
}

/// Boots a kernel for `case` and returns it with the caller's pid and
/// reply log.
fn boot(case: &Case) -> (Sel4Kernel, Pid, bas_sim::script::ScriptLog<Reply>) {
    let mut k = Sel4Kernel::new(Sel4Config::default());
    let ep = k.create_endpoint();
    let ntfn = k.create_notification();
    let dev = k.create_device(DeviceId::FAN);
    let untyped = k.create_untyped(64);
    // The caller then sleeps past the run, so its CSpace stays readable.
    let nap = Syscall::Sleep {
        duration: SimDuration::from_secs(60),
    };
    let (script, log) = S::new(vec![case.sys.clone(), nap]).logged();
    let caller = k.create_thread("caller", Box::new(script));
    let idle = k.create_thread("idle", Box::new(S::new(vec![])));
    let tcb = k.tcb_of(idle).expect("idle thread has a tcb");
    let object = |obj: Obj| match obj {
        Obj::Endpoint => ep,
        Obj::Notification => ntfn,
        Obj::Device => dev,
        Obj::Untyped => untyped,
        Obj::Tcb => tcb,
    };
    match case.slot0 {
        Slot0::Empty => {}
        Slot0::ReplyCap => {
            k.grant_cap_at(caller, SLOT0, Capability::reply_to(idle))
                .expect("slot 0 is free");
        }
        Slot0::Cap(obj, rights) => {
            let cap = Capability::to_object(object(obj), rights, 0);
            k.grant_cap_at(caller, SLOT0, cap).expect("slot 0 is free");
        }
    }
    if case.slot1 {
        let cap = Capability::to_object(ntfn, CapRights::ALL, 0);
        k.grant_cap_at(caller, CPtr::new(1), cap)
            .expect("slot 1 is free");
    }
    k.start_thread(caller);
    (k, caller, log)
}

#[test]
fn every_refusal_fails_the_call_counts_records_and_changes_nothing() {
    let cases = cases();
    assert_eq!(cases.len(), 22 + 10 + 10 + 10 + 2 + 2 + 4);
    for case in &cases {
        let (mut k, caller, log) = boot(case);
        let cspace = k.cspace_of(caller).expect("caller").clone();
        let table = objects(&k);
        let denied = k.metrics().access_denied;

        k.run_until(ONE_SECOND);

        let name = &case.name;
        assert_eq!(replies(&log), vec![Reply::Err(case.reply)], "{name}");
        assert_eq!(k.metrics().access_denied, denied + 1, "{name}");
        assert_eq!(k.trace().events_in("cap.deny").count(), 1, "{name}");
        assert_eq!(k.cspace_of(caller), Some(&cspace), "{name}: cspace");
        assert_eq!(objects(&k), table, "{name}: object table");
        assert!(k.is_alive(caller), "{name}: the caller survives");
    }
}

#[test]
fn each_admitted_invocation_passes_the_same_check() {
    // The positive control: with the right capability each invocation is
    // admitted, so no refusal above comes from a broken setup.
    let admitted = [
        ("retype", Obj::Untyped, CapRights::WRITE),
        ("send", Obj::Endpoint, CapRights::WRITE),
        ("nb-send", Obj::Endpoint, CapRights::WRITE),
        ("call", Obj::Endpoint, CapRights::WRITE_GRANT),
        ("recv", Obj::Endpoint, CapRights::READ),
        ("signal", Obj::Notification, CapRights::WRITE),
        ("wait", Obj::Notification, CapRights::READ),
        ("tcb suspend", Obj::Tcb, CapRights::WRITE),
        ("device read", Obj::Device, CapRights::READ),
        ("device write", Obj::Device, CapRights::WRITE),
        ("mint", Obj::Endpoint, CapRights::READ),
    ];
    for ((name, sys), (admitted_name, obj, rights)) in invocations(SLOT0).into_iter().zip(admitted)
    {
        assert_eq!(name, admitted_name);
        let case = Case {
            name: name.into(),
            slot0: Slot0::Cap(obj, rights),
            slot1: false,
            sys,
            // Unread: an admitted call is not refused.
            reply: Sel4Error::InvalidCapability,
        };
        let (mut k, _, _) = boot(&case);
        k.run_until(ONE_SECOND);
        assert_eq!(k.metrics().access_denied, 0, "{name}");
        assert_eq!(k.trace().events_in("cap.deny").count(), 0, "{name}");
    }
}
