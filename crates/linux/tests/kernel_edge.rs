//! Edge-case semantics of the Linux model: unlink permissions, size
//! limits, descriptor direction checks, fork errors, and privilege
//! transitions.

use bas_linux::cred::{Mode, Uid};
use bas_linux::error::LinuxError;
use bas_linux::kernel::{LinuxConfig, LinuxKernel, MqCreate};
use bas_linux::mq::MQ_MSG_MAX;
use bas_linux::syscall::{MqAccess, Reply, Signal, Syscall};
use bas_linux::trace::Detail;
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

#[test]
fn unlink_requires_ownership_or_root() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.create_queue("/owned", Uid::new(1000), Mode::new(0o666), 4);

    let (stranger, s_log) = S::new(vec![Syscall::MqUnlink {
        name: "/owned".into(),
    }])
    .logged();
    k.spawn("stranger", 2000, Box::new(stranger)).unwrap();
    k.run_to_quiescence();
    assert_eq!(replies(&s_log), vec![Reply::Err(LinuxError::AccessDenied)]);
    assert_eq!(k.metrics().access_denied, 1);
    let denials: Vec<&Detail> = k.trace().events_in("dac.deny").map(|e| &e.detail).collect();
    assert!(
        matches!(denials.as_slice(), [Detail::MqDeny { uid, queue }]
            if *uid == Uid::new(2000) && &**queue == "/owned"),
        "one typed refusal: {denials:?}"
    );

    let (root, r_log) = S::new(vec![Syscall::MqUnlink {
        name: "/owned".into(),
    }])
    .logged();
    k.spawn("root", 0, Box::new(root)).unwrap();
    k.run_to_quiescence();
    assert_eq!(replies(&r_log), vec![Reply::Ok]);
    assert!(k.queue_len("/owned").is_none());
}

#[test]
fn oversized_message_rejected_with_emsgsize() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.create_queue("/q", Uid::new(1000), Mode::new(0o600), 4);
    let (p, log) = S::new(vec![
        open("/q", MqAccess::WRITE),
        Syscall::MqSend {
            qd: 0,
            data: vec![0u8; MQ_MSG_MAX + 1].into(),
            priority: 0,
            nonblocking: true,
        },
    ])
    .logged();
    k.spawn("p", 1000, Box::new(p)).unwrap();
    k.run_to_quiescence();
    assert_eq!(replies(&log)[1], Reply::Err(LinuxError::MessageTooLong));
}

#[test]
fn descriptor_direction_enforced() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.create_queue("/q", Uid::new(1000), Mode::new(0o600), 4);
    let (p, log) = S::new(vec![
        open("/q", MqAccess::READ),
        // Sending on a read-only descriptor fails even though the DAC
        // would have allowed a write open.
        Syscall::MqSend {
            qd: 0,
            data: vec![1].into(),
            priority: 0,
            nonblocking: true,
        },
        // Receiving on a write-only descriptor likewise.
        open("/q", MqAccess::WRITE),
        Syscall::MqReceive {
            qd: 1,
            nonblocking: true,
        },
        // Unknown descriptor.
        Syscall::MqReceive {
            qd: 42,
            nonblocking: true,
        },
    ])
    .logged();
    k.spawn("p", 1000, Box::new(p)).unwrap();
    k.run_to_quiescence();
    let got = replies(&log);
    assert_eq!(got[1], Reply::Err(LinuxError::BadDescriptor));
    assert_eq!(got[3], Reply::Err(LinuxError::BadDescriptor));
    assert_eq!(got[4], Reply::Err(LinuxError::BadDescriptor));
}

#[test]
fn fork_of_unknown_program_fails() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    let (p, log) = S::new(vec![Syscall::Fork {
        program: "ghost".into(),
    }])
    .logged();
    k.spawn("p", 1000, Box::new(p)).unwrap();
    k.run_to_quiescence();
    assert_eq!(replies(&log), vec![Reply::Err(LinuxError::NoSuchProgram)]);
}

#[test]
fn dropping_root_loses_kill_authority() {
    // A root process setuid()s to an unprivileged account and can no
    // longer signal other users' processes — privilege transitions are
    // one-way for non-root.
    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.create_queue("/park", Uid::new(500), Mode::new(0o600), 4);
    let victim = k
        .spawn(
            "victim",
            500,
            Box::new(S::new(vec![
                open("/park", MqAccess::READ),
                Syscall::MqReceive {
                    qd: 0,
                    nonblocking: false,
                },
            ])),
        )
        .unwrap();
    let (dropper, log) = S::new(vec![
        Syscall::SetUid { uid: 1234 },
        Syscall::Kill {
            pid: victim,
            signal: Signal::Kill,
        },
        Syscall::SetUid { uid: 0 }, // cannot climb back
    ])
    .logged();
    k.spawn("dropper", 0, Box::new(dropper)).unwrap();
    k.run_to_quiescence();
    let got = replies(&log);
    assert_eq!(got[0], Reply::Ok);
    assert_eq!(got[1], Reply::Err(LinuxError::NotPermitted));
    assert_eq!(got[2], Reply::Err(LinuxError::NotPermitted));
    assert!(k.is_alive(victim));
}

#[test]
fn create_with_o_creat_then_full_dac_cycle() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    let (creator, c_log) = S::new(vec![
        Syscall::MqOpen {
            name: "/fresh".into(),
            access: MqAccess::RW,
            create: Some(MqCreate {
                mode: 0o600,
                capacity: 2,
            }),
        },
        Syscall::MqSend {
            qd: 0,
            data: vec![9].into(),
            priority: 0,
            nonblocking: true,
        },
        Syscall::MqReceive {
            qd: 0,
            nonblocking: true,
        },
    ])
    .logged();
    k.spawn("creator", 1000, Box::new(creator)).unwrap();
    k.run_to_quiescence();
    let got = replies(&c_log);
    assert_eq!(got[0], Reply::Qd(0));
    assert_eq!(got[1], Reply::Ok);
    assert_eq!(got[2].data(), Some(&[9u8][..]));

    // Mode 0600 shuts everyone else out.
    let (other, o_log) = S::new(vec![open("/fresh", MqAccess::READ)]).logged();
    k.spawn("other", 2000, Box::new(other)).unwrap();
    k.run_to_quiescence();
    assert_eq!(replies(&o_log), vec![Reply::Err(LinuxError::AccessDenied)]);
}
