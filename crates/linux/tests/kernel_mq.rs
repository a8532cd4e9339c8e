//! Integration tests for the Linux model: mq semantics, DAC enforcement,
//! the absence of sender identity (the spoofing enabler), signals with
//! root bypass, forks, and device nodes.

use bas_linux::cred::{Mode, Uid};
use bas_linux::error::LinuxError;
use bas_linux::kernel::{LinuxConfig, LinuxKernel, MqCreate};
use bas_linux::syscall::{MqAccess, Reply, Signal, Syscall};
use bas_sim::device::DeviceId;
use bas_sim::kernel::Kernel;
use bas_sim::script::{replies, Script};
use bas_sim::time::SimDuration;

type S = Script<Syscall, Reply>;

fn open(name: &str, access: MqAccess) -> Syscall {
    Syscall::MqOpen {
        name: name.into(),
        access,
        create: None,
    }
}

fn open_creat(name: &str, access: MqAccess, mode: u16) -> Syscall {
    Syscall::MqOpen {
        name: name.into(),
        access,
        create: Some(MqCreate { mode, capacity: 8 }),
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

#[test]
fn mq_send_receive_roundtrip() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.create_queue("/q", Uid::new(1000), Mode::new(0o666), 8);
    let (rx, rx_log) = S::new(vec![open("/q", MqAccess::READ), recv(0)]).logged();
    k.spawn("rx", 1000, Box::new(rx)).unwrap();
    let (tx, tx_log) = S::new(vec![open("/q", MqAccess::WRITE), send(0, &[7, 8])]).logged();
    k.spawn("tx", 1000, Box::new(tx)).unwrap();
    k.run_to_quiescence();
    assert_eq!(replies(&tx_log), vec![Reply::Qd(0), Reply::Ok]);
    let got = replies(&rx_log);
    assert_eq!(
        got[1],
        Reply::Data {
            data: vec![7, 8],
            priority: 0
        }
    );
}

#[test]
fn messages_carry_no_sender_identity() {
    // Two different processes send identical bytes; the receiver cannot
    // distinguish them — this is the paper's spoofing enabler.
    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.create_queue("/q", Uid::new(1000), Mode::new(0o666), 8);
    let (rx, rx_log) = S::new(vec![open("/q", MqAccess::READ), recv(0), recv(0)]).logged();
    k.spawn("rx", 1000, Box::new(rx)).unwrap();
    k.spawn(
        "legit",
        1000,
        Box::new(S::new(vec![
            open("/q", MqAccess::WRITE),
            send(0, b"reading:21"),
        ])),
    )
    .unwrap();
    k.spawn(
        "attacker",
        2000, // different uid entirely
        Box::new(S::new(vec![
            open("/q", MqAccess::WRITE),
            send(0, b"reading:21"),
        ])),
    )
    .unwrap();
    k.run_to_quiescence();
    let got = replies(&rx_log);
    let m1 = got[1].clone();
    let m2 = got[2].clone();
    assert_eq!(
        m1, m2,
        "payloads indistinguishable: no kernel-stamped identity"
    );
}

#[test]
fn dac_mode_denies_other_uid_without_permission() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.create_queue("/private", Uid::new(1000), Mode::new(0o600), 8);
    let (intruder, log) = S::new(vec![open("/private", MqAccess::WRITE)]).logged();
    k.spawn("intruder", 2000, Box::new(intruder)).unwrap();
    k.run_to_quiescence();
    assert_eq!(replies(&log), vec![Reply::Err(LinuxError::AccessDenied)]);
    assert_eq!(k.metrics().access_denied, 1);
    assert_eq!(k.trace().events_in("dac.deny").count(), 1);
}

#[test]
fn dac_allows_same_uid_processes_through() {
    // The paper: "Since all five processes are running under the same user
    // account, the file access control mechanism allows the web interface
    // process to read and write all message queues."
    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.create_queue("/private", Uid::new(1000), Mode::new(0o600), 8);
    let (same_uid, log) = S::new(vec![open("/private", MqAccess::RW)]).logged();
    k.spawn("same-uid", 1000, Box::new(same_uid)).unwrap();
    k.run_to_quiescence();
    assert_eq!(replies(&log), vec![Reply::Qd(0)]);
}

#[test]
fn root_bypasses_queue_dac() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.create_queue("/private", Uid::new(1000), Mode::new(0o600), 8);
    let (root, log) = S::new(vec![open("/private", MqAccess::RW)]).logged();
    k.spawn("root", 0, Box::new(root)).unwrap();
    k.run_to_quiescence();
    assert_eq!(
        replies(&log),
        vec![Reply::Qd(0)],
        "root ignores the 0600 mode"
    );
}

#[test]
fn open_missing_queue_without_create_fails() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    let (p, log) = S::new(vec![open("/nope", MqAccess::READ)]).logged();
    k.spawn("p", 1000, Box::new(p)).unwrap();
    k.run_to_quiescence();
    assert_eq!(replies(&log), vec![Reply::Err(LinuxError::NoEntry)]);
}

#[test]
fn create_then_reopen_by_other_process() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    let (creator, c_log) = S::new(vec![open_creat("/new", MqAccess::WRITE, 0o622)]).logged();
    k.spawn("creator", 1000, Box::new(creator)).unwrap();
    k.run_to_quiescence();
    assert_eq!(replies(&c_log), vec![Reply::Qd(0)]);
    let (other, o_log) = S::new(vec![open("/new", MqAccess::WRITE)]).logged();
    k.spawn("other", 2000, Box::new(other)).unwrap();
    k.run_to_quiescence();
    assert_eq!(
        replies(&o_log),
        vec![Reply::Qd(0)],
        "0o622 grants others write"
    );
}

#[test]
fn full_queue_blocks_sender_until_receiver_drains() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.create_queue("/small", Uid::new(1000), Mode::new(0o666), 1);
    let (tx, tx_log) = S::new(vec![
        open("/small", MqAccess::WRITE),
        send(0, &[1]),
        send(0, &[2]), // queue full: blocks
    ])
    .logged();
    k.spawn("tx", 1000, Box::new(tx)).unwrap();
    k.run_to_quiescence();
    // Sender is now blocked; only the first send completed.
    assert_eq!(replies(&tx_log), vec![Reply::Qd(0), Reply::Ok]);
    assert_eq!(k.queue_len("/small"), Some(1));

    let (rx, rx_log) = S::new(vec![open("/small", MqAccess::READ), recv(0), recv(0)]).logged();
    k.spawn("rx", 1000, Box::new(rx)).unwrap();
    k.run_to_quiescence();
    // Receiver drained both; sender unblocked and finished.
    assert_eq!(replies(&tx_log), vec![Reply::Qd(0), Reply::Ok, Reply::Ok]);
    let got = replies(&rx_log);
    assert_eq!(got[1].data(), Some(&[1u8][..]));
    assert_eq!(got[2].data(), Some(&[2u8][..]));
    // Exactly one send hit the full queue: one ipc_wait of backpressure.
    assert_eq!(k.metrics().ipc_waits, 1);
}

#[test]
fn nonblocking_ops_return_eagain() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.create_queue("/small", Uid::new(1000), Mode::new(0o666), 1);
    let (p, log) = S::new(vec![
        open("/small", MqAccess::RW),
        Syscall::MqReceive {
            qd: 0,
            nonblocking: true,
        }, // empty
        Syscall::MqSend {
            qd: 0,
            data: vec![1],
            priority: 0,
            nonblocking: true,
        },
        Syscall::MqSend {
            qd: 0,
            data: vec![2],
            priority: 0,
            nonblocking: true,
        }, // full
    ])
    .logged();
    k.spawn("p", 1000, Box::new(p)).unwrap();
    k.run_to_quiescence();
    assert_eq!(
        replies(&log),
        vec![
            Reply::Qd(0),
            Reply::Err(LinuxError::WouldBlock),
            Reply::Ok,
            Reply::Err(LinuxError::WouldBlock),
        ]
    );
}

#[test]
fn kill_same_uid_succeeds_cross_uid_fails() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.create_queue("/park", Uid::new(1000), Mode::new(0o666), 4);
    // The victim parks on a blocking receive (it would otherwise exit when
    // run_to_quiescence fast-forwards any sleep timer).
    let victim = k
        .spawn(
            "victim",
            1000,
            Box::new(S::new(vec![open("/park", MqAccess::READ), recv(0)])),
        )
        .unwrap();
    let (cross, cross_log) = S::new(vec![Syscall::Kill {
        pid: victim,
        signal: Signal::Kill,
    }])
    .logged();
    k.spawn("cross", 2000, Box::new(cross)).unwrap();
    k.run_to_quiescence();
    assert_eq!(
        replies(&cross_log),
        vec![Reply::Err(LinuxError::NotPermitted)]
    );
    assert!(k.is_alive(victim));

    let (same, same_log) = S::new(vec![Syscall::Kill {
        pid: victim,
        signal: Signal::Kill,
    }])
    .logged();
    k.spawn("same", 1000, Box::new(same)).unwrap();
    k.run_to_quiescence();
    assert_eq!(replies(&same_log), vec![Reply::Ok]);
    assert!(!k.is_alive(victim));
    assert_eq!(k.trace().events_in("signal.kill").count(), 1);
}

#[test]
fn root_kills_anyone() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.create_queue("/park", Uid::new(1000), Mode::new(0o666), 4);
    let victim = k
        .spawn(
            "victim",
            1000,
            Box::new(S::new(vec![open("/park", MqAccess::READ), recv(0)])),
        )
        .unwrap();
    let (root, log) = S::new(vec![Syscall::Kill {
        pid: victim,
        signal: Signal::Term,
    }])
    .logged();
    k.spawn("root", 0, Box::new(root)).unwrap();
    k.run_to_quiescence();
    assert_eq!(replies(&log), vec![Reply::Ok]);
    assert!(!k.is_alive(victim));
}

#[test]
fn pidof_models_process_recon() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    let target = k
        .spawn(
            "temp_control",
            1000,
            Box::new(S::new(vec![Syscall::Sleep {
                duration: SimDuration::from_secs(100),
            }])),
        )
        .unwrap();
    let (probe, log) = S::new(vec![
        Syscall::PidOf {
            name: "temp_control".into(),
        },
        Syscall::PidOf {
            name: "ghost".into(),
        },
    ])
    .logged();
    k.spawn("probe", 2000, Box::new(probe)).unwrap();
    k.run_to_quiescence();
    let got = replies(&log);
    assert_eq!(got[0], Reply::Pid(target));
    assert_eq!(got[1], Reply::Err(LinuxError::NoSuchProcess));
}

#[test]
fn fork_bomb_hits_process_table_limit() {
    let mut k = LinuxKernel::new(LinuxConfig {
        max_procs: 8,
        ..LinuxConfig::default()
    });
    k.register_program(
        "sleeper",
        Box::new(|| {
            Box::new(S::new(vec![Syscall::Sleep {
                duration: SimDuration::from_secs(10_000),
            }]))
        }),
    );
    let bomb: Vec<Syscall> = (0..20)
        .map(|_| Syscall::Fork {
            program: "sleeper".into(),
        })
        .collect();
    let (web, log) = S::new(bomb).logged();
    k.spawn("web", 1000, Box::new(web)).unwrap();
    k.run_to_quiescence();
    let got = replies(&log);
    let ok = got.iter().filter(|r| matches!(r, Reply::Pid(_))).count();
    let full = got
        .iter()
        .filter(|r| matches!(r, Reply::Err(LinuxError::ProcessTableFull)))
        .count();
    assert_eq!(ok, 7, "8 slots minus the bomber itself");
    assert_eq!(full, 13);
}

#[test]
fn setuid_root_only() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    let (root, root_log) = S::new(vec![Syscall::SetUid { uid: 1234 }, Syscall::GetUid]).logged();
    k.spawn("root", 0, Box::new(root)).unwrap();
    let (user, user_log) = S::new(vec![Syscall::SetUid { uid: 0 }]).logged();
    k.spawn("user", 1000, Box::new(user)).unwrap();
    k.run_to_quiescence();
    assert_eq!(replies(&root_log), vec![Reply::Ok, Reply::Uid(1234)]);
    assert_eq!(
        replies(&user_log),
        vec![Reply::Err(LinuxError::NotPermitted)]
    );
}

#[test]
fn device_nodes_respect_dac_with_root_bypass() {
    use std::cell::RefCell;
    use std::rc::Rc;
    struct Reg(Rc<RefCell<i64>>);
    impl bas_sim::device::Device for Reg {
        fn read(&mut self) -> i64 {
            *self.0.borrow()
        }
        fn write(&mut self, v: i64) {
            *self.0.borrow_mut() = v;
        }
    }

    let driver_uid = Uid::new(500);
    let mut nodes = std::collections::BTreeMap::new();
    nodes.insert(DeviceId::FAN, (driver_uid, Mode::new(0o600)));
    let mut k = LinuxKernel::new(LinuxConfig {
        device_nodes: nodes,
        ..LinuxConfig::default()
    });
    let cell = Rc::new(RefCell::new(0));
    k.devices_mut()
        .register(DeviceId::FAN, Box::new(Reg(cell.clone())));

    let (driver, d_log) = S::new(vec![Syscall::DevWrite {
        dev: DeviceId::FAN,
        value: 1,
    }])
    .logged();
    k.spawn("driver", 500, Box::new(driver)).unwrap();
    let (user, u_log) = S::new(vec![Syscall::DevWrite {
        dev: DeviceId::FAN,
        value: 0,
    }])
    .logged();
    k.spawn("user", 1000, Box::new(user)).unwrap();
    let (root, r_log) = S::new(vec![Syscall::DevWrite {
        dev: DeviceId::FAN,
        value: 9,
    }])
    .logged();
    k.spawn("root", 0, Box::new(root)).unwrap();
    k.run_to_quiescence();

    assert_eq!(replies(&d_log), vec![Reply::Ok]);
    assert_eq!(replies(&u_log), vec![Reply::Err(LinuxError::AccessDenied)]);
    assert_eq!(
        replies(&r_log),
        vec![Reply::Ok],
        "root drives devices directly"
    );
    assert_eq!(*cell.borrow(), 9);
}

#[test]
fn unlink_wakes_blocked_processes_with_enoent() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.create_queue("/doomed", Uid::new(1000), Mode::new(0o666), 4);
    let (rx, rx_log) = S::new(vec![open("/doomed", MqAccess::READ), recv(0)]).logged();
    k.spawn("rx", 1000, Box::new(rx)).unwrap();
    k.run_to_quiescence(); // rx blocks in receive
    let (owner, o_log) = S::new(vec![Syscall::MqUnlink {
        name: "/doomed".into(),
    }])
    .logged();
    k.spawn("owner", 1000, Box::new(owner)).unwrap();
    k.run_to_quiescence();
    assert_eq!(replies(&o_log), vec![Reply::Ok]);
    let got = replies(&rx_log);
    assert_eq!(got[1], Reply::Err(LinuxError::NoEntry));
}

#[test]
fn priority_ordering_observed_by_receiver() {
    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.create_queue("/q", Uid::new(1000), Mode::new(0o666), 8);
    let (tx, _) = S::new(vec![
        open("/q", MqAccess::WRITE),
        Syscall::MqSend {
            qd: 0,
            data: vec![1],
            priority: 0,
            nonblocking: false,
        },
        Syscall::MqSend {
            qd: 0,
            data: vec![2],
            priority: 9,
            nonblocking: false,
        },
    ])
    .logged();
    k.spawn("tx", 1000, Box::new(tx)).unwrap();
    k.run_to_quiescence();
    let (rx, rx_log) = S::new(vec![open("/q", MqAccess::READ), recv(0), recv(0)]).logged();
    k.spawn("rx", 1000, Box::new(rx)).unwrap();
    k.run_to_quiescence();
    let got = replies(&rx_log);
    assert_eq!(got[1].data(), Some(&[2u8][..]), "priority 9 first");
    assert_eq!(got[2].data(), Some(&[1u8][..]));
}
