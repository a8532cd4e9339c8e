//! Integration tests for the PM server: fork2, kill (with ACM auditing and
//! DAC), exit, getpid, fork bombs and quotas, and device ownership.

use bas_acm::{AcId, AccessControlMatrix, QuotaTable, SyscallClass};
use bas_minix::error::MinixError;
use bas_minix::kernel::{MinixConfig, MinixKernel};
use bas_minix::pm::{
    self, decode_err, decode_fork2_ok, encode_fork2, encode_kill, PM_ENDPOINT, PM_ERR, PM_EXIT,
    PM_FORK2, PM_GETPID, PM_KILL, PM_OK,
};
use bas_minix::syscall::{Reply, Syscall};
use bas_sim::device::DeviceId;
use bas_sim::kernel::Kernel;
use bas_sim::script::{replies, Script};

type S = Script<Syscall, Reply>;

const LOADER: AcId = AcId::new(2);
const CHILD: AcId = AcId::new(100);
const WEB: AcId = AcId::new(104);

fn pm_acm(kill_for_loader: bool) -> AccessControlMatrix {
    let b = AccessControlMatrix::builder();
    let b = pm::allow_pm_ops(
        b,
        LOADER,
        if kill_for_loader {
            vec![PM_FORK2, PM_KILL, PM_EXIT, PM_GETPID]
        } else {
            vec![PM_FORK2, PM_EXIT, PM_GETPID]
        },
    );
    // Web interface may fork (the paper notes it can) but never kill.
    pm::allow_pm_ops(b, WEB, [PM_FORK2]).build()
}

#[test]
fn fork2_loads_registered_program_with_given_ac_id() {
    let mut k = MinixKernel::new(MinixConfig {
        acm: pm_acm(false),
        ..MinixConfig::default()
    });
    let prog = k.register_program(
        "worker",
        Box::new(|| Box::new(S::new(vec![Syscall::WhoAmI]))),
    );
    let (loader, log) = S::new(vec![Syscall::SendRec {
        dest: PM_ENDPOINT,
        mtype: PM_FORK2,
        payload: encode_fork2(prog, CHILD, 1234),
    }])
    .logged();
    k.spawn("loader", LOADER, 0, Box::new(loader)).unwrap();
    k.run_to_quiescence();
    let replies = replies(&log);
    let msg = replies[0].message().expect("PM replied");
    assert_eq!(msg.source, PM_ENDPOINT);
    assert_eq!(msg.mtype, PM_OK);
    let child_ep = decode_fork2_ok(&msg.payload);
    // Child ran and exited (its WhoAmI completed); it was created.
    assert_eq!(k.metrics().processes_created, 2);
    assert!(child_ep.slot() > 0);
}

#[test]
fn fork2_unknown_program_errors() {
    let mut k = MinixKernel::new(MinixConfig {
        acm: pm_acm(false),
        ..MinixConfig::default()
    });
    let (loader, log) = S::new(vec![Syscall::SendRec {
        dest: PM_ENDPOINT,
        mtype: PM_FORK2,
        payload: encode_fork2(99, CHILD, 0),
    }])
    .logged();
    k.spawn("loader", LOADER, 0, Box::new(loader)).unwrap();
    k.run_to_quiescence();
    let msg = *replies(&log)[0].message().unwrap();
    assert_eq!(msg.mtype, PM_ERR);
    assert_eq!(decode_err(&msg.payload), Some(MinixError::NoSuchProgram));
}

#[test]
fn kill_requires_acm_channel_web_interface_denied() {
    // The paper's key result: even with root, the web interface cannot
    // kill, because the ACM denies the KILL message type to PM.
    let mut k = MinixKernel::new(MinixConfig {
        acm: pm_acm(true),
        ..MinixConfig::default()
    });
    let victim = k
        .spawn(
            "victim",
            CHILD,
            1000,
            Box::new(S::new(vec![Syscall::Receive { from: None }])),
        )
        .unwrap();
    let (web, log) = S::new(vec![Syscall::SendRec {
        dest: PM_ENDPOINT,
        mtype: PM_KILL,
        payload: encode_kill(victim),
    }])
    .logged();
    k.spawn("web", WEB, 0, Box::new(web)).unwrap(); // uid 0 = root!
    k.run_to_quiescence();
    assert_eq!(
        replies(&log),
        vec![Reply::Err(MinixError::CallDenied)],
        "ACM drops the KILL request before PM sees it, root or not"
    );
    assert!(k.is_alive(victim), "victim unharmed");
    assert_eq!(k.metrics().access_denied, 1);
}

#[test]
fn kill_allowed_by_acm_still_needs_uid_permission() {
    let mut k = MinixKernel::new(MinixConfig {
        acm: pm_acm(true),
        ..MinixConfig::default()
    });
    let victim = k
        .spawn(
            "victim",
            CHILD,
            1000,
            Box::new(S::new(vec![Syscall::Receive { from: None }])),
        )
        .unwrap();
    // Loader is allowed KILL by ACM but runs as uid 42 ≠ victim's 1000.
    let (loader, log) = S::new(vec![Syscall::SendRec {
        dest: PM_ENDPOINT,
        mtype: PM_KILL,
        payload: encode_kill(victim),
    }])
    .logged();
    k.spawn("loader", LOADER, 42, Box::new(loader)).unwrap();
    k.run_to_quiescence();
    let msg = *replies(&log)[0].message().unwrap();
    assert_eq!(msg.mtype, PM_ERR);
    assert_eq!(decode_err(&msg.payload), Some(MinixError::PermissionDenied));
    assert!(k.is_alive(victim));
}

#[test]
fn root_with_acm_permission_can_kill() {
    let mut k = MinixKernel::new(MinixConfig {
        acm: pm_acm(true),
        ..MinixConfig::default()
    });
    let victim = k
        .spawn(
            "victim",
            CHILD,
            1000,
            Box::new(S::new(vec![Syscall::Receive { from: None }])),
        )
        .unwrap();
    let (loader, log) = S::new(vec![Syscall::SendRec {
        dest: PM_ENDPOINT,
        mtype: PM_KILL,
        payload: encode_kill(victim),
    }])
    .logged();
    k.spawn("loader", LOADER, 0, Box::new(loader)).unwrap();
    k.run_to_quiescence();
    let msg = *replies(&log)[0].message().unwrap();
    assert_eq!(msg.mtype, PM_OK);
    assert!(!k.is_alive(victim));
    assert_eq!(k.trace().events_in("pm.kill").count(), 1);
}

#[test]
fn pm_itself_cannot_be_killed() {
    let mut k = MinixKernel::new(MinixConfig {
        acm: pm_acm(true),
        ..MinixConfig::default()
    });
    let (loader, log) = S::new(vec![Syscall::SendRec {
        dest: PM_ENDPOINT,
        mtype: PM_KILL,
        payload: encode_kill(PM_ENDPOINT),
    }])
    .logged();
    k.spawn("loader", LOADER, 0, Box::new(loader)).unwrap();
    k.run_to_quiescence();
    let msg = *replies(&log)[0].message().unwrap();
    assert_eq!(decode_err(&msg.payload), Some(MinixError::PermissionDenied));
}

#[test]
fn exit_via_pm_terminates_caller() {
    let mut k = MinixKernel::new(MinixConfig {
        acm: pm_acm(false),
        ..MinixConfig::default()
    });
    let p = k
        .spawn(
            "quitter",
            LOADER,
            0,
            Box::new(S::new(vec![
                Syscall::Send {
                    dest: PM_ENDPOINT,
                    mtype: PM_EXIT,
                    payload: bas_minix::message::Payload::zeroed(),
                },
                // Never reached:
                Syscall::GetUptime,
            ])),
        )
        .unwrap();
    k.run_to_quiescence();
    assert!(!k.is_alive(p));
    assert_eq!(k.metrics().processes_reaped, 1);
}

#[test]
fn getpid_returns_pid_and_endpoint() {
    let mut k = MinixKernel::new(MinixConfig {
        acm: pm_acm(false),
        ..MinixConfig::default()
    });
    let (p, log) = S::new(vec![Syscall::SendRec {
        dest: PM_ENDPOINT,
        mtype: PM_GETPID,
        payload: bas_minix::message::Payload::zeroed(),
    }])
    .logged();
    let ep = k.spawn("asker", LOADER, 0, Box::new(p)).unwrap();
    k.run_to_quiescence();
    let msg = *replies(&log)[0].message().unwrap();
    assert_eq!(msg.mtype, PM_OK);
    assert_eq!(msg.payload.read_u32(0), u32::from(ep.slot()));
    assert_eq!(msg.payload.read_u32(4), ep.as_raw());
}

#[test]
fn fork_bomb_fills_process_table_without_quota() {
    // §IV-D.2: "because web interface process has the privilege to fork
    // children processes, it can potentially launch a fork bomb to eat up
    // system resources. This is problematic..."
    let mut k = MinixKernel::new(MinixConfig {
        acm: pm_acm(false),
        max_procs: 8,
        ..MinixConfig::default()
    });
    let prog = k.register_program(
        "sleeper",
        Box::new(|| Box::new(S::new(vec![Syscall::Receive { from: None }]))),
    );
    let bomb: Vec<Syscall> = (0..20)
        .map(|_| Syscall::SendRec {
            dest: PM_ENDPOINT,
            mtype: PM_FORK2,
            payload: encode_fork2(prog, CHILD, 1000),
        })
        .collect();
    let (web, log) = S::new(bomb).logged();
    k.spawn("web", WEB, 1000, Box::new(web)).unwrap();
    k.run_to_quiescence();
    let replies = replies(&log);
    let full_errors = replies
        .iter()
        .filter_map(|r| r.message())
        .filter(|m| {
            m.mtype == PM_ERR && decode_err(&m.payload) == Some(MinixError::ProcessTableFull)
        })
        .count();
    assert!(full_errors > 0, "table eventually full");
    // 8 slots minus PM (slot 0) minus the web process itself = 6 sleeper
    // children; the web process exits after its script, the sleepers
    // remain blocked in receive.
    assert_eq!(
        k.process_count(),
        6,
        "sleeper children fill every remaining slot"
    );
}

#[test]
fn fork_quota_contains_fork_bomb() {
    // The paper's proposed fix: "using the ACM to give each system call a
    // quota."
    let mut quotas = QuotaTable::new();
    quotas.set_limit(WEB, SyscallClass::Fork, 2);
    let mut k = MinixKernel::new(MinixConfig {
        acm: pm_acm(false),
        quotas,
        max_procs: 32,
        ..MinixConfig::default()
    });
    let prog = k.register_program(
        "sleeper",
        Box::new(|| Box::new(S::new(vec![Syscall::Receive { from: None }]))),
    );
    let bomb: Vec<Syscall> = (0..10)
        .map(|_| Syscall::SendRec {
            dest: PM_ENDPOINT,
            mtype: PM_FORK2,
            payload: encode_fork2(prog, CHILD, 1000),
        })
        .collect();
    let (web, log) = S::new(bomb).logged();
    k.spawn("web", WEB, 1000, Box::new(web)).unwrap();
    k.run_to_quiescence();
    let replies = replies(&log);
    let ok = replies
        .iter()
        .filter_map(|r| r.message())
        .filter(|m| m.mtype == PM_OK)
        .count();
    let quota_errors = replies
        .iter()
        .filter_map(|r| r.message())
        .filter(|m| decode_err(&m.payload) == Some(MinixError::QuotaExceeded))
        .count();
    assert_eq!(ok, 2, "only the quota'd forks succeed");
    assert_eq!(quota_errors, 8);
    assert_eq!(k.trace().events_in("quota.deny").count(), 8);
}

#[test]
fn device_access_gated_by_ownership() {
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

    let dev = DeviceId::FAN;
    let mut owners = std::collections::BTreeMap::new();
    owners.insert(dev, CHILD); // the driver identity owns the fan
    let mut k = MinixKernel::new(MinixConfig {
        acm: AccessControlMatrix::deny_all(),
        device_owners: owners,
        ..MinixConfig::default()
    });
    let cell = Rc::new(RefCell::new(0));
    k.devices_mut().register(dev, Box::new(Reg(cell.clone())));

    // The driver can write.
    let (driver, driver_log) = S::new(vec![Syscall::DevWrite { dev, value: 1 }]).logged();
    k.spawn("driver", CHILD, 1000, Box::new(driver)).unwrap();
    // The web interface cannot — not even as root.
    let (web, web_log) = S::new(vec![Syscall::DevWrite { dev, value: 0 }]).logged();
    k.spawn("web", WEB, 0, Box::new(web)).unwrap();
    k.run_to_quiescence();

    assert_eq!(replies(&driver_log), vec![Reply::Ok]);
    assert_eq!(
        replies(&web_log),
        vec![Reply::Err(MinixError::DeviceAccessDenied)]
    );
    assert_eq!(
        *cell.borrow(),
        1,
        "driver's write landed; attacker's was dropped"
    );
    assert_eq!(k.trace().events_in("dev.deny").count(), 1);
}

#[test]
fn sleep_advances_virtual_time_accurately() {
    let mut k = MinixKernel::new(MinixConfig {
        acm: pm_acm(false),
        ..MinixConfig::default()
    });
    let (p, log) = S::new(vec![
        Syscall::Sleep {
            duration: bas_sim::time::SimDuration::from_secs(5),
        },
        Syscall::GetUptime,
    ])
    .logged();
    k.spawn("sleeper", LOADER, 0, Box::new(p)).unwrap();
    k.run_to_quiescence();
    let replies = replies(&log);
    assert_eq!(replies[0], Reply::Ok);
    match replies[1] {
        Reply::Uptime(t) => assert!(t.as_secs() >= 5, "woke at {t}"),
        ref other => panic!("expected uptime, got {other:?}"),
    }
}
