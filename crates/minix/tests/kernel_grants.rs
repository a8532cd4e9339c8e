//! Kernel-level memory grants: the §III-A "memory grants" primitive,
//! end-to-end through syscalls — including the security angle: grants
//! bind to kernel-held endpoint identity, so no third process (root or
//! not) can use someone else's grant.

use bas_acm::{AcId, AccessControlMatrix};
use bas_minix::error::MinixError;
use bas_minix::grant::{BufId, GrantId, GrantPerms, MemBytes};
use bas_minix::kernel::{MinixConfig, MinixKernel};
use bas_minix::syscall::{Reply, Syscall};
use bas_sim::kernel::Kernel;
use bas_sim::script::{replies, Script};

type S = Script<Syscall, Reply>;

const GRANTER: AcId = AcId::new(10);
const GRANTEE: AcId = AcId::new(11);
const INTRUDER: AcId = AcId::new(12);

fn kernel() -> MinixKernel {
    // Grants need no ACM rows: the grant itself is the authorization.
    MinixKernel::new(MinixConfig {
        acm: AccessControlMatrix::deny_all(),
        ..MinixConfig::default()
    })
}

/// Slot prediction: spawns fill slots 1, 2, 3 in order.
fn ep(slot: u16) -> bas_minix::endpoint::Endpoint {
    bas_minix::endpoint::Endpoint::new(slot, 0)
}

#[test]
fn grantee_round_trips_data_through_a_grant() {
    let mut k = kernel();
    // Granter (slot 1): create buffer, fill it, grant a window to the
    // grantee (slot 2), then idle.
    let (granter, granter_log) = S::new(vec![
        Syscall::MemCreate { size: 64 },
        Syscall::MemWrite {
            buf: BufId(0),
            offset: 0,
            data: MemBytes::new(&[10, 20, 30, 40]),
        },
        Syscall::GrantCreate {
            buf: BufId(0),
            offset: 0,
            len: 32,
            grantee: ep(2),
            perms: GrantPerms::RW,
        },
        Syscall::Receive { from: None }, // stay alive
    ])
    .logged();
    k.spawn("granter", GRANTER, 1000, Box::new(granter))
        .unwrap();

    // Grantee (slot 2): wait for the grant to exist, then read through
    // it, write back, re-read.
    let (grantee, grantee_log) = S::new(vec![
        Syscall::Sleep {
            duration: bas_sim::time::SimDuration::from_millis(100),
        },
        Syscall::SafeCopyFrom {
            granter: ep(1),
            grant: GrantId(0),
            offset: 0,
            len: 4,
        },
        Syscall::SafeCopyTo {
            granter: ep(1),
            grant: GrantId(0),
            offset: 4,
            data: vec![99, 98],
        },
        Syscall::SafeCopyFrom {
            granter: ep(1),
            grant: GrantId(0),
            offset: 0,
            len: 6,
        },
    ])
    .logged();
    k.spawn("grantee", GRANTEE, 1000, Box::new(grantee))
        .unwrap();
    k.run_to_quiescence();

    let g = replies(&granter_log);
    assert_eq!(g[0], Reply::Buf(BufId(0)));
    assert_eq!(g[1], Reply::Ok);
    assert_eq!(g[2], Reply::Granted(GrantId(0)));

    let got = replies(&grantee_log);
    assert_eq!(got[1], Reply::Bytes(vec![10, 20, 30, 40]));
    assert_eq!(got[2], Reply::Ok);
    assert_eq!(got[3], Reply::Bytes(vec![10, 20, 30, 40, 99, 98]));
    assert!(
        k.metrics().ipc_bytes >= 12,
        "safe-copies charged as ipc bytes"
    );
}

#[test]
fn third_process_cannot_use_someone_elses_grant() {
    let mut k = kernel();
    let (granter, _) = S::new(vec![
        Syscall::MemCreate { size: 16 },
        Syscall::GrantCreate {
            buf: BufId(0),
            offset: 0,
            len: 16,
            grantee: ep(2),
            perms: GrantPerms::RW,
        },
        Syscall::Receive { from: None },
    ])
    .logged();
    k.spawn("granter", GRANTER, 1000, Box::new(granter))
        .unwrap();
    k.spawn(
        "grantee",
        GRANTEE,
        1000,
        Box::new(S::new(vec![
            Syscall::Receive { from: None }, // passive; just occupies slot 2
        ])),
    )
    .unwrap();
    // The intruder (slot 3) knows the grant id and granter — and runs as
    // ROOT — but is not the grantee.
    let (intruder, log) = S::new(vec![
        Syscall::Sleep {
            duration: bas_sim::time::SimDuration::from_millis(100),
        },
        Syscall::SafeCopyFrom {
            granter: ep(1),
            grant: GrantId(0),
            offset: 0,
            len: 4,
        },
        Syscall::SafeCopyTo {
            granter: ep(1),
            grant: GrantId(0),
            offset: 0,
            data: vec![1],
        },
    ])
    .logged();
    k.spawn("intruder", INTRUDER, 0, Box::new(intruder))
        .unwrap();
    k.run_to_quiescence();

    assert_eq!(
        replies(&log),
        vec![
            Reply::Ok,
            Reply::Err(MinixError::PermissionDenied),
            Reply::Err(MinixError::PermissionDenied),
        ],
        "grants bind to kernel identity, not uid"
    );
    assert_eq!(k.metrics().access_denied, 2);
    assert_eq!(k.trace().events_in("grant.deny").count(), 2);
}

#[test]
fn revocation_cuts_off_a_live_grantee() {
    let mut k = kernel();
    let (granter, _) = S::new(vec![
        Syscall::MemCreate { size: 16 },
        Syscall::GrantCreate {
            buf: BufId(0),
            offset: 0,
            len: 16,
            grantee: ep(2),
            perms: GrantPerms::READ,
        },
        // Let the grantee do its first read, then revoke.
        Syscall::Sleep {
            duration: bas_sim::time::SimDuration::from_millis(500),
        },
        Syscall::GrantRevoke { grant: GrantId(0) },
        Syscall::Receive { from: None },
    ])
    .logged();
    k.spawn("granter", GRANTER, 1000, Box::new(granter))
        .unwrap();
    let (grantee, log) = S::new(vec![
        Syscall::Sleep {
            duration: bas_sim::time::SimDuration::from_millis(100),
        },
        Syscall::SafeCopyFrom {
            granter: ep(1),
            grant: GrantId(0),
            offset: 0,
            len: 1,
        },
        Syscall::Sleep {
            duration: bas_sim::time::SimDuration::from_secs(1),
        },
        Syscall::SafeCopyFrom {
            granter: ep(1),
            grant: GrantId(0),
            offset: 0,
            len: 1,
        },
    ])
    .logged();
    k.spawn("grantee", GRANTEE, 1000, Box::new(grantee))
        .unwrap();
    k.run_to_quiescence();

    let got = replies(&log);
    assert_eq!(got[0], Reply::Ok, "settling sleep");
    assert_eq!(got[1], Reply::Bytes(vec![0]), "first read succeeds");
    assert_eq!(got[2], Reply::Ok, "sleep");
    assert_eq!(
        got[3],
        Reply::Err(MinixError::InvalidArgument),
        "revoked grant is gone"
    );
}

#[test]
fn grant_dies_with_the_granter() {
    let mut k = kernel();
    // Granter exits immediately after granting.
    k.spawn(
        "granter",
        GRANTER,
        1000,
        Box::new(S::new(vec![
            Syscall::MemCreate { size: 8 },
            Syscall::GrantCreate {
                buf: BufId(0),
                offset: 0,
                len: 8,
                grantee: ep(2),
                perms: GrantPerms::READ,
            },
        ])),
    )
    .unwrap();
    let (grantee, log) = S::new(vec![
        Syscall::Sleep {
            duration: bas_sim::time::SimDuration::from_secs(1),
        },
        Syscall::SafeCopyFrom {
            granter: ep(1),
            grant: GrantId(0),
            offset: 0,
            len: 1,
        },
    ])
    .logged();
    k.spawn("grantee", GRANTEE, 1000, Box::new(grantee))
        .unwrap();
    k.run_to_quiescence();
    assert_eq!(
        replies(&log)[1],
        Reply::Err(MinixError::DeadSourceOrDestination),
        "stale endpoint generation: the dead granter's memory is unreachable"
    );
}
