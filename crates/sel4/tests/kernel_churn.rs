//! Churn sweeps and the CapEvent stream on the seL4 kernel: CDT-tracked
//! revoke/attenuate, armed sweeps firing inside the check→delivery
//! window, and the emitted TOCTOU evidence.

use bas_sel4::cap::CPtr;
use bas_sel4::error::Sel4Error;
use bas_sel4::kernel::{ChurnSweep, Sel4Config, Sel4Kernel};
use bas_sel4::message::IpcMessage;
use bas_sel4::rights::CapRights;
use bas_sel4::syscall::{Reply, Syscall};
use bas_sim::caps::{CapOp, ChurnKind};
use bas_sim::kernel::Kernel;
use bas_sim::process::Pid;
use bas_sim::script::{replies, Script};

type S = Script<Syscall, Reply>;

fn kernel() -> Sel4Kernel {
    Sel4Kernel::new(Sel4Config::default())
}

fn revoke_sweep(holder: Pid, objs: Vec<bas_sel4::objects::ObjId>) -> ChurnSweep {
    ChurnSweep {
        kind: ChurnKind::Revoke,
        actor: "churn-sched".into(),
        holder,
        objs,
        rights: CapRights::NONE,
        badge: 0,
    }
}

#[test]
fn revoke_sweep_removes_cap_and_denies_next_send() {
    let mut k = kernel();
    k.enable_cap_trace();
    let ep = k.create_endpoint();
    let (client, log) = S::new(vec![Syscall::Send {
        ep: CPtr::new(0),
        msg: IpcMessage::with_label(1),
    }])
    .logged();
    let pid = k.create_thread("client", Box::new(client));
    k.grant_endpoint(pid, ep, CapRights::WRITE, 0).unwrap();

    assert!(k.apply_churn_sweep(&revoke_sweep(pid, vec![ep])));
    assert_eq!(k.cspace_of(pid).unwrap().occupied(), 0);
    k.start_thread(pid);
    k.run_to_quiescence();

    // The capability is simply gone: the lookup itself fails.
    assert_eq!(
        replies(&log),
        vec![Reply::Err(Sel4Error::InvalidCapability)]
    );
    let trace = k.cap_trace();
    assert_eq!(trace.events.len(), 1);
    assert_eq!(trace.events[0].op, CapOp::Revoke);
    assert!(trace.events[0].ok);
    // Revoking again is a no-op.
    assert!(!k.apply_churn_sweep(&revoke_sweep(pid, vec![ep])));
}

#[test]
fn revoke_sweep_reaps_cdt_descendants_in_other_cspaces() {
    // client holds a grant-capable endpoint cap and transfers a copy to
    // peer; revoking the client's cap must also reap peer's derived copy.
    let mut k = kernel();
    let ep = k.create_endpoint();
    let transfer_ep = k.create_endpoint();

    // Both scripts end in a blocking Recv so the threads (and their
    // CSpaces) survive past the transfer.
    let (peer, _peer_log) = S::new(vec![
        Syscall::Recv { ep: CPtr::new(0) },
        Syscall::Recv { ep: CPtr::new(0) },
    ])
    .logged();
    let peer_pid = k.create_thread("peer", Box::new(peer));
    let (client, client_log) = S::new(vec![
        Syscall::Send {
            ep: CPtr::new(1),
            msg: IpcMessage::with_label(5).with_cap(CPtr::new(0)),
        },
        Syscall::Recv { ep: CPtr::new(1) },
    ])
    .logged();
    let client_pid = k.create_thread("client", Box::new(client));

    // Slot 0: the cap being copied. Slot 1: the transfer channel.
    k.grant_endpoint(client_pid, ep, CapRights::ALL, 7).unwrap();
    k.grant_endpoint(client_pid, transfer_ep, CapRights::ALL, 0)
        .unwrap();
    k.grant_endpoint(peer_pid, transfer_ep, CapRights::READ, 0)
        .unwrap();
    k.start_thread(peer_pid);
    k.start_thread(client_pid);
    k.run_to_quiescence();

    assert_eq!(replies(&client_log), vec![Reply::Ok]);
    assert_eq!(k.cspace_of(peer_pid).unwrap().occupied(), 2);

    // Revoke the client's cap on `ep`: the transferred copy dies with it.
    assert!(k.apply_churn_sweep(&revoke_sweep(client_pid, vec![ep])));
    let peer_objs: Vec<_> = k
        .cspace_of(peer_pid)
        .unwrap()
        .iter()
        .filter_map(|(_, c)| c.object())
        .collect();
    assert_eq!(peer_objs, vec![transfer_ep], "derived copy of ep reaped");
}

#[test]
fn armed_revoke_fires_inside_the_toctou_window() {
    let mut k = kernel();
    k.enable_cap_trace();
    let ep = k.create_endpoint();
    let (server, server_log) = S::new(vec![Syscall::Recv { ep: CPtr::new(0) }]).logged();
    let server_pid = k.create_thread("server", Box::new(server));
    let (client, client_log) = S::new(vec![Syscall::Send {
        ep: CPtr::new(0),
        msg: IpcMessage::with_label(9),
    }])
    .logged();
    let client_pid = k.create_thread("client", Box::new(client));
    k.grant_endpoint(server_pid, ep, CapRights::READ, 0)
        .unwrap();
    k.grant_endpoint(client_pid, ep, CapRights::WRITE, 0)
        .unwrap();

    k.arm_churn_sweep(revoke_sweep(client_pid, vec![ep]), 0);
    k.start_thread(server_pid);
    k.start_thread(client_pid);
    k.run_to_quiescence();

    // Delivered anyway: the rights check passed, the revoke landed, and
    // the transfer trusted the stale admission.
    assert_eq!(replies(&client_log), vec![Reply::Ok]);
    assert_eq!(replies(&server_log).len(), 1);

    let trace = k.cap_trace();
    let ops: Vec<(CapOp, bool)> = trace.events.iter().map(|e| (e.op, e.ok)).collect();
    assert_eq!(
        ops,
        vec![
            (CapOp::Check, true),
            (CapOp::Revoke, true),
            (CapOp::Use, false),
            (CapOp::Recv, true),
        ]
    );
    assert_eq!(
        trace.edges,
        vec![(trace.events[2].seq, trace.events[3].seq)]
    );
    assert_eq!(trace.events[0].subject, "client");
    assert_eq!(trace.events[3].subject, "server");
}

#[test]
fn attenuate_sweep_strips_write_right() {
    let mut k = kernel();
    let ep = k.create_endpoint();
    let (client, log) = S::new(vec![Syscall::Send {
        ep: CPtr::new(0),
        msg: IpcMessage::with_label(1),
    }])
    .logged();
    let pid = k.create_thread("client", Box::new(client));
    k.grant_endpoint(pid, ep, CapRights::RW, 0).unwrap();

    let sweep = ChurnSweep {
        kind: ChurnKind::Attenuate,
        actor: "churn-sched".into(),
        holder: pid,
        objs: vec![ep],
        rights: CapRights::READ,
        badge: 0,
    };
    assert!(k.apply_churn_sweep(&sweep));
    // Second application is a no-op (already narrowed).
    assert!(!k.apply_churn_sweep(&sweep));

    k.start_thread(pid);
    k.run_to_quiescence();
    assert_eq!(
        replies(&log),
        vec![Reply::Err(Sel4Error::InsufficientRights)]
    );
}
