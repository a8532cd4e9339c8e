//! Capability churn and the CapEvent stream on the MINIX kernel:
//! runtime ACM mutation (hook + PM RPCs), armed churn firing inside the
//! check→delivery window, and the emitted TOCTOU evidence.

use bas_acm::{AcId, AccessControlMatrix, MsgType, MsgTypeSet};
use bas_minix::error::MinixError;
use bas_minix::kernel::{MinixConfig, MinixKernel};
use bas_minix::pm;
use bas_minix::syscall::{Reply, Syscall};
use bas_sim::caps::{CapChurnOp, CapOp, ChurnKind};
use bas_sim::clock::CostModel;
use bas_sim::kernel::Kernel;
use bas_sim::script::{replies, Script};

type S = Script<Syscall, Reply>;

const TX: AcId = AcId::new(10);
const RX: AcId = AcId::new(11);

fn kernel_with(acm: AccessControlMatrix) -> MinixKernel {
    MinixKernel::new(MinixConfig {
        acm,
        cost_model: CostModel::default(),
        ..MinixConfig::default()
    })
}

fn open_acm() -> AccessControlMatrix {
    AccessControlMatrix::builder()
        .allow_all_types(TX, RX)
        .allow_all_types(RX, TX)
        .build()
}

#[test]
fn applied_revoke_denies_subsequent_sends() {
    let mut k = kernel_with(open_acm());
    k.enable_cap_trace();
    let rx = k
        .spawn(
            "rx",
            RX,
            1000,
            Box::new(S::new(vec![Syscall::Receive { from: None }])),
        )
        .unwrap();
    let (tx_script, tx_log) = S::new(vec![Syscall::send(rx, 7, [1u8])]).logged();
    k.spawn("tx", TX, 1000, Box::new(tx_script)).unwrap();

    // Revoke before the sender ever runs: a clean denial, no race.
    assert!(k.apply_cap_churn(&CapChurnOp::new(ChurnKind::Revoke, "tx", "rx")));
    k.run_to_quiescence();
    assert_eq!(replies(&tx_log), vec![Reply::Err(MinixError::CallDenied)]);

    let trace = k.cap_trace();
    let ops: Vec<CapOp> = trace.events.iter().map(|e| e.op).collect();
    // Revoke, then the failed admission check. No Use: nothing delivered.
    assert_eq!(ops, vec![CapOp::Revoke, CapOp::Check]);
    assert!(!trace.events[1].ok);
    assert_eq!(trace.events[0].cap, format!("acm:{TX}->{RX}"));
}

#[test]
fn armed_revoke_fires_inside_the_toctou_window() {
    let mut k = kernel_with(open_acm());
    k.enable_cap_trace();
    let rx = k
        .spawn(
            "rx",
            RX,
            1000,
            Box::new(S::new(vec![Syscall::Receive { from: None }])),
        )
        .unwrap();
    // Let the receiver park in Receive so the send rendezvouses instantly
    // — the adversarial case for time-based churn, trivial for armed churn.
    k.run_to_quiescence();
    let (tx_script, tx_log) = S::new(vec![Syscall::send(rx, 7, [1u8])]).logged();
    k.spawn("tx", TX, 1000, Box::new(tx_script)).unwrap();

    k.arm_cap_churn(&CapChurnOp::new(ChurnKind::Revoke, "tx", "rx"), 0);
    k.run_to_quiescence();

    // The message was delivered anyway: the kernel checked at admission,
    // the revoke landed, and delivery trusted the stale admission.
    assert_eq!(replies(&tx_log), vec![Reply::Ok]);
    assert_eq!(k.metrics().ipc_messages, 1);

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
    // The IPC edge connects the stale use to the receiver's observation.
    let use_seq = trace.events[2].seq;
    let recv_seq = trace.events[3].seq;
    assert_eq!(trace.edges, vec![(use_seq, recv_seq)]);
    assert_eq!(trace.events[2].subject, "tx");
    assert_eq!(trace.events[3].subject, "rx");
}

#[test]
fn armed_churn_counts_down_matching_checks_only() {
    let mut k = kernel_with(open_acm());
    k.enable_cap_trace();
    let rx = k
        .spawn(
            "rx",
            RX,
            1000,
            Box::new(S::new(vec![
                Syscall::Receive { from: None },
                Syscall::Receive { from: None },
            ])),
        )
        .unwrap();
    k.run_to_quiescence();
    let (tx_script, tx_log) = S::new(vec![
        Syscall::send(rx, 1, [1u8]),
        Syscall::send(rx, 2, [2u8]),
    ])
    .logged();
    k.spawn("tx", TX, 1000, Box::new(tx_script)).unwrap();

    // after_checks = 1: the first send passes untouched, the second is the
    // victim.
    k.arm_cap_churn(&CapChurnOp::new(ChurnKind::Revoke, "tx", "rx"), 1);
    k.run_to_quiescence();
    assert_eq!(replies(&tx_log), vec![Reply::Ok, Reply::Ok]);

    let trace = k.cap_trace();
    let uses: Vec<bool> = trace
        .events
        .iter()
        .filter(|e| e.op == CapOp::Use)
        .map(|e| e.ok)
        .collect();
    assert_eq!(uses, vec![true, false]);
}

#[test]
fn attenuate_keeps_only_acks() {
    let mut k = kernel_with(open_acm());
    let rx = k
        .spawn(
            "rx",
            RX,
            1000,
            Box::new(S::new(vec![Syscall::Receive { from: None }])),
        )
        .unwrap();
    let (tx_script, tx_log) = S::new(vec![
        Syscall::send(rx, 5, [1u8]),
        Syscall::send(rx, MsgType::ACK.as_u32(), [0u8; 0]),
    ])
    .logged();
    k.spawn("tx", TX, 1000, Box::new(tx_script)).unwrap();
    assert!(k.apply_cap_churn(&CapChurnOp::new(ChurnKind::Attenuate, "tx", "rx")));
    k.run_to_quiescence();
    assert_eq!(
        replies(&tx_log),
        vec![Reply::Err(MinixError::CallDenied), Reply::Ok]
    );
}

#[test]
fn pm_revoke_rpc_cuts_the_row_and_logs_provenance() {
    // rx revokes tx's row to itself via the PM RPC; the ACM must authorize
    // the RPC itself (PM_REVOKE message type on rx → PM).
    let acm = pm::allow_pm_ops(
        AccessControlMatrix::builder()
            .allow_all_types(TX, RX)
            .allow_all_types(RX, TX),
        RX,
        [pm::PM_REVOKE],
    )
    .build();
    let mut k = kernel_with(acm);
    k.enable_cap_trace();
    let (rx_script, rx_log) = S::new(vec![Syscall::sendrec(
        pm::PM_ENDPOINT,
        pm::PM_REVOKE,
        pm::encode_cap_rpc(TX, RX, MsgTypeSet::All).as_bytes(),
    )])
    .logged();
    k.spawn("rx", RX, 1000, Box::new(rx_script)).unwrap();
    k.run_to_quiescence();

    let replies = replies(&rx_log);
    assert_eq!(replies.len(), 1);
    assert_eq!(replies[0].message().expect("pm reply").mtype, pm::PM_OK);

    // The row is gone.
    assert!(!k.acm().check(TX, RX, MsgType::new(7)).is_allowed());
    let trace = k.cap_trace();
    let rev = trace
        .events
        .iter()
        .find(|e| e.op == CapOp::Revoke)
        .expect("revoke event");
    assert_eq!(rev.subject, "rx");
    assert_eq!(rev.cap, format!("acm:{TX}->{RX}"));
}

#[test]
fn pm_delegate_rpc_is_bounded_by_grantor_authority() {
    // tx may only send type 5 to rx; tx tries to delegate {5, 9} — denied.
    let acm = pm::allow_pm_ops(
        AccessControlMatrix::builder().allow(TX, RX, [MsgType::new(5)]),
        TX,
        [pm::PM_DELEGATE],
    )
    .build();
    let mut k = kernel_with(acm);
    let (tx_script, tx_log) = S::new(vec![
        Syscall::sendrec(
            pm::PM_ENDPOINT,
            pm::PM_DELEGATE,
            pm::encode_cap_rpc(RX, RX, MsgTypeSet::of([MsgType::new(5), MsgType::new(9)]))
                .as_bytes(),
        ),
        Syscall::sendrec(
            pm::PM_ENDPOINT,
            pm::PM_DELEGATE,
            pm::encode_cap_rpc(RX, RX, MsgTypeSet::of([MsgType::new(5)])).as_bytes(),
        ),
    ])
    .logged();
    k.spawn("tx", TX, 1000, Box::new(tx_script)).unwrap();
    k.spawn("rx", RX, 1000, Box::new(S::new(vec![Syscall::GetUptime])))
        .unwrap();
    k.run_to_quiescence();

    let replies = replies(&tx_log);
    assert_eq!(replies.len(), 2);
    // Over-broad delegation rejected; subset delegation accepted.
    assert_eq!(replies[0].message().expect("reply").mtype, pm::PM_ERR);
    assert_eq!(replies[1].message().expect("reply").mtype, pm::PM_OK);
    assert!(k.acm().check(RX, RX, MsgType::new(5)).is_allowed());
    assert!(!k.acm().check(RX, RX, MsgType::new(9)).is_allowed());
    assert_eq!(k.delegations().records.len(), 1);
    assert_eq!(k.delegations().records[0].grantor, TX);
    // The refusal is counted and recorded together.
    let deny_records = k
        .trace()
        .events()
        .iter()
        .filter(|e| e.category().ends_with(".deny"))
        .count();
    assert_eq!(deny_records, 1);
    assert_eq!(k.metrics().access_denied, deny_records as u64);
}
