//! Property-based tests for MINIX message formats and kernel-level
//! security invariants.

use bas_acm::{AcId, AccessControlMatrix, MsgType};
use bas_minix::endpoint::Endpoint;
use bas_minix::kernel::{MinixConfig, MinixKernel};
use bas_minix::message::{Payload, PAYLOAD_LEN};
use bas_minix::syscall::{Reply, Syscall};
use bas_sim::script::{replies, Script};
use proptest::prelude::*;

type S = Script<Syscall, Reply>;

proptest! {
    /// Payload field codecs round-trip at any valid offset.
    #[test]
    fn payload_u32_roundtrip(offset in 0usize..=PAYLOAD_LEN - 4, value in any::<u32>()) {
        let mut p = Payload::zeroed();
        p.write_u32(offset, value);
        prop_assert_eq!(p.read_u32(offset), value);
    }

    /// 64-bit fields too.
    #[test]
    fn payload_u64_roundtrip(offset in 0usize..=PAYLOAD_LEN - 8, value in any::<u64>()) {
        let mut p = Payload::zeroed();
        p.write_u64(offset, value);
        prop_assert_eq!(p.read_u64(offset), value);
    }

    /// Non-overlapping writes never disturb each other.
    #[test]
    fn payload_disjoint_writes_commute(
        a_off in 0usize..=PAYLOAD_LEN - 4,
        b_off in 0usize..=PAYLOAD_LEN - 4,
        a in any::<u32>(),
        b in any::<u32>(),
    ) {
        prop_assume!(a_off.abs_diff(b_off) >= 4);
        let mut p = Payload::zeroed();
        p.write_u32(a_off, a);
        p.write_u32(b_off, b);
        prop_assert_eq!(p.read_u32(a_off), a);
        prop_assert_eq!(p.read_u32(b_off), b);
    }

    /// Endpoint wire form round-trips for every slot/generation pair.
    #[test]
    fn endpoint_raw_roundtrip(slot in any::<u16>(), generation in any::<u16>()) {
        let e = Endpoint::new(slot, generation);
        prop_assert_eq!(Endpoint::from_raw(e.as_raw()), e);
    }

    /// Kernel-level mandatory control: for any (possibly empty) allowed
    /// type set, a message is delivered iff its type is in the set —
    /// regardless of payload and regardless of sender uid.
    #[test]
    fn kernel_honors_acm_exactly(
        allowed in prop::collection::btree_set(0u32..8, 0..5),
        attempt in 0u32..8,
        sender_uid in prop::sample::select(vec![0u32, 1000]),
        payload_bytes in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let tx = AcId::new(10);
        let rx = AcId::new(11);
        let acm = AccessControlMatrix::builder()
            .allow(tx, rx, allowed.iter().map(|t| MsgType::new(*t)))
            .build();
        let mut k = MinixKernel::new(MinixConfig { acm, ..MinixConfig::default() });
        let rx_ep = k
            .spawn("rx", rx, 1000, Box::new(S::new(vec![
                Syscall::Receive { from: None },
            ])))
            .unwrap();
        let (tx_script, log) = S::new(vec![Syscall::Send {
            dest: rx_ep,
            mtype: attempt,
            payload: Payload::from_bytes(&payload_bytes),
        }])
        .logged();
        k.spawn("tx", tx, sender_uid, Box::new(tx_script)).unwrap();
        k.run_to_quiescence();

        let replies = replies(&log);
        let should_pass = allowed.contains(&attempt);
        if should_pass {
            prop_assert_eq!(&replies[..], &[Reply::Ok][..]);
            prop_assert_eq!(k.metrics().ipc_messages, 1);
        } else {
            prop_assert_eq!(
                &replies[..],
                &[Reply::Err(bas_minix::error::MinixError::CallDenied)][..]
            );
            prop_assert_eq!(k.metrics().ipc_messages, 0);
            prop_assert_eq!(k.metrics().access_denied, 1);
        }
    }

    /// Source-identity integrity: whatever bytes a sender puts in the
    /// payload, the receiver sees the kernel-stamped sender endpoint.
    #[test]
    fn delivered_source_is_always_truthful(payload_bytes in prop::collection::vec(any::<u8>(), 0..PAYLOAD_LEN)) {
        let tx = AcId::new(10);
        let rx = AcId::new(11);
        let acm = AccessControlMatrix::builder().allow_all_types(tx, rx).build();
        let mut k = MinixKernel::new(MinixConfig { acm, ..MinixConfig::default() });
        let (rx_script, rx_log) =
            S::new(vec![Syscall::Receive { from: None }]).logged();
        let rx_ep = k.spawn("rx", rx, 1000, Box::new(rx_script)).unwrap();
        let tx_ep = k
            .spawn("tx", tx, 1000, Box::new(S::new(vec![Syscall::Send {
                dest: rx_ep,
                mtype: 1,
                payload: Payload::from_bytes(&payload_bytes),
            }])))
            .unwrap();
        k.run_to_quiescence();
        let got = replies(&rx_log);
        let msg = got[0].message().expect("delivered");
        prop_assert_eq!(msg.source, tx_ep);
    }
}
