//! Property-based tests for the capability system's security invariants —
//! the properties seL4's formal proofs establish, checked here by
//! randomized adversarial execution.

use bas_sel4::cap::{CPtr, Capability};
use bas_sel4::cspace::CSpace;
use bas_sel4::kernel::{Sel4Config, Sel4Kernel};
use bas_sel4::message::IpcMessage;
use bas_sel4::objects::ObjId;
use bas_sel4::rights::CapRights;
use bas_sel4::syscall::{Reply, Syscall};
use bas_sim::kernel::Kernel;
use bas_sim::script::Script;
use proptest::prelude::*;

fn arb_rights() -> impl Strategy<Value = CapRights> {
    (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(read, write, grant)| CapRights {
        read,
        write,
        grant,
    })
}

proptest! {
    /// Mint never amplifies: the derived rights are always a subset.
    #[test]
    fn mint_output_is_subset(src in arb_rights(), want in arb_rights(), badge in any::<u64>()) {
        let cap = Capability::to_object(ObjId::new(1), src, 0);
        match cap.mint(want, badge) {
            Some(derived) => {
                prop_assert!(src.covers(derived.rights));
                prop_assert_eq!(derived.rights, want);
                prop_assert_eq!(derived.badge, badge);
            }
            None => prop_assert!(!src.covers(want)),
        }
    }

    /// `covers` is a partial order: reflexive and transitive.
    #[test]
    fn covers_is_a_partial_order(a in arb_rights(), b in arb_rights(), c in arb_rights()) {
        prop_assert!(a.covers(a));
        if a.covers(b) && b.covers(c) {
            prop_assert!(a.covers(c));
        }
        if a.covers(b) && b.covers(a) {
            prop_assert_eq!(a, b);
        }
    }

    /// CSpace occupancy accounting stays consistent under random
    /// insert/remove sequences.
    #[test]
    fn cspace_occupancy_consistent(ops in prop::collection::vec((any::<bool>(), 0u32..16), 0..64)) {
        let mut cs = CSpace::new(16);
        let mut model: std::collections::BTreeMap<u32, Capability> = Default::default();
        for (i, (insert, slot)) in ops.into_iter().enumerate() {
            if insert {
                let cap = Capability::to_object(ObjId::new(i as u32), CapRights::RW, i as u64);
                if let Ok(ptr) = cs.insert(cap) {
                    model.insert(ptr.slot(), cap);
                }
            } else {
                let removed = cs.remove(CPtr::new(slot)).ok();
                prop_assert_eq!(removed, model.remove(&slot));
            }
            prop_assert_eq!(cs.occupied(), model.len());
            for (s, c) in &model {
                prop_assert_eq!(cs.lookup(CPtr::new(*s)).ok(), Some(*c));
            }
        }
    }

    /// Confinement under adversarial execution: a thread that holds one
    /// endpoint capability and performs arbitrary unilateral syscalls
    /// never ends up with capabilities to new objects.
    #[test]
    fn unilateral_execution_never_gains_objects(
        ops in prop::collection::vec((0u8..6, 0u32..16, any::<u64>()), 0..40),
    ) {
        let mut k = Sel4Kernel::new(Sel4Config::default());
        let ep = k.create_endpoint();
        let steps: Vec<Syscall> = ops
            .into_iter()
            .map(|(kind, slot, badge)| match kind {
                0 => Syscall::NBSend { ep: CPtr::new(slot), msg: IpcMessage::with_label(badge) },
                1 => Syscall::NBRecv { ep: CPtr::new(slot) },
                2 => Syscall::Mint {
                    src: CPtr::new(slot),
                    rights: CapRights::ALL,
                    badge,
                },
                3 => Syscall::Identify { slot: CPtr::new(slot) },
                4 => Syscall::Delete { slot: CPtr::new(slot) },
                _ => Syscall::TcbSuspend { tcb: CPtr::new(slot) },
            })
            .collect();
        let pid = k.create_thread("adversary", Box::new(Script::<Syscall, Reply>::new(steps)));
        k.grant_endpoint(pid, ep, CapRights::WRITE_GRANT, 1).unwrap();

        let before: std::collections::BTreeSet<ObjId> =
            k.cspace_of(pid).unwrap().iter().filter_map(|(_, c)| c.object()).collect();
        k.start_thread(pid);
        k.run_to_quiescence();
        let after: std::collections::BTreeSet<ObjId> = match k.cspace_of(pid) {
            Some(cs) => cs.iter().filter_map(|(_, c)| c.object()).collect(),
            None => Default::default(),
        };
        prop_assert!(after.is_subset(&before), "gained: {:?}", after.difference(&before));
    }

    /// Rights confinement: minted copies in the adversary's own CSpace
    /// never exceed the rights of the original grant.
    #[test]
    fn unilateral_mints_never_exceed_granted_rights(
        grant in arb_rights(),
        mints in prop::collection::vec(arb_rights(), 0..10),
    ) {
        let mut k = Sel4Kernel::new(Sel4Config::default());
        let ep = k.create_endpoint();
        let steps: Vec<Syscall> = mints
            .iter()
            .enumerate()
            .map(|(i, r)| Syscall::Mint { src: CPtr::new(0), rights: *r, badge: i as u64 })
            .collect();
        let pid = k.create_thread("minter", Box::new(Script::<Syscall, Reply>::new(steps)));
        k.grant_endpoint(pid, ep, grant, 0).unwrap();
        k.start_thread(pid);
        k.run_to_quiescence();
        if let Some(cs) = k.cspace_of(pid) {
            for (_, cap) in cs.iter() {
                prop_assert!(grant.covers(cap.rights),
                    "cap {cap} exceeds granted {grant}");
            }
        }
    }
}
