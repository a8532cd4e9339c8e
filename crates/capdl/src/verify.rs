//! Auditing a live kernel against its spec.
//!
//! §IV-D.3: "we expect this file to be correct (for high-assurance systems
//! this file can also be machine verified with the correlating source
//! code)." [`verify`] is that machine check for the simulated kernel: every
//! thread's CSpace must hold *exactly* the declared capabilities — nothing
//! missing, nothing extra, rights/badges/targets equal.

use std::fmt;

use bas_sel4::cap::CPtr;
use bas_sel4::kernel::Sel4Kernel;
use bas_sel4::objects::{KernelObject, ObjId};

use crate::realize::RealizedSystem;
use crate::spec::{CapDlSpec, CapTargetSpec, SpecObjKind};

/// One deviation between the spec and the live system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyIssue {
    /// A declared thread no longer exists.
    ThreadMissing {
        /// The thread's name.
        name: String,
    },
    /// A declared capability is absent or different.
    CapMismatch {
        /// Holder thread.
        holder: String,
        /// Slot.
        slot: u32,
        /// Human-readable difference.
        detail: String,
    },
    /// A capability exists in the live CSpace that the spec does not
    /// declare — capability *leakage*.
    ExtraCap {
        /// Holder thread.
        holder: String,
        /// Slot holding the undeclared capability.
        slot: u32,
        /// Description of the stray capability.
        detail: String,
    },
    /// A declared object's kernel kind differs from the spec.
    ObjectKindMismatch {
        /// Object name.
        name: String,
        /// Description of the difference.
        detail: String,
    },
}

impl fmt::Display for VerifyIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyIssue::ThreadMissing { name } => write!(f, "thread '{name}' missing"),
            VerifyIssue::CapMismatch {
                holder,
                slot,
                detail,
            } => {
                write!(f, "cap {holder}[{slot}] mismatch: {detail}")
            }
            VerifyIssue::ExtraCap {
                holder,
                slot,
                detail,
            } => {
                write!(f, "undeclared cap at {holder}[{slot}]: {detail}")
            }
            VerifyIssue::ObjectKindMismatch { name, detail } => {
                write!(f, "object '{name}' kind mismatch: {detail}")
            }
        }
    }
}

/// Audits `kernel` against `spec` using the name maps from bootstrap.
///
/// Returns every deviation found (empty = the live capability state is
/// exactly the declared one).
pub fn verify(spec: &CapDlSpec, kernel: &Sel4Kernel, sys: &RealizedSystem) -> Vec<VerifyIssue> {
    let mut issues = Vec::new();

    // Object kinds.
    for decl in &spec.objects {
        let Some(&obj) = sys.objects.get(&decl.name) else {
            issues.push(VerifyIssue::ObjectKindMismatch {
                name: decl.name.clone(),
                detail: "not in realized map".into(),
            });
            continue;
        };
        let live = kernel.object(obj);
        let matches = matches!(
            (decl.kind, live),
            (SpecObjKind::Endpoint, Some(KernelObject::Endpoint))
                | (
                    SpecObjKind::Notification,
                    Some(KernelObject::Notification { .. })
                )
        ) || matches!(
            (decl.kind, live),
            (SpecObjKind::Device(want), Some(KernelObject::Device { dev })) if want == *dev
        ) || matches!(
            (decl.kind, live),
            (SpecObjKind::Untyped(want), Some(KernelObject::Untyped { total, .. })) if want == *total
        );
        if !matches {
            issues.push(VerifyIssue::ObjectKindMismatch {
                name: decl.name.clone(),
                detail: format!("expected {:?}, live {:?}", decl.kind, live),
            });
        }
    }

    // Per-thread exact CSpace comparison.
    for thread in &spec.threads {
        let Some(&pid) = sys.threads.get(&thread.name) else {
            issues.push(VerifyIssue::ThreadMissing {
                name: thread.name.clone(),
            });
            continue;
        };
        let Some(cspace) = kernel.cspace_of(pid) else {
            issues.push(VerifyIssue::ThreadMissing {
                name: thread.name.clone(),
            });
            continue;
        };

        let declared: std::collections::BTreeMap<u32, &crate::spec::CapDecl> =
            spec.caps_of(&thread.name).map(|c| (c.slot, c)).collect();

        // Declared caps must be present and equal.
        for (slot, decl) in &declared {
            let want_obj: ObjId = match &decl.target {
                CapTargetSpec::Object(name) => sys.objects[name.as_str()],
                CapTargetSpec::Tcb(t) => match sys.threads.get(t.as_str()) {
                    Some(&p) => match kernel.tcb_of(p) {
                        Some(o) => o,
                        None => {
                            issues.push(VerifyIssue::CapMismatch {
                                holder: thread.name.clone(),
                                slot: *slot,
                                detail: format!("target thread '{t}' has no tcb (dead)"),
                            });
                            continue;
                        }
                    },
                    None => {
                        issues.push(VerifyIssue::CapMismatch {
                            holder: thread.name.clone(),
                            slot: *slot,
                            detail: format!("target thread '{t}' unknown"),
                        });
                        continue;
                    }
                },
            };
            match cspace.lookup(CPtr::new(*slot)) {
                Ok(cap) => {
                    if cap.object() != Some(want_obj) {
                        issues.push(VerifyIssue::CapMismatch {
                            holder: thread.name.clone(),
                            slot: *slot,
                            detail: format!("target {:?}, expected {want_obj}", cap.object()),
                        });
                    }
                    if cap.rights != decl.rights {
                        issues.push(VerifyIssue::CapMismatch {
                            holder: thread.name.clone(),
                            slot: *slot,
                            detail: format!("rights {}, expected {}", cap.rights, decl.rights),
                        });
                    }
                    if cap.badge != decl.badge {
                        issues.push(VerifyIssue::CapMismatch {
                            holder: thread.name.clone(),
                            slot: *slot,
                            detail: format!("badge {}, expected {}", cap.badge, decl.badge),
                        });
                    }
                }
                Err(_) => issues.push(VerifyIssue::CapMismatch {
                    holder: thread.name.clone(),
                    slot: *slot,
                    detail: "slot empty".into(),
                }),
            }
        }

        // No undeclared caps may exist.
        for (cptr, cap) in cspace.iter() {
            if !declared.contains_key(&cptr.slot()) {
                issues.push(VerifyIssue::ExtraCap {
                    holder: thread.name.clone(),
                    slot: cptr.slot(),
                    detail: format!("{cap}"),
                });
            }
        }
    }

    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realize::realize;
    use bas_sel4::cap::Capability;
    use bas_sel4::kernel::{Sel4Config, Sel4Thread};
    use bas_sel4::rights::CapRights;
    use bas_sel4::syscall::{Reply, Syscall};
    use bas_sim::kernel::Kernel;
    use bas_sim::script::Script;

    const SPEC: &str = "object ep endpoint\nthread a\nthread b\n\
                        cap a[0] = ep R-- badge=0\ncap b[0] = ep -WG badge=7";

    fn loader(_: &str) -> Option<Sel4Thread> {
        Some(Box::new(Script::<Syscall, Reply>::new(vec![])))
    }

    fn build() -> (CapDlSpec, Sel4Kernel, RealizedSystem) {
        let spec = CapDlSpec::parse(SPEC).unwrap();
        let mut k = Sel4Kernel::new(Sel4Config::default());
        let sys = realize(&spec, &mut k, &mut loader).unwrap();
        (spec, k, sys)
    }

    #[test]
    fn freshly_realized_system_verifies_clean() {
        let (spec, k, sys) = build();
        assert_eq!(verify(&spec, &k, &sys), vec![]);
    }

    #[test]
    fn extra_cap_detected() {
        let (spec, mut k, sys) = build();
        // Sneak an undeclared capability into b's cspace.
        let ep = sys.objects["ep"];
        k.grant_cap(
            sys.threads["b"],
            Capability::to_object(ep, CapRights::ALL, 99),
        )
        .unwrap();
        let issues = verify(&spec, &k, &sys);
        assert_eq!(issues.len(), 1);
        assert!(matches!(issues[0], VerifyIssue::ExtraCap { ref holder, .. } if holder == "b"));
    }

    #[test]
    fn missing_cap_detected() {
        let (mut spec, k, sys) = build();
        // Declare an extra cap the system doesn't have.
        spec.caps.push(crate::spec::CapDecl {
            holder: "a".into(),
            slot: 5,
            target: CapTargetSpec::Object("ep".into()),
            rights: CapRights::READ,
            badge: 0,
        });
        let issues = verify(&spec, &k, &sys);
        assert!(issues
            .iter()
            .any(|i| matches!(i, VerifyIssue::CapMismatch { slot: 5, .. })));
    }

    #[test]
    fn wrong_rights_detected() {
        let (mut spec, k, sys) = build();
        spec.caps[0].rights = CapRights::ALL; // live system has R--
        let issues = verify(&spec, &k, &sys);
        assert!(issues.iter().any(
            |i| matches!(i, VerifyIssue::CapMismatch { detail, .. } if detail.contains("rights"))
        ));
    }

    #[test]
    fn wrong_badge_detected() {
        let (mut spec, k, sys) = build();
        spec.caps[1].badge = 1;
        let issues = verify(&spec, &k, &sys);
        assert!(issues.iter().any(
            |i| matches!(i, VerifyIssue::CapMismatch { detail, .. } if detail.contains("badge"))
        ));
    }

    #[test]
    fn dead_thread_detected() {
        let (spec, mut k, sys) = build();
        // Threads were never started; suspend (kill) b directly via a cap.
        let b_tcb = k.tcb_of(sys.threads["b"]).unwrap();
        let killer = k.create_thread(
            "killer",
            Box::new(Script::<Syscall, Reply>::new(vec![Syscall::TcbSuspend {
                tcb: bas_sel4::cap::CPtr::new(0),
            }])),
        );
        k.grant_cap(killer, Capability::to_object(b_tcb, CapRights::ALL, 0))
            .unwrap();
        k.start_thread(killer);
        k.run_to_quiescence();
        let issues = verify(&spec, &k, &sys);
        assert!(issues
            .iter()
            .any(|i| matches!(i, VerifyIssue::ThreadMissing { name } if name == "b")));
    }
}
