//! End-to-end CapDL coverage for untyped-memory declarations: parse →
//! realize → verify, and the audit catching size drift.

use bas_capdl::realize::realize;
use bas_capdl::spec::{CapDlSpec, SpecObjKind};
use bas_capdl::verify::{verify, VerifyIssue};
use bas_sel4::cap::CPtr;
use bas_sel4::kernel::{Sel4Config, Sel4Kernel, Sel4Thread};
use bas_sel4::syscall::{Reply, RetypeKind, Syscall};
use bas_sim::kernel::Kernel;
use bas_sim::script::{replies, Script};

const SPEC: &str = "object pool untyped 48\nthread allocator\ncap allocator[0] = pool -W- badge=0";

fn loader(_: &str) -> Option<Sel4Thread> {
    Some(Box::new(Script::<Syscall, Reply>::new(vec![])))
}

#[test]
fn untyped_spec_realizes_and_verifies() {
    let spec = CapDlSpec::parse(SPEC).unwrap();
    assert!(matches!(spec.objects[0].kind, SpecObjKind::Untyped(48)));
    let mut k = Sel4Kernel::new(Sel4Config::default());
    let sys = realize(&spec, &mut k, &mut loader).unwrap();
    assert_eq!(verify(&spec, &k, &sys), vec![]);
    // Round trip through the printer too.
    assert_eq!(CapDlSpec::parse(&spec.to_text()).unwrap(), spec);
}

#[test]
fn declared_untyped_is_actually_retypable_by_its_holder() {
    let spec = CapDlSpec::parse(SPEC).unwrap();
    let mut k = Sel4Kernel::new(Sel4Config::default());
    let (alloc_script, log) = Script::<Syscall, Reply>::new(vec![
        Syscall::Retype {
            untyped: CPtr::new(0),
            kind: RetypeKind::Endpoint,
        },
        Syscall::Retype {
            untyped: CPtr::new(0),
            kind: RetypeKind::Endpoint,
        },
        Syscall::Retype {
            untyped: CPtr::new(0),
            kind: RetypeKind::Endpoint,
        },
        Syscall::Retype {
            untyped: CPtr::new(0),
            kind: RetypeKind::Endpoint,
        }, // exhausted
    ])
    .logged();
    let mut alloc_script = Some(alloc_script);
    let mut loader = |name: &str| -> Option<Sel4Thread> {
        (name == "allocator").then(|| alloc_script.take().map(|s| Box::new(s) as Sel4Thread))?
    };
    let sys = realize(&spec, &mut k, &mut loader).unwrap();
    k.start_thread(sys.threads["allocator"]);
    k.run_to_quiescence();
    let got = replies(&log);
    assert!(matches!(got[0], Reply::Slot(_)));
    assert!(matches!(got[1], Reply::Slot(_)));
    assert!(matches!(got[2], Reply::Slot(_)));
    assert_eq!(got[3], Reply::Err(bas_sel4::Sel4Error::OutOfMemory));
}

#[test]
fn size_drift_is_an_audit_issue() {
    let spec = CapDlSpec::parse(SPEC).unwrap();
    let mut k = Sel4Kernel::new(Sel4Config::default());
    let sys = realize(&spec, &mut k, &mut loader).unwrap();
    // Mutate the *spec* (as if the file on disk changed after boot).
    let mut drifted = spec.clone();
    drifted.objects[0].kind = SpecObjKind::Untyped(4096);
    let issues = verify(&drifted, &k, &sys);
    assert!(issues
        .iter()
        .any(|i| matches!(i, VerifyIssue::ObjectKindMismatch { name, .. } if name == "pool")));
}
