//! Realizing a spec: the generated-bootstrap analogue.
//!
//! §III-D: "a bootstrap process can be generated to implement the desired
//! architecture" — here, [`realize`] plays the bootstrap process: it holds
//! all authority, creates every object and thread, and distributes exactly
//! the declared capabilities before any user thread runs.

use std::collections::BTreeMap;
use std::fmt;

use bas_sel4::cap::{CPtr, Capability};
use bas_sel4::kernel::{Sel4Kernel, Sel4Thread};
use bas_sel4::objects::ObjId;
use bas_sim::process::Pid;

use crate::spec::{CapDlSpec, CapTargetSpec, SpecObjKind};

/// Name→id maps produced by a successful bootstrap.
#[derive(Debug, Clone, Default)]
pub struct RealizedSystem {
    /// Declared object name → kernel object id.
    pub objects: BTreeMap<String, ObjId>,
    /// Declared thread name → pid.
    pub threads: BTreeMap<String, Pid>,
}

/// Errors from [`realize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RealizeError {
    /// The spec failed structural validation.
    InvalidSpec(Vec<String>),
    /// The program loader had no image for a declared thread.
    MissingProgram(String),
    /// Installing a capability failed (slot conflict or CSpace overflow).
    CapInstall {
        /// The holder thread.
        holder: String,
        /// The slot that failed.
        slot: u32,
        /// The kernel error.
        error: bas_sel4::error::Sel4Error,
    },
}

impl fmt::Display for RealizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RealizeError::InvalidSpec(problems) => {
                write!(f, "invalid capdl spec: {}", problems.join("; "))
            }
            RealizeError::MissingProgram(name) => {
                write!(f, "no program image for thread '{name}'")
            }
            RealizeError::CapInstall {
                holder,
                slot,
                error,
            } => {
                write!(f, "failed to install cap {holder}[{slot}]: {error}")
            }
        }
    }
}

impl std::error::Error for RealizeError {}

/// Builds the system a spec describes inside `kernel`.
///
/// `loader` maps thread names to program logic (the "correct binaries" the
/// paper's loader supplies). Threads are created but **not started**; call
/// [`Sel4Kernel::start_thread`] on each (typically critical processes
/// first) after inspecting or verifying the layout.
///
/// # Errors
///
/// Returns a [`RealizeError`] and leaves the kernel partially constructed
/// (callers treat that kernel as disposable).
pub fn realize(
    spec: &CapDlSpec,
    kernel: &mut Sel4Kernel,
    loader: &mut dyn FnMut(&str) -> Option<Sel4Thread>,
) -> Result<RealizedSystem, RealizeError> {
    spec.validate().map_err(RealizeError::InvalidSpec)?;

    let mut sys = RealizedSystem::default();

    for obj in &spec.objects {
        let id = match obj.kind {
            SpecObjKind::Endpoint => kernel.create_endpoint(),
            SpecObjKind::Notification => kernel.create_notification(),
            SpecObjKind::Device(dev) => kernel.create_device(dev),
            SpecObjKind::Untyped(bytes) => kernel.create_untyped(bytes),
        };
        sys.objects.insert(obj.name.clone(), id);
    }

    for thread in &spec.threads {
        let logic = loader(&thread.name)
            .ok_or_else(|| RealizeError::MissingProgram(thread.name.clone()))?;
        let pid = kernel.create_thread(thread.name.as_str(), logic);
        sys.threads.insert(thread.name.clone(), pid);
    }

    for cap in &spec.caps {
        let target_obj = match &cap.target {
            CapTargetSpec::Object(name) => sys.objects[name.as_str()],
            CapTargetSpec::Tcb(thread) => {
                let pid = sys.threads[thread.as_str()];
                kernel.tcb_of(pid).expect("thread just created has a tcb")
            }
        };
        let holder_pid = sys.threads[cap.holder.as_str()];
        kernel
            .grant_cap_at(
                holder_pid,
                CPtr::new(cap.slot),
                Capability::to_object(target_obj, cap.rights, cap.badge),
            )
            .map_err(|error| RealizeError::CapInstall {
                holder: cap.holder.clone(),
                slot: cap.slot,
                error,
            })?;
    }

    Ok(sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bas_sel4::kernel::Sel4Config;
    use bas_sel4::rights::CapRights;
    use bas_sel4::syscall::{Reply, Syscall};
    use bas_sim::script::Script;

    fn loader(name: &str) -> Option<Sel4Thread> {
        let _ = name;
        Some(Box::new(Script::<Syscall, Reply>::new(vec![])))
    }

    #[test]
    fn realize_builds_declared_layout() {
        let spec = CapDlSpec::parse(
            "object ep endpoint\nthread a\nthread b\ncap a[0] = ep R-- badge=0\ncap b[3] = ep -WG badge=7",
        )
        .unwrap();
        let mut k = Sel4Kernel::new(Sel4Config::default());
        let sys = realize(&spec, &mut k, &mut loader).unwrap();
        assert_eq!(sys.threads.len(), 2);
        let b = sys.threads["b"];
        let cs = k.cspace_of(b).unwrap();
        let cap = cs.lookup(CPtr::new(3)).unwrap();
        assert_eq!(cap.rights, CapRights::WRITE_GRANT);
        assert_eq!(cap.badge, 7);
        assert_eq!(cap.object(), Some(sys.objects["ep"]));
        assert_eq!(cs.occupied(), 1, "no caps beyond the spec");
    }

    #[test]
    fn invalid_spec_rejected() {
        let spec = CapDlSpec::parse("thread a\ncap a[0] = ghost RWG badge=0").unwrap();
        let mut k = Sel4Kernel::new(Sel4Config::default());
        match realize(&spec, &mut k, &mut loader) {
            Err(RealizeError::InvalidSpec(problems)) => {
                assert!(problems.iter().any(|p| p.contains("ghost")));
            }
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
    }

    #[test]
    fn missing_program_rejected() {
        let spec = CapDlSpec::parse("thread nobody").unwrap();
        let mut k = Sel4Kernel::new(Sel4Config::default());
        let mut no_loader = |_: &str| -> Option<Sel4Thread> { None };
        match realize(&spec, &mut k, &mut no_loader) {
            Err(RealizeError::MissingProgram(name)) => assert_eq!(name, "nobody"),
            other => panic!("expected MissingProgram, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn tcb_targets_resolve() {
        let spec = CapDlSpec::parse("thread a\nthread b\ncap a[0] = tcb:b RW- badge=0").unwrap();
        let mut k = Sel4Kernel::new(Sel4Config::default());
        let sys = realize(&spec, &mut k, &mut loader).unwrap();
        let cap = k
            .cspace_of(sys.threads["a"])
            .unwrap()
            .lookup(CPtr::new(0))
            .unwrap();
        assert_eq!(cap.object(), k.tcb_of(sys.threads["b"]));
    }

    #[test]
    fn slot_conflict_reported() {
        let spec = CapDlSpec::parse(
            "object ep endpoint\nthread a\ncap a[0] = ep R-- badge=0\ncap a[0] = ep -W- badge=0",
        )
        .unwrap();
        // validate() catches duplicate slots first.
        let mut k = Sel4Kernel::new(Sel4Config::default());
        assert!(matches!(
            realize(&spec, &mut k, &mut loader),
            Err(RealizeError::InvalidSpec(_))
        ));
    }
}
