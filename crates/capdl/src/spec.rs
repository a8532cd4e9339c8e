//! The CapDL data model.

use bas_sel4::rights::CapRights;
use bas_sim::device::DeviceId;

use crate::text::{self, CapDlParseError};

/// Object kinds a spec can declare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecObjKind {
    /// An IPC endpoint.
    Endpoint,
    /// A notification object.
    Notification,
    /// A device frame for one simulated device.
    Device(DeviceId),
    /// An untyped-memory region of the given size in bytes.
    Untyped(usize),
}

/// A declared kernel object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjDecl {
    /// Spec-unique object name.
    pub name: String,
    /// The object's kind.
    pub kind: SpecObjKind,
}

/// A declared thread (its TCB object is implicit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadDecl {
    /// Spec-unique thread name; also the program image name the realizer
    /// asks its loader for.
    pub name: String,
}

/// What a declared capability points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CapTargetSpec {
    /// A declared object, by name.
    Object(String),
    /// The TCB of a declared thread, by thread name.
    Tcb(String),
}

/// One capability in some thread's CSpace after bootstrap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapDecl {
    /// The holding thread's name.
    pub holder: String,
    /// The CSpace slot.
    pub slot: u32,
    /// The capability's target.
    pub target: CapTargetSpec,
    /// Rights conveyed.
    pub rights: CapRights,
    /// Badge.
    pub badge: u64,
}

/// A recorded capability derivation: the cap in `child`'s slot was
/// derived (minted/attenuated) from the original capability to `origin`.
///
/// CapDL proper tracks the CDT implicitly through `maybe_original`
/// markers; this spec dialect records the provenance edge explicitly so
/// the static analyzer can rebuild the derivation forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerivationDecl {
    /// The derived capability, as `(holder, slot)`.
    pub child: (String, u32),
    /// The declared object whose original capability the child descends
    /// from.
    pub origin: String,
}

/// A complete capability-distribution specification.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CapDlSpec {
    /// Declared objects.
    pub objects: Vec<ObjDecl>,
    /// Declared threads.
    pub threads: Vec<ThreadDecl>,
    /// The full post-bootstrap capability layout.
    pub caps: Vec<CapDecl>,
    /// Recorded capability derivations (provenance edges for the CDT).
    pub derivations: Vec<DerivationDecl>,
}

impl CapDlSpec {
    /// Parses the concrete text syntax (see [`crate::text`]).
    ///
    /// # Errors
    ///
    /// Returns a [`CapDlParseError`] naming the offending line.
    pub fn parse(input: &str) -> Result<Self, CapDlParseError> {
        text::parse(input)
    }

    /// Prints the spec in its concrete syntax (parseable back).
    pub fn to_text(&self) -> String {
        text::print(self)
    }

    /// Looks up a declared object.
    pub fn object(&self, name: &str) -> Option<&ObjDecl> {
        self.objects.iter().find(|o| o.name == name)
    }

    /// Looks up a declared thread.
    pub fn thread(&self, name: &str) -> Option<&ThreadDecl> {
        self.threads.iter().find(|t| t.name == name)
    }

    /// All capabilities held by `holder`, in slot order.
    pub fn caps_of<'a>(&'a self, holder: &'a str) -> impl Iterator<Item = &'a CapDecl> + 'a {
        self.caps.iter().filter(move |c| c.holder == holder)
    }

    /// Structural validation: unique names, targets declared, slots unique
    /// per holder, holders declared.
    ///
    /// # Errors
    ///
    /// Returns one message per problem found.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        let mut names = std::collections::BTreeSet::new();
        for o in &self.objects {
            if !names.insert(o.name.as_str()) {
                problems.push(format!("duplicate object name '{}'", o.name));
            }
        }
        for t in &self.threads {
            if !names.insert(t.name.as_str()) {
                problems.push(format!("duplicate thread name '{}'", t.name));
            }
        }
        let mut slots = std::collections::BTreeSet::new();
        for c in &self.caps {
            if self.thread(&c.holder).is_none() {
                problems.push(format!(
                    "cap holder '{}' is not a declared thread",
                    c.holder
                ));
            }
            if !slots.insert((c.holder.clone(), c.slot)) {
                problems.push(format!("duplicate slot {}[{}]", c.holder, c.slot));
            }
            match &c.target {
                CapTargetSpec::Object(name) => {
                    if self.object(name).is_none() {
                        problems.push(format!("cap target object '{name}' not declared"));
                    }
                }
                CapTargetSpec::Tcb(name) => {
                    if self.thread(name).is_none() {
                        problems.push(format!("cap target thread '{name}' not declared"));
                    }
                }
            }
        }
        for d in &self.derivations {
            let (holder, slot) = &d.child;
            let Some(cap) = self
                .caps
                .iter()
                .find(|c| &c.holder == holder && c.slot == *slot)
            else {
                problems.push(format!(
                    "derivation child {holder}[{slot}] is not a declared cap"
                ));
                continue;
            };
            if self.object(&d.origin).is_none() {
                problems.push(format!(
                    "derivation origin object '{}' not declared",
                    d.origin
                ));
                continue;
            }
            if cap.target != CapTargetSpec::Object(d.origin.clone()) {
                problems.push(format!(
                    "derivation {holder}[{slot}] <- {}: cap does not target that object",
                    d.origin
                ));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CapDlSpec {
        CapDlSpec {
            objects: vec![ObjDecl {
                name: "ep".into(),
                kind: SpecObjKind::Endpoint,
            }],
            threads: vec![
                ThreadDecl { name: "a".into() },
                ThreadDecl { name: "b".into() },
            ],
            caps: vec![
                CapDecl {
                    holder: "a".into(),
                    slot: 0,
                    target: CapTargetSpec::Object("ep".into()),
                    rights: CapRights::READ,
                    badge: 0,
                },
                CapDecl {
                    holder: "b".into(),
                    slot: 0,
                    target: CapTargetSpec::Object("ep".into()),
                    rights: CapRights::WRITE_GRANT,
                    badge: 5,
                },
            ],
            derivations: vec![DerivationDecl {
                child: ("b".into(), 0),
                origin: "ep".into(),
            }],
        }
    }

    #[test]
    fn valid_spec_validates() {
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn undeclared_target_caught() {
        let mut s = sample();
        s.caps.push(CapDecl {
            holder: "a".into(),
            slot: 1,
            target: CapTargetSpec::Object("ghost".into()),
            rights: CapRights::READ,
            badge: 0,
        });
        let problems = s.validate().unwrap_err();
        assert!(problems.iter().any(|p| p.contains("ghost")));
    }

    #[test]
    fn duplicate_slot_caught() {
        let mut s = sample();
        s.caps.push(s.caps[0].clone());
        let problems = s.validate().unwrap_err();
        assert!(problems.iter().any(|p| p.contains("duplicate slot")));
    }

    #[test]
    fn duplicate_names_caught() {
        let mut s = sample();
        s.threads.push(ThreadDecl { name: "a".into() });
        assert!(s.validate().is_err());
    }

    #[test]
    fn undeclared_holder_caught() {
        let mut s = sample();
        s.caps[0].holder = "nobody".into();
        let problems = s.validate().unwrap_err();
        assert!(problems.iter().any(|p| p.contains("nobody")));
    }

    #[test]
    fn derivation_child_must_exist_and_match_origin() {
        let mut s = sample();
        s.derivations.push(DerivationDecl {
            child: ("a".into(), 9),
            origin: "ep".into(),
        });
        let problems = s.validate().unwrap_err();
        assert!(problems.iter().any(|p| p.contains("a[9]")));

        let mut s = sample();
        s.derivations[0].origin = "ghost".into();
        let problems = s.validate().unwrap_err();
        assert!(problems.iter().any(|p| p.contains("ghost")));

        let mut s = sample();
        s.caps.push(CapDecl {
            holder: "a".into(),
            slot: 1,
            target: CapTargetSpec::Tcb("b".into()),
            rights: CapRights::READ,
            badge: 0,
        });
        s.derivations.push(DerivationDecl {
            child: ("a".into(), 1),
            origin: "ep".into(),
        });
        let problems = s.validate().unwrap_err();
        assert!(problems
            .iter()
            .any(|p| p.contains("does not target that object")));
    }

    #[test]
    fn caps_of_filters_by_holder() {
        let s = sample();
        assert_eq!(s.caps_of("a").count(), 1);
        assert_eq!(s.caps_of("b").count(), 1);
        assert_eq!(s.caps_of("zz").count(), 0);
    }
}
