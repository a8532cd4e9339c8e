//! Capability-flow static analysis over the Policy IR.
//!
//! The three backends lower not only *who may do what* but *where each
//! capability came from*: a derivation forest ([`CapGraph`]) of
//! grant/attenuate edges with revocations and expiries. A worklist
//! fixpoint ([`closure`]) folds the permission lattice ([`Perms`]) over
//! the forest and checks three derivation invariants — attenuation
//! monotone, revocation transitively complete, no expired capability
//! live — plus the kernel-object-masquerading detector (handle type vs
//! declared object type, the ThreadX KOM shape).
//!
//! Everything reachability-shaped in the analyzer — the closure
//! propagation and the escalation-witness search — runs on one shared
//! deterministic BFS engine ([`reach`]). Witnesses ([`Witness`]) are
//! shortest escalation chains `subject → cap hops → asset`; the linter
//! renders them as evidence, [`predict`] turns them into the static
//! verdict of each attack cell, and `exp_cap_flow` (E17)
//! cross-validates them against model-checker reachability in both
//! directions.

mod closure;
mod graph;
mod lattice;
mod reach;
mod scenarios;
mod witness;

pub use closure::{closure, Closure, FlowFinding, FlowKind};
pub use graph::{CapGraph, CapId, CapNode, DerivationKind, ObjType};
pub use lattice::{op, Perms};
pub use reach::{reach, Reached};
pub use scenarios::{derivation_scenarios, DerivationScenario};
pub use witness::{
    escalation_witnesses, expectation, masquerade_exploitable, predict, witnesses_for_attack,
    Asset, StaticVerdict, Witness,
};
