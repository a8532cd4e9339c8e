//! # bas-analysis — static IPC-policy analysis
//!
//! The repo's dynamic half *runs* the paper's attack matrix (§IV-D); this
//! crate *predicts* it from policy alone. All three platform policies —
//! the MINIX access-control matrix, the CAmkES-compiled CapDL spec, and
//! the Linux loader's message-queue ACL plan — lower into one
//! platform-neutral **Policy IR** ([`ir::PolicyModel`]): a channel graph
//! of `(subject, object, operation, message types)` edges annotated with
//! the enforcement mechanism that admits each edge.
//!
//! On top of the IR:
//!
//! * [`lint`](mod@lint) — a policy linter diffing the effective policy against the
//!   AADL-minimal justification: over-granted capabilities, ambient
//!   queue authority, dangling identities, unused message types,
//!   untrusted→actuator paths, and a least-privilege summary.
//! * [`scenario`] — the paper's temperature-control scenario bound into
//!   the IR (identity bindings, endpoint message types, uid schemes,
//!   contracts), plus the predicted matrix in deterministic order.
//! * [`mc`] — a bounded explicit-state model checker over the scenario
//!   transition relation: every interleaving of the five processes and
//!   the attacker, dual-adjudicated by the Policy IR *and* the kernel
//!   artifacts, with partial-order reduction and counterexample replay
//!   into the dynamic engine.
//! * [`flow`] — capability-flow analysis over the IR's derivation
//!   forest: a worklist fixpoint under a permission lattice checking
//!   attenuation monotonicity, transitive revocation and expiry, a
//!   kernel-object-masquerading detector, and shortest escalation-path
//!   witnesses cross-validated against [`mc`] in both directions. The
//!   witnesses are the crate's one static judge of the attack matrix:
//!   [`flow::predict`] calls a cell compromised exactly when a relevant
//!   witness exists, per platform × attacker model, and the
//!   `static_vs_dynamic` tests assert prediction == execution for every
//!   cell, including both policy ablations.
//! * [`races`] — the dynamic complement of [`flow`]: vector-clock
//!   happens-before analysis of capability-churn event streams from
//!   the live kernels, detecting TOCTOU windows, use-after-revoke and
//!   write-write conflicts with 1-minimal replayed schedule witnesses,
//!   cross-validated against both the static fixpoint and [`mc`].

pub mod flow;
pub mod ir;
pub mod lint;
pub mod lower;
pub mod mc;
pub mod races;
pub mod scenario;

pub use flow::{closure, escalation_witnesses, CapGraph, Perms, Witness};
pub use ir::{Channel, ChannelKind, ObjectId, Operation, PolicyModel, Trust};
pub use lint::{findings_report_json, findings_to_json, lint, Finding, Justification, Severity};
pub use races::{churn_scenarios, detect as detect_races, Race, RaceKind};
