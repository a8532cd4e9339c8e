//! # bas-mc — bounded explicit-state model checking of the scenario
//!
//! The taint analyzer ([`crate::taint`]) predicts the attack matrix by
//! graph reachability; the dynamic harness executes it on one schedule.
//! This module closes the remaining gap: it *enumerates every
//! interleaving* of the five scenario processes and the attacker's
//! primitives up to a bounded horizon, adjudicating each operation
//! simultaneously against the Policy IR and the platform's raw kernel
//! artifacts, and checks:
//!
//! * **safety** — no IPC delivery the Policy IR forbids is admitted by
//!   the kernel artifact (and vice versa: `gate-mismatch`), no
//!   non-driver subject writes a device register
//!   (`unauthorized-device-write`), no fork is admitted beyond its quota
//!   (`quota-breach`);
//! * **bounded response** — once the plant crosses the alarm threshold,
//!   the alarm asserts within `k` environment ticks *under every
//!   interleaving* (`bounded-response`), and no critical process dies
//!   (`critical-killed`), and no unauthorized setpoint is accepted
//!   (`reference-divergence`).
//!
//! The module tree: [`state`] (the explored value type), [`gate`] (the
//! kernel-artifact adjudicator), [`model`] (the
//! [`bas_core::semantics::StepSemantics`] implementation), [`explore`]
//! (BFS + ample-set partial-order reduction + counterexample
//! minimization), [`verdict`] (per-cell three-valued outcomes and the
//! 54-cell matrix), and [`replay`] (feeding minimized counterexamples
//! back through the real attack harness).

pub mod explore;
pub mod gate;
pub mod model;
pub mod replay;
pub mod state;
pub mod verdict;

pub use explore::{explore, minimize_trace, Exploration, ExploreOpts, ExploreStats};
pub use gate::KernelGate;
pub use model::{attack_ops, Adjudication, McBounds, ScenarioModel, Verdict, DEVICES, MTYPES};
pub use replay::{property_manifested, replay_counterexample, ReplayResult};
pub use state::{flags, AttackOp, McAction, McState, Proc};
pub use verdict::{
    check_cell, check_cells, check_matrix, classify, matrix_cells, CellReport, Counterexample,
    McProperty,
};
