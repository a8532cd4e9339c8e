//! # bas-attack — attack simulation framework (§IV-D)
//!
//! Reproduces the paper's two attacker models against all three
//! platforms:
//!
//! > "In the first simulation, we assume the web interface process can
//! > execute arbitrary code, and have enough knowledge about other control
//! > processes. In the second simulation, we also assume the web interface
//! > process has root privilege gained through a privilege escalation
//! > exploit or through miss-configuration."
//!
//! The compromise is modeled by *replacing the web-interface program* with
//! attacker-chosen code that runs in exactly the web interface's position:
//! same `ac_id` on MINIX, same single capability on seL4, same account on
//! Linux. Attacks then proceed through each platform's real (simulated)
//! syscall interface; nothing is assumed about their success — outcomes
//! are judged from kernel replies, trace evidence, and the physical
//! world's safety oracle.
//!
//! - [`model`] — attacker models, attack identifiers, outcome types,
//! - [`program`] — the attacker alphabet ([`program::AttackOp`], shared
//!   with the model checker) and one platform-neutral program per attack,
//! - [`bind`] — one binding per platform from each op to its syscalls,
//! - [`procs`] — the one attacker process, and the [`procs::Binding`]
//!   hook that says what a compromise means on each platform,
//! - [`evidence`] — per-syscall evidence collection and reply
//!   classification,
//! - [`harness`] — [`harness::attack_overrides`], the one entry that
//!   mounts an attacker on a platform's web-interface slot, and the
//!   warmup/attack/cooldown runner producing [`model::AttackOutcome`]s,
//! - [`expectations`] — the paper's predicted outcome for every cell of
//!   the attack matrix, which `EXPERIMENTS.md` compares against measured
//!   results.

pub mod bind;
pub mod evidence;
pub mod expectations;
pub mod harness;
pub mod model;
pub mod procs;
pub mod program;

pub use bind::{LinuxBinding, MinixBinding, Sel4Binding};
pub use evidence::{AttackEvidence, EvidenceLog};
pub use expectations::paper_expectation;
pub use harness::{attack_overrides, run_attack, AttackRunConfig};
pub use model::{AttackId, AttackOutcome, AttackerModel, MechanismOutcome, PhysicalSummary};
pub use program::{AttackOp, AttackProgram, Proc};
