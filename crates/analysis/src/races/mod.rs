//! Capability-churn race detection: happens-before analysis of
//! grant/attenuate/revoke against the *live* kernels.
//!
//! The static half of this crate reasons about policies at rest; this
//! module reasons about policies **in motion**. Every kernel can emit a
//! structured capability-event stream ([`bas_sim::caps::CapTrace`]):
//! grants, attenuations, revocations, admission checks, uses and
//! receives, each bound to a subject and a logical tick, with IPC edges
//! recorded at delivery. On top of that stream:
//!
//! * [`clock`] — vector clocks (Fidge/Mattern) assigned from program
//!   order plus the recorded IPC edges; happens-before and concurrency
//!   queries over event pairs.
//! * [`detect`](mod@detect) — the race detector: check→use pairs racing a
//!   concurrent revoke (TOCTOU), uses strictly after an ordered revoke
//!   the kernel still honored (use-after-revoke), and unordered
//!   effective writes by distinct actors (write-write). Defined purely
//!   over the happens-before closure, so reports are invariant under
//!   trace-equivalent reorderings, and structurally silent on
//!   churn-free traces.
//! * [`scenarios`] — a 21-scenario seeded catalog (3 platforms × 7
//!   churn shapes) driven through the real [`ScenarioEngine`] by
//!   `bas-faults` schedules, with per-platform expected outcomes — the
//!   kernels genuinely differ (Linux's open-time-only check leaves
//!   stale descriptors; MINIX and seL4 re-check per send).
//! * [`witness`] — 1-minimal schedule witnesses: delta-minimize the
//!   churn schedule by re-running the full engine, fixpoint until no
//!   single event can be dropped; the last run is the replay
//!   confirmation.
//! * [`crossval`] — maps every static `revocation-leak` finding from
//!   the derivation fixpoint to a demonstrated dynamic race or a
//!   justified suppression; `exp_cap_races` (E19) checks totality.
//!
//! [`ScenarioEngine`]: bas_core::engine::ScenarioEngine

pub mod clock;
pub mod crossval;
pub mod detect;
pub mod scenarios;
pub mod witness;

pub use clock::{ClockedTrace, VClock};
pub use crossval::{map_revocation_leaks, LeakMapping};
pub use detect::{detect, Race, RaceKind};
pub use scenarios::{churn_scenarios, run_churn_plan, run_scenario, ChurnScenario};
pub use witness::{minimize, RaceWitness};
