//! # bas-faults — deterministic fault-schedule DSL and campaign runner
//!
//! The paper's availability argument (§IV-D, attackers A2/A3) rests on
//! how each platform *degrades and recovers* under component failure —
//! MINIX's reincarnation-server pedigree is why its authors chose it.
//! The HIL-testbed and OT-attack-survey literature both stress that a
//! realistic BAS evaluation needs *repeatable* sensor/actuator/comms
//! fault campaigns, not single hand-picked crashes. This crate supplies
//! them:
//!
//! - [`plan`] — the schedule DSL: a [`FaultPlan`] is a named list of
//!   [`FaultEvent`]s, each one of the kernel's own
//!   [`FaultAction`](bas_sim::fault::FaultAction)s (sensor
//!   stuck-at/glitch/dropout, IPC drop/delay/duplication, process crash,
//!   clock-tick skew, capability churn) pinned to a virtual time from
//!   boot; [`crash_storm`] spells out repeated crashes. [`install`] puts a
//!   plan on a booted
//!   [`ScenarioEngine`](bas_core::engine::ScenarioEngine)'s fault
//!   calendar, which the run loop fires at the first dispatch point at or
//!   after each event's time: a fault run is one `run_for`, and the
//!   calendar records what fired when.
//! - [`score`] — the degradation [`Scorecard`]: safety held, worst
//!   alarm latency, out-of-band seconds, recovery time, processes
//!   restarted.
//! - [`campaign`] — sweeps plans × platforms through
//!   `bas_fleet::WorkerPool::map` with SplitMix64-derived per-plan seeds;
//!   the report is byte-identical at any worker count.
//! - [`recovery`] — the A3 recovery experiment (heater-driver crash)
//!   expressed as a plan, runnable on *all three* platforms.
//!
//! Faults are injected at the kernel-adapter boundary, after each
//! platform's access-control gate, so a fault can degrade authorized
//! interactions but can never manufacture authority (see `DESIGN.md`).

pub mod campaign;
pub mod plan;
pub mod recovery;
pub mod score;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport};
pub use plan::{crash_storm, install, standard_plans, FaultEvent, FaultPlan};
pub use recovery::{crash_plan, run_recovery, RecoveryOutcome};
pub use score::Scorecard;
