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
//!   [`FaultEvent`]s (sensor stuck-at/glitch/dropout, IPC
//!   drop/delay/duplication, process crash and crash-storm, clock-tick
//!   skew), each pinned to a virtual time from boot.
//! - [`inject`] — runs a booted
//!   [`ScenarioEngine`](bas_core::engine::ScenarioEngine) under a plan:
//!   sensor faults via `DeviceBus::interpose` wrappers, everything else
//!   through the `PlatformKernel` fault hooks, each event fired at the
//!   first dispatch point at or after its time. Every fired event lands
//!   in an [`InjectionLog`].
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
pub mod inject;
pub mod plan;
pub mod recovery;
pub mod score;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport};
pub use inject::{FiredEvent, InjectionLog};
pub use plan::{standard_plans, FaultEvent, FaultKind, FaultPlan};
pub use recovery::{crash_plan, run_recovery, RecoveryOutcome};
pub use score::Scorecard;
