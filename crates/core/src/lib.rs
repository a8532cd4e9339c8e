//! # bas-core — the paper's temperature-control scenario
//!
//! The application layer of the reproduction: the five-process BAS
//! scenario of the paper's Fig. 2 (temperature control, temperature
//! sensor, heater actuator, alarm actuator, web interface), implemented
//! once as pure logic and ported to all three platforms:
//!
//! - [`logic`] — the platform-independent role cores: the control core and
//!   the sans-IO benign web client,
//! - [`proto`] — the shared wire protocol and `ac_id` numbering,
//! - [`policy`] — the ACM, quotas, device ownership, CAmkES assembly,
//!   Linux queue set, and the canonical AADL source they all derive from,
//! - [`platform`] — one generic process per benign role (sensor,
//!   actuator, web interface) over a per-platform IPC binding;
//!   [`platform::minix`] / [`platform::sel4`] / [`platform::linux`] —
//!   each kernel's binding, its controller and the bootable kernel stack,
//! - [`engine`] — the [`engine::PlatformKernel`] trait every stack
//!   implements and the generic [`engine::ScenarioEngine`] runner (one
//!   implementation of setup/run/aggregate for all three),
//! - [`scenario`] — configuration and the cross-platform [`Scenario`]
//!   interface used by experiments and the attack harness,
//! - [`semantics`] — the [`semantics::StepSemantics`] transition-relation
//!   abstraction the `bas-analysis` model checker explores.
//!
//! ```no_run
//! use bas_core::platform::minix::{build_minix, MinixOverrides};
//! use bas_core::scenario::{critical_alive, Scenario, ScenarioConfig};
//! use bas_sim::time::SimDuration;
//!
//! let mut scenario = build_minix(&ScenarioConfig::default(), MinixOverrides::default());
//! scenario.run_for(SimDuration::from_mins(30));
//! assert!(critical_alive(&scenario));
//! assert!(scenario.plant().borrow().safety_report().is_safe());
//! ```

pub mod engine;
pub mod logic;
pub mod platform;
pub mod policy;
pub mod proto;
pub mod scenario;
pub mod semantics;
pub mod snapshot;

pub use engine::{boot_platform, PlatformKernel, ScenarioEngine};
pub use proto::BasMsg;
pub use scenario::{
    critical_alive, plant_snapshot, PlantSnapshot, Platform, Scenario, ScenarioConfig,
};
pub use semantics::StepSemantics;
pub use snapshot::EngineSnapshot;
