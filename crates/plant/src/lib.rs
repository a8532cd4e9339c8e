//! # bas-plant — simulated physical world for the BAS scenario
//!
//! The paper's testbed (its Fig. 4) is a BeagleBone Black wired to a BMP180
//! temperature sensor, a fan actuator and an on-board LED alarm, placed in a
//! manually heated enclosure. This crate substitutes a deterministic
//! lumped-parameter simulation for that hardware:
//!
//! - [`thermal::RoomThermalModel`] — first-order room thermal dynamics with
//!   an external heat source (the "manual heating") and a fan that increases
//!   the loss coefficient toward ambient, solved in closed form
//!   ([`thermal::Trajectory`]) between input changes,
//! - [`sensor::TemperatureSensor`] — a BMP180-like sensor with Gaussian
//!   noise and 0.1 °C quantization,
//! - [`actuator::OnOffActuator`] — fan and alarm actuators that record their
//!   switching history,
//! - [`safety::SafetyMonitor`] — the paper's physical safety property: if
//!   the temperature leaves the allowed band around the setpoint for longer
//!   than the deadline ("e.g. 5 minutes"), the alarm must be raised,
//! - [`world::PlantWorld`] — the composition, piecewise exact: it commits
//!   a new [`world::Segment`] only when an input changes, and evaluates
//!   every read at the kernel clock's time of the read, plus [`devices`]
//!   adapters exposing the plant on a [`bas_sim::DeviceBus`].
//!
//! ```
//! use bas_plant::world::{PlantConfig, PlantWorld};
//! use bas_sim::time::{SimDuration, SimTime};
//!
//! let mut world = PlantWorld::new(PlantConfig::default(), 42);
//! world.set_fan(true);
//! world.step_to(SimTime::ZERO + SimDuration::from_secs(60));
//! assert!(world.temperature_c() < PlantConfig::default().initial_temp_c);
//! ```

pub mod actuator;
pub mod devices;
pub mod safety;
pub mod sensor;
pub mod thermal;
pub mod units;
pub mod world;

pub use actuator::OnOffActuator;
pub use devices::{install_devices, SharedPlant};
pub use safety::{SafetyMonitor, SafetyReport, SafetyViolation};
pub use sensor::TemperatureSensor;
pub use thermal::{RoomThermalModel, Trajectory};
pub use units::MilliCelsius;
pub use world::{PlantConfig, PlantSample, PlantWorld, Segment};
