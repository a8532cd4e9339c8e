//! Composition of room, sensor, actuators and safety monitor, stepped on
//! the kernels' virtual clock.

use bas_sim::time::{SimDuration, SimTime};

use crate::actuator::OnOffActuator;
use crate::safety::{SafetyMonitor, SafetyReport};
use crate::sensor::TemperatureSensor;
use crate::thermal::RoomThermalModel;
use crate::units::MilliCelsius;

/// One row of the plant trace (the data behind the paper's Fig. 2-style
/// time-series plots).
#[derive(Debug, Clone, PartialEq)]
pub struct PlantSample {
    /// Virtual time of the sample.
    pub time: SimTime,
    /// True enclosure temperature, °C.
    pub temp_c: f64,
    /// Fan state.
    pub fan_on: bool,
    /// Alarm state.
    pub alarm_on: bool,
    /// Reference setpoint at sample time, °C.
    pub setpoint_c: f64,
}

/// Configuration of the physical world.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantConfig {
    /// Temperature at boot, °C.
    pub initial_temp_c: f64,
    /// Room physics.
    pub room: RoomThermalModel,
    /// Sensor noise standard deviation, °C.
    pub sensor_noise_std_c: f64,
    /// Sensor quantization step, °C.
    pub sensor_quantization_c: f64,
    /// Initial reference setpoint, °C.
    pub setpoint_c: f64,
    /// Allowed band half-width around the setpoint, °C.
    pub band_c: f64,
    /// Alarm deadline: maximum continuous excursion without an alarm.
    pub alarm_deadline: SimDuration,
    /// Interval between recorded trace samples.
    pub sample_period: SimDuration,
    /// Integration sub-step.
    pub integration_step: SimDuration,
    /// Scheduled changes to the external heat source, as
    /// `(time since boot, watts)` — models the paper's manual heating.
    pub heat_schedule: Vec<(SimDuration, f64)>,
}

impl Default for PlantConfig {
    fn default() -> Self {
        PlantConfig {
            initial_temp_c: 22.0,
            room: RoomThermalModel::default(),
            sensor_noise_std_c: 0.05,
            sensor_quantization_c: 0.1,
            setpoint_c: 22.0,
            band_c: 1.0,
            alarm_deadline: SimDuration::from_mins(5),
            sample_period: SimDuration::from_secs(1),
            integration_step: SimDuration::from_millis(100),
            heat_schedule: Vec::new(),
        }
    }
}

/// The simulated physical world.
///
/// The world only advances when [`PlantWorld::step_to`] is called; the
/// scenario runner drives it in lockstep with the simulated kernel so that
/// control latency shows up as physical effect.
///
/// ```
/// use bas_plant::world::{PlantConfig, PlantWorld};
/// use bas_sim::time::{SimDuration, SimTime};
///
/// let mut w = PlantWorld::new(PlantConfig::default(), 1);
/// w.step_to(SimTime::ZERO + SimDuration::from_secs(10));
/// let reading = w.sample_sensor();
/// assert!((reading.as_celsius() - w.temperature_c()).abs() < 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct PlantWorld {
    config: PlantConfig,
    room: RoomThermalModel,
    sensor: TemperatureSensor,
    fan: OnOffActuator,
    alarm: OnOffActuator,
    monitor: SafetyMonitor,
    trace: Vec<PlantSample>,
    now: SimTime,
    next_sample_at: SimTime,
    next_heat_idx: usize,
}

impl PlantWorld {
    /// Builds a world from `config`, seeding the sensor from `seed`.
    pub fn new(config: PlantConfig, seed: u64) -> Self {
        let mut room = config.room.clone();
        room.set_temperature_c(config.initial_temp_c);
        let mut heat_schedule = config.heat_schedule.clone();
        heat_schedule.sort_by_key(|(t, _)| *t);
        let config = PlantConfig {
            heat_schedule,
            ..config
        };
        PlantWorld {
            sensor: TemperatureSensor::new(
                config.sensor_noise_std_c,
                config.sensor_quantization_c,
                seed,
            ),
            fan: OnOffActuator::new("fan"),
            alarm: OnOffActuator::new("alarm"),
            monitor: SafetyMonitor::new(config.setpoint_c, config.band_c, config.alarm_deadline),
            trace: Vec::new(),
            room,
            now: SimTime::ZERO,
            next_sample_at: SimTime::ZERO,
            next_heat_idx: 0,
            config,
        }
    }

    /// Re-images the world as [`PlantWorld::new`]`(config, seed)` builds
    /// it, in place: the trace, the actuator histories and the safety
    /// monitor's logs are cleared but keep their capacity, so a recycled
    /// world fills them without allocating again.
    pub fn reset(&mut self, mut config: PlantConfig, seed: u64) {
        self.room = config.room.clone();
        self.room.set_temperature_c(config.initial_temp_c);
        config.heat_schedule.sort_by_key(|(t, _)| *t);
        self.sensor = TemperatureSensor::new(
            config.sensor_noise_std_c,
            config.sensor_quantization_c,
            seed,
        );
        self.fan.reset();
        self.alarm.reset();
        self.monitor
            .reset(config.setpoint_c, config.band_c, config.alarm_deadline);
        self.trace.clear();
        self.now = SimTime::ZERO;
        self.next_sample_at = SimTime::ZERO;
        self.next_heat_idx = 0;
        self.config = config;
    }

    /// Current virtual time the world has been advanced to.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// True enclosure temperature, °C.
    pub fn temperature_c(&self) -> f64 {
        self.room.temperature_c()
    }

    /// The configuration in effect.
    pub fn config(&self) -> &PlantConfig {
        &self.config
    }

    /// Advances physics, the heat schedule, the safety monitor and the
    /// trace up to time `t`. Times in the past are ignored.
    pub fn step_to(&mut self, t: SimTime) {
        while self.now < t {
            // Apply any scheduled heat change due now.
            while let Some((at, watts)) = self.config.heat_schedule.get(self.next_heat_idx) {
                if SimTime::ZERO + *at <= self.now {
                    self.room.external_heat_w = *watts;
                    self.next_heat_idx += 1;
                } else {
                    break;
                }
            }

            let step = self.config.integration_step.min(t - self.now);
            self.room.step(step.as_secs_f64(), self.fan.is_on());
            self.now += step;

            self.monitor
                .observe(self.now, self.room.temperature_c(), self.alarm.is_on());

            if self.now >= self.next_sample_at {
                self.trace.push(PlantSample {
                    time: self.now,
                    temp_c: self.room.temperature_c(),
                    fan_on: self.fan.is_on(),
                    alarm_on: self.alarm.is_on(),
                    setpoint_c: self.monitor.setpoint_c(),
                });
                self.next_sample_at = self.now + self.config.sample_period;
            }
        }
    }

    /// Draws one (noisy, quantized) sensor reading of the current
    /// temperature.
    pub fn sample_sensor(&mut self) -> MilliCelsius {
        self.sensor.sample(self.room.temperature_c())
    }

    /// Commands the fan actuator.
    pub fn set_fan(&mut self, on: bool) {
        self.fan.set(self.now, on);
    }

    /// Commands the alarm actuator.
    pub fn set_alarm(&mut self, on: bool) {
        self.alarm.set(self.now, on);
    }

    /// Fan actuator state and history.
    pub fn fan(&self) -> &OnOffActuator {
        &self.fan
    }

    /// Alarm actuator state and history.
    pub fn alarm(&self) -> &OnOffActuator {
        &self.alarm
    }

    /// Informs the safety oracle of an *authorized* setpoint change (i.e.
    /// one the administrator actually issued — the attack harness
    /// deliberately does not call this for forged updates).
    pub fn set_reference(&mut self, setpoint_c: f64) {
        self.monitor.set_setpoint(self.now, setpoint_c);
    }

    /// The recorded time-series trace.
    pub fn trace(&self) -> &[PlantSample] {
        &self.trace
    }

    /// End-of-run safety verdict.
    pub fn safety_report(&self) -> SafetyReport {
        self.monitor.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn fan_off_drifts_toward_hot_equilibrium() {
        let mut w = PlantWorld::new(PlantConfig::default(), 1);
        w.step_to(at(3_600));
        assert!((w.temperature_c() - 33.0).abs() < 0.1);
    }

    #[test]
    fn fan_on_holds_near_cool_equilibrium() {
        let mut w = PlantWorld::new(PlantConfig::default(), 1);
        w.set_fan(true);
        w.step_to(at(3_600));
        assert!((w.temperature_c() - 21.0).abs() < 0.1);
    }

    #[test]
    fn heat_schedule_changes_apply_in_order() {
        let config = PlantConfig {
            heat_schedule: vec![
                (SimDuration::from_secs(100), 0.0),
                (SimDuration::from_secs(10), 600.0),
            ],
            ..PlantConfig::default()
        };
        let mut w = PlantWorld::new(config, 1);
        w.step_to(at(60));
        let hot = w.temperature_c();
        assert!(hot > 22.5, "600 W burst should heat: {hot}");
        w.step_to(at(1_200));
        // With the source off, the room cools toward ambient (18 °C).
        assert!(w.temperature_c() < 19.0);
    }

    #[test]
    fn trace_samples_at_configured_period() {
        let mut w = PlantWorld::new(PlantConfig::default(), 1);
        w.step_to(at(10));
        // One sample at t≈0 plus one per second.
        let n = w.trace().len();
        assert!((10..=12).contains(&n), "unexpected sample count {n}");
        for pair in w.trace().windows(2) {
            assert!(pair[1].time > pair[0].time);
        }
    }

    #[test]
    fn unattended_overheating_violates_safety() {
        // Nobody runs the fan or the alarm: temperature rises to 33 °C and
        // stays out of the 22±1 band past the 5-minute deadline.
        let mut w = PlantWorld::new(PlantConfig::default(), 1);
        w.step_to(at(1_800));
        let report = w.safety_report();
        assert!(!report.is_safe());
        assert!(report.max_deviation_c > 5.0);
    }

    #[test]
    fn alarm_on_keeps_run_safe_even_when_hot() {
        let mut w = PlantWorld::new(PlantConfig::default(), 1);
        w.set_alarm(true);
        w.step_to(at(1_800));
        assert!(w.safety_report().is_safe());
        assert_eq!(w.alarm().first_on(), Some(SimTime::ZERO));
    }

    #[test]
    fn step_to_past_time_is_noop() {
        let mut w = PlantWorld::new(PlantConfig::default(), 1);
        w.step_to(at(5));
        let t = w.temperature_c();
        w.step_to(at(1));
        assert_eq!(w.temperature_c(), t);
        assert_eq!(w.now(), at(5));
    }

    #[test]
    fn reset_rebuilds_the_new_world_in_place() {
        let config = PlantConfig {
            heat_schedule: vec![
                (SimDuration::from_secs(100), 0.0),
                (SimDuration::from_secs(10), 600.0),
            ],
            ..PlantConfig::default()
        };
        let mut w = PlantWorld::new(PlantConfig::default(), 1);
        w.set_fan(true);
        w.step_to(at(900));
        w.set_alarm(true);
        w.step_to(at(1_800));
        let trace_capacity = w.trace.capacity();
        w.reset(config.clone(), 9);
        assert_eq!(
            format!("{w:?}"),
            format!("{:?}", PlantWorld::new(config, 9))
        );
        assert_eq!(w.trace.capacity(), trace_capacity);
    }

    #[test]
    fn sensor_reading_tracks_true_temperature() {
        let mut w = PlantWorld::new(PlantConfig::default(), 7);
        w.step_to(at(120));
        let true_t = w.temperature_c();
        let reading = w.sample_sensor().as_celsius();
        assert!((reading - true_t).abs() < 0.5);
    }
}
