//! Composition of room, sensor, actuators and safety monitor.
//!
//! The world is piecewise exact. It keeps one committed [`Segment`] (a
//! start time, the inputs in force and the room's closed-form
//! [`Trajectory`] under them) and commits a new one only when an input
//! changes: a fan or alarm write, a heat-schedule entry or an authorized
//! reference change. Everything else is an evaluation at the time asked:
//! a sensor read draws its noise around `T(now)`, and the temperature,
//! the safety report and the trace leave the committed state alone.

use bas_sim::time::{SimDuration, SimTime};

use crate::actuator::OnOffActuator;
use crate::safety::{SafetyMonitor, SafetyReport};
use crate::sensor::TemperatureSensor;
use crate::thermal::{RoomThermalModel, Trajectory};
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
    /// Interval between the samples of [`PlantWorld::trace`].
    pub sample_period: SimDuration,
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
            heat_schedule: Vec::new(),
        }
    }
}

/// One committed piece of the plant's history: the inputs in force from
/// `start` until the next commit, and the room's exact trajectory under
/// them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// When the segment was committed.
    pub start: SimTime,
    /// The room's temperature from `start` on.
    pub path: Trajectory,
    /// Fan state.
    pub fan_on: bool,
    /// Alarm state.
    pub alarm_on: bool,
    /// The safety oracle's reference setpoint, °C.
    pub setpoint_c: f64,
}

impl Segment {
    /// Temperature at `t`, at or after `start`, °C.
    pub fn temp_at(&self, t: SimTime) -> f64 {
        self.path.at(t.saturating_since(self.start).as_secs_f64())
    }

    /// The segment an input change at `at` commits after this one;
    /// `room` carries the heat in force and takes a heat change.
    fn then(&self, at: SimTime, input: Input, room: &mut RoomThermalModel) -> Segment {
        let mut next = Segment { start: at, ..*self };
        match input {
            Input::Fan(on) => next.fan_on = on,
            Input::Alarm(on) => next.alarm_on = on,
            Input::Heat(watts) => room.external_heat_w = watts,
            Input::Reference(c) => next.setpoint_c = c,
        }
        next.path = room.trajectory(self.temp_at(at), next.fan_on);
        next
    }
}

/// An input change: each one commits a segment.
#[derive(Debug, Clone, Copy)]
enum Input {
    Fan(bool),
    Alarm(bool),
    Heat(f64),
    Reference(f64),
}

/// The simulated physical world.
///
/// Its clock moves with [`PlantWorld::step_to`], which the scenario
/// runner and the device adapters call with the kernel's clock. How often
/// they call it changes nothing, so a run computes the same however it
/// is split.
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
    /// Room physics, with the heat in force.
    room: RoomThermalModel,
    sensor: TemperatureSensor,
    fan: OnOffActuator,
    alarm: OnOffActuator,
    /// Followed up to the current segment's start.
    monitor: SafetyMonitor,
    segment: Segment,
    /// Heat-schedule entries and authorized reference changes, in time
    /// order (heat first on a tie); those before `next_scheduled` are
    /// committed.
    schedule: Vec<(SimTime, Input)>,
    next_scheduled: usize,
    now: SimTime,
}

impl PlantWorld {
    /// Builds a world from `config`, seeding the sensor from `seed`.
    pub fn new(config: PlantConfig, seed: u64) -> Self {
        let mut world = PlantWorld {
            room: config.room.clone(),
            sensor: TemperatureSensor::new(
                config.sensor_noise_std_c,
                config.sensor_quantization_c,
                seed,
            ),
            fan: OnOffActuator::new("fan"),
            alarm: OnOffActuator::new("alarm"),
            monitor: SafetyMonitor::new(config.setpoint_c, config.band_c, config.alarm_deadline),
            segment: initial_segment(&config),
            schedule: Vec::new(),
            next_scheduled: 0,
            now: SimTime::ZERO,
            config,
        };
        world.schedule_heat();
        world
    }

    /// Re-images the world as [`PlantWorld::new`]`(config, seed)` builds
    /// it, in place: the actuator histories, the schedule and the safety
    /// monitor's logs are cleared but keep their capacity, so a recycled
    /// world fills them without allocating again.
    pub fn reset(&mut self, config: PlantConfig, seed: u64) {
        self.room = config.room.clone();
        self.sensor = TemperatureSensor::new(
            config.sensor_noise_std_c,
            config.sensor_quantization_c,
            seed,
        );
        self.fan.reset();
        self.alarm.reset();
        self.monitor
            .reset(config.setpoint_c, config.band_c, config.alarm_deadline);
        self.segment = initial_segment(&config);
        self.now = SimTime::ZERO;
        self.config = config;
        self.schedule_heat();
    }

    /// Schedules the configured heat changes in place of everything
    /// scheduled before.
    fn schedule_heat(&mut self) {
        let heat = self.config.heat_schedule.iter();
        self.schedule.clear();
        self.schedule
            .extend(heat.map(|&(at, watts)| (SimTime::ZERO + at, Input::Heat(watts))));
        self.next_scheduled = 0;
        self.commit_due_at_now();
    }

    /// Hands the safety oracle the *authorized* setpoint changes of the
    /// run, as `(time, °C)`: the ones the administrator actually issues
    /// (the attack harness deliberately leaves forged updates out). Each
    /// commits at its own time, as a heat-schedule entry does. Call it
    /// before the world runs.
    pub fn schedule_references(&mut self, changes: Vec<(SimTime, f64)>) {
        debug_assert_eq!(self.now, SimTime::ZERO, "the world has not run");
        let changes = changes.into_iter();
        self.schedule
            .extend(changes.map(|(at, c)| (at, Input::Reference(c))));
        self.commit_due_at_now();
    }

    /// Puts the schedule in time order (stable: a same-time entry added
    /// later stays behind) and commits the entries due by now.
    fn commit_due_at_now(&mut self) {
        self.schedule.sort_by_key(|(at, _)| *at);
        self.step_to(self.now);
    }

    /// Current virtual time the world has been advanced to.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// True enclosure temperature at [`PlantWorld::now`], °C.
    pub fn temperature_c(&self) -> f64 {
        self.segment.temp_at(self.now)
    }

    /// The configuration in effect.
    pub fn config(&self) -> &PlantConfig {
        &self.config
    }

    /// Advances the world's clock to `t`, committing every heat and
    /// reference change scheduled by then at its own time. Times in the
    /// past are ignored.
    pub fn step_to(&mut self, t: SimTime) {
        while let Some(&(at, input)) = self.schedule.get(self.next_scheduled) {
            if at > t {
                break;
            }
            self.next_scheduled += 1;
            self.now = self.now.max(at);
            self.commit(input);
        }
        self.now = self.now.max(t);
    }

    /// Ends the current segment at [`PlantWorld::now`] and commits the
    /// next one with `input` applied.
    fn commit(&mut self, input: Input) {
        let (at, current) = (self.now, self.segment);
        self.monitor
            .follow(current.start, &current.path, current.alarm_on, at);
        match input {
            Input::Fan(on) => self.fan.set(at, on),
            Input::Alarm(on) => self.alarm.set(at, on),
            Input::Reference(c) => self.monitor.set_setpoint(at, c),
            Input::Heat(_) => {}
        }
        self.segment = current.then(at, input, &mut self.room);
    }

    /// Draws one (noisy, quantized) sensor reading of the temperature at
    /// [`PlantWorld::now`].
    pub fn sample_sensor(&mut self) -> MilliCelsius {
        let temp_c = self.temperature_c();
        self.sensor.sample(temp_c)
    }

    /// Commands the fan actuator at [`PlantWorld::now`]; a change commits
    /// a segment.
    pub fn set_fan(&mut self, on: bool) {
        if self.fan.is_on() != on {
            self.commit(Input::Fan(on));
        }
    }

    /// Commands the alarm actuator at [`PlantWorld::now`]; a change
    /// commits a segment.
    pub fn set_alarm(&mut self, on: bool) {
        if self.alarm.is_on() != on {
            self.commit(Input::Alarm(on));
        }
    }

    /// Fan actuator state and history.
    pub fn fan(&self) -> &OnOffActuator {
        &self.fan
    }

    /// Alarm actuator state and history.
    pub fn alarm(&self) -> &OnOffActuator {
        &self.alarm
    }

    /// Number of segments committed since boot: one per input change.
    pub fn commits(&self) -> usize {
        self.next_scheduled + self.fan.switch_count() + self.alarm.switch_count()
    }

    /// The committed history, oldest first: the boot segment, then one
    /// per input change, replayed from the committed inputs. The last one
    /// is the current segment.
    pub fn segments(&self) -> Vec<Segment> {
        let fan = self.fan.transitions().iter();
        let alarm = self.alarm.transitions().iter();
        let mut inputs: Vec<(SimTime, Input)> = self.schedule[..self.next_scheduled]
            .iter()
            .copied()
            .chain(fan.map(|&(at, on)| (at, Input::Fan(on))))
            .chain(alarm.map(|&(at, on)| (at, Input::Alarm(on))))
            .collect();
        // Stable: a same-time scheduled change stays ahead of an actuator
        // write, as `step_to` commits it first.
        inputs.sort_by_key(|(at, _)| *at);
        let (mut room, mut segment) = (self.config.room.clone(), initial_segment(&self.config));
        let mut segments = vec![segment];
        segments.extend(inputs.into_iter().map(|(at, input)| {
            segment = segment.then(at, input, &mut room);
            segment
        }));
        debug_assert_eq!(segments.last(), Some(&self.segment));
        segments
    }

    /// The time series from boot to [`PlantWorld::now`], one sample every
    /// `sample_period`, evaluated from the committed history.
    ///
    /// # Panics
    ///
    /// Panics if `sample_period` is zero.
    pub fn trace(&self) -> Vec<PlantSample> {
        let period = self.config.sample_period.as_nanos();
        assert!(period > 0, "zero sample period");
        let segments = self.segments();
        (0..=self.now.as_nanos() / period)
            .map(|k| {
                let time = SimTime::from_nanos(k * period);
                let s = &segments[segments.partition_point(|s| s.start <= time) - 1];
                PlantSample {
                    time,
                    temp_c: s.temp_at(time),
                    fan_on: s.fan_on,
                    alarm_on: s.alarm_on,
                    setpoint_c: s.setpoint_c,
                }
            })
            .collect()
    }

    /// The safety verdict as of [`PlantWorld::now`].
    pub fn safety_report(&self) -> SafetyReport {
        let mut monitor = self.monitor.clone();
        let s = &self.segment;
        monitor.follow(s.start, &s.path, s.alarm_on, self.now);
        monitor.report()
    }
}

/// The segment a world built from `config` boots with.
fn initial_segment(config: &PlantConfig) -> Segment {
    Segment {
        start: SimTime::ZERO,
        path: config.room.trajectory(config.initial_temp_c, false),
        fan_on: false,
        alarm_on: false,
        setpoint_c: config.setpoint_c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn the_fan_picks_the_equilibrium() {
        for (fan_on, eq) in [(false, 33.0), (true, 21.0)] {
            let mut w = PlantWorld::new(PlantConfig::default(), 1);
            w.set_fan(fan_on);
            w.step_to(at(3_600));
            assert!((w.temperature_c() - eq).abs() < 0.1);
        }
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
        // One sample at t = 0 plus one per second, through t = 10 s.
        let times: Vec<u64> = w.trace().iter().map(|s| s.time.as_secs()).collect();
        assert_eq!(times, (0..=10).collect::<Vec<_>>());
    }

    #[test]
    fn overheating_is_safe_only_with_the_alarm_on() {
        // Nobody runs the fan: temperature rises to 33 °C and stays out
        // of the 22±1 band past the 5-minute deadline.
        for alarm_on in [false, true] {
            let mut w = PlantWorld::new(PlantConfig::default(), 1);
            w.set_alarm(alarm_on);
            w.step_to(at(1_800));
            let report = w.safety_report();
            assert_eq!(report.is_safe(), alarm_on);
            assert!(report.max_deviation_c > 5.0);
        }
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
        w.schedule_references(vec![(at(60), 23.0)]);
        w.set_fan(true);
        w.step_to(at(900));
        w.set_alarm(true);
        w.step_to(at(1_800));
        w.reset(config.clone(), 9);
        assert_eq!(
            format!("{w:?}"),
            format!("{:?}", PlantWorld::new(config, 9))
        );
    }
}
