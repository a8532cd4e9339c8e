//! The scenario's physical safety property.
//!
//! From the paper (§II): "The goal of this controller is to maintain the
//! room temperature within a predefined range. [...] If the controller fails
//! to achieve the desired temperature within certain time interval (e.g., 5
//! minutes), the alarm will be triggered to alert the occupants."
//!
//! [`SafetyMonitor`] checks exactly that: whenever the temperature stays
//! outside the allowed band around the setpoint continuously for longer than
//! the alarm deadline, the alarm must be on. It follows the room's exact
//! trajectory, so excursion starts and alarm latencies are crossing times
//! solved in closed form, not samples. The monitor is an *oracle* —
//! it watches the true plant state, not any process's belief — so a
//! compromised platform cannot hide a violation from it.

use bas_sim::time::{SimDuration, SimTime};

use crate::thermal::Trajectory;

/// One recorded violation of the safety property.
#[derive(Debug, Clone, PartialEq)]
pub struct SafetyViolation {
    /// When the violation was detected.
    pub time: SimTime,
    /// When the temperature excursion began.
    pub excursion_start: SimTime,
    /// Temperature at detection, °C.
    pub temp_c: f64,
    /// Setpoint at detection, °C.
    pub setpoint_c: f64,
}

/// Summary produced at the end of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SafetyReport {
    /// All detected violations, in time order.
    pub violations: Vec<SafetyViolation>,
    /// Largest |temperature − setpoint| reached, °C.
    pub max_deviation_c: f64,
    /// Fraction of the run's time spent inside the band.
    pub in_band_fraction: f64,
    /// For each excursion during which the alarm fired: time from excursion
    /// start to alarm-on.
    pub alarm_latencies: Vec<SimDuration>,
    /// When the latest out-of-band stretch ended: the instant the
    /// temperature last re-entered the band, or the end of the report if
    /// it is out of band there. None if it never left the band.
    pub last_out_of_band: Option<SimTime>,
}

impl SafetyReport {
    /// True if the property held for the whole run.
    pub fn is_safe(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Exact checker for the alarm-deadline safety property.
///
/// The monitor follows the room's closed-form [`Trajectory`] piece by
/// piece, each with a constant alarm state. A piece is monotone, so it
/// crosses each band edge at most once, and the monitor solves for the
/// crossing times instead of sampling: an excursion starts the instant
/// the temperature leaves the band, and it violates the property if the
/// alarm is off at any instant after `start + deadline` while it lasts.
/// `in_band_fraction` weighs the run by time.
///
/// ```
/// use bas_plant::safety::SafetyMonitor;
/// use bas_plant::thermal::RoomThermalModel;
/// use bas_sim::time::{SimDuration, SimTime};
///
/// let at = |s| SimTime::ZERO + SimDuration::from_secs(s);
/// let mut m = SafetyMonitor::new(22.0, 1.0, SimDuration::from_mins(5));
/// // Fan off from 22 °C: the room heats toward 33 °C and leaves the
/// // band after 23.8 s.
/// let path = RoomThermalModel::default().trajectory(22.0, false);
/// m.follow(SimTime::ZERO, &path, false, at(60));
/// // The alarm goes on at 60 s, inside the deadline: still safe.
/// m.follow(SimTime::ZERO, &path, true, at(1_200));
/// let report = m.report();
/// assert!(report.is_safe());
/// assert_eq!(report.alarm_latencies[0].as_millis(), 36_172);
/// ```
#[derive(Debug, Clone)]
pub struct SafetyMonitor {
    setpoint_c: f64,
    band_c: f64,
    deadline: SimDuration,
    /// How far the monitor has followed the temperature.
    at: SimTime,
    excursion: Option<Excursion>,
    violations: Vec<SafetyViolation>,
    alarm_latencies: Vec<SimDuration>,
    max_deviation_c: f64,
    in_band: SimDuration,
    last_out_of_band: Option<SimTime>,
}

/// The excursion under way: when it began, and whether the alarm was
/// seen on and the property violated since.
#[derive(Debug, Clone, Copy)]
struct Excursion {
    start: SimTime,
    alarm_seen: bool,
    violated: bool,
}

impl Excursion {
    fn from(start: SimTime) -> Self {
        Excursion {
            start,
            alarm_seen: false,
            violated: false,
        }
    }
}

impl SafetyMonitor {
    /// Creates a monitor for `setpoint_c ± band_c` with the given alarm
    /// deadline.
    ///
    /// # Panics
    ///
    /// Panics if `band_c` is not positive.
    pub fn new(setpoint_c: f64, band_c: f64, deadline: SimDuration) -> Self {
        assert!(band_c > 0.0, "band must be positive");
        SafetyMonitor {
            setpoint_c,
            band_c,
            deadline,
            at: SimTime::ZERO,
            excursion: None,
            violations: Vec::new(),
            alarm_latencies: Vec::new(),
            max_deviation_c: 0.0,
            in_band: SimDuration::ZERO,
            last_out_of_band: None,
        }
    }

    /// Returns the monitor to `SafetyMonitor::new(setpoint_c, band_c,
    /// deadline)` in place: the violation and latency logs are cleared
    /// but keep their capacity.
    ///
    /// # Panics
    ///
    /// Panics if `band_c` is not positive.
    pub fn reset(&mut self, setpoint_c: f64, band_c: f64, deadline: SimDuration) {
        let mut violations = std::mem::take(&mut self.violations);
        let mut alarm_latencies = std::mem::take(&mut self.alarm_latencies);
        violations.clear();
        alarm_latencies.clear();
        *self = SafetyMonitor {
            violations,
            alarm_latencies,
            ..SafetyMonitor::new(setpoint_c, band_c, deadline)
        };
    }

    /// The current reference setpoint, °C.
    pub fn setpoint_c(&self) -> f64 {
        self.setpoint_c
    }

    /// Updates the reference when an authorized setpoint change occurs at
    /// `now`, where the monitor must stand. The current excursion window
    /// (if any) is restarted, since the target moved.
    pub fn set_setpoint(&mut self, now: SimTime, setpoint_c: f64) {
        debug_assert_eq!(now, self.at, "the monitor stands at the change");
        self.setpoint_c = setpoint_c;
        self.excursion = Some(Excursion::from(now));
    }

    /// Follows the temperature from where the monitor stands to `until`
    /// along `path`, which starts at `start` (at or before the monitor's
    /// position), with the alarm `alarm_on` throughout. Times at or
    /// before the monitor's position are ignored.
    pub fn follow(&mut self, start: SimTime, path: &Trajectory, alarm_on: bool, until: SimTime) {
        let from = self.at;
        if until <= from {
            return;
        }
        self.at = until;
        let temp_at = |t: SimTime| path.at(t.saturating_since(start).as_secs_f64());
        for t in [from, until] {
            let deviation = (temp_at(t) - self.setpoint_c).abs();
            self.max_deviation_c = self.max_deviation_c.max(deviation);
        }
        // A monotone path is out of band before it reaches the band's near
        // edge and after it passes the far one; a constant path resting on
        // the far edge never passes it.
        let (lo, hi) = (self.setpoint_c - self.band_c, self.setpoint_c + self.band_c);
        let (near, far) = if path.rising() { (lo, hi) } else { (hi, lo) };
        let resting = path.equilibrium_c == path.start_c && path.start_c == far;
        let leave = if resting {
            f64::INFINITY
        } else {
            path.time_to(far)
        };
        let (enter, leave) = (path.time_to(near), leave);
        // Seconds after `start` as a time within [from, until], rounded up
        // to the nanosecond.
        let span = until.saturating_since(start).as_nanos() as f64;
        let clamp = |secs: f64| {
            let ns = (secs * 1e9).ceil();
            if ns >= span {
                until
            } else {
                (start + SimDuration::from_nanos(ns as u64)).max(from)
            }
        };
        let (enter, leave) = (clamp(enter), clamp(leave));
        if enter < leave {
            self.out_of_band(from, enter, alarm_on, temp_at);
            self.in_band += leave - enter;
            self.excursion = None;
            self.out_of_band(leave, until, alarm_on, temp_at);
        } else {
            self.out_of_band(from, until, alarm_on, temp_at);
        }
    }

    /// Accounts `[from, until)`, all of it out of band.
    fn out_of_band(
        &mut self,
        from: SimTime,
        until: SimTime,
        alarm_on: bool,
        temp_at: impl Fn(SimTime) -> f64,
    ) {
        if from >= until {
            return;
        }
        self.last_out_of_band = Some(until);
        let excursion = self.excursion.get_or_insert(Excursion::from(from));
        if alarm_on && !excursion.alarm_seen {
            excursion.alarm_seen = true;
            let latency = from.saturating_since(excursion.start);
            self.alarm_latencies.push(latency);
        }
        let due = excursion.start + self.deadline;
        if !alarm_on && !excursion.violated && until > due {
            excursion.violated = true;
            let time = due.max(from);
            self.violations.push(SafetyViolation {
                time,
                excursion_start: excursion.start,
                temp_c: temp_at(time),
                setpoint_c: self.setpoint_c,
            });
        }
    }

    /// The summary as of where the monitor stands.
    pub fn report(&self) -> SafetyReport {
        SafetyReport {
            violations: self.violations.clone(),
            max_deviation_c: self.max_deviation_c,
            in_band_fraction: if self.at == SimTime::ZERO {
                1.0
            } else {
                self.in_band.as_secs_f64() / self.at.as_secs_f64()
            },
            alarm_latencies: self.alarm_latencies.clone(),
            last_out_of_band: self.last_out_of_band,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    /// Follows a room held at each `(until_s, temp_c, alarm_on)` in turn,
    /// with the setpoint 22 ± 1 °C and a 5-minute deadline.
    fn follow(pieces: &[(u64, f64, bool)]) -> SafetyReport {
        let mut m = SafetyMonitor::new(22.0, 1.0, SimDuration::from_mins(5));
        for &(until, temp_c, alarm_on) in pieces {
            let still = Trajectory {
                start_c: temp_c,
                equilibrium_c: temp_c,
                rate_per_s: 0.02,
            };
            m.follow(SimTime::ZERO, &still, alarm_on, t(until));
        }
        m.report()
    }

    #[test]
    fn in_band_run_is_safe() {
        let r = follow(&[(300, 22.5, false), (600, 21.0, false)]);
        assert!(r.is_safe());
        assert_eq!((r.in_band_fraction, r.max_deviation_c), (1.0, 1.0));
        assert_eq!(r.last_out_of_band, None);
    }

    #[test]
    fn missed_alarm_after_deadline_is_one_violation() {
        let r = follow(&[(400, 26.0, false)]);
        let v: Vec<_> = r
            .violations
            .iter()
            .map(|v| (v.excursion_start, v.time))
            .collect();
        assert_eq!(v, [(t(0), t(300))]);
        assert_eq!(r.in_band_fraction, 0.0);
    }

    #[test]
    fn alarm_inside_deadline_prevents_violation() {
        let r = follow(&[(100, 26.0, false), (400, 26.0, true)]);
        assert!(r.is_safe());
        assert_eq!(r.alarm_latencies, [SimDuration::from_secs(100)]);
    }

    #[test]
    fn alarm_off_past_the_deadline_is_violation() {
        // Switched off after the deadline, or switched on too late.
        let r = follow(&[(350, 26.0, true), (400, 26.0, false)]);
        assert_eq!(r.violations[0].time, t(350));
        assert_eq!(r.alarm_latencies, [SimDuration::ZERO]);
        let r = follow(&[(350, 26.0, false), (400, 26.0, true)]);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.alarm_latencies, [SimDuration::from_secs(350)]);
    }

    #[test]
    fn return_to_band_resets_excursion() {
        // Neither excursion exceeds the deadline; the band is time-weighted.
        let r = follow(&[(200, 26.0, false), (260, 22.0, false), (460, 26.0, false)]);
        assert!(r.is_safe());
        assert!((r.in_band_fraction - 60.0 / 460.0).abs() < 1e-12);
        assert_eq!(r.last_out_of_band, Some(t(460)));
        let r = follow(&[(200, 26.0, false), (260, 22.0, false)]);
        assert_eq!(r.last_out_of_band, Some(t(200)));
    }

    #[test]
    fn setpoint_change_restarts_window() {
        let hot = Trajectory {
            start_c: 26.0,
            equilibrium_c: 26.0,
            rate_per_s: 0.02,
        };
        let mut m = SafetyMonitor::new(22.0, 1.0, SimDuration::from_mins(5));
        m.follow(t(0), &hot, false, t(290));
        // Administrator raises the setpoint to 26: now in band.
        m.set_setpoint(t(290), 26.0);
        m.follow(t(0), &hot, false, t(900));
        assert!(m.report().is_safe());
        assert_eq!(m.setpoint_c(), 26.0);
    }

    #[test]
    fn empty_run_reports_safe() {
        let r = follow(&[]);
        assert!(r.is_safe());
        assert_eq!(r.in_band_fraction, 1.0);
    }
}
