//! The scenario's physical safety property.
//!
//! From the paper (§II): "The goal of this controller is to maintain the
//! room temperature within a predefined range. [...] If the controller fails
//! to achieve the desired temperature within certain time interval (e.g., 5
//! minutes), the alarm will be triggered to alert the occupants."
//!
//! [`SafetyMonitor`] checks exactly that: whenever the temperature stays
//! outside the allowed band around the setpoint continuously for longer than
//! the alarm deadline, the alarm must be on. The monitor is an *oracle* —
//! it watches the true plant state, not any process's belief — so a
//! compromised platform cannot hide a violation from it.

use bas_sim::time::{SimDuration, SimTime};

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
    /// Largest observed |temperature − setpoint|, °C.
    pub max_deviation_c: f64,
    /// Fraction of observations inside the band.
    pub in_band_fraction: f64,
    /// For each excursion during which the alarm fired: time from excursion
    /// start to alarm-on.
    pub alarm_latencies: Vec<SimDuration>,
}

impl SafetyReport {
    /// True if the property held for the whole run.
    pub fn is_safe(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Online checker for the alarm-deadline safety property.
///
/// ```
/// use bas_plant::safety::SafetyMonitor;
/// use bas_sim::time::{SimDuration, SimTime};
///
/// let mut m = SafetyMonitor::new(22.0, 1.0, SimDuration::from_mins(5));
/// // In band: fine.
/// m.observe(SimTime::ZERO, 22.3, false);
/// // Excursion begins but alarm fires inside the deadline: still safe.
/// m.observe(SimTime::ZERO + SimDuration::from_secs(10), 25.0, false);
/// m.observe(SimTime::ZERO + SimDuration::from_secs(70), 25.0, true);
/// assert!(m.report().is_safe());
/// ```
#[derive(Debug, Clone)]
pub struct SafetyMonitor {
    setpoint_c: f64,
    band_c: f64,
    deadline: SimDuration,
    excursion_start: Option<SimTime>,
    alarm_seen_this_excursion: bool,
    violated_this_excursion: bool,
    violations: Vec<SafetyViolation>,
    alarm_latencies: Vec<SimDuration>,
    max_deviation_c: f64,
    observations: u64,
    in_band_observations: u64,
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
            excursion_start: None,
            alarm_seen_this_excursion: false,
            violated_this_excursion: false,
            violations: Vec::new(),
            alarm_latencies: Vec::new(),
            max_deviation_c: 0.0,
            observations: 0,
            in_band_observations: 0,
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

    /// Updates the reference when an authorized setpoint change occurs.
    /// The current excursion window (if any) is restarted, since the target
    /// moved.
    pub fn set_setpoint(&mut self, now: SimTime, setpoint_c: f64) {
        self.setpoint_c = setpoint_c;
        self.excursion_start = Some(now);
        self.alarm_seen_this_excursion = false;
        self.violated_this_excursion = false;
    }

    /// Feeds one observation of the true plant state.
    pub fn observe(&mut self, now: SimTime, temp_c: f64, alarm_on: bool) {
        self.observations += 1;
        let deviation = (temp_c - self.setpoint_c).abs();
        if deviation > self.max_deviation_c {
            self.max_deviation_c = deviation;
        }

        if deviation <= self.band_c {
            self.in_band_observations += 1;
            self.excursion_start = None;
            self.alarm_seen_this_excursion = false;
            self.violated_this_excursion = false;
            return;
        }

        let start = *self.excursion_start.get_or_insert(now);

        if alarm_on && !self.alarm_seen_this_excursion {
            self.alarm_seen_this_excursion = true;
            self.alarm_latencies.push(now.saturating_since(start));
        }

        let overdue = now.saturating_since(start) > self.deadline;
        if overdue && !alarm_on && !self.violated_this_excursion {
            self.violated_this_excursion = true;
            self.violations.push(SafetyViolation {
                time: now,
                excursion_start: start,
                temp_c,
                setpoint_c: self.setpoint_c,
            });
        }
    }

    /// Produces the end-of-run summary.
    pub fn report(&self) -> SafetyReport {
        SafetyReport {
            violations: self.violations.clone(),
            max_deviation_c: self.max_deviation_c,
            in_band_fraction: if self.observations == 0 {
                1.0
            } else {
                self.in_band_observations as f64 / self.observations as f64
            },
            alarm_latencies: self.alarm_latencies.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn monitor() -> SafetyMonitor {
        SafetyMonitor::new(22.0, 1.0, SimDuration::from_mins(5))
    }

    #[test]
    fn in_band_run_is_safe() {
        let mut m = monitor();
        for s in 0..600 {
            m.observe(t(s), 22.0 + 0.5 * ((s % 3) as f64 - 1.0), false);
        }
        let r = m.report();
        assert!(r.is_safe());
        assert_eq!(r.in_band_fraction, 1.0);
    }

    #[test]
    fn missed_alarm_after_deadline_is_violation() {
        let mut m = monitor();
        for s in 0..400 {
            m.observe(t(s), 26.0, false); // excursion, alarm never fires
        }
        let r = m.report();
        assert_eq!(r.violations.len(), 1, "exactly one violation per excursion");
        let v = &r.violations[0];
        assert_eq!(v.excursion_start, t(0));
        assert!(v.time > t(300));
    }

    #[test]
    fn alarm_inside_deadline_prevents_violation() {
        let mut m = monitor();
        for s in 0..250 {
            m.observe(t(s), 26.0, s >= 100);
        }
        let r = m.report();
        assert!(r.is_safe());
        assert_eq!(r.alarm_latencies, vec![SimDuration::from_secs(100)]);
    }

    #[test]
    fn alarm_after_deadline_still_records_violation_and_latency() {
        let mut m = monitor();
        for s in 0..400 {
            m.observe(t(s), 26.0, s >= 350);
        }
        let r = m.report();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.alarm_latencies, vec![SimDuration::from_secs(350)]);
    }

    #[test]
    fn return_to_band_resets_excursion() {
        let mut m = monitor();
        // Two short excursions separated by an in-band interval: no alarm
        // needed because neither excursion exceeds the deadline.
        for s in 0..200 {
            m.observe(t(s), 26.0, false);
        }
        for s in 200..260 {
            m.observe(t(s), 22.0, false);
        }
        for s in 260..460 {
            m.observe(t(s), 26.0, false);
        }
        assert!(m.report().is_safe());
    }

    #[test]
    fn setpoint_change_restarts_window() {
        let mut m = monitor();
        for s in 0..290 {
            m.observe(t(s), 26.0, false);
        }
        // Administrator raises the setpoint to 26: now in band.
        m.set_setpoint(t(290), 26.0);
        for s in 290..900 {
            m.observe(t(s), 26.0, false);
        }
        assert!(m.report().is_safe());
        assert_eq!(m.setpoint_c(), 26.0);
    }

    #[test]
    fn max_deviation_tracks_peak() {
        let mut m = monitor();
        m.observe(t(0), 22.0, false);
        m.observe(t(1), 27.5, false);
        m.observe(t(2), 23.0, false);
        assert!((m.report().max_deviation_c - 5.5).abs() < 1e-9);
    }

    #[test]
    fn empty_run_reports_safe() {
        let r = monitor().report();
        assert!(r.is_safe());
        assert_eq!(r.in_band_fraction, 1.0);
    }
}
