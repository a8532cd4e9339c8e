//! On/off actuators (fan, alarm) with switching history.

use bas_sim::time::SimTime;
use serde::{Deserialize, Serialize};

/// A two-state actuator that records every state transition.
///
/// The attack experiments use the transition log as ground truth: a forged
/// actuator command shows up here regardless of what any process claims.
///
/// ```
/// use bas_plant::actuator::OnOffActuator;
/// use bas_sim::time::SimTime;
///
/// let mut fan = OnOffActuator::new("fan");
/// fan.set(SimTime::from_nanos(10), true);
/// fan.set(SimTime::from_nanos(10), true); // no-op: already on
/// fan.set(SimTime::from_nanos(20), false);
/// assert_eq!(fan.transitions().len(), 2);
/// assert!(!fan.is_on());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnOffActuator {
    name: String,
    on: bool,
    transitions: Vec<(SimTime, bool)>,
}

impl OnOffActuator {
    /// Creates an actuator, initially off.
    pub fn new(name: impl Into<String>) -> Self {
        OnOffActuator {
            name: name.into(),
            on: false,
            transitions: Vec::new(),
        }
    }

    /// Switches the actuator off and forgets its history, keeping the
    /// history's capacity.
    pub fn reset(&mut self) {
        self.on = false;
        self.transitions.clear();
    }

    /// The actuator's name ("fan", "alarm").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current state.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Commands the actuator. Repeated commands to the current state are
    /// not recorded as transitions.
    pub fn set(&mut self, now: SimTime, on: bool) {
        if self.on != on {
            self.on = on;
            self.transitions.push((now, on));
        }
    }

    /// Every recorded transition as `(time, new_state)`.
    pub fn transitions(&self) -> &[(SimTime, bool)] {
        &self.transitions
    }

    /// The time the actuator first switched on, if it ever did.
    pub fn first_on(&self) -> Option<SimTime> {
        self.transitions.iter().find(|(_, s)| *s).map(|(t, _)| *t)
    }

    /// Total number of on/off switches (wear metric used by ablations).
    pub fn switch_count(&self) -> usize {
        self.transitions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitions_record_edges_only() {
        let mut a = OnOffActuator::new("alarm");
        a.set(SimTime::from_nanos(1), false); // already off: no edge
        a.set(SimTime::from_nanos(2), true);
        a.set(SimTime::from_nanos(3), true); // no edge
        a.set(SimTime::from_nanos(4), false);
        assert_eq!(
            a.transitions(),
            &[
                (SimTime::from_nanos(2), true),
                (SimTime::from_nanos(4), false)
            ]
        );
        assert_eq!(a.switch_count(), 2);
    }

    #[test]
    fn first_on_finds_earliest_activation() {
        let mut a = OnOffActuator::new("alarm");
        assert_eq!(a.first_on(), None);
        a.set(SimTime::from_nanos(5), true);
        a.set(SimTime::from_nanos(9), false);
        a.set(SimTime::from_nanos(12), true);
        assert_eq!(a.first_on(), Some(SimTime::from_nanos(5)));
    }

    #[test]
    fn name_is_kept() {
        assert_eq!(OnOffActuator::new("fan").name(), "fan");
    }
}
