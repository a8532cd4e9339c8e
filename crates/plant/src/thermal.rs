//! First-order lumped thermal model of the test enclosure.
//!
//! The enclosure exchanges heat with ambient through a loss coefficient `k`
//! (W/°C); an external heat source `q_ext` (W) models the paper's manually
//! heated environment; the fan, when on, adds forced-convection losses
//! `k_fan` (W/°C). Temperature evolves by explicit Euler integration:
//!
//! ```text
//! dT/dt = ( q_ext − (k + fan·k_fan) · (T − T_ambient) ) / C
//! ```

/// Parameters and state of the room model.
///
/// ```
/// use bas_plant::thermal::RoomThermalModel;
///
/// let mut room = RoomThermalModel::default();
/// let t0 = room.temperature_c();
/// room.step(60.0, false); // one minute, fan off: external heat wins
/// assert!(room.temperature_c() > t0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RoomThermalModel {
    /// Current enclosure temperature, °C.
    temp_c: f64,
    /// Ambient (outside-enclosure) temperature, °C.
    pub ambient_c: f64,
    /// Thermal mass, J/°C.
    pub thermal_mass_j_per_c: f64,
    /// Passive loss coefficient toward ambient, W/°C.
    pub base_loss_w_per_c: f64,
    /// Additional loss coefficient while the fan runs, W/°C.
    pub fan_loss_w_per_c: f64,
    /// External heat input (the "manual heating"), W.
    pub external_heat_w: f64,
}

impl Default for RoomThermalModel {
    /// A small chamber: ~50 s fan time-constant, equilibria at 33 °C
    /// (fan off) and 21 °C (fan on) with the default 300 W source.
    fn default() -> Self {
        RoomThermalModel {
            temp_c: 22.0,
            ambient_c: 18.0,
            thermal_mass_j_per_c: 5_000.0,
            base_loss_w_per_c: 20.0,
            fan_loss_w_per_c: 80.0,
            external_heat_w: 300.0,
        }
    }
}

impl RoomThermalModel {
    /// Creates a model at `initial_temp_c` with otherwise default physics.
    pub fn with_initial_temp(initial_temp_c: f64) -> Self {
        RoomThermalModel {
            temp_c: initial_temp_c,
            ..RoomThermalModel::default()
        }
    }

    /// Current enclosure temperature, °C.
    pub fn temperature_c(&self) -> f64 {
        self.temp_c
    }

    /// Overrides the current temperature (used by tests and scenario setup).
    pub fn set_temperature_c(&mut self, temp_c: f64) {
        self.temp_c = temp_c;
    }

    /// The temperature this model converges to for a fixed fan state.
    pub fn equilibrium_c(&self, fan_on: bool) -> f64 {
        let k = self.loss_coefficient(fan_on);
        self.ambient_c + self.external_heat_w / k
    }

    /// The effective loss coefficient for a fan state, W/°C.
    pub fn loss_coefficient(&self, fan_on: bool) -> f64 {
        self.base_loss_w_per_c + if fan_on { self.fan_loss_w_per_c } else { 0.0 }
    }

    /// Advances the model by `dt_s` seconds with the given fan state.
    ///
    /// Large steps are internally subdivided so explicit Euler stays stable
    /// and accurate (sub-step ≤ 1/50 of the current time constant).
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is negative or non-finite.
    pub fn step(&mut self, dt_s: f64, fan_on: bool) {
        assert!(dt_s.is_finite() && dt_s >= 0.0, "invalid dt: {dt_s}");
        let k = self.loss_coefficient(fan_on);
        let tau = self.thermal_mass_j_per_c / k;
        let max_sub = tau / 50.0;
        let mut remaining = dt_s;
        while remaining > 0.0 {
            let h = remaining.min(max_sub);
            let d_t = (self.external_heat_w - k * (self.temp_c - self.ambient_c))
                / self.thermal_mass_j_per_c;
            self.temp_c += d_t * h;
            remaining -= h;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_fan_off_equilibrium() {
        let mut room = RoomThermalModel::default();
        let eq = room.equilibrium_c(false);
        room.step(3_600.0, false);
        assert!(
            (room.temperature_c() - eq).abs() < 0.01,
            "{} vs {eq}",
            room.temperature_c()
        );
    }

    #[test]
    fn converges_to_fan_on_equilibrium() {
        let mut room = RoomThermalModel::default();
        let eq = room.equilibrium_c(true);
        room.step(3_600.0, true);
        assert!((room.temperature_c() - eq).abs() < 0.01);
    }

    #[test]
    fn fan_cools_relative_to_fan_off() {
        let mut hot = RoomThermalModel::with_initial_temp(30.0);
        let mut cool = hot.clone();
        hot.step(120.0, false);
        cool.step(120.0, true);
        assert!(cool.temperature_c() < hot.temperature_c());
    }

    #[test]
    fn subdivided_steps_match_many_small_steps() {
        let mut coarse = RoomThermalModel::default();
        let mut fine = RoomThermalModel::default();
        coarse.step(100.0, true);
        for _ in 0..1_000 {
            fine.step(0.1, true);
        }
        assert!((coarse.temperature_c() - fine.temperature_c()).abs() < 0.05);
    }

    #[test]
    fn equilibrium_formula() {
        let room = RoomThermalModel::default();
        assert!((room.equilibrium_c(false) - 33.0).abs() < 1e-9);
        assert!((room.equilibrium_c(true) - 21.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid dt")]
    fn negative_dt_rejected() {
        RoomThermalModel::default().step(-1.0, false);
    }

    #[test]
    fn zero_dt_is_identity() {
        let mut room = RoomThermalModel::default();
        let t = room.temperature_c();
        room.step(0.0, true);
        assert_eq!(room.temperature_c(), t);
    }
}
