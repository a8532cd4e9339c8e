//! First-order lumped thermal model of the test enclosure.
//!
//! The enclosure exchanges heat with ambient through a loss coefficient `k`
//! (W/°C); an external heat source `q_ext` (W) models the paper's manually
//! heated environment; the fan, when on, adds forced-convection losses
//! `k_fan` (W/°C):
//!
//! ```text
//! dT/dt = ( q_ext − (k + fan·k_fan) · (T − T_ambient) ) / C
//! ```
//!
//! The model is linear and first order, so while its inputs (fan, heat,
//! ambient) stay constant it has an exact solution, a [`Trajectory`]:
//!
//! ```text
//! T(t) = T_eq + (T0 − T_eq) · e^(−(k + fan·k_fan)·t / C)
//! T_eq = T_ambient + q_ext / (k + fan·k_fan)
//! ```
//!
//! The plant evaluates it in closed form: there is no integration step
//! and no integration error.

/// Physical parameters of the room model.
///
/// ```
/// use bas_plant::thermal::RoomThermalModel;
///
/// let room = RoomThermalModel::default();
/// let path = room.trajectory(22.0, false);
/// assert!(path.at(60.0) > 22.0); // one minute, fan off: external heat wins
/// assert!((path.at(1e6) - room.equilibrium_c(false)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RoomThermalModel {
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
            ambient_c: 18.0,
            thermal_mass_j_per_c: 5_000.0,
            base_loss_w_per_c: 20.0,
            fan_loss_w_per_c: 80.0,
            external_heat_w: 300.0,
        }
    }
}

impl RoomThermalModel {
    /// The temperature this model converges to for a fixed fan state.
    pub fn equilibrium_c(&self, fan_on: bool) -> f64 {
        let k = self.loss_coefficient(fan_on);
        self.ambient_c + self.external_heat_w / k
    }

    /// The effective loss coefficient for a fan state, W/°C.
    pub fn loss_coefficient(&self, fan_on: bool) -> f64 {
        self.base_loss_w_per_c + if fan_on { self.fan_loss_w_per_c } else { 0.0 }
    }

    /// The exact trajectory from `start_c` with the current inputs held.
    pub fn trajectory(&self, start_c: f64, fan_on: bool) -> Trajectory {
        Trajectory {
            start_c,
            equilibrium_c: self.equilibrium_c(fan_on),
            rate_per_s: self.loss_coefficient(fan_on) / self.thermal_mass_j_per_c,
        }
    }
}

/// The room's exact temperature while its inputs are held constant:
/// `T(t) = eq + (start − eq) · e^(−rate·t)`, monotone from `start_c`
/// toward `equilibrium_c`.
///
/// ```
/// use bas_plant::thermal::Trajectory;
///
/// let path = Trajectory { start_c: 30.0, equilibrium_c: 20.0, rate_per_s: 0.02 };
/// assert_eq!(path.at(0.0), 30.0);
/// let t = path.time_to(23.0); // ~60.2 s
/// assert!((path.at(t) - 23.0).abs() < 1e-12);
/// assert_eq!(path.time_to(19.0), f64::INFINITY); // beyond the equilibrium
/// assert_eq!(path.time_to(31.0), 0.0); // already past it
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trajectory {
    /// Temperature at the start, °C.
    pub start_c: f64,
    /// The equilibrium approached, °C.
    pub equilibrium_c: f64,
    /// Decay rate `(k + fan·k_fan) / C`, 1/s.
    pub rate_per_s: f64,
}

impl Trajectory {
    /// Temperature `secs` seconds after the start, °C; exactly `start_c`
    /// at 0.
    pub fn at(&self, secs: f64) -> f64 {
        self.start_c - (self.equilibrium_c - self.start_c) * (-self.rate_per_s * secs).exp_m1()
    }

    /// Whether the temperature rises (or stays put).
    pub fn rising(&self) -> bool {
        self.equilibrium_c >= self.start_c
    }

    /// Seconds until the temperature first reaches `level`: 0 when it
    /// starts at or past `level` in its direction of travel, infinity when
    /// `level` lies at or beyond the equilibrium.
    pub fn time_to(&self, level: f64) -> f64 {
        let (gap, ahead) = (self.equilibrium_c - self.start_c, level - self.start_c);
        let (gap, ahead) = if gap < 0.0 {
            (-gap, -ahead)
        } else {
            (gap, ahead)
        };
        if ahead <= 0.0 {
            0.0
        } else if ahead >= gap {
            f64::INFINITY
        } else {
            -(-ahead / gap).ln_1p() / self.rate_per_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_either_equilibrium_and_the_fan_cools() {
        let room = RoomThermalModel::default();
        for fan_on in [false, true] {
            let eq = room.equilibrium_c(fan_on);
            let t = room.trajectory(22.0, fan_on).at(3_600.0);
            assert!((t - eq).abs() < 0.01, "{t} vs {eq}");
        }
        assert!((room.equilibrium_c(false) - 33.0).abs() < 1e-9);
        assert!((room.equilibrium_c(true) - 21.0).abs() < 1e-9);
        assert!(room.trajectory(30.0, true).at(120.0) < room.trajectory(30.0, false).at(120.0));
    }
}
