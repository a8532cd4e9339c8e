//! Temperature units shared between the plant and the control protocol.

use std::fmt;

/// A temperature in thousandths of a degree Celsius.
///
/// This is the wire representation used by the BAS message protocol: an
/// `i32` fits in every platform's message payload, avoids floating point in
/// kernel-crossing data, and gives 0.001 °C resolution, far below sensor
/// noise.
///
/// ```
/// use bas_plant::units::MilliCelsius;
///
/// let t = MilliCelsius::from_celsius(21.5);
/// assert_eq!(t.raw(), 21_500);
/// assert!((t.as_celsius() - 21.5).abs() < 1e-9);
/// assert_eq!(format!("{t}"), "21.500°C");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MilliCelsius(i32);

impl MilliCelsius {
    /// Creates a value from raw milli-degrees.
    pub const fn new(raw: i32) -> Self {
        MilliCelsius(raw)
    }

    /// Converts from degrees Celsius, rounding to the nearest milli-degree.
    pub fn from_celsius(c: f64) -> Self {
        MilliCelsius((c * 1000.0).round() as i32)
    }

    /// Raw milli-degrees.
    pub const fn raw(self) -> i32 {
        self.0
    }

    /// Value in degrees Celsius.
    pub fn as_celsius(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Absolute difference between two temperatures.
    pub fn abs_diff(self, other: MilliCelsius) -> MilliCelsius {
        MilliCelsius((self.0 - other.0).abs())
    }
}

impl fmt::Display for MilliCelsius {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}°C", self.as_celsius())
    }
}

impl From<MilliCelsius> for f64 {
    fn from(t: MilliCelsius) -> f64 {
        t.as_celsius()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_roundtrip() {
        for c in [-40.0, 0.0, 21.537, 85.0] {
            let t = MilliCelsius::from_celsius(c);
            assert!((t.as_celsius() - c).abs() < 0.0005, "{c}");
        }
    }

    #[test]
    fn rounding_to_nearest_millidegree() {
        assert_eq!(MilliCelsius::from_celsius(0.0004999).raw(), 0);
        assert_eq!(MilliCelsius::from_celsius(0.0006).raw(), 1);
        assert_eq!(MilliCelsius::from_celsius(-0.0006).raw(), -1);
    }

    #[test]
    fn abs_diff_is_symmetric() {
        let a = MilliCelsius::new(21_000);
        let b = MilliCelsius::new(23_500);
        assert_eq!(a.abs_diff(b), MilliCelsius::new(2_500));
        assert_eq!(b.abs_diff(a), MilliCelsius::new(2_500));
    }

    #[test]
    fn ordering_matches_magnitude() {
        assert!(MilliCelsius::from_celsius(20.0) < MilliCelsius::from_celsius(20.001));
    }
}
