//! BMP180-like temperature sensor model.

use bas_sim::rng::SimRng;

use crate::units::MilliCelsius;

/// A temperature sensor with Gaussian noise and output quantization.
///
/// The paper's testbed samples a Bosch BMP180, which reports temperature in
/// 0.1 °C steps with roughly ±0.1 °C short-term noise; those are the default
/// parameters here.
///
/// ```
/// use bas_plant::sensor::TemperatureSensor;
///
/// let mut s = TemperatureSensor::new(0.0, 0.1, 1); // noiseless
/// assert_eq!(s.sample(21.55).as_celsius(), 21.6);  // quantized to 0.1°C
/// ```
#[derive(Debug, Clone)]
pub struct TemperatureSensor {
    noise_std_c: f64,
    quantization_c: f64,
    rng: SimRng,
}

impl TemperatureSensor {
    /// Creates a sensor with the given noise standard deviation and
    /// quantization step (both in °C), seeded for reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `noise_std_c` is negative or `quantization_c` is not
    /// positive.
    pub fn new(noise_std_c: f64, quantization_c: f64, seed: u64) -> Self {
        assert!(noise_std_c >= 0.0, "negative noise std: {noise_std_c}");
        assert!(
            quantization_c > 0.0,
            "non-positive quantization: {quantization_c}"
        );
        TemperatureSensor {
            noise_std_c,
            quantization_c,
            rng: SimRng::seed_from(seed),
        }
    }

    /// A BMP180-like sensor: 0.1 °C quantization, 0.05 °C noise std.
    pub fn bmp180(seed: u64) -> Self {
        TemperatureSensor::new(0.05, 0.1, seed)
    }

    /// Samples the sensor given the true enclosure temperature.
    pub fn sample(&mut self, true_temp_c: f64) -> MilliCelsius {
        let noisy = self.rng.normal(true_temp_c, self.noise_std_c);
        let quantized = (noisy / self.quantization_c).round() * self.quantization_c;
        MilliCelsius::from_celsius(quantized)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noiseless_sensor_quantizes_exactly() {
        let mut s = TemperatureSensor::new(0.0, 0.5, 7);
        assert_eq!(s.sample(21.2).as_celsius(), 21.0);
        assert_eq!(s.sample(21.3).as_celsius(), 21.5);
    }

    #[test]
    fn noisy_sensor_is_unbiased() {
        let mut s = TemperatureSensor::bmp180(11);
        let n = 5_000;
        let mean: f64 = (0..n).map(|_| s.sample(22.0).as_celsius()).sum::<f64>() / n as f64;
        assert!((mean - 22.0).abs() < 0.01, "biased mean {mean}");
    }

    #[test]
    fn same_seed_reproduces_stream() {
        let mut a = TemperatureSensor::bmp180(3);
        let mut b = TemperatureSensor::bmp180(3);
        for _ in 0..50 {
            assert_eq!(a.sample(20.0), b.sample(20.0));
        }
    }

    #[test]
    fn outputs_land_on_quantization_grid() {
        let mut s = TemperatureSensor::bmp180(9);
        for _ in 0..200 {
            let raw = s.sample(23.456).raw();
            assert_eq!(raw % 100, 0, "not on 0.1°C grid: {raw}");
        }
    }

    #[test]
    #[should_panic(expected = "non-positive quantization")]
    fn rejects_zero_quantization() {
        let _ = TemperatureSensor::new(0.1, 0.0, 1);
    }
}
