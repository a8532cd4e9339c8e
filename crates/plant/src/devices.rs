//! Device-bus adapters exposing the plant to driver processes.
//!
//! The kernels never touch [`crate::world::PlantWorld`] directly; drivers
//! issue device syscalls which the kernel routes to a
//! [`bas_sim::DeviceBus`]. These adapters connect the three scenario
//! devices (sensor, fan, alarm) to a shared plant instance. Each access
//! first brings the plant to the kernel's clock, so a read sees the room
//! at the instant of the read and a write takes effect when it is issued.

use std::cell::RefCell;
use std::rc::Rc;

use bas_sim::device::{Device, DeviceBus, DeviceId};
use bas_sim::time::SimTime;

use crate::world::PlantWorld;

/// Shared handle to the plant used by devices and the scenario runner.
///
/// The simulation is single-threaded, so `Rc<RefCell<_>>` suffices.
pub type SharedPlant = Rc<RefCell<PlantWorld>>;

/// The temperature sensor device: reads return the (noisy, quantized)
/// reading of the temperature at the read, in raw milli-degrees Celsius;
/// writes are ignored.
#[derive(Debug)]
pub struct SensorDevice(pub SharedPlant);

impl Device for SensorDevice {
    fn read(&mut self, now: SimTime) -> i64 {
        let mut plant = self.0.borrow_mut();
        plant.step_to(now);
        i64::from(plant.sample_sensor().raw())
    }

    fn write(&mut self, _now: SimTime, _value: i64) {
        // A physical sensor has no control register in this scenario.
    }
}

/// The fan actuator device: nonzero writes switch it on; reads return the
/// current state (0/1).
#[derive(Debug)]
pub struct FanDevice(pub SharedPlant);

impl Device for FanDevice {
    fn read(&mut self, _now: SimTime) -> i64 {
        i64::from(self.0.borrow().fan().is_on())
    }

    fn write(&mut self, now: SimTime, value: i64) {
        let mut plant = self.0.borrow_mut();
        plant.step_to(now);
        plant.set_fan(value != 0);
    }
}

/// The alarm actuator device: nonzero writes switch it on; reads return the
/// current state (0/1).
#[derive(Debug)]
pub struct AlarmDevice(pub SharedPlant);

impl Device for AlarmDevice {
    fn read(&mut self, _now: SimTime) -> i64 {
        i64::from(self.0.borrow().alarm().is_on())
    }

    fn write(&mut self, now: SimTime, value: i64) {
        let mut plant = self.0.borrow_mut();
        plant.step_to(now);
        plant.set_alarm(value != 0);
    }
}

/// Registers the three scenario devices on `bus`, all backed by `plant`.
///
/// ```
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use bas_plant::devices::install_devices;
/// use bas_plant::world::{PlantConfig, PlantWorld};
/// use bas_sim::device::{DeviceBus, DeviceId};
/// use bas_sim::time::SimTime;
///
/// let plant = Rc::new(RefCell::new(PlantWorld::new(PlantConfig::default(), 1)));
/// let mut bus = DeviceBus::new();
/// install_devices(&plant, &mut bus);
/// bus.write(DeviceId::FAN, SimTime::from_nanos(5), 1).expect("fan installed");
/// assert!(plant.borrow().fan().is_on());
/// ```
pub fn install_devices(plant: &SharedPlant, bus: &mut DeviceBus) {
    bus.register(DeviceId::TEMP_SENSOR, Box::new(SensorDevice(plant.clone())));
    bus.register(DeviceId::FAN, Box::new(FanDevice(plant.clone())));
    bus.register(DeviceId::ALARM, Box::new(AlarmDevice(plant.clone())));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::PlantConfig;

    const T: SimTime = SimTime::ZERO;

    fn setup() -> (SharedPlant, DeviceBus) {
        let plant = Rc::new(RefCell::new(PlantWorld::new(PlantConfig::default(), 5)));
        let mut bus = DeviceBus::new();
        install_devices(&plant, &mut bus);
        (plant, bus)
    }

    #[test]
    fn sensor_device_reads_milli_celsius() {
        let (plant, mut bus) = setup();
        let raw = bus
            .read(DeviceId::TEMP_SENSOR, T)
            .expect("sensor installed");
        let true_c = plant.borrow().temperature_c();
        assert!(
            (raw as f64 / 1000.0 - true_c).abs() < 0.5,
            "raw={raw} true={true_c}"
        );
    }

    #[test]
    fn fan_device_drives_actuator() {
        let (plant, mut bus) = setup();
        bus.write(DeviceId::FAN, T, 1).expect("fan installed");
        assert!(plant.borrow().fan().is_on());
        assert_eq!(bus.read(DeviceId::FAN, T).expect("fan installed"), 1);
        bus.write(DeviceId::FAN, T, 0).expect("fan installed");
        assert!(!plant.borrow().fan().is_on());
    }

    #[test]
    fn alarm_device_drives_actuator() {
        let (plant, mut bus) = setup();
        bus.write(DeviceId::ALARM, T, 7).expect("alarm installed"); // any nonzero = on
        assert!(plant.borrow().alarm().is_on());
        assert_eq!(bus.read(DeviceId::ALARM, T).expect("alarm installed"), 1);
    }

    #[test]
    fn sensor_writes_are_ignored() {
        let (plant, mut bus) = setup();
        let before = plant.borrow().temperature_c();
        bus.write(DeviceId::TEMP_SENSOR, T, 99_999)
            .expect("sensor installed");
        assert_eq!(plant.borrow().temperature_c(), before);
    }

    #[test]
    fn all_three_devices_registered() {
        let (_, bus) = setup();
        for id in [DeviceId::TEMP_SENSOR, DeviceId::FAN, DeviceId::ALARM] {
            assert!(bus.contains(id));
        }
    }
}
