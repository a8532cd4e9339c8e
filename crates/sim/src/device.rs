//! Device bus: the boundary between driver processes and the simulated
//! physical world.
//!
//! The paper's testbed (Fig. 4) wires a BMP180 temperature sensor, a fan and
//! an LED alarm to a BeagleBone Black. In the reproduction those devices are
//! implemented by `bas-plant` and registered on a [`DeviceBus`]; driver
//! processes reach them through platform-specific device syscalls, gated by
//! each platform's own access-control mechanism (ACM entries on MINIX,
//! device capabilities on seL4, `/dev` DAC modes on Linux). Sensor faults
//! are read modes the bus applies to the devices a fault plan names.

use std::collections::BTreeMap;
use std::fmt;

use crate::fault::SensorFaultMode;
use crate::time::SimTime;

/// Identifies one device on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(u32);

impl DeviceId {
    /// The scenario's temperature sensor (read-only).
    pub const TEMP_SENSOR: DeviceId = DeviceId(1);
    /// The scenario's fan/heater actuator (write-only).
    pub const FAN: DeviceId = DeviceId(2);
    /// The scenario's alarm actuator (write-only).
    pub const ALARM: DeviceId = DeviceId(3);

    /// Creates a custom device id.
    pub const fn new(raw: u32) -> Self {
        DeviceId(raw)
    }

    /// Raw id.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DeviceId::TEMP_SENSOR => write!(f, "dev:temp-sensor"),
            DeviceId::FAN => write!(f, "dev:fan"),
            DeviceId::ALARM => write!(f, "dev:alarm"),
            DeviceId(raw) => write!(f, "dev:{raw}"),
        }
    }
}

/// A memory-mapped-register-style device: reads return a signed word,
/// writes accept one. Both carry the kernel's clock at the access, so a
/// device backed by a physical model sees it at the instant of the access.
pub trait Device {
    /// Reads the device's value at `now` (e.g. temperature in
    /// milli-degrees Celsius for the sensor).
    fn read(&mut self, now: SimTime) -> i64;

    /// Writes a control value at `now` (e.g. nonzero = actuator on).
    fn write(&mut self, now: SimTime, value: i64);
}

/// Error returned for device operations on unknown ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoSuchDeviceError(pub DeviceId);

impl fmt::Display for NoSuchDeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no device registered with id {}", self.0)
    }
}

impl std::error::Error for NoSuchDeviceError {}

/// The set of devices visible to one kernel instance.
#[derive(Default)]
pub struct DeviceBus {
    devices: BTreeMap<DeviceId, Box<dyn Device>>,
    /// The devices a fault plan named: their read mode and last good value.
    faults: BTreeMap<DeviceId, SensorFault>,
}

#[derive(Default)]
struct SensorFault {
    mode: SensorFaultMode,
    last_good: Option<i64>,
}

impl SensorFault {
    /// Reads `device` under the mode. A stuck-at read, and a dropout read
    /// once a good value is latched, never reach the device.
    fn read(&mut self, device: &mut dyn Device, now: SimTime) -> i64 {
        match (self.mode, self.last_good) {
            (SensorFaultMode::StuckAt(v), _) | (SensorFaultMode::Dropout, Some(v)) => v,
            // Dropout before any good reading latches the first one.
            (mode, _) => {
                let v = device.read(now);
                self.last_good = Some(v);
                match mode {
                    SensorFaultMode::Glitch { offset } => v.saturating_add(offset),
                    _ => v,
                }
            }
        }
    }
}

impl fmt::Debug for DeviceBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviceBus")
            .field("devices", &self.devices.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl DeviceBus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        DeviceBus::default()
    }

    /// Registers the device behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered: a second registration would
    /// silently shadow a live device.
    pub fn register(&mut self, id: DeviceId, device: Box<dyn Device>) {
        let prev = self.devices.insert(id, device);
        assert!(prev.is_none(), "device {id} registered twice");
    }

    /// Starts tracking the last good value read from `id` (in
    /// [`SensorFaultMode::Nominal`] unless already watched), so a later
    /// dropout freezes at it.
    ///
    /// # Errors
    ///
    /// Returns [`NoSuchDeviceError`] if no device is registered under `id`.
    pub fn watch(&mut self, id: DeviceId) -> Result<(), NoSuchDeviceError> {
        self.fault_mut(id).map(drop)
    }

    /// Puts `id`'s reads into `mode`, watching it if needed. Writes always
    /// pass through: these are *sensor* faults.
    ///
    /// # Errors
    ///
    /// Returns [`NoSuchDeviceError`] if no device is registered under `id`.
    pub fn set_mode(
        &mut self,
        id: DeviceId,
        mode: SensorFaultMode,
    ) -> Result<(), NoSuchDeviceError> {
        self.fault_mut(id)?.mode = mode;
        Ok(())
    }

    /// Stops watching every device: reads reach the devices again.
    pub fn clear_faults(&mut self) {
        self.faults.clear();
    }

    fn fault_mut(&mut self, id: DeviceId) -> Result<&mut SensorFault, NoSuchDeviceError> {
        if !self.devices.contains_key(&id) {
            return Err(NoSuchDeviceError(id));
        }
        Ok(self.faults.entry(id).or_default())
    }

    /// Reads from the device at `now`.
    ///
    /// # Errors
    ///
    /// Returns [`NoSuchDeviceError`] if no device is registered under `id`.
    pub fn read(&mut self, id: DeviceId, now: SimTime) -> Result<i64, NoSuchDeviceError> {
        let device = self.devices.get_mut(&id).ok_or(NoSuchDeviceError(id))?;
        Ok(match self.faults.get_mut(&id) {
            Some(fault) => fault.read(device.as_mut(), now),
            None => device.read(now),
        })
    }

    /// Writes to the device at `now`.
    ///
    /// # Errors
    ///
    /// Returns [`NoSuchDeviceError`] if no device is registered under `id`.
    pub fn write(
        &mut self,
        id: DeviceId,
        now: SimTime,
        value: i64,
    ) -> Result<(), NoSuchDeviceError> {
        match self.devices.get_mut(&id) {
            Some(d) => {
                d.write(now, value);
                Ok(())
            }
            None => Err(NoSuchDeviceError(id)),
        }
    }

    /// True if a device is registered under `id`.
    pub fn contains(&self, id: DeviceId) -> bool {
        self.devices.contains_key(&id)
    }

    /// Registered device ids in ascending order.
    pub fn ids(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.devices.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Register(Rc<RefCell<i64>>);

    impl Device for Register {
        fn read(&mut self, _: SimTime) -> i64 {
            *self.0.borrow()
        }
        fn write(&mut self, _: SimTime, value: i64) {
            *self.0.borrow_mut() = value;
        }
    }

    const T: SimTime = SimTime::ZERO;

    #[test]
    fn read_write_roundtrip() {
        let cell = Rc::new(RefCell::new(0));
        let mut bus = DeviceBus::new();
        bus.register(DeviceId::FAN, Box::new(Register(cell.clone())));
        bus.write(DeviceId::FAN, T, 1).expect("registered");
        assert_eq!(*cell.borrow(), 1);
        assert_eq!(bus.read(DeviceId::FAN, T), Ok(1));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut bus = DeviceBus::new();
        bus.register(DeviceId::FAN, Box::new(Register(Rc::new(RefCell::new(0)))));
        bus.register(DeviceId::FAN, Box::new(Register(Rc::new(RefCell::new(0)))));
    }

    /// A device whose reads count themselves.
    struct Counter(i64);

    impl Device for Counter {
        fn read(&mut self, _: SimTime) -> i64 {
            self.0 += 1;
            self.0
        }
        fn write(&mut self, _: SimTime, value: i64) {
            self.0 = value;
        }
    }

    /// Stuck-at and latched dropout reads never reach the device: the
    /// count does not move under them.
    #[test]
    fn sensor_modes_corrupt_reads() {
        use SensorFaultMode::{Dropout, Glitch, Nominal, StuckAt};
        const S: DeviceId = DeviceId::TEMP_SENSOR;
        let mut bus = DeviceBus::new();
        bus.register(S, Box::new(Counter(0)));
        assert_eq!(bus.read(S, T), Ok(1), "unwatched: nothing latched");
        bus.watch(S).expect("registered");
        let check = |bus: &mut DeviceBus, mode, reads: [i64; 2]| {
            bus.set_mode(S, mode).expect("registered");
            assert_eq!(reads.map(|_| bus.read(S, T)), reads.map(Ok), "{mode:?}");
        };
        check(&mut bus, Dropout, [2, 2]); // latches the first read
        check(&mut bus, Nominal, [3, 4]);
        check(&mut bus, StuckAt(99), [99, 99]);
        check(&mut bus, Glitch { offset: 100 }, [105, 106]);
        check(&mut bus, Dropout, [6, 6]);
        bus.write(S, T, 10).expect("registered");
        bus.clear_faults();
        check(&mut bus, Dropout, [11, 11]); // the latch is gone
        let fan = DeviceId::FAN;
        assert_eq!(bus.set_mode(fan, Dropout), Err(NoSuchDeviceError(fan)));
        assert_eq!(bus.watch(fan), Err(NoSuchDeviceError(fan)));
    }

    #[test]
    fn unknown_device_errors() {
        let mut bus = DeviceBus::new();
        let err = NoSuchDeviceError(DeviceId::new(99));
        assert_eq!(bus.read(DeviceId::new(99), T), Err(err));
        assert!(bus.write(DeviceId::ALARM, T, 1).is_err());
        assert!(!bus.contains(DeviceId::ALARM));
    }

    #[test]
    fn well_known_ids_display_names() {
        assert_eq!(format!("{}", DeviceId::TEMP_SENSOR), "dev:temp-sensor");
        assert_eq!(format!("{}", DeviceId::FAN), "dev:fan");
        assert_eq!(format!("{}", DeviceId::ALARM), "dev:alarm");
        assert_eq!(format!("{}", DeviceId::new(9)), "dev:9");
    }
}
