//! Device bus: the boundary between driver processes and the simulated
//! physical world.
//!
//! The paper's testbed (Fig. 4) wires a BMP180 temperature sensor, a fan and
//! an LED alarm to a BeagleBone Black. In the reproduction those devices are
//! implemented by `bas-plant` and registered on a [`DeviceBus`]; driver
//! processes reach them through platform-specific device syscalls, gated by
//! each platform's own access-control mechanism (ACM entries on MINIX,
//! device capabilities on seL4, `/dev` DAC modes on Linux).

use std::collections::BTreeMap;
use std::fmt;

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
    interposed: bool,
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
        DeviceBus {
            devices: BTreeMap::new(),
            interposed: false,
        }
    }

    /// Registers the device behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered: a second registration would
    /// silently shadow a live device (a fault interposer, for instance,
    /// must go through [`DeviceBus::interpose`] instead).
    pub fn register(&mut self, id: DeviceId, device: Box<dyn Device>) {
        let prev = self.devices.insert(id, device);
        assert!(prev.is_none(), "device {id} registered twice");
    }

    /// Replaces the device behind `id` with a wrapper built around it —
    /// the sanctioned path for fault interposers (`bas-sim::fault`),
    /// which must wrap the real device rather than shadow it.
    ///
    /// # Errors
    ///
    /// Returns [`NoSuchDeviceError`] if no device is registered under `id`.
    pub fn interpose(
        &mut self,
        id: DeviceId,
        wrap: impl FnOnce(Box<dyn Device>) -> Box<dyn Device>,
    ) -> Result<(), NoSuchDeviceError> {
        let inner = self.devices.remove(&id).ok_or(NoSuchDeviceError(id))?;
        self.devices.insert(id, wrap(inner));
        self.interposed = true;
        Ok(())
    }

    /// True once [`DeviceBus::interpose`] replaced a device. Interposers
    /// outlive a kernel reset, so such a bus is no longer its boot image.
    pub fn interposed(&self) -> bool {
        self.interposed
    }

    /// Reads from the device at `now`.
    ///
    /// # Errors
    ///
    /// Returns [`NoSuchDeviceError`] if no device is registered under `id`.
    pub fn read(&mut self, id: DeviceId, now: SimTime) -> Result<i64, NoSuchDeviceError> {
        self.devices
            .get_mut(&id)
            .map(|d| d.read(now))
            .ok_or(NoSuchDeviceError(id))
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
        bus.write(DeviceId::FAN, T, 1).unwrap();
        assert_eq!(*cell.borrow(), 1);
        assert_eq!(bus.read(DeviceId::FAN, T).unwrap(), 1);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut bus = DeviceBus::new();
        bus.register(DeviceId::FAN, Box::new(Register(Rc::new(RefCell::new(0)))));
        bus.register(DeviceId::FAN, Box::new(Register(Rc::new(RefCell::new(0)))));
    }

    /// A wrapper installed through `interpose` sees the original device.
    #[test]
    fn interpose_wraps_the_registered_device() {
        struct PlusOne(Box<dyn Device>);
        impl Device for PlusOne {
            fn read(&mut self, now: SimTime) -> i64 {
                self.0.read(now) + 1
            }
            fn write(&mut self, now: SimTime, value: i64) {
                self.0.write(now, value);
            }
        }

        let cell = Rc::new(RefCell::new(41));
        let mut bus = DeviceBus::new();
        bus.register(DeviceId::TEMP_SENSOR, Box::new(Register(cell.clone())));
        bus.interpose(DeviceId::TEMP_SENSOR, |inner| Box::new(PlusOne(inner)))
            .unwrap();
        assert_eq!(bus.read(DeviceId::TEMP_SENSOR, T).unwrap(), 42);
        bus.write(DeviceId::TEMP_SENSOR, T, 10).unwrap();
        assert_eq!(*cell.borrow(), 10);
        // Interposing an unknown id reports the error instead of creating
        // a device from nothing.
        assert!(bus.interpose(DeviceId::new(99), |inner| inner).is_err());
    }

    /// Only a successful interposition marks the bus.
    #[test]
    fn interposed_reports_a_replaced_device() {
        let mut bus = DeviceBus::new();
        bus.register(DeviceId::FAN, Box::new(Register(Rc::default())));
        assert!(bus.interpose(DeviceId::ALARM, |inner| inner).is_err());
        assert!(!bus.interposed());
        bus.interpose(DeviceId::FAN, |inner| inner).unwrap();
        assert!(bus.interposed());
    }

    #[test]
    fn unknown_device_errors() {
        let mut bus = DeviceBus::new();
        let err = bus.read(DeviceId::new(99), T).unwrap_err();
        assert_eq!(err, NoSuchDeviceError(DeviceId::new(99)));
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
