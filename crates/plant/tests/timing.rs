//! The plant sees device accesses at the kernel's clock: a read returns
//! the room at the instant of the read, and a write changes the slope
//! from the instant it is issued. Only input changes commit, each at its
//! own time.

use std::cell::RefCell;
use std::rc::Rc;

use bas_plant::devices::install_devices;
use bas_plant::world::{PlantConfig, PlantWorld};
use bas_sim::device::{DeviceBus, DeviceId};
use bas_sim::time::{SimDuration, SimTime};

fn ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

fn plant_on_a_bus(config: PlantConfig) -> (Rc<RefCell<PlantWorld>>, DeviceBus) {
    let plant = Rc::new(RefCell::new(PlantWorld::new(config, 5)));
    let mut bus = DeviceBus::new();
    install_devices(&plant, &mut bus);
    (plant, bus)
}

#[test]
fn sensor_read_at_150_ms_reads_the_room_at_150_ms() {
    // A noiseless sensor with a fine quantum reports T(150 ms) itself.
    let config = PlantConfig {
        sensor_noise_std_c: 0.0,
        sensor_quantization_c: 1e-6,
        ..PlantConfig::default()
    };
    let (plant, mut bus) = plant_on_a_bus(config.clone());
    let raw = bus
        .read(DeviceId::TEMP_SENSOR, ms(150))
        .expect("sensor installed");
    let exact = config.room.trajectory(22.0, false).at(0.150);
    assert_eq!(raw, (exact * 1000.0).round() as i64);
    assert_ne!(raw, 22_000, "not the boot temperature");
    assert_eq!(plant.borrow().now(), ms(150));
}

#[test]
fn fan_write_changes_the_slope_from_the_write() {
    let (plant, mut bus) = plant_on_a_bus(PlantConfig::default());
    bus.write(DeviceId::FAN, ms(150), 1).expect("fan installed");
    plant.borrow_mut().step_to(ms(1_000));
    let room = PlantConfig::default().room;
    let off = room.trajectory(22.0, false);
    let on = room.trajectory(off.at(0.150), true);
    let p = plant.borrow();
    assert_eq!(p.fan().transitions(), &[(ms(150), true)]);
    let starts: Vec<SimTime> = p.segments().iter().map(|s| s.start).collect();
    assert_eq!(starts, [SimTime::ZERO, ms(150)]);
    assert_eq!(p.temperature_c(), on.at(0.850));
}

#[test]
fn reads_do_not_commit_and_the_past_is_ignored() {
    let mut w = PlantWorld::new(PlantConfig::default(), 1);
    w.set_fan(true);
    w.step_to(ms(100_000));
    let segments = w.segments();
    for t in [100, 250, 400, 5] {
        w.step_to(ms(t * 1_000));
        w.sample_sensor();
        let _ = (w.temperature_c(), w.safety_report(), w.trace());
    }
    assert_eq!(
        (w.segments(), w.commits(), w.now()),
        (segments, 1, ms(400_000))
    );
}

#[test]
fn scheduled_references_commit_at_their_own_time() {
    let mut w = PlantWorld::new(PlantConfig::default(), 1);
    w.schedule_references(vec![(ms(90_000), 24.0), (ms(30_000), 23.0)]);
    w.step_to(ms(60_000));
    assert_eq!(w.commits(), 1);
    w.step_to(ms(600_000));
    let segments = w.segments();
    let starts: Vec<_> = segments.iter().map(|s| (s.start, s.setpoint_c)).collect();
    assert_eq!(
        starts,
        [(ms(0), 22.0), (ms(30_000), 23.0), (ms(90_000), 24.0)]
    );
    assert_eq!(w.trace()[45].setpoint_c, 23.0);
}
