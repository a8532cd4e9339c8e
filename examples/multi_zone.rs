//! Scaling the architecture: two building zones, each with its own
//! sensor/controller/fan/alarm chain, on one seL4 kernel — the kind of
//! growth the paper's intro motivates ("State-of-the-art BAS have many
//! networked entities"). Each zone is capability-confined to its own
//! devices and endpoints; zone A's processes cannot touch zone B's.
//!
//! Run: `cargo run --release --example multi_zone`

use std::cell::RefCell;
use std::rc::Rc;

use bas::camkes::assembly::Assembly;
use bas::camkes::codegen::compile;
use bas::camkes::component::{Component, Procedure};
use bas::camkes::glue::{RpcClient, RpcServer};
use bas::capdl::{realize, verify};
use bas::core::logic::control::{ControlConfig, ControlCore, Directive};
use bas::plant::devices::{AlarmDevice, FanDevice, SensorDevice};
use bas::plant::world::{PlantConfig, PlantWorld};
use bas::sel4::cap::CPtr;
use bas::sel4::kernel::{Sel4Config, Sel4Kernel, Sel4Thread};
use bas::sel4::rights::CapRights;
use bas::sel4::syscall::{Reply, Syscall};
use bas::sim::device::DeviceId;
use bas::sim::process::{Action, Process};
use bas::sim::time::{SimDuration, SimTime};
use bas_sim::kernel::Kernel;

/// Device ids per zone: zone 0 uses 10/11/12, zone 1 uses 20/21/22.
fn zone_devices(zone: u32) -> (DeviceId, DeviceId, DeviceId) {
    let base = (zone + 1) * 10;
    (
        DeviceId::new(base),
        DeviceId::new(base + 1),
        DeviceId::new(base + 2),
    )
}

// --- minimal per-zone threads (sensor → controller → fan/alarm) ----------

struct ZoneSensor {
    dev: CPtr,
    ctrl: RpcClient,
    reading_pending: bool,
}

impl Process for ZoneSensor {
    type Syscall = Syscall;
    type Reply = Reply;
    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        if self.reading_pending {
            self.reading_pending = false;
            if let Some(Reply::DevValue(v)) = reply {
                return Action::Syscall(self.ctrl.call(0, vec![u64::from(v as u32)]));
            }
            return Action::Exit(1);
        }
        match reply {
            None | Some(Reply::Msg(_)) => {
                // Pace, then sample.
                Action::Syscall(Syscall::Sleep {
                    duration: SimDuration::from_secs(1),
                })
            }
            Some(Reply::Ok) => {
                self.reading_pending = true;
                Action::Syscall(Syscall::DevRead { dev: self.dev })
            }
            Some(_) => Action::Exit(1),
        }
    }
}

struct ZoneController {
    core: ControlCore,
    server: RpcServer,
    fan: RpcClient,
    alarm: RpcClient,
    outbox: std::collections::VecDeque<Syscall>,
    awaiting_time: Option<i32>,
}

impl Process for ZoneController {
    type Syscall = Syscall;
    type Reply = Reply;
    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        if let Some(milli_c) = self.awaiting_time.take() {
            let now = match reply {
                Some(Reply::Time(t)) => t,
                _ => SimTime::ZERO,
            };
            for d in self.core.on_sensor_reading(now, milli_c) {
                match d {
                    Directive::SetFan(on) => {
                        self.outbox.push_back(self.fan.call(0, vec![u64::from(on)]))
                    }
                    Directive::SetAlarm(on) => self
                        .outbox
                        .push_back(self.alarm.call(0, vec![u64::from(on)])),
                }
            }
            self.outbox.push_back(self.server.reply(0, vec![]));
        }
        if let Some(Reply::Msg(m)) = &reply {
            if m.reply_expected {
                self.awaiting_time = Some(m.words[0] as u32 as i32);
                return Action::Syscall(Syscall::GetTime);
            }
        }
        match self.outbox.pop_front() {
            Some(sys) => Action::Syscall(sys),
            None => Action::Syscall(self.server.next_request()),
        }
    }
}

struct ZoneActuator {
    server: RpcServer,
    dev: CPtr,
    awaiting_write: bool,
}

impl Process for ZoneActuator {
    type Syscall = Syscall;
    type Reply = Reply;
    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        if self.awaiting_write {
            self.awaiting_write = false;
            return Action::Syscall(self.server.reply(0, vec![]));
        }
        match reply {
            Some(Reply::Msg(m)) if !m.words.is_empty() => {
                self.awaiting_write = true;
                Action::Syscall(Syscall::DevWrite {
                    dev: self.dev,
                    value: i64::from(m.words[0] != 0),
                })
            }
            _ => Action::Syscall(self.server.next_request()),
        }
    }
}

fn main() {
    // One assembly, two zones: component instances are cheap to stamp out.
    let ctrl_api = Procedure::new("zone_ctrl", ["report"]);
    let act_api = Procedure::new("actuator", ["set"]);
    let mut assembly = Assembly::new();
    for zone in 0..2u32 {
        let (dev_sensor, dev_fan, dev_alarm) = zone_devices(zone);
        let z = |name: &str| format!("z{zone}_{name}");
        assembly = assembly
            .instance(
                z("ctrl"),
                Component::new("ZoneController")
                    .provides("api", ctrl_api.clone())
                    .uses("fan", act_api.clone())
                    .uses("alarm", act_api.clone()),
            )
            .instance(
                z("sensor"),
                Component::new("ZoneSensor")
                    .uses("api", ctrl_api.clone())
                    .hardware("temp", dev_sensor, CapRights::READ),
            )
            .instance(
                z("fan"),
                Component::new("ZoneFan")
                    .provides("cmd", act_api.clone())
                    .hardware("fan", dev_fan, CapRights::WRITE),
            )
            .instance(
                z("alarm"),
                Component::new("ZoneAlarm")
                    .provides("cmd", act_api.clone())
                    .hardware("alarm", dev_alarm, CapRights::WRITE),
            );
        let zc = z("ctrl");
        assembly = assembly
            .rpc_connection(format!("z{zone}_c1"), (&z("sensor"), "api"), (&zc, "api"))
            .rpc_connection(format!("z{zone}_c2"), (&zc, "fan"), (&z("fan"), "cmd"))
            .rpc_connection(format!("z{zone}_c3"), (&zc, "alarm"), (&z("alarm"), "cmd"));
    }

    let (spec, glue) = compile(&assembly).expect("two-zone assembly compiles");
    println!(
        "compiled: {} kernel objects, {} capabilities across {} threads",
        spec.objects.len(),
        spec.caps.len(),
        spec.threads.len()
    );

    // Two independent physical zones with different thermal loads.
    let mut kernel = Sel4Kernel::new(Sel4Config::default());
    let mut plants = Vec::new();
    for zone in 0..2u32 {
        let mut config = PlantConfig {
            setpoint_c: 22.0,
            ..PlantConfig::default()
        };
        config.room.external_heat_w = if zone == 0 { 300.0 } else { 450.0 };
        let plant = Rc::new(RefCell::new(PlantWorld::new(config, 100 + u64::from(zone))));
        let (dev_sensor, dev_fan, dev_alarm) = zone_devices(zone);
        kernel
            .devices_mut()
            .register(dev_sensor, Box::new(SensorDevice(plant.clone())));
        kernel
            .devices_mut()
            .register(dev_fan, Box::new(FanDevice(plant.clone())));
        kernel
            .devices_mut()
            .register(dev_alarm, Box::new(AlarmDevice(plant.clone())));
        plants.push(plant);
    }

    let mut loader = |name: &str| -> Option<Sel4Thread> {
        let g = &glue;
        let parts: Vec<&str> = name.splitn(2, '_').collect();
        let role = *parts.get(1)?;
        match role {
            "ctrl" => Some(Box::new(ZoneController {
                core: ControlCore::new(ControlConfig::default()),
                server: RpcServer::new(g.server_slot(name, "api")?),
                fan: RpcClient::new(g.client_slot(name, "fan")?),
                alarm: RpcClient::new(g.client_slot(name, "alarm")?),
                outbox: Default::default(),
                awaiting_time: None,
            })),
            "sensor" => Some(Box::new(ZoneSensor {
                dev: g.device_slot(name, "temp")?,
                ctrl: RpcClient::new(g.client_slot(name, "api")?),
                reading_pending: false,
            })),
            "fan" => Some(Box::new(ZoneActuator {
                server: RpcServer::new(g.server_slot(name, "cmd")?),
                dev: g.device_slot(name, "fan")?,
                awaiting_write: false,
            })),
            "alarm" => Some(Box::new(ZoneActuator {
                server: RpcServer::new(g.server_slot(name, "cmd")?),
                dev: g.device_slot(name, "alarm")?,
                awaiting_write: false,
            })),
            _ => None,
        }
    };
    let sys = realize(&spec, &mut kernel, &mut loader).expect("realizes");
    assert!(verify(&spec, &kernel, &sys).is_empty(), "boot audit clean");
    for pid in sys.threads.values() {
        kernel.start_thread(*pid);
    }

    // Run the kernel for 30 simulated minutes. The zone devices carry its
    // clock into both plants; bring them to where it stopped.
    kernel.run_until(SimTime::ZERO + SimDuration::from_mins(30));
    for plant in &plants {
        plant.borrow_mut().step_to(kernel.now());
    }

    println!("\nafter 30 simulated minutes:");
    for (zone, plant) in plants.iter().enumerate() {
        let p = plant.borrow();
        println!(
            "zone {zone}: temp {:.2}°C | fan {} ({} switches) | alarm {} | safety {}",
            p.temperature_c(),
            if p.fan().is_on() { "ON" } else { "off" },
            p.fan().switch_count(),
            if p.alarm().is_on() { "ON" } else { "off" },
            if p.safety_report().is_safe() {
                "OK"
            } else {
                "VIOLATED"
            },
        );
        assert!(
            (21.0..=23.0).contains(&p.temperature_c()),
            "zone {zone} regulated"
        );
        assert!(p.safety_report().is_safe());
    }
    println!(
        "\nisolation check: zone 0's sensor holds {} caps — its zone only",
        kernel
            .cspace_of(sys.threads["z0_sensor"])
            .unwrap()
            .occupied()
    );
}
