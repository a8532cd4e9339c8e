//! Scenario security policy, for every platform.
//!
//! The paper derives all per-platform policy artifacts from one AADL
//! architecture description ([`SCENARIO_AADL`], which mirrors its Fig. 2).
//! Here the scenario topology is written once, as two static tables:
//! [`PROCESSES`] (name, `ac_id`, hardened uid, AADL label, device) and
//! [`CHANNELS`] (endpoints, message type, Linux queue, seL4 interface).
//! The ACM rows, the device owners, the Linux loader's uids, queue ACLs
//! and device nodes, and the static analyzer's bindings all derive from
//! them. The CAmkES assembly stays hand-written, because its connection
//! order fixes the badges. [`process_agreement`], [`channel_agreement`]
//! and [`queue_agreement`] pin the tables to what the `bas-aadl` parser
//! and backends read from the AADL source; the E9 experiment prints them.

use std::collections::BTreeMap;

use bas_aadl::backends::linux_plan::LinuxIpcPlan;
use bas_aadl::AadlModel;
use bas_acm::{AcId, AccessControlMatrix, AcmBuilder, MsgType, QuotaTable, SyscallClass};
use bas_camkes::assembly::Assembly;
use bas_camkes::component::{Component, Procedure};
use bas_minix::pm;
use bas_sel4::rights::CapRights;
use bas_sim::device::DeviceId;

use crate::proto::names::{self, ALARM, CONTROL, HEATER, SENSOR, WEB};
use crate::proto::{
    AC_ALARM, AC_CONTROL, AC_HEATER, AC_SCENARIO, AC_SENSOR, AC_WEB, MT_ACK, MT_ALARM_CMD,
    MT_FAN_CMD, MT_SENSOR_READING, MT_SETPOINT, MT_STATUS_QUERY,
};

/// The scenario architecture in the AADL subset, mirroring the paper's
/// Fig. 2 process/connection structure and §IV `ac_id` numbering.
pub const SCENARIO_AADL: &str = r"
-- Temperature-control scenario, extracted from the Biosecurity Research
-- Institute case study (paper Fig. 2).

process TempSensorProcess
features
  data_out: out event data port { BAS::msg_type => 1; };
properties
  BAS::ac_id => 100;
end TempSensorProcess;

process TempControlProcess
features
  sensor_in: in event data port;
  setpoint_in: in event data port;
  status_in: in event data port;
  fan_out: out event data port { BAS::msg_type => 2; };
  alarm_out: out event data port { BAS::msg_type => 3; };
properties
  BAS::ac_id => 101;
end TempControlProcess;

process HeaterActuatorProcess
features
  cmd_in: in event data port;
properties
  BAS::ac_id => 102;
end HeaterActuatorProcess;

process AlarmActuatorProcess
features
  cmd_in: in event data port;
properties
  BAS::ac_id => 103;
end AlarmActuatorProcess;

process WebInterfaceProcess
features
  setpoint_out: out event data port { BAS::msg_type => 4; };
  status_out: out event data port { BAS::msg_type => 5; };
properties
  BAS::ac_id => 104;
end WebInterfaceProcess;

system implementation TempControlSystem.impl
subcomponents
  tempSensProc: process TempSensorProcess.imp;
  tempProc: process TempControlProcess.imp;
  heaterActProc: process HeaterActuatorProcess.imp;
  alarmProc: process AlarmActuatorProcess.imp;
  webInterface: process WebInterfaceProcess.imp;
connections
  c1: port tempSensProc.data_out -> tempProc.sensor_in;
  c2: port tempProc.fan_out -> heaterActProc.cmd_in;
  c3: port tempProc.alarm_out -> alarmProc.cmd_in;
  c4: port webInterface.setpoint_out -> tempProc.setpoint_in;
  c5: port webInterface.status_out -> tempProc.status_in;
end TempControlSystem.impl;
";

/// One scenario process: the AADL subcomponent it is, plus the
/// deployment facts the AADL subset cannot say (its hardened Linux uid
/// and the device it drives).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessSpec {
    /// Canonical process name, also its CAmkES instance name.
    pub name: &'static str,
    /// Its `ac_id`, as the AADL declares it.
    pub ac: AcId,
    /// Its uid under the hardened Linux scheme.
    pub hardened_uid: u32,
    /// Its subcomponent label in the AADL system.
    pub aadl_instance: &'static str,
    /// The device it drives, if any.
    pub device: Option<DeviceId>,
}

/// One typed channel between two scenario processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelSpec {
    /// The sending process.
    pub from: &'static str,
    /// The receiving process.
    pub to: &'static str,
    /// The message type it carries.
    pub msg_type: u32,
    /// The Linux message queue carrying it.
    pub queue: &'static str,
    /// The interface of `to`'s CAmkES component that serves it; `None`
    /// for the reply queue (seL4 replies ride the RPC reply capability).
    pub server_iface: Option<&'static str>,
    /// The AADL connection it implements; `None` for the reply queue,
    /// which the Linux loader adds outside the AADL.
    pub aadl: Option<&'static str>,
}

impl ProcessSpec {
    const fn new(
        name: &'static str,
        ac: AcId,
        hardened_uid: u32,
        aadl_instance: &'static str,
        device: Option<DeviceId>,
    ) -> Self {
        ProcessSpec {
            name,
            ac,
            hardened_uid,
            aadl_instance,
            device,
        }
    }
}

impl ChannelSpec {
    /// A channel implementing AADL connection `aadl`, served on seL4 by
    /// `to`'s interface `server_iface`.
    const fn aadl(
        aadl: &'static str,
        (from, to): (&'static str, &'static str),
        msg_type: u32,
        queue: &'static str,
        server_iface: &'static str,
    ) -> Self {
        ChannelSpec {
            from,
            to,
            msg_type,
            queue,
            server_iface: Some(server_iface),
            aadl: Some(aadl),
        }
    }
}

/// The five application processes, written once, in boot order:
/// controller first so lookups converge quickly, then the drivers, the
/// sensor, and finally the untrusted web interface.
#[rustfmt::skip]
pub static PROCESSES: [ProcessSpec; 5] = [
    //               name     ac_id       hardened uid  AADL label       owned device
    ProcessSpec::new(CONTROL, AC_CONTROL, 1002,         "tempProc",      None),
    ProcessSpec::new(HEATER,  AC_HEATER,  1003,         "heaterActProc", Some(DeviceId::FAN)),
    ProcessSpec::new(ALARM,   AC_ALARM,   1004,         "alarmProc",     Some(DeviceId::ALARM)),
    ProcessSpec::new(SENSOR,  AC_SENSOR,  1001,         "tempSensProc",  Some(DeviceId::TEMP_SENSOR)),
    ProcessSpec::new(WEB,     AC_WEB,     1005,         "webInterface",  None),
];

/// Every channel, written once, in the Linux loader's queue-creation
/// order: the five AADL connections (c4 and c5 both feed the controller
/// from the web interface) and the controller → web reply queue, which
/// the loader adds outside the AADL.
#[rustfmt::skip]
pub static CHANNELS: [ChannelSpec; 6] = [
    //                AADL  (from,    to)       message type       Linux queue          seL4 interface
    ChannelSpec::aadl("c1", (SENSOR,  CONTROL), MT_SENSOR_READING, queues::SENSOR_IN,   "ctrl"),
    ChannelSpec::aadl("c4", (WEB,     CONTROL), MT_SETPOINT,       queues::SETPOINT_IN, "ctrl"),
    ChannelSpec::aadl("c5", (WEB,     CONTROL), MT_STATUS_QUERY,   queues::STATUS_IN,   "ctrl"),
    ChannelSpec::aadl("c2", (CONTROL, HEATER),  MT_FAN_CMD,        queues::HEATER_CMD,  "cmd"),
    ChannelSpec::aadl("c3", (CONTROL, ALARM),   MT_ALARM_CMD,      queues::ALARM_CMD,   "cmd"),
    ChannelSpec {
        from: CONTROL,
        to: WEB,
        msg_type: MT_ACK,
        queue: queues::WEB_REPLY,
        server_iface: None,
        aadl: None,
    },
];

/// The scenario process named `name`.
pub fn process(name: &str) -> Option<&'static ProcessSpec> {
    PROCESSES.iter().find(|p| p.name == name)
}

fn ac_of(name: &str) -> AcId {
    process(name)
        .expect("channel ends are scenario processes")
        .ac
}

/// One agreement check: the rows read from the AADL, then the rows of
/// the tables, each sorted. The check holds when the two are equal.
pub type Agreement<T> = (Vec<T>, Vec<T>);

fn sorted<T: Ord>(mut rows: Vec<T>) -> Vec<T> {
    rows.sort();
    rows
}

/// The process name of an AADL subcomponent label (the label itself if
/// no [`PROCESSES`] row carries it).
fn name_of_label(label: &str) -> String {
    PROCESSES
        .iter()
        .find(|p| p.aadl_instance == label)
        .map_or(label, |p| p.name)
        .to_string()
}

/// `(label, ac_id)` of every AADL subcomponent and of every
/// [`PROCESSES`] row.
pub fn process_agreement(model: &AadlModel) -> Agreement<(String, Option<u32>)> {
    let aadl = model
        .system
        .iter()
        .flat_map(|s| &s.subcomponents)
        .map(|(label, _)| {
            let ac = model.process_of_instance(label).and_then(|p| p.ac_id);
            (label.clone(), ac)
        })
        .collect();
    let tables = PROCESSES
        .iter()
        .map(|p| (p.aadl_instance.to_string(), Some(p.ac.as_u32())))
        .collect();
    (sorted(aadl), sorted(tables))
}

/// `(connection, from, to, msg type)` of every AADL connection, in
/// process names, and of every [`CHANNELS`] row that implements one.
pub fn channel_agreement(model: &AadlModel) -> Agreement<(String, String, String, Option<u32>)> {
    let aadl = model
        .system
        .iter()
        .flat_map(|s| &s.connections)
        .map(|c| {
            let msg_type = model
                .process_of_instance(&c.from.0)
                .and_then(|p| p.port(&c.from.1))
                .and_then(|port| port.msg_type);
            let (from, to) = (name_of_label(&c.from.0), name_of_label(&c.to.0));
            (c.name.clone(), from, to, msg_type)
        })
        .collect();
    let tables = CHANNELS
        .iter()
        .filter_map(|c| {
            let label = c.aadl?.to_string();
            Some((label, c.from.into(), c.to.into(), Some(c.msg_type)))
        })
        .collect();
    (sorted(aadl), sorted(tables))
}

/// `(queue, reader, writers)` of every queue in the Linux plan, in
/// process names, and of every [`CHANNELS`] row that implements an AADL
/// connection.
pub fn queue_agreement(plan: &LinuxIpcPlan) -> Agreement<(String, String, Vec<String>)> {
    let aadl = plan
        .queues
        .iter()
        .map(|q| {
            let writers = sorted(q.writers.iter().map(|w| name_of_label(w)).collect());
            (q.name.clone(), name_of_label(&q.reader), writers)
        })
        .collect();
    let tables = CHANNELS
        .iter()
        .filter(|c| c.aadl.is_some())
        .map(|c| (c.queue.into(), c.to.into(), vec![c.from.into()]))
        .collect();
    (sorted(aadl), sorted(tables))
}

/// Application-level ACM rows: one typed channel per AADL connection
/// plus acknowledgments both ways on every connected pair.
pub fn scenario_app_acm() -> AccessControlMatrix {
    app_rows(AccessControlMatrix::builder()).build()
}

fn app_rows(mut builder: AcmBuilder) -> AcmBuilder {
    for c in CHANNELS.iter().filter(|c| c.aadl.is_some()) {
        let (from, to) = (ac_of(c.from), ac_of(c.to));
        builder = builder
            .allow(from, to, [MsgType::new(c.msg_type)])
            .allow_ack_between(from, to);
    }
    builder
}

/// The full MINIX ACM: application rows plus PM-server rows.
///
/// PM policy follows §IV-D.2 exactly: the loader may fork and kill; every
/// process may ask its own pid; the web interface may fork (the paper
/// notes it retains that privilege, hence the fork-bomb discussion) but
/// "the policy explicitly disallowed the web interface process to use
/// kill".
pub fn scenario_acm() -> AccessControlMatrix {
    pm_rows(app_rows(AccessControlMatrix::builder())).build()
}

/// The A1 ablation's matrix, "a microkernel with message passing but
/// no mandatory IPC policy": every application pair may exchange every
/// message type. The PM rows are unchanged (kill is still denied to the
/// web interface): the ablation is about the application matrix.
pub fn permissive_acm() -> AccessControlMatrix {
    let mut b = AccessControlMatrix::builder();
    for s in &PROCESSES {
        for r in PROCESSES.iter().filter(|r| r.ac != s.ac) {
            b = b.allow_all_types(s.ac, r.ac);
        }
    }
    pm_rows(b).build()
}

fn pm_rows(mut b: AcmBuilder) -> AcmBuilder {
    b = pm::allow_pm_ops(
        b,
        AC_SCENARIO,
        [
            pm::PM_FORK2,
            pm::PM_SRV_FORK2,
            pm::PM_KILL,
            pm::PM_EXIT,
            pm::PM_GETPID,
        ],
    );
    for p in &PROCESSES {
        b = pm::allow_pm_ops(b, p.ac, [pm::PM_GETPID]);
    }
    pm::allow_pm_ops(b, AC_WEB, [pm::PM_FORK2])
}

/// Device ownership on MINIX: each device belongs to exactly its driver
/// identity.
pub fn scenario_device_owners() -> BTreeMap<DeviceId, AcId> {
    let mut owners = BTreeMap::new();
    for p in &PROCESSES {
        if let Some(dev) = p.device {
            owners.insert(dev, p.ac);
        }
    }
    owners
}

/// Syscall quotas: the paper's future-work fork-bomb mitigation. `None`
/// reproduces the paper's baseline (vulnerable); `Some(n)` caps the web
/// interface at `n` forks.
pub fn scenario_quotas(web_fork_limit: Option<u64>) -> QuotaTable {
    let mut quotas = QuotaTable::new();
    if let Some(limit) = web_fork_limit {
        quotas.set_limit(AC_WEB, SyscallClass::Fork, limit);
    }
    quotas
}

/// RPC method labels on the controller's provided interface.
pub mod ctrl_rpc {
    /// `report_reading(milli_c, seq)` — sensor only.
    pub const REPORT_READING: u64 = 0;
    /// `set_setpoint(milli_c) -> (code, actual)` — web only.
    pub const SET_SETPOINT: u64 = 1;
    /// `get_status() -> (temp, setpoint, fan, alarm)` — web only.
    pub const GET_STATUS: u64 = 2;
}

/// RPC method labels on the actuator drivers' provided interface.
pub mod actuator_rpc {
    /// `set(on)`.
    pub const SET: u64 = 0;
}

/// The controller's provided RPC procedure.
pub fn ctrl_procedure() -> Procedure {
    Procedure::new("ctrl_api", ["report_reading", "set_setpoint", "get_status"])
}

/// The actuator drivers' provided RPC procedure.
pub fn actuator_procedure() -> Procedure {
    Procedure::new("actuator_api", ["set"])
}

/// The scenario's CAmkES assembly (the paper's manual AADL→CAmkES
/// translation of §IV-B): five instances, four `seL4RPCCall` connections,
/// device frames for the three drivers.
///
/// Connection order fixes the badge layout: the sensor gets badge 1 and
/// the web interface badge 2 on the controller's endpoint, which is how
/// the controller rejects forged `report_reading` calls.
pub fn scenario_assembly() -> Assembly {
    let ctrl_api = ctrl_procedure();
    let actuator_api = actuator_procedure();

    let control = Component::new("TempControlProcess")
        .provides("ctrl", ctrl_api.clone())
        .uses("fan", actuator_api.clone())
        .uses("alarm", actuator_api.clone());
    let sensor = Component::new("TempSensorProcess")
        .uses("ctrl", ctrl_api.clone())
        .hardware("temp", DeviceId::TEMP_SENSOR, CapRights::READ);
    let heater = Component::new("HeaterActuatorProcess")
        .provides("cmd", actuator_api.clone())
        .hardware("fan", DeviceId::FAN, CapRights::WRITE);
    let alarm = Component::new("AlarmActuatorProcess")
        .provides("cmd", actuator_api)
        .hardware("alarm", DeviceId::ALARM, CapRights::WRITE);
    let web = Component::new("WebInterfaceProcess").uses("ctrl", ctrl_api);

    Assembly::new()
        .instance(names::CONTROL, control)
        .instance(names::SENSOR, sensor)
        .instance(names::HEATER, heater)
        .instance(names::ALARM, alarm)
        .instance(names::WEB, web)
        // Badge order: sensor = 1, web = 2 on the controller endpoint.
        .rpc_connection("c1", (names::SENSOR, "ctrl"), (names::CONTROL, "ctrl"))
        .rpc_connection("c4", (names::WEB, "ctrl"), (names::CONTROL, "ctrl"))
        .rpc_connection("c2", (names::CONTROL, "fan"), (names::HEATER, "cmd"))
        .rpc_connection("c3", (names::CONTROL, "alarm"), (names::ALARM, "cmd"))
}

/// Linux message-queue names — six queues, as in §IV-C ("creates 6
/// message queues that are needed for various communications").
pub mod queues {
    /// sensor → control readings.
    pub const SENSOR_IN: &str = "/mq_tempProc_sensor_in";
    /// web → control setpoint updates.
    pub const SETPOINT_IN: &str = "/mq_tempProc_setpoint_in";
    /// web → control status queries.
    pub const STATUS_IN: &str = "/mq_tempProc_status_in";
    /// control → heater commands.
    pub const HEATER_CMD: &str = "/mq_heaterActProc_cmd_in";
    /// control → alarm commands.
    pub const ALARM_CMD: &str = "/mq_alarmProc_cmd_in";
    /// control → web replies (acks/status).
    pub const WEB_REPLY: &str = "/mq_webInterface_reply";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn web_cannot_fake_sensor_readings_by_policy() {
        let acm = scenario_acm();
        assert!(!acm
            .check(AC_WEB, AC_CONTROL, MsgType::new(MT_SENSOR_READING))
            .is_allowed());
        assert!(acm
            .check(AC_SENSOR, AC_CONTROL, MsgType::new(MT_SENSOR_READING))
            .is_allowed());
    }

    #[test]
    fn web_cannot_reach_drivers_at_all() {
        let acm = scenario_acm();
        for t in 0..8 {
            assert!(!acm.check(AC_WEB, AC_HEATER, MsgType::new(t)).is_allowed());
            assert!(!acm.check(AC_WEB, AC_ALARM, MsgType::new(t)).is_allowed());
        }
    }

    #[test]
    fn web_may_use_its_legitimate_channel() {
        let acm = scenario_acm();
        assert!(acm
            .check(AC_WEB, AC_CONTROL, MsgType::new(MT_SETPOINT))
            .is_allowed());
        assert!(acm
            .check(AC_WEB, AC_CONTROL, MsgType::new(MT_STATUS_QUERY))
            .is_allowed());
        assert!(acm
            .check(AC_CONTROL, AC_WEB, MsgType::new(MT_ACK))
            .is_allowed());
    }

    #[test]
    fn web_kill_denied_loader_kill_allowed() {
        let acm = scenario_acm();
        assert!(!acm
            .check(AC_WEB, pm::PM_AC_ID, MsgType::new(pm::PM_KILL))
            .is_allowed());
        assert!(acm
            .check(AC_WEB, pm::PM_AC_ID, MsgType::new(pm::PM_FORK2))
            .is_allowed());
        assert!(acm
            .check(AC_SCENARIO, pm::PM_AC_ID, MsgType::new(pm::PM_KILL))
            .is_allowed());
    }

    #[test]
    fn aadl_source_parses_and_generates_same_app_acm() {
        let model = bas_aadl::parse(SCENARIO_AADL).unwrap();
        assert!(model.validate().is_ok());
        let generated = bas_aadl::backends::acm::compile(&model).unwrap();
        assert_eq!(
            generated,
            scenario_app_acm(),
            "AADL backend matches hand policy"
        );
    }

    #[test]
    fn tables_agree_with_the_aadl_both_ways() {
        let model = bas_aadl::parse(SCENARIO_AADL).unwrap();
        let (aadl, tables) = process_agreement(&model);
        assert_eq!(aadl.len(), 5);
        assert_eq!(aadl, tables, "instance labels and ac_ids");
        let (aadl, tables) = channel_agreement(&model);
        assert_eq!(aadl.len(), 5);
        assert_eq!(aadl, tables, "connections: endpoints and message types");
        let plan = bas_aadl::backends::linux_plan::compile(&model).unwrap();
        let (aadl, tables) = queue_agreement(&plan);
        assert_eq!(aadl.len(), 5);
        assert_eq!(aadl, tables, "queue plan: names, readers and writers");
    }

    #[test]
    fn camkes_backend_connects_the_scenario_assembly_pairs() {
        use bas_camkes::assembly::Connection;

        // The seL4 platform runs the hand-written `scenario_assembly`;
        // the `bas-aadl` CAmkES backend compiles the same AADL. Both must
        // connect the same (client, server) instance pairs, in process
        // names through `PROCESSES`' AADL labels.
        let model = bas_aadl::parse(SCENARIO_AADL).unwrap();
        let generated = bas_aadl::backends::camkes::compile(&model).unwrap();
        let hand = scenario_assembly();
        let instances =
            |a: &Assembly| sorted(a.instances.iter().map(|i| name_of_label(&i.name)).collect());
        assert_eq!(instances(&generated), instances(&hand));
        let pairs = |a: &Assembly| {
            let pair = |c: &Connection| (name_of_label(&c.from.0), name_of_label(&c.to.0));
            sorted(a.connections.iter().map(pair).collect::<Vec<_>>())
        };
        let (mut generated_pairs, hand_pairs) = (pairs(&generated), pairs(&hand));

        // Known difference 1: the backend makes one connection per AADL
        // port connection, five, where the hand assembly has four badged
        // ones: the web interface's setpoint and status ports share its
        // one `ctrl` capability (badge 2).
        assert_eq!(generated_pairs.len(), 5);
        assert_eq!(hand_pairs.len(), 4);
        let web_to_control = (WEB.to_string(), CONTROL.to_string());
        assert_eq!(
            generated_pairs
                .iter()
                .filter(|p| **p == web_to_control)
                .count(),
            2
        );
        generated_pairs.dedup();
        assert_eq!(generated_pairs, hand_pairs);
        let (_, glue) = bas_camkes::codegen::compile(&hand).unwrap();
        let badged = hand
            .connections
            .iter()
            .filter(|c| glue.badge_of(&c.from.0, &c.from.1).is_some())
            .count();
        assert_eq!(badged, 4);

        // Known difference 2: the backend serves one procedure per in
        // port (`port_<port>`, one `deliver` method each), where the hand
        // assembly serves the controller's `ctrl` and the drivers' `cmd`.
        let served = |a: &Assembly| {
            let mut ifaces: Vec<_> = a.connections.iter().map(|c| c.to.1.clone()).collect();
            ifaces.sort();
            ifaces.dedup();
            ifaces
        };
        assert_eq!(
            served(&generated),
            [
                "port_cmd_in",
                "port_sensor_in",
                "port_setpoint_in",
                "port_status_in"
            ]
        );
        assert_eq!(served(&hand), ["cmd", "ctrl"]);
    }

    #[test]
    fn scenario_assembly_compiles_to_capdl() {
        let (spec, glue) = bas_camkes::codegen::compile(&scenario_assembly()).unwrap();
        assert!(spec.validate().is_ok());
        // Badge layout: sensor 1, web 2.
        assert_eq!(glue.badge_of(names::SENSOR, "ctrl"), Some(1));
        assert_eq!(glue.badge_of(names::WEB, "ctrl"), Some(2));
        // Drivers hold device caps; web holds exactly one cap.
        assert!(glue.device_slot(names::HEATER, "fan").is_some());
        let web_caps = spec.caps_of(names::WEB).count();
        assert_eq!(web_caps, 1, "web interface has only its RPC capability");
    }

    #[test]
    fn quotas_off_by_default() {
        let q = scenario_quotas(None);
        assert_eq!(q.limit(AC_WEB, SyscallClass::Fork), None);
        let q = scenario_quotas(Some(3));
        assert_eq!(q.limit(AC_WEB, SyscallClass::Fork), Some(3));
    }

    #[test]
    fn device_owners_cover_all_three_devices() {
        let owners = scenario_device_owners();
        assert_eq!(owners[&DeviceId::TEMP_SENSOR], AC_SENSOR);
        assert_eq!(owners[&DeviceId::FAN], AC_HEATER);
        assert_eq!(owners[&DeviceId::ALARM], AC_ALARM);
    }
}
