//! The scenario on the monolithic Linux baseline (§IV-C).
//!
//! "The implementation on Linux is very similar to the implementation on
//! MINIX 3. The only major difference is that on Linux the interprocess
//! communication is conducted through POSIX message queues." A scenario
//! loader pre-creates the six queues; the controller blocks on sensor
//! data and polls the web queues non-blockingly each cycle, exactly like
//! the MINIX control loop's structure.
//!
//! Two deployment configurations reproduce the paper's two Linux
//! discussions:
//!
//! - [`UidScheme::SharedAccount`] — "all five processes are running under
//!   the same user account", so DAC is vacuous between them (attack A1
//!   succeeds),
//! - [`UidScheme::PerProcessHardened`] — each process under its own uid
//!   with single-writer group modes ("unless each process runs under a
//!   unique user account, and the message queue is specifically
//!   configured..."), which stops A1 spoofing but still falls to root
//!   (attack A2).

use std::collections::VecDeque;

use bas_linux::cred::{Mode, Uid};
use bas_linux::kernel::{LinuxConfig, LinuxKernel, LinuxProcess};
use bas_linux::syscall::{MqAccess, Reply, Syscall};
use bas_plant::devices::install_devices;
use bas_sim::caps::CapChurnOp;
use bas_sim::device::DeviceId;
use bas_sim::kernel::Kernel;
use bas_sim::process::{Action, Process};
use bas_sim::time::{SimDuration, SimTime};

use crate::engine::{PlatformKernel, ScenarioEngine};
use crate::logic::control::{ControlCore, Directive};
use crate::platform::{Actuator, Binding, Driver, Sensor, Web};
use crate::policy::{self, queues, ChannelSpec, CHANNELS, PROCESSES};
use crate::proto::{names, BasMsg};
use crate::scenario::{AppIo, Platform, ScenarioConfig};

/// The shared account everything runs under in the paper's baseline.
pub const SHARED_UID: u32 = 1000;

/// How processes and queues are assigned to accounts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UidScheme {
    /// Everything under uid 1000, queues mode `0600` — the paper's
    /// vulnerable baseline.
    SharedAccount,
    /// One uid per process; queues owned by their reader with the writer
    /// as group, mode `0620`.
    PerProcessHardened,
}

/// A message queue's access control, as the loader creates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueAcl {
    /// The owning uid.
    pub owner: Uid,
    /// The uid the mode's group triple applies to, if any.
    pub group: Option<Uid>,
    /// The permission bits.
    pub mode: Mode,
}

impl UidScheme {
    /// The uid a process runs under in this scheme.
    pub fn uid_of(self, process: &str) -> u32 {
        match self {
            UidScheme::SharedAccount => SHARED_UID,
            UidScheme::PerProcessHardened => {
                policy::process(process).map_or(SHARED_UID, |p| p.hardened_uid)
            }
        }
    }

    /// The ACL of `channel`'s queue: the shared scheme puts every queue
    /// under the shared account at `0600`; the hardened scheme makes the
    /// reader the owner and the single intended writer the group, at
    /// `0620`.
    pub fn queue_acl(self, channel: &ChannelSpec) -> QueueAcl {
        match self {
            UidScheme::SharedAccount => QueueAcl {
                owner: Uid::new(SHARED_UID),
                group: None,
                mode: Mode::new(0o600),
            },
            UidScheme::PerProcessHardened => QueueAcl {
                owner: Uid::new(self.uid_of(channel.to)),
                group: Some(Uid::new(self.uid_of(channel.from))),
                mode: Mode::new(0o620),
            },
        }
    }

    /// Every device node with its owner (the driver's uid) and mode
    /// `0600`.
    pub fn device_nodes(self) -> impl Iterator<Item = (DeviceId, (Uid, Mode))> {
        PROCESSES.iter().filter_map(move |p| {
            let owner = Uid::new(self.uid_of(p.name));
            p.device.map(|dev| (dev, (owner, Mode::new(0o600))))
        })
    }
}

// ---------------------------------------------------------------------------
// Controller process
// ---------------------------------------------------------------------------

// Descriptor layout after the open sequence.
const QD_SENSOR_IN: u32 = 0;
const QD_SETPOINT_IN: u32 = 1;
const QD_STATUS_IN: u32 = 2;
const QD_HEATER: u32 = 3;
const QD_ALARM: u32 = 4;
const QD_REPLY: u32 = 5;

const CTRL_OPENS: [(&str, MqAccess); 6] = [
    (queues::SENSOR_IN, MqAccess::READ),
    (queues::SETPOINT_IN, MqAccess::READ),
    (queues::STATUS_IN, MqAccess::READ),
    (queues::HEATER_CMD, MqAccess::WRITE),
    (queues::ALARM_CMD, MqAccess::WRITE),
    (queues::WEB_REPLY, MqAccess::WRITE),
];

/// The Linux temperature controller: block on sensor data, act, poll the
/// web queues, reply, repeat.
pub struct LinuxControl {
    core: ControlCore,
    outbox: VecDeque<Syscall>,
    cycle_now: SimTime,
    pending_reading: Option<i32>,
    state: CtrlSt,
}

enum CtrlSt {
    Open(usize),
    RecvSensor,
    Time,
    /// Drain the outbox, then poll web queue `qd` non-blockingly.
    DrainThenPoll(u32),
    /// Awaiting the poll of web queue `qd`.
    Poll(u32),
    DrainThenRecv,
}

impl LinuxControl {
    /// Creates the controller.
    pub fn new(core: ControlCore) -> Self {
        LinuxControl {
            core,
            outbox: VecDeque::new(),
            cycle_now: SimTime::ZERO,
            pending_reading: None,
            state: CtrlSt::Open(0),
        }
    }

    fn nb_send(&mut self, qd: u32, msg: BasMsg) {
        self.outbox.push_back(Syscall::MqSend {
            qd,
            data: msg.to_bytes(),
            priority: 0,
            nonblocking: true,
        });
    }

    fn drain_or(&mut self, next: CtrlSt, after: Syscall) -> Action<Syscall> {
        match self.outbox.pop_front() {
            Some(sys) => Action::Syscall(sys),
            None => {
                self.state = next;
                Action::Syscall(after)
            }
        }
    }
}

impl Process for LinuxControl {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        match self.state {
            CtrlSt::Open(i) => {
                if i > 0 && !matches!(reply, Some(Reply::Qd(_))) {
                    return Action::Exit(1); // queue missing/denied: cannot run
                }
                if i < CTRL_OPENS.len() {
                    let (name, access) = CTRL_OPENS[i];
                    self.state = CtrlSt::Open(i + 1);
                    return Action::Syscall(Syscall::MqOpen {
                        name: name.into(),
                        access,
                        create: None,
                    });
                }
                self.state = CtrlSt::RecvSensor;
                Action::Syscall(Syscall::MqReceive {
                    qd: QD_SENSOR_IN,
                    nonblocking: false,
                })
            }
            CtrlSt::RecvSensor => {
                if let Some(Reply::Data { data, .. }) = reply {
                    // NOTE: nothing here can authenticate the sender — the
                    // bytes are all there is. The controller takes the
                    // payload at face value, as the paper's Linux
                    // implementation must.
                    if let Ok(BasMsg::SensorReading { milli_c, .. }) = BasMsg::from_bytes(&data) {
                        self.pending_reading = Some(milli_c);
                        self.state = CtrlSt::Time;
                        return Action::Syscall(Syscall::GetTime);
                    }
                }
                Action::Syscall(Syscall::MqReceive {
                    qd: QD_SENSOR_IN,
                    nonblocking: false,
                })
            }
            CtrlSt::Time => {
                if let Some(Reply::Time(t)) = reply {
                    self.cycle_now = t;
                }
                if let Some(milli_c) = self.pending_reading.take() {
                    let directives = self.core.on_sensor_reading(self.cycle_now, milli_c);
                    for d in directives {
                        match d {
                            Directive::SetFan(on) => self.nb_send(QD_HEATER, BasMsg::FanCmd { on }),
                            Directive::SetAlarm(on) => {
                                self.nb_send(QD_ALARM, BasMsg::AlarmCmd { on })
                            }
                        }
                    }
                }
                self.state = CtrlSt::DrainThenPoll(QD_SETPOINT_IN);
                self.resume(None)
            }
            CtrlSt::DrainThenPoll(qd) => self.drain_or(
                CtrlSt::Poll(qd),
                Syscall::MqReceive {
                    qd,
                    nonblocking: true,
                },
            ),
            CtrlSt::Poll(qd) => match reply {
                Some(Reply::Data { data, .. }) => {
                    // Each web queue carries one request kind; anything
                    // else arriving on it is dropped unanswered.
                    let request = BasMsg::from_bytes(&data).ok().filter(|m| match qd {
                        QD_SETPOINT_IN => matches!(m, BasMsg::SetpointUpdate { .. }),
                        _ => *m == BasMsg::StatusQuery,
                    });
                    if let Some(answer) = request.and_then(|m| self.core.answer(self.cycle_now, &m))
                    {
                        self.nb_send(QD_REPLY, answer);
                    }
                    // Keep polling for more pending requests.
                    self.state = CtrlSt::DrainThenPoll(qd);
                    self.resume(None)
                }
                // Queue drained (or the poll failed): the setpoint queue
                // hands over to the status queue, which hands back to the
                // blocking sensor receive.
                _ => {
                    self.state = match qd {
                        QD_SETPOINT_IN => CtrlSt::DrainThenPoll(QD_STATUS_IN),
                        _ => CtrlSt::DrainThenRecv,
                    };
                    self.resume(None)
                }
            },
            CtrlSt::DrainThenRecv => self.drain_or(
                CtrlSt::RecvSensor,
                Syscall::MqReceive {
                    qd: QD_SENSOR_IN,
                    nonblocking: false,
                },
            ),
        }
    }

    fn name(&self) -> &str {
        names::CONTROL
    }
}

// ---------------------------------------------------------------------------
// IPC binding of the benign roles
// ---------------------------------------------------------------------------

/// The Linux binding of the benign roles: each role opens its queues at
/// start and exits if one is missing or denied. The sensor reports with
/// a non-blocking send; the web interface sends each request on its
/// kind's queue and blocks on the reply queue for the answer; a driver
/// blocks on its command queue.
pub(crate) struct LinuxIpc;

/// The queues a role has still to open, in descriptor order.
pub(crate) type Queues = &'static [(&'static str, MqAccess)];

/// Opens the next of `queues`, given the reply to the last open; exits
/// when that open failed.
fn open(queues: &mut Queues, reply: Option<Reply>) -> Result<(), Action<Syscall>> {
    if reply.is_some_and(|r| !matches!(r, Reply::Qd(_))) {
        return Err(Action::Exit(1)); // queue missing/denied: cannot run
    }
    let Some((&(name, access), rest)) = queues.split_first() else {
        return Ok(());
    };
    *queues = rest;
    Err(Action::Syscall(Syscall::MqOpen {
        name: name.into(),
        access,
        create: None,
    }))
}

/// Each role's queues. The sensor writes the controller's input at
/// descriptor 0 and a driver reads its commands there; the web
/// interface writes the setpoint and status queues at 0 and 1 and reads
/// the replies at 2.
const SENSOR_OPENS: Queues = &[(queues::SENSOR_IN, MqAccess::WRITE)];
const HEATER_OPENS: Queues = &[(queues::HEATER_CMD, MqAccess::READ)];
const ALARM_OPENS: Queues = &[(queues::ALARM_CMD, MqAccess::READ)];
const WEB_OPENS: Queues = &[
    (queues::SETPOINT_IN, MqAccess::WRITE),
    (queues::STATUS_IN, MqAccess::WRITE),
    (queues::WEB_REPLY, MqAccess::READ),
];

impl Binding for LinuxIpc {
    type Syscall = Syscall;
    type Reply = Reply;
    type Device = DeviceId;
    type Link = Queues;
    type Port = Queues;

    fn connect(link: &mut Queues, reply: Option<Reply>) -> Result<(), Action<Syscall>> {
        open(link, reply)
    }

    fn listen(port: &mut Queues, reply: Option<Reply>) -> Result<(), Action<Syscall>> {
        open(port, reply)
    }

    plain_syscalls!(GetTime, Time);

    fn send(_: &Queues, msg: BasMsg) -> Syscall {
        let (qd, nonblocking) = match msg {
            BasMsg::SensorReading { .. } => (0, true),
            BasMsg::StatusQuery => (1, false),
            _ => (0, false),
        };
        Syscall::MqSend {
            qd,
            data: msg.to_bytes(),
            priority: 0,
            nonblocking,
        }
    }

    fn collect(_: &Queues) -> Option<Syscall> {
        Some(Syscall::MqReceive {
            qd: 2,
            nonblocking: false,
        })
    }

    fn decode(reply: Option<Reply>, _: BasMsg) -> Option<BasMsg> {
        match reply {
            Some(Reply::Data { data, .. }) => BasMsg::from_bytes(&data).ok(),
            _ => None,
        }
    }

    fn receive(_: &Queues) -> Syscall {
        Syscall::MqReceive {
            qd: 0,
            nonblocking: false,
        }
    }

    fn command(_: &Queues, reply: Option<Reply>, driver: Driver) -> Option<Option<bool>> {
        match reply {
            Some(Reply::Data { data, .. }) => Some(driver.level(BasMsg::from_bytes(&data).ok())),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Builder + runner
// ---------------------------------------------------------------------------

/// Build-time knobs used by the attack harness.
pub struct LinuxOverrides {
    /// Replaces the web interface program.
    pub web_factory: Option<Box<dyn Fn() -> LinuxProcess>>,
    /// Overrides the web interface's uid (0 = the A2 root escalation).
    pub web_uid: Option<u32>,
    /// Account/queue configuration.
    pub uid_scheme: UidScheme,
}

impl Default for LinuxOverrides {
    fn default() -> Self {
        LinuxOverrides {
            web_factory: None,
            web_uid: None,
            uid_scheme: UidScheme::SharedAccount,
        }
    }
}

/// The booted Linux stack: the kernel and its boot-template knobs.
pub struct LinuxStack {
    /// The simulated kernel (public for experiment introspection).
    pub kernel: LinuxKernel,
    /// Boot-template knobs kept so [`PlatformKernel::reset_to_boot`] can
    /// re-run the same queue creation and spawns.
    scheme: UidScheme,
    web_uid: u32,
}

/// A running Linux scenario: the generic engine over [`LinuxStack`].
pub type LinuxScenario = ScenarioEngine<LinuxStack>;

/// Builds and boots the scenario on the Linux baseline.
pub fn build_linux(config: &ScenarioConfig, overrides: LinuxOverrides) -> LinuxScenario {
    ScenarioEngine::boot(config, overrides)
}

fn boot_linux(config: &ScenarioConfig, overrides: LinuxOverrides, io: &AppIo) -> LinuxStack {
    let scheme = overrides.uid_scheme;
    let mut device_nodes = std::collections::BTreeMap::new();
    for (dev, node) in scheme.device_nodes() {
        device_nodes.insert(dev, node);
    }

    let mut kernel = LinuxKernel::new(LinuxConfig {
        max_procs: config.max_procs,
        cost_model: config.cost_model,
        device_nodes,
        ..LinuxConfig::default()
    });
    install_devices(&io.plant, kernel.devices_mut());

    let web_uid = overrides
        .web_uid
        .unwrap_or_else(|| scheme.uid_of(names::WEB));
    let web_logic: LinuxProcess = match &overrides.web_factory {
        Some(factory) => factory(),
        None => Box::new(Web::<LinuxIpc>::new(WEB_OPENS, io)),
    };
    populate_scenario(&mut kernel, config, scheme, web_uid, web_logic);

    // Register program images so fork-based attacks work.
    kernel.register_program(
        "sleeper",
        Box::new(|| {
            Box::new(bas_sim::script::Script::<Syscall, Reply>::looping(vec![
                Syscall::Sleep {
                    duration: SimDuration::from_secs(3_600),
                },
            ]))
        }),
    );

    LinuxStack {
        kernel,
        scheme,
        web_uid,
    }
}

/// Queue creation plus the five boot spawns, shared verbatim between cold
/// boot and [`PlatformKernel::reset_to_boot`]: "The scenario process in
/// Linux spawns all other processes and creates 6 message queues" — the
/// loader role, performed at build time.
fn populate_scenario(
    kernel: &mut LinuxKernel,
    config: &ScenarioConfig,
    scheme: UidScheme,
    web_uid: u32,
    web_logic: LinuxProcess,
) {
    let capacity = 64;
    for channel in &CHANNELS {
        let acl = scheme.queue_acl(channel);
        match acl.group {
            None => kernel.create_queue(channel.queue, acl.owner, acl.mode, capacity),
            Some(group) => {
                kernel.create_queue_grouped(channel.queue, acl.owner, group, acl.mode, capacity)
            }
        }
    }

    let mut web_logic = Some(web_logic);
    for p in &PROCESSES {
        let logic: LinuxProcess = match p.name {
            names::CONTROL => Box::new(LinuxControl::new(ControlCore::new(config.control))),
            names::HEATER => Box::new(Actuator::<LinuxIpc>::new(
                HEATER_OPENS,
                DeviceId::FAN,
                Driver::Heater,
            )),
            names::ALARM => Box::new(Actuator::<LinuxIpc>::new(
                ALARM_OPENS,
                DeviceId::ALARM,
                Driver::Alarm,
            )),
            names::SENSOR => Box::new(Sensor::<LinuxIpc>::new(
                SENSOR_OPENS,
                DeviceId::TEMP_SENSOR,
                config.sensor_period,
            )),
            names::WEB => web_logic.take().expect("one web interface"),
            other => unreachable!("{other} has no Linux program"),
        };
        let uid = match p.name {
            names::WEB => web_uid,
            name => scheme.uid_of(name),
        };
        kernel
            .spawn(p.name, uid, logic)
            .expect("room for the scenario");
    }
}

impl PlatformKernel for LinuxStack {
    const PLATFORM: Platform = Platform::Linux;
    type Overrides = LinuxOverrides;
    type Kernel = LinuxKernel;

    fn boot(config: &ScenarioConfig, overrides: LinuxOverrides, io: &AppIo) -> Self {
        boot_linux(config, overrides, io)
    }

    fn recyclable(overrides: &LinuxOverrides) -> bool {
        overrides.web_factory.is_none()
    }

    fn kernel(&self) -> &LinuxKernel {
        &self.kernel
    }

    fn kernel_mut(&mut self) -> &mut LinuxKernel {
        &mut self.kernel
    }

    fn reset_to_boot(&mut self, config: &ScenarioConfig, io: &AppIo) {
        self.kernel.reset_to_boot();
        populate_scenario(
            &mut self.kernel,
            config,
            self.scheme,
            self.web_uid,
            Box::new(Web::<LinuxIpc>::new(WEB_OPENS, io)),
        );
        // The "sleeper" program registered at cold boot survives the
        // kernel reset, so it is not re-registered here.
    }

    fn resolve_churn(&self, op: &CapChurnOp) -> Vec<CapChurnOp> {
        churn_queues(&op.subject, &op.object)
            .map(|queue| CapChurnOp {
                object: queue.to_string(),
                ..op.clone()
            })
            .collect()
    }
}

/// Maps an instance-level channel (subject instance → destination
/// instance) onto the mq names carrying it; an `op.object` that is
/// already a VFS queue name (leading `/`) names its queue directly.
/// Unknown pairs map to nothing, and the churn op reports unresolved.
fn churn_queues<'a>(subject: &'a str, object: &'a str) -> impl Iterator<Item = &'static str> + 'a {
    CHANNELS
        .iter()
        .filter(move |c| {
            if object.starts_with('/') {
                c.queue == object
            } else {
                c.from == subject && c.to == object
            }
        })
        .map(|c| c.queue)
}
