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
use crate::logic::web::{WebAction, WebClient, WebStep};
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
// Sensor process
// ---------------------------------------------------------------------------

/// The Linux sensor driver.
pub struct LinuxSensor {
    period: SimDuration,
    seq: u32,
    state: SensorSt,
}

enum SensorSt {
    Start,
    AwaitOpen,
    AwaitDevRead,
    AwaitSend,
    AwaitSleep,
}

impl LinuxSensor {
    /// Creates the sensor driver.
    pub fn new(period: SimDuration) -> Self {
        LinuxSensor {
            period,
            seq: 0,
            state: SensorSt::Start,
        }
    }
}

impl Process for LinuxSensor {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        match self.state {
            SensorSt::Start => {
                self.state = SensorSt::AwaitOpen;
                Action::Syscall(Syscall::MqOpen {
                    name: queues::SENSOR_IN.into(),
                    access: MqAccess::WRITE,
                    create: None,
                })
            }
            SensorSt::AwaitOpen => match reply {
                Some(Reply::Qd(0)) => {
                    self.state = SensorSt::AwaitDevRead;
                    Action::Syscall(Syscall::DevRead {
                        dev: DeviceId::TEMP_SENSOR,
                    })
                }
                _ => Action::Exit(1),
            },
            SensorSt::AwaitDevRead => match reply {
                Some(Reply::DevValue(v)) => {
                    self.seq += 1;
                    self.state = SensorSt::AwaitSend;
                    Action::Syscall(Syscall::MqSend {
                        qd: 0,
                        data: BasMsg::SensorReading {
                            milli_c: v as i32,
                            seq: self.seq,
                        }
                        .to_bytes(),
                        priority: 0,
                        nonblocking: true,
                    })
                }
                _ => Action::Exit(1),
            },
            SensorSt::AwaitSend => {
                self.state = SensorSt::AwaitSleep;
                Action::Syscall(Syscall::Sleep {
                    duration: self.period,
                })
            }
            SensorSt::AwaitSleep => {
                self.state = SensorSt::AwaitDevRead;
                Action::Syscall(Syscall::DevRead {
                    dev: DeviceId::TEMP_SENSOR,
                })
            }
        }
    }

    fn name(&self) -> &str {
        names::SENSOR
    }
}

// ---------------------------------------------------------------------------
// Actuator processes
// ---------------------------------------------------------------------------

/// A Linux actuator driver: blocking receive on its command queue, drive
/// the device.
pub struct LinuxActuator {
    queue: &'static str,
    dev: DeviceId,
    which: &'static str,
    state: ActSt,
}

enum ActSt {
    Start,
    AwaitOpen,
    AwaitRecv,
    AwaitWrite,
}

impl LinuxActuator {
    /// The heater/fan driver.
    pub fn heater() -> Self {
        LinuxActuator {
            queue: queues::HEATER_CMD,
            dev: DeviceId::FAN,
            which: names::HEATER,
            state: ActSt::Start,
        }
    }

    /// The alarm driver.
    pub fn alarm() -> Self {
        LinuxActuator {
            queue: queues::ALARM_CMD,
            dev: DeviceId::ALARM,
            which: names::ALARM,
            state: ActSt::Start,
        }
    }
}

impl Process for LinuxActuator {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        match self.state {
            ActSt::Start => {
                self.state = ActSt::AwaitOpen;
                Action::Syscall(Syscall::MqOpen {
                    name: self.queue.into(),
                    access: MqAccess::READ,
                    create: None,
                })
            }
            ActSt::AwaitOpen => match reply {
                Some(Reply::Qd(0)) => {
                    self.state = ActSt::AwaitRecv;
                    Action::Syscall(Syscall::MqReceive {
                        qd: 0,
                        nonblocking: false,
                    })
                }
                _ => Action::Exit(1),
            },
            ActSt::AwaitRecv => {
                if let Some(Reply::Data { data, .. }) = reply {
                    let decoded = BasMsg::from_bytes(&data);
                    let cmd = match (self.dev, decoded) {
                        (DeviceId::FAN, Ok(BasMsg::FanCmd { on })) => Some(on),
                        (DeviceId::ALARM, Ok(BasMsg::AlarmCmd { on })) => Some(on),
                        _ => None,
                    };
                    if let Some(on) = cmd {
                        self.state = ActSt::AwaitWrite;
                        return Action::Syscall(Syscall::DevWrite {
                            dev: self.dev,
                            value: i64::from(on),
                        });
                    }
                }
                Action::Syscall(Syscall::MqReceive {
                    qd: 0,
                    nonblocking: false,
                })
            }
            ActSt::AwaitWrite => {
                self.state = ActSt::AwaitRecv;
                Action::Syscall(Syscall::MqReceive {
                    qd: 0,
                    nonblocking: false,
                })
            }
        }
    }

    fn name(&self) -> &str {
        self.which
    }
}

// ---------------------------------------------------------------------------
// Web interface process (benign)
// ---------------------------------------------------------------------------

/// The benign Linux web interface: the [`WebClient`] role core bound to
/// POSIX message queues. It opens the setpoint, status and reply queues,
/// then sends each RPC on the request kind's queue and blocks on the
/// reply queue for the answer.
pub struct LinuxWeb {
    client: WebClient,
    state: WebSt,
}

/// The syscall the web process last issued.
enum WebSt {
    Open(usize),
    Clock,
    Sleep,
    Send,
    Recv,
}

const WEB_OPENS: [(&str, MqAccess); 3] = [
    (queues::SETPOINT_IN, MqAccess::WRITE),
    (queues::STATUS_IN, MqAccess::WRITE),
    (queues::WEB_REPLY, MqAccess::READ),
];
const WQD_SETPOINT: u32 = 0;
const WQD_STATUS: u32 = 1;
const WQD_REPLY: u32 = 2;

impl LinuxWeb {
    /// Creates the benign web interface over the instance's I/O.
    pub fn new(io: &AppIo) -> Self {
        LinuxWeb {
            client: WebClient::new(io),
            state: WebSt::Open(0),
        }
    }

    fn read_clock(&mut self) -> Action<Syscall> {
        self.state = WebSt::Clock;
        Action::Syscall(Syscall::GetTime)
    }

    fn send(&mut self, action: WebAction) -> Action<Syscall> {
        let qd = match action {
            WebAction::SetSetpoint(_) => WQD_SETPOINT,
            WebAction::QueryStatus => WQD_STATUS,
        };
        self.state = WebSt::Send;
        Action::Syscall(Syscall::MqSend {
            qd,
            data: action.request().to_bytes(),
            priority: 0,
            nonblocking: false,
        })
    }
}

impl Process for LinuxWeb {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        match self.state {
            WebSt::Open(i) => {
                if i > 0 && !matches!(reply, Some(Reply::Qd(_))) {
                    return Action::Exit(1);
                }
                if i < WEB_OPENS.len() {
                    let (name, access) = WEB_OPENS[i];
                    self.state = WebSt::Open(i + 1);
                    return Action::Syscall(Syscall::MqOpen {
                        name: name.into(),
                        access,
                        create: None,
                    });
                }
                self.read_clock()
            }
            WebSt::Clock => {
                let now = match reply {
                    Some(Reply::Time(t)) => t,
                    _ => SimTime::ZERO,
                };
                match self.client.on_clock(now) {
                    WebStep::Rpc(action) => self.send(action),
                    WebStep::Sleep(duration) => {
                        self.state = WebSt::Sleep;
                        Action::Syscall(Syscall::Sleep { duration })
                    }
                }
            }
            WebSt::Sleep => self.read_clock(),
            WebSt::Send => {
                self.state = WebSt::Recv;
                Action::Syscall(Syscall::MqReceive {
                    qd: WQD_REPLY,
                    nonblocking: false,
                })
            }
            WebSt::Recv => {
                let decoded = match reply {
                    Some(Reply::Data { data, .. }) => BasMsg::from_bytes(&data).ok(),
                    _ => None,
                };
                match self.client.on_reply(decoded) {
                    Some(action) => self.send(action),
                    None => self.read_clock(),
                }
            }
        }
    }

    fn name(&self) -> &str {
        names::WEB
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
        None => Box::new(LinuxWeb::new(io)),
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
            names::HEATER => Box::new(LinuxActuator::heater()),
            names::ALARM => Box::new(LinuxActuator::alarm()),
            names::SENSOR => Box::new(LinuxSensor::new(config.sensor_period)),
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
            Box::new(LinuxWeb::new(io)),
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
