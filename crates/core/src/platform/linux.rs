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
use bas_sim::device::DeviceId;
use bas_sim::metrics::KernelMetrics;
use bas_sim::process::{Action, Process};
use bas_sim::time::{SimDuration, SimTime};

use crate::engine::{PlatformKernel, ScenarioEngine};
use crate::logic::control::{ControlCore, Directive};
use crate::logic::web::{WebAction, WebClient, WebStep};
use crate::policy::queues;
use crate::proto::{names, BasMsg};
use crate::scenario::{AppIo, Platform, ScenarioConfig};

/// Scenario uids.
pub mod uids {
    /// The shared account everything runs under in the paper's baseline.
    pub const SHARED: u32 = 1000;
    /// Hardened scheme: sensor.
    pub const SENSOR: u32 = 1001;
    /// Hardened scheme: controller.
    pub const CONTROL: u32 = 1002;
    /// Hardened scheme: heater driver.
    pub const HEATER: u32 = 1003;
    /// Hardened scheme: alarm driver.
    pub const ALARM: u32 = 1004;
    /// Hardened scheme: web interface.
    pub const WEB: u32 = 1005;
}

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

impl UidScheme {
    /// The uid a process runs under in this scheme.
    pub fn uid_of(self, process: &str) -> u32 {
        match self {
            UidScheme::SharedAccount => uids::SHARED,
            UidScheme::PerProcessHardened => match process {
                x if x == names::SENSOR => uids::SENSOR,
                x if x == names::CONTROL => uids::CONTROL,
                x if x == names::HEATER => uids::HEATER,
                x if x == names::ALARM => uids::ALARM,
                x if x == names::WEB => uids::WEB,
                _ => uids::SHARED,
            },
        }
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
    /// False when a custom web factory booted this stack: factories may
    /// be stateful, so recycling cannot guarantee cold-boot identity.
    forkable: bool,
    /// True once anything mutated the kernel after boot. While false the
    /// stack is still the boot template verbatim (the seed only reaches
    /// the engine's plant, and the boot-time web process reads the
    /// re-imaged schedule lazily), so recycling skips the kernel reset and
    /// respawns.
    ran: bool,
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
    let dev_mode = Mode::new(0o600);
    device_nodes.insert(
        DeviceId::TEMP_SENSOR,
        (Uid::new(scheme.uid_of(names::SENSOR)), dev_mode),
    );
    device_nodes.insert(
        DeviceId::FAN,
        (Uid::new(scheme.uid_of(names::HEATER)), dev_mode),
    );
    device_nodes.insert(
        DeviceId::ALARM,
        (Uid::new(scheme.uid_of(names::ALARM)), dev_mode),
    );

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
    let forkable = overrides.web_factory.is_none();
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
        forkable,
        ran: false,
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
    match scheme {
        UidScheme::SharedAccount => {
            let owner = Uid::new(uids::SHARED);
            for name in queues::ALL {
                kernel.create_queue(name, owner, Mode::new(0o600), capacity);
            }
        }
        UidScheme::PerProcessHardened => {
            // owner = reader, group = single intended writer, mode 0620.
            let mode = Mode::new(0o620);
            let ctrl = Uid::new(uids::CONTROL);
            kernel.create_queue_grouped(
                queues::SENSOR_IN,
                ctrl,
                Uid::new(uids::SENSOR),
                mode,
                capacity,
            );
            kernel.create_queue_grouped(
                queues::SETPOINT_IN,
                ctrl,
                Uid::new(uids::WEB),
                mode,
                capacity,
            );
            kernel.create_queue_grouped(
                queues::STATUS_IN,
                ctrl,
                Uid::new(uids::WEB),
                mode,
                capacity,
            );
            kernel.create_queue_grouped(
                queues::HEATER_CMD,
                Uid::new(uids::HEATER),
                ctrl,
                mode,
                capacity,
            );
            kernel.create_queue_grouped(
                queues::ALARM_CMD,
                Uid::new(uids::ALARM),
                ctrl,
                mode,
                capacity,
            );
            kernel.create_queue_grouped(
                queues::WEB_REPLY,
                Uid::new(uids::WEB),
                ctrl,
                mode,
                capacity,
            );
        }
    }

    let control_config = config.control;
    kernel
        .spawn(
            names::CONTROL,
            scheme.uid_of(names::CONTROL),
            Box::new(LinuxControl::new(ControlCore::new(control_config))),
        )
        .expect("room for controller");
    kernel
        .spawn(
            names::HEATER,
            scheme.uid_of(names::HEATER),
            Box::new(LinuxActuator::heater()),
        )
        .expect("room for heater");
    kernel
        .spawn(
            names::ALARM,
            scheme.uid_of(names::ALARM),
            Box::new(LinuxActuator::alarm()),
        )
        .expect("room for alarm");
    kernel
        .spawn(
            names::SENSOR,
            scheme.uid_of(names::SENSOR),
            Box::new(LinuxSensor::new(config.sensor_period)),
        )
        .expect("room for sensor");
    kernel
        .spawn(names::WEB, web_uid, web_logic)
        .expect("room for web interface");
}

impl PlatformKernel for LinuxStack {
    const PLATFORM: Platform = Platform::Linux;
    type Overrides = LinuxOverrides;

    fn boot(config: &ScenarioConfig, overrides: LinuxOverrides, io: &AppIo) -> Self {
        boot_linux(config, overrides, io)
    }

    fn now(&self) -> SimTime {
        self.kernel.now()
    }

    fn run_until(&mut self, target: SimTime) {
        self.ran = true;
        self.kernel.run_until(target);
    }

    fn metrics(&self) -> KernelMetrics {
        *self.kernel.metrics()
    }

    fn alive_names(&self) -> Vec<String> {
        self.kernel.alive_process_names()
    }

    fn trace_count(&self, category: &str) -> usize {
        self.kernel.trace().events_in(category).count()
    }

    fn reset_to_boot(&mut self, config: &ScenarioConfig, io: &AppIo) -> bool {
        if !self.forkable {
            return false;
        }
        if self.ran {
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
            self.ran = false;
        }
        true
    }

    fn devices_mut(&mut self) -> &mut bas_sim::device::DeviceBus {
        // Interposed fault devices survive a kernel reset, so recycling
        // can no longer promise cold-boot identity.
        self.forkable = false;
        self.kernel.devices_mut()
    }

    fn inject_crash(&mut self, name: &str) -> bool {
        self.ran = true;
        self.kernel.kill_named(name)
    }

    fn arm_ipc_fault(&mut self, fault: bas_sim::fault::IpcFault, count: u32) {
        self.ran = true;
        self.kernel.ipc_faults_mut().arm(fault, count);
    }

    fn ipc_faults_applied(&self) -> u64 {
        self.kernel.ipc_faults().applied()
    }

    fn skew_clock(&mut self, d: bas_sim::time::SimDuration) {
        self.ran = true;
        self.kernel.skew_clock(d);
    }

    fn apply_cap_churn(&mut self, op: &bas_sim::caps::CapChurnOp) -> bool {
        self.ran = true;
        let mut changed = false;
        for queue in churn_queues(&op.subject, &op.object) {
            let q_op = bas_sim::caps::CapChurnOp {
                object: queue.to_string(),
                ..op.clone()
            };
            changed |= self.kernel.apply_cap_churn(&q_op);
        }
        changed
    }

    fn arm_cap_churn(&mut self, op: &bas_sim::caps::CapChurnOp, after_checks: u32) {
        self.ran = true;
        for queue in churn_queues(&op.subject, &op.object) {
            let q_op = bas_sim::caps::CapChurnOp {
                object: queue.to_string(),
                ..op.clone()
            };
            self.kernel.arm_cap_churn(&q_op, after_checks);
        }
    }

    fn enable_cap_trace(&mut self) {
        self.ran = true;
        self.kernel.enable_cap_trace();
    }

    fn cap_trace(&self) -> bas_sim::caps::CapTrace {
        self.kernel.cap_trace()
    }
}

/// Maps an instance-level channel (subject instance → destination
/// instance) onto the mq names carrying it; an `op.object` that is
/// already a VFS queue name (leading `/`) passes through unchanged.
/// Unknown pairs map to nothing, and the churn op reports unresolved.
fn churn_queues(subject: &str, object: &str) -> Vec<&'static str> {
    use crate::proto::names;
    if object.starts_with('/') {
        return queues::ALL.into_iter().filter(|q| *q == object).collect();
    }
    match (subject, object) {
        (names::SENSOR, names::CONTROL) => vec![queues::SENSOR_IN],
        (names::WEB, names::CONTROL) => vec![queues::SETPOINT_IN, queues::STATUS_IN],
        (names::CONTROL, names::HEATER) => vec![queues::HEATER_CMD],
        (names::CONTROL, names::ALARM) => vec![queues::ALARM_CMD],
        (names::CONTROL, names::WEB) => vec![queues::WEB_REPLY],
        _ => Vec::new(),
    }
}
