//! The scenario on security-enhanced MINIX 3 (§IV-A).
//!
//! Faithful to the paper's process structure: a *scenario* loader process
//! forks the five application processes through PM `fork2` messages,
//! assigning each its `ac_id`; the sensor pushes readings with
//! non-blocking sends; the controller is a receive loop that commands the
//! drivers over rendezvous sends; the web interface performs RPCs via
//! `sendrec`; the kernel checks the ACM on every hop.

use std::collections::VecDeque;
use std::sync::Arc;

use bas_acm::AccessControlMatrix;
use bas_minix::endpoint::Endpoint;
use bas_minix::error::MinixError;
use bas_minix::kernel::{MinixConfig, MinixKernel, MinixProcess};
use bas_minix::message::Message;
use bas_minix::pm;
use bas_minix::syscall::{Reply, Syscall};
use bas_plant::devices::install_devices;
use bas_sim::caps::CapChurnOp;
use bas_sim::device::DeviceId;
use bas_sim::kernel::Kernel;
use bas_sim::process::{Action, Process};
use bas_sim::time::{SimDuration, SimTime};

use crate::engine::{PlatformKernel, ScenarioEngine};
use crate::logic::control::{ControlCore, Directive};
use crate::logic::web::{WebAction, WebClient, WebStep};
use crate::policy;
use crate::proto::{
    names, BasMsg, AC_ALARM, AC_CONTROL, AC_HEATER, AC_SCENARIO, AC_SENSOR, AC_WEB,
};
use crate::scenario::{AppIo, Platform, ScenarioConfig};

const LOOKUP_RETRY: SimDuration = SimDuration::from_millis(50);
const MAX_LOOKUP_RETRIES: u32 = 400;

/// Name-service resolution with boot-time retries, shared by every
/// process that talks to a peer it did not fork: the loader may not have
/// forked the peer yet, so a failed lookup sleeps [`LOOKUP_RETRY`] and
/// asks again, giving up after [`MAX_LOOKUP_RETRIES`] failures.
#[derive(Default)]
struct Lookup {
    retries: u32,
    /// The last syscall issued was the query (not a retry sleep).
    asked: bool,
}

impl Lookup {
    /// Queries the name service for `name`.
    fn ask(&mut self, name: &str) -> Action<Syscall> {
        self.asked = true;
        Action::Syscall(Syscall::Lookup { name: name.into() })
    }

    /// Sleeps one retry interval; the next [`Lookup::resume`] asks again.
    fn retry(&mut self) -> Action<Syscall> {
        self.asked = false;
        Action::Syscall(Syscall::Sleep {
            duration: LOOKUP_RETRY,
        })
    }

    /// Advances the resolution of `name` with the reply to the last
    /// syscall it issued: the endpoint once resolved, else the next
    /// syscall to issue.
    fn resume(&mut self, name: &str, reply: Option<Reply>) -> Result<Endpoint, Action<Syscall>> {
        if !self.asked {
            return Err(self.ask(name));
        }
        match reply {
            Some(Reply::Resolved(ep)) => Ok(ep),
            _ => {
                self.retries += 1;
                if self.retries > MAX_LOOKUP_RETRIES {
                    return Err(Action::Exit(1));
                }
                Err(self.retry())
            }
        }
    }
}

/// Program-registry ids assigned by [`build_minix`]'s registration order.
/// The paper's attacker "ha\[s\] enough knowledge about other control
/// processes", which includes the loadable images.
pub mod prog_ids {
    /// `temp_sensor` image.
    pub const SENSOR: u32 = 0;
    /// `temp_control` image.
    pub const CONTROL: u32 = 1;
    /// `heater_actuator` image.
    pub const HEATER: u32 = 2;
    /// `alarm_actuator` image.
    pub const ALARM: u32 = 3;
    /// `web_interface` image.
    pub const WEB: u32 = 4;
}

// ---------------------------------------------------------------------------
// Temperature sensor process
// ---------------------------------------------------------------------------

/// The temperature sensor driver: "periodically samples the room
/// temperature and sends the data to temperature control process" using
/// "nonblocking send".
pub struct MinixSensor {
    control: Option<Endpoint>,
    seq: u32,
    period: SimDuration,
    lookup: Lookup,
    state: SensorSt,
}

enum SensorSt {
    Connect,
    AwaitDevRead,
    AwaitSend,
    AwaitSleep,
}

impl MinixSensor {
    /// Creates the sensor driver with the given sampling period.
    pub fn new(period: SimDuration) -> Self {
        MinixSensor {
            control: None,
            seq: 0,
            period,
            lookup: Lookup::default(),
            state: SensorSt::Connect,
        }
    }
}

impl Process for MinixSensor {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        match self.state {
            SensorSt::Connect => match self.lookup.resume(names::CONTROL, reply) {
                Ok(ep) => {
                    self.control = Some(ep);
                    self.state = SensorSt::AwaitDevRead;
                    Action::Syscall(Syscall::DevRead {
                        dev: DeviceId::TEMP_SENSOR,
                    })
                }
                Err(next) => next,
            },
            SensorSt::AwaitDevRead => match reply {
                Some(Reply::DevValue(v)) => {
                    self.seq += 1;
                    let (mtype, payload) = BasMsg::SensorReading {
                        milli_c: v as i32,
                        seq: self.seq,
                    }
                    .to_minix();
                    self.state = SensorSt::AwaitSend;
                    Action::Syscall(Syscall::NbSend {
                        dest: self.control.expect("looked up"),
                        mtype,
                        payload,
                    })
                }
                // Device refused (misconfiguration): the driver cannot work.
                _ => Action::Exit(1),
            },
            SensorSt::AwaitSend => {
                // A NotReady (controller busy) just drops this sample, as
                // with a real non-blocking send. A dead destination means
                // the controller was restarted under a new endpoint
                // generation: re-resolve it through the name service.
                if matches!(reply, Some(Reply::Err(MinixError::DeadSourceOrDestination))) {
                    self.lookup = Lookup::default();
                    self.state = SensorSt::Connect;
                    return self.lookup.retry();
                }
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
// Temperature control process
// ---------------------------------------------------------------------------

const CTRL_LOOKUPS: [&str; 3] = [names::SENSOR, names::HEATER, names::ALARM];

/// The temperature control process: the §IV-A receive loop. It validates
/// sender identity (kernel-stamped endpoint) in addition to relying on the
/// ACM, applies the control law, and commands the drivers.
pub struct MinixControl {
    core: ControlCore,
    peers: [Option<Endpoint>; 3], // sensor, heater, alarm
    outbox: VecDeque<Syscall>,
    pending: Option<Message>,
    lookup: Lookup,
    peers_stale: bool,
    booted: bool,
    readings_since_resync: u32,
    log_buf: Option<bas_minix::grant::BufId>,
    state: CtrlSt,
}

/// Byte size of the controller's environment-log buffer ("environment
/// information will be written in a log file", §IV-A): a rolling record
/// of the latest status snapshot.
pub const CONTROL_LOG_SIZE: usize = 24;

/// Every N sensor readings the controller re-asserts both actuator
/// outputs even if unchanged. Directives are edge-triggered, so a command
/// lost to a crashed driver would otherwise never be repeated; periodic
/// level re-assertion closes that gap (standard practice for supervisory
/// controllers) and is what lets a reincarnated driver resynchronize.
const RESYNC_EVERY_READINGS: u32 = 30;

enum CtrlSt {
    Connect(usize),
    AwaitLogBuf,
    AwaitReceive,
    AwaitTime,
    Drain,
}

impl MinixControl {
    /// Creates the controller around a fresh control core.
    pub fn new(core: ControlCore) -> Self {
        MinixControl {
            core,
            peers: [None; 3],
            outbox: VecDeque::new(),
            pending: None,
            lookup: Lookup::default(),
            peers_stale: false,
            booted: false,
            readings_since_resync: 0,
            log_buf: None,
            state: CtrlSt::Connect(0),
        }
    }

    fn handle(&mut self, msg: Message, now: SimTime) {
        let Ok(decoded) = BasMsg::from_minix(msg.mtype, &msg.payload) else {
            return; // malformed: drop
        };
        match decoded {
            BasMsg::SensorReading { milli_c, .. } => {
                // Defense in depth: even if the ACM were misconfigured,
                // accept readings only from the kernel-stamped sensor
                // endpoint.
                if Some(msg.source) != self.peers[0] {
                    return;
                }
                let mut fan_cmd = None;
                let mut alarm_cmd = None;
                for d in self.core.on_sensor_reading(now, milli_c) {
                    match d {
                        Directive::SetFan(on) => fan_cmd = Some(on),
                        Directive::SetAlarm(on) => alarm_cmd = Some(on),
                    }
                }
                // Periodic level re-assertion (see RESYNC_EVERY_READINGS).
                self.readings_since_resync += 1;
                if self.readings_since_resync >= RESYNC_EVERY_READINGS {
                    self.readings_since_resync = 0;
                    let status = self.core.status();
                    fan_cmd.get_or_insert(status.fan_on);
                    alarm_cmd.get_or_insert(status.alarm_on);
                }
                if let (Some(on), Some(dest)) = (fan_cmd, self.peers[1]) {
                    let (mtype, payload) = BasMsg::FanCmd { on }.to_minix();
                    self.outbox.push_back(Syscall::Send {
                        dest,
                        mtype,
                        payload,
                    });
                }
                if let (Some(on), Some(dest)) = (alarm_cmd, self.peers[2]) {
                    let (mtype, payload) = BasMsg::AlarmCmd { on }.to_minix();
                    self.outbox.push_back(Syscall::Send {
                        dest,
                        mtype,
                        payload,
                    });
                }
                // A missing peer (dead driver, supervisor may revive it)
                // triggers a re-resolution round at the next resync tick.
                if self.readings_since_resync == 0 && self.peers.iter().any(Option::is_none) {
                    self.peers_stale = true;
                }
                // "At the end of the while loop, environment information
                // will be written in a log file" — snapshot the status
                // into the controller's log buffer.
                if let Some(buf) = self.log_buf {
                    let s = self.core.status();
                    let mut rec = Vec::with_capacity(CONTROL_LOG_SIZE);
                    rec.extend_from_slice(&(now.as_secs() as u32).to_le_bytes());
                    rec.extend_from_slice(&s.last_reading_milli_c.to_le_bytes());
                    rec.extend_from_slice(&s.setpoint_milli_c.to_le_bytes());
                    rec.push(u8::from(s.fan_on));
                    rec.push(u8::from(s.alarm_on));
                    self.outbox.push_back(Syscall::MemWrite {
                        buf,
                        offset: 0,
                        data: rec,
                    });
                }
            }
            // Web requests are answered by the core; acks from drivers
            // and anything else are informational.
            request => {
                if let Some(answer) = self.core.answer(now, &request) {
                    // Replies to (untrusted) clients are non-blocking: a
                    // client that is not waiting simply loses its reply. A
                    // blocking send here would let a malicious client park
                    // the controller forever -- the "asymmetric trust" IPC
                    // threat the paper cites (Herder et al. [16]).
                    let (mtype, payload) = answer.to_minix();
                    self.outbox.push_back(Syscall::NbSend {
                        dest: msg.source,
                        mtype,
                        payload,
                    });
                }
            }
        }
    }
}

impl Process for MinixControl {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, mut reply: Option<Reply>) -> Action<Syscall> {
        loop {
            match self.state {
                CtrlSt::Connect(i) => {
                    self.peers[i] = if self.booted {
                        // Post-boot re-resolution tolerates a missing
                        // peer (a dead driver): record the gap and keep
                        // controlling; the resync tick retries.
                        match reply.take() {
                            Some(Reply::Resolved(ep)) => Some(ep),
                            _ => None,
                        }
                    } else {
                        // Boot-time: peers are still being forked; retry
                        // until the loader finishes.
                        match self.lookup.resume(CTRL_LOOKUPS[i], reply.take()) {
                            Ok(ep) => Some(ep),
                            Err(next) => return next,
                        }
                    };
                    if i + 1 < CTRL_LOOKUPS.len() {
                        self.state = CtrlSt::Connect(i + 1);
                        return self.lookup.ask(CTRL_LOOKUPS[i + 1]);
                    }
                    self.lookup = Lookup::default();
                    if !self.booted {
                        self.booted = true;
                        // First boot: allocate the environment-log buffer.
                        self.state = CtrlSt::AwaitLogBuf;
                        return Action::Syscall(Syscall::MemCreate {
                            size: CONTROL_LOG_SIZE,
                        });
                    }
                    self.state = CtrlSt::AwaitReceive;
                    return Action::Syscall(Syscall::Receive { from: None });
                }
                CtrlSt::AwaitLogBuf => {
                    if let Some(Reply::Buf(buf)) = reply.take() {
                        self.log_buf = Some(buf);
                    }
                    self.state = CtrlSt::AwaitReceive;
                    return Action::Syscall(Syscall::Receive { from: None });
                }
                CtrlSt::AwaitReceive => match reply.take() {
                    Some(Reply::Msg(m)) => {
                        self.pending = Some(m);
                        self.state = CtrlSt::AwaitTime;
                        return Action::Syscall(Syscall::GetUptime);
                    }
                    _ => {
                        return Action::Syscall(Syscall::Receive { from: None });
                    }
                },
                CtrlSt::AwaitTime => {
                    let now = match reply.take() {
                        Some(Reply::Uptime(t)) => t,
                        _ => SimTime::ZERO,
                    };
                    if let Some(msg) = self.pending.take() {
                        self.handle(msg, now);
                    }
                    self.state = CtrlSt::Drain;
                }
                CtrlSt::Drain => {
                    // Errors while draining (e.g. a killed driver) are
                    // tolerated: the controller keeps controlling. A dead
                    // destination additionally marks the peer table stale
                    // — a restarted driver lives at a new endpoint
                    // generation, so re-resolve before the next cycle.
                    if matches!(
                        reply.take(),
                        Some(Reply::Err(MinixError::DeadSourceOrDestination))
                    ) {
                        self.peers_stale = true;
                    }
                    match self.outbox.pop_front() {
                        Some(sys) => return Action::Syscall(sys),
                        None => {
                            if std::mem::take(&mut self.peers_stale) {
                                self.state = CtrlSt::Connect(0);
                                return self.lookup.ask(CTRL_LOOKUPS[0]);
                            }
                            self.state = CtrlSt::AwaitReceive;
                            return Action::Syscall(Syscall::Receive { from: None });
                        }
                    }
                }
            }
        }
    }

    fn name(&self) -> &str {
        names::CONTROL
    }
}

// ---------------------------------------------------------------------------
// Actuator driver processes
// ---------------------------------------------------------------------------

/// An actuator driver: "implemented to passively wait for commands from
/// temperature control process".
pub struct MinixActuator {
    dev: DeviceId,
    state: ActSt,
}

enum ActSt {
    AwaitReceive,
    AwaitWrite,
    Start,
}

impl MinixActuator {
    /// The heater/fan driver.
    pub fn heater() -> Self {
        MinixActuator {
            dev: DeviceId::FAN,
            state: ActSt::Start,
        }
    }

    /// The alarm driver.
    pub fn alarm() -> Self {
        MinixActuator {
            dev: DeviceId::ALARM,
            state: ActSt::Start,
        }
    }
}

impl Process for MinixActuator {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        match self.state {
            ActSt::Start => {
                self.state = ActSt::AwaitReceive;
                Action::Syscall(Syscall::Receive { from: None })
            }
            ActSt::AwaitReceive => {
                if let Some(Reply::Msg(m)) = reply {
                    let decoded = BasMsg::from_minix(m.mtype, &m.payload);
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
                Action::Syscall(Syscall::Receive { from: None })
            }
            ActSt::AwaitWrite => {
                self.state = ActSt::AwaitReceive;
                Action::Syscall(Syscall::Receive { from: None })
            }
        }
    }

    fn name(&self) -> &str {
        if self.dev == DeviceId::FAN {
            names::HEATER
        } else {
            names::ALARM
        }
    }
}

// ---------------------------------------------------------------------------
// Web interface process (benign)
// ---------------------------------------------------------------------------

/// The benign web interface: the [`WebClient`] role core bound to MINIX
/// IPC. It resolves the controller through the name service, then issues
/// the client's RPCs as `sendrec` and reads the clock with `GetUptime`.
pub struct MinixWeb {
    control: Option<Endpoint>,
    lookup: Lookup,
    client: WebClient,
    state: WebSt,
}

/// The syscall the web process last issued.
enum WebSt {
    Connect,
    Clock,
    Sleep,
    Rpc,
}

impl MinixWeb {
    /// Creates the benign web interface over the instance's I/O.
    pub fn new(io: &AppIo) -> Self {
        MinixWeb {
            control: None,
            lookup: Lookup::default(),
            client: WebClient::new(io),
            state: WebSt::Connect,
        }
    }

    fn read_clock(&mut self) -> Action<Syscall> {
        self.state = WebSt::Clock;
        Action::Syscall(Syscall::GetUptime)
    }

    fn rpc(&mut self, action: WebAction) -> Action<Syscall> {
        let (mtype, payload) = action.request().to_minix();
        self.state = WebSt::Rpc;
        Action::Syscall(Syscall::SendRec {
            dest: self.control.expect("looked up"),
            mtype,
            payload,
        })
    }
}

impl Process for MinixWeb {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        match self.state {
            WebSt::Connect => match self.lookup.resume(names::CONTROL, reply) {
                Ok(ep) => {
                    self.control = Some(ep);
                    self.read_clock()
                }
                Err(next) => next,
            },
            WebSt::Clock => {
                let now = match reply {
                    Some(Reply::Uptime(t)) => t,
                    _ => SimTime::ZERO,
                };
                match self.client.on_clock(now) {
                    WebStep::Rpc(action) => self.rpc(action),
                    WebStep::Sleep(duration) => {
                        self.state = WebSt::Sleep;
                        Action::Syscall(Syscall::Sleep { duration })
                    }
                }
            }
            WebSt::Sleep => self.read_clock(),
            WebSt::Rpc => {
                let decoded = match reply {
                    Some(Reply::Msg(m)) => BasMsg::from_minix(m.mtype, &m.payload).ok(),
                    _ => None,
                };
                match self.client.on_reply(decoded) {
                    Some(action) => self.rpc(action),
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
// Scenario loader process
// ---------------------------------------------------------------------------

/// The scenario loader: "a process loader that forks the other five
/// processes, tells kernel each process's ac_id, and loads the correct
/// binaries for each of them."
pub struct MinixLoader {
    plan: Vec<(u32, bas_acm::AcId, u32)>, // (program id, ac_id, uid)
    idx: usize,
}

impl MinixLoader {
    /// Creates a loader that forks the given `(program, ac_id, uid)`
    /// plan in order.
    pub fn new(plan: Vec<(u32, bas_acm::AcId, u32)>) -> Self {
        MinixLoader { plan, idx: 0 }
    }
}

impl Process for MinixLoader {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
        match self.plan.get(self.idx) {
            Some(&(program, ac_id, uid)) => {
                self.idx += 1;
                Action::Syscall(Syscall::SendRec {
                    dest: pm::PM_ENDPOINT,
                    mtype: pm::PM_FORK2,
                    payload: pm::encode_fork2(program, ac_id, uid),
                })
            }
            None => Action::Exit(0),
        }
    }

    fn name(&self) -> &str {
        names::SCENARIO
    }
}

// ---------------------------------------------------------------------------
// Supervisor process (reincarnation-server analog)
// ---------------------------------------------------------------------------

/// A user-space supervisor in the spirit of MINIX 3's reincarnation
/// server — the "self-repairing" design of the paper's reference \[7\]:
/// it periodically checks that every watched process is alive (via the
/// name service) and re-forks any that died through PM `fork2`.
///
/// The supervisor is itself just a process under the ACM: its authority
/// to restart components is exactly its `PM_FORK2` row, nothing ambient.
pub struct MinixSupervisor {
    watch: Vec<(&'static str, u32, bas_acm::AcId, u32)>, // (name, program, ac, uid)
    period: SimDuration,
    idx: usize,
    state: SupSt,
}

enum SupSt {
    Start,
    AwaitLookup,
    AwaitFork,
    AwaitSleep,
}

impl MinixSupervisor {
    /// Creates a supervisor checking each `(name, program, ac_id, uid)`
    /// entry every `period`.
    pub fn new(watch: Vec<(&'static str, u32, bas_acm::AcId, u32)>, period: SimDuration) -> Self {
        MinixSupervisor {
            watch,
            period,
            idx: 0,
            state: SupSt::Start,
        }
    }

    fn check_current(&mut self) -> Action<Syscall> {
        if self.watch.is_empty() {
            self.state = SupSt::AwaitSleep;
            return Action::Syscall(Syscall::Sleep {
                duration: self.period,
            });
        }
        self.state = SupSt::AwaitLookup;
        Action::Syscall(Syscall::Lookup {
            name: self.watch[self.idx].0.to_string(),
        })
    }

    fn advance(&mut self) -> Action<Syscall> {
        self.idx += 1;
        if self.idx >= self.watch.len() {
            self.idx = 0;
            self.state = SupSt::AwaitSleep;
            return Action::Syscall(Syscall::Sleep {
                duration: self.period,
            });
        }
        self.check_current()
    }
}

impl Process for MinixSupervisor {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        match self.state {
            SupSt::Start => self.check_current(),
            SupSt::AwaitLookup => match reply {
                Some(Reply::Resolved(_)) => self.advance(),
                _ => {
                    // Watched process is gone: reincarnate it.
                    let (_, program, ac_id, uid) = self.watch[self.idx];
                    self.state = SupSt::AwaitFork;
                    Action::Syscall(Syscall::SendRec {
                        dest: pm::PM_ENDPOINT,
                        mtype: pm::PM_FORK2,
                        payload: pm::encode_fork2(program, ac_id, uid),
                    })
                }
            },
            SupSt::AwaitFork => self.advance(),
            SupSt::AwaitSleep => self.check_current(),
        }
    }

    fn name(&self) -> &str {
        "supervisor"
    }
}

// ---------------------------------------------------------------------------
// Builder + runner
// ---------------------------------------------------------------------------

/// Build-time knobs used by the attack harness and the recovery
/// experiments.
pub struct MinixOverrides {
    /// Replaces the web interface program (the compromise model: same
    /// position in the architecture, attacker-chosen code).
    pub web_factory: Option<Box<dyn Fn() -> MinixProcess>>,
    /// The web interface's uid (0 simulates the root-escalation variant).
    pub web_uid: u32,
    /// Replaces the compiled-in ACM (ablation experiments; `Arc` so the
    /// snapshot-fork boot path can share one matrix across a fleet).
    pub acm: Option<Arc<AccessControlMatrix>>,
    /// Runs a [`MinixSupervisor`] watching the four critical processes
    /// (MINIX's self-repair behavior). Crash *injection* is no longer an
    /// override: `bas-faults` kills processes through the
    /// [`PlatformKernel::inject_crash`] hook at scheduled times instead.
    pub supervise: bool,
}

impl Default for MinixOverrides {
    fn default() -> Self {
        MinixOverrides {
            web_factory: None,
            web_uid: 1000,
            acm: None,
            supervise: false,
        }
    }
}

/// The booted MINIX 3 + ACM stack: the kernel and its boot plan.
pub struct MinixStack {
    /// The simulated kernel (public for experiment introspection).
    pub kernel: MinixKernel,
    /// The boot fork plan, kept so [`PlatformKernel::reset_to_boot`] can
    /// re-run exactly the boot-time spawns (program ids, identities and
    /// uids — including overridden web factories, which live on in the
    /// kernel's program registry).
    boot_plan: Vec<(u32, bas_acm::AcId, u32)>,
    /// Whether boot spawned the reincarnation-server supervisor.
    supervise: bool,
}

/// A running MINIX scenario: the generic engine over [`MinixStack`].
pub type MinixScenario = ScenarioEngine<MinixStack>;

/// Builds and boots the scenario on security-enhanced MINIX 3.
pub fn build_minix(config: &ScenarioConfig, overrides: MinixOverrides) -> MinixScenario {
    ScenarioEngine::boot(config, overrides)
}

fn boot_minix(config: &ScenarioConfig, overrides: MinixOverrides, io: &AppIo) -> MinixStack {
    let acm = overrides
        .acm
        .unwrap_or_else(|| Arc::new(policy::scenario_acm()));
    let mut kernel = MinixKernel::with_shared_acm(
        MinixConfig {
            max_procs: config.max_procs,
            cost_model: config.cost_model,
            quotas: policy::scenario_quotas(config.web_fork_limit),
            device_owners: policy::scenario_device_owners(),
            ..MinixConfig::default()
        },
        acm,
    );
    install_devices(&io.plant, kernel.devices_mut());

    let period = config.sensor_period;
    let sensor_prog = kernel.register_program(
        names::SENSOR,
        Box::new(move || Box::new(MinixSensor::new(period))),
    );
    let control_config = config.control;
    let control_prog = kernel.register_program(
        names::CONTROL,
        Box::new(move || Box::new(MinixControl::new(ControlCore::new(control_config)))),
    );
    let heater_prog = kernel.register_program(
        names::HEATER,
        Box::new(|| Box::new(MinixActuator::heater())),
    );
    let alarm_prog =
        kernel.register_program(names::ALARM, Box::new(|| Box::new(MinixActuator::alarm())));

    let web_prog = match overrides.web_factory {
        Some(factory) => kernel.register_program(names::WEB, factory),
        None => {
            // The factory holds the instance's I/O handles: the loader
            // forks the web process lazily during stepping, so a recycled
            // instance's re-imaged schedule is picked up at fork time.
            let io = io.clone();
            kernel.register_program(names::WEB, Box::new(move || Box::new(MinixWeb::new(&io))))
        }
    };

    // Fork order: controller first so lookups converge quickly, then
    // drivers, sensor, and finally the untrusted web interface.
    let boot_plan = vec![
        (control_prog, AC_CONTROL, 1000),
        (heater_prog, AC_HEATER, 1000),
        (alarm_prog, AC_ALARM, 1000),
        (sensor_prog, AC_SENSOR, 1000),
        (web_prog, AC_WEB, overrides.web_uid),
    ];
    spawn_boot_processes(&mut kernel, &boot_plan, overrides.supervise);

    MinixStack {
        kernel,
        boot_plan,
        supervise: overrides.supervise,
    }
}

/// The boot-time spawns, shared verbatim between cold boot and
/// [`PlatformKernel::reset_to_boot`]: the loader (who forks the plan
/// through PM) and optionally the supervisor watching the four critical
/// entries (the plan's head, in registration order).
fn spawn_boot_processes(
    kernel: &mut MinixKernel,
    boot_plan: &[(u32, bas_acm::AcId, u32)],
    supervise: bool,
) {
    kernel
        .spawn(
            names::SCENARIO,
            AC_SCENARIO,
            0,
            Box::new(MinixLoader::new(boot_plan.to_vec())),
        )
        .expect("fresh kernel has room for the loader");

    if supervise {
        let watch = [names::CONTROL, names::HEATER, names::ALARM, names::SENSOR]
            .iter()
            .zip(boot_plan)
            .map(|(&name, &(prog, ac, uid))| (name, prog, ac, uid))
            .collect();
        kernel
            .spawn(
                "supervisor",
                AC_SCENARIO,
                0,
                Box::new(MinixSupervisor::new(watch, SimDuration::from_secs(2))),
            )
            .expect("fresh kernel has room for the supervisor");
    }
}

impl PlatformKernel for MinixStack {
    const PLATFORM: Platform = Platform::Minix;
    type Overrides = MinixOverrides;
    type Kernel = MinixKernel;

    fn boot(config: &ScenarioConfig, overrides: MinixOverrides, io: &AppIo) -> Self {
        boot_minix(config, overrides, io)
    }

    fn recyclable(overrides: &MinixOverrides) -> bool {
        overrides.web_factory.is_none()
    }

    fn kernel(&self) -> &MinixKernel {
        &self.kernel
    }

    fn kernel_mut(&mut self) -> &mut MinixKernel {
        &mut self.kernel
    }

    fn reset_to_boot(&mut self, _config: &ScenarioConfig, _io: &AppIo) {
        // The registered web factory survives the reset and still holds
        // the instance's I/O.
        self.kernel.reset_to_boot();
        spawn_boot_processes(&mut self.kernel, &self.boot_plan, self.supervise);
    }

    fn resolve_churn(&self, op: &CapChurnOp) -> Vec<CapChurnOp> {
        // Instance names are MINIX process names verbatim; the kernel
        // resolves them to ACM principals itself.
        vec![op.clone()]
    }
}
