//! The scenario on seL4/CAmkES (§IV-B).
//!
//! The assembly from [`crate::policy::scenario_assembly`] is compiled to a
//! CapDL spec, realized as the bootstrap process would, and *verified*
//! against the spec before any thread runs ("for high-assurance systems
//! this file can also be machine verified"). All IPC is `seL4RPCCall`
//! RPC — chosen by the paper "to avoid a scenario where the malicious web
//! interface could indefinitely block one of the temperature controller's
//! threads". The controller authenticates callers by endpoint badge, the
//! kernel-enforced identity of the capability system.

use std::collections::VecDeque;
use std::sync::Arc;

use bas_camkes::codegen::{compile, GlueMap};
use bas_camkes::glue::{RpcClient, RpcRequest, RpcServer};
use bas_capdl::realize::{realize, RealizedSystem};
use bas_capdl::spec::CapDlSpec;
use bas_capdl::verify::verify;
use bas_plant::devices::install_devices;
use bas_sel4::cap::CPtr;
use bas_sel4::kernel::{ChurnSweep, Sel4Config, Sel4Kernel, Sel4Thread};
use bas_sel4::syscall::{Reply, Syscall};
use bas_sim::caps::CapChurnOp;
use bas_sim::inline::MsgWords;
use bas_sim::kernel::Kernel;
use bas_sim::process::{Action, Process};
use bas_sim::time::{SimDuration, SimTime};

use crate::engine::{PlatformKernel, ScenarioEngine};
use crate::logic::control::{ControlCore, Directive};
use crate::logic::web::{WebAction, WebClient, WebStep};
use crate::policy::{self, actuator_rpc, ctrl_rpc, PROCESSES};
use crate::proto::{decode_i32, encode_i32, names, BasMsg};
use crate::scenario::{AppIo, Platform, ScenarioConfig};

// ---------------------------------------------------------------------------
// Controller thread
// ---------------------------------------------------------------------------

/// The temperature controller as an RPC server plus actuator RPC client.
pub struct Sel4Control {
    core: ControlCore,
    server: RpcServer,
    fan: RpcClient,
    alarm: RpcClient,
    sensor_badge: u64,
    web_badge: u64,
    pending: Option<RpcRequest>,
    outbox: VecDeque<Syscall>,
    state: CtrlSt,
}

enum CtrlSt {
    Start,
    AwaitRecv,
    AwaitTime,
    Drain,
}

impl Sel4Control {
    /// Creates the controller thread from its glue slots and badges.
    pub fn new(
        core: ControlCore,
        server: RpcServer,
        fan: RpcClient,
        alarm: RpcClient,
        sensor_badge: u64,
        web_badge: u64,
    ) -> Self {
        Sel4Control {
            core,
            server,
            fan,
            alarm,
            sensor_badge,
            web_badge,
            pending: None,
            outbox: VecDeque::new(),
            state: CtrlSt::Start,
        }
    }

    fn handle(&mut self, req: RpcRequest, now: SimTime) {
        match req.label {
            ctrl_rpc::REPORT_READING => {
                // Badge authentication: only the sensor's connection may
                // report readings. A compromised web interface calling
                // with a forged label still carries *its own* badge.
                if req.badge != self.sensor_badge || req.args.is_empty() {
                    self.outbox.push_back(self.server.reply(1, []));
                    return;
                }
                let milli_c = decode_i32(req.args[0]);
                for d in self.core.on_sensor_reading(now, milli_c) {
                    match d {
                        Directive::SetFan(on) => self
                            .outbox
                            .push_back(self.fan.call(actuator_rpc::SET, [u64::from(on)])),
                        Directive::SetAlarm(on) => self
                            .outbox
                            .push_back(self.alarm.call(actuator_rpc::SET, [u64::from(on)])),
                    }
                }
                self.outbox.push_back(self.server.reply(0, []));
            }
            label => {
                // Web requests: only the web interface's badge may call
                // them; anything else gets the bare refusal.
                let request = match (label, req.args.first()) {
                    (ctrl_rpc::SET_SETPOINT, Some(&w)) => Some(BasMsg::SetpointUpdate {
                        milli_c: decode_i32(w),
                    }),
                    (ctrl_rpc::GET_STATUS, _) => Some(BasMsg::StatusQuery),
                    _ => None,
                };
                let (label, words) = request
                    .filter(|_| req.badge == self.web_badge)
                    .and_then(|r| self.core.answer(now, &r))
                    .and_then(|a| a.to_sel4_reply(self.core.status().setpoint_milli_c))
                    .unwrap_or((1, MsgWords::new()));
                self.outbox.push_back(self.server.reply(label, words));
            }
        }
    }
}

impl Process for Sel4Control {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, mut reply: Option<Reply>) -> Action<Syscall> {
        loop {
            match self.state {
                CtrlSt::Start => {
                    self.state = CtrlSt::AwaitRecv;
                    return Action::Syscall(self.server.next_request());
                }
                CtrlSt::AwaitRecv => match reply.take() {
                    Some(Reply::Msg(m)) => {
                        self.pending = Some(self.server.decode(m));
                        self.state = CtrlSt::AwaitTime;
                        return Action::Syscall(Syscall::GetTime);
                    }
                    _ => return Action::Syscall(self.server.next_request()),
                },
                CtrlSt::AwaitTime => {
                    let now = match reply.take() {
                        Some(Reply::Time(t)) => t,
                        _ => SimTime::ZERO,
                    };
                    if let Some(req) = self.pending.take() {
                        self.handle(req, now);
                    }
                    self.state = CtrlSt::Drain;
                }
                CtrlSt::Drain => match self.outbox.pop_front() {
                    // Actuator-call errors (e.g. suspended driver) are
                    // tolerated; the controller keeps serving.
                    Some(sys) => return Action::Syscall(sys),
                    None => {
                        self.state = CtrlSt::AwaitRecv;
                        return Action::Syscall(self.server.next_request());
                    }
                },
            }
        }
    }

    fn name(&self) -> &str {
        names::CONTROL
    }
}

// ---------------------------------------------------------------------------
// Sensor thread
// ---------------------------------------------------------------------------

/// The sensor driver thread: read the device frame, `seL4_Call` the
/// controller, sleep, repeat.
pub struct Sel4Sensor {
    dev: CPtr,
    ctrl: RpcClient,
    period: SimDuration,
    seq: u32,
    state: SensorSt,
}

enum SensorSt {
    Start,
    AwaitDevRead,
    AwaitCall,
    AwaitSleep,
}

impl Sel4Sensor {
    /// Creates the sensor thread.
    pub fn new(dev: CPtr, ctrl: RpcClient, period: SimDuration) -> Self {
        Sel4Sensor {
            dev,
            ctrl,
            period,
            seq: 0,
            state: SensorSt::Start,
        }
    }
}

impl Process for Sel4Sensor {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        match self.state {
            SensorSt::Start => {
                self.state = SensorSt::AwaitDevRead;
                Action::Syscall(Syscall::DevRead { dev: self.dev })
            }
            SensorSt::AwaitDevRead => match reply {
                Some(Reply::DevValue(v)) => {
                    self.seq += 1;
                    self.state = SensorSt::AwaitCall;
                    Action::Syscall(self.ctrl.call(
                        ctrl_rpc::REPORT_READING,
                        [encode_i32(v as i32), u64::from(self.seq)],
                    ))
                }
                _ => Action::Exit(1),
            },
            SensorSt::AwaitCall => {
                // The RPC reply content is an ack; errors (controller
                // restart) just mean a dropped sample.
                self.state = SensorSt::AwaitSleep;
                Action::Syscall(Syscall::Sleep {
                    duration: self.period,
                })
            }
            SensorSt::AwaitSleep => {
                self.state = SensorSt::AwaitDevRead;
                Action::Syscall(Syscall::DevRead { dev: self.dev })
            }
        }
    }

    fn name(&self) -> &str {
        names::SENSOR
    }
}

// ---------------------------------------------------------------------------
// Actuator threads
// ---------------------------------------------------------------------------

/// An actuator driver thread: serve `set(on)` RPCs, drive the device
/// frame, reply.
pub struct Sel4Actuator {
    server: RpcServer,
    dev: CPtr,
    which: &'static str,
    state: ActSt,
}

enum ActSt {
    Start,
    AwaitRecv,
    AwaitWrite,
    AwaitReply,
}

impl Sel4Actuator {
    /// Creates an actuator thread (`which` is its instance name).
    pub fn new(server: RpcServer, dev: CPtr, which: &'static str) -> Self {
        Sel4Actuator {
            server,
            dev,
            which,
            state: ActSt::Start,
        }
    }
}

impl Process for Sel4Actuator {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        match self.state {
            ActSt::Start => {
                self.state = ActSt::AwaitRecv;
                Action::Syscall(self.server.next_request())
            }
            ActSt::AwaitRecv => match reply {
                Some(Reply::Msg(m)) => {
                    let req = self.server.decode(m);
                    if req.label == actuator_rpc::SET && !req.args.is_empty() {
                        self.state = ActSt::AwaitWrite;
                        Action::Syscall(Syscall::DevWrite {
                            dev: self.dev,
                            value: i64::from(req.args[0] != 0),
                        })
                    } else {
                        self.state = ActSt::AwaitReply;
                        Action::Syscall(self.server.reply(1, []))
                    }
                }
                _ => Action::Syscall(self.server.next_request()),
            },
            ActSt::AwaitWrite => {
                self.state = ActSt::AwaitReply;
                Action::Syscall(self.server.reply(0, []))
            }
            ActSt::AwaitReply => {
                self.state = ActSt::AwaitRecv;
                Action::Syscall(self.server.next_request())
            }
        }
    }

    fn name(&self) -> &str {
        self.which
    }
}

// ---------------------------------------------------------------------------
// Web interface thread (benign)
// ---------------------------------------------------------------------------

/// The benign web interface thread: the [`WebClient`] role core bound to
/// `seL4_Call` RPC on its CapDL-granted controller endpoint. There is no
/// connect phase: the capability is in its CSpace from boot.
pub struct Sel4Web {
    ctrl: RpcClient,
    client: WebClient,
    state: WebSt,
}

/// The syscall the web process last issued.
enum WebSt {
    Clock,
    Sleep,
    Rpc,
}

impl Sel4Web {
    /// Creates the benign web thread over the instance's I/O.
    pub fn new(ctrl: RpcClient, io: &AppIo) -> Self {
        Sel4Web {
            ctrl,
            client: WebClient::new(io),
            // The first wake reads the clock, like every wake from sleep.
            state: WebSt::Sleep,
        }
    }

    fn read_clock(&mut self) -> Action<Syscall> {
        self.state = WebSt::Clock;
        Action::Syscall(Syscall::GetTime)
    }

    fn rpc(&mut self, action: WebAction) -> Action<Syscall> {
        self.state = WebSt::Rpc;
        Action::Syscall(match action {
            WebAction::SetSetpoint(mc) => self.ctrl.call(ctrl_rpc::SET_SETPOINT, [encode_i32(mc)]),
            WebAction::QueryStatus => self.ctrl.call(ctrl_rpc::GET_STATUS, []),
        })
    }
}

impl Process for Sel4Web {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        match self.state {
            WebSt::Clock => {
                let now = match reply {
                    Some(Reply::Time(t)) => t,
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
                let decoded = match (reply, self.client.inflight()) {
                    (Some(Reply::Msg(m)), Some(action)) => {
                        BasMsg::from_sel4_reply(action.request(), &m.words)
                    }
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
// Builder + runner
// ---------------------------------------------------------------------------

/// An extra capability deliberately granted after bootstrap — the
/// capability-misconfiguration ablation (the paper's security argument is
/// exactly that policy, not the kernel alone, provides the protection).
pub struct ExtraCap {
    /// The thread (instance name) receiving the capability.
    pub holder: &'static str,
    /// The endpoint to grant, named as `(server instance, interface)`.
    pub endpoint_of: (&'static str, &'static str),
    /// Rights on the granted capability.
    pub rights: bas_sel4::rights::CapRights,
    /// Badge on the granted capability.
    pub badge: u64,
}

/// Factory producing the web-interface thread from the glue map.
pub type WebThreadFactory = Box<dyn FnOnce(&GlueMap) -> Sel4Thread>;

/// Build-time knobs used by the attack harness.
#[derive(Default)]
pub struct Sel4Overrides {
    /// Replaces the web interface thread. The factory receives the glue
    /// map — the paper grants the attacker "access to the capability
    /// distribution information" (the CapDL file).
    pub web_factory: Option<WebThreadFactory>,
    /// Extra capability grants applied after boot-time verification.
    pub extra_caps: Vec<ExtraCap>,
    /// Pre-compiled CapDL artifacts shared behind `Arc` — the
    /// snapshot-fork boot path, where a fleet of instances realizes one
    /// compiled spec instead of re-running the CAmkES compiler per boot.
    pub compiled: Option<(Arc<CapDlSpec>, Arc<GlueMap>)>,
}

/// The booted seL4/CAmkES stack: kernel and compiled CapDL artifacts.
pub struct Sel4Stack {
    /// The simulated kernel (public for experiment introspection).
    pub kernel: Sel4Kernel,
    /// The compiled CapDL spec (for live verification experiments).
    /// `Arc`: boot-time state, shareable across forked instances.
    pub spec: Arc<CapDlSpec>,
    /// Bootstrap name maps.
    pub sys: RealizedSystem,
    /// Slot/badge layout. `Arc`: boot-time state, shareable across forks.
    pub glue: Arc<GlueMap>,
}

impl Sel4Stack {
    /// Resolves an instance-level churn op into a kernel-level CDT sweep:
    /// the subject thread's capabilities to every endpoint the
    /// destination instance serves (`ep_<dest>_<iface>` in the realized
    /// CapDL spec). Returns `None` when either side doesn't resolve.
    fn churn_sweep(&self, op: &CapChurnOp) -> Option<ChurnSweep> {
        use bas_sel4::rights::CapRights;
        use bas_sim::caps::ChurnKind;

        let holder = *self.sys.threads.get(&op.subject)?;
        let prefix = format!("ep_{}_", op.object);
        let objs: Vec<_> = self
            .sys
            .objects
            .iter()
            .filter(|(name, _)| name.starts_with(&prefix))
            .map(|(_, &id)| id)
            .collect();
        if objs.is_empty() {
            return None;
        }
        let (rights, badge) = match op.kind {
            // A re-grant restores the client's RPC rights under its
            // original badge, so the server's caller authentication
            // still recognizes it.
            ChurnKind::Grant => {
                let badge = self.glue.badge_of(&op.subject, "ctrl").unwrap_or(0);
                (CapRights::WRITE_GRANT, badge)
            }
            ChurnKind::Attenuate => (CapRights::READ, 0),
            ChurnKind::Revoke => (CapRights::NONE, 0),
        };
        Some(ChurnSweep {
            kind: op.kind,
            actor: op.actor.clone(),
            holder,
            objs,
            rights,
            badge,
        })
    }
}

/// A running seL4 scenario: the generic engine over [`Sel4Stack`].
pub type Sel4Scenario = ScenarioEngine<Sel4Stack>;

/// Builds and boots the scenario on seL4/CAmkES.
///
/// # Panics
///
/// Panics if the compiled system fails its boot-time CapDL verification —
/// that would mean the toolchain itself is broken.
pub fn build_sel4(config: &ScenarioConfig, overrides: Sel4Overrides) -> Sel4Scenario {
    ScenarioEngine::boot(config, overrides)
}

fn boot_sel4(config: &ScenarioConfig, overrides: Sel4Overrides, io: &AppIo) -> Sel4Stack {
    let (spec, glue) = match overrides.compiled {
        Some((spec, glue)) => (spec, glue),
        None => {
            let assembly = policy::scenario_assembly();
            let (spec, glue) = compile(&assembly).expect("scenario assembly is valid");
            (Arc::new(spec), Arc::new(glue))
        }
    };

    let mut kernel = Sel4Kernel::new(Sel4Config {
        max_threads: config.max_procs,
        cost_model: config.cost_model,
        ..Sel4Config::default()
    });
    install_devices(&io.plant, kernel.devices_mut());

    let mut loader = scenario_loader(config, glue.clone(), io, overrides.web_factory);

    let sys = realize(&spec, &mut kernel, &mut loader).expect("scenario realizes");

    // Boot-time machine verification of the capability distribution.
    let issues = verify(&spec, &kernel, &sys);
    assert!(
        issues.is_empty(),
        "boot-time capdl verification failed: {issues:?}"
    );

    // Deliberate misconfigurations for ablation experiments.
    for extra in overrides.extra_caps {
        let pid = sys.threads[extra.holder];
        let obj_name = format!("ep_{}_{}", extra.endpoint_of.0, extra.endpoint_of.1);
        let obj = sys.objects[obj_name.as_str()];
        kernel
            .grant_cap(
                pid,
                bas_sel4::cap::Capability::to_object(obj, extra.rights, extra.badge),
            )
            .expect("ablation cap fits");
    }

    for p in &PROCESSES {
        kernel.start_thread(sys.threads[p.name]);
    }

    Sel4Stack {
        kernel,
        spec,
        sys,
        glue,
    }
}

/// The boot-time thread loader over a compiled glue map, shared verbatim
/// between cold boot and [`PlatformKernel::reset_to_boot`]: the realizer
/// calls it once per CapDL instance, in spec order.
fn scenario_loader(
    config: &ScenarioConfig,
    glue: Arc<GlueMap>,
    io: &AppIo,
    mut web_factory: Option<WebThreadFactory>,
) -> impl FnMut(&str) -> Option<Sel4Thread> {
    let io = io.clone();
    let control_config = config.control;
    let period = config.sensor_period;
    move |name: &str| -> Option<Sel4Thread> {
        let g = &*glue;
        match name {
            x if x == names::CONTROL => Some(Box::new(Sel4Control::new(
                ControlCore::new(control_config),
                RpcServer::new(g.server_slot(names::CONTROL, "ctrl")?),
                RpcClient::new(g.client_slot(names::CONTROL, "fan")?),
                RpcClient::new(g.client_slot(names::CONTROL, "alarm")?),
                g.badge_of(names::SENSOR, "ctrl")?,
                g.badge_of(names::WEB, "ctrl")?,
            ))),
            x if x == names::SENSOR => Some(Box::new(Sel4Sensor::new(
                g.device_slot(names::SENSOR, "temp")?,
                RpcClient::new(g.client_slot(names::SENSOR, "ctrl")?),
                period,
            ))),
            x if x == names::HEATER => Some(Box::new(Sel4Actuator::new(
                RpcServer::new(g.server_slot(names::HEATER, "cmd")?),
                g.device_slot(names::HEATER, "fan")?,
                names::HEATER,
            ))),
            x if x == names::ALARM => Some(Box::new(Sel4Actuator::new(
                RpcServer::new(g.server_slot(names::ALARM, "cmd")?),
                g.device_slot(names::ALARM, "alarm")?,
                names::ALARM,
            ))),
            x if x == names::WEB => match web_factory.take() {
                Some(factory) => Some(factory(g)),
                None => Some(Box::new(Sel4Web::new(
                    RpcClient::new(g.client_slot(names::WEB, "ctrl")?),
                    &io,
                ))),
            },
            _ => None,
        }
    }
}

impl PlatformKernel for Sel4Stack {
    const PLATFORM: Platform = Platform::Sel4;
    type Overrides = Sel4Overrides;
    type Kernel = Sel4Kernel;

    fn boot(config: &ScenarioConfig, overrides: Sel4Overrides, io: &AppIo) -> Self {
        boot_sel4(config, overrides, io)
    }

    fn recyclable(overrides: &Sel4Overrides) -> bool {
        overrides.web_factory.is_none() && overrides.extra_caps.is_empty()
    }

    fn kernel(&self) -> &Sel4Kernel {
        &self.kernel
    }

    fn kernel_mut(&mut self) -> &mut Sel4Kernel {
        &mut self.kernel
    }

    fn reset_to_boot(&mut self, config: &ScenarioConfig, io: &AppIo) {
        self.kernel.reset_to_boot();
        // Re-realize the shared spec: objects and threads come back in
        // spec order, so ids and CSpace layouts match a cold boot. The
        // boot-time CapDL verification is skipped — `verify` is a pure
        // function of (spec, kernel, sys), all reconstructed identically
        // to the template boot that already passed it.
        let mut loader = scenario_loader(config, self.glue.clone(), io, None);
        self.sys = realize(&self.spec, &mut self.kernel, &mut loader).expect("scenario realizes");
        for p in &PROCESSES {
            self.kernel.start_thread(self.sys.threads[p.name]);
        }
    }

    fn resolve_churn(&self, op: &CapChurnOp) -> Vec<ChurnSweep> {
        self.churn_sweep(op).into_iter().collect()
    }
}
