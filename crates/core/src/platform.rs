//! One process per benign role, bound once per platform, and the
//! bootable kernel stacks.
//!
//! The sensor, the actuators and the web interface run the same loop on
//! every platform: read the device, report, sleep; receive a command,
//! drive the device, receive again; read the clock, call the controller,
//! decode its answer. `Sensor`, `Actuator` and `Web` are those loops,
//! written once over a `Binding` that says how a platform connects, what
//! its syscalls look like and how it decodes the replies. Each platform
//! module implements the binding once and keeps what differs by design:
//! its controller (a receive loop with resync and log on MINIX, a polled
//! queue loop on Linux, a badge-checking RPC server on seL4), the MINIX
//! loader and supervisor, and the stack that boots them.

use bas_sim::process::{Action, Process};
use bas_sim::time::{SimDuration, SimTime};

use crate::logic::web::{WebAction, WebClient, WebStep};
use crate::proto::{names, BasMsg};
use crate::scenario::AppIo;

/// Implements the `Binding` items that every kernel spells the same
/// way: device access, sleep, and the clock read, which is the `$clock`
/// syscall answered by the `$time` reply. It expands inside a binding's
/// impl, where the platform's `Syscall` and `Reply` are in scope.
macro_rules! plain_syscalls {
    ($clock:ident, $time:ident) => {
        fn dev_read(dev: Self::Device) -> Syscall {
            Syscall::DevRead { dev }
        }

        fn dev_value(reply: Option<Reply>) -> Option<i64> {
            match reply {
                Some(Reply::DevValue(v)) => Some(v),
                _ => None,
            }
        }

        fn dev_write(dev: Self::Device, value: i64) -> Syscall {
            Syscall::DevWrite { dev, value }
        }

        fn sleep(duration: SimDuration) -> Syscall {
            Syscall::Sleep { duration }
        }

        fn clock() -> Syscall {
            Syscall::$clock
        }

        fn now(reply: Option<Reply>) -> Option<SimTime> {
            match reply {
                Some(Reply::$time(t)) => Some(t),
                _ => None,
            }
        }
    };
}

pub mod linux;
pub mod minix;
pub mod sel4;

/// One platform's IPC binding of the benign roles.
///
/// A client role (the sensor, the web interface) holds a
/// [`Binding::Link`] to the controller; an actuator holds the
/// [`Binding::Port`] it is commanded through. Either may have a connect
/// phase that issues syscalls of its own.
pub(crate) trait Binding {
    /// The platform's syscall.
    type Syscall;
    /// The platform's syscall reply.
    type Reply;
    /// How a process names a device (a bus id, a capability slot).
    type Device: Copy;
    /// A client role's channel to the controller.
    type Link;
    /// An actuator's channel from the controller.
    type Port;

    /// Advances the link's connect phase with the reply to its last
    /// syscall: `Ok` once connected, else the next action.
    fn connect(
        _link: &mut Self::Link,
        _reply: Option<Self::Reply>,
    ) -> Result<(), Action<Self::Syscall>> {
        Ok(())
    }

    /// Advances the port's connect phase, as [`Binding::connect`] does.
    fn listen(
        _port: &mut Self::Port,
        _reply: Option<Self::Reply>,
    ) -> Result<(), Action<Self::Syscall>> {
        Ok(())
    }

    /// When `reply` says the controller is gone (restarted under a new
    /// identity), restarts the link's connect phase and returns its
    /// first action.
    fn lost(_link: &mut Self::Link, _reply: &Option<Self::Reply>) -> Option<Action<Self::Syscall>> {
        None
    }

    /// A device read.
    fn dev_read(dev: Self::Device) -> Self::Syscall;

    /// The value a device read returned.
    fn dev_value(reply: Option<Self::Reply>) -> Option<i64>;

    /// A device write.
    fn dev_write(dev: Self::Device, value: i64) -> Self::Syscall;

    /// A sleep for `duration`.
    fn sleep(duration: SimDuration) -> Self::Syscall;

    /// A clock read.
    fn clock() -> Self::Syscall;

    /// The time a clock read returned.
    fn now(reply: Option<Self::Reply>) -> Option<SimTime>;

    /// Sends `msg` to the controller: a sensor reading, or a request the
    /// controller answers.
    fn send(link: &Self::Link, msg: BasMsg) -> Self::Syscall;

    /// The receive that collects a request's answer, on platforms where
    /// the request went out as a plain send.
    fn collect(_link: &Self::Link) -> Option<Self::Syscall> {
        None
    }

    /// Decodes the answer to `request` (`None` when the request failed
    /// or the answer does not decode).
    fn decode(reply: Option<Self::Reply>, request: BasMsg) -> Option<BasMsg>;

    /// An actuator's receive of its next command.
    fn receive(port: &Self::Port) -> Self::Syscall;

    /// What a receive delivered: `None` when no request, `Some(None)`
    /// for a request `driver` refuses, else the level to set its device
    /// to.
    fn command(
        port: &Self::Port,
        reply: Option<Self::Reply>,
        driver: Driver,
    ) -> Option<Option<bool>>;

    /// The reply answering the command just handled (`code` 0 = done),
    /// on platforms whose commands are calls.
    fn answer(_port: &Self::Port, _code: u64) -> Option<Self::Syscall> {
        None
    }
}

/// Which of the two actuator drivers a process is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Driver {
    /// The heater/fan driver.
    Heater,
    /// The alarm driver.
    Alarm,
}

impl Driver {
    /// The driver's process name.
    fn name(self) -> &'static str {
        match self {
            Driver::Heater => names::HEATER,
            Driver::Alarm => names::ALARM,
        }
    }

    /// The level `msg` commands, when it is this driver's command.
    pub(crate) fn level(self, msg: Option<BasMsg>) -> Option<bool> {
        match (self, msg) {
            (Driver::Heater, Some(BasMsg::FanCmd { on })) => Some(on),
            (Driver::Alarm, Some(BasMsg::AlarmCmd { on })) => Some(on),
            _ => None,
        }
    }
}

/// The temperature sensor driver: "periodically samples the room
/// temperature and sends the data to temperature control process".
pub(crate) struct Sensor<B: Binding> {
    link: B::Link,
    dev: B::Device,
    period: SimDuration,
    seq: u32,
    state: SensorSt,
}

/// The syscall the sensor last issued.
enum SensorSt {
    Connect,
    DevRead,
    Report,
    Sleep,
}

impl<B: Binding> Sensor<B> {
    /// A sensor reading `dev` every `period` and reporting over `link`.
    pub(crate) fn new(link: B::Link, dev: B::Device, period: SimDuration) -> Self {
        Sensor {
            link,
            dev,
            period,
            seq: 0,
            state: SensorSt::Connect,
        }
    }

    fn read(&mut self) -> Action<B::Syscall> {
        self.state = SensorSt::DevRead;
        Action::Syscall(B::dev_read(self.dev))
    }
}

impl<B: Binding> Process for Sensor<B> {
    type Syscall = B::Syscall;
    type Reply = B::Reply;

    fn resume(&mut self, reply: Option<B::Reply>) -> Action<B::Syscall> {
        match self.state {
            SensorSt::Connect => match B::connect(&mut self.link, reply) {
                Ok(()) => self.read(),
                Err(next) => next,
            },
            SensorSt::DevRead => match B::dev_value(reply) {
                Some(v) => {
                    self.seq += 1;
                    self.state = SensorSt::Report;
                    let reading = BasMsg::SensorReading {
                        milli_c: v as i32,
                        seq: self.seq,
                    };
                    Action::Syscall(B::send(&self.link, reading))
                }
                // Device refused (misconfiguration): the driver cannot work.
                None => Action::Exit(1),
            },
            SensorSt::Report => {
                // A failed report just drops this sample, as with a real
                // non-blocking send; a lost controller is connected anew.
                if let Some(next) = B::lost(&mut self.link, &reply) {
                    self.state = SensorSt::Connect;
                    return next;
                }
                self.state = SensorSt::Sleep;
                Action::Syscall(B::sleep(self.period))
            }
            SensorSt::Sleep => self.read(),
        }
    }

    fn name(&self) -> &str {
        names::SENSOR
    }
}

/// An actuator driver: "implemented to passively wait for commands from
/// temperature control process", then drive its device.
pub(crate) struct Actuator<B: Binding> {
    port: B::Port,
    dev: B::Device,
    driver: Driver,
    state: ActSt,
}

/// The syscall the actuator last issued.
enum ActSt {
    Connect,
    Receive,
    Write,
    Answer,
}

impl<B: Binding> Actuator<B> {
    /// `driver`, driving `dev` on the commands `port` delivers.
    pub(crate) fn new(port: B::Port, dev: B::Device, driver: Driver) -> Self {
        Actuator {
            port,
            dev,
            driver,
            state: ActSt::Connect,
        }
    }

    fn receive(&mut self) -> Action<B::Syscall> {
        self.state = ActSt::Receive;
        Action::Syscall(B::receive(&self.port))
    }

    fn answer(&mut self, code: u64) -> Action<B::Syscall> {
        match B::answer(&self.port, code) {
            Some(reply) => {
                self.state = ActSt::Answer;
                Action::Syscall(reply)
            }
            None => self.receive(),
        }
    }
}

impl<B: Binding> Process for Actuator<B> {
    type Syscall = B::Syscall;
    type Reply = B::Reply;

    fn resume(&mut self, reply: Option<B::Reply>) -> Action<B::Syscall> {
        match self.state {
            ActSt::Connect => match B::listen(&mut self.port, reply) {
                Ok(()) => self.receive(),
                Err(next) => next,
            },
            ActSt::Receive => match B::command(&self.port, reply, self.driver) {
                Some(Some(on)) => {
                    self.state = ActSt::Write;
                    Action::Syscall(B::dev_write(self.dev, i64::from(on)))
                }
                Some(None) => self.answer(1),
                None => self.receive(),
            },
            ActSt::Write => self.answer(0),
            ActSt::Answer => self.receive(),
        }
    }

    fn name(&self) -> &str {
        self.driver.name()
    }
}

/// The benign web interface: the [`WebClient`] role core over a link to
/// the controller. It reads the clock on every wake and sends each due
/// action's request as a call.
pub(crate) struct Web<B: Binding> {
    link: B::Link,
    client: WebClient,
    state: WebSt,
}

/// The syscall the web process last issued.
enum WebSt {
    Connect,
    Clock,
    Sleep,
    Call,
    Collect,
}

impl<B: Binding> Web<B> {
    /// The benign web interface over the instance's I/O.
    pub(crate) fn new(link: B::Link, io: &AppIo) -> Self {
        Web {
            link,
            client: WebClient::new(io),
            state: WebSt::Connect,
        }
    }

    fn read_clock(&mut self) -> Action<B::Syscall> {
        self.state = WebSt::Clock;
        Action::Syscall(B::clock())
    }

    fn call(&mut self, action: WebAction) -> Action<B::Syscall> {
        self.state = WebSt::Call;
        Action::Syscall(B::send(&self.link, action.request()))
    }

    /// Sends the action in flight, if any, or reads the clock.
    fn next(&mut self) -> Action<B::Syscall> {
        match self.client.inflight() {
            Some(action) => self.call(action),
            None => self.read_clock(),
        }
    }

    /// Hands the call's answer to the client and goes on to the next
    /// action of a same-tick burst. A lost controller fails the call and
    /// is connected anew before that next action.
    fn answered(&mut self, reply: Option<B::Reply>) -> Action<B::Syscall> {
        let lost = B::lost(&mut self.link, &reply);
        let decoded = self
            .client
            .inflight()
            .and_then(|action| B::decode(reply, action.request()));
        self.client.on_reply(decoded);
        if let Some(reconnect) = lost {
            self.state = WebSt::Connect;
            return reconnect;
        }
        self.next()
    }
}

impl<B: Binding> Process for Web<B> {
    type Syscall = B::Syscall;
    type Reply = B::Reply;

    fn resume(&mut self, reply: Option<B::Reply>) -> Action<B::Syscall> {
        match self.state {
            WebSt::Connect => match B::connect(&mut self.link, reply) {
                Ok(()) => self.next(),
                Err(next) => next,
            },
            WebSt::Clock => {
                let now = B::now(reply).unwrap_or(SimTime::ZERO);
                match self.client.on_clock(now) {
                    WebStep::Rpc(action) => self.call(action),
                    WebStep::Sleep(duration) => {
                        self.state = WebSt::Sleep;
                        Action::Syscall(B::sleep(duration))
                    }
                }
            }
            WebSt::Sleep => self.read_clock(),
            WebSt::Call => match B::collect(&self.link) {
                Some(receive) => {
                    self.state = WebSt::Collect;
                    Action::Syscall(receive)
                }
                None => self.answered(reply),
            },
            WebSt::Collect => self.answered(reply),
        }
    }

    fn name(&self) -> &str {
        names::WEB
    }
}
