//! The IPC fixtures behind E8 (`exp_ipc_overhead`), E8b
//! (`exp_cost_sensitivity`) and the `ipc` Criterion bench: one RPC
//! round-trip stack per platform, and a `getpid` stack for MINIX (a
//! message to the PM server) and Linux (a direct trap). Each is built
//! once here so the virtual-time tables and the wall-clock bench measure
//! the same programs.
//!
//! Every client and caller is a [`Script`], and so is the seL4 server.
//! Only the two servers that react to what they receive are small
//! structs: MINIX replies to the stamped source, Linux opens its queues
//! before serving.

use bas_acm::{AcId, AccessControlMatrix};
use bas_sim::clock::CostModel;
use bas_sim::kernel::Kernel;
use bas_sim::metrics::KernelMetrics;
use bas_sim::process::{Action, Process};
use bas_sim::script::Script;

/// One IPC pattern on one platform.
#[derive(Debug, Clone, Copy)]
pub enum IpcFixture {
    /// MINIX `sendrec` to a server that replies to the message's source,
    /// both sides ACM-checked.
    MinixRoundTrip,
    /// seL4 `Call` on an endpoint capability, answered by `Reply`.
    Sel4RoundTrip,
    /// Linux request and response over two POSIX message queues.
    LinuxRoundTrip,
    /// MINIX `getpid`: a `sendrec` to the PM server.
    MinixGetpid,
    /// Linux `getpid`: one direct system call.
    LinuxGetpid,
}

/// What running a fixture to quiescence cost.
#[derive(Debug, Clone, Copy)]
pub struct IpcCost {
    /// Kernel counters accumulated while the operations ran.
    pub metrics: KernelMetrics,
    /// Virtual time the operations took, in nanoseconds.
    pub virtual_ns: u64,
}

impl IpcFixture {
    /// Boots the fixture with tracing off, runs `n` operations under
    /// `cost_model` and returns their cost (boot excluded).
    pub fn run(self, n: u64, cost_model: CostModel) -> IpcCost {
        let n = usize::try_from(n).expect("operation count fits in memory");
        match self {
            IpcFixture::MinixRoundTrip => measure(minix::roundtrip(n, cost_model)),
            IpcFixture::Sel4RoundTrip => measure(sel4::roundtrip(n, cost_model)),
            IpcFixture::LinuxRoundTrip => measure(linux::roundtrip(n, cost_model)),
            IpcFixture::MinixGetpid => measure(minix::getpid(n, cost_model)),
            IpcFixture::LinuxGetpid => measure(linux::getpid(n, cost_model)),
        }
    }
}

fn measure<K: Kernel>(mut k: K) -> IpcCost {
    let before = *k.metrics();
    let t0 = k.now();
    k.run_to_quiescence();
    IpcCost {
        metrics: k.metrics().delta_since(&before),
        virtual_ns: (k.now() - t0).as_nanos(),
    }
}

const CLIENT: AcId = AcId::new(1_000);
const SERVER: AcId = AcId::new(1_001);
const UID: u32 = 1_000;

mod minix {
    use super::*;
    use bas_minix::kernel::{MinixConfig, MinixKernel};
    use bas_minix::message::Payload;
    use bas_minix::pm;
    use bas_minix::syscall::{Reply, Syscall};

    type S = Script<Syscall, Reply>;

    /// Receives, then replies to whoever the kernel says sent the request.
    struct Server;
    impl Process for Server {
        type Syscall = Syscall;
        type Reply = Reply;
        fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
            match reply {
                Some(Reply::Msg(m)) => Action::Syscall(Syscall::send(m.source, 0, [])),
                _ => Action::Syscall(Syscall::Receive { from: None }),
            }
        }
    }

    fn kernel(acm: AccessControlMatrix, cost_model: CostModel) -> MinixKernel {
        let mut k = MinixKernel::new(MinixConfig {
            acm,
            cost_model,
            ..MinixConfig::default()
        });
        k.disable_trace();
        k
    }

    pub(super) fn roundtrip(n: usize, cost_model: CostModel) -> MinixKernel {
        let acm = AccessControlMatrix::builder()
            .allow_all_types(CLIENT, SERVER)
            .allow_all_types(SERVER, CLIENT)
            .build();
        let mut k = kernel(acm, cost_model);
        let server = k.spawn("server", SERVER, 0, Box::new(Server)).unwrap();
        let client = S::new(vec![Syscall::sendrec(server, 1, []); n]);
        k.spawn("client", CLIENT, 0, Box::new(client)).unwrap();
        k
    }

    pub(super) fn getpid(n: usize, cost_model: CostModel) -> MinixKernel {
        let acm = pm::allow_pm_ops(AccessControlMatrix::builder(), CLIENT, [pm::PM_GETPID]).build();
        let mut k = kernel(acm, cost_model);
        let call = Syscall::SendRec {
            dest: pm::PM_ENDPOINT,
            mtype: pm::PM_GETPID,
            payload: Payload::zeroed(),
        };
        let caller = S::new(vec![call; n]);
        k.spawn("caller", CLIENT, 0, Box::new(caller)).unwrap();
        k
    }
}

mod sel4 {
    use super::*;
    use bas_sel4::cap::CPtr;
    use bas_sel4::kernel::{Sel4Config, Sel4Kernel};
    use bas_sel4::message::IpcMessage;
    use bas_sel4::rights::CapRights;
    use bas_sel4::syscall::{Reply, Syscall};

    type S = Script<Syscall, Reply>;

    pub(super) fn roundtrip(n: usize, cost_model: CostModel) -> Sel4Kernel {
        let mut k = Sel4Kernel::new(Sel4Config {
            cost_model,
            ..Sel4Config::default()
        });
        k.disable_trace();
        let ep = k.create_endpoint();
        let slot = CPtr::new(0);
        let server = S::looping(vec![
            Syscall::Recv { ep: slot },
            Syscall::Reply {
                msg: IpcMessage::with_label(0),
            },
        ]);
        let call = Syscall::Call {
            ep: slot,
            msg: IpcMessage::with_label(1),
        };
        let server = k.create_thread("server", Box::new(server));
        let client = k.create_thread("client", Box::new(S::new(vec![call; n])));
        k.grant_endpoint(server, ep, CapRights::READ, 0).unwrap();
        k.grant_endpoint(client, ep, CapRights::WRITE_GRANT, 1)
            .unwrap();
        k.start_thread(server);
        k.start_thread(client);
        k
    }
}

mod linux {
    use super::*;
    use bas_linux::cred::{Mode, Uid};
    use bas_linux::kernel::{LinuxConfig, LinuxKernel};
    use bas_linux::syscall::{MqAccess, Reply, Syscall};

    type S = Script<Syscall, Reply>;

    fn open(name: &str, access: MqAccess) -> Syscall {
        Syscall::MqOpen {
            name: name.into(),
            access,
            create: None,
        }
    }

    fn send(qd: u32, byte: u8) -> Syscall {
        Syscall::MqSend {
            qd,
            data: vec![byte],
            priority: 0,
            nonblocking: false,
        }
    }

    fn receive(qd: u32) -> Syscall {
        Syscall::MqReceive {
            qd,
            nonblocking: false,
        }
    }

    /// Opens `/req` and `/resp`, then answers every request with one byte.
    struct Server {
        opened: u8,
    }
    impl Process for Server {
        type Syscall = Syscall;
        type Reply = Reply;
        fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
            let sys = match (self.opened, reply) {
                (0, _) => open("/req", MqAccess::READ),
                (1, _) => open("/resp", MqAccess::WRITE),
                (_, Some(Reply::Data { .. })) => send(1, 0),
                _ => receive(0),
            };
            self.opened = self.opened.saturating_add(1);
            Action::Syscall(sys)
        }
    }

    fn kernel(cost_model: CostModel) -> LinuxKernel {
        let mut k = LinuxKernel::new(LinuxConfig {
            cost_model,
            ..LinuxConfig::default()
        });
        k.disable_trace();
        k
    }

    pub(super) fn roundtrip(n: usize, cost_model: CostModel) -> LinuxKernel {
        let mut k = kernel(cost_model);
        let owner = Uid::new(UID);
        k.create_queue("/req", owner, Mode::new(0o666), 8);
        k.create_queue("/resp", owner, Mode::new(0o666), 8);
        k.spawn("server", UID, Box::new(Server { opened: 0 }))
            .unwrap();
        let mut steps = vec![open("/req", MqAccess::WRITE), open("/resp", MqAccess::READ)];
        for _ in 0..n {
            steps.extend([send(0, 1), receive(1)]);
        }
        k.spawn("client", UID, Box::new(S::new(steps))).unwrap();
        k
    }

    pub(super) fn getpid(n: usize, cost_model: CostModel) -> LinuxKernel {
        let mut k = kernel(cost_model);
        let caller = S::new(vec![Syscall::GetPid; n]);
        k.spawn("caller", UID, Box::new(caller)).unwrap();
        k
    }
}
