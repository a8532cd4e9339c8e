//! B: wall-clock cost of simulating IPC round trips on each platform
//! model (simulator throughput, complementing `exp_ipc_overhead`'s
//! virtual-time numbers).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use bas_acm::{AcId, AccessControlMatrix};
use bas_sim::kernel::Kernel;
use bas_sim::process::{Action, Process};

const ROUNDTRIPS: u64 = 1_000;

fn minix_pingpong() -> u64 {
    use bas_minix::kernel::{MinixConfig, MinixKernel};
    use bas_minix::syscall::{Reply, Syscall};

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
    struct Client {
        server: bas_minix::endpoint::Endpoint,
        remaining: u64,
    }
    impl Process for Client {
        type Syscall = Syscall;
        type Reply = Reply;
        fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
            if self.remaining == 0 {
                return Action::Exit(0);
            }
            self.remaining -= 1;
            Action::Syscall(Syscall::sendrec(self.server, 1, []))
        }
    }

    let acm = AccessControlMatrix::builder()
        .allow_all_types(AcId::new(1), AcId::new(2))
        .allow_all_types(AcId::new(2), AcId::new(1))
        .build();
    let mut k = MinixKernel::new(MinixConfig {
        acm,
        ..MinixConfig::default()
    });
    k.disable_trace();
    let server = k
        .spawn("server", AcId::new(2), 0, Box::new(Server))
        .unwrap();
    k.spawn(
        "client",
        AcId::new(1),
        0,
        Box::new(Client {
            server,
            remaining: ROUNDTRIPS,
        }),
    )
    .unwrap();
    k.run_to_quiescence();
    k.metrics().ipc_messages
}

fn sel4_pingpong() -> u64 {
    use bas_sel4::cap::CPtr;
    use bas_sel4::kernel::{Sel4Config, Sel4Kernel};
    use bas_sel4::message::IpcMessage;
    use bas_sel4::rights::CapRights;
    use bas_sel4::syscall::{Reply, Syscall};

    struct Server;
    impl Process for Server {
        type Syscall = Syscall;
        type Reply = Reply;
        fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
            match reply {
                Some(Reply::Msg(_)) => Action::Syscall(Syscall::Reply {
                    msg: IpcMessage::with_label(0),
                }),
                _ => Action::Syscall(Syscall::Recv { ep: CPtr::new(0) }),
            }
        }
    }
    struct Client {
        remaining: u64,
    }
    impl Process for Client {
        type Syscall = Syscall;
        type Reply = Reply;
        fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
            if self.remaining == 0 {
                return Action::Exit(0);
            }
            self.remaining -= 1;
            Action::Syscall(Syscall::Call {
                ep: CPtr::new(0),
                msg: IpcMessage::with_label(1),
            })
        }
    }

    let mut k = Sel4Kernel::new(Sel4Config::default());
    k.disable_trace();
    let ep = k.create_endpoint();
    let server = k.create_thread("server", Box::new(Server));
    let client = k.create_thread(
        "client",
        Box::new(Client {
            remaining: ROUNDTRIPS,
        }),
    );
    k.grant_endpoint(server, ep, CapRights::READ, 0).unwrap();
    k.grant_endpoint(client, ep, CapRights::WRITE_GRANT, 1)
        .unwrap();
    k.start_thread(server);
    k.start_thread(client);
    k.run_to_quiescence();
    k.metrics().ipc_messages
}

fn linux_pingpong() -> u64 {
    use bas_linux::cred::{Mode, Uid};
    use bas_linux::kernel::{LinuxConfig, LinuxKernel};
    use bas_linux::syscall::{MqAccess, Reply, Syscall};

    struct Server {
        state: u8,
    }
    impl Process for Server {
        type Syscall = Syscall;
        type Reply = Reply;
        fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
            match self.state {
                0 => {
                    self.state = 1;
                    Action::Syscall(Syscall::MqOpen {
                        name: "/req".into(),
                        access: MqAccess::READ,
                        create: None,
                    })
                }
                1 => {
                    self.state = 2;
                    Action::Syscall(Syscall::MqOpen {
                        name: "/resp".into(),
                        access: MqAccess::WRITE,
                        create: None,
                    })
                }
                _ => match reply {
                    Some(Reply::Data { .. }) => Action::Syscall(Syscall::MqSend {
                        qd: 1,
                        data: vec![0],
                        priority: 0,
                        nonblocking: false,
                    }),
                    _ => Action::Syscall(Syscall::MqReceive {
                        qd: 0,
                        nonblocking: false,
                    }),
                },
            }
        }
    }
    struct Client {
        state: u8,
        awaiting: bool,
        remaining: u64,
    }
    impl Process for Client {
        type Syscall = Syscall;
        type Reply = Reply;
        fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
            match self.state {
                0 => {
                    self.state = 1;
                    Action::Syscall(Syscall::MqOpen {
                        name: "/req".into(),
                        access: MqAccess::WRITE,
                        create: None,
                    })
                }
                1 => {
                    self.state = 2;
                    Action::Syscall(Syscall::MqOpen {
                        name: "/resp".into(),
                        access: MqAccess::READ,
                        create: None,
                    })
                }
                _ => {
                    if self.awaiting {
                        self.awaiting = false;
                        return Action::Syscall(Syscall::MqReceive {
                            qd: 1,
                            nonblocking: false,
                        });
                    }
                    if self.remaining == 0 {
                        return Action::Exit(0);
                    }
                    self.remaining -= 1;
                    self.awaiting = true;
                    Action::Syscall(Syscall::MqSend {
                        qd: 0,
                        data: vec![1],
                        priority: 0,
                        nonblocking: false,
                    })
                }
            }
        }
    }

    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.disable_trace();
    let owner = Uid::new(1);
    k.create_queue("/req", owner, Mode::new(0o666), 8);
    k.create_queue("/resp", owner, Mode::new(0o666), 8);
    k.spawn("server", 1, Box::new(Server { state: 0 })).unwrap();
    k.spawn(
        "client",
        1,
        Box::new(Client {
            state: 0,
            awaiting: false,
            remaining: ROUNDTRIPS,
        }),
    )
    .unwrap();
    k.run_to_quiescence();
    k.metrics().ipc_messages
}

fn bench_ipc(c: &mut Criterion) {
    let mut group = c.benchmark_group("ipc_roundtrips_1k");
    group.bench_function("minix_sendrec", |b| {
        b.iter_batched(|| (), |_| minix_pingpong(), BatchSize::SmallInput)
    });
    group.bench_function("sel4_call_reply", |b| {
        b.iter_batched(|| (), |_| sel4_pingpong(), BatchSize::SmallInput)
    });
    group.bench_function("linux_mq_roundtrip", |b| {
        b.iter_batched(|| (), |_| linux_pingpong(), BatchSize::SmallInput)
    });
    group.finish();
}

criterion_group!(benches, bench_ipc);
criterion_main!(benches);
