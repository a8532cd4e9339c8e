//! E8 (§III performance remark): "the microkernel approach generally
//! under-performs the monolithic due to the multiple context switches."
//!
//! Measures, per platform, the exact kernel-entry and context-switch
//! counts and the modeled virtual time for (a) an RPC round trip between
//! two processes and (b) a trivial kernel service call (`getpid`), which
//! on MINIX is itself a message to the PM server.
//!
//! Run: `cargo run --release -p bas-bench --bin exp_ipc_overhead`

use bas_acm::{AcId, AccessControlMatrix};
use bas_bench::{rule, section, Harness};
use bas_fleet::Json;
use bas_sim::kernel::Kernel;
use bas_sim::process::{Action, Process};

/// One measured row: per-op cost of an IPC pattern on one platform.
struct Row {
    group: &'static str,
    label: &'static str,
    ops: u64,
    ctx_per_op: f64,
    kentry_per_op: f64,
    ns_per_op: f64,
}

fn main() {
    let h = Harness::new("ipc_overhead");
    let n = h.scale(10_000, 500);
    let mut rows = Vec::new();

    section(&format!(
        "RPC round-trip cost, averaged over {n} round trips"
    ));
    println!(
        "{:<18} {:>16} {:>16} {:>16}",
        "platform", "ctx-switch/op", "kernel-entry/op", "virtual-ns/op"
    );
    rule();
    rows.push(minix_roundtrip(n));
    rows.push(sel4_roundtrip(n));
    rows.push(linux_roundtrip(n));

    section(&format!(
        "getpid()-class service call, averaged over {n} calls"
    ));
    println!(
        "{:<18} {:>16} {:>16} {:>16}",
        "platform", "ctx-switch/op", "kernel-entry/op", "virtual-ns/op"
    );
    rule();
    rows.push(minix_getpid(n));
    rows.push(linux_getpid(n));
    println!("(seL4 has no process server in this scenario; the nearest analog is the RPC above)");

    h.emit_json(&Json::obj(vec![
        ("schema", Json::Str("bas-ipc-overhead/v1".into())),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("group", Json::Str(r.group.into())),
                            ("platform", Json::Str(r.label.into())),
                            ("ops", Json::UInt(r.ops)),
                            ("ctx_switches_per_op", Json::Num(r.ctx_per_op)),
                            ("kernel_entries_per_op", Json::Num(r.kentry_per_op)),
                            ("virtual_ns_per_op", Json::Num(r.ns_per_op)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]));
}

fn report(
    group: &'static str,
    label: &'static str,
    n: u64,
    m: bas_sim::metrics::KernelMetrics,
    vt_ns: u64,
) -> Row {
    let row = Row {
        group,
        label,
        ops: n,
        ctx_per_op: m.context_switches as f64 / n as f64,
        kentry_per_op: m.kernel_entries as f64 / n as f64,
        ns_per_op: vt_ns as f64 / n as f64,
    };
    println!(
        "{:<18} {:>16.2} {:>16.2} {:>16.1}",
        label, row.ctx_per_op, row.kentry_per_op, row.ns_per_op,
    );
    row
}

// ---------------------------------------------------------------------------
// MINIX
// ---------------------------------------------------------------------------

fn minix_roundtrip(n: u64) -> Row {
    use bas_minix::endpoint::Endpoint;
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
        server: Endpoint,
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
        .allow_all_types(AcId::new(1_000), AcId::new(1_001))
        .allow_all_types(AcId::new(1_001), AcId::new(1_000))
        .build();
    let mut k = MinixKernel::new(MinixConfig {
        acm,
        ..MinixConfig::default()
    });
    k.disable_trace();
    let server = k
        .spawn("server", AcId::new(1_001), 0, Box::new(Server))
        .unwrap();
    k.spawn(
        "client",
        AcId::new(1_000),
        0,
        Box::new(Client {
            server,
            remaining: n,
        }),
    )
    .unwrap();
    let before = *k.metrics();
    let t0 = k.now();
    k.run_to_quiescence();
    report(
        "rpc_roundtrip",
        "minix3+acm",
        n,
        k.metrics().delta_since(&before),
        (k.now() - t0).as_nanos(),
    )
}

fn minix_getpid(n: u64) -> Row {
    use bas_minix::kernel::{MinixConfig, MinixKernel};
    use bas_minix::message::Payload;
    use bas_minix::pm;
    use bas_minix::syscall::{Reply, Syscall};

    struct Caller {
        remaining: u64,
    }
    impl Process for Caller {
        type Syscall = Syscall;
        type Reply = Reply;
        fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
            if self.remaining == 0 {
                return Action::Exit(0);
            }
            self.remaining -= 1;
            Action::Syscall(Syscall::SendRec {
                dest: pm::PM_ENDPOINT,
                mtype: pm::PM_GETPID,
                payload: Payload::zeroed(),
            })
        }
    }

    let acm = pm::allow_pm_ops(
        AccessControlMatrix::builder(),
        AcId::new(1_000),
        [pm::PM_GETPID],
    )
    .build();
    let mut k = MinixKernel::new(MinixConfig {
        acm,
        ..MinixConfig::default()
    });
    k.disable_trace();
    k.spawn(
        "caller",
        AcId::new(1_000),
        0,
        Box::new(Caller { remaining: n }),
    )
    .unwrap();
    let before = *k.metrics();
    let t0 = k.now();
    k.run_to_quiescence();
    report(
        "getpid",
        "minix3 (via PM)",
        n,
        k.metrics().delta_since(&before),
        (k.now() - t0).as_nanos(),
    )
}

// ---------------------------------------------------------------------------
// seL4
// ---------------------------------------------------------------------------

fn sel4_roundtrip(n: u64) -> Row {
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
    let client = k.create_thread("client", Box::new(Client { remaining: n }));
    k.grant_endpoint(server, ep, CapRights::READ, 0).unwrap();
    k.grant_endpoint(client, ep, CapRights::WRITE_GRANT, 1)
        .unwrap();
    k.start_thread(server);
    k.start_thread(client);
    let before = *k.metrics();
    let t0 = k.now();
    k.run_to_quiescence();
    report(
        "rpc_roundtrip",
        "sel4/camkes",
        n,
        k.metrics().delta_since(&before),
        (k.now() - t0).as_nanos(),
    )
}

// ---------------------------------------------------------------------------
// Linux
// ---------------------------------------------------------------------------

fn linux_roundtrip(n: u64) -> Row {
    use bas_linux::cred::{Mode, Uid};
    use bas_linux::kernel::{LinuxConfig, LinuxKernel};
    use bas_linux::syscall::{MqAccess, Reply, Syscall};

    struct Server {
        opened: u8,
    }
    impl Process for Server {
        type Syscall = Syscall;
        type Reply = Reply;
        fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
            match self.opened {
                0 => {
                    self.opened = 1;
                    Action::Syscall(Syscall::MqOpen {
                        name: "/req".into(),
                        access: MqAccess::READ,
                        create: None,
                    })
                }
                1 => {
                    self.opened = 2;
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
        opened: u8,
        awaiting: bool,
        remaining: u64,
    }
    impl Process for Client {
        type Syscall = Syscall;
        type Reply = Reply;
        fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
            match self.opened {
                0 => {
                    self.opened = 1;
                    Action::Syscall(Syscall::MqOpen {
                        name: "/req".into(),
                        access: MqAccess::WRITE,
                        create: None,
                    })
                }
                1 => {
                    self.opened = 2;
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
    let owner = Uid::new(1_000);
    k.create_queue("/req", owner, Mode::new(0o666), 8);
    k.create_queue("/resp", owner, Mode::new(0o666), 8);
    k.spawn("server", 1_000, Box::new(Server { opened: 0 }))
        .unwrap();
    k.spawn(
        "client",
        1_000,
        Box::new(Client {
            opened: 0,
            awaiting: false,
            remaining: n,
        }),
    )
    .unwrap();
    let before = *k.metrics();
    let t0 = k.now();
    k.run_to_quiescence();
    report(
        "rpc_roundtrip",
        "linux (mq)",
        n,
        k.metrics().delta_since(&before),
        (k.now() - t0).as_nanos(),
    )
}

fn linux_getpid(n: u64) -> Row {
    use bas_linux::kernel::{LinuxConfig, LinuxKernel};
    use bas_linux::syscall::{Reply, Syscall};

    struct Caller {
        remaining: u64,
    }
    impl Process for Caller {
        type Syscall = Syscall;
        type Reply = Reply;
        fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
            if self.remaining == 0 {
                return Action::Exit(0);
            }
            self.remaining -= 1;
            Action::Syscall(Syscall::GetPid)
        }
    }

    let mut k = LinuxKernel::new(LinuxConfig::default());
    k.disable_trace();
    k.spawn("caller", 1_000, Box::new(Caller { remaining: n }))
        .unwrap();
    let before = *k.metrics();
    let t0 = k.now();
    k.run_to_quiescence();
    report(
        "getpid",
        "linux (direct)",
        n,
        k.metrics().delta_since(&before),
        (k.now() - t0).as_nanos(),
    )
}
