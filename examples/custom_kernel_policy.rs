//! Building your own MINIX system with a custom ACM — the paper's Fig. 3
//! example as live processes: App1 and App3 expose RPCs as message types,
//! App2 may call only the functions the matrix allows it.
//!
//! Run: `cargo run --release --example custom_kernel_policy`

use bas::acm::fig3::{fig3_matrix, APP1, APP2, APP3};
use bas::minix::kernel::{MinixConfig, MinixKernel};
use bas::minix::syscall::{Reply, Syscall};
use bas::sim::process::{Action, Process};
use bas::sim::script::{replies, Script};

/// A tiny RPC server: receives a request, replies with an ack (type 0)
/// carrying the invoked function number, forever.
struct RpcApp {
    name: &'static str,
}

impl Process for RpcApp {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        match reply {
            Some(Reply::Msg(m)) if m.mtype != 0 => {
                // Acknowledge: echo the function number in the payload.
                let mut payload = bas::minix::message::Payload::zeroed();
                payload.write_u32(0, 0); // ack subtag
                payload.write_u32(4, m.mtype);
                Action::Syscall(Syscall::Send {
                    dest: m.source,
                    mtype: 0,
                    payload,
                })
            }
            _ => Action::Syscall(Syscall::Receive { from: None }),
        }
    }

    fn name(&self) -> &str {
        self.name
    }
}

fn main() {
    // The exact matrix of the paper's Figure 3.
    let acm = fig3_matrix();
    println!("access-control matrix (Fig. 3):\n{}", acm.render_table(4));

    let mut kernel = MinixKernel::new(MinixConfig {
        acm,
        ..MinixConfig::default()
    });
    let app1 = kernel
        .spawn("app1", APP1, 1000, Box::new(RpcApp { name: "app1" }))
        .unwrap();
    let _app3 = kernel
        .spawn("app3", APP3, 1000, Box::new(RpcApp { name: "app3" }))
        .unwrap();

    // App2 invokes App1's functions 1, 2, 3 in turn via sendrec.
    let (caller, log) = Script::new(vec![
        Syscall::sendrec(app1, 1, []), // app1_f1 — reserved for App3: DENIED
        Syscall::sendrec(app1, 2, []), // app1_f2 — allowed
        Syscall::sendrec(app1, 3, []), // app1_f3 — allowed
    ])
    .logged();
    kernel.spawn("app2", APP2, 1000, Box::new(caller)).unwrap();
    kernel.run_to_quiescence();

    println!("App2's three calls against App1:");
    for (f, reply) in (1..=3).zip(replies(&log)) {
        match reply {
            Reply::Msg(m) => println!(
                "  app1_f{f}() -> ack for function {}",
                m.payload.read_u32(4)
            ),
            Reply::Err(e) => println!("  app1_f{f}() -> {e}"),
            other => println!("  app1_f{f}() -> {other:?}"),
        }
    }
    println!(
        "\nkernel counters: {} (one ACM denial for the reserved function)",
        kernel.metrics()
    );
    assert_eq!(kernel.metrics().access_denied, 1);
}
