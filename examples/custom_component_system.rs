//! Building a new capability-confined system with the CAmkES/CapDL
//! toolchain — the workflow a downstream user follows to add their own
//! subsystem (here: a door-lock controller with a badge reader and a
//! lock actuator, a second classic BAS function).
//!
//! Run: `cargo run --release --example custom_component_system`

use bas::camkes::assembly::Assembly;
use bas::camkes::codegen::compile;
use bas::camkes::component::{Component, Procedure};
use bas::camkes::glue::{RpcClient, RpcServer};
use bas::capdl::{realize, verify};
use bas::sel4::kernel::{Sel4Config, Sel4Kernel, Sel4Thread};
use bas::sel4::syscall::{Reply, Syscall};
use bas::sim::process::{Action, Process};
use bas::sim::script::{replies, Script};
use bas_sim::kernel::Kernel;

/// The lock controller: grants access when the badge id is on the
/// allowlist, and never exposes anything else.
struct LockController {
    server: RpcServer,
    allowlist: Vec<u64>,
}

impl Process for LockController {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        match reply {
            Some(Reply::Msg(m)) => {
                let req = self.server.decode(m);
                let granted = req.label == 0 // request_entry
                    && req.args.first().is_some_and(|id| self.allowlist.contains(id));
                Action::Syscall(
                    self.server
                        .reply(u64::from(!granted), vec![u64::from(granted)]),
                )
            }
            _ => Action::Syscall(self.server.next_request()),
        }
    }

    fn name(&self) -> &str {
        "lock_controller"
    }
}

fn main() {
    // 1. Describe the architecture.
    let lock_api = Procedure::new("lock_api", ["request_entry"]);
    let assembly = Assembly::new()
        .instance(
            "lock",
            Component::new("LockController").provides("api", lock_api.clone()),
        )
        .instance(
            "reader",
            Component::new("BadgeReader").uses("api", lock_api.clone()),
        )
        .instance(
            "kiosk",
            Component::new("VisitorKiosk").uses("api", lock_api),
        )
        .rpc_connection("c_reader", ("reader", "api"), ("lock", "api"))
        .rpc_connection("c_kiosk", ("kiosk", "api"), ("lock", "api"));

    // 2. Compile to a capability distribution.
    let (spec, glue) = compile(&assembly).expect("assembly is valid");
    println!("compiled CapDL:\n{}", spec.to_text());

    // 3. Realize on the kernel with the application logic.
    let mut kernel = Sel4Kernel::new(Sel4Config::default());
    let reader_stub = RpcClient::new(glue.client_slot("reader", "api").unwrap());
    let kiosk_stub = RpcClient::new(glue.client_slot("kiosk", "api").unwrap());
    let (reader, reader_log) =
        Script::<Syscall, Reply>::new(vec![reader_stub.call(0, vec![7])]).logged();
    let (kiosk, kiosk_log) =
        Script::<Syscall, Reply>::new(vec![kiosk_stub.call(0, vec![999])]).logged();

    let mut reader = Some(reader);
    let mut kiosk = Some(kiosk);
    let server_slot = glue.server_slot("lock", "api").unwrap();
    let mut loader = |name: &str| -> Option<Sel4Thread> {
        match name {
            "lock" => Some(Box::new(LockController {
                server: RpcServer::new(server_slot),
                allowlist: vec![7, 8, 9],
            })),
            "reader" => reader.take().map(|s| Box::new(s) as Sel4Thread),
            "kiosk" => kiosk.take().map(|s| Box::new(s) as Sel4Thread),
            _ => None,
        }
    };
    let sys = realize(&spec, &mut kernel, &mut loader).expect("realizes");

    // 4. Machine-verify the distribution before starting anything.
    assert!(verify(&spec, &kernel, &sys).is_empty(), "boot audit clean");
    for name in ["lock", "reader", "kiosk"] {
        kernel.start_thread(sys.threads[name]);
    }
    kernel.run_to_quiescence();

    // 5. Observe: badge 7 admitted, badge 999 refused — and the kiosk
    //    could never reach anything but the lock API.
    let reader_result = replies(&reader_log);
    let kiosk_result = replies(&kiosk_log);
    println!("badge reader (id 7):   {:?}", reader_result[0]);
    println!("visitor kiosk (id 999): {:?}", kiosk_result[0]);
    assert_eq!(
        reader_result[0].message().unwrap().words,
        vec![1],
        "entry granted"
    );
    assert_eq!(
        kiosk_result[0].message().unwrap().words,
        vec![0],
        "entry refused"
    );
    println!(
        "\ncapability audit after serving: {:?}",
        verify(&spec, &kernel, &sys)
    );
}
