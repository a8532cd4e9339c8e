//! End-to-end: assembly → CapDL → realized seL4 system → live RPC →
//! post-run capability audit.

use bas_camkes::assembly::Assembly;
use bas_camkes::codegen::compile;
use bas_camkes::component::{Component, Procedure};
use bas_camkes::glue::{RpcClient, RpcServer};
use bas_capdl::{realize, verify};
use bas_sel4::kernel::{Sel4Config, Sel4Kernel, Sel4Thread};
use bas_sel4::syscall::{Reply, Syscall};
use bas_sim::kernel::Kernel;
use bas_sim::process::{Action, Process};
use bas_sim::script::{replies, Script};

/// A server thread that answers `add(a, b)` requests forever.
struct AddServer {
    server: RpcServer,
}

impl Process for AddServer {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        match reply {
            None | Some(Reply::Ok) => Action::Syscall(self.server.next_request()),
            Some(Reply::Msg(m)) => {
                let req = self.server.decode(m);
                let sum: u64 = req.args.iter().sum();
                Action::Syscall(self.server.reply(req.label, vec![sum, req.badge]))
            }
            Some(_) => Action::Exit(1),
        }
    }

    fn name(&self) -> &str {
        "add-server"
    }
}

fn assembly() -> Assembly {
    let api = Procedure::new("adder", ["add"]);
    Assembly::new()
        .instance(
            "calc",
            Component::new("calc_server").provides("adder", api.clone()),
        )
        .instance(
            "web",
            Component::new("web_client").uses("adder", api.clone()),
        )
        .instance("ctrl", Component::new("ctrl_client").uses("adder", api))
        .rpc_connection("web_conn", ("web", "adder"), ("calc", "adder"))
        .rpc_connection("ctrl_conn", ("ctrl", "adder"), ("calc", "adder"))
}

#[test]
fn compiled_system_serves_rpc_and_verifies() {
    let a = assembly();
    let (spec, glue) = compile(&a).unwrap();

    let server_slot = glue.server_slot("calc", "adder").unwrap();
    let web_slot = glue.client_slot("web", "adder").unwrap();
    let ctrl_slot = glue.client_slot("ctrl", "adder").unwrap();

    let mut k = Sel4Kernel::new(Sel4Config::default());
    let web_client = RpcClient::new(web_slot);
    let ctrl_client = RpcClient::new(ctrl_slot);
    let (web_script, web_log) =
        Script::<Syscall, Reply>::new(vec![web_client.call(0, vec![1, 2])]).logged();
    let (ctrl_script, ctrl_log) =
        Script::<Syscall, Reply>::new(vec![ctrl_client.call(0, vec![10, 20])]).logged();

    let mut web_script = Some(web_script);
    let mut ctrl_script = Some(ctrl_script);
    let mut loader = |name: &str| -> Option<Sel4Thread> {
        match name {
            "calc" => Some(Box::new(AddServer {
                server: RpcServer::new(server_slot),
            })),
            "web" => web_script.take().map(|s| Box::new(s) as Sel4Thread),
            "ctrl" => ctrl_script.take().map(|s| Box::new(s) as Sel4Thread),
            _ => None,
        }
    };
    let sys = realize(&spec, &mut k, &mut loader).unwrap();

    // Boot-time audit: live layout matches the compiled spec exactly.
    assert_eq!(verify(&spec, &k, &sys), vec![]);

    for name in ["calc", "web", "ctrl"] {
        k.start_thread(sys.threads[name]);
    }
    k.run_to_quiescence();

    // Both clients received correct results, with their own badges echoed
    // back — the server can tell them apart without trusting any payload.
    let web_badge = glue.badge_of("web", "adder").unwrap();
    let ctrl_badge = glue.badge_of("ctrl", "adder").unwrap();
    let web_reply = replies(&web_log);
    let got = web_reply[0].message().unwrap();
    assert_eq!(got.words, vec![3, web_badge]);
    let ctrl_reply = replies(&ctrl_log);
    let got = ctrl_reply[0].message().unwrap();
    assert_eq!(got.words, vec![30, ctrl_badge]);
    assert_ne!(web_badge, ctrl_badge);

    // The server is still alive (clients exited); its capability state is
    // still exactly the spec (no leakage from serving requests).
    let issues = verify(&spec, &k, &sys);
    let calc_issues: Vec<_> = issues
        .iter()
        .filter(|i| !matches!(i, bas_capdl::VerifyIssue::ThreadMissing { name } if name != "calc"))
        .collect();
    assert!(
        calc_issues
            .iter()
            .all(|i| matches!(i, bas_capdl::VerifyIssue::ThreadMissing { .. })),
        "no capability drift on the surviving server: {calc_issues:?}"
    );
}

#[test]
fn client_without_connection_cannot_reach_server() {
    // An instance with a used-but-unconnected interface gets no capability
    // at all, so it cannot invoke anything.
    let api = Procedure::new("adder", ["add"]);
    let a = Assembly::new()
        .instance(
            "calc",
            Component::new("calc_server").provides("adder", api.clone()),
        )
        .instance("lonely", Component::new("nc").uses("adder", api));
    let (spec, glue) = compile(&a).unwrap();
    assert!(glue.client_slot("lonely", "adder").is_none());

    let mut k = Sel4Kernel::new(Sel4Config::default());
    // "lonely" tries slot 0 anyway (guessing).
    let (probe, log) = Script::<Syscall, Reply>::new(vec![Syscall::Call {
        ep: bas_sel4::cap::CPtr::new(0),
        msg: bas_sel4::message::IpcMessage::with_label(0),
    }])
    .logged();
    let mut probe = Some(probe);
    let mut loader = |name: &str| -> Option<Sel4Thread> {
        match name {
            "calc" => Some(Box::new(Script::<Syscall, Reply>::new(vec![]))),
            "lonely" => probe.take().map(|s| Box::new(s) as Sel4Thread),
            _ => None,
        }
    };
    let sys = realize(&spec, &mut k, &mut loader).unwrap();
    k.start_thread(sys.threads["lonely"]);
    k.run_to_quiescence();
    assert_eq!(
        replies(&log),
        vec![Reply::Err(bas_sel4::Sel4Error::InvalidCapability)],
        "no connection, no capability, no access"
    );
}
