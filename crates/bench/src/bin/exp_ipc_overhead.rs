//! E8 (§III performance remark): "the microkernel approach generally
//! under-performs the monolithic due to the multiple context switches."
//!
//! Measures, per platform, the exact kernel-entry and context-switch
//! counts and the modeled virtual time for (a) an RPC round trip between
//! two processes and (b) a trivial kernel service call (`getpid`), which
//! on MINIX is itself a message to the PM server.
//!
//! Run: `cargo run --release -p bas-bench --bin exp_ipc_overhead`

use bas_bench::ipc::IpcFixture;
use bas_bench::{rule, section, Harness};
use bas_fleet::Json;
use bas_sim::clock::CostModel;

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

    table(&format!(
        "RPC round-trip cost, averaged over {n} round trips"
    ));
    rows.push(report(
        "rpc_roundtrip",
        "minix3+acm",
        n,
        IpcFixture::MinixRoundTrip,
    ));
    rows.push(report(
        "rpc_roundtrip",
        "sel4/camkes",
        n,
        IpcFixture::Sel4RoundTrip,
    ));
    rows.push(report(
        "rpc_roundtrip",
        "linux (mq)",
        n,
        IpcFixture::LinuxRoundTrip,
    ));

    table(&format!(
        "getpid()-class service call, averaged over {n} calls"
    ));
    rows.push(report(
        "getpid",
        "minix3 (via PM)",
        n,
        IpcFixture::MinixGetpid,
    ));
    rows.push(report(
        "getpid",
        "linux (direct)",
        n,
        IpcFixture::LinuxGetpid,
    ));
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

fn table(title: &str) {
    section(title);
    println!(
        "{:<18} {:>16} {:>16} {:>16}",
        "platform", "ctx-switch/op", "kernel-entry/op", "virtual-ns/op"
    );
    rule();
}

fn report(group: &'static str, label: &'static str, n: u64, fixture: IpcFixture) -> Row {
    let cost = fixture.run(n, CostModel::default());
    let row = Row {
        group,
        label,
        ops: n,
        ctx_per_op: cost.metrics.context_switches as f64 / n as f64,
        kentry_per_op: cost.metrics.kernel_entries as f64 / n as f64,
        ns_per_op: cost.virtual_ns as f64 / n as f64,
    };
    println!(
        "{:<18} {:>16.2} {:>16.2} {:>16.1}",
        label, row.ctx_per_op, row.kentry_per_op, row.ns_per_op,
    );
    row
}
