//! E8b (sensitivity): how does the microkernel's service-call overhead
//! scale with the platform's context-switch cost? The paper's §III remark
//! is qualitative; this sweep quantifies it across cost models, from an
//! optimistic fast-switching core to a cache-hostile one.
//!
//! Run: `cargo run --release -p bas-bench --bin exp_cost_sensitivity`

use bas_bench::ipc::IpcFixture;
use bas_bench::{rule, section, Harness};
use bas_sim::clock::CostModel;
use bas_sim::time::SimDuration;

fn ns_per_op(fixture: IpcFixture, n: u64, cost_model: CostModel) -> f64 {
    fixture.run(n, cost_model).virtual_ns as f64 / n as f64
}

fn main() {
    let h = Harness::new("cost_sensitivity");
    let n = h.scale(10_000, 500);
    section(&format!(
        "microkernel service-call overhead vs context-switch cost (getpid, {n} calls)"
    ));
    println!(
        "{:>16} {:>18} {:>18} {:>10}",
        "ctx-switch[ns]", "minix-via-PM[ns]", "linux-direct[ns]", "overhead"
    );
    rule();
    for ctx_ns in [200u64, 500, 1_000, 2_000, 5_000, 10_000, 20_000] {
        let cost_model = CostModel {
            context_switch: SimDuration::from_nanos(ctx_ns),
            ..CostModel::default()
        };
        let minix = ns_per_op(IpcFixture::MinixGetpid, n, cost_model);
        let linux = ns_per_op(IpcFixture::LinuxGetpid, n, cost_model);
        println!(
            "{:>16} {:>18.1} {:>18.1} {:>9.2}x",
            ctx_ns,
            minix,
            linux,
            minix / linux
        );
    }
    rule();
    println!(
        "reading: the monolithic kernel's service-call cost is flat in the context-switch\n\
         price (no switch happens), while the microkernel's grows linearly with it (two\n\
         switches per PM message) — the quantitative form of §III's \"multiple context\n\
         switches\" remark, and the knob hardware vendors actually tune (ASIDs, tagged\n\
         TLBs) to make microkernels viable."
    );
}
