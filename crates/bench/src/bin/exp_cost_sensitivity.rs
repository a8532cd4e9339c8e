//! E8b (sensitivity): how does the microkernel's service-call overhead
//! scale with the platform's context-switch cost? The paper's §III remark
//! is qualitative; this sweep quantifies it across cost models, from an
//! optimistic fast-switching core to a cache-hostile one.
//!
//! Run: `cargo run --release -p bas-bench --bin exp_cost_sensitivity`

use bas_acm::{AcId, AccessControlMatrix};
use bas_bench::{rule, section, Harness};
use bas_linux::kernel::{LinuxConfig, LinuxKernel};
use bas_linux::syscall::{Reply as LReply, Syscall as LSyscall};
use bas_minix::kernel::{MinixConfig, MinixKernel};
use bas_minix::message::Payload;
use bas_minix::pm;
use bas_minix::syscall::{Reply as MReply, Syscall as MSyscall};
use bas_sim::clock::CostModel;
use bas_sim::kernel::Kernel;
use bas_sim::process::{Action, Process};
use bas_sim::time::SimDuration;

struct MinixGetpid {
    remaining: u64,
}
impl Process for MinixGetpid {
    type Syscall = MSyscall;
    type Reply = MReply;
    fn resume(&mut self, _reply: Option<MReply>) -> Action<MSyscall> {
        if self.remaining == 0 {
            return Action::Exit(0);
        }
        self.remaining -= 1;
        Action::Syscall(MSyscall::SendRec {
            dest: pm::PM_ENDPOINT,
            mtype: pm::PM_GETPID,
            payload: Payload::zeroed(),
        })
    }
}

struct LinuxGetpid {
    remaining: u64,
}
impl Process for LinuxGetpid {
    type Syscall = LSyscall;
    type Reply = LReply;
    fn resume(&mut self, _reply: Option<LReply>) -> Action<LSyscall> {
        if self.remaining == 0 {
            return Action::Exit(0);
        }
        self.remaining -= 1;
        Action::Syscall(LSyscall::GetPid)
    }
}

fn minix_ns_per_op(n: u64, cost_model: CostModel) -> f64 {
    let acm = pm::allow_pm_ops(
        AccessControlMatrix::builder(),
        AcId::new(1),
        [pm::PM_GETPID],
    )
    .build();
    let mut k = MinixKernel::new(MinixConfig {
        acm,
        cost_model,
        ..MinixConfig::default()
    });
    k.disable_trace();
    k.spawn(
        "caller",
        AcId::new(1),
        0,
        Box::new(MinixGetpid { remaining: n }),
    )
    .unwrap();
    let t0 = k.now();
    k.run_to_quiescence();
    (k.now() - t0).as_nanos() as f64 / n as f64
}

fn linux_ns_per_op(n: u64, cost_model: CostModel) -> f64 {
    let mut k = LinuxKernel::new(LinuxConfig {
        cost_model,
        ..LinuxConfig::default()
    });
    k.disable_trace();
    k.spawn("caller", 1_000, Box::new(LinuxGetpid { remaining: n }))
        .unwrap();
    let t0 = k.now();
    k.run_to_quiescence();
    (k.now() - t0).as_nanos() as f64 / n as f64
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
        let minix = minix_ns_per_op(n, cost_model);
        let linux = linux_ns_per_op(n, cost_model);
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
