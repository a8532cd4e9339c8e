//! Outside-in cost attribution: each per-operation cost timed in
//! isolation through public calls, then multiplied by the deterministic
//! operation counts a workload reports, to predict how long the traced
//! `core.run_for` calls should have taken.

use std::hint::black_box;
use std::time::Instant;

use bas_acm::fig3::{fig3_matrix, APP1, APP2};
use bas_acm::{AcId, AccessControlMatrix, MsgType};
use bas_core::scenario::Platform;
use bas_linux::cred::{Mode, Uid};
use bas_linux::mq::{MessageQueue, MqMessage};
use bas_minix::endpoint::Endpoint;
use bas_minix::kernel::{MinixConfig, MinixKernel};
use bas_minix::message::Payload;
use bas_minix::syscall::{Reply, Syscall};
use bas_plant::world::{PlantConfig, PlantWorld};
use bas_sel4::cap::{CPtr, Capability};
use bas_sel4::cspace::CSpace;
use bas_sel4::objects::ObjId;
use bas_sel4::rights::CapRights;
use bas_sim::arena::MsgArena;
use bas_sim::clock::CostModel;
use bas_sim::metrics::KernelMetrics;
use bas_sim::process::{Action, Process};
use bas_sim::time::{SimDuration, SimTime};

use crate::stats::median;

/// Timed batches per cost; the median batch is reported.
const BATCHES: usize = 7;

/// Nanoseconds per operation, each timed in isolation.
#[derive(Debug, Clone, Copy)]
pub struct Costs {
    /// `AccessControlMatrix::check` on the Fig. 3 matrix.
    pub acm_check: f64,
    /// `CSpace::lookup` of an occupied slot.
    pub cspace_lookup: f64,
    /// One `MessageQueue` push plus pop.
    pub mq_push_pop: f64,
    /// One `MsgArena` alloc plus free of a small payload.
    pub arena_alloc_free: f64,
    /// One MINIX rendezvous message in a ping-pong pair with tracing off
    /// and a free cost model: the ACM check, arena copy in and out, and
    /// dispatch of one delivered message.
    pub minix_ipc_per_msg: f64,
    /// One `PlantWorld::step_to` advance of the 100 ms lockstep chunk.
    pub plant_step: f64,
}

impl Costs {
    /// `(metric name, ns)` pairs in report order.
    pub fn metrics(&self) -> [(&'static str, f64); 6] {
        [
            ("acm.check.ns", self.acm_check),
            ("sel4.cspace_lookup.ns", self.cspace_lookup),
            ("linux.mq_push_pop.ns", self.mq_push_pop),
            ("sim.arena.alloc_free.ns", self.arena_alloc_free),
            ("minix.ipc_roundtrip.ns_per_msg", self.minix_ipc_per_msg),
            ("plant.step.ns", self.plant_step),
        ]
    }

    /// Predicted seconds of `core.run_for` for a run whose kernels
    /// reported `per_platform` counter totals and whose plants advanced
    /// `plant_steps` lockstep chunks. Each delivered message costs its
    /// platform's admission-plus-transport primitive; each denial costs
    /// one admission check.
    pub fn predict_s(&self, per_platform: &[(Platform, KernelMetrics)], plant_steps: f64) -> f64 {
        let mut ns = plant_steps * self.plant_step;
        for (platform, m) in per_platform {
            let per_msg = match platform {
                Platform::Minix => self.minix_ipc_per_msg,
                Platform::Linux => self.mq_push_pop + self.arena_alloc_free,
                Platform::Sel4 => self.cspace_lookup + self.arena_alloc_free,
            };
            ns += m.ipc_messages as f64 * per_msg + m.access_denied as f64 * self.acm_check;
        }
        ns * 1e-9
    }
}

fn per_op_ns(iters: u64, mut op: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                op();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

/// Times every primitive. `scale` divides the iteration counts (smoke
/// runs).
pub fn measure(scale: u64) -> Costs {
    let n = |iters: u64| (iters / scale).max(1);

    let acm = fig3_matrix();
    let acm_check = per_op_ns(n(200_000), || {
        black_box(acm.check(black_box(APP2), black_box(APP1), black_box(MsgType::new(2))));
    });

    let mut cs = CSpace::new(64);
    for i in 0..16 {
        cs.insert(Capability::to_object(
            ObjId::new(i),
            CapRights::RW,
            u64::from(i),
        ))
        .expect("a 64-slot CSpace holds 16 capabilities");
    }
    let cspace_lookup = per_op_ns(n(200_000), || {
        let _ = black_box(cs.lookup(black_box(CPtr::new(7))));
    });

    // The queue carries one pre-staged handle, so the arena's own cost is
    // not counted twice (it is timed on its own below).
    let mut arena = MsgArena::with_capacity(8);
    let staged = arena.alloc(&[1, 2, 3, 4]);
    let mut q = MessageQueue::new("/calib", Uid::new(1), Mode::new(0o600), 64);
    let mq_push_pop = per_op_ns(n(200_000), || {
        q.push(MqMessage::new(0, black_box(staged)));
        black_box(q.pop().expect("the message just pushed"));
    });
    arena.free(staged);
    let arena_alloc_free = per_op_ns(n(200_000), || {
        let r = arena.alloc(black_box(&[1, 2, 3, 4]));
        arena.free(black_box(r));
    });

    let messages = n(50_000);
    let minix_ipc_per_msg = per_op_ns(1, || ping_pong(messages)) / messages as f64;

    let mut world = PlantWorld::new(PlantConfig::default(), 1);
    let mut t = SimTime::ZERO;
    let plant_step = per_op_ns(n(20_000), || {
        t += SimDuration::from_millis(100);
        world.step_to(t);
        black_box(world.temperature_c());
    });

    Costs {
        acm_check,
        cspace_lookup,
        mq_push_pop,
        arena_alloc_free,
        minix_ipc_per_msg,
        plant_step,
    }
}

const PUMP: AcId = AcId::new(40);
const SINK: AcId = AcId::new(41);

/// Sends `remaining` rendezvous messages to `dest`, then exits.
struct Pump {
    dest: Endpoint,
    remaining: u64,
}

impl Process for Pump {
    type Syscall = Syscall;
    type Reply = Reply;
    fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
        if self.remaining == 0 {
            return Action::Exit(0);
        }
        self.remaining -= 1;
        Action::Syscall(Syscall::Send {
            dest: self.dest,
            mtype: 1,
            payload: Payload::zeroed(),
        })
    }
    fn name(&self) -> &str {
        "pump"
    }
}

/// Receives `remaining` messages, then exits.
struct Sink {
    remaining: u64,
}

impl Process for Sink {
    type Syscall = Syscall;
    type Reply = Reply;
    fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
        if self.remaining == 0 {
            return Action::Exit(0);
        }
        self.remaining -= 1;
        Action::Syscall(Syscall::Receive { from: None })
    }
    fn name(&self) -> &str {
        "sink"
    }
}

/// Delivers `messages` rendezvous messages between a pump and a sink.
fn ping_pong(messages: u64) {
    let acm = AccessControlMatrix::builder()
        .allow_all_types(PUMP, SINK)
        .build();
    let mut k = MinixKernel::new(MinixConfig {
        acm,
        cost_model: CostModel::free(),
        ..MinixConfig::default()
    });
    k.disable_trace();
    let sink = k
        .spawn(
            "sink",
            SINK,
            1000,
            Box::new(Sink {
                remaining: messages,
            }),
        )
        .expect("spawn sink");
    k.spawn(
        "pump",
        PUMP,
        1000,
        Box::new(Pump {
            dest: sink,
            remaining: messages,
        }),
    )
    .expect("spawn pump");
    k.run_to_quiescence();
    assert_eq!(k.metrics().ipc_messages, messages, "every message delivers");
}
