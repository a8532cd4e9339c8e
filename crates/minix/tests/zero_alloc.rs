//! Steady-state IPC must never touch the heap, with the kernel trace on
//! and with capability tracing on as well.
//!
//! The arena refactor's contract is "one copy in, one copy out, zero
//! allocations": once a kernel is booted and its message arena warm,
//! the send/rendezvous/deliver loop moves 8-byte `MsgRef` handles and
//! recycles fixed slots. Typed trace records extend it to the trace: an
//! `ipc.deliver` record is a 48-byte value pushed onto the trace buffer,
//! and a timer fire pops its wakeup without building a list. This test
//! pins that contract with a counting `#[global_allocator]`: it warms a
//! ping-pong pair and a periodic sleeper up, switches the counter on
//! mid-stream, runs tens of thousands more messages and timer fires, and
//! asserts that the only allocations were the trace buffer's own
//! geometric growth. The arena's own `heap_events` counter (surfaced as
//! `KernelMetrics::hot_path_allocs`) is cross-checked against the same
//! window.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide.

use std::cell::Cell;
use std::rc::Rc;

use bas_acm::{AcId, AccessControlMatrix};
use bas_minix::endpoint::Endpoint;
use bas_minix::kernel::{MinixConfig, MinixKernel};
use bas_minix::message::Payload;
use bas_minix::syscall::{Reply, Syscall};
use bas_sim::alloc::CountingAlloc;
use bas_sim::clock::CostModel;
use bas_sim::kernel::Kernel;
use bas_sim::process::{Action, Process};
use bas_sim::time::{SimDuration, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const TX: AcId = AcId::new(10);
const RX: AcId = AcId::new(11);
const NAP: AcId = AcId::new(12);

/// Sends rendezvous messages to `dest` forever (bounded by the kernel's
/// virtual-time run window, never by the process).
struct Pump {
    dest: Endpoint,
}

impl Process for Pump {
    type Syscall = Syscall;
    type Reply = Reply;
    fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
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

/// Receives forever.
struct Sink;

impl Process for Sink {
    type Syscall = Syscall;
    type Reply = Reply;
    fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
        Action::Syscall(Syscall::Receive { from: None })
    }
    fn name(&self) -> &str {
        "sink"
    }
}

/// Sleeps 1 ms at a time forever, counting its wakeups, so every counted
/// window also exercises the kernel's timer-fire path.
struct Napper {
    wakeups: Rc<Cell<u64>>,
}

impl Process for Napper {
    type Syscall = Syscall;
    type Reply = Reply;
    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        if reply.is_some() {
            self.wakeups.set(self.wakeups.get() + 1);
        }
        Action::Syscall(Syscall::Sleep {
            duration: SimDuration::from_millis(1),
        })
    }
    fn name(&self) -> &str {
        "napper"
    }
}

/// Runs the counted ping-pong window (with capability tracing switched on
/// when `cap_trace`) and checks its allocator calls.
fn assert_steady_state_is_heap_free(cap_trace: bool) {
    let acm = AccessControlMatrix::builder()
        .allow_all_types(TX, RX)
        .build();
    // The default cost model advances virtual time per syscall, which is
    // what bounds the run windows below (the processes never exit).
    let mut k = MinixKernel::new(MinixConfig {
        acm,
        cost_model: CostModel::default(),
        ..MinixConfig::default()
    });
    let sink = k.spawn("sink", RX, 1000, Box::new(Sink)).expect("sink");
    k.spawn("pump", TX, 1000, Box::new(Pump { dest: sink }))
        .expect("pump");
    let wakeups = Rc::new(Cell::new(0));
    k.spawn(
        "napper",
        NAP,
        1000,
        Box::new(Napper {
            wakeups: wakeups.clone(),
        }),
    )
    .expect("napper");
    if cap_trace {
        k.enable_cap_trace();
    }

    // Warmup: boot-time growth (run queue words, process slots, the
    // pre-warmed arena, the timer heap) all happens here, uncounted.
    k.run_until(SimTime::ZERO + SimDuration::from_millis(50));
    let warm_messages = k.metrics().ipc_messages;
    let warm_heap_events = k.metrics().hot_path_allocs;
    let warm_events = k.trace().events().len();
    let warm_wakeups = wakeups.get();
    assert!(warm_messages > 0, "warmup must deliver messages");

    // Counted window: steady-state send/deliver traffic plus timer fires,
    // every delivery traced.
    let allocs = ALLOC.calls_in(|| k.run_until(SimTime::ZERO + SimDuration::from_millis(500)));

    let delivered = k.metrics().ipc_messages - warm_messages;
    let heap_events = k.metrics().hot_path_allocs - warm_heap_events;
    let recorded = (k.trace().events().len() - warm_events) as u64;
    let fired = wakeups.get() - warm_wakeups;
    assert!(
        delivered > 10_000,
        "counted window too small to be meaningful: {delivered} messages"
    );
    assert!(fired >= 400, "timer path barely ran: {fired} wakeups");
    assert_eq!(k.trace().dropped(), 0, "the trace must stay on and unfull");
    assert_eq!(
        k.trace().events_in("ipc.deliver").count() as u64,
        k.metrics().ipc_messages,
        "every delivery is traced"
    );
    assert_eq!(
        heap_events, 0,
        "arena reported slot growth or spills in steady state"
    );
    // The trace buffer doubles as it fills: at most one reallocation per
    // power of two of records, never one per message.
    let growth_bound = u64::from(recorded.next_power_of_two().trailing_zeros());
    assert!(
        allocs <= growth_bound,
        "steady-state IPC (capability tracing {cap_trace}) hit the global \
         allocator {allocs} time(s) across {delivered} messages and {fired} \
         timer fires; the trace buffer's growth accounts for at most \
         {growth_bound} ({recorded} records)"
    );
    if cap_trace {
        // Each delivery is one record standing for its use and receive.
        assert_eq!(
            k.trace().events_in("cap.use").count() as u64,
            k.metrics().ipc_messages,
            "every delivery is a capability use"
        );
    }
}

// One test runs both cases in turn: the counting allocator is
// process-wide, so the two windows must never overlap.
#[test]
fn steady_state_ipc_does_not_allocate() {
    assert_steady_state_is_heap_free(false);
    // Capability records are typed too: checks and uses add records,
    // never strings.
    assert_steady_state_is_heap_free(true);
}
