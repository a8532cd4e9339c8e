//! The paper's seL4 system "added two additional timer driver processes
//! for demonstration purposes" (§IV-B). This test builds that pattern: a
//! timer driver thread paces a worker through a notification object,
//! demonstrating Signal/Wait as the timing mechanism rather than a kernel
//! sleep in the worker itself.

use bas_sel4::cap::{CPtr, Capability};
use bas_sel4::kernel::{Sel4Config, Sel4Kernel};
use bas_sel4::rights::CapRights;
use bas_sel4::syscall::{Reply, Syscall};
use bas_sim::kernel::Kernel;
use bas_sim::process::{Action, Process};
use bas_sim::time::{SimDuration, SimTime};

/// Timer driver: sleeps one period, signals the notification, repeats.
struct TimerDriver {
    ntfn: CPtr,
    period: SimDuration,
    ticks_left: u32,
    sleeping: bool,
}

impl Process for TimerDriver {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
        if self.ticks_left == 0 {
            return Action::Exit(0);
        }
        if self.sleeping {
            self.sleeping = false;
            self.ticks_left -= 1;
            Action::Syscall(Syscall::Signal { ntfn: self.ntfn })
        } else {
            self.sleeping = true;
            Action::Syscall(Syscall::Sleep {
                duration: self.period,
            })
        }
    }

    fn name(&self) -> &str {
        "timer_driver"
    }
}

/// Worker: waits on the notification each cycle and records the virtual
/// time of each tick.
struct PacedWorker {
    ntfn: CPtr,
    tick_times: std::rc::Rc<std::cell::RefCell<Vec<SimTime>>>,
    awaiting_time: bool,
}

impl Process for PacedWorker {
    type Syscall = Syscall;
    type Reply = Reply;

    fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
        if self.awaiting_time {
            self.awaiting_time = false;
            if let Some(Reply::Time(t)) = reply {
                self.tick_times.borrow_mut().push(t);
            }
            return Action::Syscall(Syscall::Wait { ntfn: self.ntfn });
        }
        match reply {
            Some(Reply::Msg(_)) => {
                self.awaiting_time = true;
                Action::Syscall(Syscall::GetTime)
            }
            _ => Action::Syscall(Syscall::Wait { ntfn: self.ntfn }),
        }
    }

    fn name(&self) -> &str {
        "paced_worker"
    }
}

#[test]
fn notification_timer_paces_worker_at_the_period() {
    let mut k = Sel4Kernel::new(Sel4Config::default());
    let ntfn = k.create_notification();

    let ticks = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let worker = k.create_thread(
        "worker",
        Box::new(PacedWorker {
            ntfn: CPtr::new(0),
            tick_times: ticks.clone(),
            awaiting_time: false,
        }),
    );
    let timer = k.create_thread(
        "timer",
        Box::new(TimerDriver {
            ntfn: CPtr::new(0),
            period: SimDuration::from_secs(1),
            ticks_left: 10,
            sleeping: false,
        }),
    );
    k.grant_cap(worker, Capability::to_object(ntfn, CapRights::READ, 0))
        .unwrap();
    k.grant_cap(timer, Capability::to_object(ntfn, CapRights::WRITE, 1))
        .unwrap();
    k.start_thread(worker);
    k.start_thread(timer);
    k.run_to_quiescence();

    let times = ticks.borrow();
    assert_eq!(times.len(), 10, "one wakeup per signal");
    for pair in times.windows(2) {
        let gap = pair[1].saturating_since(pair[0]);
        let gap_ms = gap.as_millis();
        assert!(
            (990..=1_010).contains(&gap_ms),
            "tick spacing {gap_ms}ms should be ~1000ms"
        );
    }
}

#[test]
fn signals_coalesce_when_worker_is_busy() {
    // Notifications are binary semaphores: several signals arriving while
    // nobody waits collapse into one pending word (bits ORed).
    let mut k = Sel4Kernel::new(Sel4Config::default());
    let ntfn = k.create_notification();

    // Signal three times before anyone waits.
    let signaler = k.create_thread(
        "signaler",
        Box::new(bas_sim::script::Script::<Syscall, Reply>::new(vec![
            Syscall::Signal { ntfn: CPtr::new(0) },
            Syscall::Signal { ntfn: CPtr::new(0) },
            Syscall::Signal { ntfn: CPtr::new(0) },
        ])),
    );
    k.grant_cap(
        signaler,
        Capability::to_object(ntfn, CapRights::WRITE, 0b10),
    )
    .unwrap();
    k.start_thread(signaler);
    k.run_to_quiescence();

    // Now a waiter arrives: it consumes the coalesced word at once...
    let (waiter, log) = bas_sim::script::Script::<Syscall, Reply>::new(vec![
        Syscall::Wait { ntfn: CPtr::new(0) },
        Syscall::NBRecv { ep: CPtr::new(0) }, // wrong type probe (fails; shows nothing pending)
    ])
    .logged();
    let waiter_pid = k.create_thread("waiter", Box::new(waiter));
    k.grant_cap(waiter_pid, Capability::to_object(ntfn, CapRights::READ, 0))
        .unwrap();
    k.start_thread(waiter_pid);
    k.run_to_quiescence();

    let got = bas_sim::script::replies(&log);
    let first = got[0].message().expect("coalesced signal delivered");
    assert_eq!(first.badge, 0b10, "signal bits from the badge, ORed once");
}
