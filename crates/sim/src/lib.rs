//! # bas-sim — deterministic execution substrate
//!
//! This crate provides the machinery shared by all three simulated operating
//! system platforms in the BAS reproduction (`bas-minix`, `bas-sel4` and
//! `bas-linux`): a virtual clock with a configurable cost model, a
//! process-as-resumable-state-machine abstraction, a round-robin run queue,
//! a timer queue, kernel metrics, a deterministic RNG, an event trace, a
//! device bus connecting drivers to the simulated physical world, and the
//! [`kernel`] executive that runs them: the one scheduler loop, timer
//! wake-up path, refusal path and cost charging all three kernels share.
//! It also holds the workspace's only unsafe code, the counting global
//! allocator in [`alloc`] that every allocation and residency
//! measurement installs.
//!
//! ## Execution model
//!
//! A simulated user process is any type implementing [`Process`]. The kernel
//! repeatedly *resumes* the scheduled process, handing it the reply to its
//! previous system call; the process computes until its next system call and
//! returns an [`Action`]. Blocking semantics (IPC rendezvous, queue waits,
//! sleeps) are implemented by the kernel simply not resuming a process until
//! the blocking condition resolves. This yields a fully deterministic,
//! single-threaded simulation in which context switches and kernel entries
//! can be counted exactly.
//!
//! ```
//! use bas_sim::process::{Action, Process};
//!
//! /// A process that yields twice and then exits.
//! struct Idler(u32);
//!
//! impl Process for Idler {
//!     type Syscall = ();
//!     type Reply = ();
//!     fn resume(&mut self, _reply: Option<()>) -> Action<()> {
//!         if self.0 == 0 {
//!             Action::Exit(0)
//!         } else {
//!             self.0 -= 1;
//!             Action::Yield
//!         }
//!     }
//! }
//!
//! let mut p = Idler(2);
//! assert!(matches!(p.resume(None), Action::Yield));
//! assert!(matches!(p.resume(None), Action::Yield));
//! assert!(matches!(p.resume(None), Action::Exit(0)));
//! ```

pub mod alloc;
pub mod arena;
pub mod caps;
pub mod clock;
pub mod device;
pub mod fault;
pub mod fnv;
pub mod inline;
pub mod kernel;
pub mod metrics;
pub mod pool;
pub mod process;
pub mod rng;
pub mod sched;
pub mod script;
pub mod time;
pub mod timer;
pub mod trace;

pub use arena::{MsgArena, MsgRef};
pub use caps::{CapChurnOp, CapEvent, CapOp, CapRecord, CapTrace, ChurnKind};
pub use clock::{CostModel, VirtualClock};
pub use device::{Device, DeviceBus, DeviceId};
pub use fault::{FaultAction, FaultCalendar, IpcFault, IpcFaultState, SensorFaultMode};
pub use fnv::Fnv1a;
pub use kernel::{Executive, Kernel, Task};
pub use metrics::KernelMetrics;
pub use pool::WorkerPool;
pub use process::{Action, Pid, ProcState, Process};
pub use rng::SimRng;
pub use sched::RunQueue;
pub use time::{SimDuration, SimTime};
pub use timer::TimerQueue;
pub use trace::{TraceDetail, TraceEvent, TraceLog};
