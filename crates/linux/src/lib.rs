//! # bas-linux — monolithic-kernel baseline
//!
//! The comparison platform of the paper's §IV-C: a Unix-like monolithic
//! kernel where the five scenario processes communicate over **POSIX
//! message queues** protected only by discretionary access control, and
//! where root is omnipotent.
//!
//! Modeled at the same enforcement points the attacks exploit:
//!
//! - [`mq`] — named message queues in a virtual filesystem namespace,
//!   guarded by owner/mode bits checked at *open* time. A delivered message
//!   carries **no kernel-verified sender identity** — any process that can
//!   open the queue for writing can claim to be anyone in the payload,
//!   which is exactly how the paper spoofs the sensor: "We successfully
//!   used the web interface process to impersonate the temperature sensor
//!   process."
//! - [`cred`] — uids with full root bypass of every DAC check ("it cannot
//!   prevent attacks with root privilege").
//! - Signals — `kill(pid)` succeeds whenever uids match or the caller is
//!   root: "the attacker can kill the temperature control process to
//!   incapacitate the whole control scenario."
//! - Devices — `/dev`-style nodes guarded by the same DAC bits, so a root
//!   attacker can even drive actuators directly.
//!
//! ```
//! use bas_linux::kernel::{LinuxConfig, LinuxKernel, MqCreate};
//! use bas_linux::syscall::{MqAccess, Reply, Syscall};
//! use bas_sim::kernel::Kernel;
//! use bas_sim::script::Script;
//!
//! let mut k = LinuxKernel::new(LinuxConfig::default());
//! k.spawn("writer", 1000, Box::new(Script::new(vec![
//!     Syscall::MqOpen {
//!         name: "/q".into(),
//!         access: MqAccess::WRITE,
//!         create: Some(MqCreate { mode: 0o622, capacity: 8 }),
//!     },
//!     Syscall::MqSend { qd: 0, data: vec![1, 2, 3], priority: 0, nonblocking: false },
//! ]))).unwrap();
//! k.run_to_quiescence();
//! assert_eq!(k.metrics().ipc_messages, 1);
//! ```

pub mod cred;
pub mod error;
pub mod kernel;
pub mod mq;
pub mod syscall;
pub mod trace;

pub use cred::{Mode, Uid};
pub use error::LinuxError;
pub use kernel::{LinuxConfig, LinuxKernel, MqCreate};
pub use mq::MqMessage;
pub use syscall::{MqAccess, Reply, Signal, Syscall};
