//! # bas-minix — MINIX 3 microkernel model with ACM enforcement
//!
//! A faithful functional model of the security-enhanced MINIX 3 platform
//! the paper builds (§III-A/B):
//!
//! - **Fixed-format messages** ([`message::Message`]): 64 bytes — a 4-byte
//!   source endpoint, a 4-byte message type, and a 56-byte payload — exactly
//!   the layout the paper describes.
//! - **Endpoints** ([`endpoint::Endpoint`]): "composed of the process slot
//!   number concatenated with a generation number", so a recycled slot
//!   yields a *different* endpoint and stale endpoints fail with
//!   `EDEADSRCDST`.
//! - **Rendezvous IPC** ([`kernel::MinixKernel`]): synchronous
//!   `ipc_send`/`ipc_receive`/`ipc_sendrec`, non-blocking send, and
//!   asynchronous notify, all transiting the kernel. The kernel stamps the
//!   source endpoint on delivery, so sender identity is unforgeable from
//!   user space — the property that defeats spoofing in §IV-D.2.
//! - **ACM enforcement**: the kernel consults a [`bas_acm`]
//!   [`AccessControlMatrix`](bas_acm::AccessControlMatrix) on every message
//!   transfer and drops denied requests.
//! - **PM server** ([`pm`]): fork/fork2/srv_fork2/kill/exit/getpid are only
//!   reachable as messages to the process-management server, which is
//!   itself subject to the ACM ("we incorporated the process management
//!   server with ACM auditing mechanism") and to the quota extension.
//!
//! ```
//! use bas_acm::{AcId, AccessControlMatrix, MsgType};
//! use bas_minix::kernel::{MinixConfig, MinixKernel};
//! use bas_minix::syscall::{Reply, Syscall};
//! use bas_sim::script::Script;
//!
//! // Policy: ac10 may send m1 to ac11; nothing else.
//! let acm = AccessControlMatrix::builder()
//!     .allow(AcId::new(10), AcId::new(11), [MsgType::new(1)])
//!     .build();
//! let mut k = MinixKernel::new(MinixConfig { acm, ..MinixConfig::default() });
//! let receiver = k
//!     .spawn("rx", AcId::new(11), 1000, Box::new(Script::<Syscall, Reply>::new(vec![
//!         Syscall::Receive { from: None },
//!     ])))
//!     .unwrap();
//! k.spawn("tx", AcId::new(10), 1000, Box::new(Script::<Syscall, Reply>::new(vec![
//!     Syscall::send(receiver, 1, [0u8; 0]),
//! ])))
//! .unwrap();
//! k.run_to_quiescence();
//! assert_eq!(k.metrics().ipc_messages, 1);
//! ```

pub mod endpoint;
pub mod error;
pub mod grant;
pub mod kernel;
pub mod message;
pub mod pcb;
pub mod pm;
pub mod syscall;
pub mod trace;

pub use endpoint::Endpoint;
pub use error::MinixError;
pub use grant::{BufId, GrantId, GrantPerms, MemoryTable};
pub use kernel::{MinixConfig, MinixKernel};
pub use message::{Message, Payload};
pub use pcb::{BlockReason, Pcb};
pub use syscall::{Reply, Syscall};
