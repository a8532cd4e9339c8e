//! # bas-sel4 — seL4 capability-kernel model
//!
//! A functional model of the seL4 microkernel as the paper uses it
//! (§III-C/D): "all access control policy, including IPC policy, is managed
//! with capabilities. At a high level, a capability is a token which allows
//! access to special kernel objects. [...] the kernel enforces that no
//! thread without the proper capability can access the corresponding
//! object."
//!
//! Modeled faithfully:
//!
//! - **Kernel objects** ([`objects`]): TCBs, endpoints (wait queues),
//!   notifications, and device objects.
//! - **Capabilities** ([`cap`]): object reference + [`rights::CapRights`]
//!   (`read`/`write`/`grant`) + a badge; held in per-thread
//!   [`cspace::CSpace`]s and addressed by slot ([`cap::CPtr`]).
//! - **IPC syscalls** ([`syscall`]): `seL4_Send`, `seL4_NBSend`,
//!   `seL4_Recv`, `seL4_NBRecv`, `seL4_Call` (which attaches a one-shot
//!   reply capability) and `seL4_Reply`, as described in the paper.
//! - **Capability transfer**: sending capabilities in a message requires
//!   the `grant` right on the endpoint, the only way independent processes
//!   share capabilities — the basis of the paper's argument that "if an
//!   untrusted process can only send away capabilities to trusted
//!   processes, the untrusted process could never gain more capabilities."
//! - **One admission check**: every capability-checked invocation
//!   (retype, send, call, recv, signal, wait, TCB suspend, device read
//!   and write) passes the kernel's one `admit`: look the slot up, then
//!   check the object's kind (a reply capability is the wrong kind), then
//!   the rights. A refusal records a typed `cap.deny`
//!   ([`trace::Detail::CapDeny`]): the invocation, the error and, for a
//!   rights refusal, the missing [`rights::Right`].
//! - **Confinement**: a thread can only name objects via its own CSpace;
//!   the brute-force attack of §IV-D.3 (enumerate every slot) is
//!   implemented in `bas-attack` against exactly this interface.
//!
//! There is deliberately no user/root concept: "the seL4 kernel and
//! CAmkES generated code have no concept of user or root, the attack
//! surface is limited to system calls into the seL4 kernel and
//! communication to other processes."
//!
//! ```
//! use bas_sel4::kernel::{Sel4Config, Sel4Kernel};
//! use bas_sel4::message::IpcMessage;
//! use bas_sel4::rights::CapRights;
//! use bas_sel4::syscall::{Reply, Syscall};
//! use bas_sim::kernel::Kernel;
//! use bas_sim::script::Script;
//!
//! let mut k = Sel4Kernel::new(Sel4Config::default());
//! let ep = k.create_endpoint();
//! let server = k.create_thread("server", Box::new(Script::new(vec![
//!     Syscall::Recv { ep: bas_sel4::cap::CPtr::new(0) },
//! ])));
//! let client = k.create_thread("client", Box::new(Script::new(vec![
//!     Syscall::Send { ep: bas_sel4::cap::CPtr::new(0), msg: IpcMessage::with_label(7) },
//! ])));
//! k.grant_endpoint(server, ep, CapRights::READ, 0);
//! k.grant_endpoint(client, ep, CapRights::WRITE, 42);
//! k.start_thread(server);
//! k.start_thread(client);
//! k.run_to_quiescence();
//! assert_eq!(k.metrics().ipc_messages, 1);
//! ```

pub mod cap;
pub mod cspace;
pub mod error;
pub mod kernel;
pub mod message;
pub mod objects;
pub mod rights;
pub mod syscall;
pub mod trace;

pub use cap::{CPtr, Capability};
pub use cspace::CSpace;
pub use error::Sel4Error;
pub use kernel::{Sel4Config, Sel4Kernel};
pub use message::IpcMessage;
pub use objects::{KernelObject, ObjId};
pub use rights::CapRights;
pub use syscall::{Reply, Syscall};
