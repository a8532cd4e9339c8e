//! Runtime glue: RPC marshaling over `seL4_Call`/`seL4_Reply`.
//!
//! "The second part of the glue code is the user-level libraries which
//! abstract IPC communication into RPCs" (§III-D). Process adapters in
//! `bas-core` use these helpers instead of hand-rolling capability
//! invocations.

use bas_sel4::cap::CPtr;
use bas_sel4::message::{DeliveredMessage, IpcMessage};
use bas_sel4::syscall::Syscall;
use bas_sim::inline::MsgWords;

/// Client-side stub for one used interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcClient {
    ep: CPtr,
}

impl RpcClient {
    /// Creates a stub invoking the endpoint capability at `ep`.
    pub fn new(ep: CPtr) -> Self {
        RpcClient { ep }
    }

    /// Builds the `seL4_Call` for method `label` with integer arguments.
    /// The kernel reply (a [`DeliveredMessage`]) is the RPC result.
    pub fn call(&self, label: u64, args: impl Into<MsgWords>) -> Syscall {
        Syscall::Call {
            ep: self.ep,
            msg: IpcMessage::with_data(label, args),
        }
    }

    /// The underlying endpoint slot.
    pub fn endpoint(&self) -> CPtr {
        self.ep
    }
}

/// Server-side stub for one provided interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcServer {
    ep: CPtr,
}

/// A decoded RPC request as seen by a server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcRequest {
    /// The caller's badge (identifies the client connection,
    /// unforgeably).
    pub badge: u64,
    /// The method label.
    pub label: u64,
    /// Integer arguments.
    pub args: MsgWords,
}

impl RpcServer {
    /// Creates a stub serving the endpoint capability at `ep`.
    pub fn new(ep: CPtr) -> Self {
        RpcServer { ep }
    }

    /// Builds the blocking receive for the next request.
    pub fn next_request(&self) -> Syscall {
        Syscall::Recv { ep: self.ep }
    }

    /// Decodes a delivered message into an [`RpcRequest`], moving its
    /// data words rather than copying them.
    pub fn decode(&self, msg: DeliveredMessage) -> RpcRequest {
        RpcRequest {
            badge: msg.badge,
            label: msg.label,
            args: msg.words,
        }
    }

    /// Builds the `seL4_Reply` answering the current request.
    pub fn reply(&self, label: u64, results: impl Into<MsgWords>) -> Syscall {
        Syscall::Reply {
            msg: IpcMessage::with_data(label, results),
        }
    }

    /// The underlying endpoint slot.
    pub fn endpoint(&self) -> CPtr {
        self.ep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_call_builds_call_syscall() {
        let c = RpcClient::new(CPtr::new(3));
        match c.call(2, vec![10, 20]) {
            Syscall::Call { ep, msg } => {
                assert_eq!(ep, CPtr::new(3));
                assert_eq!(msg.label, 2);
                assert_eq!(msg.words, vec![10, 20]);
                assert!(msg.caps.is_empty());
            }
            other => panic!("wrong syscall {other:?}"),
        }
        assert_eq!(c.endpoint(), CPtr::new(3));
    }

    #[test]
    fn server_decode_roundtrip() {
        let s = RpcServer::new(CPtr::new(0));
        assert!(matches!(s.next_request(), Syscall::Recv { ep } if ep == CPtr::new(0)));
        let req = s.decode(DeliveredMessage {
            badge: 5,
            label: 1,
            words: MsgWords::from([9]),
            received_caps: vec![],
            reply_expected: true,
        });
        assert_eq!(
            req,
            RpcRequest {
                badge: 5,
                label: 1,
                args: MsgWords::from([9])
            }
        );
        match s.reply(0, vec![42]) {
            Syscall::Reply { msg } => assert_eq!(msg.words, vec![42]),
            other => panic!("wrong syscall {other:?}"),
        }
    }
}
