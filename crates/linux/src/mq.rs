//! POSIX message queues.
//!
//! §IV-C: "On Linux, message queues are first in first out. They are
//! implemented through the virtual file system" — hence each queue lives
//! under a name with an owner and mode bits, and *that* is the entire
//! security boundary. Priorities order delivery (highest first, FIFO
//! within a priority), matching `mq_send(3)`.

use std::collections::VecDeque;
use std::sync::Arc;

use bas_sim::arena::MsgRef;

use crate::cred::{Mode, Uid};

/// Maximum message size accepted by queues in this model.
pub const MQ_MSG_MAX: usize = 256;

/// One queued message. Note what is *absent*: any kernel-verified sender
/// identity. The receiver sees only bytes and a priority.
///
/// The payload itself lives in the kernel's [`bas_sim::arena::MsgArena`];
/// the queue holds only the 8-byte slot handle, so messages move through
/// full/blocked/unblocked transitions without copying bytes. Whoever pops
/// the message (or tears the queue down) owns the slot reference and must
/// free it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MqMessage {
    /// Sender-chosen priority (higher delivered first).
    pub priority: u32,
    /// Arena handle to the payload bytes.
    pub msg: MsgRef,
}

impl MqMessage {
    /// A message of `priority` staged as `msg`.
    pub fn new(priority: u32, msg: MsgRef) -> Self {
        MqMessage { priority, msg }
    }
}

/// A named message queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageQueue {
    /// VFS name (e.g. `/mq_sensor_data`), shared with the trace records
    /// that mention the queue.
    pub name: Arc<str>,
    /// Owning uid (the creator).
    pub owner: Uid,
    /// Group uid the mode's middle triple applies to, if any.
    pub group: Option<Uid>,
    /// Permission bits.
    pub mode: Mode,
    /// Maximum queued messages (`mq_maxmsg`).
    pub capacity: usize,
    queue: VecDeque<MqMessage>,
    seq: u64,
    // (priority, insertion seq) keyed alongside messages for stable order.
    order: VecDeque<(u32, u64)>,
}

impl MessageQueue {
    /// Creates an empty queue with no group.
    pub fn new(name: impl Into<Arc<str>>, owner: Uid, mode: Mode, capacity: usize) -> Self {
        MessageQueue {
            name: name.into(),
            owner,
            group: None,
            mode,
            capacity,
            queue: VecDeque::new(),
            seq: 0,
            order: VecDeque::new(),
        }
    }

    /// Sets the group uid (builder style).
    pub fn with_group(mut self, group: Uid) -> Self {
        self.group = Some(group);
        self
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no message is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// True if the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.capacity
    }

    /// Enqueues a message in priority order (FIFO within equal priority).
    ///
    /// # Panics
    ///
    /// Panics if called on a full queue (callers check [`Self::is_full`]
    /// and block or fail first).
    pub fn push(&mut self, msg: MqMessage) {
        assert!(!self.is_full(), "push on full queue");
        let key = (msg.priority, self.seq);
        self.seq += 1;
        // Find the first position whose priority is strictly lower; equal
        // priorities keep insertion order.
        let pos = self
            .order
            .iter()
            .position(|&(p, _)| p < msg.priority)
            .unwrap_or(self.order.len());
        self.order.insert(pos, key);
        self.queue.insert(pos, msg);
    }

    /// Dequeues the highest-priority (oldest within priority) message.
    /// The caller takes over the popped message's arena slot reference.
    pub fn pop(&mut self) -> Option<MqMessage> {
        self.order.pop_front();
        self.queue.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use bas_sim::arena::MsgArena;

    use super::*;

    fn q() -> MessageQueue {
        MessageQueue::new("/q", Uid::new(1), Mode::new(0o600), 4)
    }

    fn msg(arena: &mut MsgArena, p: u32, b: u8) -> MqMessage {
        MqMessage::new(p, arena.alloc(&[b]))
    }

    fn byte(arena: &MsgArena, m: &MqMessage) -> u8 {
        arena.get(m.msg)[0]
    }

    #[test]
    fn fifo_within_priority() {
        let mut arena = MsgArena::default();
        let mut q = q();
        q.push(msg(&mut arena, 0, 1));
        q.push(msg(&mut arena, 0, 2));
        q.push(msg(&mut arena, 0, 3));
        assert_eq!(byte(&arena, &q.pop().unwrap()), 1);
        assert_eq!(byte(&arena, &q.pop().unwrap()), 2);
        assert_eq!(byte(&arena, &q.pop().unwrap()), 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn higher_priority_jumps_queue() {
        let mut arena = MsgArena::default();
        let mut q = q();
        q.push(msg(&mut arena, 0, 1));
        q.push(msg(&mut arena, 5, 2));
        q.push(msg(&mut arena, 0, 3));
        q.push(msg(&mut arena, 5, 4));
        let order: Vec<u8> = std::iter::from_fn(|| q.pop())
            .map(|m| byte(&arena, &m))
            .collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn capacity_tracked() {
        let mut arena = MsgArena::default();
        let mut q = q();
        for i in 0..4 {
            assert!(!q.is_full());
            q.push(msg(&mut arena, 0, i));
        }
        assert!(q.is_full());
        assert_eq!(q.len(), 4);
        q.pop();
        assert!(!q.is_full());
    }

    #[test]
    #[should_panic(expected = "push on full queue")]
    fn push_on_full_panics() {
        let mut arena = MsgArena::default();
        let mut q = q();
        for i in 0..5 {
            q.push(msg(&mut arena, 0, i));
        }
    }
}
