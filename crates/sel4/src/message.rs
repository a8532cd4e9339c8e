//! IPC message format.
//!
//! seL4 messages are a label plus a bounded number of message registers;
//! capabilities can ride along if the endpoint capability carries `grant`.

use bas_sim::inline::MsgWords;

use crate::cap::CPtr;

/// Maximum number of data words in a message (seL4's `seL4_MsgMaxLength`
/// is 120; the scenario never needs more than a handful).
pub const MAX_MSG_WORDS: usize = 64;

/// Maximum number of capabilities transferable in one message (seL4
/// allows 3 `extraCaps`).
pub const MAX_MSG_CAPS: usize = 3;

/// An outgoing IPC message.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IpcMessage {
    /// The message label (analogous to a method/selector id).
    pub label: u64,
    /// Data words (at most [`MAX_MSG_WORDS`]; held inline up to the
    /// scenario's message size).
    pub words: MsgWords,
    /// CSpace slots (in the *sender's* CSpace) of capabilities to
    /// transfer. Requires `grant` on the endpoint capability.
    pub caps: Vec<CPtr>,
}

impl IpcMessage {
    /// An empty message with the given label.
    pub fn with_label(label: u64) -> Self {
        IpcMessage {
            label,
            words: MsgWords::new(),
            caps: Vec::new(),
        }
    }

    /// A message with label and data words.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_MSG_WORDS`] words are supplied.
    pub fn with_data(label: u64, words: impl Into<MsgWords>) -> Self {
        let words = words.into();
        assert!(
            words.len() <= MAX_MSG_WORDS,
            "message too long: {} words",
            words.len()
        );
        IpcMessage {
            label,
            words,
            caps: Vec::new(),
        }
    }

    /// Adds a capability to transfer.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_MSG_CAPS`] capabilities are attached.
    pub fn with_cap(mut self, cap: CPtr) -> Self {
        assert!(self.caps.len() < MAX_MSG_CAPS, "too many caps in message");
        self.caps.push(cap);
        self
    }
}

/// A message as delivered to a receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveredMessage {
    /// The badge of the capability the *sender* invoked — the receiver's
    /// only information about the sender's identity, and unforgeable.
    pub badge: u64,
    /// The message label.
    pub label: u64,
    /// Data words.
    pub words: MsgWords,
    /// Slots in the *receiver's* CSpace where transferred capabilities
    /// were installed.
    pub received_caps: Vec<CPtr>,
    /// True if the sender used `seL4_Call` and a reply capability is now
    /// in the receiver's reply slot.
    pub reply_expected: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let m = IpcMessage::with_data(7, vec![1, 2, 3]).with_cap(CPtr::new(4));
        assert_eq!(m.label, 7);
        assert_eq!(m.words, vec![1, 2, 3]);
        assert_eq!(m.caps, vec![CPtr::new(4)]);
    }

    #[test]
    #[should_panic(expected = "message too long")]
    fn oversized_message_rejected() {
        let _ = IpcMessage::with_data(0, vec![0u64; MAX_MSG_WORDS + 1]);
    }

    #[test]
    #[should_panic(expected = "too many caps")]
    fn too_many_caps_rejected() {
        let mut m = IpcMessage::with_label(0);
        for i in 0..=MAX_MSG_CAPS {
            m = m.with_cap(CPtr::new(i as u32));
        }
    }
}
