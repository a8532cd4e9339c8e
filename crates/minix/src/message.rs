//! MINIX 3 fixed-format messages.
//!
//! §III-A: "In MINIX 3, messages are fixed-size 64 byte buffers, which
//! includes a 4 byte endpoint identifier, a 4 byte message type field, and
//! 56 byte payload."

use std::fmt;

use crate::endpoint::Endpoint;

/// Size of the payload portion of a message, in bytes.
pub const PAYLOAD_LEN: usize = 56;

/// The 56-byte message payload with bounds-checked field codecs.
///
/// ```
/// use bas_minix::message::Payload;
///
/// let mut p = Payload::zeroed();
/// p.write_i32(0, -42);
/// p.write_u64(8, 7_000_000_000);
/// assert_eq!(p.read_i32(0), -42);
/// assert_eq!(p.read_u64(8), 7_000_000_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Payload([u8; PAYLOAD_LEN]);

impl Payload {
    /// An all-zero payload.
    pub const fn zeroed() -> Self {
        Payload([0; PAYLOAD_LEN])
    }

    /// Builds a payload from up to 56 leading bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than [`PAYLOAD_LEN`].
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert!(
            bytes.len() <= PAYLOAD_LEN,
            "payload too large: {}",
            bytes.len()
        );
        let mut buf = [0u8; PAYLOAD_LEN];
        buf[..bytes.len()].copy_from_slice(bytes);
        Payload(buf)
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8; PAYLOAD_LEN] {
        &self.0
    }

    /// Writes a little-endian `u32` at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + 4` exceeds the payload.
    pub fn write_u32(&mut self, offset: usize, value: u32) {
        self.0[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads a little-endian `u32` at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + 4` exceeds the payload.
    pub fn read_u32(&self, offset: usize) -> u32 {
        u32::from_le_bytes(self.0[offset..offset + 4].try_into().expect("4 bytes"))
    }

    /// Writes a little-endian `i32` at `offset`.
    pub fn write_i32(&mut self, offset: usize, value: i32) {
        self.write_u32(offset, value as u32);
    }

    /// Reads a little-endian `i32` at `offset`.
    pub fn read_i32(&self, offset: usize) -> i32 {
        self.read_u32(offset) as i32
    }

    /// Writes a little-endian `u64` at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + 8` exceeds the payload.
    pub fn write_u64(&mut self, offset: usize, value: u64) {
        self.0[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads a little-endian `u64` at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + 8` exceeds the payload.
    pub fn read_u64(&self, offset: usize) -> u64 {
        u64::from_le_bytes(self.0[offset..offset + 8].try_into().expect("8 bytes"))
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::zeroed()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print the non-zero prefix only; full 56-byte dumps drown traces.
        let last_nonzero = self.0.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        write!(f, "Payload({:02x?}…)", &self.0[..last_nonzero.min(16)])
    }
}

/// A complete 64-byte MINIX message as delivered to a receiver.
///
/// `source` is stamped by the kernel at delivery time — user processes
/// cannot forge it, which is the heart of the paper's spoofing defense:
/// "The web interface process in user land cannot change a process's
/// identity stored in the kernel PCB."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Sender endpoint, kernel-stamped.
    pub source: Endpoint,
    /// Message type (the ACM's authorization unit).
    pub mtype: u32,
    /// 56-byte payload.
    pub payload: Payload,
}

impl Message {
    /// Total wire size of a message, in bytes.
    pub const WIRE_SIZE: usize = 4 + 4 + PAYLOAD_LEN;

    /// Creates a message (used by kernel code; `source` is authoritative
    /// only when produced by the kernel).
    pub fn new(source: Endpoint, mtype: u32, payload: Payload) -> Self {
        Message {
            source,
            mtype,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_is_64_bytes() {
        assert_eq!(Message::WIRE_SIZE, 64);
        assert_eq!(PAYLOAD_LEN, 56);
    }

    #[test]
    fn payload_codecs_roundtrip() {
        let mut p = Payload::zeroed();
        p.write_u32(0, 0xdead_beef);
        p.write_i32(4, -7);
        p.write_u64(8, u64::MAX);
        assert_eq!(p.read_u32(0), 0xdead_beef);
        assert_eq!(p.read_i32(4), -7);
        assert_eq!(p.read_u64(8), u64::MAX);
    }

    #[test]
    fn payload_fields_do_not_overlap_adjacent() {
        let mut p = Payload::zeroed();
        p.write_u32(0, 1);
        p.write_u32(4, 2);
        assert_eq!(p.read_u32(0), 1);
        assert_eq!(p.read_u32(4), 2);
    }

    #[test]
    #[should_panic]
    fn payload_write_out_of_bounds_panics() {
        let mut p = Payload::zeroed();
        p.write_u64(PAYLOAD_LEN - 4, 1);
    }

    #[test]
    fn from_bytes_pads_with_zeros() {
        let p = Payload::from_bytes(&[1, 2, 3]);
        assert_eq!(p.as_bytes()[0..3], [1, 2, 3]);
        assert_eq!(p.as_bytes()[3..], [0u8; 53]);
    }

    #[test]
    #[should_panic(expected = "payload too large")]
    fn from_bytes_rejects_oversized() {
        let _ = Payload::from_bytes(&[0u8; 57]);
    }

    #[test]
    fn debug_output_is_truncated() {
        let p = Payload::from_bytes(&[0xab; 56]);
        let s = format!("{p:?}");
        assert!(s.len() < 120, "debug too long: {s}");
    }
}
