//! MINIX endpoints: process-slot number plus generation.
//!
//! §III-A: "An endpoint identifies a process uniquely among the operating
//! system. It is composed of the process slot number concatenated with a
//! generation number for IPC addressing which is stored in the PCB."

use std::fmt;

/// A MINIX IPC address.
///
/// The generation number makes endpoints *temporally* unique: when a slot
/// is reused after a process dies, the generation increments, so messages
/// addressed to the dead process cannot reach its successor.
///
/// ```
/// use bas_minix::endpoint::Endpoint;
///
/// let e = Endpoint::new(5, 2);
/// assert_eq!(e.slot(), 5);
/// assert_eq!(e.generation(), 2);
/// assert_eq!(Endpoint::from_raw(e.as_raw()), e);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Endpoint {
    slot: u16,
    generation: u16,
}

impl Endpoint {
    /// Creates an endpoint from slot and generation.
    pub const fn new(slot: u16, generation: u16) -> Self {
        Endpoint { slot, generation }
    }

    /// The process-table slot.
    pub const fn slot(self) -> u16 {
        self.slot
    }

    /// The slot's generation at endpoint creation.
    pub const fn generation(self) -> u16 {
        self.generation
    }

    /// Packs the endpoint into the 4-byte wire form used in message
    /// headers (slot in the high half-word).
    pub const fn as_raw(self) -> u32 {
        (self.slot as u32) << 16 | self.generation as u32
    }

    /// Unpacks a wire-form endpoint.
    pub const fn from_raw(raw: u32) -> Self {
        Endpoint {
            slot: (raw >> 16) as u16,
            generation: raw as u16,
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep{}.{}", self.slot, self.generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_roundtrip_covers_extremes() {
        for (slot, generation) in [(0, 0), (1, 0), (0xffff, 0xffff), (7, 32_000)] {
            let e = Endpoint::new(slot, generation);
            assert_eq!(Endpoint::from_raw(e.as_raw()), e);
        }
    }

    #[test]
    fn different_generations_differ() {
        assert_ne!(Endpoint::new(3, 0), Endpoint::new(3, 1));
        assert_ne!(Endpoint::new(3, 0).as_raw(), Endpoint::new(3, 1).as_raw());
    }

    #[test]
    fn display_shows_slot_and_generation() {
        assert_eq!(format!("{}", Endpoint::new(4, 9)), "ep4.9");
    }
}
