//! Fixed-slot message arena backing the kernels' zero-copy IPC hot paths.
//!
//! The paper's platforms move 64-byte MINIX messages and short seL4
//! message-register payloads; our simulators used to clone an owned
//! `Payload`/`Vec` every time a message crossed a queue, a blocked-sender
//! PCB, or a fault-injection stash. This module gives each kernel a
//! [`MsgArena`] of fixed [`SLOT_BYTES`]-byte slots: the payload is copied
//! *once* into a slot at the user→kernel boundary, an 8-byte [`MsgRef`]
//! handle moves through every queue and blocked state, and the bytes are
//! copied *out* once at kernel→user delivery. That matches real microkernel
//! discipline (one copy in, one copy out, nothing in between) and keeps the
//! steady-state transfer loop allocation-free.
//!
//! ## Ownership and recycling discipline
//!
//! - [`MsgArena::alloc`] returns a `MsgRef` owning one reference to the
//!   slot. [`MsgArena::dup`] adds a reference (used by the IPC `Duplicate`
//!   fault so duplication never copies bytes); [`MsgArena::free`] drops one.
//! - When the last reference is dropped the slot's *generation* is bumped
//!   and the slot returns to the free list. A stale `MsgRef` (freed, or
//!   freed-and-recycled) is detected by the generation tag: [`MsgArena::get`]
//!   panics on it and [`MsgArena::try_get`] returns `None`. Use-after-recycle
//!   therefore cannot silently read another message's bytes.
//! - Payloads larger than [`SLOT_BYTES`] take a spill path (heap `Vec`);
//!   spills and slot-table growth are counted in
//!   [`MsgArena::heap_events`], which kernels surface as the
//!   `hot_path_allocs` metric. A warm arena (every alloc served from the
//!   free list, no spills) reports zero new heap events.
//!
//! ```
//! use bas_sim::arena::MsgArena;
//!
//! let mut arena = MsgArena::new();
//! let r = arena.alloc(b"set heater 21C");
//! assert_eq!(arena.get(r), b"set heater 21C");
//! let d = arena.dup(r); // refcount 2, zero bytes copied
//! arena.free(r);
//! assert_eq!(arena.get(d), b"set heater 21C"); // still live via the dup
//! arena.free(d);
//! assert_eq!(arena.try_get(d), None); // generation tag catches the stale ref
//! ```

use serde::{Deserialize, Serialize};

use crate::inline::MsgWords;

/// Slot payload capacity, matching the MINIX wire message (64 bytes) and
/// eight seL4 message registers (8 × u64).
pub const SLOT_BYTES: usize = 64;

/// Generation-tagged handle to one message slot. 8 bytes, `Copy`: this is
/// what queues, blocked-sender PCB states and fault stashes move around
/// instead of owned payload buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MsgRef {
    index: u32,
    gen: u32,
}

impl MsgRef {
    /// Slot index (diagnostics only; the tagged accessors are the safe API).
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Generation the handle was minted under.
    pub fn generation(&self) -> u32 {
        self.gen
    }
}

/// Arena of fixed-size message slots with refcounted recycling.
///
/// Storage is struct-of-arrays: one contiguous `bytes` buffer in
/// [`SLOT_BYTES`] strides plus parallel `lens`/`gens`/`refs` columns, so the
/// transfer loop touches contiguous memory and slot metadata stays cache
/// resident.
#[derive(Debug, Clone, Default)]
pub struct MsgArena {
    bytes: Vec<u8>,
    lens: Vec<u32>,
    gens: Vec<u32>,
    refs: Vec<u32>,
    spill: Vec<Option<Vec<u8>>>,
    free: Vec<u32>,
    heap_events: u64,
    live: usize,
    /// True once any slot has ever been handed out. Every observable
    /// mutation starts with [`Self::alloc`] (free/dup need a previously
    /// allocated [`MsgRef`]), so `!dirty` proves the arena is still
    /// byte-identical to what [`Self::with_capacity`] built — letting
    /// [`Self::reset_to_capacity`] skip the rebuild on pristine arenas.
    dirty: bool,
}

impl MsgArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        MsgArena::default()
    }

    /// Creates an arena pre-warmed with `slots` free slots. Pre-warming is
    /// not counted as heap events: it happens at boot, off the hot path.
    pub fn with_capacity(slots: usize) -> Self {
        let mut a = MsgArena {
            bytes: vec![0; slots * SLOT_BYTES],
            lens: vec![0; slots],
            gens: vec![0; slots],
            refs: vec![0; slots],
            spill: vec![None; slots],
            free: Vec::with_capacity(slots.max(1)),
            heap_events: 0,
            live: 0,
            dirty: false,
        };
        // LIFO free list: slot 0 is handed out first.
        for i in (0..slots as u32).rev() {
            a.free.push(i);
        }
        a
    }

    /// Returns the arena to the state [`Self::with_capacity`]`(slots)`
    /// produces, reusing the existing allocations (the snapshot-fork boot
    /// path: a recycled kernel must be byte-identical to a cold-booted
    /// one without re-allocating its arena).
    ///
    /// The `bytes` region is deliberately *not* zeroed: `lens` is the
    /// authoritative payload extent, and every slot's bytes are written by
    /// [`Self::alloc`] before any read, so stale bytes from a previous
    /// incarnation are unobservable. Everything observable — generations,
    /// refcounts, spills, the LIFO free-list order, `heap_events`, `live`
    /// — is restored exactly.
    pub fn reset_to_capacity(&mut self, slots: usize) {
        if !self.dirty && self.gens.len() == slots {
            // Never allocated from since construction/last reset: already
            // in the exact `with_capacity(slots)` state.
            return;
        }
        self.bytes.resize(slots * SLOT_BYTES, 0);
        self.lens.clear();
        self.lens.resize(slots, 0);
        self.gens.clear();
        self.gens.resize(slots, 0);
        self.refs.clear();
        self.refs.resize(slots, 0);
        self.spill.clear();
        self.spill.resize(slots, None);
        self.free.clear();
        for i in (0..slots as u32).rev() {
            self.free.push(i);
        }
        self.heap_events = 0;
        self.live = 0;
        self.dirty = false;
    }

    fn grab_slot(&mut self) -> usize {
        if let Some(i) = self.free.pop() {
            return i as usize;
        }
        // Cold path: the working set grew past every slot ever created.
        self.heap_events += 1;
        let i = self.gens.len();
        self.bytes.resize(self.bytes.len() + SLOT_BYTES, 0);
        self.lens.push(0);
        self.gens.push(0);
        self.refs.push(0);
        self.spill.push(None);
        i
    }

    /// Copies `data` into a fresh slot (the one user→kernel copy) and
    /// returns its handle with refcount 1. Payloads larger than
    /// [`SLOT_BYTES`] spill to the heap and are counted in
    /// [`Self::heap_events`].
    pub fn alloc(&mut self, data: &[u8]) -> MsgRef {
        self.dirty = true;
        let i = self.grab_slot();
        self.refs[i] = 1;
        self.live += 1;
        if data.len() <= SLOT_BYTES {
            let start = i * SLOT_BYTES;
            self.bytes[start..start + data.len()].copy_from_slice(data);
        } else {
            self.heap_events += 1;
            self.spill[i] = Some(data.to_vec());
        }
        self.lens[i] = data.len() as u32;
        MsgRef {
            index: i as u32,
            gen: self.gens[i],
        }
    }

    /// Packs `words` little-endian into a slot (eight seL4 message
    /// registers fit exactly; longer messages spill).
    pub fn alloc_words(&mut self, words: &[u64]) -> MsgRef {
        if words.len() * 8 <= SLOT_BYTES {
            let mut buf = [0u8; SLOT_BYTES];
            for (chunk, w) in buf.chunks_exact_mut(8).zip(words) {
                chunk.copy_from_slice(&w.to_le_bytes());
            }
            self.alloc(&buf[..words.len() * 8])
        } else {
            let mut v = Vec::with_capacity(words.len() * 8);
            for w in words {
                v.extend_from_slice(&w.to_le_bytes());
            }
            self.alloc(&v)
        }
    }

    fn slot_of(&self, r: MsgRef) -> Option<usize> {
        let i = r.index as usize;
        (i < self.gens.len() && self.gens[i] == r.gen && self.refs[i] > 0).then_some(i)
    }

    /// The slot's bytes.
    ///
    /// # Panics
    ///
    /// Panics if `r` is stale (freed, or freed and recycled): the
    /// generation tag has moved on. Kernel code holding a live reference is
    /// entitled to this never firing; the panic is the use-after-recycle
    /// detector.
    pub fn get(&self, r: MsgRef) -> &[u8] {
        self.try_get(r)
            .unwrap_or_else(|| panic!("stale MsgRef {r:?}: slot was recycled"))
    }

    /// The slot's bytes, or `None` if `r` is stale.
    pub fn try_get(&self, r: MsgRef) -> Option<&[u8]> {
        let i = self.slot_of(r)?;
        Some(match &self.spill[i] {
            Some(v) => v.as_slice(),
            None => {
                let start = i * SLOT_BYTES;
                &self.bytes[start..start + self.lens[i] as usize]
            }
        })
    }

    /// Unpacks the slot as little-endian u64 words (inverse of
    /// [`Self::alloc_words`]). The one kernel→user copy on the seL4 path;
    /// a message of the scenario's size stays off the heap.
    ///
    /// # Panics
    ///
    /// Panics if `r` is stale or the payload length is not a multiple of 8.
    pub fn get_words(&self, r: MsgRef) -> MsgWords {
        let bytes = self.get(r);
        assert!(
            bytes.len().is_multiple_of(8),
            "slot holds {} bytes, not a whole number of words",
            bytes.len()
        );
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
            .collect()
    }

    /// Payload length in bytes.
    pub fn len_of(&self, r: MsgRef) -> usize {
        let i = self
            .slot_of(r)
            .unwrap_or_else(|| panic!("stale MsgRef {r:?}: slot was recycled"));
        self.lens[i] as usize
    }

    /// Adds a reference to the slot without copying any bytes (the IPC
    /// `Duplicate` fault path). Returns the same handle.
    ///
    /// # Panics
    ///
    /// Panics if `r` is stale.
    pub fn dup(&mut self, r: MsgRef) -> MsgRef {
        let i = self
            .slot_of(r)
            .unwrap_or_else(|| panic!("stale MsgRef {r:?}: cannot dup a recycled slot"));
        self.refs[i] += 1;
        r
    }

    /// Drops one reference. On the last drop the generation is bumped —
    /// invalidating every outstanding handle — and the slot is recycled.
    ///
    /// # Panics
    ///
    /// Panics if `r` is stale (double free).
    pub fn free(&mut self, r: MsgRef) {
        let i = self
            .slot_of(r)
            .unwrap_or_else(|| panic!("stale MsgRef {r:?}: double free"));
        self.refs[i] -= 1;
        if self.refs[i] == 0 {
            self.gens[i] = self.gens[i].wrapping_add(1);
            self.lens[i] = 0;
            self.spill[i] = None;
            self.free.push(i as u32);
            self.live -= 1;
        }
    }

    /// True if `r` still points at the message it was minted for.
    pub fn is_live(&self, r: MsgRef) -> bool {
        self.slot_of(r).is_some()
    }

    /// Number of live messages (dups of one slot count once).
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever created (live + free).
    pub fn slots(&self) -> usize {
        self.gens.len()
    }

    /// Cumulative heap work: slot-table growth plus oversized-payload
    /// spills. A warm arena holds this constant across ticks; kernels
    /// surface it as `KernelMetrics::hot_path_allocs`.
    pub fn heap_events(&self) -> u64 {
        self.heap_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_recycle_bumps_generation() {
        let mut a = MsgArena::new();
        let r1 = a.alloc(b"hello");
        assert_eq!(a.get(r1), b"hello");
        assert_eq!(a.len_of(r1), 5);
        a.free(r1);
        assert!(!a.is_live(r1));
        // Recycled into the same physical slot, different generation.
        let r2 = a.alloc(b"world");
        assert_eq!(r2.index(), r1.index());
        assert_ne!(r2.generation(), r1.generation());
        assert_eq!(a.try_get(r1), None);
        assert_eq!(a.get(r2), b"world");
    }

    #[test]
    fn reset_restores_with_capacity_state_observably() {
        // Exercise a pre-warmed arena hard: spills, growth past capacity,
        // frees out of order — then reset and check every observable
        // against a genuinely fresh arena by replaying one allocation
        // sequence on both.
        let mut used = MsgArena::with_capacity(4);
        let refs: Vec<MsgRef> = (0..6).map(|i| used.alloc(&[i as u8; 8])).collect();
        used.alloc(&[7u8; 200]); // spill
        used.free(refs[1]);
        used.free(refs[4]);
        assert!(used.heap_events() > 0);

        used.reset_to_capacity(4);
        let mut fresh = MsgArena::with_capacity(4);
        assert_eq!(used.slots(), fresh.slots());
        assert_eq!(used.live(), 0);
        assert_eq!(used.heap_events(), 0);
        for payload in [&b"a"[..], b"bb", b"ccc", b"dddd", b"extra"] {
            let ru = used.alloc(payload);
            let rf = fresh.alloc(payload);
            // Identical handles: same slot order, same (zeroed) generations.
            assert_eq!(ru, rf);
            assert_eq!(used.get(ru), fresh.get(rf));
        }
        assert_eq!(used.live(), fresh.live());
        assert_eq!(used.heap_events(), fresh.heap_events());
    }

    #[test]
    #[should_panic(expected = "stale MsgRef")]
    fn stale_get_panics() {
        let mut a = MsgArena::new();
        let r = a.alloc(b"x");
        a.free(r);
        let _ = a.get(r);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = MsgArena::new();
        let r = a.alloc(b"x");
        a.free(r);
        a.free(r);
    }

    #[test]
    fn dup_keeps_slot_alive_without_copying() {
        let mut a = MsgArena::new();
        let r = a.alloc(b"payload");
        let d = a.dup(r);
        a.free(r);
        assert_eq!(a.get(d), b"payload");
        assert_eq!(a.live(), 1);
        a.free(d);
        assert_eq!(a.live(), 0);
        assert_eq!(a.try_get(d), None);
    }

    #[test]
    fn words_roundtrip() {
        let mut a = MsgArena::new();
        let words = vec![1u64, 0xdead_beef, u64::MAX, 0];
        let r = a.alloc_words(&words);
        assert_eq!(a.get_words(r), words);
        assert!(!a.get_words(r).spilled());
        a.free(r);
        // Spill: more than eight registers.
        let long: Vec<u64> = (0..32).collect();
        let r = a.alloc_words(&long);
        assert_eq!(a.get_words(r), long);
        a.free(r);
    }

    #[test]
    fn spill_path_handles_oversized_payloads() {
        let mut a = MsgArena::new();
        let big = vec![7u8; 200];
        let r = a.alloc(&big);
        assert_eq!(a.get(r), big.as_slice());
        let before = a.heap_events();
        a.free(r);
        // Reusing the slot for a small payload costs no further heap work.
        let r2 = a.alloc(b"small");
        assert_eq!(a.heap_events(), before);
        assert_eq!(a.get(r2), b"small");
    }

    #[test]
    fn warm_arena_reports_zero_new_heap_events() {
        let mut a = MsgArena::with_capacity(4);
        assert_eq!(a.heap_events(), 0);
        let mut last = None;
        for i in 0..1000u32 {
            if let Some(r) = last.take() {
                a.free(r);
            }
            last = Some(a.alloc(&i.to_le_bytes()));
        }
        assert_eq!(a.heap_events(), 0, "steady-state ping-pong must be free");
    }

    #[test]
    fn growth_is_counted() {
        let mut a = MsgArena::new();
        let refs: Vec<MsgRef> = (0..10u8).map(|i| a.alloc(&[i])).collect();
        assert_eq!(a.heap_events(), 10);
        assert_eq!(a.slots(), 10);
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(a.get(*r), &[i as u8]);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        #[derive(Debug, Clone)]
        enum Op {
            Alloc(Vec<u8>),
            Dup(usize),
            Free(usize),
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                proptest::collection::vec(any::<u8>(), 0..128).prop_map(Op::Alloc),
                proptest::collection::vec(any::<u8>(), 0..128).prop_map(Op::Alloc),
                any::<usize>().prop_map(Op::Dup),
                any::<usize>().prop_map(Op::Free),
            ]
        }

        proptest! {
            /// No aliasing between live slots: every live handle always
            /// reads back exactly the bytes it was allocated with, no
            /// matter how the arena churns around it.
            #[test]
            fn live_refs_never_alias(ops in proptest::collection::vec(op_strategy(), 1..200)) {
                let mut arena = MsgArena::new();
                // Live handles with their expected contents and refcounts.
                let mut live: Vec<(MsgRef, Vec<u8>, u32)> = Vec::new();
                let mut dead: Vec<MsgRef> = Vec::new();
                for op in ops {
                    match op {
                        Op::Alloc(data) => {
                            let r = arena.alloc(&data);
                            live.push((r, data, 1));
                        }
                        Op::Dup(i) if !live.is_empty() => {
                            let i = i % live.len();
                            arena.dup(live[i].0);
                            live[i].2 += 1;
                        }
                        Op::Free(i) if !live.is_empty() => {
                            let i = i % live.len();
                            arena.free(live[i].0);
                            live[i].2 -= 1;
                            if live[i].2 == 0 {
                                let (r, _, _) = live.swap_remove(i);
                                dead.push(r);
                            }
                        }
                        _ => {}
                    }
                    for (r, expect, _) in &live {
                        prop_assert_eq!(arena.get(*r), expect.as_slice());
                    }
                    for r in &dead {
                        prop_assert_eq!(arena.try_get(*r), None);
                    }
                }
                // Distinct live handles occupy distinct slots.
                let mut seen = HashMap::new();
                for (r, _, _) in &live {
                    prop_assert!(seen.insert(r.index(), r).is_none(),
                        "two live handles share slot {}", r.index());
                }
                prop_assert_eq!(arena.live(), live.len());
            }

            /// A recycled `MsgRef` never reads the slot's new occupant: once
            /// freed, the old handle stays dead through arbitrarily many
            /// reuses of its slot.
            #[test]
            fn recycled_ref_never_reads_new_tenant(
                payloads in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 1..64), 2..40)
            ) {
                let mut arena = MsgArena::new();
                let mut stale: Vec<MsgRef> = Vec::new();
                for p in &payloads {
                    let r = arena.alloc(p);
                    prop_assert_eq!(arena.get(r), p.as_slice());
                    for old in &stale {
                        prop_assert_eq!(arena.try_get(*old), None);
                        prop_assert!(!arena.is_live(*old));
                    }
                    arena.free(r);
                    stale.push(r);
                }
                // Everything was freed; one slot served every allocation.
                prop_assert_eq!(arena.live(), 0);
                prop_assert_eq!(arena.slots(), 1);
            }
        }
    }
}
