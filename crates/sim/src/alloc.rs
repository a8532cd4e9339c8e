//! A counting global allocator: the one meter behind every exact
//! allocation and residency number the workspace reports.
//!
//! [`CountingAlloc`] forwards every request to [`System`] and keeps four
//! counters beside it: allocator calls, cumulative bytes requested, live
//! bytes and the peak of live bytes. A measuring binary installs it as
//! its `#[global_allocator]` and reads the counters around the work it
//! measures:
//!
//! ```
//! use bas_sim::alloc::CountingAlloc;
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc::new();
//!
//! let mut v: Vec<u64> = Vec::with_capacity(4);
//! assert_eq!(ALLOC.calls_in(|| v.extend([1, 2, 3, 4])), 0);
//! let before = ALLOC.reset_peak();
//! let boxed = Box::new([0u8; 4096]);
//! assert!(ALLOC.peak() - before >= 4096);
//! drop(boxed);
//! ```
//!
//! The counters are process-wide once installed: a binary that measures
//! several windows runs them one after another, never side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator plus call, byte, live and peak counters.
///
/// Only successful (non-null) requests count. `alloc`, `alloc_zeroed`
/// and `realloc` are calls; each adds the size it asked for to the
/// cumulative bytes (a `realloc` its `new_size`), moves live bytes by
/// what it adds (a `realloc` by new − old), and raises the peak to the
/// live bytes it leaves. `dealloc` only subtracts from live bytes.
///
/// The counters publish no other data, so they use relaxed ordering;
/// each read-modify-write still sees one total order, so the peak is
/// exact. A thread reading them after joining (or otherwise
/// synchronizing with) the allocating threads sees every count.
#[derive(Debug, Default)]
pub struct CountingAlloc {
    calls: AtomicU64,
    bytes: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

impl CountingAlloc {
    /// A meter with every counter at zero.
    pub const fn new() -> Self {
        CountingAlloc {
            calls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Successful `alloc`, `alloc_zeroed` and `realloc` calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Bytes requested so far by those calls (a `realloc` counts its new
    /// size): allocator traffic, not residency.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Bytes currently allocated.
    pub fn live(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// The most bytes live at once since the last [`reset_peak`].
    ///
    /// [`reset_peak`]: CountingAlloc::reset_peak
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restarts peak tracking at the current live bytes and returns
    /// them, so `peak() - reset_peak()` is a window's residency growth.
    pub fn reset_peak(&self) -> u64 {
        let live = self.live();
        self.peak.store(live, Ordering::Relaxed);
        live
    }

    /// Allocator calls made while `f` runs, by any thread.
    pub fn calls_in(&self, f: impl FnOnce()) -> u64 {
        let before = self.calls();
        f();
        self.calls() - before
    }

    /// Counts one successful call that requested `size` bytes and left
    /// live bytes `grown` higher.
    fn counted(&self, size: usize, grown: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
        let live = self.live.fetch_add(grown as u64, Ordering::Relaxed) + grown as u64;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with its caller's arguments
// unchanged and returns `System`'s result, so `System`'s guarantees carry
// over; the counters never touch the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.counted(layout.size(), layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            self.counted(layout.size(), layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`; the
        // caller upholds the rest of `realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            let old = layout.size();
            if new_size >= old {
                self.counted(new_size, new_size - old);
            } else {
                self.counted(new_size, 0);
                self.live
                    .fetch_sub((old - new_size) as u64, Ordering::Relaxed);
            }
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        self.live.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, 8).expect("valid layout")
    }

    /// (calls, bytes, live, peak)
    fn counts(a: &CountingAlloc) -> (u64, u64, u64, u64) {
        (a.calls(), a.bytes(), a.live(), a.peak())
    }

    // A local meter, not the global allocator: its counters see only the
    // calls made on it here.
    #[test]
    fn counters_follow_every_allocator_method() {
        let a = CountingAlloc::new();
        assert_eq!(counts(&a), (0, 0, 0, 0));

        // SAFETY: the layout has a non-zero size.
        let p = unsafe { a.alloc(layout(64)) };
        assert!(!p.is_null());
        assert_eq!(counts(&a), (1, 64, 64, 64));

        // SAFETY: the layout has a non-zero size.
        let z = unsafe { a.alloc_zeroed(layout(32)) };
        assert!(!z.is_null());
        // SAFETY: `z` points at 32 initialized (zeroed) bytes.
        assert!(unsafe { std::slice::from_raw_parts(z, 32) }
            .iter()
            .all(|&b| b == 0));
        assert_eq!(counts(&a), (2, 96, 96, 96));

        // Growing: new - old joins the live bytes, new_size the traffic.
        // SAFETY: `p` came from `a` with `layout(64)`; 128 is non-zero.
        let p = unsafe { a.realloc(p, layout(64), 128) };
        assert!(!p.is_null());
        assert_eq!(counts(&a), (3, 224, 160, 160));

        // Shrinking: live bytes fall, the peak stays.
        // SAFETY: `p` now holds `layout(128)`; 16 is non-zero.
        let p = unsafe { a.realloc(p, layout(128), 16) };
        assert!(!p.is_null());
        assert_eq!(counts(&a), (4, 240, 48, 160));

        assert_eq!(a.reset_peak(), 48);
        assert_eq!(a.peak(), 48);

        // Frees are not calls and leave the peak alone.
        // SAFETY: `z` came from `a` with `layout(32)`.
        unsafe { a.dealloc(z, layout(32)) };
        assert_eq!(counts(&a), (4, 240, 16, 48));

        let calls = a.calls_in(|| {
            // SAFETY: the layout has a non-zero size, and the block is
            // freed with the layout it was allocated with.
            unsafe {
                let q = a.alloc(layout(100));
                assert!(!q.is_null());
                a.dealloc(q, layout(100));
            }
        });
        assert_eq!(calls, 1);
        assert_eq!(counts(&a), (5, 340, 16, 116));

        // SAFETY: `p` came from `a`, last reallocated to `layout(16)`.
        unsafe { a.dealloc(p, layout(16)) };
        assert_eq!(counts(&a), (5, 340, 0, 116));
    }
}
