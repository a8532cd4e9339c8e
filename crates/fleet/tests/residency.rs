//! Residency guard: a fleet worker keeps one engine alive at a time, so
//! a fleet's live heap does not grow with its instance count.
//!
//! A counting global allocator tracks live and peak bytes across the
//! whole process; this file holds a single test so no other test's
//! allocations land inside the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use bas_core::scenario::Platform;
use bas_fleet::{run_fleet, FleetConfig};
use bas_sim::time::SimDuration;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

impl CountingAlloc {
    fn grew(size: usize) {
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// and only adds bookkeeping on atomics, so `System`'s guarantees carry
// over unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            CountingAlloc::grew(layout.size());
        }
        ptr
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            CountingAlloc::grew(layout.size());
        }
        ptr
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            CountingAlloc::grew(new_size);
        }
        new
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn one_worker_fleet_peak_heap_does_not_scale_with_instances() {
    let mut config = FleetConfig::benign(Platform::Minix, 256, 1);
    config.horizon = SimDuration::from_mins(10);
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let run = run_fleet(&config);
    let peak = PEAK.load(Ordering::SeqCst) - before;
    assert_eq!(run.report.per_instance.len(), 256);
    assert_eq!(run.report.totals.critical_losses, 0);
    // About 95 KB per live 10-minute instance (kernel trace plus plant
    // samples): 256 resident engines would need over 20 MiB.
    assert!(
        peak < 2 << 20,
        "256-instance fleet peaked at {peak} live heap bytes (limit 2 MiB)"
    );
}
