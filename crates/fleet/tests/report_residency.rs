//! Report residency guard: a fleet holds each instance's report once.
//!
//! `run_fleet_with` allocates one report slot per instance up front and
//! every worker writes its range's reports into its own chunk of that
//! buffer, so the live heap of a short-instance fleet is the report
//! slots plus the workers' engines, whatever the worker count. A
//! counting global allocator tracks live and peak bytes across the whole
//! process; this file holds a single test so no other test's allocations
//! land inside the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use bas_core::scenario::Platform;
use bas_fleet::{run_fleet, FleetConfig, InstanceReport};
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
fn fleet_holds_one_report_slot_per_instance_at_any_worker_count() {
    const INSTANCES: usize = 5_000;
    // The report slots plus headroom for the engines (one per worker,
    // ~50 KB each for a 10-second instance) and the shared snapshot.
    let limit = INSTANCES * std::mem::size_of::<InstanceReport>() + (512 << 10);
    for workers in [1, 2] {
        let mut config = FleetConfig::benign(Platform::Minix, INSTANCES, workers);
        config.horizon = SimDuration::from_secs(10);
        let before = LIVE.load(Ordering::SeqCst);
        PEAK.store(before, Ordering::SeqCst);
        let run = run_fleet(&config);
        let peak = PEAK.load(Ordering::SeqCst) - before;
        assert_eq!(run.report.per_instance.len(), INSTANCES);
        assert_eq!(run.report.totals.critical_losses, 0);
        assert!(
            peak <= limit,
            "{workers}-worker fleet peaked at {peak} live heap bytes (limit {limit})"
        );
    }
}
