//! Report residency guard for tenant-traffic fleets.
//!
//! Every instance of a tenant fleet serves requests, so every report
//! carries request statistics. Those must cost the fleet only what they
//! hold: the report slot, a boxed histogram and the bins up to its
//! highest occupied one (nearly every request lands in bin 0), not a
//! dense array of every bin. A counting global allocator tracks live and
//! peak bytes across the whole process; this file holds a single test so
//! no other test's allocations land inside the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use bas_core::logic::traffic::TrafficProfile;
use bas_core::scenario::Platform;
use bas_fleet::{run_fleet, FleetConfig, InstanceReport};
use bas_sim::time::{SimDuration, SimTime};

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
fn tenant_fleet_reports_hold_only_occupied_bins() {
    // An inline histogram or request block would grow the report slot
    // every instance pays for, requests or not.
    assert!(
        std::mem::size_of::<InstanceReport>() <= 200,
        "InstanceReport is {} bytes",
        std::mem::size_of::<InstanceReport>()
    );
    const INSTANCES: usize = 1_000;
    // Per instance: the report slot plus 256 bytes for its request
    // statistics. On top: headroom for the one engine the worker runs
    // (~100 KB with its tenant schedule) and the shared snapshot.
    let limit = INSTANCES * (std::mem::size_of::<InstanceReport>() + 256) + (512 << 10);
    let mut config = FleetConfig::benign(Platform::Minix, INSTANCES, 1);
    let profile = TrafficProfile {
        duration: SimDuration::from_secs(30),
        tenants: 2,
        mean_interarrival_s: 5.0,
        ..TrafficProfile::default()
    };
    config.horizon =
        (profile.start - SimTime::ZERO) + profile.duration + SimDuration::from_secs(10);
    config.template.traffic = Some(profile);
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let run = run_fleet(&config);
    let peak = PEAK.load(Ordering::SeqCst) - before;
    assert_eq!(run.report.per_instance.len(), INSTANCES);
    assert!(
        run.report.per_instance.iter().all(|r| r.requests.is_some()),
        "every instance must report requests, or the guard measures a quiet fleet"
    );
    assert!(
        peak <= limit,
        "1-worker tenant fleet peaked at {peak} live heap bytes (limit {limit})"
    );
}
