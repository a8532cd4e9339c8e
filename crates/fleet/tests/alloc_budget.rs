//! Exact allocation budgets for a fleet instance's life cycle.
//!
//! A warm MINIX instance should cost the heap only the process objects
//! its boot creates — one `Box<dyn Process>` for the loader and one per
//! `fork2` — plus the slot list of the controller's memory table (its
//! log buffer's bytes are reused). Everything else — the plant, the name
//! service, the lookups, the controller's log record and directives,
//! the report — reuses what the recycled engine already holds. A counting global allocator pins
//! the number of alloc and realloc calls exactly, so these budgets
//! cannot flake under host load. This lives in its own integration-test
//! binary, with a single test, because a `#[global_allocator]` is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bas_core::scenario::{critical_alive, plant_snapshot, Platform, Scenario};
use bas_core::EngineSnapshot;
use bas_fleet::{FleetConfig, InstancePool, InstanceReport, RequestStats};
use bas_sim::time::SimDuration;

static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

impl CountingAlloc {
    fn count() {
        if COUNTING.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// and only adds bookkeeping on atomics, so `System`'s guarantees carry
// over unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CountingAlloc::count();
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CountingAlloc::count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CountingAlloc::count();
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // Frees are uncounted: the budget is allocator traffic.
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Alloc + realloc calls `f` makes.
fn calls_in(f: impl FnOnce()) -> u64 {
    CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    CALLS.load(Ordering::SeqCst)
}

/// A warm MINIX instance: the loader, its five forks and the
/// controller's memory-table slot list.
const MINIX_LIFECYCLE_CALLS: u64 = 7;
/// Ceilings on the calls a recycled engine makes over simulated
/// 60–600 s: none on any platform. Linux mq payloads and seL4 message
/// registers travel inline, as MINIX's fixed-size messages do.
const STEADY_CALLS: [(Platform, u64); 3] = [
    (Platform::Minix, 0),
    (Platform::Linux, 0),
    (Platform::Sel4, 0),
];

/// Snapshots `engine` as a fleet worker reports it.
fn report(index: usize, engine: &dyn Scenario) -> InstanceReport {
    InstanceReport {
        index,
        seed: 0,
        sim_seconds: engine.now().as_secs_f64(),
        critical_alive: critical_alive(engine),
        metrics: engine.metrics(),
        plant: plant_snapshot(engine),
        attack: None,
        requests: RequestStats::from_samples(&engine.request_samples()),
    }
}

#[test]
fn fleet_instance_allocation_budgets_hold_exactly() {
    let instance = SimDuration::from_secs(10);
    for (platform, steady_ceiling) in STEADY_CALLS {
        let config = FleetConfig::benign(platform, 8, 1);
        let snapshot = Arc::new(EngineSnapshot::capture(platform, &config.template));
        let mut pool = InstancePool::new(Some(snapshot));
        // Warm the pool's engine on a long run first, so every buffer an
        // instance fills has grown to its steady size.
        let mut engine = pool.checkout(&config, 0);
        engine.run_for(SimDuration::from_mins(10));
        pool.checkin(engine);

        // Report assembly: allocation-free on every platform.
        let mut engine = pool.checkout(&config, 1);
        engine.run_for(instance);
        let mut reports = Vec::with_capacity(1);
        let assembly = calls_in(|| reports.push(report(1, engine.as_ref())));
        assert!(reports[0].critical_alive, "{platform}");
        assert_eq!(assembly, 0, "{platform}: report assembly allocated");
        pool.checkin(engine);

        // Steady state: simulated 60–600 s of a recycled engine.
        let mut engine = pool.checkout(&config, 2);
        engine.run_for(SimDuration::from_secs(60));
        let steady = calls_in(|| engine.run_for(SimDuration::from_secs(540)));
        assert!(
            steady <= steady_ceiling,
            "{platform}: {steady} allocator calls over 540 simulated s \
             (ceiling {steady_ceiling})"
        );
        pool.checkin(engine);

        // A warm MINIX instance's whole life cycle: checkout, 10 s,
        // report, checkin.
        if platform == Platform::Minix {
            let mut slot = None;
            let lifecycle = calls_in(|| {
                let mut engine = pool.checkout(&config, 3);
                engine.run_for(instance);
                slot = Some(report(3, engine.as_ref()));
                pool.checkin(engine);
            });
            assert!(slot.is_some_and(|r| r.critical_alive));
            assert_eq!(
                lifecycle, MINIX_LIFECYCLE_CALLS,
                "warm MINIX instance: checkout -> 10 s -> report -> checkin"
            );
        }
    }
}
