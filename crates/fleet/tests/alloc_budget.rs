//! Exact allocation budgets and residency ceilings for fleets, under the
//! counting global allocator `bas_sim::alloc::CountingAlloc`.
//!
//! Call budgets: a warm MINIX instance should cost the heap only the
//! process objects its boot creates — one `Box<dyn Process>` for the
//! loader and one per `fork2` — plus the slot list of the controller's
//! memory table (its log buffer's bytes are reused). Everything else —
//! the plant, the name service, the lookups, the controller's log record
//! and directives, the report — reuses what the recycled engine already
//! holds. The allocator pins the number of alloc and realloc calls
//! exactly, so these budgets cannot flake under host load.
//!
//! Residency: a fleet worker keeps one engine alive at a time, and a
//! fleet holds each instance's report once (`run_fleet_with` allocates
//! one report slot per instance up front and every worker writes its
//! range's reports into its own chunk), so a fleet's peak live heap is
//! the report slots plus the workers' engines, whatever the instance or
//! worker count.
//!
//! The counters are process-wide, so this binary holds a single test
//! that runs its windows one after another.

use std::sync::Arc;

use bas_core::logic::traffic::TrafficProfile;
use bas_core::scenario::Platform;
use bas_core::EngineSnapshot;
use bas_fleet::{run_fleet, FleetConfig, FleetRun, InstancePool, InstanceReport};
use bas_sim::alloc::CountingAlloc;
use bas_sim::time::{SimDuration, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Per platform, two allocator-call budgets. First, the calls of one
/// warm instance's whole life cycle (checkout, 10 s, report, checkin),
/// exactly. On MINIX: the loader, its five forks and the controller's
/// memory-table slot list. Linux and seL4 recycling is not yet
/// allocation-free; their counts pin where it stands, so a change moves
/// them only on purpose. Second, a ceiling on the calls a recycled
/// engine makes over simulated 60–600 s: none on any platform. Linux mq
/// payloads and seL4 message registers travel inline, as MINIX's
/// fixed-size messages do.
const CALL_BUDGETS: [(Platform, u64, u64); 3] = [
    (Platform::Minix, 7, 0),
    (Platform::Linux, 63, 0),
    (Platform::Sel4, 72, 0),
];

/// Report assembly, a recycled engine's steady state and a warm
/// instance's life cycle, in allocator calls.
fn call_budgets_hold_exactly() {
    let instance = SimDuration::from_secs(10);
    for (platform, lifecycle_calls, steady_ceiling) in CALL_BUDGETS {
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
        let assembly = ALLOC.calls_in(|| {
            reports.push(InstanceReport::from_scenario(1, 0, engine.as_ref()));
        });
        assert!(reports[0].critical_alive, "{platform}");
        assert_eq!(assembly, 0, "{platform}: report assembly allocated");
        pool.checkin(engine);

        // Steady state: simulated 60–600 s of a recycled engine.
        let mut engine = pool.checkout(&config, 2);
        engine.run_for(SimDuration::from_secs(60));
        let steady = ALLOC.calls_in(|| engine.run_for(SimDuration::from_secs(540)));
        assert!(
            steady <= steady_ceiling,
            "{platform}: {steady} allocator calls over 540 simulated s \
             (ceiling {steady_ceiling})"
        );
        pool.checkin(engine);

        // A warm instance's whole life cycle: checkout, 10 s, report,
        // checkin.
        let mut slot = None;
        let lifecycle = ALLOC.calls_in(|| {
            let mut engine = pool.checkout(&config, 3);
            engine.run_for(instance);
            slot = Some(InstanceReport::from_scenario(3, 0, engine.as_ref()));
            pool.checkin(engine);
        });
        assert!(slot.is_some_and(|r| r.critical_alive));
        assert_eq!(
            lifecycle, lifecycle_calls,
            "warm {platform} instance: checkout -> 10 s -> report -> checkin"
        );
    }
}

/// Runs `config`'s fleet, returning it with the peak live heap bytes
/// above what was live when it started.
fn peak_growth(config: &FleetConfig) -> (FleetRun, u64) {
    let before = ALLOC.reset_peak();
    let run = run_fleet(config);
    (run, ALLOC.peak() - before)
}

/// A 256-instance, 10-minute fleet on one worker stays under 2 MiB.
fn one_worker_fleet_peak_heap_does_not_scale_with_instances() {
    let mut config = FleetConfig::benign(Platform::Minix, 256, 1);
    config.horizon = SimDuration::from_mins(10);
    let (run, peak) = peak_growth(&config);
    assert_eq!(run.report.per_instance.len(), 256);
    assert_eq!(run.report.totals.critical_losses, 0);
    // About 95 KB per live traced 10-minute instance (kernel trace plus
    // plant samples), about half that with the trace off as the pool
    // hands engines out: 256 resident engines would need over 10 MiB.
    assert!(
        peak < 2 << 20,
        "256-instance fleet peaked at {peak} live heap bytes (limit 2 MiB)"
    );
}

/// 5,000 short instances hold their report slots plus a bounded margin
/// at one and two workers.
fn fleet_holds_one_report_slot_per_instance_at_any_worker_count() {
    const INSTANCES: usize = 5_000;
    // The report slots plus headroom for the engines (one per worker,
    // ~50 KB each for a 10-second instance) and the shared snapshot.
    let limit = (INSTANCES * std::mem::size_of::<InstanceReport>() + (512 << 10)) as u64;
    for workers in [1, 2] {
        let mut config = FleetConfig::benign(Platform::Minix, INSTANCES, workers);
        config.horizon = SimDuration::from_secs(10);
        let (run, peak) = peak_growth(&config);
        assert_eq!(run.report.per_instance.len(), INSTANCES);
        assert_eq!(run.report.totals.critical_losses, 0);
        assert!(
            peak <= limit,
            "{workers}-worker fleet peaked at {peak} live heap bytes (limit {limit})"
        );
    }
}

/// Every instance of a tenant fleet serves requests, so every report
/// carries request statistics. Those must cost the fleet only what they
/// hold: the report slot, a boxed histogram and the bins up to its
/// highest occupied one (nearly every request lands in bin 0), not a
/// dense array of every bin.
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
    let limit = (INSTANCES * (std::mem::size_of::<InstanceReport>() + 256) + (512 << 10)) as u64;
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
    let (run, peak) = peak_growth(&config);
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

#[test]
fn fleet_allocation_budgets_and_residency_hold() {
    call_budgets_hold_exactly();
    one_worker_fleet_peak_heap_does_not_scale_with_instances();
    fleet_holds_one_report_slot_per_instance_at_any_worker_count();
    tenant_fleet_reports_hold_only_occupied_bins();
}
