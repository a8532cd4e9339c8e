//! E13 (extension): fleet scaling. Runs N independent building
//! instances — each a full kernel stack plus plant with its own derived
//! seed — across a worker pool, sweeping fleet size × worker
//! count, and prints the throughput scaling curve. The deterministic
//! `FleetReport` of the largest fleet is embedded in `BENCH_fleet.json`
//! (the wall-clock sweep numbers vary run to run; the report never
//! does).
//!
//! The sweep also measures the raw kernel IPC hot path in isolation: a
//! MINIX ping-pong pair exchanging rendezvous messages with a free cost
//! model, so the number reflects the arena send/deliver path (one copy
//! in, one copy out, zero steady-state allocations) rather than plant
//! physics. It runs twice: with the kernel trace off
//! (`messages_per_second`) and on, as every scenario runs it
//! (`traced_messages_per_second`, one typed `ipc.deliver` record per
//! message). `ci.sh` gates both rates and the fleet throughput against
//! `BENCH_fleet_baseline.json`.
//!
//! On top of the throughput sweep, the binary benchmarks the *boot
//! path* under the counting global allocator of `bas_sim::alloc`: cold
//! `boot_platform` per instance versus the snapshot/fork path (one warm
//! template, instances forked and recycled through an `InstancePool`).
//! Full mode drives the boot schedule of a 100,000-instance benign fleet
//! through one pool on one thread and asserts snapshot boot is ≥5x
//! lighter in allocated bytes per instance than cold boot (MINIX, the
//! default platform).
//! `ci.sh` gates the wall-clock side: `boot_speedup` (≥10x in full
//! mode) and `boot_instances_per_sec` and `bytes_per_instance` against
//! the committed baseline.
//!
//! The same allocator tracks live bytes, so the sweep also reports
//! `fleet_peak_live_bytes`: the peak live heap while the largest fleet
//! runs on one worker. Each worker runs its instances one at a time on
//! one recycled engine, so the number does not grow with the fleet;
//! being a byte count rather than a rate, `ci.sh` gates it against a
//! fixed ceiling.
//!
//! The allocator also counts calls, and the binary reports two exact
//! allocation budgets: `lifecycle_allocs_per_instance`, the alloc and
//! realloc calls of one warm MINIX instance (checkout, 10 simulated s,
//! report, checkin), with `linux_lifecycle_allocs_per_instance` and
//! `sel4_lifecycle_allocs_per_instance` the same on the other two
//! platforms, and `<platform>_steady_allocs_per_sim_second`, the
//! calls a recycled engine makes per simulated second between 60 s and
//! 600 s. Both are counts, not timings, so `ci.sh` gates the MINIX
//! life cycle and every platform's steady state with plain-number
//! ceilings that host load cannot trip.
//!
//! Two exact work ceilings ride along, per platform, for one quiet
//! 10-minute instance: `<platform>_kernel_entries_per_sim_second` and
//! `<platform>_plant_commits_per_sim_second`, the segments the plant
//! commits (one per input change). `ci.sh` gates them the same way.
//!
//! Run: `cargo run --release -p bas-bench --bin exp_fleet_scale [-- --quick --platform minix]`

use std::sync::Arc;
use std::time::Instant;

use bas_acm::{AcId, AccessControlMatrix};
use bas_bench::{rule, section, Harness};
use bas_core::scenario::{Platform, ScenarioConfig};
use bas_core::EngineSnapshot;
use bas_fleet::{
    instance_seed, run_fleet_with, FleetConfig, InstancePool, InstanceReport, Json, WorkerPool,
    DEFAULT_MAX_RESIDENT,
};
use bas_minix::endpoint::Endpoint;
use bas_minix::kernel::{MinixConfig, MinixKernel};
use bas_minix::message::Payload;
use bas_minix::syscall::{Reply, Syscall};
use bas_sim::alloc::CountingAlloc;
use bas_sim::clock::CostModel;
use bas_sim::kernel::Kernel;
use bas_sim::process::{Action, Process};
use bas_sim::time::SimDuration;

/// The boot benchmark reads byte and call deltas around each boot loop,
/// so `bytes_per_instance` counts every allocation a boot performs
/// (allocator traffic, not residency); the fleet sweep reads the live
/// peak for `fleet_peak_live_bytes`.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The two allocation budgets on `platform`: mean allocator calls per
/// warm instance life cycle (checkout, 10 simulated s, report, checkin)
/// over `instances` instances, and the calls per simulated second a
/// recycled engine makes between 60 s and 600 s.
fn alloc_budget(platform: Platform, instances: usize) -> (f64, f64) {
    let config = FleetConfig::benign(platform, instances, 1);
    let snapshot = Arc::new(EngineSnapshot::capture(platform, &config.template));
    let mut pool = InstancePool::new(Some(snapshot));
    // One long run first, so every buffer an instance fills has grown to
    // its steady size.
    let mut engine = pool.checkout(&config, 0);
    engine.run_for(SimDuration::from_mins(10));
    pool.checkin(engine);

    let mut engine = pool.checkout(&config, 1);
    engine.run_for(SimDuration::from_secs(60));
    let steady = ALLOC.calls_in(|| engine.run_for(SimDuration::from_secs(540)));
    pool.checkin(engine);

    let mut reports = Vec::with_capacity(instances);
    let lifecycle = ALLOC.calls_in(|| {
        for index in 0..instances {
            let mut engine = pool.checkout(&config, index);
            engine.run_for(SimDuration::from_secs(10));
            let seed = instance_seed(config.root_seed, index);
            reports.push(InstanceReport::from_scenario(index, seed, engine.as_ref()));
            pool.checkin(engine);
        }
    });
    assert!(reports.iter().all(|r| r.critical_alive));
    (lifecycle as f64 / instances as f64, steady as f64 / 540.0)
}

/// Kernel entries and plant commits per simulated second of one quiet
/// 10-minute instance on `platform`: exact work counts, not timings.
fn work_per_sim_second(platform: Platform) -> (f64, f64) {
    let horizon = SimDuration::from_mins(10);
    let mut scenario = bas_core::boot_platform(platform, &ScenarioConfig::quiet());
    scenario.run_for(horizon);
    let secs = horizon.as_secs_f64();
    let commits = scenario.plant().borrow().commits();
    (
        scenario.metrics().kernel_entries as f64 / secs,
        commits as f64 / secs,
    )
}

const PUMP_ID: AcId = AcId::new(40);
const SINK_ID: AcId = AcId::new(41);

/// Sends `remaining` rendezvous messages to `dest`, then exits.
struct Pump {
    dest: Endpoint,
    remaining: u64,
}

impl Process for Pump {
    type Syscall = Syscall;
    type Reply = Reply;
    fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
        if self.remaining == 0 {
            return Action::Exit(0);
        }
        self.remaining -= 1;
        Action::Syscall(Syscall::Send {
            dest: self.dest,
            mtype: 1,
            payload: Payload::zeroed(),
        })
    }
    fn name(&self) -> &str {
        "pump"
    }
}

/// Receives `remaining` messages, then exits.
struct Sink {
    remaining: u64,
}

impl Process for Sink {
    type Syscall = Syscall;
    type Reply = Reply;
    fn resume(&mut self, _reply: Option<Reply>) -> Action<Syscall> {
        if self.remaining == 0 {
            return Action::Exit(0);
        }
        self.remaining -= 1;
        Action::Syscall(Syscall::Receive { from: None })
    }
    fn name(&self) -> &str {
        "sink"
    }
}

/// Ping-pongs `messages` rendezvous messages through one MINIX kernel
/// with a free cost model, returning (wall seconds, arena heap events).
/// This is the IPC hot path with nothing else on it: stage payload into
/// an arena slot, rendezvous, copy out, recycle — plus, when `traced`,
/// the kernel trace's `ipc.deliver` record for each message.
fn ipc_hot_path(messages: u64, traced: bool) -> (f64, u64) {
    let acm = AccessControlMatrix::builder()
        .allow_all_types(PUMP_ID, SINK_ID)
        .build();
    let mut k = MinixKernel::new(MinixConfig {
        acm,
        cost_model: CostModel::free(),
        // Keep every record: a dropped one would skip the cost measured.
        trace_capacity: usize::MAX,
        ..MinixConfig::default()
    });
    if !traced {
        k.disable_trace();
    }
    let sink = k
        .spawn(
            "sink",
            SINK_ID,
            1000,
            Box::new(Sink {
                remaining: messages,
            }),
        )
        .expect("spawn sink");
    k.spawn(
        "pump",
        PUMP_ID,
        1000,
        Box::new(Pump {
            dest: sink,
            remaining: messages,
        }),
    )
    .expect("spawn pump");
    let t0 = Instant::now();
    k.run_to_quiescence();
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(
        k.metrics().ipc_messages,
        messages,
        "every ping-pong message must deliver"
    );
    assert_eq!(
        k.trace().events_in("ipc.deliver").count() as u64,
        if traced { messages } else { 0 },
        "the traced run records every delivery"
    );
    (wall, k.metrics().hot_path_allocs)
}

fn main() {
    let h = Harness::new("fleet");
    // One platform keeps the sweep readable; default MINIX (the paper's
    // primary platform), overridable with --platform.
    let platform = h.platform_filter().unwrap_or(Platform::Minix);
    // The largest fleet is always >= 16 instances so the worker-scaling
    // assertion below exercises batches big enough to amortize dispatch;
    // full mode ends on the 256-instance fleet the BENCH gate quotes.
    let (sizes, workers): (&[usize], &[usize]) = if h.quick() {
        (&[1, 16], &[1, 2])
    } else {
        (&[1, 16, 64, 256], &[1, 2, 4, 8])
    };
    let horizon = SimDuration::from_mins(if h.quick() { 10 } else { 30 });

    // ------------------------------------------------------------------
    // Raw IPC hot path: the arena send/deliver cycle in isolation.
    // ------------------------------------------------------------------
    section("IPC hot path: MINIX rendezvous ping-pong (free cost model)");
    let hot_messages: u64 = if h.quick() { 200_000 } else { 1_000_000 };
    let (hot_wall, hot_heap_events) = ipc_hot_path(hot_messages, false);
    let hot_rate = hot_messages as f64 / hot_wall.max(1e-9);
    let (traced_wall, traced_heap_events) = ipc_hot_path(hot_messages, true);
    let traced_rate = hot_messages as f64 / traced_wall.max(1e-9);
    assert_eq!(
        hot_heap_events + traced_heap_events,
        0,
        "steady-state IPC must not touch the allocator (arena pre-warm)"
    );
    println!(
        "trace off: {hot_messages} messages in {:.3}s: {:.2}M msg/s, {hot_heap_events} heap events",
        hot_wall,
        hot_rate / 1e6
    );
    println!(
        "trace on:  {hot_messages} messages in {:.3}s: {:.2}M msg/s ({:.0}% of trace-off)",
        traced_wall,
        traced_rate / 1e6,
        100.0 * traced_rate / hot_rate
    );

    // ------------------------------------------------------------------
    // Boot path: cold vs snapshot/fork, one thread, counting allocator.
    // ------------------------------------------------------------------
    let boot_instances = h.scale(100_000, 10_000) as usize;
    let cold_iters = h.scale(2_000, 500) as usize;
    section(&format!(
        "boot path on {platform}: cold boot ({cold_iters} instances) vs snapshot/fork \
         ({boot_instances}-instance fleet boot schedule, one thread)"
    ));
    let template = ScenarioConfig::quiet();
    // Warm once so lazy one-time initialization stays out of both deltas.
    std::hint::black_box(&bas_core::boot_platform(platform, &template));

    let (bytes0, calls0) = (ALLOC.bytes(), ALLOC.calls());
    let t0 = Instant::now();
    for i in 0..cold_iters {
        let mut cfg = template.clone();
        cfg.seed = instance_seed(42, i);
        std::hint::black_box(&bas_core::boot_platform(platform, &cfg));
    }
    let cold_wall = t0.elapsed().as_secs_f64();
    let cold_bytes = ALLOC.bytes() - bytes0;
    let cold_calls = ALLOC.calls() - calls0;
    let cold_rate = cold_iters as f64 / cold_wall.max(1e-9);
    let cold_bpi = cold_bytes as f64 / cold_iters as f64;

    // Snapshot/fork: capture the warm template once (inside the timed
    // region — it is part of the snapshot path's cost), then run the
    // whole fleet's boot schedule through one InstancePool in cohorts of
    // DEFAULT_MAX_RESIDENT. The first cohort forks fresh engines; every
    // later cohort recycles checked-in ones, which is the steady state a
    // 100k-instance fleet spends >99% of its boots in.
    let boot_config = FleetConfig::benign(platform, boot_instances, 1);
    let (bytes0, calls0) = (ALLOC.bytes(), ALLOC.calls());
    let t0 = Instant::now();
    let snapshot = Arc::new(EngineSnapshot::capture(platform, &template));
    let mut instance_pool = InstancePool::new(Some(snapshot));
    let mut cohort = Vec::with_capacity(DEFAULT_MAX_RESIDENT);
    let mut booted = 0usize;
    while booted < boot_instances {
        let n = DEFAULT_MAX_RESIDENT.min(boot_instances - booted);
        for k in 0..n {
            cohort.push(instance_pool.checkout(&boot_config, booted + k));
        }
        booted += n;
        for engine in cohort.drain(..) {
            instance_pool.checkin(engine);
        }
    }
    let snap_wall = t0.elapsed().as_secs_f64();
    let snap_bytes = ALLOC.bytes() - bytes0;
    let snap_calls = ALLOC.calls() - calls0;
    let boot_rate = boot_instances as f64 / snap_wall.max(1e-9);
    let snap_bpi = snap_bytes as f64 / boot_instances as f64;
    let boot_speedup = boot_rate / cold_rate.max(1e-9);
    let bytes_ratio = cold_bpi / snap_bpi.max(1e-9);

    println!(
        "{:<10} {:>10} {:>14} {:>16} {:>14}",
        "path", "boots", "boots/sec", "bytes/instance", "allocs/instance"
    );
    rule();
    println!(
        "{:<10} {:>10} {:>14.0} {:>16.0} {:>14.1}",
        "cold",
        cold_iters,
        cold_rate,
        cold_bpi,
        cold_calls as f64 / cold_iters as f64
    );
    println!(
        "{:<10} {:>10} {:>14.0} {:>16.0} {:>14.1}",
        "snapshot",
        boot_instances,
        boot_rate,
        snap_bpi,
        snap_calls as f64 / boot_instances as f64
    );
    println!(
        "snapshot vs cold: {boot_speedup:.1}x faster, {bytes_ratio:.1}x fewer allocated bytes \
         ({} forked fresh, {} recycled)",
        instance_pool.materialized(),
        instance_pool.recycled()
    );
    // The pool must have served the entire schedule, forking at most one
    // cohort's worth of engines and recycling everything else.
    assert_eq!(
        instance_pool.materialized() + instance_pool.recycled(),
        boot_instances as u64
    );
    assert!(instance_pool.materialized() <= DEFAULT_MAX_RESIDENT as u64);
    // The >=10x wall-clock speedup is `ci.sh`'s gate on `boot_speedup`;
    // the byte ratio is an exact count and holds on any host.
    if !h.quick() && platform == Platform::Minix {
        assert!(
            bytes_ratio >= 5.0,
            "snapshot boot must allocate >=5x fewer bytes per instance, got {bytes_ratio:.1}x"
        );
    }

    // ------------------------------------------------------------------
    // Allocation budgets: exact allocator-call counts, one thread.
    // ------------------------------------------------------------------
    section("allocation budgets: allocator calls per warm instance and per simulated second");
    let budget_instances = h.scale(1_000, 100) as usize;
    println!(
        "{:<12} {:>24} {:>24}",
        "platform", "calls/instance (10 s)", "calls/sim-s (60-600 s)"
    );
    rule();
    let budget_platforms = [Platform::Minix, Platform::Linux, Platform::Sel4];
    let budgets = budget_platforms.map(|p| alloc_budget(p, budget_instances));
    for (p, (lifecycle, steady)) in budget_platforms.iter().zip(budgets) {
        println!("{:<12} {lifecycle:>24.2} {steady:>24.2}", p.to_string());
    }
    let [(minix_lifecycle, minix_steady), (linux_lifecycle, linux_steady), (sel4_lifecycle, sel4_steady)] =
        budgets;

    section("work per simulated second: one quiet 10-minute instance");
    println!(
        "{:<12} {:>24} {:>24}",
        "platform", "kernel entries/sim-s", "plant commits/sim-s"
    );
    rule();
    let mut work = Vec::new();
    for p in budget_platforms {
        let (entries, commits) = work_per_sim_second(p);
        println!("{:<12} {entries:>24.4} {commits:>24.4}", p.to_string());
        let key = |what: &str| format!("{}_{what}_per_sim_second", p.key());
        work.push((key("kernel_entries"), Json::Num(entries)));
        work.push((key("plant_commits"), Json::Num(commits)));
    }

    section(&format!(
        "fleet scaling on {platform}: instances × workers, {} simulated minutes each",
        horizon.as_secs_f64() / 60.0
    ));
    println!(
        "{:>10} {:>8} {:>11} {:>14} {:>14} {:>9} {:>6}",
        "instances", "workers", "wall[ms]", "sim-s/wall-s", "ipc-msg/s", "speedup", "util"
    );
    rule();

    // One pool serves the whole sweep; each run uses at most `workers`
    // of its threads, so the report stays a pure function of the
    // configuration.
    let pool = WorkerPool::new(workers.iter().copied().max().unwrap_or(1));
    let mut sweep = Vec::new();
    let mut largest_report = None;
    let mut speedup_at_largest: Vec<(usize, f64)> = Vec::new();
    let mut fleet_rate_1w = 0.0f64;
    let mut fleet_peak_live_bytes = 0u64;
    for &instances in sizes {
        let mut baseline_wall = None;
        let mut reference_json: Option<String> = None;
        for &w in workers {
            if w > instances {
                continue;
            }
            let mut config = FleetConfig::benign(platform, instances, w);
            config.horizon = horizon;
            let live_before = ALLOC.reset_peak();
            let run = run_fleet_with(&pool, &config);
            let peak_live = ALLOC.peak() - live_before;

            // Every worker count must compute the identical report.
            let json = run.report.to_json();
            match &reference_json {
                None => reference_json = Some(json),
                Some(reference) => assert_eq!(
                    reference, &json,
                    "fleet report must not depend on worker count"
                ),
            }

            let baseline = *baseline_wall.get_or_insert(run.wall.wall_seconds);
            let speedup = baseline / run.wall.wall_seconds.max(1e-9);
            let mean_util = run.wall.worker_utilization.iter().sum::<f64>()
                / run.wall.worker_utilization.len().max(1) as f64;
            println!(
                "{:>10} {:>8} {:>11.1} {:>14.0} {:>14.0} {:>8.2}x {:>6.2}",
                instances,
                w,
                run.wall.wall_seconds * 1e3,
                run.wall.sim_seconds_per_wall_second,
                run.wall.ipc_messages_per_wall_second,
                speedup,
                mean_util,
            );
            sweep.push(Json::obj(vec![
                ("instances", Json::UInt(instances as u64)),
                ("workers", Json::UInt(w as u64)),
                ("batch_size", Json::UInt(run.wall.batch_size as u64)),
                ("wall_seconds", Json::Num(run.wall.wall_seconds)),
                (
                    "sim_seconds_per_wall_second",
                    Json::Num(run.wall.sim_seconds_per_wall_second),
                ),
                (
                    "ipc_messages_per_wall_second",
                    Json::Num(run.wall.ipc_messages_per_wall_second),
                ),
                ("speedup_vs_one_worker", Json::Num(speedup)),
                (
                    "worker_utilization",
                    Json::Arr(
                        run.wall
                            .worker_utilization
                            .iter()
                            .map(|&u| Json::Num(u))
                            .collect(),
                    ),
                ),
            ]));
            if instances == *sizes.last().unwrap() {
                speedup_at_largest.push((w, speedup));
                if w == 1 {
                    fleet_rate_1w = run.wall.ipc_messages_per_wall_second;
                    fleet_peak_live_bytes = peak_live;
                }
                largest_report = Some(run.report);
            }
        }
        rule();
    }

    println!(
        "peak live heap, largest fleet on 1 worker: {:.1} KiB",
        fleet_peak_live_bytes as f64 / 1024.0
    );

    let report = largest_report.expect("at least one fleet ran");
    assert_eq!(report.totals.critical_losses, 0);
    assert_eq!(report.totals.safety_violations, 0);
    assert_eq!(
        report.totals.hot_path_allocs, 0,
        "warm fleet kernels must not touch the allocator on the IPC path"
    );

    // The parallel speedups need real cores: `ci.sh` gates them by the
    // recorded core count (>1.2x with >=2 workers in quick mode, >1.7x in
    // full mode, >2x with >=4 workers in full mode), not this binary, so
    // a loaded host fails one gate rather than the whole CI run.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup_at = |workers: usize| {
        speedup_at_largest
            .iter()
            .find(|(w, _)| *w == workers)
            .map_or(Json::Null, |(_, s)| Json::Num(*s))
    };
    let best_speedup = |min_workers: usize| {
        speedup_at_largest
            .iter()
            .filter(|(w, _)| *w >= min_workers)
            .map(|(_, s)| *s)
            .reduce(f64::max)
            .map_or(Json::Null, Json::Num)
    };
    h.write_json(&Json::obj(vec![
        ("schema", Json::Str("bas-fleet-scale/v3".into())),
        ("platform", Json::Str(platform.to_string())),
        ("horizon_s", Json::Num(horizon.as_secs_f64())),
        ("cores", Json::UInt(cores as u64)),
        (
            "ipc_hot_path",
            Json::obj(vec![
                ("messages", Json::UInt(hot_messages)),
                ("wall_seconds", Json::Num(hot_wall)),
                ("messages_per_second", Json::Num(hot_rate)),
                ("traced_wall_seconds", Json::Num(traced_wall)),
                ("traced_messages_per_second", Json::Num(traced_rate)),
                ("heap_events", Json::UInt(hot_heap_events)),
            ]),
        ),
        (
            "boot",
            Json::obj(vec![
                ("fleet_instances", Json::UInt(boot_instances as u64)),
                ("cold_instances", Json::UInt(cold_iters as u64)),
                ("cold_boot_instances_per_sec", Json::Num(cold_rate)),
                ("cold_bytes_per_instance", Json::Num(cold_bpi)),
                ("boot_instances_per_sec", Json::Num(boot_rate)),
                ("bytes_per_instance", Json::Num(snap_bpi)),
                ("boot_speedup", Json::Num(boot_speedup)),
                ("bytes_ratio", Json::Num(bytes_ratio)),
                ("materialized", Json::UInt(instance_pool.materialized())),
                ("recycled", Json::UInt(instance_pool.recycled())),
            ]),
        ),
        (
            "fleet_ipc_messages_per_wall_second",
            Json::Num(fleet_rate_1w),
        ),
        ("fleet_peak_live_bytes", Json::UInt(fleet_peak_live_bytes)),
        (
            "alloc_budget",
            Json::obj(vec![
                ("instances", Json::UInt(budget_instances as u64)),
                ("lifecycle_allocs_per_instance", Json::Num(minix_lifecycle)),
                (
                    "linux_lifecycle_allocs_per_instance",
                    Json::Num(linux_lifecycle),
                ),
                (
                    "sel4_lifecycle_allocs_per_instance",
                    Json::Num(sel4_lifecycle),
                ),
                (
                    "minix_steady_allocs_per_sim_second",
                    Json::Num(minix_steady),
                ),
                (
                    "linux_steady_allocs_per_sim_second",
                    Json::Num(linux_steady),
                ),
                ("sel4_steady_allocs_per_sim_second", Json::Num(sel4_steady)),
            ]),
        ),
        ("work_per_sim_second", Json::Obj(work)),
        ("speedup_2_workers", speedup_at(2)),
        ("best_speedup_2plus_workers", best_speedup(2)),
        ("best_speedup_4plus_workers", best_speedup(4)),
        ("sweep", Json::Arr(sweep)),
        ("largest_fleet_report", report.to_json_value()),
    ]));
}
