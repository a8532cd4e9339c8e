//! E18: the multi-tenant traffic front-end. Replays deterministic
//! open-loop tenant load (status reads + setpoint writes) against a
//! fleet of building controllers while an attacker slice — drawn from
//! the dos Santos et al. traffic mix — runs its campaigns, and measures
//! what the platform sustains: requests/sec, p50/p95/p99 request
//! latency, kernel backpressure (`ipc_waits`), and attack outcomes
//! under load.
//!
//! The deterministic `TrafficReport` must be byte-identical at every
//! worker count (asserted here each run); `ci.sh` additionally gates
//! `requests_per_wall_second` against `BENCH_traffic_baseline.json` and
//! re-checks the worker byte-identity on the quick artifact.
//!
//! Full mode runs the headline configuration: a 1 024-instance MINIX
//! fleet (~1 000 benign after the 2% attacker draw), four tenants per
//! instance for 10 simulated minutes; `ci.sh` gates its single-worker
//! sustained rate at 100 000 requests/sec or more.
//!
//! Run: `cargo run --release -p bas-bench --bin exp_traffic [-- --quick --platform minix]`

use bas_bench::{rule, section, Harness};
use bas_core::logic::traffic::TrafficProfile;
use bas_core::scenario::Platform;
use bas_fleet::{Json, WorkerPool};
use bas_sim::time::{SimDuration, SimTime};
use bas_traffic::{run_traffic, TrafficConfig, TrafficRun};

fn main() {
    let h = Harness::new("traffic");
    // One platform keeps the sweep readable; default MINIX (the paper's
    // primary platform), overridable with --platform.
    let platform = h.platform_filter().unwrap_or(Platform::Minix);
    let instances = h.scale(1024, 32) as usize;
    let worker_counts: &[usize] = if h.quick() { &[1, 2] } else { &[1, 2, 4] };

    let mut profile = TrafficProfile::default();
    if h.quick() {
        profile.duration = SimDuration::from_secs(60);
        profile.mean_interarrival_s = 2.0;
    }
    let mut config = TrafficConfig::new(platform, instances, 1);
    config.horizon =
        (profile.start - SimTime::ZERO) + profile.duration + SimDuration::from_secs(60);
    config.profile = profile;
    config.attacker_fraction = if h.quick() { 0.1 } else { 0.02 };
    if h.quick() {
        config.attack_run.warmup = SimDuration::from_secs(60);
        config.attack_run.window = SimDuration::from_secs(120);
        config.attack_run.cooldown = SimDuration::from_secs(30);
    }

    section(&format!(
        "traffic front-end on {platform}: {instances} instances, {} tenants × {:.0} s, \
         {:.0}% writes, attacker fraction {:.0}%",
        config.profile.tenants,
        config.profile.duration.as_secs_f64(),
        config.profile.write_fraction * 100.0,
        config.attacker_fraction * 100.0,
    ));
    println!(
        "{:>8} {:>11} {:>12} {:>13} {:>9} {:>9} {:>9} {:>10}",
        "workers", "wall[ms]", "req/s", "ipc-msg/s", "p50[ms]", "p95[ms]", "p99[ms]", "ipc_waits"
    );
    rule();

    let pool = WorkerPool::new(worker_counts.iter().copied().max().unwrap_or(1));
    let mut reference_json: Option<String> = None;
    let mut headline: Option<TrafficRun> = None;
    let mut sweep = Vec::new();
    for &workers in worker_counts {
        config.workers = workers;
        let run = run_traffic(&pool, &config);

        // The report is simulation outcome only: any worker count must
        // compute the identical bytes.
        let json = run.report.to_json();
        match &reference_json {
            None => reference_json = Some(json),
            Some(reference) => assert_eq!(
                reference, &json,
                "traffic report must not depend on worker count"
            ),
        }

        let wall_ms = (run.wall.benign.wall_seconds + run.wall.attack_wall_seconds) * 1e3;
        println!(
            "{:>8} {:>11.1} {:>12.0} {:>13.0} {:>9.3} {:>9.3} {:>9.3} {:>10}",
            workers,
            wall_ms,
            run.wall.benign.requests_per_wall_second,
            run.wall.benign.ipc_messages_per_wall_second,
            run.report.latency_percentile(0.50) * 1e3,
            run.report.latency_percentile(0.95) * 1e3,
            run.report.latency_percentile(0.99) * 1e3,
            run.report.fleet.totals.ipc_waits,
        );
        sweep.push(Json::obj(vec![
            ("workers", Json::UInt(workers as u64)),
            ("wall_seconds", Json::Num(run.wall.benign.wall_seconds)),
            (
                "attack_wall_seconds",
                Json::Num(run.wall.attack_wall_seconds),
            ),
            (
                "requests_per_wall_second",
                Json::Num(run.wall.benign.requests_per_wall_second),
            ),
            (
                "ipc_messages_per_wall_second",
                Json::Num(run.wall.benign.ipc_messages_per_wall_second),
            ),
        ]));
        if workers == 1 {
            headline = Some(run);
        }
    }
    rule();

    let run = headline.expect("the sweep always includes one worker");
    let report = &run.report;
    assert!(report.benign_instances > 0, "role draw produced no tenants");
    assert!(
        report.attacker_instances > 0,
        "role draw produced no attackers"
    );
    assert_eq!(
        report.attacks.iter().map(|l| l.instances).sum::<usize>(),
        report.attacker_instances,
        "every attacker instance lands in exactly one mix lane"
    );
    // In-band tenant traffic must complete cleanly on the benign fleet:
    // nothing refused, nothing unsafe, every sample accounted for.
    assert!(report.fleet.totals.requests > 0);
    assert_eq!(
        report.fleet.totals.requests,
        report.fleet.totals.requests_ok
    );
    assert_eq!(report.fleet.totals.safety_violations, 0);
    assert_eq!(report.fleet.totals.critical_losses, 0);
    assert_eq!(report.fleet.request_latency.invalid, 0);
    assert_eq!(
        report.fleet.request_latency.samples,
        report.fleet.totals.requests
    );

    section("attack outcomes under load (dos Santos traffic mix)");
    println!(
        "{:<22} {:>9} {:>10} {:>12}",
        "attack", "instances", "mechanism", "compromised"
    );
    rule();
    for lane in &report.attacks {
        println!(
            "{:<22} {:>9} {:>10} {:>12}",
            lane.attack.to_string(),
            lane.instances,
            lane.mechanism_succeeded,
            lane.compromised
        );
    }

    let rate = run.wall.benign.requests_per_wall_second;
    println!(
        "\nsustained: {:.0} requests/sec on 1 worker ({} requests, {} benign instances)",
        rate, report.fleet.totals.requests, report.benign_instances
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    h.write_json(&Json::obj(vec![
        ("schema", Json::Str("bas-traffic-scale/v1".into())),
        ("platform", Json::Str(platform.to_string())),
        ("cores", Json::UInt(cores as u64)),
        ("instances", Json::UInt(instances as u64)),
        ("horizon_s", Json::Num(config.horizon.as_secs_f64())),
        ("requests_per_wall_second", Json::Num(rate)),
        (
            "ipc_messages_per_wall_second",
            Json::Num(run.wall.benign.ipc_messages_per_wall_second),
        ),
        ("sweep", Json::Arr(sweep)),
        ("report", report.to_json_value()),
    ]));
}
