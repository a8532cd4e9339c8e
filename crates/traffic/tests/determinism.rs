//! The E18 determinism guard: the traffic report must be byte-identical
//! at any worker count — thread scheduling decides *when* an instance
//! computes, never *what* it computes.

use bas_core::logic::traffic::TrafficProfile;
use bas_core::scenario::Platform;
use bas_fleet::WorkerPool;
use bas_sim::time::{SimDuration, SimTime};
use bas_traffic::{run_traffic, TrafficConfig};

/// A small but non-trivial mixed run: 2-tenant sessions on six benign
/// instances plus a deterministic attacker slice, short horizons.
fn quick_config(platform: Platform, workers: usize) -> TrafficConfig {
    let mut config = TrafficConfig::new(platform, 8, workers);
    config.profile = TrafficProfile {
        duration: SimDuration::from_secs(60),
        tenants: 2,
        mean_interarrival_s: 3.0,
        ..TrafficProfile::default()
    };
    config.horizon = (config.profile.start - SimTime::ZERO)
        + config.profile.duration
        + SimDuration::from_secs(30);
    config.attacker_fraction = 0.3;
    config.attack_run.warmup = SimDuration::from_secs(60);
    config.attack_run.window = SimDuration::from_secs(120);
    config.attack_run.cooldown = SimDuration::from_secs(30);
    config
}

#[test]
fn report_is_byte_identical_across_worker_counts() {
    let pool = WorkerPool::new(4);
    let mut reference: Option<String> = None;
    for workers in [1usize, 2, 4] {
        let run = run_traffic(&pool, &quick_config(Platform::Minix, workers));
        let json = run.report.to_json();
        match &reference {
            None => {
                // The run must actually exercise both halves of the
                // front-end, or byte-equality proves nothing.
                assert!(run.report.benign_instances > 0, "no benign instances");
                assert!(run.report.attacker_instances > 0, "no attacker instances");
                assert!(
                    run.report.fleet.totals.requests > 0,
                    "no requests completed"
                );
                reference = Some(json);
            }
            Some(reference) => assert_eq!(
                reference, &json,
                "traffic report must not depend on worker count ({workers} workers)"
            ),
        }
    }
}

#[test]
fn benign_traffic_completes_cleanly() {
    let pool = WorkerPool::new(2);
    let mut config = quick_config(Platform::Minix, 2);
    config.instances = 4;
    config.attacker_fraction = 0.0;
    let run = run_traffic(&pool, &config);
    let report = &run.report;
    assert_eq!(report.attacker_instances, 0);
    assert_eq!(report.benign_instances, 4);
    // In-band tenant traffic must neither fail nor trip the oracle.
    assert!(report.fleet.totals.requests > 0);
    assert_eq!(
        report.fleet.totals.requests,
        report.fleet.totals.requests_ok
    );
    assert_eq!(report.fleet.totals.safety_violations, 0);
    assert_eq!(report.fleet.totals.critical_losses, 0);
    // Percentiles are ordered and the histogram accounts every sample.
    let p50 = report.latency_percentile(0.50);
    let p99 = report.latency_percentile(0.99);
    assert!(p50 <= p99);
    let hist = &report.fleet.request_latency;
    assert_eq!(hist.counts().sum::<u64>() + hist.overflow, hist.samples);
    assert_eq!(hist.invalid, 0);
    assert_eq!(hist.samples, report.fleet.totals.requests);
    // Attack lanes are present (all zero) so the JSON shape is stable.
    assert!(run.report.attacks.iter().all(|l| l.instances == 0));
}
