//! The fleet determinism guard.
//!
//! Two fleet runs with the same root seed must produce *byte-identical*
//! `FleetReport` JSON regardless of worker count: parallelism may only
//! change who computes an instance, never what the instance computes.

use bas_attack::model::{AttackId, AttackerModel};
use bas_core::scenario::Platform;
use bas_fleet::{run_fleet, Campaign, FleetConfig};
use bas_sim::time::SimDuration;

fn small_fleet(platform: Platform, workers: usize) -> FleetConfig {
    let mut config = FleetConfig::benign(platform, 6, workers);
    config.horizon = SimDuration::from_mins(10);
    config
}

#[test]
fn same_seed_same_json_across_worker_counts() {
    for platform in [Platform::Minix, Platform::Sel4, Platform::Linux] {
        let serial = run_fleet(&small_fleet(platform, 1)).report.to_json();
        let parallel = run_fleet(&small_fleet(platform, 4)).report.to_json();
        assert_eq!(
            serial, parallel,
            "{platform}: report must not depend on worker count"
        );
        let again = run_fleet(&small_fleet(platform, 4)).report.to_json();
        assert_eq!(parallel, again, "{platform}: report must be reproducible");
    }
}

#[test]
fn large_fleet_is_byte_identical_at_every_worker_count() {
    // The BENCH-quoted configuration: a 256-instance fleet on the
    // worker-pool executor. Batch boundaries move with the worker
    // count (256, 128, 64, ... instances per batch); the report bytes
    // must not.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1usize, 2, 4];
    if !counts.contains(&cores) {
        counts.push(cores);
    }
    let mut reference: Option<String> = None;
    for workers in counts {
        let mut config = FleetConfig::benign(Platform::Minix, 256, workers);
        config.horizon = SimDuration::from_mins(2);
        let json = run_fleet(&config).report.to_json();
        match &reference {
            None => reference = Some(json),
            Some(expected) => assert_eq!(
                expected, &json,
                "256-instance report diverged at workers={workers}"
            ),
        }
    }
}

#[test]
fn different_root_seed_changes_the_report() {
    let mut a = small_fleet(Platform::Minix, 2);
    let mut b = small_fleet(Platform::Minix, 2);
    a.root_seed = 1;
    b.root_seed = 2;
    let ja = run_fleet(&a).report.to_json();
    let jb = run_fleet(&b).report.to_json();
    assert_ne!(ja, jb, "root seed must reach every instance");
}

#[test]
fn campaign_fleet_is_deterministic_too() {
    let mk = |workers: usize| {
        let mut config = small_fleet(Platform::Linux, workers);
        config.instances = 4;
        config.campaign = Some(Campaign::new(
            AttackId::SpoofSensorData,
            AttackerModel::ArbitraryCode,
        ));
        run_fleet(&config).report
    };
    let serial = mk(1);
    let parallel = mk(4);
    assert_eq!(serial.to_json(), parallel.to_json());
    // Linux fails to contain sensor spoofing on every instance (E6).
    let campaign = parallel.campaign.expect("campaign summary");
    assert_eq!(campaign.mechanism_succeeded, 4);
    assert_eq!(campaign.compromised, 4);
}
