//! The fleet determinism guard.
//!
//! Two fleet runs with the same root seed must produce *byte-identical*
//! `FleetReport` JSON regardless of worker count: parallelism may only
//! change who computes an instance, never what the instance computes.

use bas_attack::model::{AttackId, AttackerModel};
use bas_core::logic::traffic::TrafficProfile;
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

/// FNV-1a over the report's JSON bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn report_digest(config: &FleetConfig) -> u64 {
    fnv1a(run_fleet(config).report.to_json().as_bytes())
}

#[test]
fn fleet_reports_match_pinned_digests() {
    // Digests of `FleetReport::to_json` pinned from a known-good build:
    // a change to how the runner schedules, recycles or reports instances
    // must leave every byte of the report alone.
    let pinned = [
        (Platform::Minix, 0x5ded_a78d_e5d1_17e5_u64),
        (Platform::Sel4, 0x24eb_78dc_abee_2744),
        (Platform::Linux, 0x537d_e4ee_89cf_fbac),
    ];
    for (platform, digest) in pinned {
        let mut config = FleetConfig::benign(platform, 40, 2);
        config.horizon = SimDuration::from_mins(10);
        assert_eq!(
            report_digest(&config),
            digest,
            "{platform}: 40-instance 10-minute fleet"
        );
    }

    // More instances than one worker's default residency (256).
    let mut config = FleetConfig::benign(Platform::Minix, 300, 1);
    config.horizon = SimDuration::from_mins(1);
    assert_eq!(
        report_digest(&config),
        0x278e_bd92_5f7a_f1ef,
        "300-instance 1-minute fleet"
    );

    // Per-instance tenant traffic: the schedule and the oracle's
    // reference changes are both derived from the instance seed.
    let mut config = FleetConfig::benign(Platform::Minix, 30, 2);
    config.horizon = SimDuration::from_secs(660);
    config.template.traffic = Some(TrafficProfile::default());
    let report = run_fleet(&config).report;
    assert!(
        report.totals.requests > 0,
        "tenant traffic must reach the web"
    );
    assert_eq!(
        fnv1a(report.to_json().as_bytes()),
        0x5377_914a_7ec7_e237,
        "30-instance fleet with tenant traffic"
    );
}

#[test]
fn boot_churn_shaped_fleets_match_pinned_digests() {
    // Short instances, where per-instance boot, recycle and report costs
    // dominate. Digests pinned from a known-good build: a change to how
    // reports are collected or where they are written must leave every
    // byte alone.

    // Many 10-second MINIX instances on one worker (the boot-churn shape).
    let mut config = FleetConfig::benign(Platform::Minix, 600, 1);
    config.horizon = SimDuration::from_secs(10);
    assert_eq!(
        report_digest(&config),
        0xb25b_a9e7_cdf8_130b,
        "600-instance 10-second fleet at 1 worker"
    );

    // Uneven batches: 50 instances on 3 workers run 17/17/16.
    let mut config = FleetConfig::benign(Platform::Minix, 50, 3);
    config.horizon = SimDuration::from_mins(2);
    assert_eq!(
        report_digest(&config),
        0x7e3e_e3ac_ed8b_7689,
        "50-instance 2-minute fleet at 3 workers"
    );
}
