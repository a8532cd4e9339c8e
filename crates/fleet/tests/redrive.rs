//! The re-drive contract: any instance of a fleet can be run again alone.
//!
//! Fleet workers run their instances on pooled engines with the kernel
//! trace off. Instance `i` re-run by itself on a freshly materialized
//! engine, with the trace on, must report exactly what the fleet reported
//! for it, whatever the worker count, and its trace must hold the events
//! a fleet run throws away. This is what lets a reader ask why one
//! instance of a large fleet behaved as it did.

use bas_core::logic::traffic::TrafficProfile;
use bas_core::scenario::Platform;
use bas_core::EngineSnapshot;
use bas_fleet::{instance_seed, run_fleet, FleetConfig, InstanceReport};
use bas_sim::time::{SimDuration, SimTime};

/// Instance `index` of `config`, re-run alone on a traced engine: its
/// report and the number of device writes in its kernel trace.
fn redrive(
    snapshot: &EngineSnapshot,
    config: &FleetConfig,
    index: usize,
) -> (InstanceReport, usize) {
    let seed = instance_seed(config.root_seed, index);
    let mut engine = snapshot.materialize(seed);
    engine.run_for(config.horizon);
    let report = InstanceReport::from_scenario(index, seed, engine.as_ref());
    (report, engine.trace_count("dev.write"))
}

/// Runs `config` at 1 and 2 workers and re-drives every instance.
fn check_redrive(config: &FleetConfig) {
    let snapshot = EngineSnapshot::capture(config.platform, &config.template);
    let alone: Vec<(InstanceReport, usize)> = (0..config.instances)
        .map(|index| redrive(&snapshot, config, index))
        .collect();
    for workers in [1, 2] {
        let mut config = config.clone();
        config.workers = workers;
        let report = run_fleet(&config).report;
        assert_eq!(report.per_instance.len(), config.instances);
        for (index, (redriven, traced_writes)) in alone.iter().enumerate() {
            assert_eq!(
                &report.per_instance[index], redriven,
                "{}: instance {index} at {workers} workers",
                config.platform
            );
            assert!(
                *traced_writes > 0,
                "{}: instance {index} re-driven with an empty trace",
                config.platform
            );
        }
    }
}

#[test]
fn benign_instances_redrive_alone_on_every_platform() {
    for platform in [Platform::Minix, Platform::Sel4, Platform::Linux] {
        let mut config = FleetConfig::benign(platform, 5, 1);
        config.horizon = SimDuration::from_mins(2);
        check_redrive(&config);
    }
}

#[test]
fn tenant_traffic_instances_redrive_alone() {
    let mut config = FleetConfig::benign(Platform::Minix, 4, 1);
    let profile = TrafficProfile {
        duration: SimDuration::from_secs(60),
        tenants: 2,
        mean_interarrival_s: 3.0,
        ..TrafficProfile::default()
    };
    config.horizon =
        (profile.start - SimTime::ZERO) + profile.duration + SimDuration::from_secs(30);
    config.template.traffic = Some(profile);
    let report = run_fleet(&config).report;
    assert!(
        report.per_instance.iter().all(|r| r.requests.is_some()),
        "every instance must serve requests, or the re-drive checks no request stats"
    );
    check_redrive(&config);
}
