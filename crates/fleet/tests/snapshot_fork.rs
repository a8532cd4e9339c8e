//! Property guard for the snapshot/fork boot path: a fleet forked from
//! a warm template produces the byte-identical `FleetReport` JSON a
//! cold-booted fleet produces — across all three platforms, random root
//! seeds, and every worker count; every instance after a worker's first
//! runs on an engine recycled through the freelist. This is the
//! fleet-level face of the `bas-core` snapshot soundness argument; if it
//! ever fails, a `reset_to_boot` implementation left residue behind.

use bas_core::scenario::Platform;
use bas_fleet::{run_fleet, BootMode, FleetConfig};
use bas_sim::time::SimDuration;
use proptest::prelude::*;

fn arb_platform() -> impl Strategy<Value = Platform> {
    prop_oneof![
        Just(Platform::Minix),
        Just(Platform::Sel4),
        Just(Platform::Linux),
    ]
}

proptest! {
    /// Snapshot-forked and cold-booted fleets render identical reports.
    #[test]
    fn snapshot_fork_matches_cold_boot(
        platform in arb_platform(),
        root_seed in any::<u64>(),
        workers in prop_oneof![Just(1usize), Just(2), Just(4)],
        instances in 1usize..=5,
        max_resident in 1usize..=3,
        horizon_mins in 1u64..=2,
    ) {
        let mut config = FleetConfig::try_benign(platform, instances, workers)
            .expect("instances >= 1");
        config.root_seed = root_seed;
        config.horizon = SimDuration::from_mins(horizon_mins);
        // An upper bound on resident engines that the runner always
        // meets with one, so it must not change the report either.
        config.max_resident = max_resident;

        config.boot = BootMode::Snapshot;
        let snapshot = run_fleet(&config);
        config.boot = BootMode::Cold;
        let cold = run_fleet(&config);

        prop_assert_eq!(snapshot.report.to_json(), cold.report.to_json());
    }
}
