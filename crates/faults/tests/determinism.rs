//! Campaign determinism: the rendered report is byte-identical no matter
//! how many workers claim cells, because cell order, per-plan seeds, and
//! every kernel are deterministic.

use bas_core::proto::names;
use bas_faults::campaign::{run_campaign, CampaignConfig};
use bas_faults::plan::{standard_plans, FaultEvent, FaultPlan};
use bas_sim::caps::{CapChurnOp, ChurnKind};
use bas_sim::device::DeviceId;
use bas_sim::fault::FaultAction::{Churn, Crash, Ipc, Sensor};
use bas_sim::fault::{IpcFault, SensorFaultMode};
use bas_sim::time::SimDuration;

fn small_plans() -> Vec<FaultPlan> {
    let s = SimDuration::from_secs;
    let temp = DeviceId::TEMP_SENSOR;
    let op = |kind, subject| CapChurnOp::new(kind, subject, names::CONTROL);
    vec![
        FaultPlan::new(
            "dropout",
            vec![
                FaultEvent::new(s(60), Sensor(temp, SensorFaultMode::Dropout)),
                FaultEvent::new(s(120), Sensor(temp, SensorFaultMode::Nominal)),
            ],
        ),
        FaultPlan::new(
            "ipc_mix",
            vec![
                FaultEvent::new(s(60), Ipc(IpcFault::Drop, 10)),
                FaultEvent::new(s(90), Ipc(IpcFault::Duplicate, 10)),
            ],
        ),
        FaultPlan::new(
            "crash",
            vec![FaultEvent::new(s(60), Crash(names::HEATER.to_string()))],
        ),
        // Churn schedules must replay as deterministically as every other
        // fault family: a timed revoke, an armed revoke sitting inside
        // the admission window, and a regrant.
        FaultPlan::new(
            "cap_churn",
            vec![
                FaultEvent::new(s(60), Churn(vec![op(ChurnKind::Revoke, names::WEB)], None)),
                FaultEvent::new(s(90), Churn(vec![op(ChurnKind::Grant, names::WEB)], None)),
                FaultEvent::new(
                    s(120),
                    Churn(vec![op(ChurnKind::Revoke, names::SENSOR)], Some(2)),
                ),
            ],
        ),
    ]
}

#[test]
fn report_is_byte_identical_across_worker_counts() {
    let plans = small_plans();
    let render = |workers: usize| {
        let config = CampaignConfig {
            root_seed: 7,
            horizon: SimDuration::from_mins(4),
            workers,
            ..CampaignConfig::default()
        };
        run_campaign(&plans, &config).to_json().render()
    };
    let one = render(1);
    assert_eq!(one, render(2), "1 vs 2 workers");
    assert_eq!(one, render(4), "1 vs 4 workers");
    // Sanity: the report actually covers the full matrix.
    assert!(one.contains("\"cells\""));
    assert_eq!(one.matches("\"plan\"").count(), 4 * 3, "one per cell");
}

#[test]
fn per_plan_seeds_are_shared_across_platforms() {
    let plans = small_plans();
    let config = CampaignConfig {
        root_seed: 7,
        horizon: SimDuration::from_mins(2),
        workers: 2,
        ..CampaignConfig::default()
    };
    let report = run_campaign(&plans, &config);
    let nplat = config.platforms.len();
    for (p, plan) in plans.iter().enumerate() {
        let row = &report.cells[p * nplat..(p + 1) * nplat];
        assert!(
            row.windows(2).all(|w| w[0].seed == w[1].seed),
            "plan {} rows must share one seed",
            plan.name()
        );
        assert!(row.iter().all(|c| c.plan == plan.name()));
    }
    // Different plans draw different seeds from the root.
    assert_ne!(report.cells[0].seed, report.cells[nplat].seed);
}

/// The standard campaign as `exp_fault_campaign --quick --json` runs it
/// (12 simulated minutes, three platforms, root seed 42) renders byte for
/// byte the committed `BENCH_faults.json`.
#[test]
fn quick_campaign_matches_committed_report() {
    let config = CampaignConfig {
        root_seed: 42,
        horizon: SimDuration::from_mins(12),
        workers: 2,
        ..CampaignConfig::default()
    };
    let got = run_campaign(&standard_plans(), &config).to_json().render();
    assert_eq!(got, include_str!("../../../BENCH_faults.json"));
}
