//! E11 (extension figure): alarm latency distribution. For each platform
//! and 20 sensor-noise seeds (3 under `--quick`), a heat burst pushes the
//! room out of band and we measure how long the control loop takes to
//! raise the alarm — the quantitative version of the scenario's "e.g.,
//! 5 minutes" safety requirement.
//!
//! Run: `cargo run --release -p bas-bench --bin exp_alarm_latency [-- --quick --json]`

use bas_bench::{rule, section, Harness};
use bas_core::boot_platform;
use bas_core::scenario::{plant_snapshot, Platform, ScenarioConfig};
use bas_fleet::{Json, LatencyHistogram};
use bas_sim::time::SimDuration;

fn config(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::quiet();
    cfg.seed = seed;
    // Burst at t=300s: 300 W → 600 W; the fan cannot hold the band, so
    // the alarm must fire within the 300 s deadline (plus oracle grace).
    cfg.plant.heat_schedule = vec![(SimDuration::from_secs(300), 600.0)];
    cfg
}

fn run_one(platform: Platform, seed: u64) -> Option<f64> {
    let mut scenario = boot_platform(platform, &config(seed));
    scenario.run_for(SimDuration::from_secs(1_500));
    let snapshot = plant_snapshot(scenario.as_ref());
    assert!(
        !snapshot.safety_violated,
        "{platform} seed {seed} violated safety"
    );
    snapshot.alarm_latencies_s.first().copied()
}

fn main() {
    let h = Harness::new("alarm_latency");
    let seeds = h.scale(20, 3);

    section(&format!(
        "alarm latency after an out-of-band heat burst ({seeds} sensor-noise seeds per platform)"
    ));
    println!("controller deadline: 300 s; oracle limit: 330 s (deadline + detection grace)\n");
    println!(
        "{:<14} {:>8} {:>10} {:>10} {:>10}",
        "platform", "n", "mean[s]", "min[s]", "max[s]"
    );
    rule();
    let mut json_platforms = Vec::new();
    for platform in h.platforms() {
        let mut hist = LatencyHistogram::new(
            LatencyHistogram::DEFAULT_BIN_WIDTH_S,
            LatencyHistogram::DEFAULT_BINS,
        );
        let mut min = f64::INFINITY;
        for seed in 1..=seeds {
            let latency = run_one(platform, seed).unwrap_or_else(|| {
                panic!("{platform} seed {seed}: every seed must produce an alarm")
            });
            hist.record(latency);
            min = min.min(latency);
        }
        println!(
            "{:<14} {:>8} {:>10.1} {:>10.1} {:>10.1}",
            platform.to_string(),
            hist.samples,
            hist.mean_s(),
            min,
            hist.max_s
        );
        assert!(
            hist.max_s <= 330.0,
            "{platform}: alarm beyond the oracle limit"
        );
        assert!(
            min >= 295.0,
            "{platform}: alarm suspiciously early (before the deadline window)"
        );
        json_platforms.push((platform, hist, min));
    }
    rule();
    println!(
        "reading: all three platforms raise the alarm within one sensor period of the 300 s\n\
         deadline, for every noise seed — the safety requirement is met with margin, and the\n\
         platforms are behaviorally interchangeable for the benign workload (the paper's\n\
         premise that security, not function, differentiates them)."
    );

    h.emit_json(&Json::obj(vec![
        ("schema", Json::Str("bas-alarm-latency/v1".into())),
        ("seeds", Json::UInt(seeds)),
        ("deadline_s", Json::Num(300.0)),
        ("oracle_limit_s", Json::Num(330.0)),
        (
            "platforms",
            Json::Arr(
                json_platforms
                    .iter()
                    .map(|(platform, hist, min)| {
                        Json::obj(vec![
                            ("platform", Json::Str(platform.to_string())),
                            ("samples", Json::UInt(hist.samples)),
                            ("mean_s", Json::Num(hist.mean_s())),
                            ("min_s", Json::Num(*min)),
                            ("max_s", Json::Num(hist.max_s)),
                            ("bin_width_s", Json::Num(hist.bin_width_s)),
                            ("counts", Json::Arr(hist.counts().map(Json::UInt).collect())),
                            ("overflow", Json::UInt(hist.overflow)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]));
}
