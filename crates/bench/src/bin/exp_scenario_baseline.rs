//! E1 (paper Fig. 2): the benign temperature-control scenario on all
//! three platforms. Prints the temperature/fan/alarm time series each
//! platform produces plus a summary: convergence, fan duty, safety.
//!
//! Run: `cargo run --release -p bas-bench --bin exp_scenario_baseline`

use bas_bench::{rule, section, Harness};
use bas_core::boot_platform;
use bas_core::scenario::{critical_alive, Scenario, ScenarioConfig};
use bas_sim::time::SimDuration;

fn run(label: &str, scenario: &mut dyn Scenario, minutes: u64) {
    section(&format!(
        "{label} — {minutes} simulated minutes, setpoint change at t=20min"
    ));
    scenario.run_for(SimDuration::from_mins(minutes));

    let plant = scenario.plant();
    let plant = plant.borrow();

    println!(
        "{:>8} {:>9} {:>5} {:>6} {:>9}",
        "t[s]", "temp[°C]", "fan", "alarm", "setp[°C]"
    );
    for sample in plant.trace().iter().filter(|s| s.time.as_secs() % 120 == 0) {
        println!(
            "{:>8} {:>9.2} {:>5} {:>6} {:>9.1}",
            sample.time.as_secs(),
            sample.temp_c,
            if sample.fan_on { "ON" } else { "off" },
            if sample.alarm_on { "ON" } else { "off" },
            sample.setpoint_c,
        );
    }

    let report = plant.safety_report();
    rule();
    println!(
        "final temp: {:.2}°C | fan switches: {} | in-band fraction: {:.3} | \
         max deviation: {:.2}°C | safety: {} | critical alive: {} | {}",
        plant.temperature_c(),
        plant.fan().switch_count(),
        report.in_band_fraction,
        report.max_deviation_c,
        if report.is_safe() { "OK" } else { "VIOLATED" },
        critical_alive(scenario),
        scenario.metrics(),
    );
}

fn main() {
    let h = Harness::new("scenario_baseline");
    // The default schedule raises the setpoint to 24 °C at t=1200 s and
    // queries status at t=2400 s — the administrator session of §II.
    let config = ScenarioConfig::default();
    // Fast enough that --quick needs no shrinking (sub-second full run).
    let minutes = 45;

    let mut scenarios = Vec::new();
    for platform in h.platforms() {
        let mut s = boot_platform(platform, &config);
        run(&platform.to_string(), s.as_mut(), minutes);
        scenarios.push((platform, s));
    }

    section("web-interface sessions (administrator's view)");
    for (platform, s) in &scenarios {
        println!("{platform:<12}: {:?}", s.web_responses());
    }
}
