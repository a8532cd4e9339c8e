//! # bas-bench — experiment binaries and benchmarks
//!
//! One binary per paper artifact (see `DESIGN.md`'s experiment index):
//!
//! | binary | artifact |
//! |---|---|
//! | `exp_scenario_baseline` | E1 — Fig. 2 temperature-control time series |
//! | `exp_fig3_acm` | E2 — Fig. 3 ACM worked example |
//! | `exp_attack_matrix` | E3–E6 — §IV-D attack outcomes, paper-vs-measured |
//! | `exp_physical_impact` | E7 — physical safety metrics per attack |
//! | `exp_ipc_overhead` | E8 — microkernel-vs-monolithic IPC cost |
//! | `exp_aadl_pipeline` | E9 — AADL → per-platform policy artifacts |
//! | `exp_capdl_verify` | E10 — CapDL spec-vs-live-system audit |
//! | `exp_ablation_acm` | A1 — ACM enforcement ablation |
//! | `exp_ablation_caps` | A2 — capability over-grant ablation |
//! | `exp_alarm_latency` | E11 — alarm-latency distribution |
//! | `exp_cost_sensitivity` | E8b — context-switch cost sweep |
//! | `exp_recovery` | A3 — driver-crash recovery on all three platforms |
//! | `exp_policy_audit` | E12 — static policy audit: predicted matrix + lint |
//! | `exp_fleet_scale` | E13 — fleet scaling: N buildings × worker threads |
//! | `exp_model_check` | E14 — bounded model checking + counterexample replay |
//! | `exp_fault_campaign` | E16 — fault campaign: plans × platforms scorecard |
//! | `exp_cap_flow` | E17 — capability-flow analyzer vs model checker differential |
//! | `exp_traffic` | E18 — multi-tenant traffic front-end under attack mix |
//! | `exp_cap_races` | E19 — capability-churn races: detector vs checker vs static leaks |
//!
//! Every binary drives a [`Harness`], which owns the shared experiment
//! plumbing: flag parsing (`--quick`, `--json`, `--platform`,
//! `--workers`), platform iteration, and table/JSON emission. Binaries
//! boot scenarios themselves through `bas_core::boot_platform` or
//! `ScenarioEngine::boot` and keep only experiment-specific logic. The
//! per-platform IPC stacks that E8, E8b and the `ipc` bench measure live
//! once in [`ipc`].
//!
//! Criterion benches (`benches/`): `ipc` (round-trip cost per platform),
//! `micro` (ACM/CSpace/mq/plant primitives), `scenario` (end-to-end
//! simulation throughput).

use std::path::PathBuf;

use bas_core::scenario::Platform;
use bas_fleet::Json;

pub mod ipc;

/// Shared plumbing for every `exp_*` binary.
///
/// Construct one with [`Harness::new`] at the top of `main`; it parses
/// the process arguments once:
///
/// - `--quick` — smoke-test mode (CI): shrink iteration counts via
///   [`Harness::scale`] / [`Harness::quick`], keep every assertion.
/// - `--json` — additionally write `BENCH_<name>.json` via
///   [`Harness::emit_json`].
/// - `--platform linux|minix|sel4` — restrict [`Harness::platforms`].
/// - `--workers N` — worker threads for parallel experiments
///   ([`Harness::workers`]; defaults to the available cores).
/// - `--state-budget N` — the model checker's state budget
///   ([`Harness::state_budget`]).
///
/// An unknown platform, a value that is not a count, or a flag with no
/// value exits with status 2 rather than running with a default.
pub struct Harness {
    name: &'static str,
    quick: bool,
    json: bool,
    platform_filter: Option<Platform>,
    workers: usize,
    state_budget: Option<usize>,
}

/// Prints `message` as a usage error and exits with status 2.
fn usage_error(message: std::fmt::Arguments) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// The value after `flag` in `args`, `None` when `flag` is absent; a
/// usage error, naming what was `expected`, when `flag` is last.
fn flag_value<'a>(args: &'a [String], flag: &str, expected: &str) -> Option<&'a str> {
    let idx = args.iter().position(|a| a == flag)?;
    match args.get(idx + 1) {
        Some(value) => Some(value),
        None => usage_error(format_args!("missing {flag} value; expected {expected}")),
    }
}

/// The count after `flag` in `args`, `None` when `flag` is absent; a
/// usage error when the value is missing or not a count.
fn count_flag(args: &[String], flag: &str, expected: &str) -> Option<usize> {
    let value = flag_value(args, flag, expected)?;
    match value.parse() {
        Ok(count) => Some(count),
        Err(_) => usage_error(format_args!(
            "bad {flag} value {value}; expected {expected}"
        )),
    }
}

impl Harness {
    /// Parses the process arguments. `name` becomes the JSON file stem.
    pub fn new(name: &'static str) -> Harness {
        let args: Vec<String> = std::env::args().collect();
        let platforms = "linux|minix|sel4";
        let platform_filter = flag_value(&args, "--platform", platforms).map(|value| {
            [Platform::Linux, Platform::Minix, Platform::Sel4]
                .into_iter()
                .find(|p| value == p.key())
                .unwrap_or_else(|| {
                    usage_error(format_args!(
                        "unknown platform {value}; expected {platforms}"
                    ))
                })
        });
        let workers = count_flag(&args, "--workers", "a thread count")
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Harness {
            name,
            quick: args.iter().any(|a| a == "--quick"),
            json: args.iter().any(|a| a == "--json"),
            platform_filter,
            workers: workers.max(1),
            state_budget: count_flag(&args, "--state-budget", "a state count"),
        }
    }

    /// True when `--quick` was passed.
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// True when `--json` was passed.
    pub fn json(&self) -> bool {
        self.json
    }

    /// `full` normally, `quick` under `--quick`.
    pub fn scale(&self, full: u64, quick: u64) -> u64 {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// The platform filter, if `--platform` was passed.
    pub fn platform_filter(&self) -> Option<Platform> {
        self.platform_filter
    }

    /// Worker threads for parallel experiments: `--workers N`, else the
    /// available cores (at least 1).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The model checker's state budget: `--state-budget N`, else
    /// `default`.
    pub fn state_budget(&self, default: usize) -> usize {
        self.state_budget.unwrap_or(default)
    }

    /// The platforms this run covers, in canonical matrix order.
    pub fn platforms(&self) -> Vec<Platform> {
        [Platform::Linux, Platform::Minix, Platform::Sel4]
            .into_iter()
            .filter(|p| self.platform_filter.is_none_or(|f| f == *p))
            .collect()
    }

    /// Writes `BENCH_<name>.json` in the current directory when `--json`
    /// was passed; returns the path if written.
    pub fn emit_json(&self, value: &Json) -> Option<PathBuf> {
        if !self.json {
            return None;
        }
        Some(self.write_json(value))
    }

    /// Unconditionally writes `BENCH_<name>.json` in the current
    /// directory (for experiments whose artifact *is* the JSON).
    pub fn write_json(&self, value: &Json) -> PathBuf {
        let path = PathBuf::from(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, value.render()).expect("write benchmark JSON");
        println!("\nwrote {}", path.display());
        path
    }
}

/// Prints a section header.
pub fn section(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints a horizontal rule sized to typical table width.
pub fn rule() {
    println!("{}", "-".repeat(100));
}

/// Formats a boolean as a fixed-width verdict.
pub fn verdict(b: bool, yes: &str, no: &str) -> String {
    if b {
        yes.to_string()
    } else {
        no.to_string()
    }
}
