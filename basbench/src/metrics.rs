//! The metric catalogue and per-run sample collection.
//!
//! The names and units here must match `BENCHMARK.json`; the smoke test
//! in `tests/metrics.rs` checks that every listed metric is emitted with
//! its unit on every workload.

use std::collections::BTreeMap;

use bas_sim::metrics::KernelMetrics;

use crate::json::Json;
use crate::stats::Summary;
use crate::workloads::{platform_key, PLATFORMS};

/// How a metric's samples reduce to the one value a run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    Median,
    /// The best repetition: the fewest seconds.
    Min,
    /// The best repetition: the highest rate.
    Max,
}

/// One catalogue entry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub reduce: Reduce,
}

fn def(name: impl Into<String>, unit: &'static str, reduce: Reduce) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        reduce,
    }
}

/// Metrics of the untraced run (`--trace 0`). Timings report the best
/// repetition (set-up: the best probe): contention from other tenants of
/// a shared host only ever adds time, so the fastest sample is the
/// steadiest estimate of the program's own cost.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", Reduce::Min),
        def("job_s", "s", Reduce::Min),
        def("sim_s_per_s", "sim-s/s", Reduce::Max),
        def("instances_per_s", "1/s", Reduce::Max),
        def("peak_heap_mb", "MiB", Reduce::Median),
    ]
}

/// `(suffix, value)` of the kernel counters reported per platform.
pub fn kernel_fields(m: &KernelMetrics) -> [(&'static str, u64); 7] {
    [
        ("entries", m.kernel_entries),
        ("ctx_switches", m.context_switches),
        ("ipc_msgs", m.ipc_messages),
        ("ipc_bytes", m.ipc_bytes),
        ("ipc_waits", m.ipc_waits),
        ("denied", m.access_denied),
        ("hot_path_allocs", m.hot_path_allocs),
    ]
}

/// Metrics of the traced run (`--trace 1`), each the median of its
/// samples. A metric whose layer the workload does not exercise reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    let kernel = PLATFORMS.into_iter().flat_map(|p| {
        kernel_fields(&KernelMetrics::default()).map(move |(field, _)| {
            let unit = if field == "ipc_bytes" {
                "bytes"
            } else {
                "count"
            };
            (format!("kernel.{}.{field}", platform_key(p)), unit)
        })
    });
    [
        ("core.snapshot.capture_s", "s"),
        ("core.run_for.self_s", "s"),
        ("core.run_for.linux_s", "s"),
        ("core.run_for.minix_s", "s"),
        ("core.run_for.sel4_s", "s"),
        ("core.run_for.ns_per_sim_s", "ns"),
        ("fleet.checkout.count", "count"),
        ("fleet.checkout.ns_per_op", "ns"),
        ("fleet.checkout.recycle_ratio", "ratio"),
        ("fleet.finish.ns_per_op", "ns"),
        ("fleet.aggregate_s", "s"),
        ("fleet.pool.speedup_2w", "x"),
        ("fleet.pool.util_2w", "ratio"),
        ("traffic.roles_s", "s"),
        ("traffic.generate.ns_per_instance", "ns"),
        ("traffic.attack_s", "s"),
        ("traffic.web_ns_per_sim_s", "ns"),
        ("traffic.req_samples", "count"),
        ("traffic.write_frac", "ratio"),
        ("traffic.requests_per_s", "1/s"),
        ("traffic.req_p50_ms", "ms"),
        ("traffic.req_p99.99_ms", "ms"),
        ("report.hist_p99_ms", "ms"),
        ("attack.run_attack.ms_per_cell", "ms"),
        ("mc.model_build.ms_per_cell", "ms"),
        ("mc.check_cell.ms_per_cell", "ms"),
        ("mc.states", "count"),
        ("mc.transitions", "count"),
        ("mc.ns_per_state", "ns"),
        ("mc.ample_ratio", "ratio"),
        ("mc.truncated_cells", "count"),
        ("mc.states_per_s", "1/s"),
        ("acm.check.ns", "ns"),
        ("sel4.cspace_lookup.ns", "ns"),
        ("linux.mq_push_pop.ns", "ns"),
        ("sim.arena.alloc_free.ns", "ns"),
        ("minix.ipc_roundtrip.ns_per_msg", "ns"),
        ("plant.step.ns", "ns"),
        ("profile.predicted_s", "s"),
        ("profile.residual_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
        ("trace.coverage_frac", "ratio"),
    ]
    .into_iter()
    .map(|(name, unit)| (name.to_string(), unit))
    .chain(kernel)
    .map(|(name, unit)| def(name, unit, Reduce::Median))
    .collect()
}

/// Samples per metric name, one per repetition (or per probe).
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// The reported value and summary of every metric in `defs`; a
    /// metric with no samples reads 0 with `n = 0`.
    pub fn report(&self, defs: Vec<MetricDef>) -> Vec<Reported> {
        defs.into_iter()
            .map(|def| {
                let samples = self.get(&def.name);
                let summary = Summary::of(samples);
                let value = match (samples.is_empty(), def.reduce) {
                    (true, _) => 0.0,
                    (false, Reduce::Median) => summary.median,
                    (false, Reduce::Min) => summary.min,
                    (false, Reduce::Max) => summary.max,
                };
                Reported {
                    def,
                    value,
                    summary,
                }
            })
            .collect()
    }
}

/// One metric as a run reports it.
#[derive(Debug)]
pub struct Reported {
    pub def: MetricDef,
    pub value: f64,
    pub summary: Summary,
}

/// The result of one `basbench run`.
#[derive(Debug)]
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<Reported>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The one-line result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics` (each metric's value and unit).
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.def.name.clone(),
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.def.unit.into())),
                        ]),
                    )
                })),
            ),
        ])
        .render()
    }

    /// The saved run file `compare` reads: the result plus each metric's
    /// extremes, median, quartiles and sample count, and the run identity.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str("basbench-run/v1".into())),
            ("workload", Json::Str(self.workload.into())),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Bool(self.trace)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "problems",
                Json::Arr(self.problems.iter().map(|p| Json::Str(p.clone())).collect()),
            ),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.def.name.clone(),
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.def.unit.into())),
                            ("min", Json::Num(m.summary.min)),
                            ("max", Json::Num(m.summary.max)),
                            ("median", Json::Num(m.summary.median)),
                            ("q1", Json::Num(m.summary.q1)),
                            ("q3", Json::Num(m.summary.q3)),
                            ("n", Json::Num(m.summary.n as f64)),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// A human-readable table: reported value, median, quartiles and
    /// sample count.
    pub fn table(&self) -> String {
        let mut out = format!(
            "# basbench {} seed={} trace={}: attempted={} failed={}\n",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.attempted,
            self.failed
        );
        out.push_str(&format!(
            "{:<34} {:>14} {:>14} {:>14} {:>14} {:>4}  unit\n",
            "metric", "value", "median", "q1", "q3", "n"
        ));
        for m in &self.metrics {
            let s = &m.summary;
            out.push_str(&format!(
                "{:<34} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>4}  {}\n",
                m.def.name, m.value, s.median, s.q1, s.q3, s.n, m.def.unit
            ));
        }
        for p in &self.problems {
            out.push_str(&format!("PROBLEM: {p}\n"));
        }
        out
    }
}
