//! Fleet report types and their deterministic JSON form.
//!
//! [`FleetReport`] is the *simulation outcome* of a fleet run: everything
//! in it — and therefore every byte of [`FleetReport::to_json`] — is a
//! pure function of the fleet configuration and root seed. Wall-clock
//! timing and worker count live in [`crate::engine::WallStats`] instead,
//! precisely so the report stays byte-identical no matter how many
//! threads computed it (the determinism guard in `tests/determinism.rs`).

use bas_attack::model::{AttackId, AttackerModel};
use bas_core::scenario::{critical_alive, plant_snapshot, PlantSnapshot, Platform, Scenario};
use bas_sim::metrics::KernelMetrics;

use crate::json::Json;

/// A fixed-width histogram of latencies, seconds.
///
/// Its geometry is a bin count and `bin_width_s`, but it stores
/// counts only up to its highest occupied bin: the bins past them read
/// zero. A fleet holds one request histogram per instance and nearly
/// every request lands in bin 0, so a dense array would be almost all
/// zeros. [`LatencyHistogram::counts`] yields every bin.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    /// Width of each bin, seconds.
    pub bin_width_s: f64,
    /// Bin `i` covers `[i·w, (i+1)·w)` for `i < bins`.
    bins: usize,
    /// Counts of bins `0..counts.len()`; the last one stored is nonzero,
    /// so equal histograms store equal vectors.
    counts: Vec<u64>,
    /// Samples at or beyond the last bin edge.
    pub overflow: u64,
    /// Non-finite samples (NaN/±inf) rejected by [`record`]: they carry
    /// no latency information, so they are counted here and excluded
    /// from `samples`, `sum_s`, and `max_s`.
    ///
    /// [`record`]: LatencyHistogram::record
    pub invalid: u64,
    /// Total samples recorded (excludes `invalid`).
    pub samples: u64,
    /// Sum of all samples (for the mean), seconds.
    pub sum_s: f64,
    /// Largest sample, seconds.
    pub max_s: f64,
}

impl LatencyHistogram {
    /// Alarm latencies cluster around the paper's ~300 s deadline; 30 s
    /// bins over 0–600 s resolve that region well.
    pub const DEFAULT_BIN_WIDTH_S: f64 = 30.0;
    /// Default bin count (covers 0–600 s).
    pub const DEFAULT_BINS: usize = 20;

    /// An empty histogram with the given geometry.
    pub fn new(bin_width_s: f64, bins: usize) -> Self {
        LatencyHistogram {
            bin_width_s,
            bins,
            counts: Vec::new(),
            overflow: 0,
            invalid: 0,
            samples: 0,
            sum_s: 0.0,
            max_s: 0.0,
        }
    }

    /// Every bin's count, in order: one value per bin of the geometry,
    /// zeros included.
    pub fn counts(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        (0..self.bins).map(|i| self.counts.get(i).copied().unwrap_or(0))
    }

    /// Records one latency sample.
    ///
    /// Non-finite samples count only toward `invalid` — a NaN must not
    /// masquerade as a slow request in `overflow`, and adding it to
    /// `sum_s`/`max_s` would poison the mean and max forever. Negative
    /// samples (clock-skew artifacts) clamp to bin 0 and contribute
    /// zero latency to the sum, so `overflow` keeps its documented
    /// meaning: at or beyond the last bin edge, nothing else.
    pub fn record(&mut self, latency_s: f64) {
        if !latency_s.is_finite() {
            self.invalid += 1;
            return;
        }
        let v = latency_s.max(0.0);
        let bin = v / self.bin_width_s;
        let i = bin.floor() as usize;
        if bin.is_finite() && i < self.bins {
            if i >= self.counts.len() {
                self.counts.resize(i + 1, 0);
            }
            self.counts[i] += 1;
        } else {
            // Beyond the last edge — including the degenerate
            // bin_width_s <= 0 geometry, where every bin is empty.
            self.overflow += 1;
        }
        self.samples += 1;
        self.sum_s += v;
        if v > self.max_s {
            self.max_s = v;
        }
    }

    /// Mean latency, seconds (0 when empty).
    pub fn mean_s(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_s / self.samples as f64
        }
    }

    /// Folds `other` into `self`. Both histograms must share a geometry.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert_eq!(
            (self.bin_width_s, self.bins),
            (other.bin_width_s, other.bins),
            "merging histograms with different geometries"
        );
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.invalid += other.invalid;
        self.samples += other.samples;
        self.sum_s += other.sum_s;
        if other.max_s > self.max_s {
            self.max_s = other.max_s;
        }
    }

    /// The latency at quantile `p` (e.g. `0.99`), estimated as the upper
    /// edge of the bin holding the rank-`ceil(p·samples)` sample, clamped
    /// to `max_s` — a conservative (never understating) bound given
    /// fixed-width bins, since no sample exceeds `max_s`. Ranks landing
    /// in the overflow region report `max_s`; an empty histogram
    /// reports 0.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let rank = ((p * self.samples as f64).ceil() as u64).clamp(1, self.samples);
        let mut seen = 0u64;
        // The unstored bins are empty, so a rank not reached in the
        // stored ones lies in the overflow region.
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return ((i + 1) as f64 * self.bin_width_s).min(self.max_s);
            }
        }
        self.max_s
    }

    /// The histogram as a [`Json`] tree (for embedding in reports).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("bin_width_s", Json::Num(self.bin_width_s)),
            ("counts", Json::Arr(self.counts().map(Json::UInt).collect())),
            ("overflow", Json::UInt(self.overflow)),
            ("invalid", Json::UInt(self.invalid)),
            ("samples", Json::UInt(self.samples)),
            ("mean_s", Json::Num(self.mean_s())),
            ("max_s", Json::Num(self.max_s)),
        ])
    }
}

/// Web-request accounting for one instance (the E18 traffic runs).
///
/// Latency is `completed - scheduled` per request — open-loop time in
/// queue plus the RPC round trip — binned at millisecond geometry
/// ([`RequestStats::BIN_WIDTH_S`]) since kernel round trips sit far
/// below the 30 s alarm-latency bins; a round trip well under 1 ms
/// lands in bin 0.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestStats {
    /// Requests completed (a response came back, ok or error).
    pub requests: u64,
    /// Requests whose response decoded as a success.
    pub ok: u64,
    /// Request-latency distribution, seconds. Boxed so that the
    /// `Option<RequestStats>` every [`InstanceReport`] holds costs a
    /// pointer, not an inline histogram, on instances without requests.
    pub latency: Box<LatencyHistogram>,
}

impl RequestStats {
    /// 1 ms bins over 0–200 ms: queueing under overload shows up as
    /// mass marching right; overflow means multi-epoch stalls.
    pub const BIN_WIDTH_S: f64 = 1e-3;
    /// Default bin count for request latencies.
    pub const BINS: usize = 200;

    /// An empty accounting block with the standard geometry.
    pub fn new() -> RequestStats {
        RequestStats {
            requests: 0,
            ok: 0,
            latency: Box::new(LatencyHistogram::new(Self::BIN_WIDTH_S, Self::BINS)),
        }
    }

    /// Folds one completed request in.
    pub fn push(&mut self, latency_s: f64, ok: bool) {
        self.requests += 1;
        if ok {
            self.ok += 1;
        }
        self.latency.record(latency_s);
    }

    /// Folds `other` into `self` (same geometry required).
    pub fn merge(&mut self, other: &RequestStats) {
        self.requests += other.requests;
        self.ok += other.ok;
        self.latency.merge(&other.latency);
    }

    /// Accounts a scenario's completed-request log; `None` when the
    /// instance logged nothing (so quiet fleets keep `requests: null`).
    pub fn from_samples(samples: &[bas_core::logic::web::RequestSample]) -> Option<RequestStats> {
        if samples.is_empty() {
            return None;
        }
        let mut stats = RequestStats::new();
        for s in samples {
            stats.push((s.completed - s.scheduled).as_secs_f64(), s.ok);
        }
        Some(stats)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("requests", Json::UInt(self.requests)),
            ("ok", Json::UInt(self.ok)),
            ("latency", self.latency.to_json()),
        ])
    }
}

impl Default for RequestStats {
    fn default() -> Self {
        RequestStats::new()
    }
}

/// Attack verdict for one instance. No fleet runner sets one (fleet-scale
/// attacks run in `bas-traffic`'s attacker lane); it stays because its
/// `"attack"` key is part of every report's JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackCell {
    /// The kernel accepted the malicious operations.
    pub mechanism_succeeded: bool,
    /// Safety violated or a critical process lost.
    pub compromised: bool,
}

/// Outcome of one building instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceReport {
    /// Instance index within the fleet (0-based).
    pub index: usize,
    /// Derived scenario seed (see [`crate::seed::instance_seed`]).
    pub seed: u64,
    /// Simulated seconds this instance advanced.
    pub sim_seconds: f64,
    /// Every critical process survived.
    pub critical_alive: bool,
    /// Kernel counters at the end of the run.
    pub metrics: KernelMetrics,
    /// Plant safety snapshot at the end of the run.
    pub plant: PlantSnapshot,
    /// Attack verdict (`None` from every fleet runner).
    pub attack: Option<AttackCell>,
    /// Web-request accounting (`None` when the instance logged no
    /// requests — quiet schedules, attacker-replaced webs).
    pub requests: Option<RequestStats>,
}

impl InstanceReport {
    /// Snapshots benign instance `index`, seeded with `seed`, as `engine`
    /// stands now: the report a fleet worker writes for it.
    pub fn from_scenario(index: usize, seed: u64, engine: &dyn Scenario) -> InstanceReport {
        InstanceReport {
            index,
            seed,
            sim_seconds: engine.now().as_secs_f64(),
            critical_alive: critical_alive(engine),
            metrics: engine.metrics(),
            plant: plant_snapshot(engine),
            attack: None,
            requests: RequestStats::from_samples(&engine.request_samples()),
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("index", Json::UInt(self.index as u64)),
            ("seed", Json::UInt(self.seed)),
            ("sim_seconds", Json::Num(self.sim_seconds)),
            ("critical_alive", Json::Bool(self.critical_alive)),
            ("metrics", metrics_to_json(&self.metrics)),
            ("plant", plant_to_json(&self.plant)),
        ];
        fields.push((
            "attack",
            match &self.attack {
                None => Json::Null,
                Some(cell) => Json::obj(vec![
                    ("mechanism_succeeded", Json::Bool(cell.mechanism_succeeded)),
                    ("compromised", Json::Bool(cell.compromised)),
                ]),
            },
        ));
        fields.push((
            "requests",
            match &self.requests {
                None => Json::Null,
                Some(stats) => stats.to_json(),
            },
        ));
        Json::obj(fields)
    }
}

/// Fleet-wide sums over the per-instance reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetTotals {
    /// Total simulated seconds across all instances.
    pub sim_seconds: f64,
    /// Total IPC messages delivered.
    pub ipc_messages: u64,
    /// Total IPC payload bytes.
    pub ipc_bytes: u64,
    /// Total kernel entries.
    pub kernel_entries: u64,
    /// Total context switches.
    pub context_switches: u64,
    /// Total operations denied by access control.
    pub access_denied: u64,
    /// Total processes created.
    pub processes_created: u64,
    /// Total IPC hot-path heap events (arena growth + spills); a warm
    /// fleet holds this at the boot-time baseline.
    pub hot_path_allocs: u64,
    /// Total sends that had to block (receiver absent / queue full) —
    /// the fleet-wide backpressure signal E18 watches.
    pub ipc_waits: u64,
    /// Total web requests completed across the fleet.
    pub requests: u64,
    /// Web requests whose response decoded as a success.
    pub requests_ok: u64,
    /// Instances whose safety property was violated.
    pub safety_violations: usize,
    /// Instances that lost a critical process.
    pub critical_losses: usize,
}

impl FleetTotals {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("sim_seconds", Json::Num(self.sim_seconds)),
            ("ipc_messages", Json::UInt(self.ipc_messages)),
            ("ipc_bytes", Json::UInt(self.ipc_bytes)),
            ("kernel_entries", Json::UInt(self.kernel_entries)),
            ("context_switches", Json::UInt(self.context_switches)),
            ("access_denied", Json::UInt(self.access_denied)),
            ("processes_created", Json::UInt(self.processes_created)),
            ("hot_path_allocs", Json::UInt(self.hot_path_allocs)),
            ("ipc_waits", Json::UInt(self.ipc_waits)),
            ("requests", Json::UInt(self.requests)),
            ("requests_ok", Json::UInt(self.requests_ok)),
            (
                "safety_violations",
                Json::UInt(self.safety_violations as u64),
            ),
            ("critical_losses", Json::UInt(self.critical_losses as u64)),
        ])
    }
}

/// Campaign identity and aggregate verdict counts. No fleet runner sets
/// one; it stays because its `"campaign"` key is part of every report's
/// JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignSummary {
    /// The attack every instance ran.
    pub attack: AttackId,
    /// The attacker model.
    pub attacker: AttackerModel,
    /// Instances where the mechanism succeeded.
    pub mechanism_succeeded: usize,
    /// Instances compromised (safety violated or critical loss).
    pub compromised: usize,
}

/// The deterministic outcome of a fleet run.
///
/// Contains *only* simulation-derived data — no wall-clock, no worker
/// count — so [`FleetReport::to_json`] is byte-identical for the same
/// `(config, root_seed)` regardless of parallelism.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Platform every instance ran on.
    pub platform: Platform,
    /// Root seed the per-instance seeds derive from.
    pub root_seed: u64,
    /// Number of building instances.
    pub instances: usize,
    /// Campaign summary (`None` from every fleet runner).
    pub campaign: Option<CampaignSummary>,
    /// Fleet-wide sums.
    pub totals: FleetTotals,
    /// Excursion→alarm latency distribution across the fleet.
    pub alarm_latency: LatencyHistogram,
    /// Web-request latency distribution merged across instances
    /// (empty geometry with zero samples for fleets without traffic).
    pub request_latency: LatencyHistogram,
    /// Per-instance outcomes, ordered by instance index.
    pub per_instance: Vec<InstanceReport>,
}

impl FleetReport {
    /// Aggregates per-instance reports (must be sorted by index) into the
    /// fleet report.
    ///
    /// The merge is addition-only over end-of-run counter snapshots, so
    /// it cannot underflow. The invariant callers must keep: instance
    /// metrics are sampled once, at the end of the run, from a kernel
    /// that is not recycled mid-run, since recycling restarts its
    /// counters at zero (intra-run phase deltas go through
    /// `KernelMetrics::delta_since`, which saturates instead).
    pub fn aggregate(
        platform: Platform,
        root_seed: u64,
        campaign: Option<(AttackId, AttackerModel)>,
        per_instance: Vec<InstanceReport>,
    ) -> FleetReport {
        let mut totals = FleetTotals::default();
        let mut hist = LatencyHistogram::new(
            LatencyHistogram::DEFAULT_BIN_WIDTH_S,
            LatencyHistogram::DEFAULT_BINS,
        );
        let mut req_hist = LatencyHistogram::new(RequestStats::BIN_WIDTH_S, RequestStats::BINS);
        let mut mech = 0usize;
        let mut comp = 0usize;
        for r in &per_instance {
            totals.sim_seconds += r.sim_seconds;
            totals.ipc_messages += r.metrics.ipc_messages;
            totals.ipc_bytes += r.metrics.ipc_bytes;
            totals.kernel_entries += r.metrics.kernel_entries;
            totals.context_switches += r.metrics.context_switches;
            totals.access_denied += r.metrics.access_denied;
            totals.processes_created += r.metrics.processes_created;
            totals.hot_path_allocs += r.metrics.hot_path_allocs;
            totals.ipc_waits += r.metrics.ipc_waits;
            if let Some(stats) = &r.requests {
                totals.requests += stats.requests;
                totals.requests_ok += stats.ok;
                req_hist.merge(&stats.latency);
            }
            if r.plant.safety_violated {
                totals.safety_violations += 1;
            }
            if !r.critical_alive {
                totals.critical_losses += 1;
            }
            for &lat in &r.plant.alarm_latencies_s {
                hist.record(lat);
            }
            if let Some(cell) = &r.attack {
                if cell.mechanism_succeeded {
                    mech += 1;
                }
                if cell.compromised {
                    comp += 1;
                }
            }
        }
        FleetReport {
            platform,
            root_seed,
            instances: per_instance.len(),
            campaign: campaign.map(|(attack, attacker)| CampaignSummary {
                attack,
                attacker,
                mechanism_succeeded: mech,
                compromised: comp,
            }),
            totals,
            alarm_latency: hist,
            request_latency: req_hist,
            per_instance,
        }
    }

    /// Renders the report as deterministic JSON (stable key order, stable
    /// float formatting, no wall-clock data).
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// The report as a [`Json`] tree (for embedding in larger reports).
    pub fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str("bas-fleet-report/v2".into())),
            ("platform", Json::Str(self.platform.to_string())),
            ("root_seed", Json::UInt(self.root_seed)),
            ("instances", Json::UInt(self.instances as u64)),
            (
                "campaign",
                match &self.campaign {
                    None => Json::Null,
                    Some(c) => Json::obj(vec![
                        ("attack", Json::Str(c.attack.to_string())),
                        ("attacker", Json::Str(c.attacker.to_string())),
                        (
                            "mechanism_succeeded",
                            Json::UInt(c.mechanism_succeeded as u64),
                        ),
                        ("compromised", Json::UInt(c.compromised as u64)),
                    ]),
                },
            ),
            ("totals", self.totals.to_json()),
            ("alarm_latency", self.alarm_latency.to_json()),
            ("request_latency", self.request_latency.to_json()),
            (
                "per_instance",
                Json::Arr(self.per_instance.iter().map(|r| r.to_json()).collect()),
            ),
        ])
    }
}

/// Kernel counters as a JSON object (shared by fleet and bench reports).
pub fn metrics_to_json(m: &KernelMetrics) -> Json {
    Json::obj(vec![
        ("context_switches", Json::UInt(m.context_switches)),
        ("kernel_entries", Json::UInt(m.kernel_entries)),
        ("ipc_messages", Json::UInt(m.ipc_messages)),
        ("ipc_bytes", Json::UInt(m.ipc_bytes)),
        ("access_denied", Json::UInt(m.access_denied)),
        ("syscall_errors", Json::UInt(m.syscall_errors)),
        ("processes_created", Json::UInt(m.processes_created)),
        ("processes_reaped", Json::UInt(m.processes_reaped)),
        ("hot_path_allocs", Json::UInt(m.hot_path_allocs)),
        ("ipc_waits", Json::UInt(m.ipc_waits)),
    ])
}

/// Plant safety snapshot as a JSON object.
pub fn plant_to_json(p: &PlantSnapshot) -> Json {
    Json::obj(vec![
        ("safety_violated", Json::Bool(p.safety_violated)),
        ("max_deviation_c", Json::Num(p.max_deviation_c)),
        ("in_band_fraction", Json::Num(p.in_band_fraction)),
        ("final_temp_c", Json::Num(p.final_temp_c)),
        ("alarm_on", Json::Bool(p.alarm_on)),
        ("fan_switches", Json::UInt(p.fan_switches as u64)),
        (
            "alarm_latencies_s",
            Json::Arr(p.alarm_latencies_s.iter().map(|&l| Json::Num(l)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = LatencyHistogram::new(30.0, 20);
        h.record(0.0);
        h.record(29.9);
        h.record(30.0);
        h.record(599.9);
        h.record(600.0);
        h.record(1e9);
        let counts: Vec<u64> = h.counts().collect();
        assert_eq!(counts[0], 2);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[19], 1);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.invalid, 0);
        assert_eq!(h.samples, 6);
        assert!(h.max_s >= 1e9);
    }

    #[test]
    fn histogram_rejects_nan_without_poisoning_stats() {
        let mut h = LatencyHistogram::new(30.0, 20);
        h.record(f64::NAN);
        // The old code folded NaN into `overflow` and added it to
        // `sum_s`, making every later mean NaN.
        assert_eq!(h.overflow, 0);
        assert_eq!(h.invalid, 1);
        assert_eq!(h.samples, 0);
        assert!(h.mean_s().is_finite());
        h.record(45.0);
        assert_eq!(h.samples, 1);
        assert_eq!(h.mean_s(), 45.0);
        assert_eq!(h.max_s, 45.0);
    }

    #[test]
    fn histogram_rejects_infinities() {
        let mut h = LatencyHistogram::new(30.0, 20);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.invalid, 2);
        assert_eq!(h.overflow, 0);
        assert_eq!(h.samples, 0);
        assert_eq!(h.sum_s, 0.0);
        assert_eq!(h.max_s, 0.0);
    }

    #[test]
    fn histogram_clamps_negative_to_first_bin() {
        let mut h = LatencyHistogram::new(30.0, 20);
        h.record(-5.0);
        // The old code sent negatives to `overflow` ("at or beyond the
        // last bin edge") and subtracted them from `sum_s`.
        assert_eq!(h.counts().next(), Some(1));
        assert_eq!(h.overflow, 0);
        assert_eq!(h.samples, 1);
        assert_eq!(h.sum_s, 0.0);
        assert_eq!(h.mean_s(), 0.0);
    }

    #[test]
    fn histogram_exact_bin_edges() {
        let mut h = LatencyHistogram::new(10.0, 3);
        h.record(0.0);
        h.record(10.0);
        h.record(20.0);
        h.record(30.0); // == last edge → overflow
        assert_eq!(h.counts().collect::<Vec<_>>(), vec![1, 1, 1]);
        assert_eq!(h.overflow, 1);
    }

    #[test]
    fn histogram_zero_bin_width_is_all_overflow() {
        let mut h = LatencyHistogram::new(0.0, 4);
        h.record(0.0);
        h.record(1.0);
        h.record(f64::NAN);
        assert_eq!(h.counts().collect::<Vec<_>>(), vec![0, 0, 0, 0]);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.invalid, 1);
        assert_eq!(h.samples, 2);
        assert_eq!(h.sum_s, 1.0);
    }

    #[test]
    fn histogram_merge_and_percentiles() {
        let mut a = LatencyHistogram::new(1.0, 10);
        let mut b = LatencyHistogram::new(1.0, 10);
        for _ in 0..90 {
            a.record(0.5);
        }
        for _ in 0..10 {
            b.record(8.5);
        }
        b.record(f64::NAN);
        a.merge(&b);
        assert_eq!(a.samples, 100);
        assert_eq!(a.invalid, 1);
        assert_eq!(a.percentile(0.50), 1.0);
        assert_eq!(a.percentile(0.90), 1.0);
        // The 9.0 bin edge clamps to the largest sample.
        assert_eq!(a.percentile(0.95), 8.5);
        assert_eq!(a.percentile(0.99), 8.5);
        // Empty histogram: every percentile is 0.
        assert_eq!(LatencyHistogram::new(1.0, 4).percentile(0.99), 0.0);
        // Rank in the overflow region reports the observed max.
        let mut o = LatencyHistogram::new(1.0, 2);
        o.record(7.5);
        assert_eq!(o.percentile(0.99), 7.5);
    }

    #[test]
    fn sub_bin_samples_never_report_above_the_max() {
        // Request latencies far below the 1 ms bin width: the bin edge
        // would report 1 ms; every percentile must stay within max_s.
        let mut h = LatencyHistogram::new(RequestStats::BIN_WIDTH_S, RequestStats::BINS);
        for i in 1..=100 {
            h.record(f64::from(i) * 1.56e-6);
        }
        for p in [0.0, 0.5, 0.9, 0.95, 0.99, 0.9999, 1.0] {
            let v = h.percentile(p);
            assert!(v <= h.max_s, "p{p}: {v} > max {}", h.max_s);
            assert!(v > 0.0, "p{p}: positive samples, positive percentile");
        }
        assert_eq!(h.percentile(0.99), h.max_s);
    }

    proptest! {
        #[test]
        fn histogram_accounting_is_conserved(
            samples in prop::collection::vec(-1e6f64..1e6, 0..200),
            nans in 0usize..4,
        ) {
            let mut h = LatencyHistogram::new(30.0, 20);
            for &s in &samples {
                h.record(s);
            }
            for _ in 0..nans {
                h.record(f64::NAN);
            }
            let binned: u64 = h.counts().sum();
            prop_assert_eq!(binned + h.overflow, h.samples);
            prop_assert_eq!(h.samples, samples.len() as u64);
            prop_assert_eq!(h.invalid, nans as u64);
            prop_assert!(h.sum_s.is_finite() && h.sum_s >= 0.0);
            prop_assert!(h.max_s.is_finite() && h.max_s >= 0.0);
            prop_assert!(h.mean_s().is_finite());
        }

        #[test]
        fn histogram_percentile_is_monotone(
            samples in prop::collection::vec(0.0f64..700.0, 1..100),
        ) {
            let mut h = LatencyHistogram::new(30.0, 20);
            for &s in &samples {
                h.record(s);
            }
            let p50 = h.percentile(0.50);
            let p95 = h.percentile(0.95);
            let p99 = h.percentile(0.99);
            prop_assert!(p50 <= p95 && p95 <= p99);
            prop_assert!(p99 <= h.max_s.max(20.0 * 30.0));
        }
    }

    #[test]
    fn aggregate_counts_violations_and_campaign() {
        let make =
            |index: usize, violated: bool, alive: bool, cell: Option<AttackCell>| InstanceReport {
                index,
                seed: index as u64,
                sim_seconds: 10.0,
                critical_alive: alive,
                metrics: KernelMetrics {
                    ipc_messages: 5,
                    ..KernelMetrics::default()
                },
                plant: PlantSnapshot {
                    safety_violated: violated,
                    max_deviation_c: 0.5,
                    in_band_fraction: 1.0,
                    final_temp_c: 22.0,
                    alarm_on: false,
                    fan_switches: 0,
                    alarm_latencies_s: vec![300.0],
                },
                attack: cell,
                requests: None,
            };
        let cell = AttackCell {
            mechanism_succeeded: true,
            compromised: false,
        };
        let report = FleetReport::aggregate(
            Platform::Minix,
            42,
            Some((AttackId::ForkBomb, AttackerModel::ArbitraryCode)),
            vec![
                make(0, false, true, Some(cell)),
                make(1, true, false, Some(cell)),
            ],
        );
        assert_eq!(report.instances, 2);
        assert_eq!(report.totals.ipc_messages, 10);
        assert_eq!(report.totals.safety_violations, 1);
        assert_eq!(report.totals.critical_losses, 1);
        assert_eq!(report.alarm_latency.samples, 2);
        let c = report.campaign.expect("campaign totals present");
        assert_eq!(c.mechanism_succeeded, 2);
        assert_eq!(c.compromised, 0);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"bas-fleet-report/v2\""));
        assert!(json.contains("\"fork-bomb\""));
        assert_eq!(json, report.to_json());
    }

    #[test]
    fn aggregate_merges_request_stats() {
        let make = |index: usize, stats: Option<RequestStats>| InstanceReport {
            index,
            seed: index as u64,
            sim_seconds: 10.0,
            critical_alive: true,
            metrics: KernelMetrics {
                ipc_waits: 2,
                ..KernelMetrics::default()
            },
            plant: PlantSnapshot {
                safety_violated: false,
                max_deviation_c: 0.1,
                in_band_fraction: 1.0,
                final_temp_c: 22.0,
                alarm_on: false,
                fan_switches: 0,
                alarm_latencies_s: vec![],
            },
            attack: None,
            requests: stats,
        };
        let mut a = RequestStats::new();
        a.push(0.0005, true);
        a.push(0.0015, true);
        let mut b = RequestStats::new();
        b.push(0.150, false);
        let report = FleetReport::aggregate(
            Platform::Sel4,
            7,
            None,
            vec![make(0, Some(a)), make(1, Some(b)), make(2, None)],
        );
        assert_eq!(report.totals.requests, 3);
        assert_eq!(report.totals.requests_ok, 2);
        assert_eq!(report.totals.ipc_waits, 6);
        assert_eq!(report.request_latency.samples, 3);
        assert!(report.request_latency.percentile(0.99) >= 0.150);
        let json = report.to_json();
        assert!(json.contains("\"request_latency\""));
        assert!(json.contains("\"ipc_waits\": 6"));
    }
}
