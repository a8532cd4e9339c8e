//! The four workloads: inputs generated from the seed, the untraced job
//! driven through the public entry points (`run_fleet_with`,
//! `run_traffic`, `check_cells`, `run_attack`), and a traced re-drive of
//! the same work through the public layer calls with a span around each.

use std::collections::BTreeMap;
use std::fmt::{self, Debug, Write as _};
use std::sync::Arc;
use std::time::Instant;

use bas_analysis::mc::{
    check_cell, check_cells, matrix_cells, CellReport, ExploreOpts, ScenarioModel,
};
use bas_attack::expectations::{paper_expectation, Expectation};
use bas_attack::harness::{run_attack, AttackRunConfig};
use bas_attack::model::{AttackId, AttackOutcome, AttackerModel};
use bas_core::logic::web::WebAction;
use bas_core::platform::linux::UidScheme;
use bas_core::scenario::{critical_alive, plant_snapshot, Platform};
use bas_core::EngineSnapshot;
use bas_fleet::{
    instance_seed, run_fleet_with, FleetConfig, FleetReport, InstancePool, InstanceReport,
    RequestStats, WorkerPool,
};
use bas_sim::metrics::KernelMetrics;
use bas_sim::time::{SimDuration, SimTime};
use bas_traffic::{assign_roles, run_traffic, Role, TrafficConfig};

use crate::trace::{self_time_by_name, Tracer};

pub const PLATFORMS: [Platform; 3] = [Platform::Linux, Platform::Minix, Platform::Sel4];

/// Short platform name used in metric names and span labels.
pub fn platform_key(p: Platform) -> &'static str {
    match p {
        Platform::Linux => "linux",
        Platform::Minix => "minix",
        Platform::Sel4 => "sel4",
    }
}

/// The Linux account layout every verification cell uses (the paper's
/// shared-account baseline).
const UID_SCHEME: UidScheme = UidScheme::SharedAccount;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Benign 256-instance fleets on all three platforms: the paper's
    /// control loop with no web load.
    Steady3p,
    /// The E18 traffic front-end on MINIX at one worker, 512 instances.
    TenantTraffic,
    /// 25 000 short-lived MINIX instances through 256-engine cohorts.
    BootChurn,
    /// The 54-cell matrix, model-checked and run dynamically.
    VerifyMatrix,
}

pub const ALL: [Workload; 4] = [
    Workload::Steady3p,
    Workload::TenantTraffic,
    Workload::BootChurn,
    Workload::VerifyMatrix,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady3p => "steady-3p",
            Workload::TenantTraffic => "tenant-traffic",
            Workload::BootChurn => "boot-churn",
            Workload::VerifyMatrix => "verify-matrix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }
}

type Cell = (Platform, AttackerModel, AttackId);

/// The generated inputs of one workload: a pure function of the
/// workload, the seed, and the smoke flag.
pub enum Inputs {
    /// Benign fleets run one after another (steady-3p, boot-churn).
    Fleets(Vec<FleetConfig>),
    Traffic(Box<TrafficConfig>),
    Verify {
        cells: Vec<Cell>,
        /// One attack-run configuration per cell (its own scenario seed).
        runs: Vec<AttackRunConfig>,
        opts: ExploreOpts,
    },
}

impl Inputs {
    /// Builds the inputs. `smoke` shrinks every workload to a size a
    /// debug build runs in about a second (used by the tests).
    pub fn generate(workload: Workload, seed: u64, smoke: bool) -> Inputs {
        match workload {
            Workload::Steady3p => Inputs::Fleets(
                PLATFORMS
                    .iter()
                    .map(|&p| {
                        let mut c = FleetConfig::benign(p, if smoke { 8 } else { 256 }, 1);
                        c.root_seed = seed;
                        c.horizon = SimDuration::from_mins(if smoke { 2 } else { 10 });
                        c
                    })
                    .collect(),
            ),
            Workload::TenantTraffic => {
                let mut c = TrafficConfig::new(Platform::Minix, if smoke { 32 } else { 512 }, 1);
                c.root_seed = seed;
                c.attacker_fraction = if smoke { 0.1 } else { 0.02 };
                if smoke {
                    c.profile.duration = SimDuration::from_secs(60);
                    c.profile.mean_interarrival_s = 2.0;
                    c.horizon = (c.profile.start - SimTime::ZERO)
                        + c.profile.duration
                        + SimDuration::from_secs(60);
                    c.attack_run.warmup = SimDuration::from_secs(60);
                    c.attack_run.window = SimDuration::from_secs(120);
                    c.attack_run.cooldown = SimDuration::from_secs(30);
                }
                Inputs::Traffic(Box::new(c))
            }
            Workload::BootChurn => {
                let mut c =
                    FleetConfig::benign(Platform::Minix, if smoke { 600 } else { 25_000 }, 1);
                c.root_seed = seed;
                c.horizon = SimDuration::from_secs(10);
                c.max_resident = if smoke { 16 } else { 256 };
                Inputs::Fleets(vec![c])
            }
            Workload::VerifyMatrix => {
                // The seed reaches only the dynamic runs' plants (sensor
                // noise); the verdicts must not depend on it. The model
                // checker has no seed.
                let mut cells = matrix_cells(&PLATFORMS);
                if smoke {
                    // One cell per platform.
                    cells = cells.into_iter().step_by(18).collect();
                }
                let runs = (0..cells.len())
                    .map(|i| {
                        let mut run = AttackRunConfig::default();
                        run.scenario.seed = instance_seed(seed, i);
                        run
                    })
                    .collect();
                Inputs::Verify {
                    cells,
                    runs,
                    opts: ExploreOpts::default(),
                }
            }
        }
    }
}

/// FNV-1a over a value's `Debug` rendering, streamed so a 25 000-instance
/// report is never materialized as text. `Debug` prints every field with
/// round-trip float formatting, so equal digests mean equal outcomes.
pub fn digest(value: &impl Debug) -> u64 {
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing never fails");
    h.0
}

/// One untraced job.
#[derive(Debug, Default)]
pub struct JobResult {
    /// Wall seconds of the whole public call sequence.
    pub wall_s: f64,
    /// Simulated building-seconds advanced.
    pub sim_s: f64,
    /// Instances booted, run and reported.
    pub instances: u64,
    /// Operations attempted: instances, requests, attack sessions, cells.
    pub attempted: u64,
    /// Operations that failed: lost instances, failed requests, cells
    /// disagreeing with the paper.
    pub failed: u64,
    /// Digest of every deterministic outcome.
    pub digest: u64,
    /// Digest of the part the traced re-drive reproduces (everything
    /// except tenant-traffic's attacker lane).
    pub redrive_digest: u64,
    /// Broken invariants other than failed operations.
    pub problems: Vec<String>,
    /// Completed tenant requests.
    pub requests: u64,
    /// Benign plus attacker wall seconds as `TrafficWall` reports them.
    pub traffic_wall_s: f64,
    /// Attacker-lane wall seconds from `TrafficWall`.
    pub attack_s: f64,
    /// `LatencyHistogram::percentile(0.99)` of the request latencies, ms.
    pub hist_p99_ms: f64,
    /// Wall seconds of `check_cells`.
    pub mc_wall_s: f64,
    pub mc_states: u64,
    /// Mean per-worker busy fraction of the fleet runs.
    pub utilization: f64,
}

/// Folds a fleet report into the job's accounting and checks.
fn account_fleet(job: &mut JobResult, report: &FleetReport) {
    let t = &report.totals;
    job.sim_s += t.sim_seconds;
    job.instances += report.instances as u64;
    job.requests += t.requests;
    job.attempted += report.instances as u64 + t.requests;
    job.failed += (t.critical_losses + t.safety_violations) as u64
        + (t.requests - t.requests_ok)
        + report.request_latency.invalid;
    if t.hot_path_allocs != 0 {
        job.problems.push(format!(
            "{}: {} hot-path allocations in a warm fleet",
            report.platform, t.hot_path_allocs
        ));
    }
    if report.request_latency.samples != t.requests {
        job.problems.push(format!(
            "{}: {} latency samples for {} requests",
            report.platform, report.request_latency.samples, t.requests
        ));
    }
}

/// The paper's verdict for a dynamic run, by the rule `exp_attack_matrix`
/// applies.
fn agrees_with_paper(o: &AttackOutcome) -> bool {
    match paper_expectation(o.platform, o.attacker, o.attack) {
        Expectation::Compromised => o.compromised(),
        Expectation::Stopped => !o.compromised() && !o.mechanism.succeeded(),
        Expectation::ResourceExhaustionOnly => !o.compromised() && o.mechanism.succeeded(),
    }
}

fn mc_ok(r: &CellReport) -> bool {
    r.agrees() && !r.stats.truncated && !r.invariant_violated()
}

fn verify_digest(reports: &[CellReport], outcomes: &[AttackOutcome]) -> u64 {
    let mc: Vec<_> = reports
        .iter()
        .map(|r| {
            (
                r.platform,
                r.attacker,
                r.attack,
                r.mc,
                r.paper,
                r.taint,
                r.stats,
                r.reached,
                &r.counterexample,
            )
        })
        .collect();
    digest(&(mc, outcomes))
}

fn attack_sim_s(run: &AttackRunConfig) -> f64 {
    (run.warmup + run.window + run.cooldown).as_secs_f64()
}

/// Runs one job through the public entry points, untraced.
pub fn run_job(inputs: &Inputs, pool: &WorkerPool) -> JobResult {
    let mut job = JobResult::default();
    match inputs {
        Inputs::Fleets(configs) => {
            let t = Instant::now();
            let runs: Vec<_> = configs.iter().map(|c| run_fleet_with(pool, c)).collect();
            job.wall_s = t.elapsed().as_secs_f64();
            let reports: Vec<&FleetReport> = runs.iter().map(|r| &r.report).collect();
            for report in &reports {
                account_fleet(&mut job, report);
            }
            let busy: Vec<f64> = runs
                .iter()
                .flat_map(|r| r.wall.worker_utilization.iter().copied())
                .collect();
            job.utilization = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
            job.digest = digest(&reports);
            job.redrive_digest = job.digest;
        }
        Inputs::Traffic(config) => {
            let t = Instant::now();
            let run = run_traffic(pool, config);
            job.wall_s = t.elapsed().as_secs_f64();
            let report = &run.report;
            account_fleet(&mut job, &report.fleet);
            let attackers = report.attacker_instances as u64;
            job.instances += attackers;
            job.attempted += attackers;
            job.sim_s += attackers as f64 * attack_sim_s(&config.attack_run);
            if report.benign_instances + report.attacker_instances != config.instances {
                job.problems
                    .push("role split does not cover the fleet".to_string());
            }
            job.traffic_wall_s = run.wall.benign.wall_seconds + run.wall.attack_wall_seconds;
            job.attack_s = run.wall.attack_wall_seconds;
            job.hist_p99_ms = report.latency_percentile(0.99) * 1e3;
            job.digest = digest(report);
            job.redrive_digest = digest(&report.fleet);
        }
        Inputs::Verify { cells, runs, opts } => {
            let t = Instant::now();
            let reports = check_cells(cells, UID_SCHEME, opts, 1);
            job.mc_wall_s = t.elapsed().as_secs_f64();
            let outcomes: Vec<AttackOutcome> = cells
                .iter()
                .zip(runs)
                .map(|(&(p, a, k), run)| run_attack(p, a, k, run))
                .collect();
            job.wall_s = t.elapsed().as_secs_f64();
            job.mc_states = reports.iter().map(|r| r.stats.states as u64).sum();
            job.sim_s = runs.iter().map(attack_sim_s).sum();
            job.instances = outcomes.len() as u64;
            job.attempted = (reports.len() + outcomes.len()) as u64;
            job.failed = reports.iter().filter(|r| !mc_ok(r)).count() as u64
                + outcomes.iter().filter(|o| !agrees_with_paper(o)).count() as u64;
            job.digest = verify_digest(&reports, &outcomes);
            job.redrive_digest = job.digest;
        }
    }
    job
}

/// Spans that structure the trace rather than time a layer call.
const STRUCTURAL_SPANS: [&str; 4] = ["rep", "fleet.run", "cohort", "cell"];

/// What a traced re-drive measured.
#[derive(Debug, Default)]
pub struct TracedResult {
    /// Duration of the `rep` span, seconds.
    pub wall_s: f64,
    /// Comparable with [`JobResult::redrive_digest`].
    pub digest: u64,
    /// Count and summed self time per `(span name, label)`.
    pub layers: BTreeMap<(&'static str, &'static str), (u64, f64)>,
    /// Kernel counter totals per platform.
    pub kernel: Vec<(Platform, KernelMetrics)>,
    /// Instance-seconds advanced through `run_for`.
    pub run_for_sim_s: f64,
    /// Lockstep chunks the plants advanced.
    pub plant_steps: f64,
    pub checkouts: u64,
    pub recycled: u64,
    /// Raw request latencies, seconds.
    pub latencies_s: Vec<f64>,
    /// Requests that were setpoint writes.
    pub writes: u64,
    pub mc_states: u64,
    pub mc_transitions: u64,
    pub mc_ample_states: u64,
    pub mc_truncated: u64,
}

impl TracedResult {
    /// Summed self time of every span called `name`, seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, v)| v.1)
            .sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.layers
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, v)| v.0)
            .sum()
    }

    /// Share of the traced wall covered by layer spans' self time.
    pub fn coverage(&self) -> f64 {
        let layer_s: f64 = self
            .layers
            .iter()
            .filter(|((n, _), _)| !STRUCTURAL_SPANS.contains(n))
            .map(|(_, v)| v.1)
            .sum();
        layer_s / self.wall_s
    }
}

fn add_metrics(total: &mut KernelMetrics, m: &KernelMetrics) {
    total.kernel_entries += m.kernel_entries;
    total.context_switches += m.context_switches;
    total.ipc_messages += m.ipc_messages;
    total.ipc_bytes += m.ipc_bytes;
    total.ipc_waits += m.ipc_waits;
    total.access_denied += m.access_denied;
    total.hot_path_allocs += m.hot_path_allocs;
}

fn kernel_entry(out: &mut TracedResult, platform: Platform) -> &mut KernelMetrics {
    let i = match out.kernel.iter().position(|(p, _)| *p == platform) {
        Some(i) => i,
        None => {
            out.kernel.push((platform, KernelMetrics::default()));
            out.kernel.len() - 1
        }
    };
    &mut out.kernel[i].1
}

/// The fleet engine's sweep length: 600 lockstep chunks. Epoch length
/// never changes what an instance computes (chunked advance equals
/// one-shot advance); matching it keeps the traced call pattern the
/// untraced one.
const CHUNKS_PER_EPOCH: u64 = 600;

/// Runs a benign fleet on the calling thread the way `run_fleet_with`
/// runs it on one worker, with a span around every layer call.
fn traced_fleet(t: &mut Tracer, config: &FleetConfig, out: &mut TracedResult) -> FleetReport {
    let run = t.begin_labeled("fleet.run", platform_key(config.platform));
    let s = t.begin("core.snapshot.capture");
    let snapshot = Arc::new(EngineSnapshot::capture(config.platform, &config.template));
    t.end(s);
    let mut pool = InstancePool::for_config(config, Some(snapshot));
    let epoch_ns = config.template.lockstep_chunk.as_nanos() * CHUNKS_PER_EPOCH;
    let total_ns = config.horizon.as_nanos();
    let cohort = config.max_resident.max(1);
    let mut reports = Vec::with_capacity(config.instances);
    for begin in (0..config.instances).step_by(cohort) {
        let c = t.begin("cohort");
        let range = begin..(begin + cohort).min(config.instances);
        let mut engines = Vec::with_capacity(range.len());
        for index in range.clone() {
            let s = t.begin("fleet.checkout");
            engines.push(pool.checkout(config, index));
            t.end(s);
        }
        let mut done_ns = 0;
        while done_ns < total_ns {
            let step = SimDuration::from_nanos((total_ns - done_ns).min(epoch_ns));
            for engine in &mut engines {
                let s = t.begin("core.run_for");
                engine.run_for(step);
                t.end(s);
            }
            done_ns += step.as_nanos();
        }
        for (index, engine) in range.zip(engines) {
            let s = t.begin("fleet.finish");
            let samples = engine.request_samples();
            reports.push(InstanceReport {
                index,
                seed: instance_seed(config.root_seed, index),
                sim_seconds: engine.now().as_secs_f64(),
                critical_alive: critical_alive(engine.as_ref()),
                metrics: engine.metrics(),
                plant: plant_snapshot(engine.as_ref()),
                attack: None,
                requests: RequestStats::from_samples(&samples),
            });
            pool.checkin(engine);
            t.end(s);
            for sample in &samples {
                out.latencies_s
                    .push((sample.completed - sample.scheduled).as_secs_f64());
                out.writes += u64::from(matches!(sample.action, WebAction::SetSetpoint(_)));
            }
        }
        t.end(c);
    }
    let s = t.begin("fleet.aggregate");
    let report = FleetReport::aggregate(config.platform, config.root_seed, None, reports);
    t.end(s);
    out.checkouts += pool.materialized() + pool.recycled();
    out.recycled += pool.recycled();
    // The untraced worker frees its idle engines before the run returns.
    let s = t.begin("fleet.release");
    drop(pool);
    t.end(s);
    t.end(run);
    report
}

/// Re-drives one job through the public layer calls, traced. Digests and
/// counts are taken after the `rep` span closes, so they are not charged
/// to it.
pub fn traced_job(inputs: &Inputs, t: &mut Tracer) -> TracedResult {
    let mut out = TracedResult::default();
    // (report, lockstep chunk in seconds) per fleet; (model-check
    // reports, dynamic outcomes) for the matrix.
    let mut fleets: Vec<(FleetReport, f64)> = Vec::new();
    let (mut reports, mut outcomes) = (Vec::new(), Vec::new());
    let rep = t.begin("rep");
    match inputs {
        Inputs::Fleets(configs) => {
            for c in configs {
                let report = traced_fleet(t, c, &mut out);
                fleets.push((report, c.template.lockstep_chunk.as_secs_f64()));
            }
        }
        Inputs::Traffic(config) => {
            let s = t.begin("traffic.roles");
            let roles = assign_roles(config);
            t.end(s);
            let benign = roles.iter().filter(|r| **r == Role::Benign).count();
            // The benign sub-fleet exactly as `run_traffic` configures it.
            let mut fleet = FleetConfig::benign(config.platform, benign, config.workers);
            fleet.root_seed = config.root_seed;
            fleet.horizon = config.horizon;
            fleet.boot = config.boot;
            fleet.template.traffic = Some(config.profile.clone());
            let report = traced_fleet(t, &fleet, &mut out);
            fleets.push((report, fleet.template.lockstep_chunk.as_secs_f64()));
        }
        Inputs::Verify { cells, runs, opts } => {
            for (&(platform, attacker, attack), run) in cells.iter().zip(runs) {
                let c = t.begin_labeled("cell", platform_key(platform));
                let s = t.begin("mc.model_build");
                let model = ScenarioModel::new(platform, attacker, attack, UID_SCHEME);
                t.end(s);
                let s = t.begin("mc.check_cell");
                reports.push(check_cell(&model, opts));
                t.end(s);
                let s = t.begin("attack.run_attack");
                outcomes.push(run_attack(platform, attacker, attack, run));
                t.end(s);
                t.end(c);
            }
        }
    }
    t.end(rep);
    out.wall_s = t.seconds(rep);
    out.layers = self_time_by_name(t.spans());

    for (report, chunk_s) in &fleets {
        out.run_for_sim_s += report.totals.sim_seconds;
        out.plant_steps += report.totals.sim_seconds / chunk_s;
        let total = kernel_entry(&mut out, report.platform);
        for r in &report.per_instance {
            add_metrics(total, &r.metrics);
        }
    }
    for r in &reports {
        out.mc_states += r.stats.states as u64;
        out.mc_transitions += r.stats.transitions as u64;
        out.mc_ample_states += r.stats.ample_states as u64;
        out.mc_truncated += u64::from(r.stats.truncated);
    }
    for o in &outcomes {
        add_metrics(kernel_entry(&mut out, o.platform), &o.metrics);
    }
    let fleet_reports: Vec<&FleetReport> = fleets.iter().map(|(r, _)| r).collect();
    out.digest = match inputs {
        Inputs::Fleets(_) => digest(&fleet_reports),
        // The untraced tenant-traffic digest covers its one benign fleet.
        Inputs::Traffic(_) => digest(fleet_reports[0]),
        Inputs::Verify { .. } => verify_digest(&reports, &outcomes),
    };
    out
}

/// Time to expand every benign instance's tenant schedule, seconds per
/// instance (the generator runs inside checkout in the fleet; here it
/// runs alone).
pub fn generate_s_per_instance(config: &TrafficConfig) -> f64 {
    // Benign instances take the sub-fleet's contiguous indices 0..benign.
    let benign = assign_roles(config)
        .iter()
        .filter(|r| **r == Role::Benign)
        .count();
    let t = Instant::now();
    for index in 0..benign {
        std::hint::black_box(
            config
                .profile
                .generate(instance_seed(config.root_seed, index)),
        );
    }
    t.elapsed().as_secs_f64() / benign.max(1) as f64
}
