//! `basbench`: the repository benchmark.
//!
//! ```text
//! basbench run --workload <name> [--seed <u64>] [--seconds <s>] [--trace 0|1]
//!              [--spans <file.jsonl>] [--out <file.json>] [--smoke]
//! basbench all [--seed <u64>]
//! basbench compare <parent runs…> -- <change runs…>
//! ```
//!
//! `run` prints a table of every metric (reported value, median,
//! quartiles, sample count) and, as its last line, one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`. It exits 1 when any
//! correctness check fails and 2 on a usage error. See `README.md`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use bas_benchmark::metrics::{self, kernel_fields, Reported, RunReport, Samples};
use bas_benchmark::stats::{self, median};
use bas_benchmark::trace::Tracer;
use bas_benchmark::workloads::{
    self, generate_s_per_instance, platform_key, run_job, traced_job, Inputs, JobResult,
    TracedResult, Workload, PLATFORMS,
};
use bas_benchmark::{calib, compare, json};
use bas_fleet::WorkerPool;

const USAGE: &str = "usage:
  basbench run --workload <steady-3p|tenant-traffic|boot-churn|verify-matrix>
               [--seed <u64>] [--seconds <s>] [--trace 0|1]
               [--spans <file.jsonl>] [--out <file.json>] [--smoke]
  basbench all [--seed <u64>]
  basbench compare <parent run files...> -- <change run files...>";

/// The default seed; 7 is the held-out seed for confirming a claim.
const DEFAULT_SEED: u64 = 42;
/// Fewest child processes timed for `setup_s`.
const MIN_SETUP_PROBES: usize = 9;
/// Timed repetitions of an untraced run without `--seconds` (about
/// twelve seconds per workload).
const REPS: usize = 30;
/// Fewest timed repetitions of a budgeted untraced run.
const MIN_REPS: usize = 3;
/// Untraced and traced repetitions of a traced run without `--seconds`.
const TRACE_REPS: usize = 5;
/// Repetitions of the 2-worker set on steady-3p.
const TWO_WORKER_REPS: usize = 3;
/// Repetitions of the quiet MINIX fleet tenant-traffic's web cost is
/// measured against.
const WEB_REFERENCE_REPS: usize = 5;

/// Live heap bytes, and the most ever live at once (`peak_heap_mb`).
/// Resident-set peaks are not used: across identical runs glibc's heap
/// layout, and with it `VmHWM`, differs by up to a third depending on
/// how many repetitions ran.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The system allocator plus the live/peak byte counts. The counters
/// publish no other data, so relaxed ordering suffices; each read-modify-
/// write still sees one total order, so the peak is exact.
struct CountingAlloc;

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters never
// touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("all") => cmd_all(&args[1..]),
        Some("compare") => compare::cmd(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

struct RunOpts {
    workload: Workload,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    spans: Option<String>,
    out: Option<String>,
    smoke: bool,
    /// Internal: build the inputs and the worker pool, then exit — the
    /// child process `setup_s` times.
    setup_probe: bool,
}

impl RunOpts {
    fn parse(args: &[String]) -> Result<RunOpts, String> {
        let mut workload = None;
        let mut opts = RunOpts {
            workload: Workload::Steady3p,
            seed: DEFAULT_SEED,
            seconds: None,
            trace: false,
            spans: None,
            out: None,
            smoke: false,
            setup_probe: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
                }
                "--seed" => {
                    let v = value()?;
                    opts.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
                }
                "--seconds" => {
                    let v = value()?;
                    let s: f64 = v.parse().map_err(|_| format!("bad seconds {v:?}"))?;
                    if !(0.0..=3600.0).contains(&s) {
                        return Err(format!("seconds out of range: {v}"));
                    }
                    opts.seconds = Some(s);
                }
                "--trace" => {
                    opts.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                    }
                }
                "--spans" => opts.spans = Some(value()?.clone()),
                "--out" => opts.out = Some(value()?.clone()),
                "--smoke" => opts.smoke = true,
                "--setup-probe" => opts.setup_probe = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        opts.workload = workload.ok_or("--workload is required")?;
        Ok(opts)
    }
}

fn cmd_run(args: &[String]) -> i32 {
    let opts = match RunOpts::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("basbench run: {e}\n{USAGE}");
            return 2;
        }
    };
    let inputs = Inputs::generate(opts.workload, opts.seed, opts.smoke);
    if opts.setup_probe {
        // Set-up ends where the first layer call of a rep would begin.
        std::hint::black_box((&inputs, WorkerPool::new(1)));
        return 0;
    }
    let report = if opts.trace {
        traced_run(&opts, &inputs)
    } else {
        untraced_run(&opts, &inputs)
    };
    print!("{}", report.table());
    let mut code = i32::from(!report.correct());
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, report.to_json().render() + "\n") {
            eprintln!("basbench run: writing {path}: {e}");
            code = 1;
        }
    }
    println!("{}", report.result_line());
    code
}

/// Operation and check accounting across the reps of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn problem(&mut self, p: String) {
        if !self.problems.contains(&p) {
            self.problems.push(p);
        }
    }

    fn add(&mut self, job: &JobResult, reference_digest: u64) {
        self.attempted += job.attempted;
        self.failed += job.failed;
        for p in &job.problems {
            self.problem(p.clone());
        }
        if job.digest != reference_digest {
            self.problem("a repetition's outcome differs from the warm-up repetition's".into());
        }
    }

    fn into_report(self, opts: &RunOpts, metrics: Vec<Reported>) -> RunReport {
        RunReport {
            workload: opts.workload.name(),
            seed: opts.seed,
            trace: opts.trace,
            attempted: self.attempted,
            failed: self.failed,
            problems: self.problems,
            metrics,
        }
    }
}

/// Runs `rep` until `reps` repetitions are done, or, with a time budget,
/// until `seconds` have passed and at least `min_reps` are done.
fn repeat(seconds: Option<f64>, reps: usize, min_reps: usize, mut rep: impl FnMut()) {
    let start = Instant::now();
    let mut done = 0;
    loop {
        rep();
        done += 1;
        let enough = match seconds {
            None => done >= reps,
            Some(s) => done >= min_reps && start.elapsed().as_secs_f64() >= s,
        };
        if enough {
            return;
        }
    }
}

/// Wall seconds from spawning a fresh `basbench` process to its exit
/// after building the workload inputs and the worker pool.
fn setup_probe(opts: &RunOpts) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating basbench: {e}"))?;
    let seed = opts.seed.to_string();
    let mut cmd = Command::new(exe);
    cmd.args([
        "run",
        "--setup-probe",
        "--workload",
        opts.workload.name(),
        "--seed",
        &seed,
    ]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    cmd.stdin(Stdio::null()).stdout(Stdio::null());
    let t = Instant::now();
    let status = cmd
        .status()
        .map_err(|e| format!("spawning set-up probe: {e}"))?;
    let elapsed = t.elapsed().as_secs_f64();
    if status.success() {
        Ok(elapsed)
    } else {
        Err(format!("set-up probe exited with {status}"))
    }
}

/// `--trace 0`: one discarded warm-up, then timed reps, each followed by
/// a set-up probe so the probes sample the whole run.
fn untraced_run(opts: &RunOpts, inputs: &Inputs) -> RunReport {
    let mut s = Samples::default();
    let mut tally = Tally::default();
    let probe = |s: &mut Samples, tally: &mut Tally| match setup_probe(opts) {
        Ok(v) => s.push("setup_s", v),
        Err(e) => tally.problem(e),
    };
    let mut probes = 0;
    let pool = WorkerPool::new(1);
    let warm = run_job(inputs, &pool);
    tally.add(&warm, warm.digest);
    repeat(opts.seconds, REPS, MIN_REPS, || {
        let job = run_job(inputs, &pool);
        tally.add(&job, warm.digest);
        s.push("job_s", job.wall_s);
        s.push("sim_s_per_s", job.sim_s / job.wall_s);
        s.push("instances_per_s", job.instances as f64 / job.wall_s);
        probe(&mut s, &mut tally);
        probes += 1;
    });
    drop(pool);
    for _ in probes..MIN_SETUP_PROBES {
        probe(&mut s, &mut tally);
    }
    s.push(
        "peak_heap_mb",
        PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0),
    );
    let metrics = s.report(metrics::end_to_end());
    tally.into_report(opts, metrics)
}

/// Runs `f` on a fresh thread, as an untraced fleet runs on a pool
/// worker: a worker's allocations come from its own heap arena, and a
/// traced re-drive should pay what the untraced run pays.
fn on_worker<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        s.spawn(f)
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// Exact order statistic: the smallest sample with at least a share `p`
/// of all samples at or below it.
fn order_statistic(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Per-layer samples of one traced repetition.
fn layer_samples(s: &mut Samples, tr: &TracedResult) {
    let run_for = tr.self_s("core.run_for");
    if tr.count("core.run_for") > 0 {
        s.push(
            "core.snapshot.capture_s",
            tr.self_s("core.snapshot.capture"),
        );
        s.push("core.run_for.self_s", run_for);
        for p in PLATFORMS {
            let key = platform_key(p);
            let v = tr.layers.get(&("core.run_for", key)).map_or(0.0, |v| v.1);
            s.push(format!("core.run_for.{key}_s"), v);
        }
        s.push(
            "core.run_for.ns_per_sim_s",
            run_for * 1e9 / tr.run_for_sim_s,
        );
        s.push("fleet.checkout.count", tr.checkouts as f64);
        s.push(
            "fleet.checkout.ns_per_op",
            tr.self_s("fleet.checkout") * 1e9 / tr.checkouts as f64,
        );
        s.push(
            "fleet.checkout.recycle_ratio",
            tr.recycled as f64 / tr.checkouts as f64,
        );
        let finishes = tr.count("fleet.finish") as f64;
        s.push(
            "fleet.finish.ns_per_op",
            tr.self_s("fleet.finish") * 1e9 / finishes,
        );
        s.push("fleet.aggregate_s", tr.self_s("fleet.aggregate"));
    }
    if tr.count("traffic.roles") > 0 {
        s.push("traffic.roles_s", tr.self_s("traffic.roles"));
    }
    if !tr.latencies_s.is_empty() {
        let mut lat = tr.latencies_s.clone();
        lat.sort_by(f64::total_cmp);
        s.push("traffic.req_samples", lat.len() as f64);
        s.push("traffic.write_frac", tr.writes as f64 / lat.len() as f64);
        s.push("traffic.req_p50_ms", order_statistic(&lat, 0.50) * 1e3);
        s.push("traffic.req_p99.99_ms", order_statistic(&lat, 0.9999) * 1e3);
    }
    for (p, m) in &tr.kernel {
        for (field, v) in kernel_fields(m) {
            s.push(format!("kernel.{}.{field}", platform_key(*p)), v as f64);
        }
    }
    let attacks = tr.count("attack.run_attack");
    if attacks > 0 {
        let ms = tr.self_s("attack.run_attack") * 1e3 / attacks as f64;
        s.push("attack.run_attack.ms_per_cell", ms);
    }
    let cells = tr.count("mc.check_cell");
    if cells > 0 {
        let check_s = tr.self_s("mc.check_cell");
        s.push(
            "mc.model_build.ms_per_cell",
            tr.self_s("mc.model_build") * 1e3 / cells as f64,
        );
        s.push("mc.check_cell.ms_per_cell", check_s * 1e3 / cells as f64);
        s.push("mc.states", tr.mc_states as f64);
        s.push("mc.transitions", tr.mc_transitions as f64);
        s.push("mc.ns_per_state", check_s * 1e9 / tr.mc_states as f64);
        s.push(
            "mc.ample_ratio",
            tr.mc_ample_states as f64 / tr.mc_states as f64,
        );
        s.push("mc.truncated_cells", tr.mc_truncated as f64);
    }
    s.push("trace.coverage_frac", tr.coverage());
}

/// `--trace 1`: a warm-up, untraced reps, traced reps of the same work,
/// then the isolated calibrations and each workload's extra probes.
fn traced_run(opts: &RunOpts, inputs: &Inputs) -> RunReport {
    let mut s = Samples::default();
    let mut tally = Tally::default();
    let half = opts.seconds.map(|v| v / 2.0);
    let pool = WorkerPool::new(1);
    let warm = run_job(inputs, &pool);
    tally.add(&warm, warm.digest);

    let mut untraced_walls = Vec::new();
    repeat(half, TRACE_REPS, 2, || {
        let job = run_job(inputs, &pool);
        tally.add(&job, warm.digest);
        // The traced re-drive leaves out tenant-traffic's attacker lane.
        untraced_walls.push(job.wall_s - job.attack_s);
        if job.traffic_wall_s > 0.0 {
            s.push(
                "traffic.requests_per_s",
                job.requests as f64 / job.traffic_wall_s,
            );
            s.push("traffic.attack_s", job.attack_s);
            s.push("report.hist_p99_ms", job.hist_p99_ms);
        }
        if job.mc_wall_s > 0.0 {
            s.push("mc.states_per_s", job.mc_states as f64 / job.mc_wall_s);
        }
    });
    drop(pool);

    let mut traced = Vec::new();
    let mut span_logs = Vec::new();
    let mut traced_reps = || {
        repeat(half, TRACE_REPS, 2, || {
            let mut tracer = Tracer::new();
            let tr = traced_job(inputs, &mut tracer);
            if tr.digest != warm.redrive_digest {
                tally.problem(
                    "the traced re-drive's outcome differs from the untraced run's".into(),
                );
            }
            if opts.spans.is_some() {
                span_logs.push(tracer);
            }
            traced.push(tr);
        })
    };
    // The re-drive runs where the untraced job runs: fleets on a pool
    // worker, the verification on the calling thread.
    match inputs {
        Inputs::Verify { .. } => traced_reps(),
        _ => on_worker(traced_reps),
    }
    for tr in &traced {
        layer_samples(&mut s, tr);
    }
    // Best against best, as for the gated timings: host contention only
    // ever adds time.
    let untraced_s = stats::min(&untraced_walls);
    let traced_walls: Vec<f64> = traced.iter().map(|t| t.wall_s).collect();
    s.push(
        "trace.overhead_frac",
        stats::min(&traced_walls) / untraced_s - 1.0,
    );
    let coverage = median(s.get("trace.coverage_frac"));
    if opts.workload != Workload::VerifyMatrix && coverage < 0.95 {
        tally.problem(format!(
            "layer self times cover only {:.1}% of the traced wall",
            coverage * 100.0
        ));
    }

    let costs = calib::measure(if opts.smoke { 100 } else { 1 });
    for (name, ns) in costs.metrics() {
        s.push(name, ns);
    }
    // The counts repeat exactly across traced repetitions, so one
    // prediction serves them all; only the measured side varies.
    if let Some(tr) = traced.iter().find(|t| t.count("core.run_for") > 0) {
        let predicted = costs.predict_s(&tr.kernel, tr.plant_steps);
        s.push("profile.predicted_s", predicted);
        for tr in &traced {
            s.push(
                "profile.residual_frac",
                1.0 - predicted / tr.self_s("core.run_for"),
            );
        }
    }

    match (opts.workload, inputs) {
        (Workload::Steady3p, Inputs::Fleets(configs)) => {
            two_worker_set(configs, untraced_s, warm.digest, &mut s, &mut tally)
        }
        (Workload::TenantTraffic, Inputs::Traffic(config)) => {
            web_cost(opts, &traced, &mut s);
            for _ in 0..3 {
                s.push(
                    "traffic.generate.ns_per_instance",
                    generate_s_per_instance(config) * 1e9,
                );
            }
        }
        _ => {}
    }

    if let Some(path) = &opts.spans {
        if let Err(e) = write_spans(path, &span_logs) {
            tally.problem(format!("writing {path}: {e}"));
        }
    }
    let metrics = s.report(metrics::per_layer());
    tally.into_report(opts, metrics)
}

/// steady-3p at two workers: speed-up over the best one-worker job and
/// worker utilization. Reports must not change with the worker count.
fn two_worker_set(
    configs: &[bas_fleet::FleetConfig],
    one_worker_s: f64,
    reference_digest: u64,
    s: &mut Samples,
    tally: &mut Tally,
) {
    let two = Inputs::Fleets(
        configs
            .iter()
            .map(|c| bas_fleet::FleetConfig {
                workers: 2,
                ..c.clone()
            })
            .collect(),
    );
    let pool = WorkerPool::new(2);
    for rep in 0..=TWO_WORKER_REPS {
        let job = run_job(&two, &pool);
        tally.add(&job, reference_digest);
        if rep > 0 {
            s.push("fleet.pool.speedup_2w", one_worker_s / job.wall_s);
            s.push("fleet.pool.util_2w", job.utilization);
        }
    }
}

/// tenant-traffic's `run_for` cost per simulated second beyond the quiet
/// MINIX control loop, measured against steady-3p's MINIX fleet at the
/// same seed.
fn web_cost(opts: &RunOpts, traced: &[TracedResult], s: &mut Samples) {
    let Inputs::Fleets(mut configs) = Inputs::generate(Workload::Steady3p, opts.seed, opts.smoke)
    else {
        unreachable!("steady-3p runs fleets");
    };
    configs.retain(|c| c.platform == bas_core::scenario::Platform::Minix);
    let quiet = Inputs::Fleets(configs);
    let ns_per_sim_s = |tr: &TracedResult| tr.self_s("core.run_for") * 1e9 / tr.run_for_sim_s;
    let quiet_ns: Vec<f64> = (0..=WEB_REFERENCE_REPS)
        .map(|_| ns_per_sim_s(&on_worker(|| traced_job(&quiet, &mut Tracer::new()))))
        .skip(1)
        .collect();
    let tenant_ns: Vec<f64> = traced.iter().map(ns_per_sim_s).collect();
    // Best against best: the two sets ran at different moments.
    s.push(
        "traffic.web_ns_per_sim_s",
        stats::min(&tenant_ns) - stats::min(&quiet_ns),
    );
}

fn write_spans(path: &str, logs: &[Tracer]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (rep, tracer) in logs.iter().enumerate() {
        tracer.write_jsonl(&mut out, rep)?;
    }
    std::io::Write::flush(&mut out)
}

/// Runs every workload untraced and traced, each in its own process,
/// and prints the end-to-end metrics with each workload's failure share.
fn cmd_all(args: &[String]) -> i32 {
    let seed = match args {
        [] => DEFAULT_SEED,
        [flag, v] if flag == "--seed" => match v.parse() {
            Ok(seed) => seed,
            Err(_) => {
                eprintln!("basbench all: bad seed {v:?}");
                return 2;
            }
        },
        _ => {
            eprintln!("{USAGE}");
            return 2;
        }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("basbench all: locating basbench: {e}");
            return 1;
        }
    };
    let mut ok = true;
    let mut summary = Vec::new();
    for w in workloads::ALL {
        for trace in ["0", "1"] {
            let seed = seed.to_string();
            let output = Command::new(&exe)
                .args([
                    "run",
                    "--workload",
                    w.name(),
                    "--seed",
                    &seed,
                    "--trace",
                    trace,
                ])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output();
            let output = match output {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("basbench all: running {}: {e}", w.name());
                    ok = false;
                    continue;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            ok &= output.status.success();
            let result = stdout
                .lines()
                .last()
                .and_then(|l| json::Json::parse(l).ok());
            if trace == "0" {
                summary.push((w.name(), result));
            }
        }
    }
    println!("\n# basbench all, seed {seed}: end-to-end metrics");
    for (name, result) in &summary {
        let Some(r) = result else {
            println!("{name:<16} (no result)");
            ok = false;
            continue;
        };
        let num = |k: &str| r.get(k).and_then(json::Json::as_f64).unwrap_or(f64::NAN);
        let correct = r.get("correct") == Some(&json::Json::Bool(true));
        ok &= correct;
        let mut line = format!(
            "{name:<16} correct={correct} fail_frac={}",
            num("failed") / num("attempted")
        );
        for def in metrics::end_to_end() {
            let metric = def.name;
            let m = r.get("metrics").and_then(|m| m.get(&metric));
            let value = m.and_then(|m| m.get("value")).and_then(json::Json::as_f64);
            let unit = m.and_then(|m| m.get("unit")).and_then(json::Json::as_str);
            line.push_str(&format!(
                "  {metric}={:.6} {}",
                value.unwrap_or(f64::NAN),
                unit.unwrap_or("?")
            ));
        }
        println!("{line}");
    }
    i32::from(!ok)
}
