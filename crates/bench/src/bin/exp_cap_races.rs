//! E19: capability-churn races — the happens-before detector
//! cross-validated three ways against the rest of the repo.
//!
//! The race detector ([`bas_analysis::races`]) watches the live kernels'
//! capability-event streams under `bas-faults` churn schedules and flags
//! TOCTOU, use-after-revoke and write-write conflicts from the
//! happens-before closure alone. This experiment pins its verdicts to
//! three independent oracles:
//!
//! 1. **Seeded catalog (21 scenarios).** Every 3-platform × 7-shape
//!    churn scenario must produce *exactly* its expected race-kind set —
//!    including the per-platform asymmetry (a timed revoke between IPC
//!    periods is clean on MINIX/seL4, which re-check per send, but races
//!    on Linux, whose DAC check happens only at `mq_open`) — and the
//!    churn-free controls must be race-free (zero false positives).
//! 2. **Model checker.** The plain attack matrix never reaches
//!    `CAPABILITY_RACE` under *any* interleaving, while churn-enabled
//!    cells reach it and minimize to a `capability-race` counterexample.
//! 3. **Static analyzer.** Every `revocation-leak` finding from the
//!    derivation fixpoint maps to a demonstrated dynamic race (untrusted
//!    holder) or a justified suppression (trusted holder), and each
//!    referenced churn scenario really yields a revoke-raced stale use.
//!
//! Storm schedules are additionally delta-minimized to 1-minimal,
//! replay-confirmed witnesses.
//!
//! Run:
//! `cargo run --release -p bas-bench --bin exp_cap_races [-- --quick] [-- --json] [-- --workers N]`
//!
//! `--json` writes `BENCH_races.json` (byte-identical at any worker
//! count) plus `BENCH_races_perf.json` (wall-clock throughput, gated in
//! ci.sh against `BENCH_races_baseline.json`). Exits nonzero on any
//! missed race, false positive, matrix race-bit hit, unmapped leak, or
//! unconfirmed witness.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use bas_analysis::mc::verdict::props;
use bas_analysis::mc::{
    check_cell, check_cells, matrix_cells, ExploreOpts, McProperty, ScenarioModel,
};
use bas_analysis::races::{
    churn_scenarios, detect, map_revocation_leaks, minimize, run_churn_plan, run_scenario,
    ChurnScenario, Race, RaceKind,
};
use bas_attack::{AttackId, AttackerModel};
use bas_bench::{rule, section, verdict, Harness};
use bas_core::platform::linux::UidScheme;
use bas_faults::plan::FaultPlan;
use bas_fleet::{Json, WorkerPool};
use bas_sim::caps::CapOp;
use bas_sim::time::SimDuration;

fn kind_set(kinds: &[RaceKind]) -> BTreeSet<&'static str> {
    kinds.iter().map(|k| k.code()).collect()
}

fn race_json(r: &Race) -> Json {
    Json::obj(vec![
        ("kind", Json::Str(r.kind.code().into())),
        ("cap", Json::Str(r.cap.clone())),
        ("object", Json::Str(r.object.clone())),
        ("subject", Json::Str(r.subject.clone())),
        ("write_actor", Json::Str(r.write_actor.clone())),
        ("write_op", Json::Str(format!("{:?}", r.write_op))),
    ])
}

fn main() {
    let h = Harness::new("races");
    let platforms = h.platforms();
    let sweep_workers = h.workers();
    let opts = ExploreOpts {
        use_por: true,
        state_budget: if h.quick() { 500_000 } else { 2_000_000 },
    };
    let mut failures = 0usize;

    // ----------------------------------------------------------------
    // 1. Seeded churn catalog: exact race-kind sets, in parallel across
    //    scenarios (WorkerPool::map preserves input order, so the report is
    //    byte-identical at any worker count).
    // ----------------------------------------------------------------
    let catalog: Vec<ChurnScenario> = churn_scenarios()
        .into_iter()
        .filter(|sc| platforms.contains(&sc.platform))
        .collect();
    section(&format!(
        "seeded churn catalog ({} scenarios, {sweep_workers} worker(s))",
        catalog.len()
    ));
    println!(
        "{:<26} {:>7} {:>6} {:<28} {:<28}  ok?",
        "scenario", "events", "edges", "expected", "detected"
    );
    rule();
    let t0 = Instant::now();
    let runs = WorkerPool::new(sweep_workers).map(catalog.len(), |i| {
        let trace = run_scenario(&catalog[i]);
        let races = detect(&trace);
        (trace.events.len(), trace.edges.len(), races)
    });
    let sweep_secs = t0.elapsed().as_secs_f64();

    let mut total_events = 0usize;
    let mut scenario_json = Vec::new();
    for (sc, (events, edges, races)) in catalog.iter().zip(&runs) {
        total_events += events;
        let detected: BTreeSet<&'static str> = races.iter().map(|r| r.kind.code()).collect();
        let expected = kind_set(&sc.expect);
        let ok = detected == expected;
        failures += usize::from(!ok);
        let show = |s: &BTreeSet<&str>| {
            if s.is_empty() {
                "(race-free)".to_string()
            } else {
                s.iter().copied().collect::<Vec<_>>().join(",")
            }
        };
        println!(
            "{:<26} {:>7} {:>6} {:<28} {:<28}  {}",
            sc.name,
            events,
            edges,
            show(&expected),
            show(&detected),
            if ok { "yes" } else { "** NO **" },
        );
        scenario_json.push(Json::obj(vec![
            ("name", Json::Str(sc.name.clone())),
            ("platform", Json::Str(sc.platform.to_string())),
            ("events", Json::UInt(*events as u64)),
            ("edges", Json::UInt(*edges as u64)),
            (
                "expected",
                Json::Arr(expected.iter().map(|k| Json::Str((*k).into())).collect()),
            ),
            ("races", Json::Arr(races.iter().map(race_json).collect())),
            ("note", Json::Str(sc.note.into())),
            ("ok", Json::Bool(ok)),
        ]));
    }
    rule();
    println!(
        "catalog: {} scenarios, {} trace events in {:.2}s",
        catalog.len(),
        total_events,
        sweep_secs
    );

    // ----------------------------------------------------------------
    // 2. Zero-false-positive control: churn-free runs on every platform
    //    must be structurally race-free.
    // ----------------------------------------------------------------
    section("churn-free controls (zero false positives)");
    let mut control_json = Vec::new();
    for &platform in &platforms {
        let trace = run_churn_plan(
            platform,
            &FaultPlan::new("churn-free", vec![]),
            SimDuration::from_mins(3),
        );
        let races = detect(&trace);
        let ok = races.is_empty();
        failures += usize::from(!ok);
        println!(
            "{:<8} {:>5} events, {:>4} edges, {} race(s) {}",
            platform.to_string(),
            trace.events.len(),
            trace.edges.len(),
            races.len(),
            verdict(ok, "[ok]", "** FALSE POSITIVE **"),
        );
        control_json.push(Json::obj(vec![
            ("platform", Json::Str(platform.to_string())),
            ("events", Json::UInt(trace.events.len() as u64)),
            ("races", Json::UInt(races.len() as u64)),
            ("ok", Json::Bool(ok)),
        ]));
    }

    // ----------------------------------------------------------------
    // 3. Model-checker differential, plain half: no cell of the attack
    //    matrix reaches CAPABILITY_RACE under any interleaving.
    // ----------------------------------------------------------------
    section(&format!(
        "attack matrix: CAPABILITY_RACE unreachable in every plain cell \
         (state budget {}, {sweep_workers} sweep worker(s))",
        opts.state_budget
    ));
    let cells = matrix_cells(&platforms);
    let reports = check_cells(&cells, UidScheme::SharedAccount, &opts, sweep_workers);
    let mut race_free = 0usize;
    for r in &reports {
        let ok = r.reached & props::CAPABILITY_RACE == 0 && !r.stats.truncated;
        race_free += usize::from(ok);
        if !ok {
            failures += 1;
            println!(
                "** {} / {} / {}: CAPABILITY_RACE reached (or truncated) in a churn-free cell **",
                r.platform, r.attacker, r.attack
            );
        }
    }
    println!(
        "{race_free}/{} cells race-free {}",
        reports.len(),
        verdict(race_free == reports.len(), "[ok]", "** GATE FAILURE **"),
    );

    // ----------------------------------------------------------------
    // 4. Model-checker differential, churn half: enabling Revoke/Regrant
    //    attacker ops makes the race reachable, and the minimized
    //    counterexample names it.
    // ----------------------------------------------------------------
    section("churn-enabled cells: the race is reachable and the counterexample names it");
    let mut churn_json = Vec::new();
    for &platform in &platforms {
        let model = ScenarioModel::new(
            platform,
            AttackerModel::ArbitraryCode,
            AttackId::KillCritical,
            UidScheme::PerProcessHardened,
        )
        .with_churn();
        let r = check_cell(&model, &opts);
        let reached_race = r.reached & props::CAPABILITY_RACE != 0;
        let cx_names_race = r
            .counterexample
            .as_ref()
            .is_some_and(|cx| cx.property == McProperty::CapabilityRace && !cx.trace.is_empty());
        let ok = reached_race && cx_names_race && !r.stats.truncated;
        failures += usize::from(!ok);
        let cx_len = r.counterexample.as_ref().map_or(0, |cx| cx.trace.len());
        println!(
            "{:<8} {:>9} states, race reached: {:<3} cx: {:<16} ({} actions) {}",
            platform.to_string(),
            r.stats.states,
            verdict(reached_race, "yes", "NO"),
            r.counterexample
                .as_ref()
                .map_or("(none)".to_string(), |cx| cx.property.to_string()),
            cx_len,
            verdict(ok, "[ok]", "** NO **"),
        );
        churn_json.push(Json::obj(vec![
            ("platform", Json::Str(platform.to_string())),
            ("states", Json::UInt(r.stats.states as u64)),
            ("race_reached", Json::Bool(reached_race)),
            (
                "counterexample",
                match &r.counterexample {
                    Some(cx) => Json::obj(vec![
                        ("property", Json::Str(cx.property.to_string())),
                        (
                            "trace",
                            Json::Arr(cx.trace.iter().map(|a| Json::Str(a.to_string())).collect()),
                        ),
                    ]),
                    None => Json::Null,
                },
            ),
            ("ok", Json::Bool(ok)),
        ]));
    }

    // ----------------------------------------------------------------
    // 5. Static cross-validation: every revocation-leak finding maps to
    //    a demonstrated dynamic race or a justified suppression, and the
    //    referenced scenarios really race on a revoke.
    // ----------------------------------------------------------------
    section("static revocation-leaks: total mapping to dynamic races or suppressions");
    let mappings = map_revocation_leaks();
    let mut demo_cache: BTreeMap<String, Vec<Race>> = BTreeMap::new();
    let full_catalog = churn_scenarios();
    let mut mapping_json = Vec::new();
    let mut checked = 0usize;
    for m in &mappings {
        let relevant = platforms.contains(&m.platform);
        let ok = match (m.disposition, &m.dynamic_scenario) {
            ("dynamic-race", Some(name)) if relevant => {
                let races = demo_cache.entry(name.clone()).or_insert_with(|| {
                    full_catalog
                        .iter()
                        .find(|sc| &sc.name == name)
                        .map(|sc| detect(&run_scenario(sc)))
                        .unwrap_or_default()
                });
                races
                    .iter()
                    .any(|r| r.kind == RaceKind::Toctou && r.write_op == CapOp::Revoke)
            }
            ("dynamic-race", Some(_)) => true, // platform filtered out
            ("suppressed", None) => !m.untrusted,
            _ => false,
        };
        checked += usize::from(relevant);
        failures += usize::from(!ok);
        println!(
            "{:<24} {:<8} {:<10} {:<14} {:<28} {}",
            m.scenario,
            m.platform.to_string(),
            m.holder,
            m.disposition,
            m.dynamic_scenario.as_deref().unwrap_or("-"),
            verdict(ok, "[ok]", "** UNMAPPED **"),
        );
        mapping_json.push(Json::obj(vec![
            ("scenario", Json::Str(m.scenario.clone())),
            ("platform", Json::Str(m.platform.to_string())),
            ("holder", Json::Str(m.holder.clone())),
            ("untrusted", Json::Bool(m.untrusted)),
            ("disposition", Json::Str(m.disposition.into())),
            (
                "dynamic_scenario",
                m.dynamic_scenario
                    .as_ref()
                    .map_or(Json::Null, |s| Json::Str(s.clone())),
            ),
            ("justification", Json::Str(m.justification.clone())),
            ("ok", Json::Bool(ok)),
        ]));
    }
    rule();
    println!(
        "{} mapping(s), {checked} on selected platform(s), all total {}",
        mappings.len(),
        verdict(!mappings.is_empty(), "[ok]", "** EMPTY **"),
    );
    failures += usize::from(mappings.is_empty());

    // ----------------------------------------------------------------
    // 6. Witness minimization: the 4-event storm schedules reduce to
    //    1-minimal, replay-confirmed causes (1 event for the TOCTOU, 2
    //    for the admin/tenant write-write conflict).
    // ----------------------------------------------------------------
    section("storm witnesses: 1-minimal schedules, replay-confirmed through the engine");
    let mut witness_json = Vec::new();
    for sc in catalog
        .iter()
        .filter(|sc| sc.name.ends_with("/churn-storm"))
    {
        let races = detect(&run_scenario(sc));
        for race in &races {
            let w = minimize(sc, race);
            let want = match race.kind {
                RaceKind::Toctou => 1,
                RaceKind::WriteWrite => 2,
                RaceKind::UseAfterRevoke => 1,
            };
            let ok = w.replay_confirmed && w.schedule.len() == want;
            failures += usize::from(!ok);
            println!(
                "{:<20} {:<16} {} -> {} event(s) (dropped {}), replayed: {} {}",
                sc.name,
                race.kind.code(),
                sc.plan.events().len(),
                w.schedule.len(),
                w.dropped,
                verdict(w.replay_confirmed, "yes", "NO"),
                verdict(ok, "[ok]", "** NOT MINIMAL **"),
            );
            witness_json.push(Json::obj(vec![
                ("scenario", Json::Str(w.scenario.clone())),
                ("kind", Json::Str(w.kind.code().into())),
                ("cap", Json::Str(w.cap.clone())),
                ("schedule_events", Json::UInt(w.schedule.len() as u64)),
                ("dropped", Json::UInt(w.dropped as u64)),
                ("replay_confirmed", Json::Bool(w.replay_confirmed)),
                ("ok", Json::Bool(ok)),
            ]));
        }
    }

    println!(
        "\nverdict: {}",
        verdict(
            failures == 0,
            "detector, model checker and static analyzer agree on every churn story",
            &format!("{failures} check(s) failed"),
        )
    );

    // The main report carries no wall-clock values, so it is
    // byte-identical at any --workers count (ci.sh cmp-gates this).
    h.emit_json(&Json::obj(vec![
        ("schema", Json::Str("bas-cap-races/v1".into())),
        ("state_budget", Json::UInt(opts.state_budget as u64)),
        ("scenarios", Json::Arr(scenario_json)),
        ("controls", Json::Arr(control_json)),
        (
            "matrix",
            Json::obj(vec![
                ("cells", Json::UInt(reports.len() as u64)),
                ("race_free", Json::UInt(race_free as u64)),
            ]),
        ),
        ("churn_cells", Json::Arr(churn_json)),
        ("leak_mappings", Json::Arr(mapping_json)),
        ("witnesses", Json::Arr(witness_json)),
        ("failures", Json::UInt(failures as u64)),
    ]));

    // Throughput lives in a separate artifact precisely because the
    // main report must stay deterministic; ci.sh floors this number
    // against the committed baseline.
    if h.json() {
        let perf = Json::obj(vec![
            ("schema", Json::Str("bas-cap-races-perf/v1".into())),
            ("trace_events", Json::UInt(total_events as u64)),
            ("seconds", Json::Num(sweep_secs)),
            (
                "events_per_second",
                Json::Num(total_events as f64 / sweep_secs.max(1e-9)),
            ),
        ]);
        std::fs::write("BENCH_races_perf.json", perf.render()).expect("write perf JSON");
        println!("wrote BENCH_races_perf.json");
    }

    if failures > 0 {
        std::process::exit(1);
    }
}
