//! E17: capability-flow static analysis, cross-validated against the
//! bounded model checker in both directions.
//!
//! The flow analyzer walks the Policy IR's derivation forest with a
//! worklist fixpoint and emits shortest escalation witnesses
//! `subject → cap hops → asset`. This experiment checks that the static
//! story and the dynamic story are the same story:
//!
//! 1. **Matrix differential (54 cells).** For every platform × attacker
//!    × attack cell, the presence of a relevant escalation witness must
//!    equal the model checker's verdict and the paper table. (The
//!    `taint` column is the static verdict, which is derived from these
//!    same witnesses, so it is printed but not compared.) Forward:
//!    every witness's predicted property bits intersect what the
//!    checker actually reached. Reverse: every
//!    compromise counterexample the checker minimizes is covered by a
//!    witness predicting that property.
//! 2. **Derivation scenarios (21).** Each seeded anomaly — amplified
//!    mint, incomplete revocation, stale expiry, masquerading handle,
//!    plus clean controls — must produce exactly the expected flow
//!    findings and witnesses statically, and exactly the expected
//!    `OBJECT_MASQUERADE`/`DERIVATION_BREACH` reachability dynamically.
//!
//! Run:
//! `cargo run --release -p bas-bench --bin exp_cap_flow [-- --quick] [-- --json] [-- --workers N] [-- --state-budget N]`
//!
//! Exits nonzero on any static/dynamic disagreement, unexpected flow
//! finding, missed witness, truncation, or internal-invariant hit.

use bas_analysis::flow::{
    closure, derivation_scenarios, escalation_witnesses, witnesses_for_attack,
};
use bas_analysis::mc::verdict::props;
use bas_analysis::mc::{check_cells, matrix_cells, ExploreOpts, ScenarioModel};
use bas_analysis::scenario::model_for;
use bas_attack::expectations::Expectation;
use bas_attack::{AttackId, AttackerModel};
use bas_bench::{rule, section, verdict, Harness};
use bas_core::platform::linux::UidScheme;
use bas_fleet::Json;

fn is_resource_attack(a: AttackId) -> bool {
    matches!(
        a,
        AttackId::ForkBomb | AttackId::BruteForceHandles | AttackId::FloodLegitChannel
    )
}

fn main() {
    let h = Harness::new("cap_flow");
    let scheme = UidScheme::SharedAccount;
    let opts = ExploreOpts {
        use_por: true,
        state_budget: h.state_budget(if h.quick() { 500_000 } else { 2_000_000 }),
    };
    let sweep_workers = h.workers();
    let mut failures = 0usize;

    // ----------------------------------------------------------------
    // 1. Matrix differential: static witnesses vs checker vs paper, over
    //    every cell.
    // ----------------------------------------------------------------
    section(&format!(
        "static/dynamic differential over the attack matrix \
         (state budget {}, {sweep_workers} sweep worker(s))",
        opts.state_budget
    ));
    println!(
        "{:<8} {:<12} {:<22} {:>9} {:<13} {:<13} {:>4}  ok?",
        "platform", "attacker", "attack", "witnesses", "mc-verdict", "taint", "fwd",
    );
    rule();

    let cells = matrix_cells(&h.platforms());
    let reports = check_cells(&cells, scheme, &opts, sweep_workers);
    let mut cells_json = Vec::new();
    for r in &reports {
        let model = model_for(r.platform, r.attacker, scheme);
        let ws = escalation_witnesses(&model);
        let relevant = witnesses_for_attack(&ws, r.attack, &model);
        let static_compromise = !relevant.is_empty();

        // Verdict agreement. Resource attacks have no escalation
        // witness by definition; their check is that nobody claims
        // compromise for them either.
        let agree = if is_resource_attack(r.attack) {
            relevant.is_empty()
                && r.mc != Expectation::Compromised
                && r.paper != Expectation::Compromised
        } else {
            static_compromise == (r.mc == Expectation::Compromised)
                && static_compromise == (r.paper == Expectation::Compromised)
        };

        // Forward: each witness's predicted property bits must be
        // reachable in the checker's state space.
        let forward = relevant
            .iter()
            .all(|w| w.asset.property_bits() & r.reached != 0);

        // Reverse: a minimized compromise counterexample must be
        // predicted by some witness.
        let reverse = match &r.counterexample {
            Some(cx) if props::COMPROMISE & cx.property.bit() != 0 => relevant
                .iter()
                .any(|w| w.asset.property_bits() & cx.property.bit() != 0),
            _ => true,
        };

        let ok = agree && forward && reverse && !r.stats.truncated && !r.invariant_violated();
        failures += usize::from(!ok);
        println!(
            "{:<8} {:<12} {:<22} {:>9} {:<13} {:<13} {:>4}  {}",
            r.platform.to_string(),
            r.attacker.to_string(),
            r.attack.to_string(),
            relevant.len(),
            format!("{:?}", r.mc),
            format!("{:?}", r.taint),
            if forward { "yes" } else { "NO" },
            if ok { "yes" } else { "** NO **" },
        );
        cells_json.push(Json::obj(vec![
            ("platform", Json::Str(r.platform.to_string())),
            ("attacker", Json::Str(r.attacker.to_string())),
            ("attack", Json::Str(r.attack.to_string())),
            ("witnesses", Json::UInt(relevant.len() as u64)),
            (
                "witness_paths",
                Json::Arr(relevant.iter().map(|w| Json::Str(w.render())).collect()),
            ),
            ("static_compromise", Json::Bool(static_compromise)),
            ("mc", Json::Str(format!("{:?}", r.mc))),
            ("paper", Json::Str(format!("{:?}", r.paper))),
            ("taint", Json::Str(format!("{:?}", r.taint))),
            ("forward_confirmed", Json::Bool(forward)),
            ("reverse_covered", Json::Bool(reverse)),
            ("ok", Json::Bool(ok)),
        ]));
    }
    rule();
    let matrix_ok = reports.len() - failures.min(reports.len());
    println!(
        "matrix differential: {matrix_ok}/{} cells agree in both directions",
        reports.len()
    );

    // ----------------------------------------------------------------
    // 2. Seeded derivation scenarios: exact findings statically, exact
    //    new-property reachability dynamically.
    // ----------------------------------------------------------------
    section("seeded derivation scenarios: static findings vs checker reachability");
    println!(
        "{:<24} {:<34} {:>7} {:>10} {:>10}  ok?",
        "scenario", "expected findings", "witness", "expected", "reached",
    );
    rule();
    let new_bits = props::OBJECT_MASQUERADE | props::DERIVATION_BREACH;
    let mut scenario_json = Vec::new();
    let scenarios = derivation_scenarios();
    let scenario_total = scenarios.len();
    for s in scenarios {
        let cl = closure(&s.model.caps);
        let codes: Vec<&str> = cl.findings.iter().map(|f| f.kind.code()).collect();
        let codes_ok = codes == s.expect_codes;
        let ws = escalation_witnesses(&s.model);
        let witness = ws.iter().any(|w| w.via_caps);
        let witness_ok = witness == s.expect_witness;

        let name = s.name.clone();
        let platform = s.platform;
        let report = bas_analysis::mc::check_cell(
            &ScenarioModel::with_ir(
                platform,
                AttackerModel::ArbitraryCode,
                AttackId::BruteForceHandles,
                UidScheme::PerProcessHardened,
                s.model,
            ),
            &opts,
        );
        let reached = report.reached & new_bits;
        let reach_ok =
            reached == s.expect_flags && !report.stats.truncated && !report.invariant_violated();

        let ok = codes_ok && witness_ok && reach_ok;
        failures += usize::from(!ok);
        println!(
            "{:<24} {:<34} {:>7} {:>#10x} {:>#10x}  {}",
            name,
            if s.expect_codes.is_empty() {
                "(clean)".to_string()
            } else {
                s.expect_codes.join(",")
            },
            if witness { "yes" } else { "no" },
            s.expect_flags,
            reached,
            if ok { "yes" } else { "** NO **" },
        );
        scenario_json.push(Json::obj(vec![
            ("name", Json::Str(name)),
            ("platform", Json::Str(platform.to_string())),
            (
                "expected_codes",
                Json::Arr(
                    s.expect_codes
                        .iter()
                        .map(|c| Json::Str((*c).into()))
                        .collect(),
                ),
            ),
            (
                "actual_codes",
                Json::Arr(codes.iter().map(|c| Json::Str((*c).into())).collect()),
            ),
            ("witness_expected", Json::Bool(s.expect_witness)),
            ("witness_found", Json::Bool(witness)),
            ("flags_expected", Json::UInt(u64::from(s.expect_flags))),
            ("flags_reached", Json::UInt(u64::from(reached))),
            ("states", Json::UInt(report.stats.states as u64)),
            ("note", Json::Str(s.note.into())),
            ("ok", Json::Bool(ok)),
        ]));
    }
    rule();
    println!(
        "derivation scenarios: {}/{scenario_total} agree statically and dynamically",
        scenario_total - failures.min(scenario_total),
    );

    println!(
        "verdict: {}",
        verdict(
            failures == 0,
            "flow analyzer and model checker agree on every cell and scenario",
            &format!("{failures} check(s) failed"),
        )
    );

    h.emit_json(&Json::obj(vec![
        ("schema", Json::Str("bas-cap-flow/v1".into())),
        ("state_budget", Json::UInt(opts.state_budget as u64)),
        ("matrix_cells", Json::UInt(reports.len() as u64)),
        ("scenarios", Json::UInt(scenario_total as u64)),
        ("cells", Json::Arr(cells_json)),
        ("derivation_scenarios", Json::Arr(scenario_json)),
        ("failures", Json::UInt(failures as u64)),
    ]));

    if failures > 0 {
        std::process::exit(1);
    }
}
