//! E12: static policy audit — the attack matrix *predicted* from policy
//! alone, plus the policy lint report, with no simulation in the loop.
//!
//! All three platform policies (MINIX ACM, compiled CapDL spec, Linux mq
//! ACL plan) lower into the unified Policy IR; a reachability analysis
//! then predicts every §IV-D attack outcome, and a lint pass diffs each
//! policy against the AADL-minimal one. The `static_vs_dynamic` tests in
//! `bas-analysis` assert cell-for-cell agreement with the dynamic
//! harness; this binary prints the artifacts and re-checks the headline
//! claims, including both ablations.
//!
//! Run: `cargo run --release -p bas-bench --bin exp_policy_audit`

use bas_analysis::scenario::{
    minix_model, model_for, predicted_matrix, scenario_justification, sel4_model,
};
use bas_analysis::taint::{expectation, predict};
use bas_analysis::{findings_report_json, lint, Severity};
use bas_attack::expectations::{paper_expectation, Expectation};
use bas_attack::model::{AttackId, AttackerModel};
use bas_bench::{rule, section, verdict, Harness};
use bas_core::platform::linux::UidScheme;
use bas_core::platform::sel4::ExtraCap;
use bas_core::proto::names;
use bas_core::scenario::Platform;
use bas_sel4::rights::CapRights;

fn main() {
    // Static experiment; the harness only standardizes flag handling.
    let _h = Harness::new("policy_audit");
    let justification = scenario_justification();

    // -----------------------------------------------------------------
    // 1. The lowered channel graphs.
    // -----------------------------------------------------------------
    for platform in [Platform::Linux, Platform::Minix, Platform::Sel4] {
        let model = model_for(
            platform,
            AttackerModel::ArbitraryCode,
            UidScheme::SharedAccount,
        );
        section(&format!(
            "policy IR: {platform} ({} subjects, {} channels)",
            model.subjects.len(),
            model.channels.len()
        ));
        print!("{}", model.render());
    }

    // -----------------------------------------------------------------
    // 2. The predicted attack matrix.
    // -----------------------------------------------------------------
    section("predicted attack matrix (static; no simulation)");
    println!(
        "{:<12} {:<22} {:<12} {:<9} {:<12} {:<12} agrees?",
        "platform", "attack", "attacker", "delivers", "compromise", "paper"
    );
    rule();
    let mut cells = 0usize;
    let mut agreements = 0usize;
    for cell in predicted_matrix(UidScheme::SharedAccount) {
        let paper = paper_expectation(cell.platform, cell.attacker, cell.attack);
        let agrees = expectation(&cell.verdict) == paper;
        cells += 1;
        agreements += usize::from(agrees);
        println!(
            "{:<12} {:<22} {:<12} {:<9} {:<12} {:<12} {}",
            cell.platform.to_string(),
            cell.attack.to_string(),
            cell.attacker.to_string(),
            verdict(cell.verdict.mechanism_delivers, "yes", "no"),
            verdict(cell.verdict.compromised, "COMPROMISE", "contained"),
            format!("{paper:?}"),
            verdict(agrees, "yes", "** NO **"),
        );
    }
    rule();
    println!("static-vs-paper agreement: {agreements}/{cells} cells");
    assert_eq!(agreements, cells, "every static cell must match the paper");

    // -----------------------------------------------------------------
    // 3. The lint reports.
    // -----------------------------------------------------------------
    for platform in [Platform::Linux, Platform::Minix, Platform::Sel4] {
        let model = model_for(
            platform,
            AttackerModel::ArbitraryCode,
            UidScheme::SharedAccount,
        );
        let findings = lint(&model, &justification);
        section(&format!("lint: {platform} ({} findings)", findings.len()));
        for f in &findings {
            println!(
                "{:<7} {:<26} {:<16} {:<28} {}",
                f.severity.to_string(),
                f.code,
                f.subject,
                f.object,
                f.detail
            );
        }
    }

    // The hardened Linux scheme lints dramatically cleaner — that *is*
    // the paper's "specifically configured" queue discussion.
    let shared = model_for(
        Platform::Linux,
        AttackerModel::ArbitraryCode,
        UidScheme::SharedAccount,
    );
    let hardened = model_for(
        Platform::Linux,
        AttackerModel::ArbitraryCode,
        UidScheme::PerProcessHardened,
    );
    // Error-or-high: untrusted-subject findings escalate to `error`, so
    // the comparison counts both tiers of the broken security argument.
    let severe = |findings: &[bas_analysis::Finding]| {
        findings
            .iter()
            .filter(|f| f.severity <= Severity::High)
            .count()
    };
    let shared_high = severe(&lint(&shared, &justification));
    let hardened_high = severe(&lint(&hardened, &justification));
    section("uid-scheme lint comparison");
    println!("shared-account error/high findings:      {shared_high}");
    println!("per-process-hardened error/high:         {hardened_high}");
    assert!(
        shared_high > hardened_high,
        "hardening must reduce error/high-severity findings"
    );
    assert_eq!(
        hardened_high, 0,
        "hardened scheme lints clean at error/high severity"
    );

    // -----------------------------------------------------------------
    // 4. Ablations: the static verdicts flip with the policy.
    // -----------------------------------------------------------------
    section("ablation predictions (static analogues of exp_ablation_acm / exp_ablation_caps)");
    let permissive = bas_core::policy::permissive_acm();
    let scenario_m = minix_model(AttackerModel::ArbitraryCode, None, None);
    let permissive_m = minix_model(AttackerModel::ArbitraryCode, Some(&permissive), None);
    for (label, model) in [
        ("scenario ACM", &scenario_m),
        ("permissive ACM", &permissive_m),
    ] {
        for attack in [AttackId::SpoofSensorData, AttackId::SpoofActuatorCommands] {
            let v = predict(model, attack);
            println!(
                "minix {:<15} {:<22} -> {:?}  ({})",
                label,
                attack.to_string(),
                expectation(&v),
                v.rationale
            );
        }
    }
    let spoof = predict(&permissive_m, AttackId::SpoofActuatorCommands);
    assert!(
        spoof.compromised,
        "permissive ACM must re-open the actuator attack statically"
    );
    assert_eq!(
        expectation(&predict(&scenario_m, AttackId::SpoofActuatorCommands)),
        Expectation::Stopped
    );

    let stray = vec![
        ExtraCap {
            holder: names::WEB,
            endpoint_of: (names::HEATER, "cmd"),
            rights: CapRights::WRITE_GRANT,
            badge: 99,
        },
        ExtraCap {
            holder: names::WEB,
            endpoint_of: (names::ALARM, "cmd"),
            rights: CapRights::WRITE_GRANT,
            badge: 99,
        },
    ];
    let clean_m = sel4_model(AttackerModel::ArbitraryCode, &[]);
    let ablated_m = sel4_model(AttackerModel::ArbitraryCode, &stray);
    for (label, model) in [("clean CapDL", &clean_m), ("stray caps", &ablated_m)] {
        let v = predict(model, AttackId::SpoofActuatorCommands);
        println!(
            "sel4  {:<15} {:<22} -> {:?}  ({})",
            label,
            AttackId::SpoofActuatorCommands.to_string(),
            expectation(&v),
            v.rationale
        );
    }
    assert!(
        predict(&ablated_m, AttackId::SpoofActuatorCommands).compromised,
        "stray capabilities must flip the static verdict"
    );
    let stray_findings: Vec<_> = lint(&ablated_m, &justification)
        .into_iter()
        .filter(|f| {
            f.severity == Severity::Error
                && f.code == "over-granted-capability"
                && f.subject == names::WEB
        })
        .collect();
    assert_eq!(stray_findings.len(), 2, "linter flags both stray caps");
    println!(
        "lint on the ablated spec: {} high-severity finding(s) against {}",
        stray_findings.len(),
        names::WEB
    );

    // -----------------------------------------------------------------
    // 5. The CI gate: every configuration whose security argument the
    //    repo defends must lint free of error-severity findings; any
    //    error exits nonzero so ci.sh fails the build. The shared-account
    //    scheme is the paper's deliberately broken baseline — its errors
    //    prove the detector fires, and are reported but not gated.
    // -----------------------------------------------------------------
    section("lint gate (any error-severity finding in a secure configuration fails the audit)");
    let errors_in = |model: &bas_analysis::PolicyModel| -> Vec<bas_analysis::Finding> {
        lint(model, &justification)
            .into_iter()
            .filter(|f| f.severity == Severity::Error)
            .collect()
    };
    let mut gate_failures = 0usize;
    for (label, model) in [
        ("minix scenario ACM", &scenario_m),
        ("sel4 clean CapDL", &clean_m),
        ("linux per-process-hardened", &hardened),
    ] {
        let errors = errors_in(model);
        println!(
            "{label:<28} {} error finding(s) {}",
            errors.len(),
            verdict(errors.is_empty(), "[ok]", "[GATE FAILURE]"),
        );
        for f in &errors {
            println!("    {} {} {} {}", f.code, f.subject, f.object, f.detail);
        }
        gate_failures += errors.len();
    }
    let baseline_errors = errors_in(&shared).len();
    println!(
        "linux shared-account baseline: {baseline_errors} error finding(s) (expected > 0; \
         demonstrates the gate detects the seeded misconfiguration)"
    );
    assert!(
        baseline_errors > 0,
        "the broken baseline must trip the error detector"
    );

    // -----------------------------------------------------------------
    // 6. Machine-readable lint output: the findings report wraps the
    //    serialized findings (already severity/subject/object-ordered by
    //    the linter) with the closed attack-class vocabulary, including
    //    the capability-flow classes. Kept as the last section before
    //    the conclusion: consumers slice the JSON between the header
    //    below and `=== conclusion`.
    // -----------------------------------------------------------------
    section("lint findings as JSON (linux shared-account)");
    let report = findings_report_json(&lint(&shared, &justification));
    assert!(
        report.contains("kernel-object-masquerade")
            && report.contains("derived-capability-escalation"),
        "the report schema must enumerate the capability-flow attack classes"
    );
    assert!(
        report.contains("capability-race") && report.contains("use-after-revoke"),
        "the report schema must enumerate the churn-race attack classes"
    );
    println!("{report}");

    section("conclusion");
    println!(
        "the attack matrix is a function of the policy artifacts alone: lowering ACM, CapDL\n\
         and mq-ACLs into one channel graph predicts every dynamic outcome (see the\n\
         static_vs_dynamic tests for the cell-by-cell cross-validation), and the linter\n\
         localizes exactly the grants whose removal flips a cell."
    );

    if gate_failures > 0 {
        eprintln!(
            "exp_policy_audit: {gate_failures} error-severity finding(s) in secure configurations"
        );
        std::process::exit(1);
    }
}
