//! E3–E6 (§IV-D): the full attack matrix — every attack × platform ×
//! attacker model — with per-cell mechanism verdicts, physical-impact
//! verdicts, and the comparison against the paper's predictions. Exits
//! non-zero when any cell disagrees with the paper.
//!
//! Run:
//! `cargo run --release -p bas-bench --bin exp_attack_matrix [-- --platform linux|minix|sel4]`

use bas_attack::expectations::{paper_expectation, Expectation};
use bas_attack::harness::{run_attack, AttackRunConfig};
use bas_attack::model::{AttackId, AttackerModel};
use bas_bench::{rule, section, Harness};
use bas_core::scenario::Platform;

fn main() {
    let h = Harness::new("attack_matrix");
    let config = AttackRunConfig::default();

    section("attack matrix: warmup 600s, attack window 900s (heat burst at 900s), cooldown 120s");
    println!(
        "{:<12} {:<12} {:<22} {:<10} {:<9} {:<7} {:<9} {:<12} agrees?",
        "platform", "attacker", "attack", "mechanism", "critical", "safety", "maxdev°C", "paper"
    );
    rule();

    // Platform-major, then attack, then attacker: deterministic order,
    // matching the statically predicted matrix of `exp_policy_audit`.
    let mut cells = 0usize;
    let mut agreements = 0usize;
    for platform in h.platforms() {
        for attack in AttackId::ALL {
            for attacker in [AttackerModel::ArbitraryCode, AttackerModel::Root] {
                let o = run_attack(platform, attacker, attack, &config);
                let expected = paper_expectation(platform, attacker, attack);
                let measured_compromised = o.compromised();
                let agrees = match expected {
                    Expectation::Compromised => measured_compromised,
                    Expectation::Stopped => !measured_compromised && !o.mechanism.succeeded(),
                    Expectation::ResourceExhaustionOnly => {
                        !measured_compromised && o.mechanism.succeeded()
                    }
                };
                cells += 1;
                agreements += usize::from(agrees);
                println!(
                    "{:<12} {:<12} {:<22} {:<10} {:<9} {:<7} {:<9.2} {:<12} {}",
                    platform.to_string(),
                    attacker.to_string(),
                    attack.to_string(),
                    if o.mechanism.succeeded() {
                        "SUCCEED"
                    } else {
                        "blocked"
                    },
                    if o.critical_alive { "alive" } else { "KILLED" },
                    if o.physical.safety_violated {
                        "VIOLATED"
                    } else {
                        "ok"
                    },
                    o.physical.max_deviation_c,
                    format!("{expected:?}"),
                    if agrees { "yes" } else { "** NO **" },
                );
            }
        }
    }
    rule();
    println!("paper-vs-measured agreement: {agreements}/{cells} cells");

    if h.platforms().contains(&Platform::Linux) {
        hardened_linux_section();
    }

    if agreements < cells {
        eprintln!(
            "exp_attack_matrix: {} of {cells} cells disagree with the paper",
            cells - agreements
        );
        std::process::exit(1);
    }
}

/// §IV-D.1's hardening discussion: "Unless each process runs under a
/// unique user account, and the message queue is specifically configured
/// to only allow the correct user account, the problem will still
/// remain." This section re-runs the Linux column under that hardened
/// configuration, for both attacker models.
fn hardened_linux_section() {
    use bas_core::platform::linux::UidScheme;
    let config = AttackRunConfig {
        linux_uid_scheme: UidScheme::PerProcessHardened,
        ..AttackRunConfig::default()
    };
    section("hardened Linux (per-process uids, single-writer 0620 queues)");
    println!(
        "{:<12} {:<22} {:<10} {:<9} {:<8}",
        "attacker", "attack", "mechanism", "critical", "safety"
    );
    rule();
    for attack in AttackId::ALL {
        for attacker in [AttackerModel::ArbitraryCode, AttackerModel::Root] {
            let o = run_attack(Platform::Linux, attacker, attack, &config);
            println!(
                "{:<12} {:<22} {:<10} {:<9} {:<8}",
                attacker.to_string(),
                attack.to_string(),
                if o.mechanism.succeeded() {
                    "SUCCEED"
                } else {
                    "blocked"
                },
                if o.critical_alive { "alive" } else { "KILLED" },
                if o.physical.safety_violated {
                    "VIOLATED"
                } else {
                    "ok"
                },
            );
        }
    }
    rule();
    println!(
        "reading: hardening stops the A1 code-exec attacker (DAC now separates the accounts)\n\
         but every physical-impact attack returns under root — \"it cannot prevent attacks\n\
         with root privilege\", the paper's motivation for moving enforcement into the kernel."
    );
}
