//! Pins the stdout of the experiment binaries whose tables back the
//! paper's §III overhead remark (E8 and E8b), of the static policy audit
//! (E12), of the two ablations (A1 and A2) and of the A3 recovery runs,
//! and checks their flag
//! handling. E8 and E8b run in `--quick` mode; the expected text is the
//! deterministic virtual-time output, so any change to a fixture's
//! syscall sequence, counters or cost model shows up here. E12 and the
//! ablations are pinned by line count and digest: E12 prints the lowered
//! policies, the predicted matrix and the lint reports, so a change to
//! any static verdict, rationale or finding shows up here too; the
//! ablations print each attacker's evidence counts and safety verdict.

use std::process::Command;

use bas_sim::fnv::Fnv1a;

fn stdout_of(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().expect("run binary");
    assert!(out.status.success(), "{bin} {args:?} exited {}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

const E8_QUICK: &str = r#"
=== RPC round-trip cost, averaged over 500 round trips ===
platform              ctx-switch/op  kernel-entry/op    virtual-ns/op
----------------------------------------------------------------------------------------------------
minix3+acm                     2.01             3.00          34930.5
sel4/camkes                    2.01             3.00          34818.5
linux (mq)                     2.01             4.01          45274.5

=== getpid()-class service call, averaged over 500 calls ===
platform              ctx-switch/op  kernel-entry/op    virtual-ns/op
----------------------------------------------------------------------------------------------------
minix3 (via PM)                2.00             2.00          14488.0
linux (direct)                 0.00             1.00          10274.0
(seL4 has no process server in this scenario; the nearest analog is the RPC above)
"#;

const E8B_QUICK: &str = r#"
=== microkernel service-call overhead vs context-switch cost (getpid, 500 calls) ===
  ctx-switch[ns]   minix-via-PM[ns]   linux-direct[ns]   overhead
----------------------------------------------------------------------------------------------------
             200            10884.4            10270.4      1.06x
             500            11485.0            10271.0      1.12x
            1000            12486.0            10272.0      1.22x
            2000            14488.0            10274.0      1.41x
            5000            20494.0            10280.0      1.99x
           10000            30504.0            10290.0      2.96x
           20000            50524.0            10310.0      4.90x
----------------------------------------------------------------------------------------------------
reading: the monolithic kernel's service-call cost is flat in the context-switch
price (no switch happens), while the microkernel's grows linearly with it (two
switches per PM message) — the quantitative form of §III's "multiple context
switches" remark, and the knob hardware vendors actually tune (ASIDs, tagged
TLBs) to make microkernels viable.
"#;

#[test]
fn ipc_overhead_quick_output_is_pinned() {
    let got = stdout_of(env!("CARGO_BIN_EXE_exp_ipc_overhead"), &["--quick"]);
    assert_eq!(got, E8_QUICK);
}

#[test]
fn cost_sensitivity_quick_output_is_pinned() {
    let got = stdout_of(env!("CARGO_BIN_EXE_exp_cost_sensitivity"), &["--quick"]);
    assert_eq!(got, E8B_QUICK);
}

/// `text`'s line count and FNV-1a digest.
fn summary(text: &str) -> String {
    let digest = Fnv1a::digest(text.as_bytes());
    format!("lines {} fnv1a {digest:016x}", text.lines().count())
}

#[test]
fn policy_audit_output_is_pinned() {
    let got = stdout_of(env!("CARGO_BIN_EXE_exp_policy_audit"), &[]);
    assert_eq!(summary(&got), "lines 400 fnv1a 9df4ffdc54953b42", "{got}");
}

/// The A1 ablation (MINIX ACM) in full mode: four attacks under three
/// policies, each row read from the attacker's evidence and the plant.
#[test]
fn ablation_acm_output_is_pinned() {
    let got = stdout_of(env!("CARGO_BIN_EXE_exp_ablation_acm"), &[]);
    assert_eq!(summary(&got), "lines 31 fnv1a 84c8e47a191433f6", "{got}");
}

/// The A2 ablation (seL4 stray capabilities): both configurations'
/// attacker counts, the CapDL audit and the safety verdicts.
#[test]
fn ablation_caps_output_is_pinned() {
    let got = stdout_of(env!("CARGO_BIN_EXE_exp_ablation_caps"), &[]);
    assert_eq!(summary(&got), "lines 15 fnv1a 64c319af19ce520a", "{got}");
}

/// A3 recovery, one run per platform in `--quick` mode: the timeline
/// around the heater-driver crash and the run's summary line.
#[test]
fn recovery_quick_output_is_pinned() {
    for (platform, pin) in [
        ("linux", "lines 21 fnv1a a6c2e1302378befa"),
        ("minix", "lines 33 fnv1a 68c7d90ee3b84468"),
        ("sel4", "lines 21 fnv1a b8e56b11225bd34b"),
    ] {
        let got = stdout_of(
            env!("CARGO_BIN_EXE_exp_recovery"),
            &["--quick", "--platform", platform],
        );
        assert_eq!(summary(&got), pin, "{platform}: {got}");
    }
}

/// Every usage error exits 2 and names the flag and the bad value in
/// plain text, or says that the value is missing.
#[test]
fn bad_flag_values_exit_2() {
    let cases: [(&str, &[&str], &str); 6] = [
        (
            env!("CARGO_BIN_EXE_exp_fault_campaign"),
            &["--quick", "--workers", "x"],
            "bad --workers value x; expected a thread count",
        ),
        (
            env!("CARGO_BIN_EXE_exp_fault_campaign"),
            &["--quick", "--workers"],
            "missing --workers value; expected a thread count",
        ),
        (
            env!("CARGO_BIN_EXE_exp_attack_matrix"),
            &["--platform", "foo"],
            "unknown platform foo; expected linux|minix|sel4",
        ),
        (
            env!("CARGO_BIN_EXE_exp_attack_matrix"),
            &["--platform"],
            "missing --platform value; expected linux|minix|sel4",
        ),
        (
            env!("CARGO_BIN_EXE_exp_cap_flow"),
            &["--quick", "--state-budget", "abc"],
            "bad --state-budget value abc; expected a state count",
        ),
        (
            env!("CARGO_BIN_EXE_exp_cap_flow"),
            &["--quick", "--state-budget"],
            "missing --state-budget value; expected a state count",
        ),
    ];
    for (bin, args, message) in cases {
        let out = Command::new(bin).args(args).output().expect("run binary");
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert_eq!(stderr.trim_end(), message, "{bin} {args:?}");
    }
}
