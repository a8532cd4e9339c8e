//! Pins the stdout of the experiment binaries whose tables back the
//! paper's §III overhead remark (E8 and E8b) and checks their flag
//! handling. The binaries run in `--quick` mode; the expected text is the
//! deterministic virtual-time output, so any change to a fixture's
//! syscall sequence, counters or cost model shows up here.

use std::process::Command;

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

#[test]
fn bad_workers_value_exits_2() {
    let status = Command::new(env!("CARGO_BIN_EXE_exp_fault_campaign"))
        .args(["--quick", "--workers", "x"])
        .output()
        .expect("run binary")
        .status;
    assert_eq!(status.code(), Some(2));
}
