//! The seeded churn catalog against the live kernels: every scenario's
//! detector outcome must match its recorded expectation exactly — the
//! positive scenarios prove detection, the negative ones prove the
//! zero-false-positive contract, and the storm scenarios prove witness
//! minimization lands on single-event causes.

use bas_analysis::races::{
    churn_scenarios, detect, minimize, run_churn_plan, run_scenario, RaceKind,
};
use bas_core::scenario::Platform;
use bas_faults::plan::FaultPlan;
use bas_sim::caps::{CapOp, CapTrace};
use bas_sim::time::SimDuration;

#[test]
fn catalog_expectations_hold_on_every_platform() {
    for sc in churn_scenarios() {
        let trace = run_scenario(&sc);
        let races = detect(&trace);
        let mut kinds: Vec<RaceKind> = races.iter().map(|r| r.kind).collect();
        kinds.sort();
        kinds.dedup();
        let mut expect = sc.expect.clone();
        expect.sort();
        assert_eq!(kinds, expect, "{}: detected race kinds", sc.name);
        // Every reported race must be anchored to a churned capability:
        // its racing write really exists in the trace and is effective.
        for r in &races {
            let w = trace
                .events
                .iter()
                .find(|e| e.seq == r.write_seq)
                .unwrap_or_else(|| panic!("{}: write {} missing", sc.name, r.write_seq));
            assert!(
                w.op.is_write() && w.ok,
                "{}: racing write effective",
                sc.name
            );
            assert_eq!(w.cap, r.cap, "{}: write anchors the raced cap", sc.name);
        }
    }
}

#[test]
fn churn_free_runs_record_no_writes_and_no_races() {
    // The structural zero-FP argument, checked end-to-end: without a
    // churn schedule there are no write events, so the detector cannot
    // fire no matter how much IPC the scenario does.
    for platform in [Platform::Minix, Platform::Sel4, Platform::Linux] {
        let plan = FaultPlan::new("baseline", vec![]);
        let trace = run_churn_plan(platform, &plan, SimDuration::from_mins(3));
        assert!(!trace.is_empty(), "{platform}: tracing was on");
        assert!(
            trace.events.iter().all(|e| !e.op.is_write()),
            "{platform}: no churn means no policy writes"
        );
        assert!(
            trace.events.iter().all(|e| e.op != CapOp::Use || e.ok),
            "{platform}: no stale uses without churn"
        );
        assert!(detect(&trace).is_empty(), "{platform}: race-free");
    }
}

#[test]
fn storm_witnesses_minimize_to_single_event_causes() {
    for sc in churn_scenarios()
        .iter()
        .filter(|s| s.name.ends_with("churn-storm"))
    {
        let races = detect(&run_scenario(sc));
        assert!(!races.is_empty(), "{}: storm must race", sc.name);
        for r in &races {
            let w = minimize(sc, r);
            assert!(w.replay_confirmed, "{}: witness replays", sc.name);
            assert!(w.dropped > 0, "{}: storm schedules carry slack", sc.name);
            match r.kind {
                // The TOCTOU needs exactly the armed revoke.
                RaceKind::Toctou => {
                    assert_eq!(w.schedule.len(), 1, "{}: 1-minimal TOCTOU witness", sc.name)
                }
                // A write-write conflict needs both writers.
                RaceKind::WriteWrite => assert_eq!(
                    w.schedule.len(),
                    2,
                    "{}: 1-minimal write-write witness",
                    sc.name
                ),
                RaceKind::UseAfterRevoke => {
                    panic!("{}: storm plants no ordered revokes", sc.name)
                }
            }
        }
    }
}

#[test]
fn traces_and_reports_are_deterministic() {
    let sc = &churn_scenarios()[3]; // linux/armed-revoke-toctou
    let a = run_scenario(sc);
    let b = run_scenario(sc);
    assert_eq!(a, b, "same schedule, same trace");
    assert_eq!(detect(&a), detect(&b));
}

/// FNV-1a over every event's seq, time, subject, op, cap, object and
/// verdict, then every happens-before edge: the full content of a trace,
/// not only the counts and races the committed report summarizes.
fn trace_digest(trace: &CapTrace) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |line: String| {
        for b in line.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in &trace.events {
        eat(format!(
            "{} {} {} {} {} {} {}\n",
            e.seq,
            e.at.as_nanos(),
            e.subject,
            e.op.label(),
            e.cap,
            e.object,
            e.ok
        ));
    }
    for (from, to) in &trace.edges {
        eat(format!("edge {from} {to}\n"));
    }
    hash
}

/// Pins the whole capability trace of every catalog scenario: events,
/// edges and their digest. A change to how any kernel records or renders
/// its capability operations fails here.
#[test]
fn scenario_traces_are_pinned() {
    let got: Vec<String> = churn_scenarios()
        .iter()
        .map(|sc| {
            let t = run_scenario(sc);
            format!(
                "{} events={} edges={} fnv1a={:016x}",
                sc.name,
                t.events.len(),
                t.edges.len(),
                trace_digest(&t)
            )
        })
        .collect();
    assert_eq!(got, PINNED_TRACES);
}

const PINNED_TRACES: [&str; 21] = [
    "linux/grant-only events=387 edges=187 fnv1a=b9796f08c66a7341",
    "linux/armed-never-fires events=386 edges=187 fnv1a=e45d91c25d6dc4cd",
    "linux/timed-revoke-regrant events=388 edges=187 fnv1a=46aa6dfd8fd40c2b",
    "linux/armed-revoke-toctou events=388 edges=187 fnv1a=07196144b772ebad",
    "linux/self-revoke-uar events=388 edges=187 fnv1a=0c3ac2f52f245267",
    "linux/attenuate-window events=388 edges=187 fnv1a=3c6c5c5efb7f9290",
    "linux/churn-storm events=518 edges=250 fnv1a=5896335e881690c9",
    "minix/grant-only events=590 edges=196 fnv1a=1b89fd34b598970a",
    "minix/armed-never-fires events=589 edges=196 fnv1a=9c5d4d45154fefd7",
    "minix/timed-revoke-regrant events=453 edges=130 fnv1a=e11fc22af7bb7f02",
    "minix/armed-revoke-toctou events=321 edges=67 fnv1a=253ed2d28f4f0027",
    "minix/self-revoke-uar events=321 edges=67 fnv1a=91a2cf300754b30d",
    "minix/attenuate-window events=321 edges=67 fnv1a=f6ffd711f8cde730",
    "minix/churn-storm events=449 edges=99 fnv1a=b980899d5f9cf035",
    "sel4/grant-only events=562 edges=187 fnv1a=2a7e1dd5dc7ddc7c",
    "sel4/armed-never-fires events=561 edges=187 fnv1a=a27eb3d71ee923ef",
    "sel4/timed-revoke-regrant events=380 edges=126 fnv1a=cd49fea070e3d7d0",
    "sel4/armed-revoke-toctou events=194 edges=64 fnv1a=89d95ce9e0f5ba78",
    "sel4/self-revoke-uar events=194 edges=64 fnv1a=9d7409d285eb780e",
    "sel4/attenuate-window events=188 edges=3 fnv1a=95ce46a474c07e2a",
    "sel4/churn-storm events=286 edges=94 fnv1a=0884c38aa4f6fdbe",
];
