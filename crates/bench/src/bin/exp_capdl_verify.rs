//! E10 (§IV-D.3): machine verification of the capability distribution —
//! "for high-assurance systems this file can also be machine verified
//! with the correlating source code."
//!
//! Boots the seL4 scenario, audits the live kernel against the compiled
//! CapDL spec (clean), runs it for ten minutes (still clean — serving
//! RPCs leaks nothing), then deliberately injects an undeclared
//! capability and shows the auditor catching it.
//!
//! Run: `cargo run --release -p bas-bench --bin exp_capdl_verify`

use bas_bench::{rule, section, Harness};
use bas_capdl::verify::verify;
use bas_core::platform::sel4::{Sel4Overrides, Sel4Stack};
use bas_core::policy::instances;
use bas_core::scenario::{Scenario, ScenarioConfig};
use bas_core::ScenarioEngine;
use bas_sel4::cap::Capability;
use bas_sel4::rights::CapRights;
use bas_sim::time::SimDuration;

fn main() {
    // No flag changes these runs; the harness still rejects bad ones.
    Harness::new("capdl_verify");
    let mut s =
        ScenarioEngine::<Sel4Stack>::boot(&ScenarioConfig::quiet(), Sel4Overrides::default());

    section("compiled CapDL specification");
    print!("{}", s.stack.spec.to_text());

    section("audit #1: freshly booted system");
    let issues = verify(&s.stack.spec, &s.stack.kernel, &s.stack.sys);
    println!("{} issue(s): {issues:?}", issues.len());
    assert!(issues.is_empty());

    section("audit #2: after 10 simulated minutes of operation");
    s.run_for(SimDuration::from_mins(10));
    let issues = verify(&s.stack.spec, &s.stack.kernel, &s.stack.sys);
    println!("{} issue(s): {issues:?}", issues.len());
    println!("(RPC service transfers no capabilities, so the distribution is invariant)");

    section("audit #3: after injecting an undeclared capability");
    // Simulate a bootstrap bug: the web interface is handed a write
    // capability to the heater's command endpoint.
    let web = s.stack.sys.threads[instances::WEB];
    let heater_ep = s.stack.sys.objects[&format!("ep_{}_{}", instances::HEATER, "cmd")];
    s.stack
        .kernel
        .grant_cap(
            web,
            Capability::to_object(heater_ep, CapRights::WRITE_GRANT, 99),
        )
        .expect("room in web cspace");
    let issues = verify(&s.stack.spec, &s.stack.kernel, &s.stack.sys);
    rule();
    for issue in &issues {
        println!("CAUGHT: {issue}");
    }
    assert!(
        !issues.is_empty(),
        "the auditor must flag the stray capability"
    );
}
