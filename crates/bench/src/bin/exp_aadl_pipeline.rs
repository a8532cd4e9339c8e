//! E9 (§IV): the AADL workflow — one architecture description compiled
//! into every platform's policy artifact, as the paper's AADL-to-C
//! compiler generated the ACM "based on the specified connections".
//! Each artifact is compared with the policy the platforms run, and the
//! topology tables of `bas_core::policy` with what the AADL declares; the
//! binary exits 1 after printing if any comparison fails.
//!
//! Run: `cargo run --release -p bas-bench --bin exp_aadl_pipeline`

use bas_aadl::backends;
use bas_bench::{rule, section, verdict, Harness};
use bas_core::policy::{self, Agreement};

/// Prints one comparison's line; returns whether it held.
fn check(what: &str, holds: bool) -> bool {
    println!(
        "{what}: {}",
        verdict(holds, "EXACT MATCH", "** MISMATCH **")
    );
    holds
}

/// Prints one table agreement; on a mismatch, both sides.
fn agree<T: PartialEq + std::fmt::Debug>(what: &str, (aadl, tables): Agreement<T>) -> bool {
    let holds = check(what, aadl == tables);
    if !holds {
        println!("  aadl:   {aadl:?}\n  tables: {tables:?}");
    }
    holds
}

fn main() {
    // Static experiment; the harness only standardizes flag handling.
    let _h = Harness::new("aadl_pipeline");
    section("scenario architecture (AADL subset, paper Fig. 2)");
    println!("{}", policy::SCENARIO_AADL.trim());

    let model = bas_aadl::parse(policy::SCENARIO_AADL).expect("scenario AADL parses");
    model.validate().expect("scenario AADL validates");

    section("backend 1: access-control matrix (MINIX 3) — bitmap over types 5..0");
    let generated_acm = backends::acm::compile(&model).expect("acm backend");
    print!("{}", generated_acm.render_table(6));
    rule();
    let mut all_match = check(
        "equality with the table-derived application policy",
        generated_acm == policy::scenario_app_acm(),
    );
    all_match &= agree(
        "process table (AADL label, ac_id)",
        policy::process_agreement(&model),
    );
    all_match &= agree(
        "channel table (connection, endpoints, msg type)",
        policy::channel_agreement(&model),
    );

    section("backend 2: CAmkES assembly (seL4)");
    let assembly = backends::camkes::compile(&model).expect("camkes backend");
    for inst in &assembly.instances {
        println!(
            "instance {:<16} provides {:?} uses {:?}",
            inst.name,
            inst.component
                .provides
                .iter()
                .map(|i| i.name.as_str())
                .collect::<Vec<_>>(),
            inst.component
                .uses
                .iter()
                .map(|i| i.name.as_str())
                .collect::<Vec<_>>(),
        );
    }
    for conn in &assembly.connections {
        println!(
            "connection {:<6} {}:{} -> {}:{} ({:?})",
            conn.name, conn.from.0, conn.from.1, conn.to.0, conn.to.1, conn.connector
        );
    }
    let (spec, _glue) = bas_camkes::codegen::compile(&assembly).expect("capdl codegen");
    rule();
    println!(
        "compiled CapDL ({} objects, {} caps):",
        spec.objects.len(),
        spec.caps.len()
    );
    print!("{}", spec.to_text());

    section("backend 3: message-queue plan (Linux)");
    let plan = backends::linux_plan::compile(&model).expect("linux backend");
    for q in &plan.queues {
        println!(
            "{:<32} reader={:<16} writers={:?}",
            q.name, q.reader, q.writers
        );
    }
    rule();
    all_match &= agree(
        "queue plan vs channel table (queue, reader, writers)",
        policy::queue_agreement(&plan),
    );
    println!(
        "plus the reply queue {} the loader adds for controller->web acks \
         (6 queues total, as in §IV-C)",
        policy::queues::WEB_REPLY
    );
    if !all_match {
        std::process::exit(1);
    }
}
