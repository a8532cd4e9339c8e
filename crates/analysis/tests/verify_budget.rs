//! Allocation and residency budgets of the verification path, under the
//! counting global allocator `bas_sim::alloc::CountingAlloc`: the
//! 54-cell model-checking sweep and the 54 dynamic attack runs that
//! `exp_attack_matrix` and `exp_model_check` re-check the paper's
//! security argument with.
//!
//! The explorer allocates per BFS layer, not per state: one action
//! buffer and two frontier vectors serve the whole search, and the
//! arena and seen set grow with it instead of being sized for the
//! largest cell up front. The cells of one (platform, attacker) share
//! one policy model. An attack run keeps no kernel trace, which none of
//! its outcome's fields reads.
//!
//! The counters are process-wide, so this binary holds a single test
//! that runs its windows one after another.

use bas_analysis::mc::{check_cells, matrix_cells, ExploreOpts};
use bas_attack::expectations::Expectation;
use bas_attack::{run_attack, AttackOutcome, AttackRunConfig};
use bas_core::platform::linux::UidScheme;
use bas_core::scenario::Platform;
use bas_sim::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const MIB: u64 = 1 << 20;

/// Ceiling on the allocator calls of the 54-cell sweep at one worker.
const SWEEP_CALLS: u64 = 25_000;
/// Ceiling on the sweep's peak live-heap growth, reports included.
const SWEEP_PEAK: u64 = MIB;
/// Ceiling on the peak live-heap growth of the 54 attack runs,
/// outcomes included.
const ATTACK_PEAK: u64 = MIB / 2;

#[test]
fn verification_path_stays_within_its_budgets() {
    let cells = matrix_cells(&[Platform::Linux, Platform::Minix, Platform::Sel4]);
    assert_eq!(cells.len(), 54);

    let base = ALLOC.reset_peak();
    let mut reports = Vec::new();
    let calls = ALLOC.calls_in(|| {
        reports = check_cells(&cells, UidScheme::SharedAccount, &ExploreOpts::default(), 1);
    });
    let peak = ALLOC.peak() - base;
    assert!(reports.iter().all(|r| r.agrees() && !r.stats.truncated));
    assert!(
        calls < SWEEP_CALLS,
        "sweep made {calls} allocator calls (ceiling {SWEEP_CALLS})"
    );
    assert!(
        peak < SWEEP_PEAK,
        "sweep peaked at {peak} live bytes (ceiling {SWEEP_PEAK})"
    );

    let config = AttackRunConfig::default();
    let base = ALLOC.reset_peak();
    let outcomes: Vec<AttackOutcome> = cells
        .iter()
        .map(|&(platform, attacker, attack)| run_attack(platform, attacker, attack, &config))
        .collect();
    let peak = ALLOC.peak() - base;
    for (o, r) in outcomes.iter().zip(&reports) {
        assert_eq!(
            o.compromised(),
            r.mc == Expectation::Compromised,
            "{}/{}/{}: the run and the checker disagree",
            o.platform,
            o.attacker,
            o.attack
        );
    }
    assert!(
        peak < ATTACK_PEAK,
        "attack runs peaked at {peak} live bytes (ceiling {ATTACK_PEAK})"
    );
}
