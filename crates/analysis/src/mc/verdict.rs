//! Per-cell model-checking verdicts over the attack matrix.
//!
//! [`check_cell`] explores one `(platform, attacker, attack)` cell and
//! reduces reachability facts to the paper's three-valued outcome:
//! a reachable compromise state ⇒ `Compromised`, reachable mechanism
//! delivery without compromise ⇒ `ResourceExhaustionOnly`, neither ⇒
//! `Stopped`. Because exploration is exhaustive at the bounded horizon
//! (unless truncated), a `Stopped` verdict is a *proof over every
//! interleaving* at that depth — strictly stronger than the single
//! schedule the dynamic harness runs.

use bas_attack::expectations::{paper_expectation, Expectation};
use bas_attack::{AttackId, AttackerModel};
use bas_core::platform::linux::UidScheme;
use bas_core::scenario::Platform;
use bas_sim::WorkerPool;

use super::explore::{explore, minimize_trace, ExploreOpts, ExploreStats};
use super::model::{McBounds, ScenarioModel};
use super::state::{McAction, McState};
use crate::flow;

/// Fact bits produced by [`classify`]. Bits 0–5 coincide with the
/// monotone state flags; the rest are derived from state shape.
pub mod props {
    use super::super::state::flags;

    /// The attack mechanism delivered (a fact, not a violation).
    pub const DELIVERED: u32 = flags::DELIVERED as u32;
    /// Policy IR vs kernel artifact disagreement.
    pub const GATE_MISMATCH: u32 = flags::GATE_MISMATCH as u32;
    /// Fork admitted beyond quota.
    pub const QUOTA_BREACH: u32 = flags::QUOTA_BREACH as u32;
    /// Device register written by a non-driver.
    pub const UNAUTH_DEV_WRITE: u32 = flags::UNAUTH_DEV_WRITE as u32;
    /// A kernel object was reached through a type-confused handle.
    pub const OBJECT_MASQUERADE: u32 = flags::MASQUERADE as u32;
    /// A derivation-breached capability was honored.
    pub const DERIVATION_BREACH: u32 = flags::DERIVATION_BREACH as u32;
    /// `hot_unalarmed` exceeded the bounded-response bound `k`.
    pub const BOUNDED_RESPONSE: u32 = 1 << 6;
    /// A critical process is dead.
    pub const CRITICAL_KILLED: u32 = 1 << 7;
    /// The plant reference diverged from the authorized setpoint.
    pub const REF_DIVERGENCE: u32 = 1 << 8;
    /// A stale (revoked-then-consumed) delivery was honored. The state
    /// flag lives at bit 6 of the `u8`, which this mask space already
    /// spends on `BOUNDED_RESPONSE` — [`classify`](super::classify)
    /// relocates it here.
    pub const CAPABILITY_RACE: u32 = 1 << 9;

    /// Facts that constitute a compromise. `CAPABILITY_RACE` is
    /// deliberately excluded: a stale delivery is an enforcement
    /// *window*, not by itself a plant compromise. (A churn-enabled
    /// cell can still be `Compromised` — sustained revocation starves
    /// the alarm path into a `BOUNDED_RESPONSE` violation — but that
    /// verdict comes from the starvation, never from the race bit.)
    pub const COMPROMISE: u32 = UNAUTH_DEV_WRITE
        | OBJECT_MASQUERADE
        | DERIVATION_BREACH
        | BOUNDED_RESPONSE
        | CRITICAL_KILLED
        | REF_DIVERGENCE;
    /// Internal invariants expected unreachable in every healthy config.
    pub const INVARIANT: u32 = GATE_MISMATCH | QUOTA_BREACH;
}

/// The property a counterexample witnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McProperty {
    /// The alarm stayed off more than `k` ticks past the threshold.
    BoundedResponse,
    /// A critical process was terminated.
    CriticalKilled,
    /// An unauthorized setpoint was accepted.
    ReferenceDivergence,
    /// A non-driver subject wrote a device register.
    UnauthorizedDeviceWrite,
    /// Policy IR and kernel artifact disagreed on an operation.
    GateMismatch,
    /// A fork was admitted beyond its quota.
    QuotaBreach,
    /// A kernel object was reached through a type-confused handle.
    ObjectMasquerade,
    /// A derivation-breached capability was honored by the kernel.
    DerivationBreach,
    /// A message admitted before a revoke was consumed after it.
    CapabilityRace,
}

impl McProperty {
    /// The fact bit this property corresponds to.
    pub fn bit(self) -> u32 {
        match self {
            McProperty::BoundedResponse => props::BOUNDED_RESPONSE,
            McProperty::CriticalKilled => props::CRITICAL_KILLED,
            McProperty::ReferenceDivergence => props::REF_DIVERGENCE,
            McProperty::UnauthorizedDeviceWrite => props::UNAUTH_DEV_WRITE,
            McProperty::GateMismatch => props::GATE_MISMATCH,
            McProperty::QuotaBreach => props::QUOTA_BREACH,
            McProperty::ObjectMasquerade => props::OBJECT_MASQUERADE,
            McProperty::DerivationBreach => props::DERIVATION_BREACH,
            McProperty::CapabilityRace => props::CAPABILITY_RACE,
        }
    }

    /// All properties, counterexample-priority first (process loss and
    /// divergence replay most directly; invariants last).
    pub const ALL: [McProperty; 9] = [
        McProperty::CriticalKilled,
        McProperty::ReferenceDivergence,
        McProperty::UnauthorizedDeviceWrite,
        // Before BoundedResponse: in churn-enabled cells a sustained
        // revoke also starves the alarm path (a bounded-response
        // compromise), but the race is the property those cells exist
        // to witness. Unreachable in plain cells, so their priority
        // order is unchanged.
        McProperty::CapabilityRace,
        McProperty::BoundedResponse,
        McProperty::ObjectMasquerade,
        McProperty::DerivationBreach,
        McProperty::GateMismatch,
        McProperty::QuotaBreach,
    ];
}

impl std::fmt::Display for McProperty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            McProperty::BoundedResponse => "bounded-response",
            McProperty::CriticalKilled => "critical-killed",
            McProperty::ReferenceDivergence => "reference-divergence",
            McProperty::UnauthorizedDeviceWrite => "unauthorized-device-write",
            McProperty::GateMismatch => "gate-mismatch",
            McProperty::QuotaBreach => "quota-breach",
            McProperty::ObjectMasquerade => "object-masquerade",
            McProperty::DerivationBreach => "derivation-breach",
            McProperty::CapabilityRace => "capability-race",
        };
        f.write_str(s)
    }
}

/// Maps a state to its fact bitmask.
pub fn classify(bounds: &McBounds, s: &McState) -> u32 {
    // Flag bits 0..5 map through unchanged; CAP_RACE (bit 6 of the u8)
    // is relocated past the derived-fact bits.
    let mut f = u32::from(s.flags) & 0x3f;
    if s.flags & super::state::flags::CAP_RACE != 0 {
        f |= props::CAPABILITY_RACE;
    }
    if s.hot_unalarmed > bounds.response_bound {
        f |= props::BOUNDED_RESPONSE;
    }
    if s.critical_lost() {
        f |= props::CRITICAL_KILLED;
    }
    if s.diverged {
        f |= props::REF_DIVERGENCE;
    }
    f
}

/// A minimized violation witness.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The violated property.
    pub property: McProperty,
    /// A 1-minimal action trace from the initial state to a violating
    /// state (every action is enabled where it is taken).
    pub trace: Vec<McAction>,
}

/// The model-checking result for one matrix cell.
pub struct CellReport {
    /// Platform of the cell.
    pub platform: Platform,
    /// Attacker model of the cell.
    pub attacker: AttackerModel,
    /// Attack of the cell.
    pub attack: AttackId,
    /// The checker's verdict over all interleavings at the bound.
    pub mc: Expectation,
    /// The paper's ground-truth expectation.
    pub paper: Expectation,
    /// The static verdict for the same policy ([`flow::predict`]). The
    /// field keeps its historical name, which the reports' `taint` keys
    /// carry.
    pub taint: Expectation,
    /// Exploration counters (reduced run).
    pub stats: ExploreStats,
    /// Which properties were reachable (bitmask over [`props`]).
    pub reached: u32,
    /// The highest-priority compromise counterexample, minimized.
    pub counterexample: Option<Counterexample>,
}

impl CellReport {
    /// Three-way agreement: checker == paper == static analyzer.
    pub fn agrees(&self) -> bool {
        self.mc == self.paper && self.mc == self.taint
    }

    /// Whether an internal invariant (gate mismatch / quota breach) was
    /// reachable — expected false in every healthy configuration.
    pub fn invariant_violated(&self) -> bool {
        self.reached & props::INVARIANT != 0
    }
}

/// Collapses reachability to the three-valued outcome.
fn to_expectation(reached: u32) -> Expectation {
    if reached & props::COMPROMISE != 0 {
        Expectation::Compromised
    } else if reached & props::DELIVERED != 0 {
        Expectation::ResourceExhaustionOnly
    } else {
        Expectation::Stopped
    }
}

/// Model-checks one cell. `opts` controls POR and the state budget.
pub fn check_cell(model: &ScenarioModel, opts: &ExploreOpts) -> CellReport {
    let bounds = model.bounds;
    let ex = explore(model, opts, |s| classify(&bounds, s));

    let mut reached = 0;
    for bit in 0..32 {
        if ex.reached(1 << bit) {
            reached |= 1 << bit;
        }
    }

    let counterexample = McProperty::ALL
        .iter()
        .find(|p| ex.reached(p.bit()))
        .map(|&property| {
            let witness = ex.witness(property.bit()).expect("reached");
            let trace = minimize_trace(model, witness, |s| {
                classify(&bounds, s) & property.bit() != 0
            });
            Counterexample { property, trace }
        });

    CellReport {
        platform: model.platform,
        attacker: model.attacker,
        attack: model.attack,
        mc: to_expectation(reached),
        paper: paper_expectation(model.platform, model.attacker, model.attack),
        taint: flow::expectation(&flow::predict(model.ir(), model.attack)),
        stats: ex.stats,
        reached,
        counterexample,
    }
}

/// The `(platform, attacker, attack)` tuples of the full matrix for
/// `platforms`, platform-major — the same order as `predicted_matrix` /
/// `exp_attack_matrix`.
pub fn matrix_cells(platforms: &[Platform]) -> Vec<(Platform, AttackerModel, AttackId)> {
    let mut cells = Vec::new();
    for &platform in platforms {
        for attack in AttackId::ALL {
            for attacker in [AttackerModel::ArbitraryCode, AttackerModel::Root] {
                cells.push((platform, attacker, attack));
            }
        }
    }
    cells
}

/// Model-checks the full 54-cell matrix (platform-major, the same order
/// as `predicted_matrix` / `exp_attack_matrix`).
pub fn check_matrix(scheme: UidScheme, opts: &ExploreOpts) -> Vec<CellReport> {
    check_cells(
        &matrix_cells(&[Platform::Linux, Platform::Minix, Platform::Sel4]),
        scheme,
        opts,
        1,
    )
}

/// Model-checks `cells` on a [`WorkerPool`] of `sweep_workers` threads,
/// preserving input order in the result. Cells are independent
/// explorations, so this parallelizes at the cell boundary; reports are
/// identical at any `sweep_workers` (each cell is a pure function of its
/// inputs).
pub fn check_cells(
    cells: &[(Platform, AttackerModel, AttackId)],
    scheme: UidScheme,
    opts: &ExploreOpts,
    sweep_workers: usize,
) -> Vec<CellReport> {
    WorkerPool::new(sweep_workers).map(cells.len(), |i| {
        let (platform, attacker, attack) = cells[i];
        check_cell(
            &ScenarioModel::new(platform, attacker, attack, scheme),
            opts,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bas_core::semantics::replay_trace;

    fn quick_opts() -> ExploreOpts {
        ExploreOpts {
            use_por: true,
            state_budget: 2_000_000,
        }
    }

    #[test]
    fn minix_kill_is_proved_stopped() {
        let m = ScenarioModel::new(
            Platform::Minix,
            AttackerModel::ArbitraryCode,
            AttackId::KillCritical,
            UidScheme::SharedAccount,
        );
        let r = check_cell(&m, &quick_opts());
        assert!(!r.stats.truncated, "must be exhaustive to prove");
        assert_eq!(r.mc, Expectation::Stopped);
        assert!(r.agrees());
        assert!(!r.invariant_violated());
        assert!(r.counterexample.is_none());
    }

    #[test]
    fn linux_shared_kill_yields_a_replayable_counterexample() {
        let m = ScenarioModel::new(
            Platform::Linux,
            AttackerModel::ArbitraryCode,
            AttackId::KillCritical,
            UidScheme::SharedAccount,
        );
        let r = check_cell(&m, &quick_opts());
        assert_eq!(r.mc, Expectation::Compromised);
        assert!(r.agrees());
        let cx = r.counterexample.expect("compromise ⇒ witness");
        assert_eq!(cx.property, McProperty::CriticalKilled);
        let states = replay_trace(&m, &cx.trace).expect("minimized trace stays feasible");
        let bounds = m.bounds;
        assert!(states
            .iter()
            .any(|s| classify(&bounds, s) & cx.property.bit() != 0));
    }

    #[test]
    fn sel4_spoof_is_stopped_despite_kernel_admission() {
        let m = ScenarioModel::new(
            Platform::Sel4,
            AttackerModel::Root,
            AttackId::SpoofSensorData,
            UidScheme::SharedAccount,
        );
        let r = check_cell(&m, &quick_opts());
        assert!(!r.stats.truncated);
        assert_eq!(r.mc, Expectation::Stopped);
        assert!(r.agrees());
    }

    #[test]
    fn churn_cell_reaches_the_capability_race_by_interleaving() {
        // MINIX + kill is proved Stopped without churn; adding the
        // revoke/regrant primitives must surface the race — an admitted
        // reading consumed after the revoke. The cell also turns
        // Compromised, but through BOUNDED_RESPONSE (sustained
        // revocation starves the alarm path), never through the race
        // bit itself.
        let m = ScenarioModel::new(
            Platform::Minix,
            AttackerModel::ArbitraryCode,
            AttackId::KillCritical,
            UidScheme::SharedAccount,
        )
        .with_churn();
        let r = check_cell(&m, &quick_opts());
        assert!(!r.stats.truncated, "churn cell stays exhaustive");
        assert_ne!(r.reached & props::CAPABILITY_RACE, 0, "race reachable");
        assert_ne!(
            r.reached & props::BOUNDED_RESPONSE,
            0,
            "revocation starvation is a DoS vector"
        );
        assert_eq!(r.mc, Expectation::Compromised, "starvation compromises");
        assert!(!r.invariant_violated());
        let cx = r.counterexample.expect("reached property ⇒ witness");
        assert_eq!(cx.property, McProperty::CapabilityRace);
        let states = replay_trace(&m, &cx.trace).expect("witness stays feasible");
        let bounds = m.bounds;
        assert!(states
            .iter()
            .any(|s| classify(&bounds, s) & props::CAPABILITY_RACE != 0));
    }

    #[test]
    fn plain_cells_never_reach_the_capability_race() {
        // Without the churn primitives the cap_ok bit never flips, so
        // the matrix verdicts are untouched by the new property.
        for platform in [Platform::Linux, Platform::Minix, Platform::Sel4] {
            let m = ScenarioModel::new(
                platform,
                AttackerModel::Root,
                AttackId::SpoofSensorData,
                UidScheme::PerProcessHardened,
            );
            let r = check_cell(&m, &quick_opts());
            assert_eq!(
                r.reached & props::CAPABILITY_RACE,
                0,
                "{platform}: no churn, no race"
            );
        }
    }

    #[test]
    fn por_preserves_verdicts_while_reducing_states() {
        let cell = |use_por: bool| {
            let m = ScenarioModel::new(
                Platform::Minix,
                AttackerModel::ArbitraryCode,
                AttackId::FloodLegitChannel,
                UidScheme::SharedAccount,
            );
            check_cell(
                &m,
                &ExploreOpts {
                    use_por,
                    state_budget: 2_000_000,
                },
            )
        };
        let reduced = cell(true);
        let full = cell(false);
        assert!(!reduced.stats.truncated && !full.stats.truncated);
        assert_eq!(reduced.mc, full.mc);
        assert_eq!(reduced.reached, full.reached);
        assert!(
            reduced.stats.states < full.stats.states,
            "POR ineffective: {} !< {}",
            reduced.stats.states,
            full.stats.states
        );
    }
}
