//! Counterexample replay into the dynamic engine.
//!
//! A model-checking counterexample is an *abstract* schedule; this
//! bridge closes the loop by mounting the same cell's attack through the
//! real `ScenarioEngine` stacks ([`bas_attack::run_attack`]) and
//! asserting that the violated property manifests dynamically — dead
//! critical processes for a kill witness, a physical safety violation
//! for bounded-response/divergence/device witnesses. The dynamic
//! scheduler runs *one* interleaving, and the abstract witness proves a
//! violating interleaving exists; for the scenario's attacks the two
//! coincide (the attack harness drives the adversarial schedule), which
//! is exactly what this bridge verifies.
//!
//! The witness and the dynamic attacker share one alphabet: each
//! `attack:` step of a counterexample is an [`bas_attack::AttackOp`] of
//! the cell's program, and the harness runs that program through the
//! platform's binding. The replay still re-runs the whole cell rather
//! than the witness's own op sequence.

use bas_attack::{run_attack, AttackOutcome, AttackRunConfig};
use bas_core::platform::linux::UidScheme;

use super::verdict::{CellReport, McProperty};

/// The result of replaying one counterexample dynamically.
pub struct ReplayResult {
    /// The property the abstract witness violated.
    pub property: McProperty,
    /// Whether the dynamic run manifests the same violation.
    pub confirmed: bool,
    /// One-line evidence summary from the dynamic outcome.
    pub evidence: String,
    /// The full dynamic outcome.
    pub outcome: AttackOutcome,
}

/// Whether `outcome` manifests `property` dynamically.
pub fn property_manifested(property: McProperty, outcome: &AttackOutcome) -> bool {
    match property {
        McProperty::CriticalKilled => !outcome.critical_alive,
        // The plant-level compromises all surface as a physical safety
        // violation in the dynamic engine (the alarm window, reference
        // divergence and forced actuators are folded into one safety
        // report there).
        McProperty::BoundedResponse
        | McProperty::ReferenceDivergence
        | McProperty::UnauthorizedDeviceWrite => outcome.physical.safety_violated,
        // Internal invariants have no dynamic analogue to confirm, and
        // the seeded-capability properties exist only in the abstract
        // derivation graph (the dynamic stacks never mint bad caps).
        McProperty::GateMismatch
        | McProperty::QuotaBreach
        | McProperty::ObjectMasquerade
        | McProperty::DerivationBreach => false,
        // The capability race has a dynamic analogue, but it lives in
        // the churn harness (`crate::races`), not the attack harness
        // this replay drives — `exp_cap_races` closes that loop.
        McProperty::CapabilityRace => false,
    }
}

/// Replays `report`'s counterexample through the dynamic attack harness
/// under `scheme`. Returns `None` if the report carries no witness.
pub fn replay_counterexample(report: &CellReport, scheme: UidScheme) -> Option<ReplayResult> {
    let cx = report.counterexample.as_ref()?;
    let config = AttackRunConfig {
        linux_uid_scheme: scheme,
        ..AttackRunConfig::default()
    };
    let outcome = run_attack(report.platform, report.attacker, report.attack, &config);
    let confirmed = property_manifested(cx.property, &outcome) && outcome.compromised();
    let evidence = format!(
        "critical_alive={} safety_violated={} max_deviation={:.2}C",
        outcome.critical_alive, outcome.physical.safety_violated, outcome.physical.max_deviation_c,
    );
    Some(ReplayResult {
        property: cx.property,
        confirmed,
        evidence,
        outcome,
    })
}
