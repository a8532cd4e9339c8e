//! Static ↔ dynamic cross-validation for revocation races.
//!
//! The PR-6 fixpoint ([`crate::flow::closure`]) flags **revocation-leak**
//! findings statically: a derivation chain whose root was revoked
//! node-locally, leaving descendants usable. The race detector observes
//! the same hazard dynamically, as a revoke racing a stale use on a live
//! kernel. This module closes the loop: every static revocation-leak
//! must either map to a demonstrated dynamic race on the same platform
//! (untrusted holder — the leak is an exploitable window) or carry an
//! explicit suppression justification (trusted holder — churn among
//! trusted administrative subjects is ordered administration, not an
//! attack surface; the hygiene finding stands, the race escalation does
//! not). `exp_cap_races` (E19) asserts the mapping is total: no static
//! finding may be left unmapped.

use bas_core::scenario::Platform;

use crate::flow::{closure, derivation_scenarios, FlowKind};
use crate::ir::Trust;

/// How one static revocation-leak finding was discharged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakMapping {
    /// The seeded derivation scenario the finding came from.
    pub scenario: String,
    /// The platform whose lowered IR carried the leak.
    pub platform: Platform,
    /// The leaked capability's holder.
    pub holder: String,
    /// Whether the holder is untrusted in the scenario's Policy IR.
    pub untrusted: bool,
    /// `"dynamic-race"` or `"suppressed"`.
    pub disposition: &'static str,
    /// For `"dynamic-race"`: the churn-scenario name whose detector
    /// output demonstrates the window on this platform.
    pub dynamic_scenario: Option<String>,
    /// The justification line the report carries.
    pub justification: String,
}

/// Maps every static revocation-leak finding from the seeded derivation
/// scenarios to its dynamic disposition. Total by construction: each
/// finding yields exactly one mapping; the caller (E19) verifies that
/// each referenced dynamic scenario really produced a revoke-raced
/// stale use.
pub fn map_revocation_leaks() -> Vec<LeakMapping> {
    let mut out = Vec::new();
    for ds in derivation_scenarios() {
        for f in closure_leaks(&ds.model) {
            let untrusted = ds
                .model
                .subjects
                .get(&f)
                .is_some_and(|s| s.trust == Trust::Untrusted);
            let k = ds.platform.key();
            if untrusted {
                out.push(LeakMapping {
                    scenario: ds.name.clone(),
                    platform: ds.platform,
                    holder: f.clone(),
                    untrusted,
                    disposition: "dynamic-race",
                    dynamic_scenario: Some(format!("{k}/armed-revoke-toctou")),
                    justification: format!(
                        "holder {f} is untrusted: the statically-leaked right is a live \
                         TOCTOU window, demonstrated by the armed-revoke schedule"
                    ),
                });
            } else {
                out.push(LeakMapping {
                    scenario: ds.name.clone(),
                    platform: ds.platform,
                    holder: f.clone(),
                    untrusted,
                    disposition: "suppressed",
                    dynamic_scenario: None,
                    justification: format!(
                        "holder {f} is trusted: revocation churn among trusted subjects \
                         is ordered administration; hygiene finding stands, race \
                         escalation suppressed"
                    ),
                });
            }
        }
    }
    out
}

/// Holders of revocation-leak findings in one seeded model, in finding
/// order.
fn closure_leaks(model: &crate::ir::PolicyModel) -> Vec<String> {
    closure(&model.caps)
        .findings
        .into_iter()
        .filter(|f| f.kind == FlowKind::RevocationLeak)
        .map(|f| f.holder)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_leak_is_mapped_and_dispositions_split_by_trust() {
        let maps = map_revocation_leaks();
        // 3 platforms × 1 revocation-leak scenario × 2 leaked holders.
        assert_eq!(maps.len(), 6);
        for m in &maps {
            match m.disposition {
                "dynamic-race" => {
                    assert!(m.untrusted, "{}: only untrusted holders escalate", m.holder);
                    assert!(m.dynamic_scenario.is_some());
                }
                "suppressed" => {
                    assert!(!m.untrusted);
                    assert!(m.dynamic_scenario.is_none());
                }
                other => panic!("unknown disposition {other}"),
            }
        }
        assert_eq!(
            maps.iter()
                .filter(|m| m.disposition == "dynamic-race")
                .count(),
            3,
            "one untrusted (web) holder per platform"
        );
    }
}
