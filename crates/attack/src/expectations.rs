//! The paper's predicted outcome for every attack-matrix cell.
//!
//! §IV-D in one sentence: "the microkernel based approach can stop attacks
//! that can easily be successful on a monolithic kernel (Linux) based
//! system." This module encodes the per-cell predictions the experiments
//! compare against; `EXPERIMENTS.md` records paper-vs-measured.

use bas_core::scenario::Platform;

use crate::model::{AttackId, AttackerModel};

/// A predicted outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// The attack mechanism succeeds and the physical process (or a
    /// critical process) is compromised.
    Compromised,
    /// The attack mechanism succeeds but only exhausts resources; the
    /// running control loop keeps its safety property (fork bombs).
    ResourceExhaustionOnly,
    /// The attack is stopped by the platform's access control (or by
    /// application validation) with no physical impact.
    Stopped,
}

/// The paper's (extrapolated) prediction for one cell.
///
/// Cells the paper does not test directly are extrapolated from its
/// mechanism analysis and flagged in `EXPERIMENTS.md`:
///
/// - Linux A1 kill: the paper demonstrates kill under A2, but with all
///   five processes under one account the same-uid signal rule already
///   allows it — predicted compromised.
/// - Direct device access: not in the paper; `/dev` DAC falls with the
///   shared account or root, device ownership on the microkernels does
///   not.
/// - Flood/tamper via the legitimate channel: junk is *delivered* where
///   the channel is open (Linux queues, the MINIX setpoint channel) but
///   bounded by validation; on seL4 the `seL4RPCCall` connector plus
///   label-coded validation rejects it at the RPC layer. No physical
///   impact anywhere.
pub fn paper_expectation(
    platform: Platform,
    _attacker: AttackerModel,
    attack: AttackId,
) -> Expectation {
    use AttackId::*;
    use Expectation::*;
    match platform {
        Platform::Linux => match attack {
            SpoofSensorData | SpoofActuatorCommands | KillCritical | DirectDeviceWrite => {
                Compromised
            }
            ForkBomb => ResourceExhaustionOnly,
            // With the shared account, every queue handle is reachable.
            BruteForceHandles => ResourceExhaustionOnly,
            // The shared-account queues accept the junk (delivery through
            // one's own channel), but validation bounds the impact.
            FloodLegitChannel => ResourceExhaustionOnly,
            SetpointTamper => Stopped,
            ReplaySetpoint => Compromised,
        },
        Platform::Minix => match attack {
            ForkBomb => ResourceExhaustionOnly, // "This is problematic; although Linux is in the same situation."
            // The ACM permits the setpoint channel, so non-blocking junk
            // is *delivered* — and discarded by validation.
            FloodLegitChannel => ResourceExhaustionOnly,
            // Replaying a captured in-range admin action through the
            // compromised admin channel is indistinguishable from a real
            // one — kernel IPC policy cannot help; application-layer
            // authentication/freshness would be required. The paper's
            // claim is scoped to *unauthorized channels*, and this row
            // marks that boundary.
            ReplaySetpoint => Compromised,
            SpoofSensorData
            | SpoofActuatorCommands
            | KillCritical
            | BruteForceHandles
            | DirectDeviceWrite
            | SetpointTamper => Stopped,
        },
        Platform::Sel4 => match attack {
            ReplaySetpoint => Compromised,
            _ => Stopped,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linux_falls_microkernels_stand() {
        for attacker in [AttackerModel::ArbitraryCode, AttackerModel::Root] {
            assert_eq!(
                paper_expectation(Platform::Linux, attacker, AttackId::SpoofSensorData),
                Expectation::Compromised
            );
            assert_eq!(
                paper_expectation(Platform::Minix, attacker, AttackId::SpoofSensorData),
                Expectation::Stopped
            );
            assert_eq!(
                paper_expectation(Platform::Sel4, attacker, AttackId::SpoofSensorData),
                Expectation::Stopped
            );
        }
    }

    #[test]
    fn fork_bomb_exhausts_but_does_not_violate_safety() {
        assert_eq!(
            paper_expectation(
                Platform::Minix,
                AttackerModel::ArbitraryCode,
                AttackId::ForkBomb
            ),
            Expectation::ResourceExhaustionOnly
        );
        assert_eq!(
            paper_expectation(
                Platform::Sel4,
                AttackerModel::ArbitraryCode,
                AttackId::ForkBomb
            ),
            Expectation::Stopped,
            "no thread-creation authority on seL4"
        );
    }

    #[test]
    fn every_cell_has_a_prediction() {
        for platform in [Platform::Linux, Platform::Minix, Platform::Sel4] {
            for attacker in [AttackerModel::ArbitraryCode, AttackerModel::Root] {
                for attack in AttackId::ALL {
                    let _ = paper_expectation(platform, attacker, attack);
                }
            }
        }
    }
}
