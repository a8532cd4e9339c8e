//! The attack runner: warmup → attack window → cooldown → verdict.
//!
//! During warmup the system operates benignly. Mid-window the external
//! heat source steps up (the "manual heating" of the paper's testbed made
//! adversarial), so every run contains a physical disturbance the control
//! loop must answer: a healthy system rides it out (fan at full duty,
//! alarm raised within the deadline); a subverted one violates the safety
//! property — making the physical consequence of each attack observable,
//! not assumed.

use bas_core::engine::{PlatformKernel, ScenarioEngine};
use bas_core::platform::linux::UidScheme;
use bas_core::scenario::{critical_alive, plant_snapshot, Platform, Scenario, ScenarioConfig};
use bas_sim::time::SimDuration;

use crate::bind::{LinuxBinding, MinixBinding, Sel4Binding};
use crate::evidence::{new_evidence, AttackEvidence, EvidenceLog};
use crate::model::{AttackId, AttackOutcome, AttackerModel, MechanismOutcome, PhysicalSummary};
use crate::procs::{Attacker, Binding, Plan};

/// Timing and configuration of one attack run.
#[derive(Clone)]
pub struct AttackRunConfig {
    /// Base scenario (quiet web schedule; the attacker replaces the web
    /// interface anyway).
    pub scenario: ScenarioConfig,
    /// Benign operation before the attack starts.
    pub warmup: SimDuration,
    /// Attack duration.
    pub window: SimDuration,
    /// Post-attack observation.
    pub cooldown: SimDuration,
    /// Linux account configuration.
    pub linux_uid_scheme: UidScheme,
}

impl Default for AttackRunConfig {
    fn default() -> Self {
        let warmup = SimDuration::from_secs(600);
        let window = SimDuration::from_secs(900);
        let mut scenario = ScenarioConfig::quiet();
        // Physical disturbance mid-window: heat source 300 W → 600 W.
        // With the fan at full duty the room settles at 24 °C — outside
        // the 22±1 band — so a *healthy* controller must raise the alarm
        // within the deadline, and a subverted one gets caught by the
        // safety oracle.
        scenario.plant.heat_schedule = vec![(warmup + SimDuration::from_secs(300), 600.0)];
        AttackRunConfig {
            scenario,
            warmup,
            window,
            cooldown: SimDuration::from_secs(120),
            linux_uid_scheme: UidScheme::SharedAccount,
        }
    }
}

/// `B`'s stack overrides with `plan` mounted in the web interface's
/// place, with `attacker`'s privileges there: the attacker sleeps out
/// `run.warmup` and records into `evidence`. This is the one entry that
/// mounts an attack; boot the result with
/// `ScenarioEngine::<B::Stack>::boot(&run.scenario, ..)`.
pub fn attack_overrides<B: Binding>(
    attacker: AttackerModel,
    plan: impl Into<Plan<B::Syscall>>,
    run: &AttackRunConfig,
    evidence: &EvidenceLog,
) -> <B::Stack as PlatformKernel>::Overrides {
    let (plan, evidence, warmup) = (plan.into(), evidence.clone(), run.warmup);
    B::overrides(
        move |binding| Attacker::new(binding, plan.clone(), warmup, evidence.clone()),
        attacker,
        run,
    )
}

/// Runs one attack and produces the matrix cell.
pub fn run_attack(
    platform: Platform,
    attacker: AttackerModel,
    attack: AttackId,
    config: &AttackRunConfig,
) -> AttackOutcome {
    match platform {
        Platform::Minix => attack_on::<MinixBinding>(attacker, attack, config),
        Platform::Sel4 => attack_on::<Sel4Binding>(attacker, attack, config),
        Platform::Linux => attack_on::<LinuxBinding>(attacker, attack, config),
    }
}

/// [`run_attack`] on `B`'s platform.
fn attack_on<B: Binding>(
    attacker: AttackerModel,
    attack: AttackId,
    config: &AttackRunConfig,
) -> AttackOutcome {
    let evidence = new_evidence();
    let overrides = attack_overrides::<B>(attacker, attack, config, &evidence);
    let mut s = ScenarioEngine::<B::Stack>::boot(&config.scenario, overrides);
    s.run_for(config.warmup + config.window + config.cooldown);
    let plant = plant_snapshot(&s);

    let mut ev: AttackEvidence = evidence.borrow().clone();
    ev.notes.push(format!(
        "{} processes alive after attack",
        s.alive_names().len()
    ));

    AttackOutcome {
        platform: s.platform(),
        attacker,
        attack,
        mechanism: judge_mechanism(B::legitimate_handles(), attack, &ev),
        critical_alive: critical_alive(&s),
        physical: PhysicalSummary {
            safety_violated: plant.safety_violated,
            max_deviation_c: plant.max_deviation_c,
            final_temp_c: plant.final_temp_c,
            alarm_on: plant.alarm_on,
            fan_switches: plant.fan_switches,
        },
        plant,
        metrics: s.metrics(),
        evidence: ev,
    }
}

/// The mechanism verdict. Enumeration is judged by what it found
/// *beyond the `legitimate` handles* the web interface holds by design
/// (`Binding::legitimate_handles`) — the paper's criterion:
/// "unsuccessful in finding any additional capabilities".
fn judge_mechanism(legitimate: u64, attack: AttackId, ev: &AttackEvidence) -> MechanismOutcome {
    if attack == AttackId::BruteForceHandles {
        return if ev.handles_found > legitimate {
            MechanismOutcome::Succeeded(format!(
                "{} handle(s) reachable ({} beyond legitimate) of {} probed",
                ev.handles_found,
                ev.handles_found - legitimate,
                ev.attempts
            ))
        } else {
            MechanismOutcome::Blocked(format!(
                "no handles beyond the {legitimate} legitimate one(s); {} probed",
                ev.attempts
            ))
        };
    }
    if ev.successes > 0 {
        MechanismOutcome::Succeeded(format!(
            "{}/{} operations accepted",
            ev.successes, ev.attempts
        ))
    } else if ev.denials > 0 {
        MechanismOutcome::Blocked(format!(
            "{}/{} operations denied by access control",
            ev.denials, ev.attempts
        ))
    } else {
        MechanismOutcome::Blocked(format!("no operation completed ({} errors)", ev.errors))
    }
}
