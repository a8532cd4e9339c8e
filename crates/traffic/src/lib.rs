//! # bas-traffic — the E18 multi-tenant traffic front-end
//!
//! Replays heavy mixed traffic against a fleet of building controllers
//! and measures what the paper's §III performance remark only gestures
//! at: request latency, sustained throughput, and kernel backpressure
//! under multi-tenant load, with attack campaigns running on a slice of
//! the fleet at the same time.
//!
//! The pipeline is deterministic end to end:
//!
//! 1. **Role assignment** — each instance index is independently marked
//!    benign or attacker from its own SplitMix64 stream
//!    ([`assign_roles`]); attackers draw their attack from
//!    [`AttackId::TRAFFIC_MIX`] (weights grounded in dos Santos et al.,
//!    arXiv:1912.02480).
//! 2. **Benign sub-fleet** — the benign indices run through the fleet
//!    engine with [`TrafficProfile`] tenant sessions compiled into
//!    per-instance schedules (open loop: arrivals never depend on
//!    completions), on the snapshot/fork boot path.
//! 3. **Attacker sessions** — each attacker index runs its drawn attack
//!    through the `bas-attack` harness with a seed derived from the
//!    *original* fleet index.
//!
//! Every simulation outcome in the [`TrafficReport`] is a pure function
//! of `(config, root_seed)` — byte-identical JSON at any worker count —
//! while wall-clock throughput lives in [`TrafficWall`].

use std::time::Instant;

use bas_attack::harness::{run_attack, AttackRunConfig};
use bas_attack::model::{AttackId, AttackerModel};
use bas_core::logic::traffic::TrafficProfile;
use bas_core::scenario::Platform;
use bas_fleet::{
    instance_seed, run_fleet_with, BootMode, FleetConfig, FleetReport, Json, WallStats, WorkerPool,
};
use bas_sim::rng::SimRng;
use bas_sim::time::SimDuration;

/// Decorrelates role assignment from the instance simulation streams.
const ROLE_SALT: u64 = 0x7e18_401e_5a17_0001;

/// Decorrelates attacker-session seeds from benign instance seeds.
const ATTACK_SALT: u64 = 0x7e18_a77a_c4ed_5eed;

/// What one fleet index does for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Runs tenant sessions from the traffic profile.
    Benign,
    /// Runs the drawn attack through the attack harness.
    Attacker(AttackId),
}

/// Configuration of one traffic run.
#[derive(Clone)]
pub struct TrafficConfig {
    /// Platform every instance runs on.
    pub platform: Platform,
    /// Total fleet size (benign + attacker instances).
    pub instances: usize,
    /// Worker threads for both the fleet and the attack sessions.
    pub workers: usize,
    /// Root seed; everything derives from it and the instance index.
    pub root_seed: u64,
    /// Simulated horizon per benign instance. Must cover
    /// `profile.start + profile.duration` plus drain time, or late
    /// arrivals never complete.
    pub horizon: SimDuration,
    /// The tenant population every benign instance carries.
    pub profile: TrafficProfile,
    /// Probability that an index is an attacker (0 = all benign).
    pub attacker_fraction: f64,
    /// Attacker model for every attack session.
    pub attacker: AttackerModel,
    /// Timing template for attack sessions (the scenario seed is
    /// overwritten per instance).
    pub attack_run: AttackRunConfig,
    /// How benign instances boot.
    pub boot: BootMode,
}

impl TrafficConfig {
    /// A benign-only run with the default four-tenant profile: horizon
    /// covers the sessions plus 60 s of drain.
    pub fn new(platform: Platform, instances: usize, workers: usize) -> TrafficConfig {
        let profile = TrafficProfile::default();
        let horizon = (profile.start - bas_sim::time::SimTime::ZERO)
            + profile.duration
            + SimDuration::from_secs(60);
        TrafficConfig {
            platform,
            instances,
            workers,
            root_seed: 42,
            horizon,
            profile,
            attacker_fraction: 0.0,
            attacker: AttackerModel::ArbitraryCode,
            attack_run: AttackRunConfig::default(),
            boot: BootMode::default(),
        }
    }
}

/// Draws one attack from [`AttackId::TRAFFIC_MIX`] by cumulative weight.
fn sample_mix(rng: &mut SimRng) -> AttackId {
    let total: f64 = AttackId::TRAFFIC_MIX.iter().map(|&(_, w)| w).sum();
    let mut u = rng.uniform() * total;
    for &(attack, w) in &AttackId::TRAFFIC_MIX {
        if u < w {
            return attack;
        }
        u -= w;
    }
    AttackId::TRAFFIC_MIX[AttackId::TRAFFIC_MIX.len() - 1].0
}

/// Assigns every fleet index a role, each from its own derived stream —
/// a pure function of `(root_seed, attacker_fraction, index)`, so the
/// split never depends on worker count or iteration order.
pub fn assign_roles(config: &TrafficConfig) -> Vec<Role> {
    (0..config.instances)
        .map(|index| {
            let mut rng = SimRng::seed_from(instance_seed(config.root_seed ^ ROLE_SALT, index));
            if rng.chance(config.attacker_fraction) {
                Role::Attacker(sample_mix(&mut rng))
            } else {
                Role::Benign
            }
        })
        .collect()
}

/// Per-attack aggregate over the attacker slice, in
/// [`AttackId::TRAFFIC_MIX`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackLane {
    /// The attack.
    pub attack: AttackId,
    /// Attacker instances that drew this attack.
    pub instances: usize,
    /// Runs where the kernel accepted the malicious operations.
    pub mechanism_succeeded: usize,
    /// Runs that violated safety or lost a critical process.
    pub compromised: usize,
}

/// The deterministic outcome of a traffic run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficReport {
    /// Platform every instance ran on.
    pub platform: Platform,
    /// Root seed of the run.
    pub root_seed: u64,
    /// Total fleet size.
    pub instances: usize,
    /// Indices assigned tenant sessions.
    pub benign_instances: usize,
    /// Indices assigned attack sessions.
    pub attacker_instances: usize,
    /// The tenant population profile.
    pub profile: TrafficProfile,
    /// Benign sub-fleet outcome (request stats ride in
    /// `fleet.totals.requests*` and `fleet.request_latency`).
    pub fleet: FleetReport,
    /// Attack outcomes, one lane per mix entry (zero-instance lanes
    /// included so the JSON shape is load-independent).
    pub attacks: Vec<AttackLane>,
}

impl TrafficReport {
    /// Request latency at quantile `p`, seconds (0 when no requests).
    pub fn latency_percentile(&self, p: f64) -> f64 {
        self.fleet.request_latency.percentile(p)
    }

    /// Renders the report as deterministic JSON. The benign fleet's
    /// per-instance array is *not* embedded (a 1 000-instance run would
    /// drown the summary); its totals and merged latency histogram are.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// The report as a [`Json`] tree.
    pub fn to_json_value(&self) -> Json {
        let arrival = match self.profile.arrival {
            bas_core::logic::traffic::ArrivalProcess::Poisson => "poisson",
            bas_core::logic::traffic::ArrivalProcess::Uniform => "uniform",
        };
        Json::obj(vec![
            ("schema", Json::Str("bas-traffic-report/v1".into())),
            ("platform", Json::Str(self.platform.to_string())),
            ("root_seed", Json::UInt(self.root_seed)),
            ("instances", Json::UInt(self.instances as u64)),
            ("benign_instances", Json::UInt(self.benign_instances as u64)),
            (
                "attacker_instances",
                Json::UInt(self.attacker_instances as u64),
            ),
            (
                "profile",
                Json::obj(vec![
                    ("tenants", Json::UInt(self.profile.tenants as u64)),
                    (
                        "mean_interarrival_s",
                        Json::Num(self.profile.mean_interarrival_s),
                    ),
                    ("arrival", Json::Str(arrival.into())),
                    ("write_fraction", Json::Num(self.profile.write_fraction)),
                    ("duration_s", Json::Num(self.profile.duration.as_secs_f64())),
                    (
                        "expected_requests_per_instance",
                        Json::Num(self.profile.expected_requests()),
                    ),
                ]),
            ),
            ("requests", Json::UInt(self.fleet.totals.requests)),
            ("requests_ok", Json::UInt(self.fleet.totals.requests_ok)),
            (
                "latency_ms",
                Json::obj(vec![
                    ("p50", Json::Num(self.latency_percentile(0.50) * 1e3)),
                    ("p95", Json::Num(self.latency_percentile(0.95) * 1e3)),
                    ("p99", Json::Num(self.latency_percentile(0.99) * 1e3)),
                    ("mean", Json::Num(self.fleet.request_latency.mean_s() * 1e3)),
                    ("max", Json::Num(self.fleet.request_latency.max_s * 1e3)),
                ]),
            ),
            ("ipc_waits", Json::UInt(self.fleet.totals.ipc_waits)),
            ("ipc_messages", Json::UInt(self.fleet.totals.ipc_messages)),
            (
                "safety_violations",
                Json::UInt(self.fleet.totals.safety_violations as u64),
            ),
            (
                "critical_losses",
                Json::UInt(self.fleet.totals.critical_losses as u64),
            ),
            ("request_latency", self.fleet.request_latency.to_json()),
            (
                "attacks",
                Json::Arr(
                    self.attacks
                        .iter()
                        .map(|lane| {
                            Json::obj(vec![
                                ("attack", Json::Str(lane.attack.to_string())),
                                ("instances", Json::UInt(lane.instances as u64)),
                                (
                                    "mechanism_succeeded",
                                    Json::UInt(lane.mechanism_succeeded as u64),
                                ),
                                ("compromised", Json::UInt(lane.compromised as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Wall-clock throughput of one traffic run (varies run to run; kept
/// out of [`TrafficReport`] so the report stays deterministic).
#[derive(Debug, Clone)]
pub struct TrafficWall {
    /// Benign sub-fleet wall stats ([`WallStats::requests_per_wall_second`]
    /// is the E18 headline).
    pub benign: WallStats,
    /// Wall seconds the attack sessions took (0 with no attackers).
    pub attack_wall_seconds: f64,
}

/// A completed traffic run.
#[derive(Debug, Clone)]
pub struct TrafficRun {
    /// Deterministic outcome.
    pub report: TrafficReport,
    /// Wall-clock throughput.
    pub wall: TrafficWall,
}

/// Runs the whole front-end: role split, benign sub-fleet under load,
/// attacker sessions, one merged report.
pub fn run_traffic(pool: &WorkerPool, config: &TrafficConfig) -> TrafficRun {
    let roles = assign_roles(config);
    let attackers: Vec<(usize, AttackId)> = roles
        .iter()
        .enumerate()
        .filter_map(|(i, r)| match r {
            Role::Benign => None,
            Role::Attacker(a) => Some((i, *a)),
        })
        .collect();
    let benign_instances = config.instances - attackers.len();

    // Benign sub-fleet: contiguous fleet indices 0..benign; the tenant
    // schedules derive from the fleet's own instance seeds, so the
    // sub-fleet is a pure function of (config, root_seed).
    let (fleet, benign_wall) = if benign_instances == 0 {
        (
            FleetReport::aggregate(config.platform, config.root_seed, None, Vec::new()),
            WallStats::default(),
        )
    } else {
        let mut fleet_cfg = FleetConfig::benign(config.platform, benign_instances, config.workers);
        fleet_cfg.root_seed = config.root_seed;
        fleet_cfg.horizon = config.horizon;
        fleet_cfg.boot = config.boot;
        fleet_cfg.template.traffic = Some(config.profile.clone());
        let run = run_fleet_with(pool, &fleet_cfg);
        (run.report, run.wall)
    };

    // Attacker sessions: one attack run per attacker index, seeded from
    // the original index so adding/removing benign instances elsewhere
    // never reshuffles an attacker's stream. Like the benign sub-fleet,
    // the lane uses at most `config.workers` of the pool's threads.
    let t0 = Instant::now();
    let lane_pool = WorkerPool::new(config.workers.min(pool.size()));
    let outcomes = lane_pool.map(attackers.len(), |j| {
        let (index, attack) = attackers[j];
        let mut run = config.attack_run.clone();
        run.scenario.seed = instance_seed(config.root_seed ^ ATTACK_SALT, index);
        let outcome = run_attack(config.platform, config.attacker, attack, &run);
        (attack, outcome.mechanism.succeeded(), outcome.compromised())
    });
    let attack_wall_seconds = if attackers.is_empty() {
        0.0
    } else {
        t0.elapsed().as_secs_f64()
    };

    let mut attacks: Vec<AttackLane> = AttackId::TRAFFIC_MIX
        .iter()
        .map(|&(attack, _)| AttackLane {
            attack,
            instances: 0,
            mechanism_succeeded: 0,
            compromised: 0,
        })
        .collect();
    for (attack, mech, comp) in outcomes {
        let lane = attacks
            .iter_mut()
            .find(|l| l.attack == attack)
            .expect("every drawn attack is in the mix");
        lane.instances += 1;
        if mech {
            lane.mechanism_succeeded += 1;
        }
        if comp {
            lane.compromised += 1;
        }
    }

    TrafficRun {
        report: TrafficReport {
            platform: config.platform,
            root_seed: config.root_seed,
            instances: config.instances,
            benign_instances,
            attacker_instances: attackers.len(),
            profile: config.profile.clone(),
            fleet,
            attacks,
        },
        wall: TrafficWall {
            benign: benign_wall,
            attack_wall_seconds,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_are_deterministic_and_track_the_fraction() {
        let mut config = TrafficConfig::new(Platform::Minix, 400, 2);
        config.attacker_fraction = 0.25;
        let roles = assign_roles(&config);
        assert_eq!(roles, assign_roles(&config));
        let attackers = roles
            .iter()
            .filter(|r| matches!(r, Role::Attacker(_)))
            .count();
        assert!(
            (50..=150).contains(&attackers),
            "{attackers} attackers out of 400 at fraction 0.25"
        );
        // Every drawn attack must come from the mix.
        for r in &roles {
            if let Role::Attacker(a) = r {
                assert!(AttackId::TRAFFIC_MIX.iter().any(|&(m, _)| m == *a));
            }
        }
    }

    #[test]
    fn role_salt_decorrelates_roles_from_benign_seeds() {
        let mut config = TrafficConfig::new(Platform::Minix, 64, 1);
        config.attacker_fraction = 0.5;
        config.root_seed = 7;
        let a = assign_roles(&config);
        config.root_seed = 8;
        let b = assign_roles(&config);
        assert_ne!(a, b, "root seed must reshuffle the role split");
    }

    #[test]
    fn mix_sampler_covers_every_lane() {
        let mut rng = SimRng::seed_from(0xfeed);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..2000 {
            seen.insert(format!("{}", sample_mix(&mut rng)));
        }
        assert_eq!(seen.len(), AttackId::TRAFFIC_MIX.len());
    }
}
