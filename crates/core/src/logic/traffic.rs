//! Deterministic open-loop traffic generation for the web interface.
//!
//! E18 replays heavy multi-tenant load against the paper's one exposed
//! attack surface — the untrusted web process. A [`TrafficProfile`]
//! describes the *population* (tenant count, arrival process, read/write
//! mix); [`TrafficProfile::generate`] expands it into a concrete
//! per-instance action schedule from the instance's own seed, so two
//! fleet instances carry different traffic while the whole fleet stays a
//! pure function of `(template, root_seed)`.
//!
//! Generation is open-loop (arrival times never depend on completions),
//! which keeps the schedule computable up front and the run byte-
//! identical at any worker count: the load offered to a slow platform is
//! exactly the load offered to a fast one, and queueing delay shows up
//! in the measured latency instead of silently thinning the arrivals.

use bas_sim::rng::SimRng;
use bas_sim::time::{SimDuration, SimTime};

use crate::logic::web::WebAction;

/// Inter-arrival process of one tenant's requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Exponential gaps (Poisson arrivals) — the classic open-system
    /// model of independent human tenants.
    Poisson,
    /// Gaps uniform in `[0.5·mean, 1.5·mean)` — a bounded-jitter
    /// periodic poller (dashboard auto-refresh).
    Uniform,
}

/// A multi-tenant load description, expanded per instance by
/// [`TrafficProfile::generate`].
///
/// Lives in the scenario *template* (identical across a fleet); only the
/// instance seed differentiates the concrete schedules, which is what
/// lets snapshot/fork boot share one warm template under traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficProfile {
    /// When the tenant sessions open.
    pub start: SimTime,
    /// How long the sessions last; no arrivals at or past
    /// `start + duration`.
    pub duration: SimDuration,
    /// Concurrent tenant sessions per instance.
    pub tenants: usize,
    /// Mean gap between one tenant's requests, seconds.
    pub mean_interarrival_s: f64,
    /// Arrival process shared by every tenant.
    pub arrival: ArrivalProcess,
    /// Fraction of requests that are setpoint writes (the rest are
    /// status reads).
    pub write_fraction: f64,
    /// Smallest setpoint a tenant writes, milli-°C.
    pub setpoint_min_milli_c: i32,
    /// Largest setpoint a tenant writes (inclusive), milli-°C.
    pub setpoint_max_milli_c: i32,
    /// Mixed into the seed so the traffic stream is decorrelated from
    /// the sensor-noise stream that shares the instance seed.
    pub stream_salt: u64,
}

impl Default for TrafficProfile {
    /// Four tenants polling/adjusting around the controller default
    /// (22 °C ± 0.5 °C, inside the 1 °C band, so legitimate traffic
    /// never trips the safety oracle), Poisson arrivals with an 8 s
    /// mean gap, 30% writes.
    fn default() -> Self {
        TrafficProfile {
            start: SimTime::ZERO + SimDuration::from_secs(10),
            duration: SimDuration::from_mins(10),
            tenants: 4,
            mean_interarrival_s: 8.0,
            arrival: ArrivalProcess::Poisson,
            write_fraction: 0.3,
            setpoint_min_milli_c: 21_500,
            setpoint_max_milli_c: 22_500,
            stream_salt: 0x7e18_7e18_7e18_7e18,
        }
    }
}

impl TrafficProfile {
    /// Expands the profile into a time-sorted action schedule for the
    /// instance seeded with `seed`.
    ///
    /// Each tenant draws from its own forked SplitMix64 stream (forked
    /// in tenant order from `seed ^ stream_salt`), so the schedule is a
    /// pure function of `(profile, seed)` — independent of workers,
    /// platform, or anything observed during the run.
    pub fn generate(&self, seed: u64) -> Vec<(SimTime, WebAction)> {
        let mut root = SimRng::seed_from(seed ^ self.stream_salt);
        let horizon = self.start + self.duration;
        let mut schedule = Vec::new();
        for _ in 0..self.tenants {
            let mut rng = root.fork();
            let mut t = self.start;
            loop {
                let gap_s = match self.arrival {
                    // Inverse-CDF exponential; 1-u keeps ln() finite.
                    ArrivalProcess::Poisson => {
                        -(1.0 - rng.uniform()).ln() * self.mean_interarrival_s
                    }
                    ArrivalProcess::Uniform => (0.5 + rng.uniform()) * self.mean_interarrival_s,
                };
                let gap_ns = ((gap_s * 1e9).round() as u64).max(1);
                t += SimDuration::from_nanos(gap_ns);
                if t >= horizon {
                    break;
                }
                let action = if rng.chance(self.write_fraction) {
                    let lo = self.setpoint_min_milli_c.min(self.setpoint_max_milli_c);
                    let hi = self.setpoint_min_milli_c.max(self.setpoint_max_milli_c);
                    let span = (hi - lo) as u64 + 1;
                    let mc = lo + rng.uniform_range(0, span) as i32;
                    WebAction::SetSetpoint(mc)
                } else {
                    WebAction::QueryStatus
                };
                schedule.push((t, action));
            }
        }
        // Stable sort: same-tick actions keep tenant order, so the
        // merged stream is still deterministic.
        schedule.sort_by_key(|(t, _)| *t);
        schedule
    }

    /// Expected request count across all tenants (for sizing reports).
    pub fn expected_requests(&self) -> f64 {
        if self.mean_interarrival_s <= 0.0 {
            return 0.0;
        }
        self.tenants as f64 * self.duration.as_secs_f64() / self.mean_interarrival_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> TrafficProfile {
        TrafficProfile::default()
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let p = profile();
        assert_eq!(p.generate(7), p.generate(7));
        assert_ne!(p.generate(7), p.generate(8), "seeds must differentiate");
    }

    #[test]
    fn schedule_is_sorted_and_bounded() {
        let p = profile();
        let s = p.generate(1234);
        assert!(!s.is_empty());
        let horizon = p.start + p.duration;
        for w in s.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        for (t, _) in &s {
            assert!(*t > p.start && *t < horizon);
        }
    }

    #[test]
    fn writes_stay_inside_the_configured_band() {
        let p = profile();
        let mut writes = 0usize;
        for (_, a) in p.generate(99) {
            if let WebAction::SetSetpoint(mc) = a {
                assert!((p.setpoint_min_milli_c..=p.setpoint_max_milli_c).contains(&mc));
                writes += 1;
            }
        }
        assert!(writes > 0, "default profile must produce some writes");
    }

    #[test]
    fn request_volume_tracks_the_mean_rate() {
        let p = profile();
        let n = p.generate(5).len() as f64;
        let expected = p.expected_requests();
        assert!(
            n > expected * 0.5 && n < expected * 1.5,
            "{n} requests vs {expected} expected"
        );
    }

    #[test]
    fn uniform_arrivals_respect_the_jitter_window() {
        let p = TrafficProfile {
            arrival: ArrivalProcess::Uniform,
            tenants: 1,
            ..profile()
        };
        let s = p.generate(42);
        let min_gap = SimDuration::from_nanos((0.5 * p.mean_interarrival_s * 1e9) as u64);
        let mut prev = p.start;
        for (t, _) in s {
            assert!(t - prev >= min_gap, "gap below the jitter floor");
            prev = t;
        }
    }
}
