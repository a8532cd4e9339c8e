//! Property-based tests for the physical model.

use bas_plant::safety::SafetyMonitor;
use bas_plant::thermal::{RoomThermalModel, Trajectory};
use bas_plant::units::MilliCelsius;
use bas_plant::world::{PlantConfig, PlantWorld};
use bas_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// One hour of the default room with the fan toggled at `toggles`
/// (milliseconds, any order), an optional heat-schedule step and an
/// optional alarm switched on for good.
fn drive(toggles: &[u64], heat: Option<(u64, f64)>, alarm_at: Option<u64>) -> PlantWorld {
    let config = PlantConfig {
        heat_schedule: heat
            .map(|(at, watts)| (SimDuration::from_millis(at), watts))
            .into_iter()
            .collect(),
        ..PlantConfig::default()
    };
    let mut world = PlantWorld::new(config, 1);
    let mut writes: Vec<(u64, bool)> = toggles.iter().map(|&t| (t, true)).collect();
    writes.extend(alarm_at.map(|t| (t, false)));
    writes.sort_unstable();
    for (t, is_fan) in writes {
        world.step_to(ms(t));
        if is_fan {
            let on = !world.fan().is_on();
            world.set_fan(on);
        } else {
            world.set_alarm(true);
        }
    }
    world.step_to(ms(3_600_000));
    world
}

/// The first nanosecond in `(lo, hi]` at which the monotone predicate
/// `p` holds, for `!p(lo)` and `p(hi)`.
fn bisect(p: impl Fn(SimTime) -> bool, mut lo: SimTime, mut hi: SimTime) -> SimTime {
    assert!(!p(lo) && p(hi), "no change in the bracket");
    while hi.as_nanos() - lo.as_nanos() > 1 {
        let mid = SimTime::from_nanos(lo.as_nanos() + (hi.as_nanos() - lo.as_nanos()) / 2);
        if p(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

fn toggles() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..3_600_000, 0..8)
}

proptest! {
    /// The room temperature always stays within the envelope spanned by
    /// its initial value and the active equilibrium (first-order system:
    /// no overshoot).
    #[test]
    fn thermal_model_never_overshoots(
        initial in 0.0f64..50.0,
        heat_w in 0.0f64..1_000.0,
        fan_on in any::<bool>(),
        steps in 1usize..200,
    ) {
        let room = RoomThermalModel { external_heat_w: heat_w, ..RoomThermalModel::default() };
        let path = room.trajectory(initial, fan_on);
        let eq = room.equilibrium_c(fan_on);
        let lo = initial.min(eq) - 1e-9;
        let hi = initial.max(eq) + 1e-9;
        for i in 0..steps {
            let t = path.at(10.0 * i as f64);
            prop_assert!(t >= lo && t <= hi, "temp {t} escaped [{lo}, {hi}]");
        }
    }

    /// Temperature moves monotonically toward the equilibrium.
    #[test]
    fn thermal_model_is_monotone_toward_equilibrium(
        initial in 0.0f64..50.0,
        fan_on in any::<bool>(),
    ) {
        let room = RoomThermalModel::default();
        let path = room.trajectory(initial, fan_on);
        let eq = room.equilibrium_c(fan_on);
        let mut prev_dist = (initial - eq).abs();
        for i in 1..100 {
            let dist = (path.at(5.0 * i as f64) - eq).abs();
            prop_assert!(dist <= prev_dist + 1e-12);
            prev_dist = dist;
        }
    }

    /// Restarting the closed form part-way reproduces the one-piece path:
    /// committing a segment without an input change moves nothing.
    #[test]
    fn closed_form_is_consistent_under_splitting(
        initial in 10.0f64..40.0,
        total_s in 1.0f64..3_600.0,
        pieces in 1usize..20,
    ) {
        let room = RoomThermalModel::default();
        let one = room.trajectory(initial, true).at(total_s);
        let piece = total_s / pieces as f64;
        let many = (0..pieces).fold(initial, |t, _| room.trajectory(t, true).at(piece));
        prop_assert!((one - many).abs() < 1e-9, "{one} vs {many}");
    }

    /// `time_to` inverts the closed form: a level strictly between the
    /// start and the equilibrium is reached at a finite time where the
    /// path reads that level; a level behind the start is reached at once
    /// and one at or beyond the equilibrium never.
    #[test]
    fn time_to_inverts_the_closed_form(
        start_c in 10.0f64..40.0,
        equilibrium_c in 10.0f64..40.0,
        rate_per_s in 0.001f64..0.05,
        fraction in 0.0f64..1.0,
    ) {
        let path = Trajectory { start_c, equilibrium_c, rate_per_s };
        let level = start_c + fraction * (equilibrium_c - start_c);
        let t = path.time_to(level);
        prop_assert!(t.is_finite() && (path.at(t) - level).abs() < 1e-9, "{t}");
        prop_assert_eq!(path.time_to(2.0 * start_c - level), 0.0);
        prop_assert_eq!(path.time_to(equilibrium_c), f64::INFINITY);
    }

    /// Following a path in many pieces reports exactly what one piece
    /// does: the crossings are solved from the path's own start, not from
    /// where a piece begins.
    #[test]
    fn the_monitor_is_split_invariant(
        start_c in 15.0f64..30.0,
        equilibrium_c in 15.0f64..30.0,
        alarm_at in 1u64..900_000,
        splits in prop::collection::vec(1u64..900_000, 0..12),
    ) {
        let path = Trajectory { start_c, equilibrium_c, rate_per_s: 0.01 };
        let follow = |points: &[u64]| {
            let mut m = SafetyMonitor::new(22.0, 1.0, SimDuration::from_secs(60));
            let mut points = points.to_vec();
            points.extend([alarm_at, 900_000]);
            points.sort_unstable();
            for t in points {
                m.follow(SimTime::ZERO, &path, t > alarm_at, ms(t));
            }
            m.report()
        };
        prop_assert_eq!(follow(&splits), follow(&[]));
    }

    /// MilliCelsius conversion round-trips within half a milli-degree.
    #[test]
    fn milli_celsius_roundtrip(c in -80.0f64..120.0) {
        let mc = MilliCelsius::from_celsius(c);
        prop_assert!((mc.as_celsius() - c).abs() <= 0.0005);
    }

    /// The exact plant agrees with a 1 ms explicit-Euler integration of the
    /// same ODE over one hour, through both fan states and a heat-schedule
    /// step. Euler's error on `y' = -r (y - eq)` after `n` steps of `h` is
    /// `|y0 - eq| e^(-rt) (1 - (1 - rh)^n e^(rt))`, at most
    /// `|y0 - eq| · r h / (2e)` per segment, and earlier segments' errors
    /// only decay: the bound is that sum over the committed segments
    /// (about 2e-4 °C for the default room), plus 1e-9 °C of rounding.
    #[test]
    fn closed_form_matches_fine_euler(
        toggles in toggles(),
        heat_at in 1u64..3_600_000,
        heat_w in 0.0f64..600.0,
    ) {
        let world = drive(&toggles, Some((heat_at, heat_w)), None);
        let room = RoomThermalModel::default();
        let bound = 1e-9 + world
            .segments()
            .iter()
            .map(|s| {
                let Trajectory { start_c, equilibrium_c, rate_per_s } = s.path;
                (start_c - equilibrium_c).abs() * rate_per_s * 1e-3 / (2.0 * std::f64::consts::E)
            })
            .sum::<f64>();
        let mut switches = toggles;
        switches.sort_unstable();
        let (mut temp, mut fan, mut heat) = (22.0, false, room.external_heat_w);
        let mut next = 0;
        let mut worst = 0.0f64;
        for (second, sample) in world.trace().iter().enumerate() {
            // `temp` is the Euler state at `second`; the exact plant's
            // sample is taken after the inputs committed at that instant.
            let now_ms = second as u64 * 1_000;
            worst = worst.max((sample.temp_c - temp).abs());
            for step in now_ms..now_ms + 1_000 {
                if step == heat_at {
                    heat = heat_w;
                }
                while switches.get(next) == Some(&step) {
                    fan = !fan;
                    next += 1;
                }
                let k = room.loss_coefficient(fan);
                temp += 1e-3 * (heat - k * (temp - room.ambient_c)) / room.thermal_mass_j_per_c;
            }
        }
        prop_assert!(worst <= bound, "Euler differs by {worst} °C, bound {bound}");
    }

    /// Every excursion start the safety oracle reports, directly in a
    /// violation or as alarm time minus latency, is the instant the
    /// temperature leaves the band, to within 1 µs of a bisection on the
    /// plant's own temperature.
    #[test]
    fn band_crossings_match_bisection(
        toggles in toggles(),
        alarm in any::<bool>(),
        alarm_ms in 1u64..3_600_000,
    ) {
        let alarm_at = alarm.then_some(alarm_ms);
        let world = drive(&toggles, None, alarm_at);
        let report = world.safety_report();
        let (setpoint, band) = (world.config().setpoint_c, world.config().band_c);
        let mut starts: Vec<SimTime> =
            report.violations.iter().map(|v| v.excursion_start).collect();
        let alarm = alarm_at.map(ms);
        starts.extend(report.alarm_latencies.iter().filter(|l| !l.is_zero()).map(|l| {
            SimTime::from_nanos(alarm.expect("an alarm fired").as_nanos() - l.as_nanos())
        }));
        let segments = world.segments();
        let temp_at = |t: SimTime| {
            let i = segments.partition_point(|s| s.start <= t);
            segments[i - 1].temp_at(t)
        };
        for start in starts {
            let outside = |t: SimTime| (temp_at(t) - setpoint).abs() - band;
            let window = SimDuration::from_millis(1);
            let lo = SimTime::from_nanos(start.as_nanos().saturating_sub(window.as_nanos()));
            let crossing = bisect(|t| outside(t) > 0.0, lo, start + window);
            let gap = crossing.as_nanos().abs_diff(start.as_nanos());
            prop_assert!(gap <= 1_000, "reported {start}, bisection {crossing}");
        }
    }

    /// The oracle's verdict agrees with an independent reference on random
    /// fan histories and alarm times. The reference finds where each
    /// committed segment crosses a band edge by bisection (a segment is
    /// monotone, so it crosses an edge only if its ends lie on either
    /// side), cuts the run into stretches in and out of band, and applies
    /// the property as stated: an excursion `[s, e)` with the alarm off
    /// until `a` is a violation, detected at `s + deadline`, iff
    /// `min(e, a) > s + deadline`. The violations, the alarm latencies and
    /// the end of the last excursion agree to within 1 µs, and the time in
    /// band to 1e-9 of the run.
    #[test]
    fn safety_monitor_matches_reference(
        toggles in prop::collection::vec(1u64..3_600_000, 0..40),
        alarm in any::<bool>(),
        alarm_ms in 1u64..1_800_000,
    ) {
        let alarm_at = alarm.then_some(alarm_ms).map(ms);
        let world = drive(&toggles, None, alarm.then_some(alarm_ms));
        let report = world.safety_report();
        let config = world.config();
        let (setpoint, band, deadline) = (config.setpoint_c, config.band_c, config.alarm_deadline);
        let (end, segments) = (world.now(), world.segments());
        let temp_at = |t: SimTime| {
            let i = segments.partition_point(|s| s.start <= t);
            segments[i - 1].temp_at(t)
        };
        let ends = segments.iter().skip(1).map(|s| s.start).chain([end]);
        let mut cuts = vec![SimTime::ZERO, end];
        for (s, until) in segments.iter().zip(ends) {
            for edge in [setpoint - band, setpoint + band] {
                let above = |t: SimTime| s.temp_at(t) > edge;
                let rising = !above(s.start);
                if above(until) == rising {
                    cuts.push(bisect(|t| above(t) == rising, s.start, until));
                }
            }
        }
        cuts.sort_unstable();
        let mut excursions: Vec<(SimTime, SimTime)> = Vec::new();
        for w in cuts.windows(2).filter(|w| w[0] < w[1]) {
            let mid = SimTime::from_nanos(w[0].as_nanos() + (w[1].as_nanos() - w[0].as_nanos()) / 2);
            if (temp_at(mid) - setpoint).abs() > band {
                match excursions.last_mut() {
                    Some(last) if last.1 == w[0] => last.1 = w[1],
                    _ => excursions.push((w[0], w[1])),
                }
            }
        }
        let violations: Vec<(SimTime, SimTime)> = excursions
            .iter()
            .filter(|&&(s, e)| alarm_at.map_or(e, |a| e.min(a)) > s + deadline)
            .map(|&(s, _)| (s, s + deadline))
            .collect();
        let latencies: Vec<SimDuration> = excursions
            .iter()
            .filter_map(|&(s, e)| alarm_at.filter(|&a| a < e).map(|a| a.max(s) - s))
            .collect();
        let out: u64 = excursions.iter().map(|&(s, e)| (e - s).as_nanos()).sum();

        let close = |a: u64, b: u64| a.abs_diff(b) <= 1_000;
        prop_assert_eq!(report.is_safe(), violations.is_empty());
        prop_assert_eq!(report.violations.len(), violations.len());
        for (v, &(start, time)) in report.violations.iter().zip(&violations) {
            prop_assert!(
                close(v.excursion_start.as_nanos(), start.as_nanos())
                    && close(v.time.as_nanos(), time.as_nanos()),
                "reported {:?}, reference {start} .. {time}", v
            );
        }
        prop_assert_eq!(report.alarm_latencies.len(), latencies.len());
        for (l, r) in report.alarm_latencies.iter().zip(&latencies) {
            prop_assert!(close(l.as_nanos(), r.as_nanos()), "latency {l:?}, reference {r:?}");
        }
        let last = excursions.last().map(|&(_, e)| e.as_nanos());
        prop_assert_eq!(report.last_out_of_band.is_some(), last.is_some());
        prop_assert!(
            close(report.last_out_of_band.map_or(0, |t| t.as_nanos()), last.unwrap_or(0)),
            "last out of band {:?}, reference {last:?}", report.last_out_of_band
        );
        let in_band = 1.0 - out as f64 / end.as_nanos() as f64;
        prop_assert!(
            (report.in_band_fraction - in_band).abs() < 1e-9,
            "in band {}, reference {in_band}", report.in_band_fraction
        );
    }

    /// The largest deviation reported is the largest over the committed
    /// segments' endpoints: each segment is monotone, so nothing between
    /// its ends goes further.
    #[test]
    fn max_deviation_is_the_segment_endpoint_maximum(
        toggles in toggles(),
        heat_at in 1u64..3_600_000,
        heat_w in 0.0f64..600.0,
    ) {
        let world = drive(&toggles, Some((heat_at, heat_w)), None);
        let segments = world.segments();
        let ends = segments.iter().skip(1).map(|s| s.start).chain([world.now()]);
        let endpoints = segments.iter().zip(ends).flat_map(|(s, end)| {
            [s.start, end].map(|t| (s.temp_at(t) - s.setpoint_c).abs())
        });
        let max = endpoints.fold(0.0, f64::max);
        prop_assert_eq!(world.safety_report().max_deviation_c, max);
    }
}
