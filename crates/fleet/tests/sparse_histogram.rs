//! The sparse `LatencyHistogram` against a dense reference.
//!
//! `LatencyHistogram` stores counts only up to its highest occupied bin.
//! `Dense` below keeps one count per bin of the geometry, as the
//! histogram once did, and the properties check that recording and
//! merging in either order give the same JSON bytes, percentiles, mean
//! and bins — over random geometries (zero and negative widths, zero
//! bins) and samples that are NaN, infinite, negative, exactly on a bin
//! edge, exactly on the last edge, or beyond it.

use bas_fleet::{Json, LatencyHistogram};
use proptest::prelude::*;

/// The dense reference: every bin of the geometry stored.
#[derive(Clone)]
struct Dense {
    bin_width_s: f64,
    counts: Vec<u64>,
    overflow: u64,
    invalid: u64,
    samples: u64,
    sum_s: f64,
    max_s: f64,
}

impl Dense {
    fn new(bin_width_s: f64, bins: usize) -> Dense {
        Dense {
            bin_width_s,
            counts: vec![0; bins],
            overflow: 0,
            invalid: 0,
            samples: 0,
            sum_s: 0.0,
            max_s: 0.0,
        }
    }

    fn record(&mut self, latency_s: f64) {
        if !latency_s.is_finite() {
            self.invalid += 1;
            return;
        }
        let v = latency_s.max(0.0);
        let bin = v / self.bin_width_s;
        if bin.is_finite() && (bin.floor() as usize) < self.counts.len() {
            self.counts[bin.floor() as usize] += 1;
        } else {
            self.overflow += 1;
        }
        self.samples += 1;
        self.sum_s += v;
        if v > self.max_s {
            self.max_s = v;
        }
    }

    fn mean_s(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_s / self.samples as f64
        }
    }

    fn merge(&mut self, other: &Dense) {
        assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.invalid += other.invalid;
        self.samples += other.samples;
        self.sum_s += other.sum_s;
        if other.max_s > self.max_s {
            self.max_s = other.max_s;
        }
    }

    fn percentile(&self, p: f64) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let rank = ((p * self.samples as f64).ceil() as u64).clamp(1, self.samples);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return ((i + 1) as f64 * self.bin_width_s).min(self.max_s);
            }
        }
        self.max_s
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("bin_width_s", Json::Num(self.bin_width_s)),
            (
                "counts",
                Json::Arr(self.counts.iter().map(|&c| Json::UInt(c)).collect()),
            ),
            ("overflow", Json::UInt(self.overflow)),
            ("invalid", Json::UInt(self.invalid)),
            ("samples", Json::UInt(self.samples)),
            ("mean_s", Json::Num(self.mean_s())),
            ("max_s", Json::Num(self.max_s)),
        ])
    }
}

/// Turns a generated `(kind, fraction)` pair into a sample for a
/// geometry of `bins` bins of width `w`, so that edge cases of every
/// geometry come up often.
fn sample(kind: u8, frac: f64, w: f64, bins: usize) -> f64 {
    let span = bins as f64 * w;
    match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -1.0 - frac * 100.0,
        // Exactly on the last edge: overflow, not the last bin.
        4 => span,
        // Exactly on an interior bin edge.
        5 => (frac * bins as f64).floor() * w,
        // Beyond the last edge.
        6 => span + w.abs() + frac * 1e3,
        _ => frac * span,
    }
}

fn samples() -> impl Strategy<Value = Vec<(u8, f64)>> {
    prop::collection::vec((0u8..10, 0.0f64..1.0), 0..60)
}

fn geometry() -> impl Strategy<Value = (f64, usize)> {
    (
        prop_oneof![Just(0.0), Just(-1.0), Just(1e-3), 1e-4f64..50.0],
        prop_oneof![Just(0usize), 1usize..24, Just(200usize)],
    )
}

/// Both histograms fed the same samples.
fn build(w: f64, bins: usize, draws: &[(u8, f64)]) -> (LatencyHistogram, Dense) {
    let mut sparse = LatencyHistogram::new(w, bins);
    let mut dense = Dense::new(w, bins);
    for &(kind, frac) in draws {
        let v = sample(kind, frac, w, bins);
        sparse.record(v);
        dense.record(v);
    }
    (sparse, dense)
}

/// Everything a reader of either histogram can observe, compared.
fn agree(sparse: &LatencyHistogram, dense: &Dense) -> Result<(), TestCaseError> {
    prop_assert_eq!(sparse.to_json().render(), dense.to_json().render());
    prop_assert_eq!(sparse.counts().collect::<Vec<_>>(), dense.counts.clone());
    prop_assert_eq!(sparse.mean_s().to_bits(), dense.mean_s().to_bits());
    for p in [0.0, 0.01, 0.5, 0.9, 0.95, 0.99, 0.9999, 1.0] {
        prop_assert_eq!(
            sparse.percentile(p).to_bits(),
            dense.percentile(p).to_bits(),
            "p{}",
            p
        );
    }
    prop_assert_eq!(
        (sparse.overflow, sparse.invalid, sparse.samples),
        (dense.overflow, dense.invalid, dense.samples)
    );
    prop_assert_eq!(sparse.sum_s.to_bits(), dense.sum_s.to_bits());
    prop_assert_eq!(sparse.max_s.to_bits(), dense.max_s.to_bits());
    Ok(())
}

proptest! {
    #[test]
    fn recording_matches_the_dense_reference(
        (w, bins) in geometry(),
        draws in samples(),
    ) {
        let (sparse, dense) = build(w, bins, &draws);
        agree(&sparse, &dense)?;
    }

    #[test]
    fn merging_in_either_order_matches_the_dense_reference(
        (w, bins) in geometry(),
        a in samples(),
        b in samples(),
    ) {
        let (sa, da) = build(w, bins, &a);
        let (sb, db) = build(w, bins, &b);

        let (mut sparse_ab, mut dense_ab) = (sa.clone(), da.clone());
        sparse_ab.merge(&sb);
        dense_ab.merge(&db);
        agree(&sparse_ab, &dense_ab)?;

        let (mut sparse_ba, mut dense_ba) = (sb, db);
        sparse_ba.merge(&sa);
        dense_ba.merge(&da);
        agree(&sparse_ba, &dense_ba)?;

        // Equal contents compare equal however they were stored.
        prop_assert_eq!(sparse_ab.to_json().render(), sparse_ba.to_json().render());
        prop_assert_eq!(&sparse_ab, &sparse_ba);
    }
}
