//! Property tests of the measurement utilities.

use asyncinv_lab::metrics::{Histogram, LogHistogram, RunningQuantile, ThroughputWindow};
use asyncinv_lab::simcore::{SimDuration, SimTime};
use proptest::prelude::*;
use proptest::TestRng;

/// Three phases of `n` samples over two modes two decades apart, `lo`
/// and `100·lo`: mostly low, then mostly high, then mostly low again
/// (`minority` in ten from the other mode), so a quantile between the
/// modes crosses the empty buckets between them up and then down.
fn two_modes(lo: u64, n: usize, minority: usize) -> Vec<u64> {
    (0..3 * n)
        .map(|i| {
            let high_phase = i / n == 1;
            let other_mode = i % 10 < minority;
            if high_phase != other_mode {
                100 * lo + (i % 97) as u64
            } else {
                lo + (i % 7) as u64
            }
        })
        .collect()
}

/// Uniform in `[lo, hi)`.
fn draw(rng: &mut TestRng, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

/// One stretch of a sample stream: the exact buckets below 32 (with 0),
/// the top of the range the buckets cover, a long run of one value, a
/// two-mode mix whose weights flip, or a wide spread.
#[derive(Debug, Clone, Copy)]
struct StreamSegment;

impl Strategy for StreamSegment {
    type Value = Vec<u64>;
    fn generate(&self, rng: &mut TestRng) -> Vec<u64> {
        let top = u64::MAX >> 1;
        match rng.below(5) {
            0 => {
                let n = draw(rng, 1, 48);
                let mut v: Vec<u64> = (0..n).map(|_| rng.below(32)).collect();
                v.push(0);
                v
            }
            1 => {
                let n = draw(rng, 1, 16);
                (0..n).map(|_| top - rng.below(1_000_000)).collect()
            }
            2 => {
                let v = rng.below(top + 1);
                vec![v; draw(rng, 50, 300) as usize]
            }
            3 => {
                let lo = draw(rng, 1_000, 10_000_000);
                let n = draw(rng, 20, 100) as usize;
                two_modes(lo, n, draw(rng, 1, 5) as usize)
            }
            _ => {
                let n = draw(rng, 1, 48);
                (0..n).map(|_| rng.below(top + 1)).collect()
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bucketed quantiles stay within the histogram's precision bound of
    /// the exact order statistics.
    #[test]
    fn quantiles_track_exact(mut samples in prop::collection::vec(1u64..10_000_000, 1..500)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(SimDuration::from_nanos(s));
        }
        samples.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize)
                .clamp(1, samples.len());
            let exact = samples[rank - 1];
            let approx = h.quantile(q).as_nanos();
            // Log-linear buckets: <= ~4% relative error, upward-biased.
            prop_assert!(approx >= exact, "q{q}: approx {approx} < exact {exact}");
            prop_assert!(
                approx as f64 <= exact as f64 * 1.05 + 1.0,
                "q{q}: approx {approx} too far above exact {exact}"
            );
        }
    }

    /// A running quantile reads what a full scan of the same samples reads,
    /// after every sample: for the usual percentiles and for drawn ones,
    /// across empty buckets in both directions.
    #[test]
    fn running_quantile_equals_the_scan(
        segments in prop::collection::vec(StreamSegment, 1..6),
        drawn in prop::collection::vec(1e-6f64..1.0, 1..3),
    ) {
        let qs: Vec<f64> = [0.5, 0.9, 0.95, 0.99, 0.999].into_iter().chain(drawn).collect();
        let mut running: Vec<RunningQuantile> = qs.iter().map(|&q| RunningQuantile::new(q)).collect();
        let mut h = LogHistogram::new();
        for v in segments.into_iter().flatten() {
            h.record(v);
            for (r, &q) in running.iter_mut().zip(&qs) {
                r.record(v);
                prop_assert_eq!(r.value(), h.quantile(q), "q={} after {} samples", q, h.count());
            }
        }
    }

    /// Mean is exact and min/max bracket every quantile.
    #[test]
    fn mean_and_bounds(samples in prop::collection::vec(0u64..1_000_000, 1..300)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(SimDuration::from_nanos(s));
        }
        let exact_mean = samples.iter().sum::<u64>() / samples.len() as u64;
        prop_assert_eq!(h.mean().as_nanos(), exact_mean);
        prop_assert_eq!(h.min().as_nanos(), *samples.iter().min().unwrap());
        prop_assert_eq!(h.max().as_nanos(), *samples.iter().max().unwrap());
        prop_assert!(h.quantile(0.5) >= h.min());
        prop_assert!(h.quantile(0.5) <= h.max());
    }

    /// Merging histograms equals recording the concatenation.
    #[test]
    fn merge_equivalence(a in prop::collection::vec(1u64..100_000, 1..100),
                         b in prop::collection::vec(1u64..100_000, 1..100)) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hall = Histogram::new();
        for &s in &a { ha.record(SimDuration::from_nanos(s)); hall.record(SimDuration::from_nanos(s)); }
        for &s in &b { hb.record(SimDuration::from_nanos(s)); hall.record(SimDuration::from_nanos(s)); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hall.count());
        prop_assert_eq!(ha.mean(), hall.mean());
        for q in [0.1, 0.5, 0.9] {
            prop_assert_eq!(ha.quantile(q), hall.quantile(q));
        }
    }

    /// The throughput window counts exactly the in-window completions and
    /// its per-second buckets sum to the total.
    #[test]
    fn window_counts(times in prop::collection::vec(0u64..20_000, 0..300),
                     start_ms in 0u64..5_000, len_ms in 1u64..10_000) {
        let start = SimTime::from_millis(start_ms);
        let end = SimTime::from_millis(start_ms + len_ms);
        let mut w = ThroughputWindow::new(start, end);
        for &t in &times {
            w.record(SimTime::from_millis(t));
        }
        let expected = times
            .iter()
            .filter(|&&t| t >= start_ms && t < start_ms + len_ms)
            .count() as u64;
        prop_assert_eq!(w.completions(), expected);
        prop_assert_eq!(w.per_second().iter().sum::<u64>(), expected);
        prop_assert_eq!(w.ignored() + w.completions(), times.len() as u64);
        let rate = w.rate_per_sec();
        prop_assert!((rate - expected as f64 / (len_ms as f64 / 1000.0)).abs() < 1e-6);
    }
}
