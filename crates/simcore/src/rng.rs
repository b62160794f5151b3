//! Deterministic random number generation.
//!
//! Experiments must be bit-for-bit reproducible across machines and runs, so
//! the kernel ships its own small xoshiro256++ generator seeded explicitly
//! (never from the OS). Distribution helpers cover exactly what the workload
//! models need: uniform ranges, exponential think times, and bounded floats.

/// A seedable xoshiro256++ pseudo-random number generator.
///
/// ```
/// use asyncinv_simcore::SimRng;
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed via splitmix64 expansion.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut s = [next(), next(), next(), next()];
        if s == [0, 0, 0, 0] {
            s = [1, 2, 3, 4]; // the all-zero state is a fixed point
        }
        SimRng { s }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A float uniformly distributed in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A value uniformly distributed in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased results.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// An exponentially distributed value with the given mean.
    ///
    /// Used for think times and service-time jitter.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is negative or not finite.
    pub fn exp_f64(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean >= 0.0, "invalid mean: {mean}");
        if mean == 0.0 {
            return 0.0;
        }
        let u = 1.0 - self.next_f64(); // (0, 1]
        -mean * u.ln()
    }

    /// A bounded-Pareto sample in `[lo, hi]` with tail exponent `alpha`.
    ///
    /// Heavy-tailed size distributions are the textbook model for web
    /// object sizes; the workload crate uses this to build realistic
    /// response-size mixes.
    ///
    /// # Panics
    ///
    /// Panics if `lo`/`hi` are not positive and ordered or `alpha` is not
    /// positive and finite.
    pub fn bounded_pareto_f64(&mut self, lo: f64, hi: f64, alpha: f64) -> f64 {
        assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi, got {lo}..{hi}");
        assert!(alpha.is_finite() && alpha > 0.0, "invalid alpha: {alpha}");
        // Inverse-CDF sampling of the bounded Pareto distribution.
        let u = self.next_f64();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        let x = (-(u * (1.0 - la / ha) - 1.0) / la).powf(-1.0 / alpha);
        x.clamp(lo, hi)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.next_f64() < p
    }

    /// Samples an index from a discrete distribution given by `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            !weights.is_empty() && total > 0.0,
            "weights must be non-empty with positive sum"
        );
        let mut x = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut r = SimRng::new(11);
        for _ in 0..10_000 {
            assert!(r.gen_range(7) < 7);
        }
    }

    #[test]
    fn gen_range_roughly_uniform() {
        let mut r = SimRng::new(5);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.gen_range(8) as usize] += 1;
        }
        for c in counts {
            // expect ~10000 each; allow generous tolerance
            assert!((9000..11000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = SimRng::new(17);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.exp_f64(3.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "measured mean {mean}");
    }

    #[test]
    fn exp_zero_mean_is_zero() {
        let mut r = SimRng::new(17);
        assert_eq!(r.exp_f64(0.0), 0.0);
    }

    #[test]
    fn bounded_pareto_in_range_and_skewed() {
        let mut r = SimRng::new(41);
        let n = 50_000;
        let mut small = 0u32;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.bounded_pareto_f64(1.0, 1000.0, 1.2);
            assert!((1.0..=1000.0).contains(&x));
            if x < 10.0 {
                small += 1;
            }
            sum += x;
        }
        // Heavy tail: most mass near the floor, mean well above median.
        assert!(small as f64 / n as f64 > 0.7, "small fraction {small}");
        assert!(sum / n as f64 > 3.0);
    }

    #[test]
    #[should_panic]
    fn bounded_pareto_rejects_bad_range() {
        SimRng::new(1).bounded_pareto_f64(5.0, 1.0, 1.0);
    }

    #[test]
    fn gen_bool_frequency() {
        let mut r = SimRng::new(23);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn weighted_index_matches_weights() {
        let mut r = SimRng::new(29);
        let weights = [1.0, 3.0];
        let ones = (0..40_000)
            .filter(|_| r.weighted_index(&weights) == 1)
            .count();
        // expect 75%
        assert!((28_000..32_000).contains(&ones), "ones {ones}");
    }

    #[test]
    #[should_panic]
    fn gen_range_zero_panics() {
        SimRng::new(1).gen_range(0);
    }

    #[test]
    #[should_panic]
    fn gen_bool_out_of_range_panics() {
        SimRng::new(1).gen_bool(1.5);
    }
}
