//! Log-linear histograms: one bucketing core over raw `u64` values
//! ([`LogHistogram`], which the metrics registry uses for queue depths and
//! byte counts as well as latencies) and a duration-typed view over it
//! ([`Histogram`], which run summaries record response times into).

use asyncinv_simcore::SimDuration;

/// Number of linear sub-buckets per power-of-two bucket. 32 gives about
/// 1/32 ≈ 3% worst-case relative error, plenty for reproducing shapes.
const SUBBUCKETS: u64 = 32;

/// A log-linear histogram of `u64` samples with constant memory.
///
/// Values are bucketed into powers of two split into 32 linear
/// sub-buckets, HdrHistogram-style, so memory stays constant regardless of
/// sample count while percentiles remain accurate to a few percent (exact
/// below 32). Count, sum, min and max are kept exactly.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_at(v);
    }

    /// Records one sample and returns the index of its bucket.
    fn record_at(&mut self, v: u64) -> usize {
        let idx = Self::index_of(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        idx
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` (bucket upper bound, ≤3% relative error;
    /// never above the largest sample).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0;
        }
        let rank = self.rank(q);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.value_at(i);
            }
        }
        self.max
    }

    /// The 1-based rank of quantile `q` among the `count > 0` samples.
    fn rank(&self, q: f64) -> u64 {
        ((q * self.count as f64).ceil() as u64).clamp(1, self.count)
    }

    /// What a quantile that falls in bucket `i` reports.
    fn value_at(&self, i: usize) -> u64 {
        Self::upper_bound(i).min(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Clears all samples.
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    fn index_of(v: u64) -> usize {
        if v < SUBBUCKETS {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros() as u64; // v >= 32 so msb >= 5
        let shift = msb - SUBBUCKETS.trailing_zeros() as u64; // msb - 5
        let sub = (v >> shift) - SUBBUCKETS; // 0..SUBBUCKETS
        (shift * SUBBUCKETS + SUBBUCKETS + sub) as usize
    }

    /// Inclusive upper bound of bucket `i` (the largest value mapping there).
    fn upper_bound(i: usize) -> u64 {
        let i = i as u64;
        if i < SUBBUCKETS {
            return i;
        }
        let shift = (i - SUBBUCKETS) / SUBBUCKETS;
        let sub = (i - SUBBUCKETS) % SUBBUCKETS;
        ((SUBBUCKETS + sub + 1) << shift) - 1
    }
}

/// One fixed quantile of a [`LogHistogram`], kept current as samples
/// arrive.
///
/// [`LogHistogram::quantile`] scans from the first bucket on every call,
/// so its cost grows with the bucket index of the answer: hundreds of
/// buckets for millisecond values recorded in nanoseconds. This type keeps
/// a cursor on the bucket that holds the quantile's rank and the count of
/// samples below that bucket. Each [`record`](Self::record) moves the
/// cursor only as far as the rank moved, and [`value`](Self::value) is
/// O(1). Both use the histogram's own rank and bucket bound, so `value()`
/// equals `quantile(q)` over the same samples after every sample.
///
/// ```
/// use asyncinv_metrics::{LogHistogram, RunningQuantile};
///
/// let mut p90 = RunningQuantile::new(0.9);
/// let mut h = LogHistogram::new();
/// for v in [5, 70_000, 300, 1_000_000, 42] {
///     p90.record(v);
///     h.record(v);
///     assert_eq!(p90.value(), h.quantile(0.9));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RunningQuantile {
    hist: LogHistogram,
    q: f64,
    /// The bucket that holds the sample of rank `hist.rank(q)`; once a
    /// sample exists, `below < rank <= below + buckets[cursor]`.
    cursor: usize,
    /// Samples in the buckets below `cursor`.
    below: u64,
}

impl RunningQuantile {
    /// An empty running quantile `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn new(q: f64) -> Self {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        RunningQuantile {
            hist: LogHistogram::new(),
            q,
            cursor: 0,
            below: 0,
        }
    }

    /// Records one sample and moves the cursor to the bucket of the new
    /// rank, across empty buckets in either direction.
    pub fn record(&mut self, v: u64) {
        if self.hist.record_at(v) < self.cursor {
            self.below += 1;
        }
        let rank = self.hist.rank(self.q);
        let buckets = &self.hist.buckets;
        while self.below >= rank {
            self.cursor -= 1;
            self.below -= buckets[self.cursor];
        }
        while self.below + buckets[self.cursor] < rank {
            self.below += buckets[self.cursor];
            self.cursor += 1;
        }
    }

    /// The value at the quantile: what [`LogHistogram::quantile`] reports
    /// for the recorded samples (0 when empty).
    pub fn value(&self) -> u64 {
        if self.hist.count == 0 {
            0
        } else {
            self.hist.value_at(self.cursor)
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.hist.count
    }
}

/// A log-linear histogram of durations: a [`LogHistogram`] over
/// nanoseconds, with the same error bounds.
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    nanos: LogHistogram,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        self.nanos.record(d.as_nanos());
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.nanos.count()
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nanos.is_empty()
    }

    /// Arithmetic mean of the samples (exact to the nanosecond, rounded
    /// down; not bucketed).
    pub fn mean(&self) -> SimDuration {
        if self.nanos.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.nanos.sum / self.nanos.count as u128) as u64)
    }

    /// Smallest recorded sample (exact).
    pub fn min(&self) -> SimDuration {
        SimDuration::from_nanos(self.nanos.min())
    }

    /// Largest recorded sample (exact).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.nanos.max())
    }

    /// The value at quantile `q` (bucket upper bound, ≤3% relative error).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimDuration {
        SimDuration::from_nanos(self.nanos.quantile(q))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.nanos.merge(&other.nanos);
    }

    /// Clears all samples.
    pub fn clear(&mut self) {
        self.nanos.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> SimDuration {
        SimDuration::from_nanos(v)
    }

    #[test]
    fn exact_below_subbucket_count() {
        let mut h = Histogram::new();
        for v in 0..32 {
            h.record(ns(v));
        }
        assert_eq!(h.min().as_nanos(), 0);
        assert_eq!(h.max().as_nanos(), 31);
        assert_eq!(h.count(), 32);
    }

    #[test]
    fn index_and_bound_are_consistent() {
        // Every value must land in a bucket whose upper bound is >= value
        // and within ~3.2% of it.
        for v in [
            1u64,
            31,
            32,
            33,
            63,
            64,
            100,
            1_000,
            65_536,
            1_000_000,
            123_456_789,
        ] {
            let idx = LogHistogram::index_of(v);
            let ub = LogHistogram::upper_bound(idx);
            assert!(ub >= v, "v={v} idx={idx} ub={ub}");
            assert!(
                (ub - v) as f64 <= 0.04 * v as f64 + 1.0,
                "v={v} ub={ub} too coarse"
            );
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(ns(100));
        h.record(ns(300));
        assert_eq!(h.mean().as_nanos(), 200);
    }

    #[test]
    fn quantiles_on_uniform_data() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_micros(i));
        }
        let p50 = h.quantile(0.5).as_micros();
        let p99 = h.quantile(0.99).as_micros();
        assert!((480..=530).contains(&p50), "p50={p50}");
        assert!((960..=1020).contains(&p99), "p99={p99}");
        assert_eq!(h.quantile(1.0).as_micros(), 1000);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.quantile(0.99), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(ns(10));
        b.record(ns(1_000_000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min().as_nanos(), 10);
        assert_eq!(a.max().as_nanos(), 1_000_000);
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new();
        h.record(ns(5));
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic]
    fn quantile_out_of_range_panics() {
        Histogram::new().quantile(1.5);
    }

    #[test]
    fn max_never_below_reported_quantile() {
        let mut h = Histogram::new();
        for i in 0..100u64 {
            h.record(ns(i * 7 + 3));
        }
        assert!(h.quantile(0.999) <= h.max());
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..32 {
            h.record(v);
        }
        for q in [0.25f64, 0.5, 0.75, 1.0] {
            let want = ((q * 32.0).ceil() as u64).clamp(1, 32) - 1;
            assert_eq!(h.quantile(q), want, "q={q}");
        }
    }

    #[test]
    fn percentiles_within_relative_error_bound() {
        let mut h = LogHistogram::new();
        for i in 1..=10_000u64 {
            h.record(i);
        }
        for (q, exact) in [(0.5, 5_000u64), (0.9, 9_000), (0.99, 9_900), (0.999, 9_990)] {
            let got = h.quantile(q);
            assert!(got >= exact, "q={q}: got {got} < exact {exact}");
            let err = (got - exact) as f64 / exact as f64;
            assert!(err <= 0.04, "q={q}: got {got}, error {err:.3}");
        }
    }

    #[test]
    fn quantile_never_exceeds_max() {
        let mut h = LogHistogram::new();
        for v in [3, 100, 1_000_000, 123_456_789_000] {
            h.record(v);
        }
        assert_eq!(h.quantile(1.0), 123_456_789_000);
        assert!(h.quantile(0.5) <= h.max());
        assert_eq!(h.min(), 3);
    }

    #[test]
    fn mean_is_exact_and_empty_is_zero() {
        let mut h = LogHistogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
        h.record(100);
        h.record(300);
        assert_eq!(h.mean(), 200.0);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn heavily_skewed_distribution() {
        // 999 small samples and one huge outlier: p99 stays small, p100
        // catches the outlier.
        let mut h = LogHistogram::new();
        for _ in 0..999 {
            h.record(10);
        }
        h.record(1_000_000);
        assert_eq!(h.quantile(0.99), 10);
        assert_eq!(h.quantile(1.0), 1_000_000);
    }

    #[test]
    #[should_panic]
    fn out_of_range_quantile_panics() {
        LogHistogram::new().quantile(-0.1);
    }

    #[test]
    fn duration_view_reads_the_core() {
        let mut h = Histogram::new();
        let mut raw = LogHistogram::new();
        for v in [7u64, 40, 41, 1_000, 123_457] {
            h.record(ns(v));
            raw.record(v);
        }
        // The typed mean rounds down to the nanosecond; the raw one does not.
        assert_eq!(h.mean().as_nanos(), 24_909);
        assert_eq!(raw.mean(), 124_545.0 / 5.0);
        for q in [0.0, 0.5, 0.9, 1.0] {
            assert_eq!(h.quantile(q).as_nanos(), raw.quantile(q));
        }
        assert_eq!(h.min().as_nanos(), raw.min());
        assert_eq!(h.max().as_nanos(), raw.max());
    }

    #[test]
    fn default_is_empty() {
        // The registry creates histograms through `Default`: the minimum
        // must track the first sample, not stay at zero.
        let mut h = LogHistogram::default();
        h.record(5);
        h.record(9);
        assert_eq!(h.min(), 5);
    }
}
