//! Hedged requests: after a delay derived from the online response-time
//! distribution, an outstanding request is duplicated to a second shard and
//! the first side to finish wins (the loser is cancelled).

use asyncinv_metrics::RunningQuantile;
use asyncinv_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// Hedging parameters for a [`crate::FleetConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HedgeConfig {
    /// Fire the hedge once the attempt has been outstanding longer than
    /// this percentile of observed response times (e.g. `0.95`).
    pub percentile: f64,
    /// Delay used before `min_samples` response times have been observed.
    pub initial_delay: SimDuration,
    /// Number of observed completions required before the percentile
    /// estimate replaces `initial_delay`.
    pub min_samples: u64,
    /// Key the delay estimator by the shard that served the completion
    /// instead of pooling all shards into one distribution. Under an
    /// asymmetric fleet (one shard browned out) the pooled percentile is
    /// dragged up by the slow shard's completions, delaying hedges for
    /// *healthy*-shard attempts exactly when they are cheap; per-shard
    /// estimators keep the healthy delay tight. Off by default.
    #[serde(default)]
    pub per_shard: bool,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            percentile: 0.95,
            initial_delay: SimDuration::from_millis(2),
            min_samples: 32,
            per_shard: false,
        }
    }
}

impl HedgeConfig {
    /// Validates the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.percentile > 0.0 && self.percentile < 1.0) {
            return Err(format!(
                "hedge percentile must be in (0, 1), got {}",
                self.percentile
            ));
        }
        if self.initial_delay.as_nanos() == 0 {
            return Err("hedge initial_delay must be positive".to_string());
        }
        Ok(())
    }
}

/// Online estimator of the hedge delay from completed response times.
///
/// It keeps its policy's percentile as a [`RunningQuantile`] over
/// nanoseconds, so [`delay`](Self::delay) costs the same however many
/// response times it has seen, and reads what
/// `Histogram::quantile(percentile)` of the same samples reads.
#[derive(Debug)]
pub struct HedgeEstimator {
    rt_ns: RunningQuantile,
    initial_delay: SimDuration,
    min_samples: u64,
}

impl HedgeEstimator {
    /// A fresh estimator with no samples, for the policy `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.percentile` is outside `[0, 1]`
    /// ([`HedgeConfig::validate`] rejects it first).
    pub fn new(cfg: &HedgeConfig) -> Self {
        HedgeEstimator {
            rt_ns: RunningQuantile::new(cfg.percentile),
            initial_delay: cfg.initial_delay,
            min_samples: cfg.min_samples,
        }
    }

    /// Records a completed response time.
    pub fn observe(&mut self, rt: SimDuration) {
        self.rt_ns.record(rt.as_nanos());
    }

    /// Number of response times observed so far.
    pub fn samples(&self) -> u64 {
        self.rt_ns.count()
    }

    /// The current hedge delay: the configured percentile once enough
    /// samples exist, the configured initial delay before that. Never
    /// returns zero (a zero delay would duplicate every request).
    pub fn delay(&self) -> SimDuration {
        let d = if self.rt_ns.count() >= self.min_samples {
            SimDuration::from_nanos(self.rt_ns.value())
        } else {
            self.initial_delay
        };
        d.max(SimDuration::from_micros(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncinv_metrics::Histogram;

    #[test]
    fn delay_uses_initial_until_min_samples_then_percentile() {
        let cfg = HedgeConfig {
            percentile: 0.9,
            initial_delay: SimDuration::from_millis(5),
            min_samples: 4,
            per_shard: false,
        };
        let mut est = HedgeEstimator::new(&cfg);
        assert_eq!(est.delay(), SimDuration::from_millis(5));
        for ms in [1u64, 2, 3, 4] {
            est.observe(SimDuration::from_millis(ms));
        }
        let d = est.delay();
        assert!(d >= SimDuration::from_millis(3), "p90 of 1..4ms, got {d:?}");
        assert!(d <= SimDuration::from_millis(5));
    }

    #[test]
    fn delay_is_never_zero() {
        let cfg = HedgeConfig {
            min_samples: 1,
            ..HedgeConfig::default()
        };
        let mut est = HedgeEstimator::new(&cfg);
        est.observe(SimDuration::from_nanos(0));
        assert!(est.delay().as_nanos() > 0);
    }

    #[test]
    fn delay_is_the_histogram_percentile_from_min_samples_on() {
        let cfg = HedgeConfig {
            percentile: 0.5,
            initial_delay: SimDuration::from_millis(7),
            min_samples: 16,
            per_shard: false,
        };
        let mut est = HedgeEstimator::new(&cfg);
        let mut hist = Histogram::new();
        // Two modes two decades apart: mostly fast, then mostly slow,
        // then mostly fast again, so the median crosses the empty buckets
        // between them upward and then downward.
        let mut crossed_up = false;
        for i in 0..1000u64 {
            let slow = (100..400).contains(&i) != (i % 10 == 0);
            let rt = if slow {
                SimDuration::from_micros(20_000 + i * 13)
            } else {
                SimDuration::from_micros(200 + i % 17)
            };
            est.observe(rt);
            hist.record(rt);
            let want = if hist.count() >= cfg.min_samples {
                hist.quantile(cfg.percentile)
            } else {
                cfg.initial_delay
            };
            assert_eq!(est.delay(), want, "after {} samples", hist.count());
            crossed_up |= est.delay() > SimDuration::from_millis(10);
        }
        assert!(crossed_up, "the median never reached the slow mode");
        assert!(est.delay() < SimDuration::from_millis(1), "nor came back");
    }

    #[test]
    fn validation_rejects_bad_percentiles() {
        let mut cfg = HedgeConfig::default();
        assert!(cfg.validate().is_ok());
        cfg.percentile = 1.0;
        assert!(cfg.validate().is_err());
        cfg.percentile = 0.5;
        cfg.initial_delay = SimDuration::from_nanos(0);
        assert!(cfg.validate().is_err());
    }
}
