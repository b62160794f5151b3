//! Client-side resilience policy: per-request timeouts, bounded retries
//! with exponential backoff + jitter, and a retry budget.
//!
//! The policy is pure data plus deterministic arithmetic over the sim
//! clock; the experiment engine owns the timers (it schedules timeout and
//! retry events on the simulation queue) and the [`crate::ClientPool`]
//! owns the RNG the jitter draws from. With `timeout: None` (the default)
//! the layer is fully disabled: no timers are scheduled and no random
//! numbers are drawn, so unfaulted runs stay bit-identical to runs built
//! before this layer existed.

use asyncinv_simcore::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};

/// How the client sets each attempt's timeout.
///
/// `Fixed` arms [`RetryPolicy::timeout`] verbatim — the mode every run
/// before this knob existed used, and the serde default, so existing
/// configs and seeds stay bit-identical. `Rto` arms an online
/// Jacobson/Karels estimate (TCP's RTO algorithm) tracked by an
/// [`RtoEstimator`] the engine owns: smoothed RTT plus a variance
/// multiple, clamped to the configured bounds, with Karn-style
/// exponential backoff after a timeout fires. Deterministic — integer
/// nanosecond arithmetic over observed response times, no RNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TimeoutMode {
    /// Arm the fixed [`RetryPolicy::timeout`] for every attempt.
    #[default]
    Fixed,
    /// Arm the current Jacobson/Karels RTO estimate (seeded from the
    /// fixed timeout until the first response sample arrives).
    Rto,
}

/// Client retry policy for one experiment.
///
/// `attempt` counts *retries already made*: the first retry after the
/// initial send computes its backoff with `attempt = 0`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Per-request timeout measured from each (re)send. `None` disables
    /// timeouts, retries and the budget entirely.
    pub timeout: Option<SimDuration>,
    /// How the armed timeout is chosen (fixed, or online RTO estimate).
    #[serde(default)]
    pub timeout_mode: TimeoutMode,
    /// Lower clamp on the RTO estimate (ignored in `Fixed` mode).
    #[serde(default = "default_rto_min")]
    pub rto_min: SimDuration,
    /// Upper clamp on the RTO estimate (ignored in `Fixed` mode).
    #[serde(default = "default_rto_max")]
    pub rto_max: SimDuration,
    /// Maximum retries per request before the client abandons it. Zero
    /// means timeouts are observed (and counted) but never retried.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub backoff_base: SimDuration,
    /// Multiplier applied per subsequent retry (exponential backoff).
    pub backoff_mult: f64,
    /// Upper bound on the computed backoff (before jitter).
    pub backoff_cap: SimDuration,
    /// Uniform jitter added on top of the backoff, as a fraction of it
    /// (`0.1` adds up to +10%). Zero draws no random numbers.
    pub jitter_frac: f64,
    /// Retry-budget token earn rate: tokens gained per *first-attempt*
    /// send. Each retry spends one token; an empty bucket converts the
    /// retry into an abandonment. `0.0` disables the budget (unbounded
    /// retries up to `max_retries`) — the classic retry-storm ingredient.
    pub budget_ratio: f64,
    /// Retry-budget bucket capacity (also the initial fill).
    pub budget_cap: f64,
}

fn default_rto_min() -> SimDuration {
    SimDuration::from_millis(1)
}

fn default_rto_max() -> SimDuration {
    SimDuration::from_secs(1)
}

impl Default for RetryPolicy {
    /// Disabled policy (no timeout), with storm-safe knobs pre-filled so
    /// enabling is just `policy.timeout = Some(..)`.
    fn default() -> Self {
        RetryPolicy {
            timeout: None,
            timeout_mode: TimeoutMode::Fixed,
            rto_min: default_rto_min(),
            rto_max: default_rto_max(),
            max_retries: 3,
            backoff_base: SimDuration::from_millis(1),
            backoff_mult: 2.0,
            backoff_cap: SimDuration::from_millis(100),
            jitter_frac: 0.1,
            budget_ratio: 0.0,
            budget_cap: 10.0,
        }
    }
}

impl RetryPolicy {
    /// `true` when the resilience layer is active.
    pub fn enabled(&self) -> bool {
        self.timeout.is_some()
    }

    /// Backoff before retry number `attempt` (0-based), with jitter drawn
    /// from `rng`. Deterministic given the RNG state.
    pub fn backoff_for(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        let base =
            self.backoff_base.as_nanos() as f64 * self.backoff_mult.powi(attempt.min(63) as i32);
        let capped = base.min(self.backoff_cap.as_nanos() as f64).max(0.0);
        let jitter = if self.jitter_frac > 0.0 {
            capped * self.jitter_frac * rng.next_f64()
        } else {
            0.0
        };
        SimDuration::from_nanos((capped + jitter).max(1.0) as u64)
    }

    /// Checks the knobs for structural validity.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(t) = self.timeout {
            if t.is_zero() {
                return Err("retry timeout must be positive".into());
            }
        }
        if !self.backoff_mult.is_finite() || self.backoff_mult < 1.0 {
            return Err(format!(
                "backoff_mult must be >= 1.0, got {}",
                self.backoff_mult
            ));
        }
        if !(0.0..=1.0).contains(&self.jitter_frac) {
            return Err(format!(
                "jitter_frac must be in [0, 1], got {}",
                self.jitter_frac
            ));
        }
        if self.budget_ratio < 0.0 || !self.budget_ratio.is_finite() {
            return Err("budget_ratio must be finite and non-negative".into());
        }
        if self.budget_ratio > 0.0 && self.budget_cap < 1.0 {
            return Err("budget_cap must be >= 1.0 when the budget is on".into());
        }
        if self.timeout_mode == TimeoutMode::Rto {
            if self.rto_min.is_zero() {
                return Err("rto_min must be positive".into());
            }
            if self.rto_max < self.rto_min {
                return Err("rto_max must be >= rto_min".into());
            }
        }
        Ok(())
    }
}

/// A token-bucket retry budget (client-wide, like Finagle's `RetryBudget`).
///
/// Deposits a fraction of a token per first-attempt send; each retry
/// withdraws a whole token. Plain f64 arithmetic — deterministic.
#[derive(Debug, Clone, Copy)]
pub struct RetryBudget {
    tokens: f64,
    ratio: f64,
    cap: f64,
}

impl RetryBudget {
    /// A budget from the policy's knobs (starts full).
    pub fn new(policy: &RetryPolicy) -> Self {
        RetryBudget {
            tokens: policy.budget_cap,
            ratio: policy.budget_ratio,
            cap: policy.budget_cap,
        }
    }

    /// Records a first-attempt send (earns `ratio` tokens).
    pub fn deposit(&mut self) {
        if self.ratio > 0.0 {
            self.tokens = (self.tokens + self.ratio).min(self.cap);
        }
    }

    /// Attempts to spend one token for a retry. Always succeeds when the
    /// budget is disabled (`ratio == 0`).
    pub fn try_withdraw(&mut self) -> bool {
        if self.ratio == 0.0 {
            return true;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Remaining tokens (for diagnostics).
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// Online TCP-style retransmission-timeout estimator (Jacobson/Karels,
/// RFC 6298): `SRTT ← 7/8·SRTT + 1/8·RTT`, `RTTVAR ← 3/4·RTTVAR +
/// 1/4·|SRTT − RTT|`, `RTO = clamp(SRTT + 4·RTTVAR, min, max)`, with
/// Karn-style doubling after each timeout (cleared by the next good
/// sample).
///
/// Pure integer-nanosecond arithmetic over the sim clock — deterministic
/// and seedless. The engine owns one estimator per run (client-wide,
/// like the retry budget), feeds it every completed response time, and
/// arms [`RtoEstimator::current`] instead of the fixed timeout when
/// [`TimeoutMode::Rto`] is selected.
#[derive(Debug, Clone, Copy)]
pub struct RtoEstimator {
    srtt_ns: u64,
    rttvar_ns: u64,
    /// Current estimate *before* backoff, in nanoseconds.
    rto_ns: u64,
    /// Karn backoff doublings applied since the last good sample.
    backoff: u32,
    min_ns: u64,
    max_ns: u64,
    seeded: bool,
    /// Response-time samples observed (diagnostics).
    samples: u64,
}

impl RtoEstimator {
    /// An estimator from the policy's knobs, seeded with the fixed
    /// timeout (the armed value until the first sample arrives).
    pub fn new(policy: &RetryPolicy) -> Self {
        let min_ns = policy.rto_min.as_nanos().max(1);
        let max_ns = policy.rto_max.as_nanos().max(min_ns);
        let seed = policy
            .timeout
            .unwrap_or(policy.rto_max)
            .as_nanos()
            .clamp(min_ns, max_ns);
        RtoEstimator {
            srtt_ns: 0,
            rttvar_ns: 0,
            rto_ns: seed,
            backoff: 0,
            min_ns,
            max_ns,
            seeded: false,
            samples: 0,
        }
    }

    /// The timeout to arm for the next attempt (estimate with Karn
    /// backoff applied, clamped to the configured bounds).
    pub fn current(&self) -> SimDuration {
        let shift = self.backoff.min(32);
        let backed = self.rto_ns.saturating_mul(1u64 << shift);
        SimDuration::from_nanos(backed.clamp(self.min_ns, self.max_ns))
    }

    /// Feeds one completed response time and re-estimates. Also clears
    /// any Karn backoff — a good sample means the path recovered.
    pub fn observe(&mut self, rt: SimDuration) {
        let rtt = rt.as_nanos();
        if !self.seeded {
            // RFC 6298 §2.2: first sample initializes SRTT and RTTVAR.
            self.srtt_ns = rtt;
            self.rttvar_ns = rtt / 2;
            self.seeded = true;
        } else {
            // Integer form of the 1/8 and 1/4 gains.
            let diff = self.srtt_ns.abs_diff(rtt);
            self.rttvar_ns = self.rttvar_ns - self.rttvar_ns / 4 + diff / 4;
            self.srtt_ns = self.srtt_ns - self.srtt_ns / 8 + rtt / 8;
        }
        self.rto_ns = (self.srtt_ns + 4 * self.rttvar_ns.max(1)).clamp(self.min_ns, self.max_ns);
        self.backoff = 0;
        self.samples += 1;
    }

    /// Records a timeout firing: Karn backoff doubles the armed value
    /// until the next good sample.
    pub fn on_timeout(&mut self) {
        self.backoff = self.backoff.saturating_add(1);
    }

    /// Samples observed so far (diagnostics).
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on() -> RetryPolicy {
        RetryPolicy {
            timeout: Some(SimDuration::from_millis(10)),
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn default_is_disabled_and_valid() {
        let p = RetryPolicy::default();
        assert!(!p.enabled());
        assert_eq!(p.timeout_mode, TimeoutMode::Fixed);
        p.validate().unwrap();
    }

    #[test]
    fn rto_validation() {
        let bad = RetryPolicy {
            timeout_mode: TimeoutMode::Rto,
            rto_min: SimDuration::from_millis(5),
            rto_max: SimDuration::from_millis(1),
            ..on()
        };
        assert!(bad.validate().is_err());
        let zero = RetryPolicy {
            timeout_mode: TimeoutMode::Rto,
            rto_min: SimDuration::ZERO,
            ..on()
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn rto_seeds_from_fixed_timeout() {
        let p = RetryPolicy {
            timeout_mode: TimeoutMode::Rto,
            ..on()
        };
        let est = RtoEstimator::new(&p);
        assert_eq!(est.current(), SimDuration::from_millis(10));
        assert_eq!(est.samples(), 0);
    }

    #[test]
    fn rto_first_sample_initializes_rfc6298() {
        let p = RetryPolicy {
            timeout_mode: TimeoutMode::Rto,
            ..on()
        };
        let mut est = RtoEstimator::new(&p);
        est.observe(SimDuration::from_micros(800));
        // SRTT = 800us, RTTVAR = 400us, RTO = 800 + 4*400 = 2400us.
        assert_eq!(est.current(), SimDuration::from_micros(2400));
        assert_eq!(est.samples(), 1);
    }

    #[test]
    fn rto_converges_on_steady_rtt() {
        let p = RetryPolicy {
            timeout_mode: TimeoutMode::Rto,
            rto_min: SimDuration::from_micros(100),
            ..on()
        };
        let mut est = RtoEstimator::new(&p);
        for _ in 0..200 {
            est.observe(SimDuration::from_micros(500));
        }
        // RTTVAR decays toward zero on a constant path; RTO floors near
        // SRTT (clamped above rto_min).
        let rto = est.current();
        assert!(rto >= p.rto_min);
        assert!(rto <= SimDuration::from_micros(600), "rto was {rto:?}");
    }

    #[test]
    fn rto_karn_backoff_doubles_and_clears() {
        let p = RetryPolicy {
            timeout_mode: TimeoutMode::Rto,
            ..on()
        };
        let mut est = RtoEstimator::new(&p);
        est.observe(SimDuration::from_micros(500));
        let base = est.current();
        est.on_timeout();
        assert_eq!(est.current(), base * 2);
        est.on_timeout();
        assert_eq!(est.current(), base * 4);
        // Backoff never exceeds the max.
        for _ in 0..40 {
            est.on_timeout();
        }
        assert_eq!(est.current(), p.rto_max);
        // A good sample clears the backoff.
        est.observe(SimDuration::from_micros(500));
        assert!(est.current() < p.rto_max);
    }

    #[test]
    fn rto_spike_inflates_variance() {
        let p = RetryPolicy {
            timeout_mode: TimeoutMode::Rto,
            ..on()
        };
        let mut est = RtoEstimator::new(&p);
        for _ in 0..50 {
            est.observe(SimDuration::from_micros(500));
        }
        let settled = est.current();
        est.observe(SimDuration::from_millis(5));
        assert!(est.current() > settled, "a spike must raise the estimate");
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            jitter_frac: 0.0,
            ..on()
        };
        let mut rng = SimRng::new(1);
        let b0 = p.backoff_for(0, &mut rng);
        let b1 = p.backoff_for(1, &mut rng);
        let b9 = p.backoff_for(9, &mut rng);
        assert_eq!(b0, p.backoff_base);
        assert_eq!(b1, p.backoff_base * 2);
        assert_eq!(b9, p.backoff_cap, "exponential growth hits the cap");
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = on();
        let sample = |seed| {
            let mut rng = SimRng::new(seed);
            p.backoff_for(2, &mut rng)
        };
        assert_eq!(sample(7), sample(7));
        let base = p.backoff_base * 4;
        let jittered = sample(7);
        assert!(jittered >= base);
        assert!(jittered.as_nanos() as f64 <= base.as_nanos() as f64 * 1.1 + 1.0);
    }

    #[test]
    fn budget_earns_and_spends() {
        let p = RetryPolicy {
            budget_ratio: 0.5,
            budget_cap: 2.0,
            ..on()
        };
        let mut b = RetryBudget::new(&p);
        assert!(b.try_withdraw());
        assert!(b.try_withdraw());
        assert!(!b.try_withdraw(), "bucket exhausted");
        b.deposit();
        b.deposit();
        assert!(b.try_withdraw(), "two sends earn one retry");
    }

    #[test]
    fn disabled_budget_is_unbounded() {
        let mut b = RetryBudget::new(&RetryPolicy::default());
        for _ in 0..1000 {
            assert!(b.try_withdraw());
        }
    }

    #[test]
    fn invalid_knobs_are_rejected() {
        let mut p = on();
        p.backoff_mult = 0.5;
        assert!(p.validate().is_err());
        let mut p = on();
        p.jitter_frac = 2.0;
        assert!(p.validate().is_err());
        let mut p = on();
        p.timeout = Some(SimDuration::ZERO);
        assert!(p.validate().is_err());
    }
}
