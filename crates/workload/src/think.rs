//! Client think-time models.

use asyncinv_simcore::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};

/// The delay a virtual user waits between receiving a response and sending
/// its next request.
///
/// The paper's micro-benchmarks use [`ThinkTime::Zero`] ("we set the think
/// time between the consecutive requests sent from the same thread to be
/// zero, thus we can precisely control the concurrency"); RUBBoS uses an
/// exponential think time with a 7-second mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ThinkTime {
    /// No think time: the user is always either waiting for a response or
    /// sending the next request.
    #[default]
    Zero,
    /// A fixed delay.
    Fixed(SimDuration),
    /// Exponentially distributed with the given mean.
    Exponential(SimDuration),
}

impl ThinkTime {
    /// Samples one think-time value.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            ThinkTime::Zero => SimDuration::ZERO,
            ThinkTime::Fixed(d) => d,
            ThinkTime::Exponential(mean) => {
                SimDuration::from_secs_f64(rng.exp_f64(mean.as_secs_f64()))
            }
        }
    }

    /// The mean of the distribution.
    pub fn mean(&self) -> SimDuration {
        match *self {
            ThinkTime::Zero => SimDuration::ZERO,
            ThinkTime::Fixed(d) | ThinkTime::Exponential(d) => d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_zero() {
        let mut rng = SimRng::new(1);
        assert_eq!(ThinkTime::Zero.sample(&mut rng), SimDuration::ZERO);
        assert_eq!(ThinkTime::Zero.mean(), SimDuration::ZERO);
    }

    #[test]
    fn fixed_is_constant() {
        let mut rng = SimRng::new(1);
        let d = SimDuration::from_millis(3);
        for _ in 0..10 {
            assert_eq!(ThinkTime::Fixed(d).sample(&mut rng), d);
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::new(5);
        let t = ThinkTime::Exponential(SimDuration::from_secs(7));
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| t.sample(&mut rng).as_secs_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 7.0).abs() < 0.2, "measured mean {mean}");
    }
}
