//! Request classes and mixes.

use asyncinv_simcore::{SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// HTTP/2-style server push: a request may be answered with additional
/// pushed resources, so the total bytes written per request vary.
///
/// The paper singles this out when arguing response sizes cannot be known
/// in advance: "HTTP/2.0 enables a web server to push multiple responses
/// for a single client request, which makes the response size for a client
/// request even more unpredictable". A pushed class samples
/// `U{0..=max_extra}` extra resources per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PushModel {
    /// Size of each pushed resource in bytes.
    pub resource_bytes: usize,
    /// Maximum number of pushed resources per request.
    pub max_extra: u32,
}

/// A scheduled change of a class's response size at runtime.
///
/// The paper motivates HybridNetty's *map update* with exactly this:
/// "the response size even for the same type of requests may change over
/// time (due to runtime environment changes such as dataset)". A drifting
/// class starts at one size and switches to another at a virtual time,
/// forcing the hybrid's classifier to re-learn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SizeDrift {
    /// When the size changes.
    pub at: SimTime,
    /// The response size from then on.
    pub to: usize,
}

/// A class of client requests: what gets sent and how large the response is.
///
/// The paper's micro-benchmarks use three representative classes — 0.1 KB,
/// 10 KB and 100 KB responses — chosen from the RUBBoS response-size
/// distribution (its Section III).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestClass {
    /// Display name, e.g. `"100KB"`. Interned as `Arc<str>` so result
    /// records can share it instead of re-allocating per summary.
    pub name: Arc<str>,
    /// Response payload size in bytes (before any drift).
    pub response_bytes: usize,
    /// Request payload size in bytes (HTTP GET-ish; always small).
    pub request_bytes: usize,
    /// Optional runtime size change.
    pub drift: Option<SizeDrift>,
    /// Optional HTTP/2-style server push (per-request size variance).
    pub push: Option<PushModel>,
}

impl RequestClass {
    /// A class with the given name and response size and a 512 B request.
    pub fn new(name: impl Into<Arc<str>>, response_bytes: usize) -> Self {
        RequestClass {
            name: name.into(),
            response_bytes,
            request_bytes: 512,
            drift: None,
            push: None,
        }
    }

    /// A class whose response size changes to `to` at virtual time `at`.
    pub fn with_drift(mut self, at: SimTime, to: usize) -> Self {
        self.drift = Some(SizeDrift { at, to });
        self
    }

    /// Adds HTTP/2-style push variance: each request carries up to
    /// `max_extra` pushed resources of `resource_bytes` each.
    pub fn with_push(mut self, resource_bytes: usize, max_extra: u32) -> Self {
        self.push = Some(PushModel {
            resource_bytes,
            max_extra,
        });
        self
    }

    /// Samples the total bytes the server will write for one request of
    /// this class at virtual time `now` (drift plus push variance).
    pub fn sample_response_bytes(&self, now: SimTime, rng: &mut SimRng) -> usize {
        let base = self.response_bytes_at(now);
        match self.push {
            Some(p) if p.max_extra > 0 => {
                let extra = rng.gen_range(p.max_extra as u64 + 1) as usize;
                base + extra * p.resource_bytes
            }
            _ => base,
        }
    }

    /// The response size in effect at virtual time `now`.
    pub fn response_bytes_at(&self, now: SimTime) -> usize {
        match self.drift {
            Some(d) if now >= d.at => d.to,
            _ => self.response_bytes,
        }
    }

    /// The paper's small class: 0.1 KB responses.
    pub fn small() -> Self {
        RequestClass::new("0.1KB", 100)
    }

    /// The paper's medium class: 10 KB responses.
    pub fn medium() -> Self {
        RequestClass::new("10KB", 10 * 1024)
    }

    /// The paper's large class: 100 KB responses (triggers the write-spin
    /// problem with a 16 KB send buffer).
    pub fn large() -> Self {
        RequestClass::new("100KB", 100 * 1024)
    }
}

/// A weighted mixture of request classes.
///
/// ```
/// use asyncinv_workload::Mix;
/// use asyncinv_simcore::SimRng;
///
/// let mut rng = SimRng::new(3);
/// let mix = Mix::heavy_light(0.05); // the paper's Fig 11 x-axis
/// let heavies = (0..10_000)
///     .filter(|_| mix.classes()[mix.sample(&mut rng)].name.as_ref() == "heavy")
///     .count();
/// assert!((300..800).contains(&heavies)); // ~5%
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mix {
    classes: Vec<RequestClass>,
    weights: Vec<f64>,
}

impl Mix {
    /// A mixture from explicit (class, weight) pairs.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty, any weight is negative/non-finite, or
    /// all weights are zero.
    pub fn new(entries: Vec<(RequestClass, f64)>) -> Self {
        assert!(!entries.is_empty(), "a mix needs at least one class");
        let (classes, weights): (Vec<_>, Vec<_>) = entries.into_iter().unzip();
        let total: f64 = weights.iter().sum();
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0) && total > 0.0,
            "weights must be non-negative with a positive sum"
        );
        Mix { classes, weights }
    }

    /// A single-class mix (most micro-benchmark cells).
    pub fn single(name: impl Into<Arc<str>>, response_bytes: usize) -> Self {
        Mix::new(vec![(RequestClass::new(name, response_bytes), 1.0)])
    }

    /// The paper's Fig 11 workload: `heavy_fraction` of requests are heavy
    /// (100 KB responses, write-spinning), the rest light (0.1 KB).
    ///
    /// # Panics
    ///
    /// Panics if `heavy_fraction` is outside `[0, 1]`.
    pub fn heavy_light(heavy_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&heavy_fraction),
            "heavy fraction out of range: {heavy_fraction}"
        );
        Mix {
            classes: vec![
                RequestClass::new("heavy", 100 * 1024),
                RequestClass::new("light", 100),
            ],
            weights: vec![heavy_fraction, 1.0 - heavy_fraction],
        }
    }

    /// A realistic web mixture: `n` request classes with bounded-Pareto
    /// response sizes (heavy-tailed, exponent `alpha`, sizes in
    /// `[min_bytes, max_bytes]`) and Zipf(`zipf_s`) popularity — the
    /// "light requests dominate" traffic the paper cites when motivating
    /// the hybrid (its Section V-C).
    ///
    /// # Panics
    ///
    /// Panics on degenerate parameters (see [`Mix::new`] and the sampler
    /// preconditions).
    pub fn web_realistic(
        n: usize,
        zipf_s: f64,
        alpha: f64,
        min_bytes: usize,
        max_bytes: usize,
        seed: u64,
    ) -> Self {
        assert!(n > 0, "need at least one class");
        let mut rng = SimRng::new(seed);
        let zipf = crate::zipf::ZipfSampler::new(n, zipf_s);
        let mut entries = Vec::with_capacity(n);
        for rank in 0..n {
            let size = rng.bounded_pareto_f64(min_bytes as f64, max_bytes as f64, alpha) as usize;
            entries.push((
                RequestClass::new(format!("page-{rank}"), size.max(1)),
                zipf.probability(rank),
            ));
        }
        Mix::new(entries)
    }

    /// Checks the mix for what a run relies on. [`Mix::new`] asserts the
    /// weight rules, but a mix read from JSON bypasses it, so configs
    /// call this at their validation gate: at least one class, one weight
    /// per class, finite non-negative weights with a positive finite sum,
    /// and positive response sizes (the drifted size included).
    pub fn validate(&self) -> Result<(), String> {
        if self.classes.is_empty() {
            return Err("a mix needs at least one class".into());
        }
        if self.weights.len() != self.classes.len() {
            return Err(format!(
                "a mix of {} classes has {} weights",
                self.classes.len(),
                self.weights.len()
            ));
        }
        let total: f64 = self.weights.iter().sum();
        if !self.weights.iter().all(|w| w.is_finite() && *w >= 0.0)
            || !total.is_finite()
            || total <= 0.0
        {
            return Err("mix weights must be finite and non-negative with a positive sum".into());
        }
        for c in &self.classes {
            if c.response_bytes == 0 {
                return Err(format!("class {} has a zero response size", c.name));
            }
            if c.drift.is_some_and(|d| d.to == 0) {
                return Err(format!("class {} drifts to a zero response size", c.name));
            }
        }
        Ok(())
    }

    /// The classes in this mix.
    pub fn classes(&self) -> &[RequestClass] {
        &self.classes
    }

    /// The (unnormalized) weights, parallel to [`Mix::classes`].
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Samples a class index.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        if self.classes.len() == 1 {
            return 0;
        }
        rng.weighted_index(&self.weights)
    }

    /// The expected response size under this mix, in bytes.
    pub fn mean_response_bytes(&self) -> f64 {
        let total: f64 = self.weights.iter().sum();
        self.classes
            .iter()
            .zip(&self.weights)
            .map(|(c, w)| c.response_bytes as f64 * w / total)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_changes_size_at_the_scheduled_time() {
        use asyncinv_simcore::SimTime;
        let c = RequestClass::new("page", 100).with_drift(SimTime::from_secs(5), 100 * 1024);
        assert_eq!(c.response_bytes_at(SimTime::ZERO), 100);
        assert_eq!(c.response_bytes_at(SimTime::from_millis(4_999)), 100);
        assert_eq!(c.response_bytes_at(SimTime::from_secs(5)), 100 * 1024);
        assert_eq!(c.response_bytes_at(SimTime::from_secs(60)), 100 * 1024);
    }

    #[test]
    fn push_adds_variance() {
        use asyncinv_simcore::SimTime;
        let c = RequestClass::new("page", 1000).with_push(16 * 1024, 4);
        let mut rng = SimRng::new(9);
        let mut sizes = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let s = c.sample_response_bytes(SimTime::ZERO, &mut rng);
            assert!(s >= 1000);
            assert!(s <= 1000 + 4 * 16 * 1024);
            assert_eq!((s - 1000) % (16 * 1024), 0);
            sizes.insert(s);
        }
        assert_eq!(sizes.len(), 5, "all push counts should occur");
    }

    #[test]
    fn no_push_is_deterministic() {
        use asyncinv_simcore::SimTime;
        let c = RequestClass::new("page", 1000);
        let mut rng = SimRng::new(9);
        for _ in 0..10 {
            assert_eq!(c.sample_response_bytes(SimTime::ZERO, &mut rng), 1000);
        }
    }

    #[test]
    fn no_drift_means_constant_size() {
        use asyncinv_simcore::SimTime;
        let c = RequestClass::new("page", 42);
        assert_eq!(c.response_bytes_at(SimTime::from_secs(100)), 42);
    }

    #[test]
    fn canonical_classes_match_paper() {
        assert_eq!(RequestClass::small().response_bytes, 100);
        assert_eq!(RequestClass::medium().response_bytes, 10_240);
        assert_eq!(RequestClass::large().response_bytes, 102_400);
    }

    #[test]
    fn single_mix_always_samples_zero() {
        let mix = Mix::single("x", 1);
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            assert_eq!(mix.sample(&mut rng), 0);
        }
    }

    #[test]
    fn heavy_light_extremes() {
        let mut rng = SimRng::new(2);
        let all_light = Mix::heavy_light(0.0);
        let all_heavy = Mix::heavy_light(1.0);
        for _ in 0..100 {
            assert_eq!(
                all_light.classes()[all_light.sample(&mut rng)]
                    .name
                    .as_ref(),
                "light"
            );
            assert_eq!(
                all_heavy.classes()[all_heavy.sample(&mut rng)]
                    .name
                    .as_ref(),
                "heavy"
            );
        }
    }

    #[test]
    fn mean_response_bytes_weighted() {
        let mix = Mix::heavy_light(0.5);
        let mean = mix.mean_response_bytes();
        assert!((mean - (102_400.0 + 100.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn web_realistic_is_mostly_light() {
        let mix = Mix::web_realistic(200, 1.0, 0.7, 100, 200 * 1024, 7);
        assert_eq!(mix.classes().len(), 200);
        let light = mix
            .classes()
            .iter()
            .filter(|c| c.response_bytes < 16 * 1024)
            .count();
        assert!(
            light > 140,
            "heavy-tailed sizes: most classes light, got {light}"
        );
        let max = mix
            .classes()
            .iter()
            .map(|c| c.response_bytes)
            .max()
            .unwrap();
        assert!(
            max > 20 * 1024,
            "the tail must reach large sizes, max {max}"
        );
        // Deterministic per seed.
        assert_eq!(mix, Mix::web_realistic(200, 1.0, 0.7, 100, 200 * 1024, 7));
    }

    #[test]
    fn validate_accepts_the_constructors() {
        for mix in [
            Mix::single("x", 1),
            Mix::heavy_light(0.0),
            Mix::web_realistic(20, 1.0, 0.7, 100, 1024, 3),
        ] {
            assert_eq!(mix.validate(), Ok(()));
        }
    }

    #[test]
    #[should_panic]
    fn empty_mix_panics() {
        let _ = Mix::new(vec![]);
    }

    #[test]
    #[should_panic]
    fn zero_weights_panic() {
        let _ = Mix::new(vec![(RequestClass::small(), 0.0)]);
    }

    #[test]
    #[should_panic]
    fn bad_heavy_fraction_panics() {
        let _ = Mix::heavy_light(1.5);
    }
}
