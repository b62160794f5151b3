//! A registry of named counters, gauges, and log-bucketed histograms.

use std::collections::BTreeMap;

use serde::Value;

use asyncinv_metrics::LogHistogram;

/// Named metrics reported by the engines, the server architectures, and
/// the simulation kernel.
///
/// Keys are ordered (`BTreeMap`) so exports are deterministic.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, LogHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `v` to counter `name` (creating it at zero).
    pub fn counter_add(&mut self, name: &str, v: u64) {
        // Look up before allocating: the common case is an existing key,
        // and `entry` would clone `name` on every call.
        if let Some(c) = self.counters.get_mut(name) {
            *c += v;
        } else {
            self.counters.insert(name.to_string(), v);
        }
    }

    /// Sets counter `name` to `v`.
    pub fn counter_set(&mut self, name: &str, v: u64) {
        self.counters.insert(name.to_string(), v);
    }

    /// Current value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Sets gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Current value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records a sample into histogram `name` (creating it empty).
    pub fn hist_record(&mut self, name: &str, v: u64) {
        // Hot path for traced runs (one sample per completion): avoid the
        // `entry(name.to_string())` clone when the histogram exists.
        if let Some(h) = self.hists.get_mut(name) {
            h.record(v);
        } else {
            self.hists.entry(name.to_string()).or_default().record(v);
        }
    }

    /// Histogram `name`, if present.
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// `true` when nothing has been reported.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// The registry as a JSON value: `{"counters": {...}, "gauges": {...},
    /// "histograms": {name: {count, mean, min, max, p50, p95, p99}}}`.
    pub fn to_value(&self) -> Value {
        let counters = Value::Map(
            self.counters
                .iter()
                .map(|(k, &v)| (k.clone(), Value::UInt(v)))
                .collect(),
        );
        let gauges = Value::Map(
            self.gauges
                .iter()
                .map(|(k, &v)| (k.clone(), Value::Float(v)))
                .collect(),
        );
        let hists = Value::Map(
            self.hists
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Value::Map(vec![
                            ("count".into(), Value::UInt(h.count())),
                            ("mean".into(), Value::Float(h.mean())),
                            ("min".into(), Value::UInt(h.min())),
                            ("max".into(), Value::UInt(h.max())),
                            ("p50".into(), Value::UInt(h.quantile(0.50))),
                            ("p95".into(), Value::UInt(h.quantile(0.95))),
                            ("p99".into(), Value::UInt(h.quantile(0.99))),
                        ]),
                    )
                })
                .collect(),
        );
        Value::Map(vec![
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("histograms".into(), hists),
        ])
    }

    /// The registry as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("registry serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_set() {
        let mut r = MetricsRegistry::new();
        r.counter_add("x", 2);
        r.counter_add("x", 3);
        r.counter_set("y", 7);
        assert_eq!(r.counter("x"), Some(5));
        assert_eq!(r.counter("y"), Some(7));
        assert_eq!(r.counter("z"), None);
    }

    #[test]
    fn json_roundtrips_through_vendored_parser() {
        let mut r = MetricsRegistry::new();
        r.counter_add("completions", 100);
        r.gauge_set("throughput", 123.5);
        for v in 1..=100 {
            r.hist_record("rt_ns", v * 1000);
        }
        let v: Value = serde_json::from_str(&r.to_json()).expect("valid JSON");
        assert_eq!(
            v.get("counters").and_then(|c| c.get("completions")),
            Some(&Value::UInt(100))
        );
        let h = v
            .get("histograms")
            .and_then(|h| h.get("rt_ns"))
            .expect("hist");
        assert_eq!(h.get("count"), Some(&Value::UInt(100)));
        assert!(h.get("p99").is_some());
    }

    #[test]
    fn deterministic_key_order() {
        let mut r = MetricsRegistry::new();
        r.counter_add("zeta", 1);
        r.counter_add("alpha", 1);
        let names: Vec<&str> = r.counters().map(|(k, _)| k).collect();
        assert_eq!(names, ["alpha", "zeta"]);
    }
}
