//! Order statistics and the cell digest.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// The `q`-quantile of `xs` with linear interpolation between closest
/// ranks (the default of numpy and of Python's `statistics.quantiles`
/// with `method="inclusive"`).
///
/// # Panics
///
/// Panics on an empty slice, a NaN, or `q` outside `[0, 1]`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Inter-quartile range as a share of the median: the run-to-run spread
/// measure the bounds in `BENCHMARK.json` are compared against. Zero for
/// fewer than two samples or a zero median.
pub fn iqr_share(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    (percentile(xs, 0.75) - percentile(xs, 0.25)) / m.abs()
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 11.0);
        assert_eq!(percentile(&xs, 0.9), 10.0);
        assert!((percentile(&[1.0, 2.0], 0.25) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        for q in [0.1, 0.5, 0.97] {
            assert_eq!(percentile(&a, q), percentile(&b, q));
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        percentile(&[], 0.5);
    }

    #[test]
    fn iqr_share_is_relative() {
        assert_eq!(iqr_share(&[2.0]), 0.0);
        // Quartiles of 1..=5 are 2 and 4; median 3.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((iqr_share(&xs) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
