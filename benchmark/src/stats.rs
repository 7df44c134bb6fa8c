//! Order statistics for run summaries.

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), which is the
/// rule the benchmark's acceptance check uses. With fewer than two values
/// both quartiles are the single value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest percentile that still has at least ten samples beyond it,
/// and its value: `(percentile, value)`. With fewer than eleven samples no
/// tail percentile is resolvable and the median is returned as `(50, _)`.
pub fn tail_percentile(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 11 {
        return (50.0, median(values));
    }
    // Index of the sample with exactly ten samples above it.
    let idx = n - 11;
    (100.0 * (idx + 1) as f64 / n as f64, v[idx])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (pct, value) = tail_percentile(&v);
        assert_eq!(value, 990.0);
        assert!((pct - 99.0).abs() < 1e-9);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (pct, value) = tail_percentile(&v);
        assert_eq!(value, 190.0);
        assert!((pct - 95.0).abs() < 1e-9);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        // Too few samples for any tail: falls back to the median.
        assert_eq!(tail_percentile(&[1.0, 2.0, 3.0]), (50.0, 2.0));
    }
}
