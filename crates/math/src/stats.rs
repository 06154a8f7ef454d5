//! Descriptive statistics for measurement post-processing.
//!
//! These helpers operate on raw `f64` slices; empty-input behaviour is
//! documented per function (most return `None` or `NaN`-free defaults
//! rather than panicking, since they sit in measurement hot paths).

/// Arithmetic mean; returns 0.0 for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().sum::<f64>() / x.len() as f64
}

/// Population variance (`1/N` normalization); 0.0 for fewer than 2 samples.
pub fn variance(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64
}

/// Population standard deviation.
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Root-mean-square value; 0.0 for an empty slice.
pub fn rms(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    (x.iter().map(|&v| v * v).sum::<f64>() / x.len() as f64).sqrt()
}

/// Mean-squared error between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "mse requires equal lengths");
    if a.is_empty() {
        return 0.0;
    }
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64
}

/// Normalized RMS error `‖a − b‖ / ‖b‖` (relative to the reference `b`).
///
/// Returns 0.0 when both are empty or the reference has zero energy and the
/// signals are identical; returns `f64::INFINITY` when the reference has
/// zero energy but the signals differ.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn nrmse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "nrmse requires equal lengths");
    let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    let den: f64 = b.iter().map(|&y| y * y).sum();
    if den == 0.0 {
        if num == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (num / den).sqrt()
    }
}

/// Maximum value; `None` for an empty slice (NaNs are ignored).
pub fn max(x: &[f64]) -> Option<f64> {
    x.iter().copied().filter(|v| !v.is_nan()).reduce(f64::max)
}

/// Minimum value; `None` for an empty slice (NaNs are ignored).
pub fn min(x: &[f64]) -> Option<f64> {
    x.iter().copied().filter(|v| !v.is_nan()).reduce(f64::min)
}

/// Peak absolute value; 0.0 for an empty slice.
pub fn peak_abs(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()))
}

/// Linearly-interpolated percentile (`p` in `[0, 100]`); `None` if empty.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
pub fn percentile(x: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if x.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = x.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Median (50th percentile); `None` if empty.
pub fn median(x: &[f64]) -> Option<f64> {
    percentile(x, 50.0)
}

/// Biased autocorrelation `r[k] = (1/N) Σ x[n]·x[n+k]` for `k = 0..lags`.
pub fn autocorrelation(x: &[f64], lags: usize) -> Vec<f64> {
    let n = x.len();
    (0..=lags)
        .map(|k| {
            if k >= n {
                0.0
            } else {
                x[..n - k]
                    .iter()
                    .zip(&x[k..])
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
                    / n as f64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&x), 2.5);
        assert!((variance(&x) - 1.25).abs() < 1e-12);
        assert!((std_dev(&x) - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn rms_of_sine_is_amplitude_over_sqrt2() {
        let n = 10_000;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / n as f64).sin())
            .collect();
        assert!((rms(&x) - 1.0 / 2f64.sqrt()).abs() < 1e-4);
    }

    #[test]
    fn mse_and_nrmse() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.0, 4.0];
        assert!((mse(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        let expected = (1.0f64 / (1.0 + 4.0 + 16.0)).sqrt();
        assert!((nrmse(&a, &b) - expected).abs() < 1e-12);
        assert_eq!(nrmse(&a, &a), 0.0);
    }

    #[test]
    fn nrmse_zero_reference() {
        assert_eq!(nrmse(&[0.0], &[0.0]), 0.0);
        assert_eq!(nrmse(&[1.0], &[0.0]), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mse_length_mismatch_panics() {
        let _ = mse(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn min_max_peak() {
        let x = [-3.0, 1.0, 2.0];
        assert_eq!(max(&x), Some(2.0));
        assert_eq!(min(&x), Some(-3.0));
        assert_eq!(peak_abs(&x), 3.0);
        assert_eq!(max(&[]), None);
        assert_eq!(min(&[]), None);
        assert_eq!(peak_abs(&[]), 0.0);
    }

    #[test]
    fn nan_values_are_skipped_by_minmax() {
        let x = [f64::NAN, 1.0, -2.0];
        assert_eq!(max(&x), Some(1.0));
        assert_eq!(min(&x), Some(-2.0));
    }

    #[test]
    fn percentile_and_median() {
        let x = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&x, 0.0), Some(1.0));
        assert_eq!(percentile(&x, 100.0), Some(4.0));
        assert_eq!(median(&x), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 100]")]
    fn percentile_out_of_range_panics() {
        let _ = percentile(&[1.0], 101.0);
    }

    #[test]
    fn autocorrelation_of_constant() {
        let x = [1.0; 8];
        let r = autocorrelation(&x, 3);
        assert!((r[0] - 1.0).abs() < 1e-12);
        // biased estimate decays linearly with lag
        assert!((r[1] - 7.0 / 8.0).abs() < 1e-12);
        assert!((r[3] - 5.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_lag_beyond_length() {
        let r = autocorrelation(&[1.0, 2.0], 5);
        assert_eq!(r.len(), 6);
        assert_eq!(r[3], 0.0);
    }
}
