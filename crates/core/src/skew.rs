//! Shared time-skew estimate records and error metrics (Table I
//! columns).

use rfbist_sampling::gridplan::GridScratch;
use rfbist_sampling::reconstruct::{NonuniformCapture, PnbsReconstructor};
use rfbist_sampling::BandSpec;
use rfbist_signal::traits::ContinuousSignal;

/// A time-skew estimate with optional method metadata.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SkewEstimate {
    /// The estimated delay `D̂` in seconds.
    pub delay: f64,
    /// Residual cost at the estimate (LMS only).
    pub residual_cost: Option<f64>,
    /// Iterations used (LMS only).
    pub iterations: Option<usize>,
}

impl SkewEstimate {
    /// Wraps a bare delay estimate.
    pub fn from_delay(delay: f64) -> Self {
        SkewEstimate {
            delay,
            residual_cost: None,
            iterations: None,
        }
    }
}

/// The error metrics the paper's Table I reports for an estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SkewErrorMetrics {
    /// `|D̂ − D|` in seconds (Table I column 2).
    pub abs_error: f64,
    /// `|1 − D̂/D|` (Table I column 3).
    pub rel_error: f64,
    /// `Δε(f^T_D̂(t))`: relative RMS reconstruction error using the
    /// estimate (Table I column 4), when evaluated.
    pub reconstruction_error: Option<f64>,
}

/// Computes the first two Table I columns.
///
/// # Panics
///
/// Panics if `d_true` is zero (the relative metric is undefined).
pub fn skew_error(d_true: f64, d_hat: f64) -> SkewErrorMetrics {
    assert!(d_true != 0.0, "true delay must be non-zero");
    SkewErrorMetrics {
        abs_error: (d_hat - d_true).abs(),
        rel_error: (1.0 - d_hat / d_true).abs(),
        reconstruction_error: None,
    }
}

/// Computes all three Table I columns: reconstructs `capture` with the
/// estimate and compares against the true signal at `times`
/// (relative RMS, `‖f̂ − f‖/‖f‖`). The reconstruction error stays
/// `None` when a time falls outside the capture's coverage.
pub fn skew_error_with_reconstruction<S: ContinuousSignal>(
    d_true: f64,
    d_hat: f64,
    band: BandSpec,
    capture: &NonuniformCapture,
    truth: &S,
    times: &[f64],
) -> SkewErrorMetrics {
    let mut metrics = skew_error(d_true, d_hat);
    let rec =
        PnbsReconstructor::new_unchecked(band, d_hat, 61, rfbist_dsp::window::Window::Kaiser(8.0));
    let want = truth.sample(times);
    metrics.reconstruction_error = rec
        .grid_plan()
        .try_reconstruct_instants(capture, times, &mut GridScratch::new())
        .map(|got| rfbist_math::stats::nrmse(got, &want));
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfbist_math::rng::Randomizer;
    use rfbist_signal::tone::Tone;

    #[test]
    fn error_metrics_match_table1_definitions() {
        let m = skew_error(180e-12, 185e-12);
        assert!((m.abs_error - 5e-12).abs() < 1e-24);
        assert!((m.rel_error - 5.0 / 180.0).abs() < 1e-12);
        assert!(m.reconstruction_error.is_none());
    }

    #[test]
    fn perfect_estimate_has_zero_error() {
        let m = skew_error(180e-12, 180e-12);
        assert_eq!(m.abs_error, 0.0);
        assert_eq!(m.rel_error, 0.0);
    }

    #[test]
    fn reconstruction_error_grows_with_estimate_error() {
        let band = BandSpec::centered(1e9, 90e6);
        let d = 180e-12;
        let tone = Tone::unit(0.987e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / 90e6, d, -50, 350);
        let mut rng = Randomizer::from_seed(3);
        let times: Vec<f64> = (0..100).map(|_| rng.uniform(0.5e-6, 2.0e-6)).collect();
        let good = skew_error_with_reconstruction(d, d, band, &cap, &tone, &times);
        let bad = skew_error_with_reconstruction(d, d + 5e-12, band, &cap, &tone, &times);
        let g = good.reconstruction_error.unwrap();
        let b = bad.reconstruction_error.unwrap();
        assert!(g < 0.01, "good {g}");
        assert!(b > 2.0 * g, "bad {b} vs good {g}");
    }

    #[test]
    fn from_delay_strips_metadata() {
        let e = SkewEstimate::from_delay(1e-12);
        assert_eq!(e.delay, 1e-12);
        assert!(e.residual_cost.is_none());
        assert!(e.iterations.is_none());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_true_delay_panics() {
        let _ = skew_error(0.0, 1e-12);
    }
}
