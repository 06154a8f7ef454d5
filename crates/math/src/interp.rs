//! Truncated-sinc interpolation of uniform samples.
//!
//! The oracle that cross-validates the analytic signal models against
//! oversampled-grid simulations (`tests/analytic_vs_grid.rs`).

use crate::special::sinc;

/// Truncated-sinc (Whittaker–Shannon) interpolation of uniformly-sampled
/// data at time `t`, using `2·half_width` taps around the target.
///
/// Exact (up to truncation) for signals bandlimited below the Nyquist rate
/// of the grid.
pub fn sinc_uniform(y: &[f64], t0: f64, dt: f64, t: f64, half_width: usize) -> f64 {
    assert!(dt > 0.0, "non-positive sample spacing");
    assert!(half_width > 0, "sinc interpolation needs at least one tap");
    let pos = (t - t0) / dt;
    let center = pos.round() as isize;
    let lo = (center - half_width as isize).max(0) as usize;
    let hi = ((center + half_width as isize) as usize).min(y.len().saturating_sub(1));
    let mut acc = 0.0;
    for (k, &yk) in y.iter().enumerate().take(hi + 1).skip(lo) {
        acc += yk * sinc(pos - k as f64);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn sinc_interp_recovers_bandlimited_tone() {
        // tone at 0.1 cycles/sample, well below Nyquist (0.5)
        let f0 = 0.1;
        let y: Vec<f64> = (0..256).map(|k| (2.0 * PI * f0 * k as f64).sin()).collect();
        for &t in &[100.25, 128.7, 130.5] {
            let got = sinc_uniform(&y, 0.0, 1.0, t, 64);
            let want = (2.0 * PI * f0 * t).sin();
            assert!((got - want).abs() < 2e-3, "t={t}: {got} vs {want}");
        }
    }

    #[test]
    fn sinc_interp_exact_on_grid() {
        let y: Vec<f64> = (0..32).map(|k| (k as f64 * 0.2).sin()).collect();
        let got = sinc_uniform(&y, 0.0, 1.0, 10.0, 8);
        assert!((got - y[10]).abs() < 1e-12);
    }
}
