//! Truncated-sinc fractional delay.
//!
//! The oracle that cross-validates the analytic delay models against
//! grid simulations (`tests/analytic_vs_grid.rs`).

use crate::window::Window;
use rfbist_math::special::sinc;

/// Delays a signal by a fractional number of samples using a truncated
/// (Kaiser-windowed) sinc interpolator with `2·half_width + 1` taps.
///
/// Output has the same length; edges are zero-extended.
///
/// # Panics
///
/// Panics if `half_width == 0`.
pub fn fractional_delay(x: &[f64], delay: f64, half_width: usize) -> Vec<f64> {
    assert!(half_width > 0, "interpolator needs at least one tap");
    let n = x.len();
    let w = Window::Kaiser(8.0);
    let span = half_width as f64 + 1.0;
    (0..n)
        .map(|i| {
            let pos = i as f64 - delay;
            let center = pos.round() as isize;
            let mut acc = 0.0;
            for k in (center - half_width as isize)..=(center + half_width as isize) {
                if k >= 0 && (k as usize) < n {
                    let frac = pos - k as f64;
                    let taper = w.at(0.5 + frac / (2.0 * span));
                    acc += x[k as usize] * sinc(frac) * taper;
                }
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn tone(n: usize, f: f64) -> Vec<f64> {
        (0..n).map(|i| (2.0 * PI * f * i as f64).sin()).collect()
    }

    #[test]
    fn fractional_delay_shifts_tone() {
        let f0 = 0.03;
        let x = tone(512, f0);
        let d = 2.5;
        let y = fractional_delay(&x, d, 16);
        for (i, &v) in y.iter().enumerate().take(400).skip(100) {
            let want = (2.0 * PI * f0 * (i as f64 - d)).sin();
            assert!((v - want).abs() < 2e-3, "sample {i}: {v} vs {want}");
        }
    }

    #[test]
    fn integer_delay_matches_shift() {
        // a bandlimited multi-tone (all below 0.2 cycles/sample), so sinc
        // interpolation is valid
        let x: Vec<f64> = tone(200, 0.037)
            .iter()
            .zip(tone(200, 0.11))
            .zip(tone(200, 0.173))
            .map(|((a, b), c)| a + 0.5 * b - 0.3 * c)
            .collect();
        let y = fractional_delay(&x, 3.0, 20);
        for i in 60..140 {
            assert!((y[i] - x[i - 3]).abs() < 5e-3, "sample {i}");
        }
    }

    #[test]
    fn zero_delay_is_near_identity() {
        let x = tone(256, 0.04);
        let y = fractional_delay(&x, 0.0, 12);
        for i in 40..200 {
            assert!((y[i] - x[i]).abs() < 1e-6);
        }
    }
}
