//! Cross-validation of the two modeling styles: the analytic
//! continuous-time signal models must agree with a dense
//! oversampled-grid simulation interpolated back to arbitrary instants.

use rfbist::dsp::resample::fractional_delay;
use rfbist::math::interp::sinc_uniform;
use rfbist::math::rng::Randomizer;
use rfbist::prelude::*;

mod common;
use common::paper_stimulus;

/// Oversample the analytic signal onto a dense grid, then interpolate
/// the grid back to off-grid instants and compare with direct analytic
/// evaluation.
#[test]
fn analytic_evaluation_matches_grid_interpolation() {
    let tx = paper_stimulus(64);
    // dense grid: 8 GS/s over 2 µs starting inside the steady region
    let fs = 8e9;
    let t0 = 1.3e-6;
    let n = 16_000;
    let grid = tx.sample_uniform(t0, 1.0 / fs, n);

    let mut rng = Randomizer::from_seed(3);
    for _ in 0..200 {
        let t = rng.uniform(t0 + 50.0 / fs, t0 + (n as f64 - 50.0) / fs);
        let direct = tx.eval(t);
        let interpolated = sinc_uniform(&grid, t0, 1.0 / fs, t, 96);
        assert!(
            (direct - interpolated).abs() < 1e-2,
            "t = {t}: analytic {direct} vs grid {interpolated}"
        );
    }
}

/// The converter's view: an ideal BP-TIADC capture of the analytic
/// model must equal direct evaluation at the same instants.
#[test]
fn capture_agrees_with_direct_sampling() {
    let tx = paper_stimulus(64);
    let d = 180e-12;
    let mut adc = BpTiadc::new(BpTiadcConfig::ideal(90e6, d));
    let cap = adc.capture(&tx, 120, 60);
    let t_s = 1.0 / 90e6;
    for i in 0..60 {
        let t = (120 + i as i64) as f64 * t_s;
        assert!((cap.even()[i] - tx.eval(t)).abs() < 1e-6, "even {i}");
        assert!((cap.odd()[i] - tx.eval(t + d)).abs() < 1e-6, "odd {i}");
    }
}

/// A fractional delay applied in the discrete domain must match the
/// analytic `Delayed` combinator.
#[test]
fn discrete_fractional_delay_matches_analytic_delay() {
    let tone = Tone::new(3e6, 1.0, 0.4);
    let fs = 100e6;
    let n = 2000;
    let x = tone.sample_uniform(0.0, 1.0 / fs, n);
    let delay_samples = 2.7;
    let delayed_discrete = fractional_delay(&x, delay_samples, 24);
    let delayed_analytic = Delayed::new(tone, delay_samples / fs);
    for (i, &d) in delayed_discrete.iter().enumerate().take(n - 200).skip(200) {
        let t = i as f64 / fs;
        assert!((d - delayed_analytic.eval(t)).abs() < 2e-3, "sample {i}");
    }
}
