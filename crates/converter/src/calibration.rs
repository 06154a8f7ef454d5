//! Offset and gain background calibration.
//!
//! The paper notes that "the offset and the gain error calibrations are
//! relatively simple to implement \[16\]" and focuses on time skew. This
//! module supplies that simple machinery: estimate per-channel offset
//! and relative gain from a capture, and return a corrected capture, so
//! the skew estimators can assume offset/gain-clean streams.

use rfbist_sampling::NonuniformCapture;

/// Estimated channel mismatches of a two-channel capture.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MismatchEstimate {
    /// Mean of the even stream (offset estimate).
    pub offset_even: f64,
    /// Mean of the odd stream.
    pub offset_odd: f64,
    /// RMS ratio `odd/even` after offset removal (relative gain).
    pub gain_ratio: f64,
}

/// Estimates offsets and relative gain from a capture.
///
/// Assumes the two streams sample the *same* wide-sense-stationary
/// signal, so their long-run means and powers should agree — the
/// standard background-calibration assumption of Fu et al. \[16\].
pub fn estimate_mismatch(capture: &NonuniformCapture) -> MismatchEstimate {
    let n = capture.len() as f64;
    let offset_even = capture.even().iter().sum::<f64>() / n;
    let offset_odd = capture.odd().iter().sum::<f64>() / n;
    let pow = |s: &[f64], o: f64| s.iter().map(|&v| (v - o) * (v - o)).sum::<f64>() / n;
    let p_even = pow(capture.even(), offset_even);
    let p_odd = pow(capture.odd(), offset_odd);
    let gain_ratio = if p_even > 0.0 {
        (p_odd / p_even).sqrt()
    } else {
        1.0
    };
    MismatchEstimate {
        offset_even,
        offset_odd,
        gain_ratio,
    }
}

/// Returns a capture with the estimated offsets removed and the odd
/// stream rescaled onto the even stream's gain.
pub fn correct(capture: &NonuniformCapture, est: MismatchEstimate) -> NonuniformCapture {
    let even: Vec<f64> = capture
        .even()
        .iter()
        .map(|&v| v - est.offset_even)
        .collect();
    let inv_gain = if est.gain_ratio != 0.0 {
        1.0 / est.gain_ratio
    } else {
        1.0
    };
    let odd: Vec<f64> = capture
        .odd()
        .iter()
        .map(|&v| (v - est.offset_odd) * inv_gain)
        .collect();
    NonuniformCapture::from_streams(
        capture.period(),
        capture.delay(),
        capture.n_start(),
        even,
        odd,
    )
}

/// Convenience: estimate and correct in one call.
pub fn auto_calibrate(capture: &NonuniformCapture) -> (NonuniformCapture, MismatchEstimate) {
    let est = estimate_mismatch(capture);
    (correct(capture, est), est)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bptiadc::{BpTiadc, BpTiadcConfig};
    use rfbist_signal::tone::Tone;

    fn mismatched_capture() -> NonuniformCapture {
        let cfg = BpTiadcConfig::ideal(90e6, 180e-12).with_mismatch(0.08, -0.05, 0.0, 0.03);
        let mut adc = BpTiadc::new(cfg);
        // long capture over many tone periods for stable statistics
        adc.capture(&Tone::unit(0.9871e9), 0, 4000)
    }

    #[test]
    fn offsets_are_recovered() {
        let cap = mismatched_capture();
        let est = estimate_mismatch(&cap);
        assert!((est.offset_even - 0.08).abs() < 0.02, "{}", est.offset_even);
        assert!((est.offset_odd + 0.05).abs() < 0.02, "{}", est.offset_odd);
    }

    #[test]
    fn gain_ratio_is_recovered() {
        let cap = mismatched_capture();
        let est = estimate_mismatch(&cap);
        // odd gain error +3 % relative to even
        assert!((est.gain_ratio - 1.03).abs() < 0.01, "{}", est.gain_ratio);
    }

    #[test]
    fn correction_flattens_mismatch() {
        let cap = mismatched_capture();
        let (fixed, _) = auto_calibrate(&cap);
        let est2 = estimate_mismatch(&fixed);
        assert!(est2.offset_even.abs() < 1e-12);
        assert!(est2.offset_odd.abs() < 1e-12);
        assert!((est2.gain_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clean_capture_is_left_nearly_untouched() {
        let mut adc = BpTiadc::new(BpTiadcConfig::ideal(90e6, 180e-12));
        let cap = adc.capture(&Tone::unit(0.9871e9), 0, 4000);
        let (fixed, est) = auto_calibrate(&cap);
        assert!(est.offset_even.abs() < 5e-3);
        assert!((est.gain_ratio - 1.0).abs() < 5e-3);
        let max_change = cap
            .even()
            .iter()
            .zip(fixed.even())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_change < 0.01);
    }

    #[test]
    fn metadata_is_preserved() {
        let cap = mismatched_capture();
        let (fixed, _) = auto_calibrate(&cap);
        assert_eq!(fixed.period(), cap.period());
        assert_eq!(fixed.delay(), cap.delay());
        assert_eq!(fixed.n_start(), cap.n_start());
        assert_eq!(fixed.len(), cap.len());
    }
}
