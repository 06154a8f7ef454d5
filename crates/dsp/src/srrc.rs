//! Raised-cosine (RC) and square-root raised-cosine (SRRC) pulses.
//!
//! The paper's test stimulus is "10 MHz QPSK symbols shaped by a square
//! root raised cosine filter with a roll-off factor of α = 0.5". These
//! closed-form pulse evaluators serve the *continuous-time* evaluation
//! of the transmitted baseband at arbitrary sample instants that PNBS
//! needs.
//!
//! Time is normalized to the symbol period: `t_norm = t / Ts`. The pulses
//! are normalized so `rc(0) = 1` and `srrc ⊛ srrc = rc` (unit-symbol
//! convention; energy scaling is the caller's concern).

use rfbist_math::special::sinc;
use std::f64::consts::PI;

/// Raised-cosine pulse value at normalized time `t` (in symbol periods)
/// with roll-off `alpha ∈ [0, 1]`.
///
/// Zero-ISI: `rc(k) = 0` for all non-zero integers `k`.
///
/// # Panics
///
/// Panics if `alpha` is outside `[0, 1]`.
pub fn rc_pulse(t: f64, alpha: f64) -> f64 {
    assert!((0.0..=1.0).contains(&alpha), "roll-off must be in [0, 1]");
    if alpha == 0.0 {
        return sinc(t);
    }
    let denom_arg = 2.0 * alpha * t;
    let denom = 1.0 - denom_arg * denom_arg;
    if denom.abs() < 1e-10 {
        // limit at t = ±1/(2α)
        return (PI / 4.0) * sinc(1.0 / (2.0 * alpha));
    }
    sinc(t) * (PI * alpha * t).cos() / denom
}

/// Square-root raised-cosine pulse value at normalized time `t` (in symbol
/// periods) with roll-off `alpha ∈ (0, 1]`.
///
/// Normalized so that `srrc(0) = 1 − α + 4α/π` (the standard unit-symbol
/// convention in which SRRC⊛SRRC equals the RC pulse).
///
/// # Panics
///
/// Panics if `alpha` is outside `[0, 1]`.
pub fn srrc_pulse(t: f64, alpha: f64) -> f64 {
    assert!((0.0..=1.0).contains(&alpha), "roll-off must be in [0, 1]");
    if alpha == 0.0 {
        return sinc(t);
    }
    if t.abs() < 1e-10 {
        return 1.0 - alpha + 4.0 * alpha / PI;
    }
    let quarter = 1.0 / (4.0 * alpha);
    if (t.abs() - quarter).abs() < 1e-10 {
        // limit at t = ±1/(4α)
        let a = PI / (4.0 * alpha);
        return (alpha / 2f64.sqrt()) * ((1.0 + 2.0 / PI) * a.sin() + (1.0 - 2.0 / PI) * a.cos());
    }
    let four_at = 4.0 * alpha * t;
    ((PI * t * (1.0 - alpha)).sin() + four_at * (PI * t * (1.0 + alpha)).cos())
        / (PI * t * (1.0 - four_at * four_at))
}

/// Occupied (two-sided RF) bandwidth of an SRRC-shaped signal:
/// `(1 + α)·symbol_rate`.
pub fn occupied_bandwidth(symbol_rate: f64, alpha: f64) -> f64 {
    (1.0 + alpha) * symbol_rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc_is_one_at_origin_and_zero_at_integers() {
        for alpha in [0.0, 0.22, 0.5, 1.0] {
            assert!((rc_pulse(0.0, alpha) - 1.0).abs() < 1e-12, "alpha {alpha}");
            for k in 1..=5 {
                assert!(
                    rc_pulse(k as f64, alpha).abs() < 1e-10,
                    "alpha {alpha}, k {k}"
                );
            }
        }
    }

    #[test]
    fn rc_special_point_is_continuous() {
        let alpha = 0.5;
        let t0 = 1.0 / (2.0 * alpha);
        let v = rc_pulse(t0, alpha);
        let v_eps = rc_pulse(t0 + 1e-7, alpha);
        assert!((v - v_eps).abs() < 1e-5);
    }

    #[test]
    fn srrc_value_at_origin() {
        let alpha = 0.5;
        let expected = 1.0 - alpha + 4.0 * alpha / PI;
        assert!((srrc_pulse(0.0, alpha) - expected).abs() < 1e-12);
    }

    #[test]
    fn srrc_special_point_is_continuous() {
        let alpha = 0.5;
        let t0 = 1.0 / (4.0 * alpha);
        let v = srrc_pulse(t0, alpha);
        let v_eps = srrc_pulse(t0 + 1e-7, alpha);
        assert!((v - v_eps).abs() < 1e-5, "{v} vs {v_eps}");
    }

    #[test]
    fn srrc_is_even() {
        for alpha in [0.25, 0.5, 0.9] {
            for t in [0.3, 0.77, 1.5, 2.25] {
                assert!((srrc_pulse(t, alpha) - srrc_pulse(-t, alpha)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn srrc_zero_alpha_degenerates_to_sinc() {
        for t in [0.0, 0.4, 1.0, 2.5] {
            assert!((srrc_pulse(t, 0.0) - sinc(t)).abs() < 1e-12);
        }
    }

    #[test]
    fn srrc_convolved_with_itself_is_rc() {
        // Numerical check of the defining property at 16 samples/symbol,
        // on the pulse sampled over ±12 symbols; the convolution is
        // compared with RC after normalizing by its peak.
        let alpha = 0.5;
        let sps = 16usize;
        let half = (12 * sps) as isize;
        let h: Vec<f64> = (-half..=half)
            .map(|k| srrc_pulse(k as f64 / sps as f64, alpha))
            .collect();
        let n = h.len();
        let center = n - 1; // full convolution center index
        let conv_at = |lag: isize| -> f64 {
            let mut acc = 0.0;
            for i in 0..n {
                let j = center as isize + lag - i as isize;
                if j >= 0 && (j as usize) < n {
                    acc += h[i] * h[j as usize];
                }
            }
            acc
        };
        let peak = conv_at(0);
        // ISI-free: zero at multiples of sps
        for k in 1..=4 {
            let v = conv_at((k * sps) as isize) / peak;
            assert!(v.abs() < 2e-3, "ISI at symbol {k}: {v}");
        }
        // matches RC shape at half-symbol offset
        let v_half = conv_at((sps / 2) as isize) / peak;
        let rc_half = rc_pulse(0.5, alpha);
        assert!((v_half - rc_half).abs() < 2e-3, "{v_half} vs {rc_half}");
    }

    /// `pulse` sampled at `sps` samples per symbol over `±span` symbols.
    fn sampled(pulse: fn(f64, f64) -> f64, alpha: f64, span: usize, sps: usize) -> Vec<f64> {
        let half = (span * sps) as isize;
        (-half..=half)
            .map(|k| pulse(k as f64 / sps as f64, alpha))
            .collect()
    }

    #[test]
    fn srrc_taps_are_unit_energy_and_symmetric() {
        // srrc ⊛ srrc = rc and rc(0) = 1, so the pulse has unit energy
        // per symbol period; truncation at ±6 symbols loses < 1e-4.
        let sps = 8;
        let taps = sampled(srrc_pulse, 0.5, 6, sps);
        assert_eq!(taps.len(), 2 * 6 * 8 + 1);
        let energy: f64 = taps.iter().map(|&h| h * h).sum::<f64>() / sps as f64;
        assert!((energy - 1.0).abs() < 1e-4, "energy {energy}");
        for i in 0..taps.len() / 2 {
            assert!((taps[i] - taps[taps.len() - 1 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn rc_taps_peak_at_center() {
        let taps = sampled(rc_pulse, 0.35, 5, 4);
        let center = taps.len() / 2;
        assert!((taps[center] - 1.0).abs() < 1e-12);
        let max = taps.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert_eq!(max, 1.0);
    }

    #[test]
    fn occupied_bandwidth_formula() {
        // paper: 10 MHz QPSK, α = 0.5 -> 15 MHz occupied
        assert!((occupied_bandwidth(10e6, 0.5) - 15e6).abs() < 1.0);
    }

    #[test]
    fn srrc_decays_with_time() {
        let alpha = 0.5;
        assert!(srrc_pulse(8.0, alpha).abs() < 0.01);
        assert!(srrc_pulse(20.0, alpha).abs() < 0.002);
    }

    #[test]
    #[should_panic(expected = "roll-off must be in [0, 1]")]
    fn invalid_alpha_panics() {
        let _ = srrc_pulse(0.0, 1.5);
    }
}
