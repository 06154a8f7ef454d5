//! Memoryless power-amplifier models.
//!
//! Behavioral AM/AM + AM/PM conversion applied to the complex envelope:
//! `y = G(|x|)·e^{j(∠x + Φ(|x|))}`. The classic trio — Rapp (solid-state),
//! Saleh (TWT), odd polynomial — plus an ideal linear reference.
//!
//! Only Saleh has AM/PM. The other three apply `y = x·G(|x|)/|x|`,
//! which keeps `∠x` without an `atan2` and a `sin_cos` per sample and
//! agrees with the polar form to about an ulp.

use rfbist_math::Complex64;

/// A memoryless PA nonlinearity.
///
/// # Example
///
/// ```
/// use rfbist_rfchain::pa::PaModel;
/// use rfbist_math::Complex64;
///
/// let pa = PaModel::rapp(10.0, 1.0, 2.0); // 20 dB gain, 1 V saturation
/// let small = pa.apply(Complex64::new(0.001, 0.0));
/// assert!((small.re / 0.001 - 10.0).abs() < 0.01); // linear for small input
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PaModel {
    /// Distortion-free amplifier with voltage gain `gain`.
    Linear {
        /// Linear voltage gain.
        gain: f64,
    },
    /// Rapp model: `G(r) = g·r / (1 + (g·r/v_sat)^{2p})^{1/(2p)}`, no
    /// AM/PM. Smooth compression typical of solid-state PAs.
    Rapp {
        /// Small-signal voltage gain.
        gain: f64,
        /// Output saturation voltage.
        v_sat: f64,
        /// Knee sharpness (`p → ∞` approaches a hard limiter).
        p: f64,
    },
    /// Saleh model: `G(r) = α_a·r/(1 + β_a·r²)`,
    /// `Φ(r) = α_p·r²/(1 + β_p·r²)` — strong AM/PM, typical of TWTs.
    Saleh {
        /// AM/AM numerator coefficient (small-signal gain).
        alpha_a: f64,
        /// AM/AM denominator coefficient.
        beta_a: f64,
        /// AM/PM numerator coefficient (radians).
        alpha_p: f64,
        /// AM/PM denominator coefficient.
        beta_p: f64,
    },
    /// Odd polynomial on the envelope: `y = a1·x + a3·x·|x|² + a5·x·|x|⁴`
    /// (complex-baseband form of a memoryless odd nonlinearity).
    Polynomial {
        /// Linear term.
        a1: f64,
        /// Third-order term (negative for compression).
        a3: f64,
        /// Fifth-order term.
        a5: f64,
    },
}

impl PaModel {
    /// Ideal amplifier with gain in dB.
    pub fn linear_db(gain_db: f64) -> Self {
        PaModel::Linear {
            gain: 10f64.powf(gain_db / 20.0),
        }
    }

    /// Rapp model constructor (voltage gain, saturation voltage, knee).
    ///
    /// # Panics
    ///
    /// Panics unless all parameters are positive.
    pub fn rapp(gain: f64, v_sat: f64, p: f64) -> Self {
        assert!(
            gain > 0.0 && v_sat > 0.0 && p > 0.0,
            "Rapp parameters must be positive"
        );
        PaModel::Rapp { gain, v_sat, p }
    }

    /// Classic Saleh TWT parameters (α_a = 2.1587, β_a = 1.1517,
    /// α_p = 4.0033, β_p = 9.1040).
    pub fn saleh_classic() -> Self {
        PaModel::Saleh {
            alpha_a: 2.1587,
            beta_a: 1.1517,
            alpha_p: 4.0033,
            beta_p: 9.104,
        }
    }

    /// AM/AM response: output envelope for input envelope `r ≥ 0`.
    pub fn am_am(&self, r: f64) -> f64 {
        debug_assert!(r >= 0.0);
        match *self {
            PaModel::Linear { gain } => gain * r,
            PaModel::Rapp { gain, v_sat, p } => {
                let lin = gain * r;
                lin / (1.0 + (lin / v_sat).powf(2.0 * p)).powf(1.0 / (2.0 * p))
            }
            PaModel::Saleh {
                alpha_a, beta_a, ..
            } => alpha_a * r / (1.0 + beta_a * r * r),
            PaModel::Polynomial { a1, a3, a5 } => a1 * r + a3 * r.powi(3) + a5 * r.powi(5),
        }
    }

    /// AM/PM response: phase shift (radians) for input envelope `r ≥ 0`.
    pub fn am_pm(&self, r: f64) -> f64 {
        match *self {
            PaModel::Saleh {
                alpha_p, beta_p, ..
            } => alpha_p * r * r / (1.0 + beta_p * r * r),
            _ => 0.0,
        }
    }

    /// Applies the nonlinearity to a complex envelope sample.
    pub fn apply(&self, x: Complex64) -> Complex64 {
        let r = x.abs();
        if r == 0.0 {
            return Complex64::ZERO;
        }
        match self {
            PaModel::Saleh { .. } => Complex64::from_polar(self.am_am(r), x.arg() + self.am_pm(r)),
            _ => x * (self.am_am(r) / r),
        }
    }

    /// Small-signal voltage gain (slope of AM/AM at the origin,
    /// numerically probed).
    pub fn small_signal_gain(&self) -> f64 {
        let r = 1e-9;
        self.am_am(r) / r
    }

    /// Input-referred 1 dB compression point: the input envelope at which
    /// the gain has dropped 1 dB below small-signal, found by bisection.
    ///
    /// Returns `None` for models that never compress (e.g. linear).
    pub fn input_p1db(&self) -> Option<f64> {
        let g0 = self.small_signal_gain();
        let target = g0 * 10f64.powf(-1.0 / 20.0);
        let compressed = |r: f64| self.am_am(r) / r < target;
        // bracket: find an upper bound where compression happened
        let mut hi = 1e-6;
        for _ in 0..80 {
            if compressed(hi) {
                break;
            }
            hi *= 2.0;
        }
        if !compressed(hi) {
            return None;
        }
        let mut lo = hi / 2.0;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if compressed(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(0.5 * (lo + hi))
    }

    /// Output-referred 1 dB compression point.
    pub fn output_p1db(&self) -> Option<f64> {
        self.input_p1db().map(|r| self.am_am(r))
    }
}

impl Default for PaModel {
    /// Unity-gain linear amplifier.
    fn default() -> Self {
        PaModel::Linear { gain: 1.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_is_exactly_linear() {
        let pa = PaModel::linear_db(20.0);
        let x = Complex64::new(0.3, -0.4);
        let y = pa.apply(x);
        assert!((y - x * 10.0).abs() < 1e-12);
        assert!(pa.input_p1db().is_none());
    }

    #[test]
    fn rapp_small_signal_gain() {
        let pa = PaModel::rapp(10.0, 1.0, 2.0);
        assert!((pa.small_signal_gain() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn rapp_saturates_at_vsat() {
        let pa = PaModel::rapp(10.0, 1.0, 2.0);
        let huge = pa.am_am(100.0);
        assert!((huge - 1.0).abs() < 1e-3, "saturated output {huge}");
        // monotone increasing
        let mut last = 0.0;
        for i in 1..100 {
            let v = pa.am_am(i as f64 * 0.01);
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn rapp_p1db_matches_analytic() {
        // For Rapp: gain drop of 1 dB when (lin/vsat)^{2p} = 10^{2p·1/20}/ ...
        // solve numerically: g(r)/g0 = (1+(g0 r/v)^{2p})^{-1/(2p)} = 10^{-1/20}
        // ⇒ (g0·r/v)^{2p} = 10^{2p/20} − 1
        let (g0, v, p) = (10.0, 1.0, 2.0);
        let pa = PaModel::rapp(g0, v, p);
        let rhs = (10f64.powf(2.0 * p / 20.0) - 1.0).powf(1.0 / (2.0 * p));
        let analytic = rhs * v / g0;
        let got = pa.input_p1db().unwrap();
        assert!(
            (got - analytic).abs() / analytic < 1e-6,
            "{got} vs {analytic}"
        );
    }

    #[test]
    fn higher_knee_is_more_linear_below_saturation() {
        let soft = PaModel::rapp(10.0, 1.0, 1.0);
        let hard = PaModel::rapp(10.0, 1.0, 10.0);
        // at half saturation input, the hard-knee PA compresses less
        let r = 0.05;
        assert!(hard.am_am(r) > soft.am_am(r));
    }

    #[test]
    fn saleh_peak_and_rolloff() {
        let pa = PaModel::saleh_classic();
        // Saleh AM/AM peaks at r = 1/sqrt(beta_a) then decreases
        let r_peak = 1.0 / 1.1517f64.sqrt();
        let peak = pa.am_am(r_peak);
        assert!(pa.am_am(r_peak * 0.5) < peak);
        assert!(pa.am_am(r_peak * 2.0) < peak);
    }

    #[test]
    fn saleh_has_am_pm() {
        let pa = PaModel::saleh_classic();
        assert_eq!(pa.am_pm(0.0), 0.0);
        assert!(pa.am_pm(0.5) > 0.1);
        // phase rotation shows up in apply()
        let y = pa.apply(Complex64::new(0.5, 0.0));
        assert!(y.arg().abs() > 0.1);
    }

    #[test]
    fn polynomial_compression() {
        let pa = PaModel::Polynomial {
            a1: 10.0,
            a3: -20.0,
            a5: 0.0,
        };
        assert!((pa.small_signal_gain() - 10.0).abs() < 1e-5);
        // gain at r=0.3: 10 − 20·0.09 = 8.2 → compressed
        assert!((pa.am_am(0.3) / 0.3 - 8.2).abs() < 1e-9);
        let p1 = pa.input_p1db().unwrap();
        // analytic: 10(1 − 2 r²) = 10·10^{-1/20} ⇒ r² = (1−10^{-1/20})/2
        let analytic = ((1.0 - 10f64.powf(-0.05)) / 2.0).sqrt();
        assert!((p1 - analytic).abs() < 1e-6);
    }

    #[test]
    fn apply_preserves_phase_without_ampm() {
        let pa = PaModel::rapp(5.0, 1.0, 2.0);
        let x = Complex64::from_polar(0.1, 1.2);
        let y = pa.apply(x);
        assert!((y.arg() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn cartesian_apply_matches_the_polar_form() {
        let polar = |pa: &PaModel, x: Complex64| {
            let r = x.abs();
            Complex64::from_polar(pa.am_am(r), x.arg() + pa.am_pm(r))
        };
        let inputs: Vec<Complex64> = (0..500)
            .map(|i| Complex64::from_polar(1e-3 + i as f64 * 7.3e-3, i as f64 * 0.731 - 3.0))
            .chain([Complex64::new(0.4, 0.0), Complex64::new(0.0, -0.4)])
            .collect();
        let memoryless = [
            PaModel::default(),
            PaModel::linear_db(20.0),
            PaModel::rapp(10.0, 40.0, 2.0),
            PaModel::rapp(10.0, 1.0, 2.0),
            PaModel::Polynomial {
                a1: 10.0,
                a3: -20.0,
                a5: 3.0,
            },
        ];
        for pa in memoryless {
            for &x in &inputs {
                let (got, want) = (pa.apply(x), polar(&pa, x));
                assert!(
                    (got - want).abs() <= 1e-15 * want.abs(),
                    "{pa:?} at {x}: {got} vs {want}"
                );
            }
        }
        let saleh = PaModel::saleh_classic();
        for &x in &inputs {
            assert_eq!(saleh.apply(x), polar(&saleh, x), "{x}");
        }
    }

    #[test]
    fn zero_input_zero_output() {
        for pa in [
            PaModel::default(),
            PaModel::rapp(10.0, 1.0, 2.0),
            PaModel::saleh_classic(),
        ] {
            assert_eq!(pa.apply(Complex64::ZERO), Complex64::ZERO);
        }
    }

    #[test]
    fn output_p1db_consistent() {
        let pa = PaModel::rapp(10.0, 2.0, 2.0);
        let rin = pa.input_p1db().unwrap();
        let rout = pa.output_p1db().unwrap();
        assert!((rout - pa.am_am(rin)).abs() < 1e-12);
        // output P1dB is ~1 dB below g0·rin
        let ideal = pa.small_signal_gain() * rin;
        assert!((20.0 * (rout / ideal).log10() + 1.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_rapp_panics() {
        let _ = PaModel::rapp(-1.0, 1.0, 2.0);
    }
}
